#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The first form builds the `perfbench`
package (release profile, offline, into `$CARGO_TARGET_DIR`, default
`.bench_build`), prints the machine it runs on, runs one measurement and
passes its output through; the last line is the JSON result. The result's
metric names and units are checked against `BENCHMARK.json`: a run that
prints anything else exits non-zero without a result line.

`--smoke` runs every workload of `BENCHMARK.json` at a few windows, with
tracing off and on, and fails unless every named metric prints.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Directories whose sources make up the measured program.
SOURCE_DIRS = ["crates", "vendor", "perfbench"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock"]
SKIP_DIRS = {"target", ".bench_build", ".git"}
# One measurement must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("building perfbench failed")
    binary = os.path.join(target_dir(), "release", "perfbench")
    if not os.path.isabs(binary):
        binary = os.path.join(ROOT, binary)
    return binary


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the measured sources, so a result names its code even
    in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            paths.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(paths):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def machine(seed, workload):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "seed": seed,
        "workload": workload,
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, expected):
    """Problems with one result line, given the `{name: unit}` it must carry."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["the last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted is {result['attempted']!r}")
    got = result["metrics"]
    if sorted(got) != sorted(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        metric = got.get(name)
        if metric is None:
            continue
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} has value {value!r}")
        if metric.get("unit") != unit:
            problems.append(f"{name} has unit {metric.get('unit')!r}, expected {unit!r}")
    return problems


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_binary(binary, args):
    try:
        done = subprocess.run(
            [binary] + args, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)} ran past {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"perfbench exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    return lines


def smoke(binary, spec):
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            args = ["--workload", workload["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            lines = run_binary(binary, args)
            found = check_result(lines[-1], expected_metrics(spec, trace))
            result = json.loads(lines[-1]) if not found else None
            if result is not None and not result["correct"]:
                found.append("the run is not correct")
            status = "ok" if not found else "FAILED: " + "; ".join(found)
            print(f"smoke {workload['name']} trace {trace}: {status}")
            problems.extend(found)
    if problems:
        fail(f"smoke: {len(problems)} problem(s)")
    print("smoke: every workload printed every named metric")


def parse(argv):
    if argv == ["--smoke"]:
        return None
    flags = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(f"unknown argument {flag!r}")
        flags[flag] = next(it, None)
        if flags[flag] is None:
            fail(f"{flag} needs a value")
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        if flag not in flags:
            fail(f"{flag} is required")
    if flags["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return flags


def main():
    flags = parse(sys.argv[1:])
    spec = load_spec()
    binary = build()
    if flags is None:
        smoke(binary, spec)
        return
    seed = int(flags["--seed"]) if flags["--seed"].isdigit() else flags["--seed"]
    print("machine " + json.dumps(machine(seed, flags["--workload"])))
    args = [a for pair in flags.items() for a in pair]
    lines = run_binary(binary, args)
    problems = check_result(lines[-1], expected_metrics(spec, flags["--trace"] == "1"))
    if problems:
        print("\n".join(lines[:-1]))
        fail("; ".join(problems))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
