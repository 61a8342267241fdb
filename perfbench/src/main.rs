//! The repository benchmark: drives the engine from outside through its
//! public entry points on four closed-loop workloads and prints one JSON
//! result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! * `--trace 0` measures whole engine runs with tracing off and reports
//!   the end-to-end metrics (`endtoend`).
//! * `--trace 1` reports the per-layer metrics: engine runs for the wait
//!   counters, a single-threaded replay of the same job with a span around
//!   every layer call, and isolated timings of each layer's public
//!   functions on the replay's recorded data (`layers`).
//! * `--smoke` shrinks every workload to a few windows.
//!
//! Every engine run and replay is checked against the exact reference;
//! `correct`, `attempted` and `failed` in the result line count windows.
//! `run.py` builds this package and is the command `BENCHMARK.json` names.

mod endtoend;
mod gate;
mod layers;
mod sys;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use gate::Gate;

/// `(name, value, unit)` in print order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Run the job once and print a `run` line (the end-to-end child).
    one_run: bool,
    /// The arguments as given, handed on to one-run children.
    raw: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut one_run = false;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = raw.iter().cloned();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        if flag == endtoend::ONE_RUN_FLAG {
            one_run = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        one_run,
        raw,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::workload(&args.workload, args.seed, args.smoke) else {
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {:?}",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    if args.one_run {
        return endtoend::one_run(&w);
    }
    let budget = Duration::from_secs_f64(args.seconds);
    println!(
        "workload {} seed {} tuples {} trace {}",
        w.name,
        args.seed,
        w.job.tuples(),
        u8::from(args.trace)
    );
    let mut gate = Gate::default();
    let metrics = if args.trace {
        layers::run(&w, budget, &mut gate)
    } else {
        endtoend::run(&w, &args.raw, budget, &mut gate)
    };
    if gate.attempted == 0 {
        gate.fault("no window was checked".into());
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", result_json(&gate, &metrics));
    ExitCode::SUCCESS
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(gate: &Gate, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a metric that produced one is
            // reported as null so the line still parses and the run is
            // visibly broken.
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.correct(),
        gate.attempted.max(1),
        gate.failed,
        body.join(", ")
    )
}
