//! End-to-end measurement: whole engine runs with tracing off.
//!
//! Each timed run happens in a fresh child process (this binary again,
//! with `--one-run`), so a run's peak RSS is its own and no run inherits
//! the heap of the one before it. The parent computes the exact reference
//! once, hands every child the per-window fingerprints it must reproduce,
//! and keeps spawning children until the time budget is spent.
//!
//! Runs on a shared host fall into a fast mode and a slow one (another
//! tenant took the cores for part of the run), and the share of slow runs
//! drifts from minute to minute. Throughput is therefore reported as the
//! upper quartile over the runs and CPU time per tuple as the lower
//! quartile: the speed of the undisturbed runs, which a slow quarter does
//! not move and a lone lucky run does not set. Peak RSS is the median.
//! Set-up time is measured in the parent: the job cut to one window per
//! source, repeated (at least 15 runs and at least a second of them),
//! median.

use std::io::{Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::gate::{explain, fingerprints, wrong_windows, Fingerprints, Gate};
use crate::sys::{cpu_seconds, interpolated_quantile, median, peak_rss_mb, quantile};
use crate::workload::Workload;
use crate::Metrics;

/// Set-up measurements per invocation, at least; `setup_s` is their
/// median. Cheap set-ups repeat until `SETUP_BUDGET` is spent, so their
/// median rests on hundreds of samples.
const SETUP_MIN_RUNS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Timed runs at least, whatever the time budget.
const MIN_RUNS: usize = 5;
/// The flag that makes this binary a one-run child.
pub const ONE_RUN_FLAG: &str = "--one-run";

/// What one child measured, in the order of its `run` line.
struct RunLine {
    throughput_mtps: f64,
    cpu_ns_per_tuple: f64,
    p50_us: f64,
    p99_us: f64,
    samples: f64,
    peak_rss_mb: f64,
    imbalance: f64,
    state_replicas: f64,
    processed: f64,
    wrong: f64,
    windows: f64,
}

impl RunLine {
    fn parse(line: &str) -> Option<Self> {
        let v: Vec<f64> = line
            .strip_prefix("run ")?
            .split(' ')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        let [throughput_mtps, cpu_ns_per_tuple, p50_us, p99_us, samples, peak_rss_mb, imbalance, state_replicas, processed, wrong, windows] =
            v[..]
        else {
            return None;
        };
        Some(Self {
            throughput_mtps,
            cpu_ns_per_tuple,
            p50_us,
            p99_us,
            samples,
            peak_rss_mb,
            imbalance,
            state_replicas,
            processed,
            wrong,
            windows,
        })
    }
}

/// Child side: reads the expected fingerprints from stdin, runs the job
/// once, checks it and prints one `run` line.
pub fn one_run(w: &Workload) -> ExitCode {
    let mut text = String::new();
    if std::io::stdin().read_to_string(&mut text).is_err() {
        eprintln!("perfbench: cannot read the expected fingerprints");
        return ExitCode::FAILURE;
    }
    let Some(expected) = parse_fingerprints(&text) else {
        eprintln!("perfbench: malformed expected fingerprints");
        return ExitCode::FAILURE;
    };
    let tuples = w.job.tuples();
    let cpu_before = cpu_seconds();
    let start = Instant::now();
    let run = w.job.run(w.backend);
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu_before;
    let rss = peak_rss_mb();
    let wrong = wrong_windows(&fingerprints(&run.windows), &expected);
    if wrong > 0 {
        explain("engine run", &run.windows, &w.job.reference());
    }
    let r = &run.result;
    let hist = &r.latency_histogram;
    println!(
        "run {} {} {} {} {} {} {} {} {} {} {}",
        tuples as f64 / wall / 1e6,
        cpu * 1e9 / tuples as f64,
        interpolated_quantile(hist, 0.50),
        interpolated_quantile(hist, 0.99),
        hist.count(),
        rss,
        r.imbalance,
        r.total_state_replicas(),
        r.processed,
        wrong,
        expected.len()
    );
    ExitCode::SUCCESS
}

fn format_fingerprints(fps: &Fingerprints) -> String {
    fps.iter()
        .map(|(window, (keys, hash))| format!("{window} {keys} {hash}\n"))
        .collect()
}

fn parse_fingerprints(text: &str) -> Option<Fingerprints> {
    text.lines()
        .map(|line| {
            let mut parts = line.split(' ').map(str::parse::<u64>);
            let window = parts.next()?.ok()?;
            let keys = parts.next()?.ok()? as usize;
            let hash = parts.next()?.ok()?;
            Some((window, (keys, hash)))
        })
        .collect()
}

/// Runs one child; its `run` line, or `None` after recording why not.
fn spawn_run(args: &[String], expected: &str, gate: &mut Gate) -> Option<RunLine> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut child = Command::new(exe)
        .args(args)
        .arg(ONE_RUN_FLAG)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning a one-run child");
    let written = child
        .stdin
        .take()
        .expect("child stdin is piped")
        .write_all(expected.as_bytes());
    let output = child
        .wait_with_output()
        .expect("waiting for a one-run child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut line = None;
    for text in stdout.lines() {
        match RunLine::parse(text) {
            Some(parsed) => line = Some(parsed),
            None => println!("{text}"),
        }
    }
    if written.is_err() || !output.status.success() || line.is_none() {
        gate.fault(format!("a one-run child failed ({})", output.status));
        return None;
    }
    line
}

/// Runs the end-to-end measurement for about `budget` after set-up.
/// `args` are this invocation's arguments, passed on to every child.
pub fn run(w: &Workload, args: &[String], budget: Duration, gate: &mut Gate) -> Metrics {
    let tuples = w.job.tuples() as f64;
    let reference = w.job.reference();
    gate.self_test(&reference);
    let expected = format_fingerprints(&fingerprints(&reference));
    drop(reference);
    let setup_s = measure_setup(w, gate);

    let start = Instant::now();
    let mut runs: Vec<RunLine> = Vec::new();
    while runs.len() < MIN_RUNS || start.elapsed() < budget {
        let Some(r) = spawn_run(args, &expected, gate) else {
            break;
        };
        gate.attempted += r.windows as u64;
        gate.failed += r.wrong as u64;
        if r.processed != tuples {
            gate.fault(format!(
                "a run processed {} of {tuples} tuples",
                r.processed
            ));
        }
        if let Some(first) = runs.first() {
            if (r.imbalance, r.state_replicas) != (first.imbalance, first.state_replicas) {
                gate.fault(format!(
                    "imbalance/state replicas {}/{} differ from the first run's {}/{}",
                    r.imbalance, r.state_replicas, first.imbalance, first.state_replicas
                ));
            }
        }
        println!(
            "run {}: {:.3} Mt/s, {:.1} cpu ns/tuple, latency p50 {:.0} us p99 {:.0} us \
             ({} samples), peak RSS {:.1} MiB",
            runs.len(),
            r.throughput_mtps,
            r.cpu_ns_per_tuple,
            r.p50_us,
            r.p99_us,
            r.samples,
            r.peak_rss_mb
        );
        runs.push(r);
    }
    if runs.is_empty() {
        return Vec::new();
    }
    let pick = |f: fn(&RunLine) -> f64, q| quantile(&runs.iter().map(f).collect::<Vec<_>>(), q);
    println!(
        "{} runs of {tuples} tuples; imbalance {}; windows wrong {}/{}",
        runs.len(),
        runs[0].imbalance,
        gate.failed,
        gate.attempted
    );
    vec![
        ("throughput_mtps", pick(|r| r.throughput_mtps, 0.75), "Mt/s"),
        ("cpu_ns_per_tuple", pick(|r| r.cpu_ns_per_tuple, 0.25), "ns"),
        ("state_replicas", runs[0].state_replicas, "count"),
        ("peak_rss_mb", pick(|r| r.peak_rss_mb, 0.5), "MiB"),
        ("setup_s", setup_s, "s"),
    ]
}

/// Median wall time of the job cut to one window per source, over at
/// least `SETUP_MIN_RUNS` runs and at least `SETUP_BUDGET` of them.
fn measure_setup(w: &Workload, gate: &mut Gate) -> f64 {
    let cut = w.job.cut_to_one_window();
    let reference = cut.reference();
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < SETUP_MIN_RUNS || start.elapsed() < SETUP_BUDGET {
        let began = Instant::now();
        let run = cut.run(w.backend);
        times.push(began.elapsed().as_secs_f64());
        let label = format!("set-up run {}", times.len());
        gate.check_full(&label, &run.windows, &reference);
    }
    println!(
        "{} set-up runs: median {:.6} s, quartiles {:.6}..{:.6} s",
        times.len(),
        median(&times),
        quantile(&times, 0.25),
        quantile(&times, 0.75)
    );
    median(&times)
}
