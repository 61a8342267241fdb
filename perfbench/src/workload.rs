//! The four benchmark workloads and the engine entry points they run.
//!
//! Every workload is closed loop: two sources (one per core of the
//! reference machine) emit as fast as backpressure lets them, with zero
//! emulated service time, so the numbers price the program rather than a
//! spin loop. Input size is fixed per workload; only `--seed` changes the
//! stream.

use std::collections::{BTreeMap, HashMap};

use slb_core::{CountAggregate, PartitionerKind};
use slb_engine::{
    exact_scenario_windowed_counts, exact_windowed_counts, EngineConfig, InProc, ScenarioConfig,
    StagePlan, Topology, WindowId, WindowedRun,
};
use slb_net::TcpTransport;
use slb_workloads::{KeyId, Scenario, ScenarioPhase};

/// One window's exact per-key counts.
pub type Counts = HashMap<KeyId, u64>;
/// Merged per-window counts, as the engine and the exact reference produce.
pub type Windows = BTreeMap<WindowId, Counts>;

/// Tuples per window per source (the engine default).
const WINDOW: u64 = 4_096;
/// Source threads: one per core of the 2-core reference machine.
const SOURCES: usize = 2;
/// Windows per source in smoke mode.
const SMOKE_WINDOWS: u64 = 8;
/// Phases of the drift workload.
const DRIFT_PHASES: u64 = 8;
/// Drift epochs per phase of the drift workload.
const DRIFT_EPOCHS_PER_PHASE: u64 = 4;

/// The transport a workload runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    InProc,
    Tcp,
}

/// The engine front-end a workload uses.
#[derive(Debug, Clone)]
pub enum Job {
    Static(EngineConfig),
    Scenario(ScenarioConfig),
}

/// A named workload: the job and the backend it runs on.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub job: Job,
    pub backend: Backend,
}

/// The names `--workload` accepts, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["hot-dchoices", "wide-pkg", "drift-wchoices", "tcp-pkg"];

fn static_config(
    kind: PartitionerKind,
    skew: f64,
    keys: usize,
    workers: usize,
    aggregators: usize,
    windows: u64,
    seed: u64,
) -> EngineConfig {
    let mut cfg = EngineConfig::laptop(kind, skew)
        .with_messages(windows * WINDOW * SOURCES as u64)
        .with_service_time_us(0)
        .with_window_size(WINDOW)
        .with_aggregators(aggregators)
        .with_seed(seed);
    cfg.sources = SOURCES;
    cfg.workers = workers;
    cfg.keys = keys;
    cfg
}

/// Builds the named workload for `seed`; `smoke` shrinks it to a few
/// windows. `None` for an unknown name.
pub fn workload(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let windows = |full: u64| if smoke { SMOKE_WINDOWS } else { full };
    let (name, job, backend) = match name {
        // Routing-bound: SpaceSaving increments of counters already in the
        // sketch plus candidate-cache hits on a small, very hot key space.
        "hot-dchoices" => (
            "hot-dchoices",
            Job::Static(static_config(
                PartitionerKind::DChoices,
                2.0,
                10_000,
                8,
                1,
                windows(512),
                seed,
            )),
            Backend::InProc,
        ),
        // State-bound: a wide, mildly skewed key space that head tracking
        // bypasses, so worker state, window partials, checkpoint encode and
        // the aggregator merge dominate. The length fixes the state size.
        "wide-pkg" => (
            "wide-pkg",
            Job::Static(static_config(
                PartitionerKind::Pkg,
                0.8,
                1_000_000,
                8,
                2,
                windows(64),
                seed,
            )),
            Backend::InProc,
        ),
        // Head-tracking write path: the hot keys change identity every
        // eight windows, so the sketch evicts, head membership churns and
        // the candidate cache is invalidated; W-C adds its all-worker min
        // scan. Eight phases of four epochs each: every phase boundary
        // rebuilds the partitioner, so the head stays live for the whole
        // run instead of freezing once cumulative counts outgrow one
        // epoch's hot keys.
        "drift-wchoices" => {
            let phase_windows = windows(256) / DRIFT_PHASES;
            let scenario = (0..DRIFT_PHASES).fold(
                Scenario::new("drift-wchoices", SOURCES, WINDOW, seed),
                |scenario, _| {
                    scenario.phase(
                        ScenarioPhase::new(phase_windows, 100_000, 1.4, 8)
                            .with_drift_epochs(DRIFT_EPOCHS_PER_PHASE.min(phase_windows)),
                    )
                },
            );
            let cfg = ScenarioConfig::new(PartitionerKind::WChoices, scenario).with_aggregators(1);
            ("drift-wchoices", Job::Scenario(cfg), Backend::InProc)
        }
        // Transport-bound: the hot PKG stream over loopback TCP, so the wire
        // codec, socket hop and reader threads dominate.
        "tcp-pkg" => (
            "tcp-pkg",
            Job::Static(static_config(
                PartitionerKind::Pkg,
                2.0,
                10_000,
                4,
                1,
                windows(512),
                seed,
            )),
            Backend::Tcp,
        ),
        _ => return None,
    };
    Some(Workload { name, job, backend })
}

impl Job {
    /// Runs the job to completion through the engine's public entry point.
    pub fn run(&self, backend: Backend) -> WindowedRun<Counts> {
        match (self, backend) {
            (Job::Static(cfg), Backend::InProc) => {
                Topology::new(cfg.clone()).run_windowed_on(CountAggregate, &InProc)
            }
            (Job::Static(cfg), Backend::Tcp) => Topology::new(cfg.clone())
                .run_windowed_on(CountAggregate, &TcpTransport::loopback()),
            (Job::Scenario(cfg), Backend::InProc) => cfg.run_windowed_on(CountAggregate, &InProc),
            (Job::Scenario(cfg), Backend::Tcp) => {
                cfg.run_windowed_on(CountAggregate, &TcpTransport::loopback())
            }
        }
    }

    /// The single-threaded exact reference the merged windows must equal.
    pub fn reference(&self) -> Windows {
        match self {
            Job::Static(cfg) => exact_windowed_counts(cfg),
            Job::Scenario(cfg) => exact_scenario_windowed_counts(&cfg.scenario),
        }
    }

    /// The same job cut to one window per source: what remains is set-up
    /// (thread spawn, alias tables, sockets) and result assembly.
    pub fn cut_to_one_window(&self) -> Job {
        match self {
            Job::Static(cfg) => {
                let messages = cfg.window_size * cfg.sources as u64;
                Job::Static(cfg.clone().with_messages(messages))
            }
            Job::Scenario(cfg) => {
                let mut cfg = cfg.clone();
                cfg.scenario.phases.truncate(1);
                let phase = &mut cfg.scenario.phases[0];
                phase.drift_epochs = phase.drift_epochs.div_ceil(phase.windows).max(1);
                phase.windows = 1;
                Job::Scenario(cfg)
            }
        }
    }

    /// The resolved stage plan every engine run of this job executes.
    pub fn plan(&self) -> StagePlan {
        match self {
            Job::Static(cfg) => cfg.stage_plan(),
            Job::Scenario(cfg) => cfg.stage_plan(),
        }
    }

    /// Total tuples across all sources.
    pub fn tuples(&self) -> u64 {
        let plan = self.plan();
        plan.phases.iter().map(|p| p.tuples_per_source).sum::<u64>() * plan.sources as u64
    }
}
