//! Per-layer measurement (`--trace 1`).
//!
//! Three sources of numbers, all on the workload's own stream:
//!
//! 1. **Engine runs** (tracing off) give the wait counters the engine keeps
//!    in `EngineResult::transport`: send stalls, receive waits, queue depth
//!    and batch fill. They name the bottleneck stage; they are read, never
//!    added up.
//! 2. **A single-threaded replay** of the same job — generate → route →
//!    batch → worker stage → aggregator stage — built from the engine's
//!    public functions, with a span recorded around every layer call and
//!    kept in memory until the end. Sources are interleaved window by
//!    window so workers see the engine's window order. The replay is also
//!    the single-thread baseline of the job, and an untraced replay run
//!    alongside prices the tracing itself.
//! 3. **Isolated timings** of each layer's public functions on data the
//!    replay recorded (worker 0's batches, source 0's keys).
//!
//! The replay's merged windows go through the same gate as engine runs,
//! and its worker loads and state sizes must equal the engine's exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use slb_core::{
    imbalance, CountAggregate, HeadAwarePartitioner, OpenWindowState, PartialKeyGrouping,
    PartitionConfig, Partitioner, PartitionerKind, WindowAggregate, WirePartial, WorkerCheckpoint,
};
use slb_engine::windows::source_stream;
use slb_engine::{
    run_aggregator_stage, run_worker_stage, InProc, SourceMessage, StagePlan, Transport,
    TupleBatch, TupleReceiver, TupleSender, WindowId, WindowedRun,
};
use slb_hash::splitmix::splitmix64;
use slb_net::wire::{decode_tuple_frame, encode_tuple_frame};
use slb_net::{TcpTransport, TupleFrame};
use slb_sketch::SpaceSaving;
use slb_telemetry::LogHistogram;
use slb_workloads::{KeyId, KeyStream};

use crate::gate::{explain, fingerprints, Fingerprints, Gate};
use crate::sys::{interpolated_quantile, median};
use crate::workload::{Counts, Job, Windows, Workload};
use crate::Metrics;

/// Share of the budget spent on engine runs; the replays take the rest.
const ENGINE_SHARE: f64 = 0.3;
/// Timed rounds of each isolated layer timing; the median is reported.
const ROUNDS: usize = 5;
/// Batches in flight per round trip of the transport timings.
const HOP_CHUNK: usize = 64;
/// Source-0 keys fed to the isolated sketch timing, at most.
const SKETCH_KEYS: usize = 1 << 21;
/// Values recorded per round of the telemetry timing.
const TELEMETRY_VALUES: usize = 1 << 20;
/// Channel capacity that never blocks the single-threaded replay.
const UNBOUNDED: usize = usize::MAX / 2;

/// The layers the replay brackets with spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Generate,
    Route,
    Send,
    Worker,
    Aggregator,
    Assemble,
}

/// One layer call: which layer, its key (window for the source-side
/// layers, worker or shard index for the stages), start and end.
struct Span {
    layer: Layer,
    key: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans in memory when on; a pass-through when off.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn span<R>(&mut self, layer: Layer, key: u64, call: impl FnOnce() -> R) -> R {
        if !self.on {
            return call();
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = call();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            key,
            start_ns,
            end_ns,
        });
        out
    }

    /// Summed duration of `layer`'s spans. Spans never nest, so this is
    /// the layer's self time.
    fn total_ns(&self, layer: Layer) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The key whose `layer` spans add up to the most time, and that time.
    fn slowest(&self, layer: Layer) -> (u64, u64) {
        let mut by_key: BTreeMap<u64, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.layer == layer) {
            *by_key.entry(span.key).or_default() += span.end_ns - span.start_ns;
        }
        by_key
            .into_iter()
            .max_by_key(|&(_, ns)| ns)
            .unwrap_or_default()
    }

    fn all_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.end_ns - s.start_ns).sum()
    }
}

/// The partitioners the workloads use, unboxed so the replay can read
/// their head state after routing.
enum Router {
    Pkg(PartialKeyGrouping),
    Head(Box<HeadAwarePartitioner<KeyId>>),
}

/// Head-tracking state of one source's partitioner at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct HeadState {
    generation: u64,
    cardinality: usize,
    mass: f64,
    d: usize,
    min_count: u64,
}

impl Router {
    fn new(kind: PartitionerKind, cfg: &PartitionConfig) -> Self {
        match kind {
            PartitionerKind::Pkg => Router::Pkg(PartialKeyGrouping::new(cfg)),
            PartitionerKind::DChoices => {
                Router::Head(Box::new(HeadAwarePartitioner::d_choices(cfg)))
            }
            PartitionerKind::WChoices => {
                Router::Head(Box::new(HeadAwarePartitioner::w_choices(cfg)))
            }
            other => panic!("no benchmark workload routes with {other:?}"),
        }
    }

    fn partitioner(&mut self) -> &mut dyn Partitioner<KeyId> {
        match self {
            Router::Pkg(p) => p,
            Router::Head(p) => p.as_mut(),
        }
    }

    fn head_state(&mut self) -> HeadState {
        match self {
            Router::Pkg(_) => HeadState {
                d: 2,
                ..HeadState::default()
            },
            Router::Head(p) => {
                let snapshot = p.head().snapshot();
                HeadState {
                    generation: p.head().generation(),
                    cardinality: snapshot.cardinality(),
                    // `+ 0.0` turns the empty sum's -0.0 into 0.0.
                    mass: snapshot.mass() + 0.0,
                    d: p.head_choices(),
                    min_count: p.head().sketch().min_count(),
                }
            }
        }
    }
}

/// One batch worker 0 received in the replay.
struct Recorded {
    window: WindowId,
    source: usize,
    seq: u64,
    keys: Vec<KeyId>,
}

impl Recorded {
    fn message(&self, emitted_at: Instant) -> SourceMessage {
        SourceMessage::Batch(TupleBatch {
            keys: self.keys.clone(),
            window: self.window,
            source: self.source,
            seq: self.seq,
            emitted_at,
        })
    }
}

/// One source's send side in the replay.
struct SourceState<S> {
    stream: Option<S>,
    router: Option<Router>,
    pending: Vec<Vec<KeyId>>,
    next_seq: Vec<u64>,
    emitted: u64,
}

/// What one replay produced.
struct Replay {
    wall_ns: u64,
    tuples: u64,
    tracer: Tracer,
    windows: Windows,
    worker_counts: Vec<u64>,
    state_keys: Vec<u64>,
    partials_merged: u64,
    /// Head state of source 0, with `generation` summed over all sources.
    head: HeadState,
    recorded: Vec<Recorded>,
}

/// Ships one batch (or close marker) down the replay's worker channel.
fn ship(tx: &impl TupleSender, seq: &mut u64, message: impl FnOnce(u64) -> SourceMessage) {
    let this = *seq;
    *seq += 1;
    tx.send(message(this))
        .expect("replay worker channel is open until the send phase ends");
}

/// Replays the whole job on this thread through the engine's public stage
/// functions.
fn replay<S: KeyStream>(
    plan: &StagePlan,
    stream_for: &impl Fn(usize, usize) -> S,
    traced: bool,
) -> Replay {
    let start = Instant::now();
    let mut tracer = Tracer::new(traced);
    let workers = plan.spawned_workers;
    let batch = plan.batch_size;
    let (txs, rxs) = <InProc as Transport<Counts>>::tuple_channels(&InProc, workers, UNBOUNDED);
    let mut sources: Vec<SourceState<S>> = (0..plan.sources)
        .map(|_| SourceState {
            stream: None,
            router: None,
            pending: (0..workers).map(|_| Vec::with_capacity(batch)).collect(),
            next_seq: vec![0; workers],
            emitted: 0,
        })
        .collect();
    let mut keybuf: Vec<KeyId> = Vec::with_capacity(plan.window_size as usize);
    let mut routes: Vec<usize> = Vec::with_capacity(plan.window_size as usize);
    let mut chunk_routes: Vec<usize> = Vec::with_capacity(batch);
    let mut recorded: Vec<Recorded> = Vec::new();
    let mut tuples = 0u64;
    let stamp = Instant::now();
    for (p, phase) in plan.phases.iter().enumerate() {
        let cfg = PartitionConfig::new(phase.workers)
            .with_seed(plan.seed)
            .with_solver(plan.solver);
        for (s, src) in sources.iter_mut().enumerate() {
            src.stream = Some(stream_for(p, s));
            match src.router.as_mut() {
                None => src.router = Some(Router::new(plan.kind, &cfg)),
                Some(router) => router.partitioner().rescale(&cfg),
            }
            src.emitted = 0;
        }
        for w in 0..phase.windows {
            let window = phase.start_window + w;
            for (s, src) in sources.iter_mut().enumerate() {
                let take = (phase.tuples_per_source - src.emitted).min(plan.window_size) as usize;
                tracer.span(Layer::Generate, window, || {
                    keybuf.clear();
                    let stream = src.stream.as_mut().expect("stream opened at phase start");
                    keybuf.extend((0..take).map_while(|_| stream.next_key()));
                });
                tracer.span(Layer::Route, window, || {
                    routes.clear();
                    let part = src.router.as_mut().expect("router built").partitioner();
                    for chunk in keybuf.chunks(batch) {
                        part.route_batch(chunk, &mut chunk_routes);
                        routes.extend_from_slice(&chunk_routes);
                    }
                });
                tracer.span(Layer::Send, window, || {
                    let mut send = |worker: usize, src: &mut SourceState<S>| {
                        let keys =
                            std::mem::replace(&mut src.pending[worker], Vec::with_capacity(batch));
                        let seq = &mut src.next_seq[worker];
                        if worker == 0 {
                            recorded.push(Recorded {
                                window,
                                source: s,
                                seq: *seq,
                                keys: keys.clone(),
                            });
                        }
                        ship(&txs[worker], seq, |seq| {
                            SourceMessage::Batch(TupleBatch {
                                keys,
                                window,
                                source: s,
                                seq,
                                emitted_at: stamp,
                            })
                        });
                    };
                    for (&key, &worker) in keybuf.iter().zip(&routes) {
                        src.pending[worker].push(key);
                        if src.pending[worker].len() == batch {
                            send(worker, src);
                        }
                    }
                    for (worker, tx) in txs.iter().enumerate() {
                        if !src.pending[worker].is_empty() {
                            send(worker, src);
                        }
                        ship(tx, &mut src.next_seq[worker], |seq| {
                            SourceMessage::CloseWindow {
                                window,
                                source: s,
                                seq,
                            }
                        });
                    }
                });
                src.emitted += keybuf.len() as u64;
                tuples += keybuf.len() as u64;
            }
        }
    }
    drop(txs);

    let (ptxs, prxs) =
        <InProc as Transport<Counts>>::partial_channels(&InProc, plan.aggregators, UNBOUNDED);
    let epoch = Instant::now();
    let mut worker_counts = Vec::with_capacity(workers);
    let mut state_keys = Vec::with_capacity(workers);
    for (w, rx) in rxs.into_iter().enumerate() {
        let report = tracer.span(Layer::Worker, w as u64, || {
            run_worker_stage(plan, w, epoch, &CountAggregate, rx, &ptxs)
        });
        worker_counts.push(report.processed);
        state_keys.push(report.state_keys);
    }
    drop(ptxs);
    let mut windows = Windows::new();
    let mut partials_merged = 0;
    for (a, rx) in prxs.into_iter().enumerate() {
        let report = tracer.span(Layer::Aggregator, a as u64, || {
            run_aggregator_stage(workers, &CountAggregate, rx, a, plan.telemetry)
        });
        partials_merged += report.merged;
        tracer.span(Layer::Assemble, a as u64, || {
            for (window, counts) in report.finalized {
                windows.entry(window).or_default().extend(counts);
            }
        });
    }
    let wall_ns = start.elapsed().as_nanos() as u64;

    let mut head = HeadState::default();
    for (s, src) in sources.iter_mut().enumerate() {
        let state = src.router.as_mut().expect("router built").head_state();
        if s == 0 {
            head = state;
            head.generation = 0;
        }
        head.generation += state.generation;
    }
    Replay {
        wall_ns,
        tuples,
        tracer,
        windows,
        worker_counts,
        state_keys,
        partials_merged,
        head,
        recorded,
    }
}

/// Replays `job` with its own stream constructor.
fn replay_job(job: &Job, traced: bool) -> Replay {
    let plan = job.plan();
    match job {
        Job::Static(cfg) => replay(&plan, &|_, s| source_stream(cfg, s), traced),
        Job::Scenario(cfg) => replay(&plan, &|p, s| cfg.scenario.phase_stream(p, s), traced),
    }
}

/// Source 0's keys, all phases in order, at most `limit`.
fn source0_keys(job: &Job, limit: usize) -> Vec<KeyId> {
    let plan = job.plan();
    let mut keys = Vec::new();
    for p in 0..plan.phases.len() {
        let room = limit - keys.len();
        match job {
            Job::Static(cfg) => keys.extend(take_keys(source_stream(cfg, 0), room)),
            Job::Scenario(cfg) => keys.extend(take_keys(cfg.scenario.phase_stream(p, 0), room)),
        }
    }
    keys
}

fn take_keys(mut stream: impl KeyStream, limit: usize) -> Vec<KeyId> {
    (0..limit).map_while(|_| stream.next_key()).collect()
}

/// Median over `ROUNDS` rounds of `round`, which returns the time it
/// measured and the operations it timed; in ns per operation.
fn ns_per_op(mut round: impl FnMut() -> (Duration, u64)) -> f64 {
    let per_round: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (elapsed, ops) = round();
            elapsed.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&per_round)
}

fn timed<R>(elapsed: &mut Duration, call: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = call();
    *elapsed += start.elapsed();
    out
}

/// Send then drain `recorded` in chunks through one transport channel.
fn hop_ns_per_batch<Tx: TupleSender, Rx: TupleReceiver>(
    tx: &Tx,
    rx: &Rx,
    recorded: &[Recorded],
) -> f64 {
    let stamp = Instant::now();
    let mut drained: Vec<SourceMessage> = Vec::with_capacity(HOP_CHUNK);
    ns_per_op(|| {
        let mut elapsed = Duration::ZERO;
        for chunk in recorded.chunks(HOP_CHUNK) {
            let messages: Vec<SourceMessage> = chunk.iter().map(|r| r.message(stamp)).collect();
            timed(&mut elapsed, || {
                for message in messages {
                    tx.send(message).expect("benchmark channel is open");
                }
                let mut got = 0;
                while got < chunk.len() {
                    drained.clear();
                    got += rx
                        .recv_batch(&mut drained)
                        .expect("benchmark channel is open");
                }
            });
        }
        (elapsed, recorded.len() as u64)
    })
}

fn inproc_ns_per_batch(recorded: &[Recorded]) -> f64 {
    let (txs, rxs) = <InProc as Transport<Counts>>::tuple_channels(&InProc, 1, HOP_CHUNK);
    hop_ns_per_batch(&txs[0], &rxs[0], recorded)
}

fn tcp_ns_per_batch(recorded: &[Recorded]) -> f64 {
    let transport = TcpTransport::loopback();
    let (mut txs, rxs) =
        <TcpTransport as Transport<Counts>>::tuple_channels(&transport, 1, HOP_CHUNK);
    let ns = hop_ns_per_batch(&txs[0], &rxs[0], recorded);
    // Dropping the sender sends EOF; draining to `Closed` lets the reader
    // thread finish before the receiver goes away.
    txs.clear();
    let mut rest = Vec::new();
    while rxs[0].recv_batch(&mut rest).is_ok() {
        rest.clear();
    }
    ns
}

fn frames(recorded: &[Recorded]) -> Vec<TupleFrame> {
    recorded
        .iter()
        .map(|r| TupleFrame::Batch {
            window: r.window,
            source: r.source as u32,
            seq: r.seq,
            emitted_us: 0,
            keys: r.keys.clone(),
        })
        .collect()
}

fn wire_ns_per_batch(recorded: &[Recorded]) -> (f64, f64) {
    let frames = frames(recorded);
    let mut buf = Vec::new();
    let encode = ns_per_op(|| {
        buf.clear();
        let start = Instant::now();
        for frame in &frames {
            encode_tuple_frame(frame, &mut buf);
        }
        (start.elapsed(), frames.len() as u64)
    });
    let decode = ns_per_op(|| {
        let start = Instant::now();
        let mut at = 0;
        while at < buf.len() {
            let (frame, used) = decode_tuple_frame(&buf[at..]).expect("frames just encoded");
            black_box(frame);
            at += used;
        }
        (start.elapsed(), frames.len() as u64)
    });
    (encode, decode)
}

/// Worker 0's recorded batches grouped by window, in window order.
fn by_window(recorded: &[Recorded]) -> Vec<(WindowId, Vec<&[KeyId]>)> {
    let mut out: Vec<(WindowId, Vec<&[KeyId]>)> = Vec::new();
    for r in recorded {
        match out.last_mut() {
            Some((window, batches)) if *window == r.window => batches.push(&r.keys),
            _ => out.push((r.window, vec![&r.keys])),
        }
    }
    out
}

struct AggregateTimes {
    observe_ns_per_tuple: f64,
    shard_ns_per_key: f64,
    merge_ns_per_key: f64,
    checkpoint_ns_per_window: f64,
    checkpoint_bytes_per_window: f64,
}

/// Worker-side aggregation on worker 0's windows: observe every tuple into
/// a window partial, shard it, merge the shards back, and encode the
/// checkpoint the worker writes when the window closes.
fn aggregate_times(recorded: &[Recorded], shards: usize, sources: usize) -> AggregateTimes {
    let agg = CountAggregate;
    let windows = by_window(recorded);
    let tuples: u64 = recorded.iter().map(|r| r.keys.len() as u64).sum();
    let mut partials: Vec<Counts> = Vec::new();
    let observe_ns_per_tuple = ns_per_op(|| {
        let start = Instant::now();
        let built: Vec<Counts> = windows
            .iter()
            .map(|(_, batches)| {
                let mut partial = WindowAggregate::<KeyId>::empty(&agg);
                for keys in batches {
                    for key in *keys {
                        agg.observe(&mut partial, key, 1);
                    }
                }
                partial
            })
            .collect();
        let elapsed = start.elapsed();
        partials = built;
        (elapsed, tuples)
    });
    let keys: u64 = partials.iter().map(|p| p.len() as u64).sum();
    let mut sharded: Vec<Vec<Counts>> = Vec::new();
    let shard_ns_per_key = ns_per_op(|| {
        let inputs = partials.clone();
        let start = Instant::now();
        let out: Vec<Vec<Counts>> = inputs
            .into_iter()
            .map(|p| WindowAggregate::<KeyId>::shard(&agg, p, shards))
            .collect();
        let elapsed = start.elapsed();
        sharded = out;
        (elapsed, keys)
    });
    let merge_ns_per_key = ns_per_op(|| {
        let inputs = sharded.clone();
        let start = Instant::now();
        for slices in inputs {
            let mut merged = WindowAggregate::<KeyId>::empty(&agg);
            for slice in slices {
                WindowAggregate::<KeyId>::merge(&agg, &mut merged, slice);
            }
            black_box(merged);
        }
        (start.elapsed(), keys)
    });

    let mut seen = BTreeSet::new();
    let mut processed = 0u64;
    let checkpoints: Vec<WorkerCheckpoint> = windows
        .iter()
        .zip(&partials)
        .map(|((window, batches), partial)| {
            for keys in batches {
                seen.extend(keys.iter().copied());
                processed += keys.len() as u64;
            }
            let mut blob = Vec::new();
            partial.encode_partial(&mut blob);
            WorkerCheckpoint {
                worker: 0,
                windows_closed: window + 1,
                processed,
                phase_counts: vec![processed],
                next_seq: vec![0; sources],
                state_keys: seen.iter().copied().collect(),
                open: vec![OpenWindowState {
                    window: window + 1,
                    closes_seen: 0,
                    partial: Some(blob),
                }],
            }
        })
        .collect();
    let mut buf = Vec::new();
    let mut bytes = 0usize;
    let checkpoint_ns_per_window = ns_per_op(|| {
        let mut elapsed = Duration::ZERO;
        bytes = 0;
        for checkpoint in &checkpoints {
            buf.clear();
            timed(&mut elapsed, || checkpoint.encode(&mut buf));
            bytes += buf.len();
        }
        (elapsed, checkpoints.len() as u64)
    });
    AggregateTimes {
        observe_ns_per_tuple,
        shard_ns_per_key,
        merge_ns_per_key,
        checkpoint_ns_per_window,
        checkpoint_bytes_per_window: bytes as f64 / checkpoints.len().max(1) as f64,
    }
}

fn sketch_ns_per_key(keys: &[KeyId], capacity: usize) -> f64 {
    ns_per_op(|| {
        let mut sketch = SpaceSaving::new(capacity);
        let start = Instant::now();
        for key in keys {
            black_box(sketch.observe_counts(key));
        }
        (start.elapsed(), keys.len() as u64)
    })
}

fn telemetry_record_ns() -> f64 {
    let values: Vec<u64> = (0..TELEMETRY_VALUES as u64)
        .map(|i| splitmix64(i) % (1 << 20))
        .collect();
    ns_per_op(|| {
        let mut hist = LogHistogram::new();
        let start = Instant::now();
        for &v in &values {
            hist.record(v);
        }
        black_box(&hist);
        (start.elapsed(), values.len() as u64)
    })
}

/// Wait counters of one engine run, as shares of its wall time.
struct Waits {
    throughput_mtps: f64,
    send_stall_frac: f64,
    recv_wait_frac: f64,
    queue_depth_hwm: f64,
    batch_fill_mean: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    latency_samples: f64,
}

fn waits(run: &WindowedRun<Counts>, wall: f64, tuples: u64, plan: &StagePlan) -> Waits {
    let t = &run.result.transport;
    let wall_us = wall * 1e6;
    Waits {
        throughput_mtps: tuples as f64 / wall / 1e6,
        send_stall_frac: t.source.send_stall_us as f64 / (plan.sources as f64 * wall_us),
        recv_wait_frac: t.worker.recv_wait_us as f64 / (plan.spawned_workers as f64 * wall_us),
        queue_depth_hwm: t.worker.queue_depth_hwm as f64,
        batch_fill_mean: t.worker.batch_occupancy.mean() / plan.batch_size as f64,
        latency_p50_us: interpolated_quantile(&run.result.latency_histogram, 0.50),
        latency_p99_us: interpolated_quantile(&run.result.latency_histogram, 0.99),
        latency_samples: run.result.latency_histogram.count() as f64,
    }
}

/// Runs the per-layer measurement for about `budget`.
pub fn run(w: &Workload, budget: Duration, gate: &mut Gate) -> Metrics {
    let plan = w.job.plan();
    let tuples = w.job.tuples();
    let reference = w.job.reference();
    let expected = fingerprints(&reference);
    gate.self_test(&reference);

    // Engine runs: wait counters and the parallel throughput the replay is
    // compared against. Run 0 warms up and is not reported.
    let start = Instant::now();
    let mut engine: Vec<Waits> = Vec::new();
    let mut exact = None;
    for i in 0.. {
        let began = Instant::now();
        let run = w.job.run(w.backend);
        let wall = began.elapsed().as_secs_f64();
        check_run(
            gate,
            &format!("engine run {i}"),
            &run.windows,
            &expected,
            &reference,
        );
        let this = (run.result.imbalance, run.result.total_state_replicas());
        if exact.is_some_and(|seen| seen != this) {
            gate.fault(format!(
                "engine run {i}: imbalance/state replicas {this:?} changed"
            ));
        }
        exact = Some(this);
        if i > 0 {
            engine.push(waits(&run, wall, tuples, &plan));
        }
        if engine.len() >= 2 && start.elapsed().as_secs_f64() >= budget.as_secs_f64() * ENGINE_SHARE
        {
            break;
        }
    }
    let (engine_imbalance, engine_replicas) = exact.expect("engine ran");

    // Replays, traced and untraced in alternation.
    let mut traced: Option<Replay> = None;
    let mut traced_ns = Vec::new();
    let mut plain_ns = Vec::new();
    let mut exact_counts: Option<(u64, u64, u64, u64)> = None;
    while traced_ns.is_empty() || start.elapsed() < budget {
        for on in [true, false] {
            let r = replay_job(&w.job, on);
            let label = if on {
                "traced replay"
            } else {
                "untraced replay"
            };
            check_run(gate, label, &r.windows, &expected, &reference);
            let replicas: u64 = r.state_keys.iter().sum();
            if imbalance(&r.worker_counts) != engine_imbalance || replicas != engine_replicas {
                gate.fault(format!(
                    "{label}: imbalance {} / state replicas {replicas} differ from the \
                     engine's {engine_imbalance} / {engine_replicas}",
                    imbalance(&r.worker_counts)
                ));
            }
            let counts = (
                r.head.generation,
                r.head.cardinality as u64,
                r.head.min_count,
                r.partials_merged,
            );
            if exact_counts.is_some_and(|seen| seen != counts) {
                gate.fault(format!(
                    "{label}: exact head counts {counts:?} changed between replays"
                ));
            }
            exact_counts = Some(counts);
            if on {
                traced_ns.push(r.wall_ns as f64);
                traced.get_or_insert(r);
            } else {
                plain_ns.push(r.wall_ns as f64);
            }
        }
    }
    let r = traced.expect("one traced replay ran");
    for (name, layer) in [
        ("generate", Layer::Generate),
        ("route", Layer::Route),
        ("send", Layer::Send),
        ("worker", Layer::Worker),
    ] {
        let (key, ns) = r.tracer.slowest(layer);
        let unit = if layer == Layer::Worker {
            "worker"
        } else {
            "window"
        };
        println!("slowest {name} span: {unit} {key}, {ns} ns");
    }
    let per_tuple = |layer| r.tracer.total_ns(layer) as f64 / r.tuples as f64;
    let single_ns = median(&plain_ns) / r.tuples as f64;
    let engine_mtps = median(&engine.iter().map(|e| e.throughput_mtps).collect::<Vec<_>>());

    let aggregates = aggregate_times(&r.recorded, plan.aggregators.max(2), plan.sources);
    let (encode_ns, decode_ns) = wire_ns_per_batch(&r.recorded);
    let sketch_capacity = PartitionConfig::new(plan.phases[0].workers).sketch_capacity;
    let source_keys = source0_keys(&w.job, SKETCH_KEYS);
    let pick = |f: fn(&Waits) -> f64| median(&engine.iter().map(f).collect::<Vec<_>>());
    println!(
        "engine {engine_mtps:.3} Mt/s over {} runs; single-thread replay {:.3} Mt/s over {} runs; \
         windows wrong {}/{}",
        engine.len(),
        1e3 / single_ns,
        plain_ns.len(),
        gate.failed,
        gate.attempted
    );
    vec![
        ("workloads.gen_ns_per_key", per_tuple(Layer::Generate), "ns"),
        ("route.ns_per_tuple", per_tuple(Layer::Route), "ns"),
        ("route.imbalance", engine_imbalance, "tuples"),
        ("route.head_d", r.head.d as f64, "count"),
        ("head.generation_bumps", r.head.generation as f64, "count"),
        ("head.cardinality", r.head.cardinality as f64, "count"),
        ("head.mass", r.head.mass, "frac"),
        (
            "sketch.observe_ns_per_key",
            sketch_ns_per_key(&source_keys, sketch_capacity),
            "ns",
        ),
        ("sketch.min_count", r.head.min_count as f64, "count"),
        ("source.send_ns_per_tuple", per_tuple(Layer::Send), "ns"),
        (
            "transport.inproc_ns_per_batch",
            inproc_ns_per_batch(&r.recorded),
            "ns",
        ),
        (
            "transport.tcp_ns_per_batch",
            tcp_ns_per_batch(&r.recorded),
            "ns",
        ),
        ("wire.encode_ns_per_batch", encode_ns, "ns"),
        ("wire.decode_ns_per_batch", decode_ns, "ns"),
        ("worker.stage_ns_per_tuple", per_tuple(Layer::Worker), "ns"),
        (
            "worker.state_keys_max",
            r.state_keys.iter().copied().max().unwrap_or(0) as f64,
            "count",
        ),
        (
            "aggregate.observe_ns_per_tuple",
            aggregates.observe_ns_per_tuple,
            "ns",
        ),
        (
            "aggregate.shard_ns_per_key",
            aggregates.shard_ns_per_key,
            "ns",
        ),
        (
            "aggregate.merge_ns_per_key",
            aggregates.merge_ns_per_key,
            "ns",
        ),
        (
            "checkpoint.encode_ns_per_window",
            aggregates.checkpoint_ns_per_window,
            "ns",
        ),
        (
            "checkpoint.bytes_per_window",
            aggregates.checkpoint_bytes_per_window,
            "B",
        ),
        (
            "aggregator.stage_ns_per_partial",
            r.tracer.total_ns(Layer::Aggregator) as f64 / r.partials_merged.max(1) as f64,
            "ns",
        ),
        ("telemetry.record_ns", telemetry_record_ns(), "ns"),
        ("latency.p50_us", pick(|e| e.latency_p50_us), "us"),
        ("latency.p99_us", pick(|e| e.latency_p99_us), "us"),
        ("latency.samples", pick(|e| e.latency_samples), "count"),
        (
            "source.send_stall_frac",
            pick(|e| e.send_stall_frac),
            "frac",
        ),
        ("worker.recv_wait_frac", pick(|e| e.recv_wait_frac), "frac"),
        (
            "worker.queue_depth_hwm",
            pick(|e| e.queue_depth_hwm),
            "batches",
        ),
        (
            "worker.batch_fill_mean",
            pick(|e| e.batch_fill_mean),
            "frac",
        ),
        ("pipeline.single_thread_ns_per_tuple", single_ns, "ns"),
        (
            "pipeline.parallel_speedup",
            engine_mtps * single_ns / 1e3,
            "ratio",
        ),
        (
            "pipeline.unattributed_frac",
            1.0 - r.tracer.all_ns() as f64 / r.wall_ns as f64,
            "frac",
        ),
        (
            "trace.overhead_frac",
            median(&traced_ns) / median(&plain_ns) - 1.0,
            "frac",
        ),
        (
            "windows_wrong_frac",
            gate.failed as f64 / gate.attempted.max(1) as f64,
            "frac",
        ),
    ]
}

fn check_run(
    gate: &mut Gate,
    label: &str,
    got: &Windows,
    expected: &Fingerprints,
    reference: &Windows,
) {
    if gate.check(&fingerprints(got), expected) > 0 {
        explain(label, got, reference);
    }
}
