//! The length-prefixed binary wire format.
//!
//! Every message on an `slb-net` socket is one *frame*:
//!
//! ```text
//! ┌────────────┬─────────┬──────────────────────────────┐
//! │ len: u32le │ tag: u8 │ body: len−1 bytes            │
//! └────────────┴─────────┴──────────────────────────────┘
//! ```
//!
//! `len` counts the tag byte plus the body, so a reader can skip or buffer a
//! frame without understanding it. All integers are little-endian fixed
//! width; collections are a `u32` count followed by the elements; `f64`s
//! travel as their IEEE-754 bit patterns (`to_bits`), so configs round-trip
//! bit-exactly. There are three frame families:
//!
//! * **tuple frames** ([`TupleFrame`]) — the source → worker hop: tuple
//!   batches, window-close punctuation, and the end-of-stream marker.
//! * **partial frames** ([`PartialFrame`]) — the worker → aggregator hop:
//!   per-window partial aggregates, encoded through the
//!   [`WirePartial`] hook in `slb-core`, plus end-of-stream.
//! * **control frames** ([`ControlFrame`]) — the `slb-node` control plane:
//!   hello/start handshakes and the per-stage end-of-run reports.
//!
//! Timestamps on the wire are microseconds since the run's shared epoch —
//! `Instant`s never cross a socket; the TCP layer converts at the edges.
//!
//! Decoding is **total**: any byte sequence either decodes to a frame or
//! returns a [`WireError`] — truncated, oversized, mis-tagged, or otherwise
//! malformed input must never panic (the property suite in
//! `tests/wire_props.rs` pins this down, along with round-trip identity).

use std::io::{self, Read, Write};

use slb_core::wire::{read_u32, read_u64, write_u32, write_u64, PartialDecodeError, WirePartial};
use slb_core::{ControllerAction, ControllerEvent};
use slb_telemetry::{HopStats, LogHistogram, MetricsSnapshot, TraceEvent};

/// Hard ceiling on one frame's payload (tag + body), defending the decoder
/// against allocating on a corrupt length prefix. Generous: the largest
/// legitimate frames are worker reports carrying per-phase latency histograms
/// and traces, well under a mebibyte.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Frame tags. Data-plane tags stay below 16; control-plane tags start at 16.
pub mod tag {
    /// A batch of same-window tuples.
    pub const BATCH: u8 = 1;
    /// Window-close punctuation.
    pub const CLOSE: u8 = 2;
    /// A per-window partial aggregate slice.
    pub const PARTIAL: u8 = 3;
    /// End of stream: the sender will write nothing further.
    pub const EOF: u8 = 4;
    /// A recovering worker's replay request (worker → source feedback hop).
    pub const REPLAY_REQUEST: u8 = 5;
    /// Node → orchestrator: role, index, and data port.
    pub const HELLO: u8 = 16;
    /// Orchestrator → node: epoch, peer ports, and the run configuration.
    pub const START: u8 = 17;
    /// Source → orchestrator end-of-run report.
    pub const SOURCE_REPORT: u8 = 18;
    /// Worker → orchestrator end-of-run report.
    pub const WORKER_REPORT: u8 = 19;
    /// Aggregator → orchestrator end-of-run report.
    pub const AGGREGATOR_REPORT: u8 = 20;
    /// Worker → orchestrator liveness beacon (periodic while running).
    pub const HEARTBEAT: u8 = 21;
    /// Respawned worker → orchestrator (then orchestrator → sources): the
    /// worker is back, listening on `data_port`, restored to these cursors.
    pub const REJOIN: u8 = 22;
    /// Orchestrator → sources/aggregators: a worker is out of respawn
    /// budget; stop routing to it / finalize without it.
    pub const EXCLUDE: u8 = 23;
    /// Orchestrator → sources: no further rejoin can occur, stop waiting.
    pub const RELEASE: u8 = 24;
    /// Node → orchestrator: a live (or final) telemetry snapshot.
    pub const METRICS: u8 = 25;
}

/// Everything that can go wrong turning bytes into frames.
#[derive(Debug)]
pub enum WireError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The input ended inside a frame (header or body).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`] (or is zero).
    BadLength(usize),
    /// The tag byte names no known frame type for this channel.
    BadTag(u8),
    /// The body parsed but violated a structural invariant.
    Malformed(&'static str),
    /// The body decoded to a frame with bytes left over.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o failed: {e}"),
            WireError::Truncated => f.write_str("frame truncated"),
            WireError::BadLength(len) => write!(f, "bad frame length {len}"),
            WireError::BadTag(tag) => write!(f, "unknown frame tag {tag}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame body"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<PartialDecodeError> for WireError {
    fn from(e: PartialDecodeError) -> Self {
        WireError::Malformed(e.0)
    }
}

/// One message on a source → worker socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TupleFrame {
    /// A batch of same-window tuples.
    Batch {
        /// The window every key belongs to.
        window: u64,
        /// Index of the source that emitted the batch.
        source: u32,
        /// Position in the per-(source, worker) message sequence.
        seq: u64,
        /// Batch emit time, µs since the run epoch.
        emitted_us: u64,
        /// The routed keys, in source emission order.
        keys: Vec<u64>,
    },
    /// Punctuation: the sender finished `window`.
    Close {
        /// The finished window.
        window: u64,
        /// Index of the source that finished it.
        source: u32,
        /// Position in the per-(source, worker) message sequence.
        seq: u64,
    },
    /// End of stream.
    Eof,
}

/// One message on a worker → aggregator socket.
#[derive(Debug, Clone, PartialEq)]
pub enum PartialFrame<P> {
    /// One worker's finalized partial for one window, sliced to this
    /// aggregator's shard.
    Partial {
        /// The window the partial belongs to.
        window: u64,
        /// Index of the worker that finalized the window (the aggregator's
        /// dedup key, together with `window`).
        worker: u32,
        /// Worker close time, µs since the run epoch.
        closed_us: u64,
        /// The shard slice.
        partial: P,
    },
    /// End of stream.
    Eof,
}

/// One message on a worker → source feedback socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackFrame {
    /// A recovering worker asks the source to re-send from a sequence
    /// cursor.
    Request {
        /// The worker requesting replay.
        worker: u32,
        /// First per-(source, worker) sequence number the worker is missing.
        from_seq: u64,
    },
    /// End of stream.
    Eof,
}

/// A worker's end-of-run report, `Instant`-free so it can cross a socket.
/// Latency travels as histograms: exact count, sum, min and max plus the
/// sparse nonzero buckets.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerReportWire {
    /// Worker index within the spawned universe.
    pub worker: u32,
    /// Tuples processed.
    pub processed: u64,
    /// Distinct keys held in state.
    pub state_keys: u64,
    /// Windows finalized.
    pub windows_closed: u64,
    /// Tuples processed per phase.
    pub phase_counts: Vec<u64>,
    /// Per-phase `(first, last)` batch-completion stamps, µs since epoch.
    pub phase_spans: Vec<Option<(u64, u64)>>,
    /// Per-phase emit→processed latency, microseconds.
    pub phase_latencies: Vec<LogHistogram>,
    /// Checkpoint restorations after simulated crashes.
    pub restores: u64,
    /// Tuples reprocessed from replayed messages.
    pub replayed_items: u64,
    /// Messages discarded as duplicates by sequence dedup.
    pub duplicates_dropped: u64,
    /// Replay requests issued upstream.
    pub replay_requests: u64,
    /// Checkpoints saved (one per window finalization).
    pub checkpoints: u64,
    /// Connections that died uncleanly mid-run (torn frame / failed read).
    pub transport_errors: u64,
    /// The worker's deterministic logical trace.
    pub trace: Vec<TraceEvent>,
    /// The worker's transport-hop counters.
    pub transport: HopStats,
}

/// An aggregator's end-of-run report. The finalized windows carry exact
/// per-key counts (`slb-node` runs the count aggregation — the one the
/// differential proof is stated over).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AggregatorReportWire {
    /// Aggregator shard index.
    pub aggregator: u32,
    /// Partial-window messages merged.
    pub merged: u64,
    /// Close→merge latency, microseconds.
    pub latency: LogHistogram,
    /// Final merged per-key counts per window this shard owned.
    pub finalized: Vec<(u64, std::collections::HashMap<u64, u64>)>,
    /// Partials discarded as duplicates (replayed windows after a respawn,
    /// or late partials from an excluded worker).
    pub duplicates_dropped: u64,
    /// Connections that died uncleanly mid-run (torn frame / failed read).
    pub transport_errors: u64,
    /// The shard's deterministic logical trace.
    pub trace: Vec<TraceEvent>,
    /// The shard's transport-hop counters.
    pub transport: HopStats,
}

/// One message on an `slb-node` control socket.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlFrame {
    /// Node → orchestrator, immediately after connecting: who am I, and —
    /// for workers and aggregators — which port my data listener bound.
    Hello {
        /// Role byte (see `cluster::NodeRole`).
        role: u8,
        /// Index within the role (source 0..S, worker 0..W, aggregator 0..A).
        index: u32,
        /// Bound data port; 0 for sources (they only dial out).
        data_port: u16,
    },
    /// Orchestrator → node: the run is fully assembled, go.
    Start {
        /// Shared run epoch, µs since `UNIX_EPOCH`; every node anchors its
        /// wire timestamps to this instant.
        epoch_unix_micros: u64,
        /// Data ports of workers 0..W (sources dial these).
        worker_ports: Vec<u16>,
        /// Data ports of aggregators 0..A (workers dial these).
        aggregator_ports: Vec<u16>,
        /// The encoded run configuration (see `cluster::RunSpec`).
        config: Vec<u8>,
    },
    /// Source → orchestrator: tuples sent plus the source's elasticity
    /// decision log (empty when the run had no controller).
    SourceReport {
        /// Source index.
        source: u32,
        /// Tuples the source shipped.
        sent: u64,
        /// The source controller's decision log, in window order.
        controller_events: Vec<ControllerEvent>,
        /// The source's deterministic logical trace.
        trace: Vec<TraceEvent>,
        /// The source's transport-hop counters.
        transport: HopStats,
    },
    /// Worker → orchestrator end-of-run report.
    WorkerReport(WorkerReportWire),
    /// Aggregator → orchestrator end-of-run report.
    AggregatorReport(AggregatorReportWire),
    /// Worker → orchestrator: still alive (sent periodically while the
    /// stage runs; silence past the timeout marks the worker suspect).
    Heartbeat {
        /// Worker index.
        worker: u32,
    },
    /// A respawned worker announcing itself — sent worker → orchestrator in
    /// place of `Hello`, then forwarded orchestrator → sources so they can
    /// re-dial and replay.
    Rejoin {
        /// Worker index.
        worker: u32,
        /// The respawned worker's (new) data listener port.
        data_port: u16,
        /// Restored per-source sequence cursors: for source `s`,
        /// `cursors[s]` is the next sequence number the worker expects —
        /// exactly where replay must start.
        cursors: Vec<u64>,
    },
    /// Orchestrator → sources and aggregators: worker `worker` is gone for
    /// good (respawn budget exhausted). Sources stop routing to it at the
    /// next window boundary; aggregators finalize windows without it.
    Exclude {
        /// Worker index.
        worker: u32,
    },
    /// Orchestrator → sources: every surviving worker has reported; no
    /// further rejoin/replay can be requested, stop waiting and exit.
    Release,
    /// Node → orchestrator: one stage instance's telemetry — periodic
    /// while the stage runs (when a metrics interval is configured), and
    /// one exact `finished` snapshot right before the end-of-run report.
    Metrics(MetricsSnapshot),
}

/// Reserves a frame header in `out`, returning the patch position.
fn begin_frame(out: &mut Vec<u8>, tag: u8) -> usize {
    let at = out.len();
    write_u32(out, 0); // patched by end_frame
    out.push(tag);
    at
}

/// Patches the length prefix of the frame begun at `at`.
fn end_frame(out: &mut [u8], at: usize) {
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

fn write_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn read_u16(input: &mut &[u8]) -> Result<u16, WireError> {
    if input.len() < 2 {
        return Err(WireError::Truncated);
    }
    let (bytes, rest) = input.split_at(2);
    *input = rest;
    Ok(u16::from_le_bytes(bytes.try_into().expect("2-byte split")))
}

pub(crate) fn read_u8(input: &mut &[u8]) -> Result<u8, WireError> {
    let (&byte, rest) = input.split_first().ok_or(WireError::Truncated)?;
    *input = rest;
    Ok(byte)
}

/// Guards a `u32` element count against the bytes actually present.
pub(crate) fn checked_count(
    input: &[u8],
    count: u32,
    min_bytes_per_element: usize,
) -> Result<usize, WireError> {
    let count = count as usize;
    if input.len() < count.saturating_mul(min_bytes_per_element) {
        return Err(WireError::Malformed("collection shorter than its length"));
    }
    Ok(count)
}

// ---------------------------------------------------------------------------
// Tuple frames
// ---------------------------------------------------------------------------

/// Appends one complete tuple frame (header, tag, body) to `out`.
pub fn encode_tuple_frame(frame: &TupleFrame, out: &mut Vec<u8>) {
    match frame {
        TupleFrame::Batch {
            window,
            source,
            seq,
            emitted_us,
            keys,
        } => {
            let at = begin_frame(out, tag::BATCH);
            write_u64(out, *window);
            write_u32(out, *source);
            write_u64(out, *seq);
            write_u64(out, *emitted_us);
            write_u32(out, keys.len() as u32);
            for &key in keys {
                write_u64(out, key);
            }
            end_frame(out, at);
        }
        TupleFrame::Close {
            window,
            source,
            seq,
        } => {
            let at = begin_frame(out, tag::CLOSE);
            write_u64(out, *window);
            write_u32(out, *source);
            write_u64(out, *seq);
            end_frame(out, at);
        }
        TupleFrame::Eof => {
            let at = begin_frame(out, tag::EOF);
            end_frame(out, at);
        }
    }
}

/// Decodes a tuple frame's payload (tag byte + body, the part after the
/// length prefix).
pub fn decode_tuple_payload(payload: &[u8]) -> Result<TupleFrame, WireError> {
    let mut input = payload;
    let frame = match read_u8(&mut input)? {
        tag::BATCH => {
            let window = read_u64(&mut input).map_err(WireError::from)?;
            let source = read_u32(&mut input)?;
            let seq = read_u64(&mut input)?;
            let emitted_us = read_u64(&mut input)?;
            let count = read_u32(&mut input)?;
            let count = checked_count(input, count, 8)?;
            let mut keys = Vec::with_capacity(count);
            for _ in 0..count {
                keys.push(read_u64(&mut input)?);
            }
            TupleFrame::Batch {
                window,
                source,
                seq,
                emitted_us,
                keys,
            }
        }
        tag::CLOSE => {
            let window = read_u64(&mut input)?;
            let source = read_u32(&mut input)?;
            let seq = read_u64(&mut input)?;
            TupleFrame::Close {
                window,
                source,
                seq,
            }
        }
        tag::EOF => TupleFrame::Eof,
        other => return Err(WireError::BadTag(other)),
    };
    if !input.is_empty() {
        return Err(WireError::TrailingBytes(input.len()));
    }
    Ok(frame)
}

/// Decodes one complete tuple frame from the front of `buf`, returning the
/// frame and the total bytes consumed (header included).
pub fn decode_tuple_frame(buf: &[u8]) -> Result<(TupleFrame, usize), WireError> {
    let payload = split_frame(buf)?;
    let frame = decode_tuple_payload(payload)?;
    Ok((frame, 4 + payload.len()))
}

// ---------------------------------------------------------------------------
// Partial frames
// ---------------------------------------------------------------------------

/// Appends one complete partial frame to `out`, encoding the partial through
/// its [`WirePartial`] hook.
pub fn encode_partial_frame<P: WirePartial>(frame: &PartialFrame<P>, out: &mut Vec<u8>) {
    match frame {
        PartialFrame::Partial {
            window,
            worker,
            closed_us,
            partial,
        } => {
            let at = begin_frame(out, tag::PARTIAL);
            write_u64(out, *window);
            write_u32(out, *worker);
            write_u64(out, *closed_us);
            partial.encode_partial(out);
            end_frame(out, at);
        }
        PartialFrame::Eof => {
            let at = begin_frame(out, tag::EOF);
            end_frame(out, at);
        }
    }
}

/// Decodes a partial frame's payload (tag byte + body).
pub fn decode_partial_payload<P: WirePartial>(
    payload: &[u8],
) -> Result<PartialFrame<P>, WireError> {
    let mut input = payload;
    let frame = match read_u8(&mut input)? {
        tag::PARTIAL => {
            let window = read_u64(&mut input)?;
            let worker = read_u32(&mut input)?;
            let closed_us = read_u64(&mut input)?;
            let partial = P::decode_partial(&mut input)?;
            PartialFrame::Partial {
                window,
                worker,
                closed_us,
                partial,
            }
        }
        tag::EOF => PartialFrame::Eof,
        other => return Err(WireError::BadTag(other)),
    };
    if !input.is_empty() {
        return Err(WireError::TrailingBytes(input.len()));
    }
    Ok(frame)
}

/// Decodes one complete partial frame from the front of `buf`, returning the
/// frame and the total bytes consumed.
pub fn decode_partial_frame<P: WirePartial>(
    buf: &[u8],
) -> Result<(PartialFrame<P>, usize), WireError> {
    let payload = split_frame(buf)?;
    let frame = decode_partial_payload(payload)?;
    Ok((frame, 4 + payload.len()))
}

// ---------------------------------------------------------------------------
// Feedback frames
// ---------------------------------------------------------------------------

/// Appends one complete feedback frame (worker → source replay request) to
/// `out`.
pub fn encode_feedback_frame(frame: &FeedbackFrame, out: &mut Vec<u8>) {
    match frame {
        FeedbackFrame::Request { worker, from_seq } => {
            let at = begin_frame(out, tag::REPLAY_REQUEST);
            write_u32(out, *worker);
            write_u64(out, *from_seq);
            end_frame(out, at);
        }
        FeedbackFrame::Eof => {
            let at = begin_frame(out, tag::EOF);
            end_frame(out, at);
        }
    }
}

/// Decodes a feedback frame's payload (tag byte + body).
pub fn decode_feedback_payload(payload: &[u8]) -> Result<FeedbackFrame, WireError> {
    let mut input = payload;
    let frame = match read_u8(&mut input)? {
        tag::REPLAY_REQUEST => FeedbackFrame::Request {
            worker: read_u32(&mut input)?,
            from_seq: read_u64(&mut input)?,
        },
        tag::EOF => FeedbackFrame::Eof,
        other => return Err(WireError::BadTag(other)),
    };
    if !input.is_empty() {
        return Err(WireError::TrailingBytes(input.len()));
    }
    Ok(frame)
}

/// Decodes one complete feedback frame from the front of `buf`, returning
/// the frame and the total bytes consumed.
pub fn decode_feedback_frame(buf: &[u8]) -> Result<(FeedbackFrame, usize), WireError> {
    let payload = split_frame(buf)?;
    let frame = decode_feedback_payload(payload)?;
    Ok((frame, 4 + payload.len()))
}

// ---------------------------------------------------------------------------
// Control frames
// ---------------------------------------------------------------------------

fn write_u64_list(out: &mut Vec<u8>, values: &[u64]) {
    write_u32(out, values.len() as u32);
    for &v in values {
        write_u64(out, v);
    }
}

fn read_u64_list(input: &mut &[u8]) -> Result<Vec<u64>, WireError> {
    let count = read_u32(input)?;
    let count = checked_count(input, count, 8)?;
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(read_u64(input)?);
    }
    Ok(values)
}

/// `(bucket_index, count)` pair lists — sparse histograms on the wire.
fn write_bucket_list(out: &mut Vec<u8>, buckets: &[(u32, u64)]) {
    write_u32(out, buckets.len() as u32);
    for &(bucket, count) in buckets {
        write_u32(out, bucket);
        write_u64(out, count);
    }
}

fn read_bucket_list(input: &mut &[u8]) -> Result<Vec<(u32, u64)>, WireError> {
    let count = read_u32(input)?;
    let count = checked_count(input, count, 12)?;
    let mut buckets = Vec::with_capacity(count);
    for _ in 0..count {
        let bucket = read_u32(input)?;
        let n = read_u64(input)?;
        buckets.push((bucket, n));
    }
    Ok(buckets)
}

/// A [`LogHistogram`] on the wire: exact scalars plus the sparse nonzero
/// buckets (the 128-bit sum travels as a low/high u64 pair).
fn write_histogram(out: &mut Vec<u8>, hist: &LogHistogram) {
    write_u64(out, hist.count());
    let sum = hist.sum();
    write_u64(out, sum as u64);
    write_u64(out, (sum >> 64) as u64);
    write_u64(out, hist.min());
    write_u64(out, hist.max());
    write_bucket_list(out, &hist.nonzero_buckets());
}

fn read_histogram(input: &mut &[u8]) -> Result<LogHistogram, WireError> {
    let count = read_u64(input)?;
    let sum_lo = read_u64(input)?;
    let sum_hi = read_u64(input)?;
    let min = read_u64(input)?;
    let max = read_u64(input)?;
    let buckets = read_bucket_list(input)?;
    let sum = (u128::from(sum_hi) << 64) | u128::from(sum_lo);
    Ok(LogHistogram::from_parts(&buckets, count, sum, min, max))
}

/// A [`HopStats`] block: nine scalar counters plus the batch-occupancy
/// histogram.
fn write_hop_stats(out: &mut Vec<u8>, hop: &HopStats) {
    write_u64(out, hop.batches_sent);
    write_u64(out, hop.tuples_sent);
    write_u64(out, hop.send_stall_us);
    write_u64(out, hop.batches_received);
    write_u64(out, hop.tuples_received);
    write_u64(out, hop.recv_wait_us);
    write_u64(out, hop.queue_depth_hwm);
    write_u64(out, hop.ring_occupancy_hwm);
    write_u64(out, hop.ring_capacity);
    write_histogram(out, &hop.batch_occupancy);
}

fn read_hop_stats(input: &mut &[u8]) -> Result<HopStats, WireError> {
    Ok(HopStats {
        batches_sent: read_u64(input)?,
        tuples_sent: read_u64(input)?,
        send_stall_us: read_u64(input)?,
        batches_received: read_u64(input)?,
        tuples_received: read_u64(input)?,
        recv_wait_us: read_u64(input)?,
        queue_depth_hwm: read_u64(input)?,
        ring_occupancy_hwm: read_u64(input)?,
        ring_capacity: read_u64(input)?,
        batch_occupancy: read_histogram(input)?,
    })
}

/// A [`TraceEvent`] list. Each event is 1 + 4 + 8 + 1 + 8 + 8 + 8 = 38
/// bytes on the wire.
fn write_trace(out: &mut Vec<u8>, trace: &[TraceEvent]) {
    write_u32(out, trace.len() as u32);
    for event in trace {
        out.push(event.stage);
        write_u32(out, event.instance);
        write_u64(out, event.seq);
        out.push(event.kind);
        write_u64(out, event.window);
        write_u64(out, event.a);
        write_u64(out, event.b);
    }
}

fn read_trace(input: &mut &[u8]) -> Result<Vec<TraceEvent>, WireError> {
    let count = read_u32(input)?;
    let count = checked_count(input, count, 38)?;
    let mut trace = Vec::with_capacity(count);
    for _ in 0..count {
        let stage = read_u8(input)?;
        let instance = read_u32(input)?;
        let seq = read_u64(input)?;
        let kind = read_u8(input)?;
        let window = read_u64(input)?;
        let a = read_u64(input)?;
        let b = read_u64(input)?;
        trace.push(TraceEvent {
            stage,
            instance,
            seq,
            kind,
            window,
            a,
            b,
        });
    }
    Ok(trace)
}

/// Appends one complete control frame to `out`.
pub fn encode_control_frame(frame: &ControlFrame, out: &mut Vec<u8>) {
    match frame {
        ControlFrame::Hello {
            role,
            index,
            data_port,
        } => {
            let at = begin_frame(out, tag::HELLO);
            out.push(*role);
            write_u32(out, *index);
            write_u16(out, *data_port);
            end_frame(out, at);
        }
        ControlFrame::Start {
            epoch_unix_micros,
            worker_ports,
            aggregator_ports,
            config,
        } => {
            let at = begin_frame(out, tag::START);
            write_u64(out, *epoch_unix_micros);
            write_u32(out, worker_ports.len() as u32);
            for &p in worker_ports {
                write_u16(out, p);
            }
            write_u32(out, aggregator_ports.len() as u32);
            for &p in aggregator_ports {
                write_u16(out, p);
            }
            write_u32(out, config.len() as u32);
            out.extend_from_slice(config);
            end_frame(out, at);
        }
        ControlFrame::SourceReport {
            source,
            sent,
            controller_events,
            trace,
            transport,
        } => {
            let at = begin_frame(out, tag::SOURCE_REPORT);
            write_u32(out, *source);
            write_u64(out, *sent);
            write_u32(out, controller_events.len() as u32);
            for event in controller_events {
                write_u32(out, event.source);
                write_u64(out, event.window);
                out.push(match event.action {
                    ControllerAction::ScaleOut => 0,
                    ControllerAction::ScaleIn => 1,
                    ControllerAction::Retune => 2,
                });
                write_u32(out, event.workers);
                write_u32(out, event.d);
            }
            write_trace(out, trace);
            write_hop_stats(out, transport);
            end_frame(out, at);
        }
        ControlFrame::WorkerReport(report) => {
            let at = begin_frame(out, tag::WORKER_REPORT);
            write_u32(out, report.worker);
            write_u64(out, report.processed);
            write_u64(out, report.state_keys);
            write_u64(out, report.windows_closed);
            write_u64_list(out, &report.phase_counts);
            write_u32(out, report.phase_spans.len() as u32);
            for span in &report.phase_spans {
                match span {
                    None => out.push(0),
                    Some((first, last)) => {
                        out.push(1);
                        write_u64(out, *first);
                        write_u64(out, *last);
                    }
                }
            }
            write_u32(out, report.phase_latencies.len() as u32);
            for hist in &report.phase_latencies {
                write_histogram(out, hist);
            }
            write_u64(out, report.restores);
            write_u64(out, report.replayed_items);
            write_u64(out, report.duplicates_dropped);
            write_u64(out, report.replay_requests);
            write_u64(out, report.checkpoints);
            write_u64(out, report.transport_errors);
            write_trace(out, &report.trace);
            write_hop_stats(out, &report.transport);
            end_frame(out, at);
        }
        ControlFrame::AggregatorReport(report) => {
            let at = begin_frame(out, tag::AGGREGATOR_REPORT);
            write_u32(out, report.aggregator);
            write_u64(out, report.merged);
            write_histogram(out, &report.latency);
            write_u32(out, report.finalized.len() as u32);
            for (window, counts) in &report.finalized {
                write_u64(out, *window);
                counts.encode_partial(out);
            }
            write_u64(out, report.duplicates_dropped);
            write_u64(out, report.transport_errors);
            write_trace(out, &report.trace);
            write_hop_stats(out, &report.transport);
            end_frame(out, at);
        }
        ControlFrame::Heartbeat { worker } => {
            let at = begin_frame(out, tag::HEARTBEAT);
            write_u32(out, *worker);
            end_frame(out, at);
        }
        ControlFrame::Rejoin {
            worker,
            data_port,
            cursors,
        } => {
            let at = begin_frame(out, tag::REJOIN);
            write_u32(out, *worker);
            write_u16(out, *data_port);
            write_u64_list(out, cursors);
            end_frame(out, at);
        }
        ControlFrame::Exclude { worker } => {
            let at = begin_frame(out, tag::EXCLUDE);
            write_u32(out, *worker);
            end_frame(out, at);
        }
        ControlFrame::Release => {
            let at = begin_frame(out, tag::RELEASE);
            end_frame(out, at);
        }
        ControlFrame::Metrics(snap) => {
            let at = begin_frame(out, tag::METRICS);
            out.push(snap.stage);
            write_u32(out, snap.instance);
            write_u64(out, snap.seq);
            out.push(u8::from(snap.finished));
            write_u64(out, snap.items);
            write_u64(out, snap.windows_closed);
            write_u64(out, snap.checkpoints);
            write_u64(out, snap.restores);
            write_u64(out, snap.replayed_items);
            write_u64(out, snap.duplicates_dropped);
            write_u64(out, snap.replay_requests);
            write_u64(out, snap.transport_errors);
            write_u64(out, snap.batches_sent);
            write_u64(out, snap.tuples_sent);
            write_u64(out, snap.send_stall_us);
            write_u64(out, snap.batches_received);
            write_u64(out, snap.tuples_received);
            write_u64(out, snap.recv_wait_us);
            write_u64(out, snap.queue_depth_hwm);
            write_u64(out, snap.ring_occupancy_hwm);
            write_u64(out, snap.ring_capacity);
            write_u64(out, snap.latency_count);
            write_u64(out, snap.latency_sum_us);
            write_u64(out, snap.latency_min_us);
            write_u64(out, snap.latency_max_us);
            write_bucket_list(out, &snap.latency_buckets);
            end_frame(out, at);
        }
    }
}

/// Decodes a control frame's payload (tag byte + body).
pub fn decode_control_payload(payload: &[u8]) -> Result<ControlFrame, WireError> {
    let mut input = payload;
    let frame = match read_u8(&mut input)? {
        tag::HELLO => ControlFrame::Hello {
            role: read_u8(&mut input)?,
            index: read_u32(&mut input)?,
            data_port: read_u16(&mut input)?,
        },
        tag::START => {
            let epoch_unix_micros = read_u64(&mut input)?;
            let workers = read_u32(&mut input)?;
            let workers = checked_count(input, workers, 2)?;
            let mut worker_ports = Vec::with_capacity(workers);
            for _ in 0..workers {
                worker_ports.push(read_u16(&mut input)?);
            }
            let aggregators = read_u32(&mut input)?;
            let aggregators = checked_count(input, aggregators, 2)?;
            let mut aggregator_ports = Vec::with_capacity(aggregators);
            for _ in 0..aggregators {
                aggregator_ports.push(read_u16(&mut input)?);
            }
            let config_len = read_u32(&mut input)?;
            let config_len = checked_count(input, config_len, 1)?;
            let config = input[..config_len].to_vec();
            input = &input[config_len..];
            ControlFrame::Start {
                epoch_unix_micros,
                worker_ports,
                aggregator_ports,
                config,
            }
        }
        tag::SOURCE_REPORT => {
            let source = read_u32(&mut input)?;
            let sent = read_u64(&mut input)?;
            let n_events = read_u32(&mut input)?;
            // Each event is 4 + 8 + 1 + 4 + 4 = 21 bytes on the wire.
            let n_events = checked_count(input, n_events, 21)?;
            let mut controller_events = Vec::with_capacity(n_events);
            for _ in 0..n_events {
                let event_source = read_u32(&mut input)?;
                let window = read_u64(&mut input)?;
                let action = match read_u8(&mut input)? {
                    0 => ControllerAction::ScaleOut,
                    1 => ControllerAction::ScaleIn,
                    2 => ControllerAction::Retune,
                    _ => return Err(WireError::Malformed("unknown controller action")),
                };
                let workers = read_u32(&mut input)?;
                let d = read_u32(&mut input)?;
                controller_events.push(ControllerEvent {
                    source: event_source,
                    window,
                    action,
                    workers,
                    d,
                });
            }
            let trace = read_trace(&mut input)?;
            let transport = read_hop_stats(&mut input)?;
            ControlFrame::SourceReport {
                source,
                sent,
                controller_events,
                trace,
                transport,
            }
        }
        tag::WORKER_REPORT => {
            let worker = read_u32(&mut input)?;
            let processed = read_u64(&mut input)?;
            let state_keys = read_u64(&mut input)?;
            let windows_closed = read_u64(&mut input)?;
            let phase_counts = read_u64_list(&mut input)?;
            let spans = read_u32(&mut input)?;
            let spans = checked_count(input, spans, 1)?;
            let mut phase_spans = Vec::with_capacity(spans);
            for _ in 0..spans {
                phase_spans.push(match read_u8(&mut input)? {
                    0 => None,
                    1 => {
                        let first = read_u64(&mut input)?;
                        let last = read_u64(&mut input)?;
                        Some((first, last))
                    }
                    _ => return Err(WireError::Malformed("span flag must be 0 or 1")),
                });
            }
            let phases = read_u32(&mut input)?;
            // A histogram is at least five u64 scalars and a u32 bucket count.
            let phases = checked_count(input, phases, 44)?;
            let mut phase_latencies = Vec::with_capacity(phases);
            for _ in 0..phases {
                phase_latencies.push(read_histogram(&mut input)?);
            }
            let restores = read_u64(&mut input)?;
            let replayed_items = read_u64(&mut input)?;
            let duplicates_dropped = read_u64(&mut input)?;
            let replay_requests = read_u64(&mut input)?;
            let checkpoints = read_u64(&mut input)?;
            let transport_errors = read_u64(&mut input)?;
            let trace = read_trace(&mut input)?;
            let transport = read_hop_stats(&mut input)?;
            ControlFrame::WorkerReport(WorkerReportWire {
                worker,
                processed,
                state_keys,
                windows_closed,
                phase_counts,
                phase_spans,
                phase_latencies,
                restores,
                replayed_items,
                duplicates_dropped,
                replay_requests,
                checkpoints,
                transport_errors,
                trace,
                transport,
            })
        }
        tag::AGGREGATOR_REPORT => {
            let aggregator = read_u32(&mut input)?;
            let merged = read_u64(&mut input)?;
            let latency = read_histogram(&mut input)?;
            let windows = read_u32(&mut input)?;
            let windows = checked_count(input, windows, 12)?;
            let mut finalized = Vec::with_capacity(windows);
            for _ in 0..windows {
                let window = read_u64(&mut input)?;
                let counts = std::collections::HashMap::<u64, u64>::decode_partial(&mut input)?;
                finalized.push((window, counts));
            }
            let duplicates_dropped = read_u64(&mut input)?;
            let transport_errors = read_u64(&mut input)?;
            let trace = read_trace(&mut input)?;
            let transport = read_hop_stats(&mut input)?;
            ControlFrame::AggregatorReport(AggregatorReportWire {
                aggregator,
                merged,
                latency,
                finalized,
                duplicates_dropped,
                transport_errors,
                trace,
                transport,
            })
        }
        tag::HEARTBEAT => ControlFrame::Heartbeat {
            worker: read_u32(&mut input)?,
        },
        tag::REJOIN => ControlFrame::Rejoin {
            worker: read_u32(&mut input)?,
            data_port: read_u16(&mut input)?,
            cursors: read_u64_list(&mut input)?,
        },
        tag::EXCLUDE => ControlFrame::Exclude {
            worker: read_u32(&mut input)?,
        },
        tag::RELEASE => ControlFrame::Release,
        tag::METRICS => {
            let stage = read_u8(&mut input)?;
            let instance = read_u32(&mut input)?;
            let seq = read_u64(&mut input)?;
            let finished = match read_u8(&mut input)? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("finished flag must be 0 or 1")),
            };
            ControlFrame::Metrics(MetricsSnapshot {
                stage,
                instance,
                seq,
                finished,
                items: read_u64(&mut input)?,
                windows_closed: read_u64(&mut input)?,
                checkpoints: read_u64(&mut input)?,
                restores: read_u64(&mut input)?,
                replayed_items: read_u64(&mut input)?,
                duplicates_dropped: read_u64(&mut input)?,
                replay_requests: read_u64(&mut input)?,
                transport_errors: read_u64(&mut input)?,
                batches_sent: read_u64(&mut input)?,
                tuples_sent: read_u64(&mut input)?,
                send_stall_us: read_u64(&mut input)?,
                batches_received: read_u64(&mut input)?,
                tuples_received: read_u64(&mut input)?,
                recv_wait_us: read_u64(&mut input)?,
                queue_depth_hwm: read_u64(&mut input)?,
                ring_occupancy_hwm: read_u64(&mut input)?,
                ring_capacity: read_u64(&mut input)?,
                latency_count: read_u64(&mut input)?,
                latency_sum_us: read_u64(&mut input)?,
                latency_min_us: read_u64(&mut input)?,
                latency_max_us: read_u64(&mut input)?,
                latency_buckets: read_bucket_list(&mut input)?,
            })
        }
        other => return Err(WireError::BadTag(other)),
    };
    if !input.is_empty() {
        return Err(WireError::TrailingBytes(input.len()));
    }
    Ok(frame)
}

/// Decodes one complete control frame from the front of `buf`, returning the
/// frame and the total bytes consumed.
pub fn decode_control_frame(buf: &[u8]) -> Result<(ControlFrame, usize), WireError> {
    let payload = split_frame(buf)?;
    let frame = decode_control_payload(payload)?;
    Ok((frame, 4 + payload.len()))
}

// ---------------------------------------------------------------------------
// Framing over byte slices and sockets
// ---------------------------------------------------------------------------

/// Splits the payload (tag + body) of the frame at the front of `buf`,
/// validating the length prefix.
pub fn split_frame(buf: &[u8]) -> Result<&[u8], WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    let (header, rest) = buf.split_at(4);
    let len = u32::from_le_bytes(header.try_into().expect("4-byte split")) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(WireError::BadLength(len));
    }
    if rest.len() < len {
        return Err(WireError::Truncated);
    }
    Ok(&rest[..len])
}

/// Reads one frame's payload (tag + body) from `reader` into `scratch`.
/// Returns `Ok(false)` on a clean end of stream (EOF exactly at a frame
/// boundary); EOF inside a frame is [`WireError::Truncated`].
pub fn read_frame<R: Read>(reader: &mut R, scratch: &mut Vec<u8>) -> Result<bool, WireError> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match reader.read(&mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(WireError::Truncated)
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(WireError::BadLength(len));
    }
    scratch.clear();
    scratch.resize(len, 0);
    reader.read_exact(scratch).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    Ok(true)
}

/// Writes pre-encoded frame bytes (as produced by the `encode_*` functions).
pub fn write_frame_bytes<W: Write>(writer: &mut W, bytes: &[u8]) -> io::Result<()> {
    writer.write_all(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_frames_round_trip() {
        for frame in [
            TupleFrame::Batch {
                window: 7,
                source: 3,
                seq: 42,
                emitted_us: 123_456,
                keys: vec![1, 2, 3, u64::MAX],
            },
            TupleFrame::Batch {
                window: 0,
                source: 0,
                seq: 0,
                emitted_us: 0,
                keys: vec![],
            },
            TupleFrame::Close {
                window: 99,
                source: 1,
                seq: u64::MAX,
            },
            TupleFrame::Eof,
        ] {
            let mut buf = Vec::new();
            encode_tuple_frame(&frame, &mut buf);
            let (back, consumed) = decode_tuple_frame(&buf).expect("own encoding decodes");
            assert_eq!(back, frame);
            assert_eq!(consumed, buf.len());
        }
    }

    #[test]
    fn frames_concatenate() {
        let close = TupleFrame::Close {
            window: 1,
            source: 0,
            seq: 5,
        };
        let mut buf = Vec::new();
        encode_tuple_frame(&close, &mut buf);
        encode_tuple_frame(&TupleFrame::Eof, &mut buf);
        let (first, consumed) = decode_tuple_frame(&buf).unwrap();
        assert_eq!(first, close);
        let (second, rest) = decode_tuple_frame(&buf[consumed..]).unwrap();
        assert_eq!(second, TupleFrame::Eof);
        assert_eq!(consumed + rest, buf.len());
    }

    #[test]
    fn feedback_frames_round_trip() {
        for frame in [
            FeedbackFrame::Request {
                worker: 7,
                from_seq: 1_234,
            },
            FeedbackFrame::Request {
                worker: 0,
                from_seq: 0,
            },
            FeedbackFrame::Eof,
        ] {
            let mut buf = Vec::new();
            encode_feedback_frame(&frame, &mut buf);
            let (back, consumed) = decode_feedback_frame(&buf).expect("own encoding decodes");
            assert_eq!(back, frame);
            assert_eq!(consumed, buf.len());
        }
    }

    #[test]
    fn zero_and_oversized_lengths_are_rejected() {
        assert!(matches!(
            split_frame(&[0, 0, 0, 0, 9]),
            Err(WireError::BadLength(0))
        ));
        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        assert!(matches!(
            split_frame(&[huge[0], huge[1], huge[2], huge[3]]),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn read_frame_distinguishes_clean_eof_from_truncation() {
        let close = TupleFrame::Close {
            window: 5,
            source: 2,
            seq: 8,
        };
        let mut buf = Vec::new();
        encode_tuple_frame(&close, &mut buf);
        // Clean: whole frame then EOF.
        let mut reader = io::Cursor::new(buf.clone());
        let mut scratch = Vec::new();
        assert!(read_frame(&mut reader, &mut scratch).unwrap());
        assert_eq!(decode_tuple_payload(&scratch).unwrap(), close);
        assert!(!read_frame(&mut reader, &mut scratch).unwrap());
        // Truncated: EOF mid-frame.
        for cut in 1..buf.len() {
            let mut reader = io::Cursor::new(buf[..cut].to_vec());
            assert!(
                matches!(
                    read_frame(&mut reader, &mut scratch),
                    Err(WireError::Truncated)
                ),
                "cut at {cut}"
            );
        }
    }

    fn sample_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                stage: 1,
                instance: 2,
                seq: 0,
                kind: 0,
                window: 7,
                a: 1,
                b: 0,
            },
            TraceEvent {
                stage: 1,
                instance: 2,
                seq: 1,
                kind: 1,
                window: 7,
                a: 1,
                b: 0,
            },
        ]
    }

    fn sample_hop_stats() -> HopStats {
        let mut occupancy = LogHistogram::new();
        occupancy.record_n(32, 10);
        occupancy.record(7);
        HopStats {
            batches_sent: 11,
            tuples_sent: 327,
            send_stall_us: 42,
            batches_received: 9,
            tuples_received: 288,
            recv_wait_us: 1_000,
            batch_occupancy: occupancy,
            queue_depth_hwm: 12,
            ring_occupancy_hwm: 48,
            ring_capacity: 64,
        }
    }

    #[test]
    fn control_frames_round_trip() {
        let mut counts = std::collections::HashMap::new();
        counts.insert(3u64, 14u64);
        let mut final_metrics = MetricsSnapshot {
            stage: 1,
            instance: 3,
            seq: 9,
            finished: true,
            items: 4_096,
            windows_closed: 16,
            checkpoints: 16,
            restores: 1,
            replayed_items: 128,
            duplicates_dropped: 2,
            replay_requests: 1,
            transport_errors: 1,
            ..MetricsSnapshot::default()
        };
        final_metrics.set_transport(&sample_hop_stats());
        let mut latency = LogHistogram::new();
        latency.record_n(900, 500);
        latency.record(15_000);
        final_metrics.set_latency(&latency);
        for frame in [
            ControlFrame::Hello {
                role: 1,
                index: 3,
                data_port: 40_123,
            },
            ControlFrame::Start {
                epoch_unix_micros: 1_234_567_890,
                worker_ports: vec![1000, 2000, 3000],
                aggregator_ports: vec![4000],
                config: vec![1, 2, 3, 4, 5],
            },
            ControlFrame::SourceReport {
                source: 2,
                sent: 88,
                controller_events: vec![
                    ControllerEvent {
                        source: 2,
                        window: 5,
                        action: ControllerAction::ScaleOut,
                        workers: 6,
                        d: 2,
                    },
                    ControllerEvent {
                        source: 2,
                        window: 9,
                        action: ControllerAction::Retune,
                        workers: 6,
                        d: 0,
                    },
                ],
                trace: sample_trace(),
                transport: sample_hop_stats(),
            },
            ControlFrame::WorkerReport(WorkerReportWire {
                worker: 1,
                processed: 500,
                state_keys: 17,
                windows_closed: 4,
                phase_counts: vec![300, 200],
                phase_spans: vec![Some((10, 90)), None],
                phase_latencies: vec![
                    {
                        let mut hist = LogHistogram::new();
                        hist.record_n(5, 200);
                        hist.record_n(9, 100);
                        hist
                    },
                    LogHistogram::new(),
                ],
                restores: 2,
                replayed_items: 120,
                duplicates_dropped: 3,
                replay_requests: 4,
                checkpoints: 4,
                transport_errors: 1,
                trace: sample_trace(),
                transport: sample_hop_stats(),
            }),
            ControlFrame::AggregatorReport(AggregatorReportWire {
                aggregator: 0,
                merged: 12,
                latency: {
                    let mut hist = LogHistogram::new();
                    hist.record_n(2, 12);
                    hist
                },
                finalized: vec![(0, counts)],
                duplicates_dropped: 2,
                transport_errors: 1,
                trace: sample_trace(),
                transport: sample_hop_stats(),
            }),
            ControlFrame::Heartbeat { worker: 3 },
            ControlFrame::Metrics(final_metrics),
            ControlFrame::Rejoin {
                worker: 1,
                data_port: 45_001,
                cursors: vec![17, 0, 9_000_000_000],
            },
            ControlFrame::Exclude { worker: 2 },
            ControlFrame::Release,
        ] {
            let mut buf = Vec::new();
            encode_control_frame(&frame, &mut buf);
            let (back, consumed) = decode_control_frame(&buf).expect("own encoding decodes");
            assert_eq!(back, frame);
            assert_eq!(consumed, buf.len());
        }
    }
}
