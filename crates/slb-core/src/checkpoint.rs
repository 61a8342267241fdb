//! Worker checkpoints: the durable snapshot a worker takes at every window
//! finalization so that a crash mid-window loses at most the open window.
//!
//! A checkpoint captures everything the worker's deterministic result depends
//! on at a window boundary: how many windows it has closed, its tuple and
//! per-phase counters, the per-source sequence cursor (which prefix of every
//! source's stream it has consumed), the distinct-key set, and the in-flight
//! partial aggregates of still-open windows. Partials cross the snapshot
//! boundary through their [`WirePartial`](crate::WirePartial) encoding, each
//! wrapped in a length-prefixed blob so the checkpoint itself decodes without
//! knowing the aggregate type.
//!
//! Timing state (latency samples, phase spans) is deliberately *not*
//! checkpointed: it does not feed the deterministic windowed counts, and
//! snapshotting every latency sample at every window boundary would make
//! checkpointing O(run²). See `docs/FAULTS.md` for the recovery argument.
//!
//! The encoding follows the [`crate::wire`] conventions: little-endian fixed
//! width integers, `u32`-counted collections, self-delimiting, and total —
//! malformed bytes produce a [`PartialDecodeError`], never a panic.

use crate::wire::{read_u32, read_u64, write_u32, write_u64, PartialDecodeError};

/// The state of one still-open window inside a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenWindowState {
    /// The window's id.
    pub window: u64,
    /// How many of the expected per-source `CloseWindow` markers have
    /// arrived for this window.
    pub closes_seen: u64,
    /// The in-flight partial aggregate, as its `WirePartial` encoding, or
    /// `None` when the window has seen close markers but no tuples yet.
    pub partial: Option<Vec<u8>>,
}

/// A consistent snapshot of a worker's deterministic state, taken at a
/// window-finalization boundary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerCheckpoint {
    /// Index of the worker that took the snapshot.
    pub worker: u64,
    /// Number of windows this worker has finalized and shipped downstream.
    pub windows_closed: u64,
    /// Total tuples processed so far.
    pub processed: u64,
    /// Tuples processed per scenario phase.
    pub phase_counts: Vec<u64>,
    /// Per-source cursor: the sequence number of the next message expected
    /// from each source. Sources replay from exactly these positions.
    pub next_seq: Vec<u64>,
    /// The distinct keys observed so far, sorted ascending (canonical form).
    pub state_keys: Vec<u64>,
    /// Still-open windows, sorted ascending by window id (canonical form).
    pub open: Vec<OpenWindowState>,
}

impl WorkerCheckpoint {
    /// Appends the checkpoint's self-delimiting encoding to `out`.
    ///
    /// # Panics
    /// Panics if `state_keys` or `open` are not sorted strictly ascending —
    /// the canonical form the worker stage produces.
    pub fn encode(&self, out: &mut Vec<u8>) {
        CheckpointRef {
            worker: self.worker,
            windows_closed: self.windows_closed,
            processed: self.processed,
            phase_counts: &self.phase_counts,
            next_seq: &self.next_seq,
            state_keys: &self.state_keys,
            open: self.open.iter().map(|w| {
                let write_blob = w
                    .partial
                    .as_deref()
                    .map(|blob| move |out: &mut Vec<u8>| out.extend_from_slice(blob));
                (w.window, w.closes_seen, write_blob)
            }),
        }
        .encode(out);
    }

    /// Decodes one checkpoint from the front of `input`, advancing it past
    /// the consumed bytes. Total: malformed input errors, never panics.
    pub fn decode(input: &mut &[u8]) -> Result<Self, PartialDecodeError> {
        let worker = read_u64(input)?;
        let windows_closed = read_u64(input)?;
        let processed = read_u64(input)?;
        let phase_counts = read_u64_list(input, "phase counts")?;
        let next_seq = read_u64_list(input, "sequence cursors")?;
        let state_keys = read_u64_list(input, "state keys")?;
        if !state_keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(PartialDecodeError("state keys not sorted and distinct"));
        }
        let windows = read_u32(input)? as usize;
        // Each open-window entry is at least 17 bytes (window + closes +
        // flag); guards allocation from a corrupt length prefix.
        if input.len() < windows.saturating_mul(17) {
            return Err(PartialDecodeError("open windows shorter than their count"));
        }
        let mut open = Vec::with_capacity(windows);
        let mut last_window = None;
        for _ in 0..windows {
            let window = read_u64(input)?;
            if last_window.is_some_and(|w| w >= window) {
                return Err(PartialDecodeError("open windows not sorted and distinct"));
            }
            last_window = Some(window);
            let closes_seen = read_u64(input)?;
            let partial = match take_u8(input)? {
                0 => None,
                1 => {
                    let len = read_u32(input)? as usize;
                    if input.len() < len {
                        return Err(PartialDecodeError("partial blob shorter than its length"));
                    }
                    let (blob, rest) = input.split_at(len);
                    *input = rest;
                    Some(blob.to_vec())
                }
                _ => return Err(PartialDecodeError("bad partial-presence flag")),
            };
            open.push(OpenWindowState {
                window,
                closes_seen,
                partial,
            });
        }
        Ok(Self {
            worker,
            windows_closed,
            processed,
            phase_counts,
            next_seq,
            state_keys,
            open,
        })
    }
}

/// A checkpoint over borrowed state: the one encoder behind
/// [`WorkerCheckpoint::encode`], which a worker also calls directly at every
/// window close so its live counters, cursors, key set and open partials are
/// written in place instead of being copied into a [`WorkerCheckpoint`]
/// first. Both produce the same bytes for the same state.
pub struct CheckpointRef<'a, I> {
    /// Index of the worker that took the snapshot.
    pub worker: u64,
    /// Number of windows this worker has finalized.
    pub windows_closed: u64,
    /// Total tuples processed so far.
    pub processed: u64,
    /// Tuples processed per scenario phase.
    pub phase_counts: &'a [u64],
    /// Per-source cursor of the next expected sequence number.
    pub next_seq: &'a [u64],
    /// The distinct keys observed so far, strictly ascending.
    pub state_keys: &'a [u64],
    /// Still-open windows, strictly ascending by id, as
    /// `(window, closes_seen, partial)`: `partial` appends the window's
    /// `WirePartial` encoding to the buffer it is given, or is `None` when
    /// the window has seen close markers but no tuples.
    pub open: I,
}

impl<I, F> CheckpointRef<'_, I>
where
    I: ExactSizeIterator<Item = (u64, u64, Option<F>)>,
    F: FnOnce(&mut Vec<u8>),
{
    /// Appends the checkpoint's self-delimiting encoding to `out`; the
    /// format [`WorkerCheckpoint::decode`] reads.
    ///
    /// # Panics
    /// Panics if `state_keys` or `open` are not sorted strictly ascending.
    pub fn encode(self, out: &mut Vec<u8>) {
        assert!(
            self.state_keys.windows(2).all(|w| w[0] < w[1]),
            "checkpoint state keys must be sorted and distinct"
        );
        write_u64(out, self.worker);
        write_u64(out, self.windows_closed);
        write_u64(out, self.processed);
        for list in [self.phase_counts, self.next_seq, self.state_keys] {
            write_u32(out, list.len() as u32);
            for &v in list {
                write_u64(out, v);
            }
        }
        write_u32(out, self.open.len() as u32);
        let mut last_window = None;
        for (window, closes_seen, partial) in self.open {
            assert!(
                last_window < Some(window),
                "checkpoint open windows must be sorted and distinct"
            );
            last_window = Some(window);
            write_u64(out, window);
            write_u64(out, closes_seen);
            match partial {
                None => out.push(0),
                Some(write_partial) => {
                    // Length-prefixed blob: reserve the prefix, write the
                    // partial in place, then patch in its length.
                    out.push(1);
                    let at = out.len();
                    write_u32(out, 0);
                    write_partial(out);
                    let len = (out.len() - at - 4) as u32;
                    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
                }
            }
        }
    }
}

fn take_u8(input: &mut &[u8]) -> Result<u8, PartialDecodeError> {
    let (&byte, rest) = input
        .split_first()
        .ok_or(PartialDecodeError("truncated u8"))?;
    *input = rest;
    Ok(byte)
}

fn read_u64_list(input: &mut &[u8], what: &'static str) -> Result<Vec<u64>, PartialDecodeError> {
    let len = read_u32(input)? as usize;
    if input.len() < len.saturating_mul(8) {
        let _ = what;
        return Err(PartialDecodeError("list shorter than its length"));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(read_u64(input)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkerCheckpoint {
        WorkerCheckpoint {
            worker: 3,
            windows_closed: 7,
            processed: 12_345,
            phase_counts: vec![5_000, 7_345],
            next_seq: vec![40, 41, 39],
            state_keys: vec![1, 5, 9, 200],
            open: vec![
                OpenWindowState {
                    window: 7,
                    closes_seen: 1,
                    partial: Some(vec![0xde, 0xad, 0xbe, 0xef]),
                },
                OpenWindowState {
                    window: 8,
                    closes_seen: 0,
                    partial: None,
                },
            ],
        }
    }

    #[test]
    fn roundtrips_and_is_self_delimiting() {
        let cp = sample();
        let mut buf = Vec::new();
        cp.encode(&mut buf);
        buf.extend_from_slice(b"trailing");
        let mut input = buf.as_slice();
        let back = WorkerCheckpoint::decode(&mut input).expect("own encoding decodes");
        assert_eq!(back, cp);
        assert_eq!(input, b"trailing");
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let cp = WorkerCheckpoint::default();
        let mut buf = Vec::new();
        cp.encode(&mut buf);
        assert_eq!(
            WorkerCheckpoint::decode(&mut buf.as_slice()),
            Ok(cp),
            "default checkpoint must round-trip"
        );
    }

    #[test]
    fn every_strict_prefix_errors() {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        for cut in 0..buf.len() {
            let mut input = &buf[..cut];
            assert!(
                WorkerCheckpoint::decode(&mut input).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn unsorted_state_keys_error() {
        let mut cp = sample();
        cp.state_keys = vec![9, 1];
        let mut buf = Vec::new();
        write_u64(&mut buf, cp.worker);
        write_u64(&mut buf, cp.windows_closed);
        write_u64(&mut buf, cp.processed);
        write_u32(&mut buf, 0);
        write_u32(&mut buf, 0);
        write_u32(&mut buf, 2);
        write_u64(&mut buf, 9);
        write_u64(&mut buf, 1);
        write_u32(&mut buf, 0);
        assert!(WorkerCheckpoint::decode(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn bad_presence_flag_errors() {
        let mut buf = Vec::new();
        let cp = WorkerCheckpoint {
            open: vec![OpenWindowState {
                window: 0,
                closes_seen: 0,
                partial: None,
            }],
            ..WorkerCheckpoint::default()
        };
        cp.encode(&mut buf);
        *buf.last_mut().unwrap() = 7;
        assert_eq!(
            WorkerCheckpoint::decode(&mut buf.as_slice()),
            Err(PartialDecodeError("bad partial-presence flag"))
        );
    }

    #[test]
    fn oversized_length_prefixes_error_without_allocating() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 0);
        write_u64(&mut buf, 0);
        write_u64(&mut buf, 0);
        write_u32(&mut buf, u32::MAX);
        assert!(WorkerCheckpoint::decode(&mut buf.as_slice()).is_err());
    }
}
