//! The stream message type: `⟨timestamp, key, value⟩`.
//!
//! The paper models the input as a sequence of messages `⟨t, k, v⟩`. The
//! partitioning decision depends only on the key, so the value is kept as an
//! opaque payload size; the simulator leaves it empty while the engine uses
//! it to emulate per-tuple work.

/// Identifier of a key in the key space.
///
/// The synthetic workloads identify keys by opaque 64-bit identifiers
/// (derived bijectively from the key's rank so that identifiers carry no
/// ordering information a hash function could exploit). Real string keys can
/// be mapped to `KeyId`s by hashing or dictionary-encoding at ingestion.
pub type KeyId = u64;

/// A single stream message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Logical timestamp: position of the message in the stream (0-based).
    pub timestamp: u64,
    /// Routing key.
    pub key: KeyId,
    /// Opaque payload size in bytes (used by the engine to emulate work).
    pub payload: u32,
}

impl Message {
    /// Creates a message with an empty payload.
    pub fn new(timestamp: u64, key: KeyId) -> Self {
        Self {
            timestamp,
            key,
            payload: 0,
        }
    }

    /// Creates a message carrying `payload` bytes of (virtual) payload.
    pub fn with_payload(timestamp: u64, key: KeyId, payload: u32) -> Self {
        Self {
            timestamp,
            key,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let m = Message::new(7, 42);
        assert_eq!(m.timestamp, 7);
        assert_eq!(m.key, 42);
        assert_eq!(m.payload, 0);
        let m = Message::with_payload(1, 2, 128);
        assert_eq!(m.payload, 128);
    }
}
