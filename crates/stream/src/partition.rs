//! Partitions: the unit of parallelism in the stream layer.
//!
//! A topic is a set of numbered **partitions**; each partition is one
//! ordered log backed by a stream object pinned to one PLog shard
//! (`plog::placement::shard_for_partition`). Producers pick a partition per
//! record through a [`Partitioner`]; consumer groups assign partitions to
//! members ([`crate::group`]); quotas, offsets and positions are all keyed
//! by [`Partition`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fully-qualified partition: `(topic, partition_idx)`.
///
/// The ordering (topic first, then index) is what every deterministic
/// iteration in the stream layer — assignment, quota tables, consumer
/// positions, the rebalance journal — relies on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Partition {
    /// Topic name.
    pub topic: String,
    /// Partition index within the topic.
    pub idx: u32,
}

impl Partition {
    /// The partition `idx` of `topic`.
    pub fn new(topic: impl Into<String>, idx: u32) -> Self {
        Partition { topic: topic.into(), idx }
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.topic, self.idx)
    }
}

/// The stable 64-bit key hash every built-in placement decision uses
/// (FNV-1a, shared with PLog shard placement so one hash function governs
/// the whole path from record key to shard).
pub fn stable_key_hash(key: &[u8]) -> u64 {
    common::checksum::fnv1a(key)
}

/// The partition of a `partition_count`-partition topic that owns `key`
/// under the default key-hash policy. Every key — including the empty one —
/// maps deterministically, keeping routing replayable in the simulation.
pub fn partition_for_key(key: &[u8], partition_count: u32) -> u32 {
    debug_assert!(partition_count > 0);
    (stable_key_hash(key) % partition_count as u64) as u32
}

/// Pluggable record→partition policy, the producer-side extension point.
///
/// Contract: given the same `(topic, key, partition_count)` a partitioner
/// may consult only its own state — never wall-clock time or unseeded
/// randomness — and must return an index in `0..partition_count`. Per-key
/// ordering guarantees only hold for partitioners that are pure functions
/// of the key (like [`KeyHashPartitioner`]); stateful spreaders such as
/// [`RoundRobinPartitioner`] trade that for balance.
pub trait Partitioner: fmt::Debug + Send + Sync {
    /// The partition of `topic` that should receive a record with `key`.
    fn partition(&self, topic: &str, key: &[u8], partition_count: u32) -> u32;
}

/// The default policy: stable FNV-1a key hashing, so one key always maps
/// to one partition and per-key order is preserved end to end.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHashPartitioner;

impl Partitioner for KeyHashPartitioner {
    fn partition(&self, _topic: &str, key: &[u8], partition_count: u32) -> u32 {
        partition_for_key(key, partition_count)
    }
}

/// A key-oblivious spreader: successive sends from one producer walk the
/// partitions round-robin. Deterministic per handle (a plain counter), but
/// per-key ordering is intentionally given up for perfect balance.
#[derive(Debug, Default)]
pub struct RoundRobinPartitioner {
    next: AtomicU64,
}

impl Partitioner for RoundRobinPartitioner {
    fn partition(&self, _topic: &str, _key: &[u8], partition_count: u32) -> u32 {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        (n % partition_count as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_ordering_is_topic_then_index() {
        let mut v = vec![
            Partition::new("b", 0),
            Partition::new("a", 2),
            Partition::new("a", 0),
            Partition::new("b", 1),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Partition::new("a", 0),
                Partition::new("a", 2),
                Partition::new("b", 0),
                Partition::new("b", 1),
            ]
        );
    }

    #[test]
    fn key_hash_partitioner_is_stable_and_in_range() {
        let p = KeyHashPartitioner;
        for n in [1u32, 2, 7, 256] {
            for i in 0..200 {
                let key = format!("user-{i}");
                let a = p.partition("t", key.as_bytes(), n);
                assert_eq!(a, p.partition("t", key.as_bytes(), n));
                assert!(a < n);
            }
        }
        // Matches the stable hash directly (the documented contract).
        assert_eq!(p.partition("t", b"k", 16), partition_for_key(b"k", 16));
        // Empty keys are legal and deterministic too.
        assert_eq!(partition_for_key(b"", 16), partition_for_key(b"", 16));
    }

    #[test]
    fn round_robin_walks_all_partitions() {
        let p = RoundRobinPartitioner::default();
        let got: Vec<u32> = (0..8).map(|_| p.partition("t", b"same-key", 4)).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }
}
