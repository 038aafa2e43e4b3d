//! Partitions: the unit of parallelism in the stream layer.
//!
//! A topic is a set of numbered **partitions**; each partition is one
//! ordered log backed by a stream object pinned to one PLog shard
//! (`plog::placement::shard_for_partition`). Producers pick a partition per
//! record with [`partition_for_key`]; consumer groups assign partitions to
//! members ([`crate::group`]); quotas, offsets and positions are all keyed
//! by [`Partition`].

use std::fmt;

/// A fully-qualified partition: `(topic, partition_idx)`.
///
/// The ordering (topic first, then index) is what every deterministic
/// iteration in the stream layer — assignment, quota tables, consumer
/// positions, the rebalance journal — relies on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Partition {
    /// Topic name.
    pub(crate) topic: String,
    /// Partition index within the topic.
    pub(crate) idx: u32,
}

impl Partition {
    /// The partition `idx` of `topic`.
    pub(crate) fn new(topic: impl Into<String>, idx: u32) -> Self {
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
pub(crate) fn stable_key_hash(key: &[u8]) -> u64 {
    common::checksum::fnv1a(key)
}

/// The partition of a `partition_count`-partition topic that owns `key`:
/// stable FNV-1a key hashing, so one key always maps to one partition and
/// per-key order is preserved end to end. Every key — including the empty
/// one — maps deterministically, keeping routing replayable in the
/// simulation.
pub fn partition_for_key(key: &[u8], partition_count: u32) -> u32 {
    debug_assert!(partition_count > 0);
    (stable_key_hash(key) % partition_count as u64) as u32
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
        for n in [1u32, 2, 7, 256] {
            for i in 0..200 {
                let key = format!("user-{i}");
                let a = partition_for_key(key.as_bytes(), n);
                assert_eq!(a, partition_for_key(key.as_bytes(), n));
                assert!(a < n);
            }
        }
        // Matches the stable hash directly (the documented contract).
        assert_eq!(partition_for_key(b"k", 16), (stable_key_hash(b"k") % 16) as u32);
        // Empty keys are legal and deterministic too.
        assert_eq!(partition_for_key(b"", 16), partition_for_key(b"", 16));
    }
}
