//! Hash placement of data slices onto logical shards.
//!
//! The paper uses a distributed hash table "to ensure even data distribution
//! for load-balance storage" (Fig 4-d). Placement here is FNV-1a
//! (`common::checksum::fnv1a`) over the routing key modulo the shard count;
//! the tests verify the evenness claim directly.

use common::checksum::fnv1a;

/// Default shard count from the paper.
pub(crate) const DEFAULT_SHARD_COUNT: usize = 4096;

/// The logical shard that owns `routing_key` in a `shard_count`-shard table.
pub(crate) fn shard_for(routing_key: &[u8], shard_count: usize) -> usize {
    debug_assert!(shard_count > 0);
    (fnv1a(routing_key) % shard_count as u64) as usize
}

/// The shard that backs partition `partition_idx` of `topic`.
///
/// Stream partitions are ordered logs pinned to one PLog shard each; the
/// routing key is `topic`, a `/` separator, and the partition index in
/// big-endian so that `("t", 1)` and `("t1", ...)` can never collide. The
/// mapping is pure — dispatcher and object layer agree on it without any
/// shared state.
pub fn shard_for_partition(topic: &str, partition_idx: u32, shard_count: usize) -> usize {
    let mut key = Vec::with_capacity(topic.len() + 5);
    key.extend_from_slice(topic.as_bytes());
    key.push(b'/');
    key.extend_from_slice(&partition_idx.to_be_bytes());
    shard_for(&key, shard_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn placement_is_deterministic() {
        assert_eq!(shard_for(b"topic-a/0", 4096), shard_for(b"topic-a/0", 4096));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn distribution_is_even_across_shards() {
        // 100k synthetic slice keys over 64 shards: no shard may deviate
        // from the mean by more than 30%.
        let shards = 64usize;
        let mut counts = vec![0u32; shards];
        for topic in 0..100 {
            for slice in 0..1000 {
                let key = format!("topic-{topic}/slice-{slice}");
                counts[shard_for(key.as_bytes(), shards)] += 1;
            }
        }
        let mean = 100_000.0 / shards as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - mean).abs() < mean * 0.3,
                "shard {i} holds {c}, mean {mean}"
            );
        }
    }

    #[test]
    fn partition_placement_is_deterministic_and_spread() {
        assert_eq!(shard_for_partition("t", 7, 64), shard_for_partition("t", 7, 64));
        // The separator keeps ("t", idx) and ("t<idx-prefix>", ...) apart.
        assert_ne!(
            shard_for_partition("t", 0x3131_3131, 4096),
            shard_for_partition("t\u{31}", 0x31_3131, 4096),
        );
        // 512 partitions of one topic over 64 shards must not pile up.
        let shards = 64usize;
        let mut counts = vec![0u32; shards];
        for idx in 0..512u32 {
            counts[shard_for_partition("events", idx, shards)] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 20), "{counts:?}");
    }

    proptest! {
        #[test]
        fn shard_always_in_range(key in proptest::collection::vec(any::<u8>(), 0..64), n in 1usize..5000) {
            prop_assert!(shard_for(&key, n) < n);
        }
    }
}
