//! Keyed producer workloads for the partitioned stream layer.
//!
//! Real message traffic is skewed: a few hot entities (users, devices,
//! flows) produce most records. [`KeyedWorkload`] models a fleet of
//! producers drawing keys from a Zipf distribution over a fixed entity
//! population — `user-0` is the hottest — so partition-level load imbalance
//! and per-key ordering can be exercised deterministically from one seed.

use crate::zipf::Zipf;
use rand::{rngs::StdRng, SeedableRng};

/// A deterministic stream of Zipf-skewed `(key, value)` messages.
#[derive(Debug)]
pub struct KeyedWorkload {
    zipf: Zipf,
    rng: StdRng,
    value_bytes: usize,
    sent: u64,
}

impl KeyedWorkload {
    /// A workload over `keys` distinct entities with skew `theta`
    /// (0 = uniform, 1 ≈ classic web skew), payloads of `value_bytes`,
    /// reproducible from `seed`.
    pub fn new(seed: u64, keys: usize, theta: f64, value_bytes: usize) -> Self {
        KeyedWorkload {
            zipf: Zipf::new(keys, theta),
            rng: StdRng::seed_from_u64(seed),
            value_bytes,
            sent: 0,
        }
    }

    /// Messages drawn so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Draw the next message: the key names the sampled entity rank
    /// (`user-{rank}`), the value carries a per-workload sequence number so
    /// consumers can verify per-key order end to end.
    pub fn next_message(&mut self) -> (Vec<u8>, Vec<u8>) {
        let rank = self.zipf.sample(&mut self.rng);
        self.sent += 1;
        let key = format!("user-{rank}").into_bytes();
        let mut value = format!("seq-{:012}|", self.sent).into_bytes();
        while value.len() < self.value_bytes {
            value.push(b'x');
        }
        (key, value)
    }

    /// Draw `n` messages.
    pub fn batch(&mut self, n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n).map(|_| self.next_message()).collect()
    }
}

/// Split `producers` simulated producers over a workload seed: producer
/// `i` gets its own deterministic [`KeyedWorkload`] whose draws are
/// independent of every sibling's (distinct derived seeds).
pub fn producer_fleet(
    seed: u64,
    producers: usize,
    keys: usize,
    theta: f64,
    value_bytes: usize,
) -> Vec<KeyedWorkload> {
    (0..producers)
        .map(|i| {
            KeyedWorkload::new(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64),
                keys,
                theta,
                value_bytes,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn same_seed_same_messages() {
        let a: Vec<_> = KeyedWorkload::new(7, 100, 1.0, 64).batch(500);
        let b: Vec<_> = KeyedWorkload::new(7, 100, 1.0, 64).batch(500);
        assert_eq!(a, b, "workload must be a pure function of its seed");
    }

    #[test]
    fn skew_makes_a_hot_head() {
        let mut w = KeyedWorkload::new(3, 1000, 1.2, 16);
        let mut counts: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
        for (k, _) in w.batch(10_000) {
            *counts.entry(k).or_insert(0) += 1;
        }
        let hottest = counts.values().max().copied().unwrap_or(0);
        assert!(hottest > 1_000, "zipf(1.2) head too cold: {hottest}");
        assert!(counts.len() > 50, "tail must still appear");
    }

    #[test]
    fn values_carry_monotonic_sequence_numbers() {
        let mut w = KeyedWorkload::new(1, 10, 0.5, 32);
        let (_, v1) = w.next_message();
        let (_, v2) = w.next_message();
        assert!(v1.starts_with(b"seq-000000000001|"));
        assert!(v2.starts_with(b"seq-000000000002|"));
        assert_eq!(v1.len(), 32);
    }

    #[test]
    fn fleet_members_draw_independently() {
        let mut fleet = producer_fleet(9, 4, 50, 1.0, 16);
        let firsts: Vec<_> = fleet.iter_mut().map(|w| w.next_message()).collect();
        // Not all four producers may start identically.
        assert!(
            firsts.windows(2).any(|w| w[0] != w[1]),
            "fleet seeds must diverge: {firsts:?}"
        );
    }
}
