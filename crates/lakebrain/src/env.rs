//! The compaction environment (§VI-A's "Environment (the storage system)").
//!
//! A discrete-time model of a merge-on-read table under streaming
//! ingestion: every step, partitions receive small files (at a
//! time-varying ingestion speed), queries hit partitions with skewed
//! access, and the agent decides per partition whether to compact now.
//! Compaction can *fail* — concurrent ingestion commits conflict with the
//! rewrite — with probability increasing in the partition's current
//! ingestion rate, which is exactly the trade-off the paper's reward
//! structure encodes:
//!
//! > "if the compaction succeeds, the reward is computed by the improvement
//! > of the block utilization of the partition. If it fails, the reward is
//! > the minus of (1 − the expected improvement of the block utilization)."

use lake::maintenance::block_utilization;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Environment parameters.
#[derive(Debug, Clone, Copy)]
pub struct EnvConfig {
    /// Number of table partitions.
    pub partitions: usize,
    /// Compaction target file size in bytes.
    pub target_file_bytes: u64,
    /// Storage block size (utilization denominator).
    pub block_bytes: u64,
    /// Mean small files ingested per step across the table.
    pub base_ingest_files: f64,
    /// Queries issued per step.
    pub queries_per_step: usize,
    /// How strongly ingestion pressure causes commit conflicts.
    pub conflict_sensitivity: f64,
    /// Query-cost penalty per *conflicted* compaction — "compaction
    /// consumes a relatively large amount of computing resources" (§VI-A),
    /// and a conflicted rewrite is that consumption with zero payoff,
    /// interfering with concurrent queries.
    pub compaction_cost_weight: f64,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            partitions: 8,
            target_file_bytes: 8 * 1024 * 1024,
            block_bytes: 4 * 1024 * 1024,
            base_ingest_files: 6.0,
            queries_per_step: 4,
            conflict_sensitivity: 0.2,
            compaction_cost_weight: 130.0,
        }
    }
}

/// Observable state of one partition.
#[derive(Debug, Clone)]
pub(crate) struct PartitionObs {
    /// Live file sizes.
    pub(crate) file_sizes: Vec<u64>,
    /// Queries that touched the partition recently (decayed).
    pub(crate) access_frequency: f64,
    /// Steps since the last access (the "access ordering" feature).
    pub(crate) steps_since_access: u64,
    /// Files ingested into this partition last step.
    pub(crate) recent_ingest: f64,
}

impl PartitionObs {
    /// Block utilization of the partition.
    pub(crate) fn utilization(&self, block: u64) -> f64 {
        block_utilization(&self.file_sizes, block)
    }

    /// Files below the compaction target.
    pub(crate) fn small_files(&self, target: u64) -> usize {
        self.file_sizes.iter().filter(|&&s| s < target).count()
    }
}

/// Result of one environment step.
#[derive(Debug, Clone)]
pub(crate) struct StepResult {
    /// Per-partition reward for the actions taken.
    pub(crate) rewards: Vec<f64>,
    /// Whether each compaction attempt succeeded (`None` = not attempted).
    pub(crate) outcomes: Vec<Option<bool>>,
    /// Mean files touched per query this step (query cost proxy).
    pub(crate) query_cost: f64,
    /// Mean partition block utilization after the step.
    pub(crate) utilization: f64,
}

/// The simulated storage environment.
#[derive(Debug)]
pub(crate) struct CompactionEnv {
    config: EnvConfig,
    partitions: Vec<PartitionObs>,
    rng: StdRng,
    step: u64,
    /// Current global ingestion multiplier (random walk in [0.2, 3]).
    ingest_level: f64,
}

impl CompactionEnv {
    /// A fresh environment.
    pub(crate) fn new(config: EnvConfig, seed: u64) -> Self {
        let partitions = (0..config.partitions)
            .map(|_| PartitionObs {
                file_sizes: Vec::new(),
                access_frequency: 0.0,
                steps_since_access: 0,
                recent_ingest: 0.0,
            })
            .collect();
        CompactionEnv {
            config,
            partitions,
            rng: StdRng::seed_from_u64(seed),
            step: 0,
            ingest_level: 1.0,
        }
    }

    /// Number of state features per partition (global + partition blocks).
    pub(crate) const STATE_DIM: usize = 9;

    /// State vector for one partition: `[global features | partition
    /// features]`, all roughly normalized to `[0, 1]`.
    pub(crate) fn state(&self, partition: usize) -> Vec<f64> {
        let c = &self.config;
        let p = &self.partitions[partition];
        let global_util = self.mean_utilization();
        vec![
            // --- global ---
            (c.target_file_bytes as f64 / (64.0 * 1024.0 * 1024.0)).min(1.0),
            (self.ingest_level / 3.0).min(1.0),
            (c.queries_per_step as f64 / 16.0).min(1.0),
            global_util,
            // --- partition ---
            (p.access_frequency / 10.0).min(1.0),
            (p.steps_since_access as f64 / 20.0).min(1.0),
            p.utilization(c.block_bytes),
            (p.small_files(c.target_file_bytes) as f64 / 50.0).min(1.0),
            (p.recent_ingest / 10.0).min(1.0),
        ]
    }

    /// Current mean partition utilization.
    pub(crate) fn mean_utilization(&self) -> f64 {
        let c = &self.config;
        self.partitions
            .iter()
            .map(|p| p.utilization(c.block_bytes))
            .sum::<f64>()
            / self.partitions.len() as f64
    }

    /// Mean files per accessed partition (the merge-on-read query cost).
    pub(crate) fn query_cost(&self) -> f64 {
        self.partitions
            .iter()
            .map(|p| p.file_sizes.len() as f64 * (p.access_frequency + 0.1))
            .sum::<f64>()
            / self
                .partitions
                .iter()
                .map(|p| p.access_frequency + 0.1)
                .sum::<f64>()
    }

    /// Advance one step: apply compaction `actions`, then ingest and query.
    pub(crate) fn step(&mut self, actions: &[bool]) -> StepResult {
        assert_eq!(actions.len(), self.partitions.len());
        self.step += 1;
        let c = self.config;
        // 1. compaction attempts
        let mut rewards = vec![0.0; actions.len()];
        let mut outcomes = vec![None; actions.len()];
        for (i, &compact) in actions.iter().enumerate() {
            if !compact {
                continue;
            }
            let p = &mut self.partitions[i];
            let before = block_utilization(&p.file_sizes, c.block_bytes);
            // expected utilization after a successful binpack merge
            let total: u64 = p.file_sizes.iter().sum();
            let merged: Vec<u64> = if total == 0 {
                Vec::new()
            } else {
                let full = total / c.target_file_bytes;
                let rem = total % c.target_file_bytes;
                let mut v = vec![c.target_file_bytes; full as usize];
                if rem > 0 {
                    v.push(rem);
                }
                v
            };
            let after = block_utilization(&merged, c.block_bytes);
            let expected_improvement = (after - before).max(0.0);
            // conflict probability grows with this partition's ingest rate
            let p_conflict =
                (c.conflict_sensitivity * p.recent_ingest).min(0.9);
            if self.rng.gen::<f64>() < p_conflict {
                outcomes[i] = Some(false);
                rewards[i] = -(1.0 - expected_improvement);
            } else {
                p.file_sizes = merged;
                outcomes[i] = Some(true);
                // Success reward: the block-utilization improvement, weighted
                // up on frequently-queried partitions — the "co-optimizing
                // the query performance and storage utilization" objective.
                let heat = (p.access_frequency / 4.0).min(1.0);
                rewards[i] = expected_improvement * (1.0 + 2.0 * heat);
            }
        }
        // 2. ingestion (random-walk global level, zipf-ish per partition)
        self.ingest_level =
            (self.ingest_level + self.rng.gen_range(-0.3..0.3)).clamp(0.2, 3.0);
        for (i, p) in self.partitions.iter_mut().enumerate() {
            // newer partitions (higher index) receive more ingest
            let share = (i + 1) as f64 / (actions.len() * (actions.len() + 1) / 2) as f64;
            let lambda = c.base_ingest_files * self.ingest_level * share * actions.len() as f64
                / 2.0;
            let n = poisson(&mut self.rng, lambda);
            p.recent_ingest = n as f64;
            for _ in 0..n {
                let size = self.rng.gen_range(16 * 1024..(c.target_file_bytes / 4).max(32 * 1024));
                p.file_sizes.push(size);
            }
        }
        // 3. queries with skewed access
        for p in &mut self.partitions {
            p.access_frequency *= 0.9;
            p.steps_since_access += 1;
        }
        for _ in 0..c.queries_per_step {
            // hot tail: recent partitions queried more
            let r: f64 = self.rng.gen::<f64>();
            let idx = ((r * r) * self.partitions.len() as f64) as usize;
            let idx = self.partitions.len() - 1 - idx.min(self.partitions.len() - 1);
            let p = &mut self.partitions[idx];
            p.access_frequency += 1.0;
            p.steps_since_access = 0;
        }
        // Queries contend with compaction I/O. A successful compaction is
        // useful work whose cost amortizes into better layouts; a
        // *conflicted* compaction rewrote data that was then rolled back —
        // pure interference charged against concurrent queries. This is the
        // cost surface on which state-aware (conflict-avoiding) policies
        // beat blind schedules.
        let failures = outcomes.iter().filter(|o| **o == Some(false)).count();
        StepResult {
            rewards,
            outcomes,
            query_cost: self.query_cost() + c.compaction_cost_weight * failures as f64,
            utilization: self.mean_utilization(),
        }
    }
}

fn poisson(rng: &mut StdRng, lambda: f64) -> u32 {
    // Knuth's method; lambdas here are small.
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // safety for absurd lambda
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(seed: u64) -> CompactionEnv {
        CompactionEnv::new(EnvConfig::default(), seed)
    }

    #[test]
    fn ingestion_accumulates_small_files() {
        let mut e = env(1);
        for _ in 0..20 {
            e.step(&[false; 8]);
        }
        let total_files: usize = (0..8).map(|i| e.partitions[i].file_sizes.len()).sum();
        assert!(total_files > 50, "got {total_files}");
        assert!(e.mean_utilization() < 0.5, "small files must hurt utilization");
    }

    #[test]
    fn compaction_improves_utilization_and_rewards_positive() {
        let mut e = env(2);
        for _ in 0..20 {
            e.step(&[false; 8]);
        }
        let before = e.mean_utilization();
        // compact everything until a success lands on each partition
        let mut rewarded = 0;
        for _ in 0..10 {
            let r = e.step(&[true; 8]);
            rewarded += r
                .rewards
                .iter()
                .zip(&r.outcomes)
                .filter(|(rw, o)| **o == Some(true) && **rw >= 0.0)
                .count();
        }
        assert!(rewarded > 0, "some compactions must succeed with positive reward");
        assert!(e.mean_utilization() > before);
    }

    #[test]
    fn failed_compaction_gets_negative_reward() {
        let cfg = EnvConfig { conflict_sensitivity: 10.0, ..Default::default() };
        let mut e = CompactionEnv::new(cfg, 3);
        for _ in 0..10 {
            e.step(&[false; 8]);
        }
        let mut saw_failure = false;
        for _ in 0..10 {
            let r = e.step(&[true; 8]);
            for (rw, o) in r.rewards.iter().zip(&r.outcomes) {
                if *o == Some(false) {
                    saw_failure = true;
                    assert!(*rw < 0.0, "failure reward must be negative, got {rw}");
                }
            }
        }
        assert!(saw_failure, "high sensitivity must cause conflicts");
    }

    #[test]
    fn state_vector_is_normalized() {
        let mut e = env(4);
        for _ in 0..30 {
            e.step(&[false; 8]);
        }
        for i in 0..8 {
            let s = e.state(i);
            assert_eq!(s.len(), CompactionEnv::STATE_DIM);
            for (j, v) in s.iter().enumerate() {
                assert!((0.0..=1.0).contains(v), "feature {j} = {v}");
            }
        }
    }

    #[test]
    fn compaction_lowers_query_cost() {
        let mut a = env(5);
        let mut b = env(5);
        for _ in 0..30 {
            a.step(&[false; 8]);
            b.step(&[true; 8]);
        }
        assert!(
            b.query_cost() < a.query_cost(),
            "compacting env must serve queries from fewer files: {} vs {}",
            b.query_cost(),
            a.query_cost()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = env(7);
        let mut b = env(7);
        for _ in 0..10 {
            let ra = a.step(&[true, false, true, false, true, false, true, false]);
            let rb = b.step(&[true, false, true, false, true, false, true, false]);
            assert_eq!(ra.rewards, rb.rewards);
        }
    }
}
