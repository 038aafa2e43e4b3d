//! LakeBrain, StreamLake's storage-side optimizer (§VI).
//!
//! Unlike query-engine optimizers, LakeBrain optimizes the *data layout*:
//!
//! * **Automatic compaction** (§VI-A) — a reinforcement-learning agent
//!   decides, per partition and per system state, whether to compact small
//!   files now. The state combines global features (target file size,
//!   ingestion speed, query patterns, global block utilization) with
//!   partition features (access frequency/ordering, partition block
//!   utilization); the reward is the block-utilization improvement on
//!   success and `-(1 - expected improvement)` on a commit-conflict
//!   failure. Modules: [`nn`] (a from-scratch MLP), [`dqn`] (replay
//!   buffer + target network), [`mod@env`] (the ingestion/query
//!   environment), [`compaction`] (DQN and static interval policies,
//!   evaluated offline for Fig 16).
//!
//! * **Predicate-aware partitioning** (§VI-B) — a QD-tree built from the
//!   pushdown-predicate workload, with split gains scored by a sum-product
//!   network cardinality estimator learned from a data sample. Modules:
//!   [`spn`], [`cardinality`] (exact / sampling / SPN estimators for the
//!   ablation), [`qdtree`], [`partitioning`].

pub mod cardinality;
pub mod compaction;
pub mod dqn;
pub mod env;
pub mod nn;
pub mod partitioning;
pub mod qdtree;
pub mod spn;

pub use compaction::{CompactionPolicy, DqnPolicy, IntervalPolicy};
pub use dqn::DqnAgent;
pub use env::{CompactionEnv, EnvConfig, PartitionObs};
pub use qdtree::QdTree;
pub use spn::Spn;
