//! Synthetic workload generators for the StreamLake experiments.
//!
//! The paper's evaluation uses (a) production DPI log packets (~1.2 KB
//! each) from China Mobile, (b) the OpenMessaging benchmark with fixed 1 KB
//! messages, (c) TPC-H `lineitem` data with randomly generated predicate
//! workloads (following \[47\]). None of these datasets ship with the paper,
//! so this crate generates deterministic synthetic equivalents:
//!
//! * [`packets`] — DPI log packets with realistic field skew;
//! * [`keyed`] — Zipf-skewed keyed producers for the partitioned stream
//!   layer (hot entities, per-key sequence numbers);
//! * [`tpch`] — the `lineitem` schema and value distributions;
//! * [`queries`] — random pushdown-predicate workloads over any schema;
//! * [`openmessaging`] — open-loop constant-rate message load with latency
//!   percentile accounting;
//! * [`openloop`] — open-loop multi-tenant arrival schedules with Zipf
//!   tenant skew (the front door's million-client harness);
//! * [`zipf`] — the Zipf sampler behind the skewed choices.

pub(crate) mod keyed;
pub(crate) mod openloop;
pub mod openmessaging;
pub mod packets;
pub mod queries;
pub mod tpch;
pub(crate) mod zipf;

pub use keyed::producer_fleet;
pub use openloop::OpenLoopSpec;
pub use openmessaging::{LatencyRecorder, LoadSpec};
