//! StreamLake's message streaming service (paper §IV-A and §V-A).
//!
//! The service stores message streams natively as **stream objects** in the
//! store layer — not as files — and serves them through stream workers
//! coordinated by a dispatcher. The unit of parallelism end to end is the
//! **partition**: an ordered log `(topic, partition_idx)` pinned to one
//! PLog shard, rate-limited by its own quota bucket, and owned by exactly
//! one member of each consumer group:
//!
//! * [`record`] — key-value message records and their wire encoding;
//! * [`partition`] — the [`Partition`] identity and the stable key hash
//!   that routes a record to its partition ([`partition_for_key`]);
//! * [`config`] — per-topic configuration mirroring the paper's Fig 8 JSON
//!   (`stream_num`, `quota`, `scm_cache`, `convert_2_table`, `archive`);
//! * [`object`] — the stream object: slices of ≤256 records appended to
//!   PLog shards, offset-addressed reads, transactional visibility;
//! * [`dispatcher`] — KV-backed topology (topics → partitions → workers),
//!   round-robin assignment, migration-free rescaling; a stream worker is
//!   an id in this topology, not an object;
//! * [`group`] — consumer groups: membership, deterministic cooperative
//!   rebalancing, fenced offset commits, offset retention;
//! * [`producer`] / [`consumer`] — the client APIs (idempotent produce,
//!   group-member consume);
//! * [`txn`] — exactly-once transactions via a coordinator and two-phase
//!   commit;
//! * [`archive`] — size-triggered archiving with optional row→column
//!   conversion;
//! * [`service`] — the [`StreamService`] facade wiring it all together and
//!   charging the RDMA bus hop of each produce and fetch.

// R4 (no panics) and R11 (no swallowed `Result`s) outside tests (DESIGN.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

pub mod archive;
pub mod config;
pub(crate) mod consumer;
pub(crate) mod dispatcher;
pub mod group;
pub mod object;
pub(crate) mod partition;
pub mod producer;
pub mod record;
pub mod service;
pub(crate) mod txn;

pub use config::TopicConfig;
pub use consumer::{ConsumedRecord, Consumer};
pub use dispatcher::PartitionRoute;
pub use object::{ReadCtrl, StreamObject, StreamObjectStore};
pub use partition::{partition_for_key, Partition};
pub use producer::Producer;
pub use record::Record;
pub use service::{StreamService, StreamServiceOptions};
