//! Persistence logs (PLogs), StreamLake's unit of durable storage.
//!
//! From the paper (§IV-A, Fig 4): incoming data slices "will be distributed
//! evenly to 4096 logical shards, each of which has the storage space
//! managed by persistence logs (PLog). Each PLog unit … controls a fixed
//! amount of storage space on multiple disks and provides 128 MB of
//! addresses per shard. When a message is received, the PLog unit
//! replicates it to multiple disks for redundancy. We use key-value
//! databases to serve as indexes for PLogs for fast record lookup."
//!
//! * [`placement`] — the hash placement that spreads slices over shards;
//! * [`store`] — the [`PlogStore`]: per-shard append-only address spaces,
//!   replication/erasure-coded writes into a [`simdisk::StoragePool`], a KV
//!   index from addresses to physical extents with per-shard CRC32s,
//!   checksum-verified degraded reads, and race-safe healing. Records
//!   enter through one routine, [`PlogStore::append_group`]: a caller that
//!   holds several records (a stream object with several filled slices)
//!   passes them as one group and pays a single batched index put (one WAL
//!   frame) for the lot; `append_to_shard_at` is the group of one;
//! * [`scrub`] — the [`ScrubService`]: Maintenance-QoS background cycles
//!   that verify every stored shard and restore full redundancy;
//! * [`workers`] — the [`WorkerPool`]: a small fixed thread pool with
//!   deterministic scatter/join that fans per-shard encode, CRC and
//!   device-write work on the hot path.

// R4 (no panics) and R11 (no swallowed `Result`s) outside tests (DESIGN.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

pub mod placement;
pub(crate) mod replication;
pub(crate) mod scrub;
pub(crate) mod store;
pub(crate) mod workers;

pub use replication::RemoteReplicator;
pub use scrub::ScrubService;
pub use store::{PlogAddress, PlogConfig, PlogStore};
pub use workers::WorkerPool;
