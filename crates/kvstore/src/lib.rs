//! An ordered key-value engine for StreamLake's metadata paths.
//!
//! The paper leans on key-value stores in three places:
//!
//! * "We use key-value databases to serve as indexes for PLogs for fast
//!   record lookup" (§IV-A);
//! * the stream dispatcher keeps topic/stream/worker topology "as key-value
//!   pairs in a fault-tolerant key-value store" (§V-A);
//! * the lakehouse catalog is "stored in a distributed key-value engine
//!   optimized for RDMA and Storage Class Memory" (§IV-B), and the metadata
//!   acceleration write-cache aggregates small metadata updates as KV pairs.
//!
//! This crate implements that engine from scratch: a `BTreeMap` memtable in
//! front of a CRC-framed write-ahead log with atomic multi-op batches,
//! prefix/range scans, crash recovery that tolerates torn tails, and log
//! compaction.

// R11 (no swallowed `Result`s) outside tests (DESIGN.md).
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

pub(crate) mod batch;
pub mod chore;
pub mod keys;
pub(crate) mod mvcc;
pub mod store;
pub(crate) mod wal;

pub use batch::WriteBatch;
pub use chore::WalCompactionChore;
pub use mvcc::MvccStore;
pub use store::{scan_copies, KvStore, SharedKv};
