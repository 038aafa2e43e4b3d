//! Shared primitives for the StreamLake reproduction.
//!
//! Every other crate in the workspace builds on the types defined here:
//!
//! * [`Error`] / [`Result`] — the common error taxonomy for storage, stream and
//!   lakehouse operations;
//! * [`Bytes`] — refcounted, sliceable buffers: the zero-copy currency every
//!   layer of the data path trades in;
//! * typed identifiers ([`ObjectId`], [`ShardId`], …) so that shard numbers,
//!   PLog handles and table ids cannot be confused with each other;
//! * [`SimClock`] — the virtual nanosecond clock that the simulated hardware
//!   substrate charges latency against;
//! * [`crc32`](checksum::crc32) and varint codecs used by the WAL and the
//!   columnar file format;
//! * a tiny [`metrics`] registry used by the benchmark harness;
//! * [`bucket::NanoBucket`] — the exact integer token bucket behind stream
//!   quotas and tenant admission;
//! * [`IoCtx`] — the per-request context (deadline, QoS class, trace span)
//!   threaded through every layer of the storage stack;
//! * [`Chore`] — the tick contract every background service
//!   implements so `core::chore` can schedule them deterministically;
//! * [`lockwitness`] — the debug-only runtime lock-order sanitizer that
//!   corroborates the canonical hierarchy slint R9 checks statically.

pub mod bucket;
pub mod bytes;
pub mod checksum;
pub mod chore;
pub mod ctx;
pub mod clock;
pub mod error;
pub mod id;
pub mod json;
pub mod lockwitness;
pub mod metrics;
pub mod size;
pub mod varint;

pub use bytes::Bytes;
pub use chore::{Chore, TickReport};
pub use clock::SimClock;
pub use ctx::{IoCtx, Phase, QosClass, SpanRecord, SpanSink};
pub use error::{Error, Result};
pub use id::{ObjectId, PlogId, ShardId, SnapshotId, StreamId, TableId, TxnId, WorkerId};
