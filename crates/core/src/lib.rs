//! # StreamLake
//!
//! The top-level crate of this reproduction: one handle that wires the
//! whole system of the paper together —
//!
//! * SSD/HDD storage pools and an SCM cache on a simulated OceanStor-class
//!   substrate ([`simdisk`]);
//! * sharded persistence logs with replication or erasure coding
//!   ([`plog`], [`ec`]);
//! * the message streaming service: stream objects, workers, dispatcher,
//!   producers/consumers, transactions ([`stream`]);
//! * lakehouse table objects with ACID commits, snapshots, time travel and
//!   metadata acceleration ([`lake`]);
//! * the LakeBrain optimizer ([`lakebrain`]).
//!
//! ```
//! use common::ctx::QosClass;
//! use streamlake::{StreamLake, StreamLakeConfig};
//!
//! let sl = StreamLake::new(StreamLakeConfig::default());
//! sl.stream()
//!     .create_topic("topic_streamlake_test", stream::TopicConfig::with_partitions(3))
//!     .unwrap();
//! let ctx = sl.root_ctx(QosClass::Foreground);
//! let mut producer = sl.producer();
//! producer.set_batch_size(1);
//! producer.send("topic_streamlake_test", "key", "Hello world", &ctx).unwrap();
//! let mut consumer = sl.consumer("quickstart");
//! consumer.subscribe("topic_streamlake_test").unwrap();
//! let records = consumer.poll(10, &ctx).unwrap();
//! assert_eq!(records.len(), 1);
//! ```

pub mod access;
pub mod chore;
pub mod frontdoor;
pub mod pipeline;
pub mod query;
pub mod system;
pub mod txn;

pub use access::{AccessController, Permission, Principal};
pub use chore::{ChoreRuntime, ChoreStatus, TickEvent, TickOutcome};
pub use frontdoor::{
    AdmissionEvent, BreakerConfig, BreakerPhase, BreakerTransition, Decision, FrontDoor,
    FrontDoorConfig, Permit, RequestKind, TenantStats,
};
pub use pipeline::{PipelineReport, StreamLakePipeline};
pub use query::{Aggregate, Query, QueryEngine, QueryOutput};
pub use system::{PoolHealthReport, StreamLake, StreamLakeConfig};
pub use txn::{Transaction, TxnRecoveryReport};
