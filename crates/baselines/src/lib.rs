//! The open-source baseline stack StreamLake is compared against in §VII:
//! HDFS for batch storage and Kafka for stream storage, plus the
//! copy-per-stage ETL pipeline China Mobile ran on them.
//!
//! These are deliberately *faithful-cost* miniatures, not feature-complete
//! reimplementations: what Table 1 measures is the baselines' cost
//! structure — triplicated blocks, per-stage full copies, file-per-batch
//! metadata — and that structure is reproduced exactly, over the same
//! simulated device substrate StreamLake runs on.

pub(crate) mod hdfs;
pub mod kafka;
pub(crate) mod pipeline;

pub use hdfs::MiniHdfs;
pub use kafka::MiniKafka;
pub use pipeline::BaselinePipeline;
