//! StreamLake's lakehouse layer: the table object (§IV-B) and its
//! operations (§V-B).
//!
//! A table object is "logically defined by a directory of data and metadata
//! files": data files in the columnar lake format, metadata organized as
//! three levels — *commits* (file-level metadata per transaction),
//! *snapshots* (indexes of valid commits providing snapshot isolation and
//! time travel) and the *catalog* (table profile, held in a key-value
//! engine for fast access).
//!
//! * [`meta`] — commit / snapshot / data-file metadata and codecs;
//! * [`catalog`] — the KV-backed catalog;
//! * [`metacache`] — the metadata acceleration write cache + MetaFresher
//!   (Fig 9), and the file-based metadata path it is compared against in
//!   Fig 15;
//! * [`table`] — the [`TableStore`]: CREATE/INSERT/SELECT/UPDATE/DELETE/
//!   DROP(soft|hard), optimistic concurrency, time travel, partition
//!   pruning and stats-based data skipping with pushdown (split into
//!   `table/{stage,publish,scan}.rs` along a commit's life);
//! * [`conversion`] — stream⇄table conversion (§V-B);
//! * [`maintenance`] — binpack small-file compaction, the compaction and
//!   metadata-flush chores, the snapshot-expiry report, and the
//!   block-utilization metric LakeBrain optimizes.

pub mod catalog;
pub mod conversion;
pub mod maintenance;
pub(crate) mod meta;
pub mod metacache;
pub mod table;

pub use catalog::{Catalog, PartitionSpec, TableProfile};
pub use maintenance::{CompactionChore, MetaFlushChore};
pub use meta::{Commit, DataFileMeta, Snapshot};
pub use metacache::{MetadataCache, MetadataMode};
pub use table::{CommitInfo, ScanOptions, StagedTableCommit, TableStore};
