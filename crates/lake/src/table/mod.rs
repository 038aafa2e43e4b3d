//! The table store: ACID operations over table objects (§V-B).
//!
//! Writers run as MVCC transactions over the table's metadata keys (the
//! paper's concurrency model is "multiple readers and one writer … without
//! locks" for readers); readers resolve a snapshot first and never block.
//! Every mutation *stages* a commit + snapshot as write intents on
//! `lake/head/{table}`, `lake/commit/{table}/{id}` and
//! `lake/live/{table}/{path}` keys in the shared [`MvccStore`]; the durable
//! record flip is the commit point, after which the transaction is rolled
//! forward: its surviving intents are read back and published through the
//! metadata acceleration cache; a stage that is given up instead has its
//! data files discarded. Concurrent writers surface as intent collisions or
//! OCC validation failures on the head key and abort with the retryable
//! [`Error::Conflict`]. Replace-commits (compaction, delete, update)
//! additionally validate their input files against the `lake/live/`
//! keyspace, so a commit that removed an input since the base snapshot
//! conflicts. Time-travel reads replay a historical snapshot's commit chain.
//! The catalog, the cache and the MVCC store all keep their keys in the
//! PLog's KV index — the deployment's one metadata home.
//!
//! Split along a commit's life: `stage.rs` (mutations up to the decision),
//! `publish.rs` (the one publisher every decided transaction goes through,
//! its mirror for given-up stages, and snapshot expiry), `scan.rs`
//! (SELECT); this file keeps the types, the MVCC keyspace and the table
//! lifecycle (CREATE, DROP, restore).

mod publish;
mod scan;
mod stage;

use crate::catalog::{Catalog, PartitionSpec, TableProfile};
use crate::meta::DataFileMeta;
use crate::metacache::{MetadataCache, MetadataMode};
use common::clock::{millis, Nanos};
use common::ctx::IoCtx;
use common::{Error, Result};
use format::{Expr, Row, Schema};
use kvstore::{keys, MvccStore};
use plog::PlogStore;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Fixed coordination cost of one commit: OCC validation round, catalog
/// compare-and-swap, snapshot publication. Real lakehouse commits on shared
/// storage take on this order of time regardless of data size, which is why
/// the paper's Table 1 shows StreamLake *losing* to plain HDFS at the
/// smallest workload ("it performs extra metadata management").
pub const COMMIT_OVERHEAD: Nanos = millis(100);

/// Options controlling a table scan.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// Pushdown predicate (`Expr::True` scans everything).
    pub predicate: Expr,
    /// Column names to return (`None` = all).
    pub projection: Option<Vec<String>>,
    /// Time travel: resolve the newest snapshot with `timestamp <= as_of`.
    pub as_of: Option<Nanos>,
    /// Metadata path (accelerated vs file-based, Fig 15).
    pub mode: MetadataMode,
    /// Apply storage-side filtering and data skipping. When `false`, every
    /// candidate file is shipped to the "compute engine" and filtered there
    /// (the no-pushdown baseline). Partitions are pruned from the predicate
    /// either way: conventional engines (Spark over Hive layouts) prune
    /// partitions too; only StreamLake additionally skips files/row-groups
    /// and filters at the storage side.
    pub pushdown: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            predicate: Expr::True,
            projection: None,
            as_of: None,
            mode: MetadataMode::Accelerated,
            pushdown: true,
        }
    }
}

impl ScanOptions {
    /// Scan everything with defaults but the given predicate.
    pub fn filtered(predicate: Expr) -> Self {
        ScanOptions { predicate, ..Default::default() }
    }
}

/// Cost and selectivity accounting of one scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Live files in the snapshot (after partition pruning).
    pub files_candidate: u64,
    /// Files actually read.
    pub files_scanned: u64,
    /// Files skipped via statistics.
    pub files_skipped: u64,
    /// Bytes read from storage.
    pub bytes_scanned: u64,
    /// Bytes proven irrelevant without reading.
    pub(crate) bytes_skipped: u64,
    /// Virtual time spent on metadata operations.
    pub metadata_time: Nanos,
    /// Virtual time spent reading data.
    pub data_time: Nanos,
}

/// Result of a table scan.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// Matching rows (projected).
    pub rows: Vec<Row>,
    /// Cost accounting.
    pub stats: ScanStats,
}

/// Result of a committed mutation.
#[derive(Debug, Clone)]
pub struct CommitInfo {
    /// The snapshot created by the commit.
    pub snapshot_id: u64,
    /// Files added.
    pub files_added: u64,
    /// Files removed.
    pub files_removed: u64,
    /// Virtual completion time of the commit.
    pub finished_at: Nanos,
}

/// Receipt for a commit staged as MVCC write intents but not yet published
/// ([`TableStore::stage_commit`]). The commit and snapshot bodies live only
/// in the intents; the transaction's roll-forward reads them back.
#[derive(Debug, Clone)]
pub struct StagedTableCommit {
    /// The table this commit targets.
    pub table: String,
    /// The data files the stage wrote ([`TableStore::stage_insert`]): what
    /// [`TableStore::discard`] reclaims if the transaction is given up.
    pub files: Vec<DataFileMeta>,
}

/// The lakehouse table store.
#[derive(Debug)]
pub struct TableStore {
    plog: Arc<PlogStore>,
    catalog: Catalog,
    /// Also the data-file path → PLog address map (`addr/` + path).
    meta: MetadataCache,
    mvcc: Arc<MvccStore>,
    next_file_id: AtomicU64,
}

impl TableStore {
    /// Create a table store persisting through `plog`, flushing metadata
    /// after `meta_flush_threshold` pending entries. Catalog, cache and MVCC
    /// store all keep their keys in `plog`'s KV index.
    pub fn new(plog: Arc<PlogStore>, meta_flush_threshold: u64) -> Self {
        TableStore {
            meta: MetadataCache::new(plog.clone(), meta_flush_threshold),
            catalog: Catalog::new(plog.kv().clone()),
            mvcc: Arc::new(MvccStore::over(plog.kv().clone())),
            plog,
            next_file_id: AtomicU64::new(1),
        }
    }

    /// Use a shared MVCC store for commit coordination, so table commits
    /// can join transactions spanning other subsystems (stream⇄table
    /// atomicity).
    pub fn with_mvcc(mut self, mvcc: Arc<MvccStore>) -> Self {
        self.mvcc = mvcc;
        self
    }

    /// The MVCC store coordinating table commits.
    pub fn mvcc(&self) -> &Arc<MvccStore> {
        &self.mvcc
    }

    /// The catalog (inspection).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The metadata cache (inspection / explicit flush).
    pub fn meta(&self) -> &MetadataCache {
        &self.meta
    }

    /// CREATE TABLE: register in the catalog and initialize directories.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        partition: Option<PartitionSpec>,
        target_file_rows: u64,
        ctx: &IoCtx,
    ) -> Result<TableProfile> {
        self.catalog.create(name, schema, partition, target_file_rows.max(1), ctx.now)
    }

    /// DROP TABLE.
    ///
    /// * `hard = false` — soft: unregister from the catalog, keep data and
    ///   metadata for restoration;
    /// * `hard = true` — remove data files, metadata and the catalog entry.
    pub fn drop_table(&self, name: &str, hard: bool, ctx: &IoCtx) -> Result<()> {
        let mut profile = self.catalog.get_any(name)?;
        if !hard {
            profile.soft_deleted = true;
            profile.modified_at = ctx.now;
            self.catalog.update(&profile);
            return Ok(());
        }
        if profile.current_snapshot != 0 {
            let (files, _) = self.current_live_files(&profile, None, ctx)?;
            // Retire the table's MVCC metadata keys in one transaction so a
            // recreated table under the same name starts from a clean
            // keyspace (stale live keys would satisfy replace-commit
            // liveness checks they should not).
            let (txn, ()) = self.with_txn(|txn| {
                for f in &files {
                    self.mvcc.delete(txn, &keys::lake_live(name, &f.path))?;
                }
                self.mvcc.delete(txn, &keys::lake_head(name))
            })?;
            self.roll_forward(txn, ctx)?;
            // Data files next: everything a retained commit added, not just
            // what the current snapshot still lists.
            for path in self.meta.data_file_paths(name)? {
                #[expect(clippy::let_underscore_must_use, reason = "R11: best-effort delete, orphan is scrub-reclaimed")]
                let _ = self.meta.reclaim(path.as_bytes());
            }
        }
        // … then metadata (cache first, then persisted copies — the ordering
        // the paper calls out for drop table hard) and the catalog entry.
        self.meta.purge_table(name);
        self.catalog.remove(name);
        Ok(())
    }

    /// Restore a soft-deleted table by re-registering it in the catalog.
    pub fn restore_table(&self, name: &str, ctx: &IoCtx) -> Result<TableProfile> {
        let mut profile = self.catalog.get_any(name)?;
        if !profile.soft_deleted {
            return Err(Error::InvalidArgument(format!("table {name} is not soft-deleted")));
        }
        profile.soft_deleted = false;
        profile.modified_at = ctx.now;
        self.catalog.update(&profile);
        Ok(profile)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use common::size::MIB;
    use common::SimClock;
    use ec::Redundancy;
    use format::{CmpOp, DataType, Field, Predicate, Value};
    use plog::PlogConfig;
    use simdisk::{MediaKind, StoragePool};

    pub(crate) fn test_store() -> TableStore {
        store_on(6, 512 * MIB)
    }

    /// A store over `devices` NVMe devices of `device_capacity` bytes each.
    fn store_on(devices: usize, device_capacity: u64) -> TableStore {
        let clock = SimClock::new();
        let pool = Arc::new(StoragePool::new(
            "ssd",
            MediaKind::NvmeSsd,
            devices,
            device_capacity,
            clock,
        ));
        let plog = Arc::new(
            PlogStore::new(
                pool,
                PlogConfig {
                    shard_count: 32,
                    redundancy: Redundancy::Replicate { copies: 2 },
                    shard_capacity: 256 * MIB,
                },
            )
            .unwrap(),
        );
        TableStore::new(plog, 64)
    }

    pub(crate) fn log_schema() -> Schema {
        Schema::new(vec![
            Field::new("url", DataType::Utf8),
            Field::new("start_time", DataType::Int64),
            Field::new("province", DataType::Utf8),
        ])
        .unwrap()
    }

    pub(crate) fn log_rows(n: usize, t0: i64) -> Vec<Row> {
        let provinces = ["beijing", "guangdong", "shanghai"];
        (0..n)
            .map(|i| {
                vec![
                    Value::from(format!("http://app.example/{}", i % 10)),
                    Value::Int(t0 + i as i64),
                    Value::from(provinces[i % 3]),
                ]
            })
            .collect()
    }

    const T0: i64 = 1_656_806_400; // 2022-07-03 00:00 UTC, the Fig 13 query day

    #[test]
    fn create_insert_select_roundtrip() -> Result<()> {
        let s = test_store();
        s.create_table("logs", log_schema(), Some(PartitionSpec::hourly("start_time")), 1000, &IoCtx::new(0))?;
        let rows = log_rows(500, T0);
        s.insert("logs", &rows, &IoCtx::new(0))?;
        let r = s.select("logs", &ScanOptions::default(), &IoCtx::new(0))?;
        assert_eq!(r.rows.len(), 500);
        assert_eq!(r.stats.files_scanned, r.stats.files_candidate);
        Ok(())
    }

    #[test]
    fn create_table_refuses_a_time_bucket_width_below_one() {
        let s = test_store();
        for width in [0, -1, i64::MIN] {
            let part = PartitionSpec {
                column: "start_time".into(),
                transform: crate::catalog::PartitionTransform::TimeBucket(width),
            };
            let err = s.create_table("logs", log_schema(), Some(part), 1000, &IoCtx::new(0));
            assert!(
                matches!(err, Err(Error::InvalidArgument(_))),
                "width {width}: {err:?}"
            );
        }
        assert!(
            s.live_files("logs", &IoCtx::new(0)).is_err(),
            "no table was registered"
        );
    }

    #[test]
    fn select_read_path_pays_no_payload_copies() -> Result<()> {
        // plog read → LakeFileReader::open → scan must stay zero-copy: the
        // reader borrows the Bytes the PLog served instead of re-vectoring
        // the file image.
        let s = test_store();
        s.create_table("logs", log_schema(), None, 1000, &IoCtx::new(0))?;
        s.insert("logs", &log_rows(400, T0), &IoCtx::new(0))?;
        let before = common::bytes::payload_copies();
        let r = s.select("logs", &ScanOptions::default(), &IoCtx::new(0))?;
        assert_eq!(r.rows.len(), 400);
        assert_eq!(
            common::bytes::payload_copies(),
            before,
            "table select must not copy file payload on the read path"
        );
        Ok(())
    }

    #[test]
    fn empty_table_selects_nothing() -> Result<()> {
        let s = test_store();
        s.create_table("t", log_schema(), None, 1000, &IoCtx::new(0))?;
        let r = s.select("t", &ScanOptions::default(), &IoCtx::new(0))?;
        assert!(r.rows.is_empty());
        assert!(s.insert("t", &[], &IoCtx::new(0)).is_err());
        Ok(())
    }

    #[test]
    fn partition_pruning_limits_candidate_files() -> Result<()> {
        let s = test_store();
        s.create_table("logs", log_schema(), Some(PartitionSpec::hourly("start_time")), 10_000, &IoCtx::new(0))?;
        // 10 hours of data, one insert per hour
        for h in 0..10 {
            s.insert("logs", &log_rows(100, T0 + h * 3600), &IoCtx::new(0))?;
        }
        let pred = Expr::all(vec![
            Predicate::cmp("start_time", CmpOp::Ge, T0 + 3 * 3600),
            Predicate::cmp("start_time", CmpOp::Lt, T0 + 4 * 3600),
        ]);
        let r = s.select("logs", &ScanOptions::filtered(pred), &IoCtx::new(0))?;
        assert_eq!(r.rows.len(), 100);
        assert_eq!(r.stats.files_candidate, 1, "partition pruning must narrow to one hour");
        Ok(())
    }

    #[test]
    fn time_bounds_at_the_ends_of_i64_prune_everything_without_overflow() -> Result<()> {
        let s = test_store();
        s.create_table("logs", log_schema(), Some(PartitionSpec::hourly("start_time")), 10_000, &IoCtx::new(0))?;
        s.insert("logs", &log_rows(100, T0), &IoCtx::new(0))?;
        for pred in [
            Predicate::cmp("start_time", CmpOp::Lt, i64::MIN),
            Predicate::cmp("start_time", CmpOp::Gt, i64::MAX),
        ] {
            let opts = ScanOptions::filtered(Expr::all(vec![pred.clone()]));
            let r = s.select("logs", &opts, &IoCtx::new(0))?;
            assert!(r.rows.is_empty(), "{pred}");
            assert_eq!(r.stats.files_candidate, 0, "{pred} must prune every partition");
            // The same bound under a wider conjunction stays empty.
            let wide = Expr::all(vec![Predicate::cmp("start_time", CmpOp::Ge, i64::MIN), pred.clone()]);
            let r = s.select("logs", &ScanOptions::filtered(wide), &IoCtx::new(0))?;
            assert_eq!(r.stats.files_candidate, 0, "{pred}");
        }
        // The whole i64 range is too wide to enumerate: every partition.
        let all = Expr::all(vec![
            Predicate::cmp("start_time", CmpOp::Ge, i64::MIN),
            Predicate::cmp("start_time", CmpOp::Le, i64::MAX),
        ]);
        assert_eq!(s.select("logs", &ScanOptions::filtered(all), &IoCtx::new(0))?.rows.len(), 100);
        Ok(())
    }

    #[test]
    fn select_batches_agree_with_select() -> Result<()> {
        let s = test_store();
        s.create_table("logs", log_schema(), Some(PartitionSpec::hourly("start_time")), 64, &IoCtx::new(0))?;
        for h in 0..3 {
            s.insert("logs", &log_rows(200, T0 + h * 3600), &IoCtx::new(0))?;
        }
        let preds = [
            Expr::True,
            Expr::Pred(Predicate::cmp("province", CmpOp::Eq, "beijing")),
            Expr::all(vec![
                Predicate::cmp("start_time", CmpOp::Ge, T0 + 3600 + 50),
                Predicate::cmp("url", CmpOp::Ne, "http://app.example/3"),
            ]),
        ];
        // Each scan at its own quiet instant, so device queues match.
        let mut at = (1..).map(|k| IoCtx::new(common::clock::secs(100 * k)));
        for pred in preds {
            for projection in [None, Some(vec!["province".to_string(), "start_time".to_string()])] {
                let opts = ScanOptions { predicate: pred.clone(), projection, ..Default::default() };
                let want = s.select("logs", &opts, &at.next().unwrap())?;
                let mut rows = Vec::new();
                let stats = s.select_batches("logs", &opts, &at.next().unwrap(), &mut |b| {
                    assert!(!b.selection.is_empty());
                    b.push_rows(&mut rows);
                    Ok(())
                })?;
                assert_eq!(rows, want.rows, "{pred:?}");
                assert_eq!(stats, want.stats, "{pred:?}");
            }
        }
        Ok(())
    }

    #[test]
    fn pushdown_skips_files_by_stats() -> Result<()> {
        let s = test_store();
        s.create_table("logs", log_schema(), None, 10_000, &IoCtx::new(0))?;
        for h in 0..10 {
            s.insert("logs", &log_rows(100, T0 + h * 3600), &IoCtx::new(0))?;
        }
        let pred = Expr::all(vec![
            Predicate::cmp("start_time", CmpOp::Ge, T0 + 3 * 3600),
            Predicate::cmp("start_time", CmpOp::Lt, T0 + 3 * 3600 + 100),
        ]);
        let with = s.select("logs", &ScanOptions::filtered(pred.clone()), &IoCtx::new(0))?;
        let without = s.select(
            "logs",
            &ScanOptions { predicate: pred, pushdown: false, ..Default::default() },
            &IoCtx::new(0),
        )?;
        assert_eq!(with.rows, without.rows);
        assert!(with.stats.files_skipped >= 9);
        assert!(with.stats.bytes_scanned < without.stats.bytes_scanned);
        Ok(())
    }

    #[test]
    fn projection_returns_requested_columns() -> Result<()> {
        let s = test_store();
        s.create_table("logs", log_schema(), None, 1000, &IoCtx::new(0))?;
        s.insert("logs", &log_rows(10, T0), &IoCtx::new(0))?;
        let r = s.select(
            "logs",
            &ScanOptions {
                projection: Some(vec!["province".into(), "start_time".into()]),
                ..Default::default()
            },
            &IoCtx::new(0),
        )?;
        assert_eq!(r.rows[0].len(), 2);
        assert!(matches!(r.rows[0][0], Value::Str(_)));
        assert!(matches!(r.rows[0][1], Value::Int(_)));
        Ok(())
    }

    #[test]
    fn snapshot_isolation_readers_see_resolved_snapshot() -> Result<()> {
        let s = test_store();
        s.create_table("t", log_schema(), None, 1000, &IoCtx::new(0))?;
        let info1 = s.insert("t", &log_rows(10, T0), &IoCtx::new(100))?;
        // The snapshot's visibility timestamp is its commit completion time.
        let (snap1, _) =
            s.meta().get_snapshot("t", info1.snapshot_id, MetadataMode::Accelerated, &IoCtx::new(0))?;
        let snap1_time = snap1.timestamp;
        s.insert("t", &log_rows(10, T0 + 1000), &IoCtx::new(snap1_time + 1000))?;
        // time travel to the first snapshot
        let r =
            s.select("t", &ScanOptions { as_of: Some(snap1_time), ..Default::default() }, &IoCtx::new(300))?;
        assert_eq!(r.rows.len(), 10);
        let r_now = s.select("t", &ScanOptions::default(), &IoCtx::new(300))?;
        assert_eq!(r_now.rows.len(), 20);
        Ok(())
    }

    #[test]
    fn time_travel_before_first_snapshot_is_not_found() -> Result<()> {
        let s = test_store();
        s.create_table("t", log_schema(), None, 1000, &IoCtx::new(0))?;
        s.insert("t", &log_rows(1, T0), &IoCtx::new(500))?;
        assert!(matches!(
            s.select("t", &ScanOptions { as_of: Some(10), ..Default::default() }, &IoCtx::new(600)),
            Err(Error::NotFound(_))
        ));
        Ok(())
    }

    #[test]
    fn delete_whole_partition_is_metadata_only() -> Result<()> {
        let s = test_store();
        s.create_table("logs", log_schema(), Some(PartitionSpec::hourly("start_time")), 10_000, &IoCtx::new(0))?;
        for h in 0..3 {
            s.insert("logs", &log_rows(50, T0 + h * 3600), &IoCtx::new(0))?;
        }
        let pred = Expr::all(vec![
            Predicate::cmp("start_time", CmpOp::Ge, T0),
            Predicate::cmp("start_time", CmpOp::Lt, T0 + 3600),
        ]);
        let info = s.delete("logs", &pred, &IoCtx::new(10))?;
        assert_eq!(info.files_removed, 1);
        assert_eq!(info.files_added, 0, "whole-file delete adds nothing");
        let r = s.select("logs", &ScanOptions::default(), &IoCtx::new(20))?;
        assert_eq!(r.rows.len(), 100);
        Ok(())
    }

    #[test]
    fn delete_partial_file_rewrites() -> Result<()> {
        let s = test_store();
        s.create_table("logs", log_schema(), None, 1000, &IoCtx::new(0))?;
        s.insert("logs", &log_rows(90, T0), &IoCtx::new(0))?;
        let pred = Expr::Pred(Predicate::cmp("province", CmpOp::Eq, "beijing"));
        let info = s.delete("logs", &pred, &IoCtx::new(10))?;
        assert_eq!(info.files_removed, 1);
        assert_eq!(info.files_added, 1);
        let r = s.select("logs", &ScanOptions::default(), &IoCtx::new(20))?;
        assert_eq!(r.rows.len(), 60);
        assert!(r.rows.iter().all(|row| row[2] != Value::from("beijing")));
        Ok(())
    }

    #[test]
    fn update_rewrites_matching_rows() -> Result<()> {
        let s = test_store();
        s.create_table("logs", log_schema(), None, 1000, &IoCtx::new(0))?;
        s.insert("logs", &log_rows(30, T0), &IoCtx::new(0))?;
        let pred = Expr::Pred(Predicate::cmp("province", CmpOp::Eq, "shanghai"));
        let to_hainan = |row: &Row| {
            let mut out = row.clone();
            out[2] = Value::from("hainan");
            Some(out)
        };
        s.transform("logs", &pred, &to_hainan, &IoCtx::new(10))?;
        let r = s.select("logs", &ScanOptions::default(), &IoCtx::new(20))?;
        assert_eq!(r.rows.len(), 30, "update must not change row count");
        assert!(!r.rows.iter().any(|row| row[2] == Value::from("shanghai")));
        assert_eq!(
            r.rows.iter().filter(|row| row[2] == Value::from("hainan")).count(),
            10
        );
        Ok(())
    }

    #[test]
    fn delete_nothing_is_noop_snapshot() -> Result<()> {
        let s = test_store();
        s.create_table("t", log_schema(), None, 1000, &IoCtx::new(0))?;
        s.insert("t", &log_rows(5, T0), &IoCtx::new(0))?;
        let before = s.current_snapshot("t")?;
        let pred = Expr::Pred(Predicate::cmp("province", CmpOp::Eq, "nowhere"));
        s.delete("t", &pred, &IoCtx::new(10))?;
        assert_eq!(s.current_snapshot("t")?, before + 1);
        assert_eq!(s.select("t", &ScanOptions::default(), &IoCtx::new(20))?.rows.len(), 5);
        Ok(())
    }

    #[test]
    fn soft_drop_restore_and_hard_drop() -> Result<()> {
        let s = test_store();
        s.create_table("t", log_schema(), None, 1000, &IoCtx::new(0))?;
        s.insert("t", &log_rows(5, T0), &IoCtx::new(0))?;
        s.drop_table("t", false, &IoCtx::new(10))?;
        assert!(s.select("t", &ScanOptions::default(), &IoCtx::new(20)).is_err());
        // restore brings the data back
        s.restore_table("t", &IoCtx::new(30))?;
        assert_eq!(s.select("t", &ScanOptions::default(), &IoCtx::new(40))?.rows.len(), 5);
        // hard drop removes everything: the catalog entry, and every cache
        // key of the table or its data files in the shared metadata store
        let paths: Vec<String> =
            s.live_files("t", &IoCtx::new(45))?.into_iter().map(|f| f.path).collect();
        s.meta().flush("t", &IoCtx::new(45))?;
        s.drop_table("t", true, &IoCtx::new(50))?;
        assert!(s.catalog().get_any("t").is_err());
        let mut doomed = vec![
            keys::meta_commits("t").into_bytes(),
            keys::meta_snapshots("t").into_bytes(),
            keys::live_table("t").into_bytes(),
            keys::addr(keys::meta_commits("t").as_bytes()),
            keys::addr(keys::meta_snapshots("t").as_bytes()),
        ];
        doomed.extend(paths.iter().map(|p| keys::addr(p.as_bytes())));
        for prefix in &doomed {
            let left = s.plog.kv().scan_prefix(prefix);
            let prefix = String::from_utf8_lossy(prefix);
            assert!(left.is_empty(), "hard drop left {prefix}* keys: {left:?}");
        }
        // the name is reusable afterwards, and the new table inherits
        // nothing from the dead one
        s.create_table("t", log_schema(), None, 1000, &IoCtx::new(60))?;
        s.insert("t", &log_rows(3, T0), &IoCtx::new(70))?;
        assert_eq!(s.select("t", &ScanOptions::default(), &IoCtx::new(80))?.rows.len(), 3);
        assert_eq!(s.live_files("t", &IoCtx::new(80))?.len(), 1);
        Ok(())
    }

    #[test]
    fn failed_multi_file_write_discards_the_files_before_it() -> Result<()> {
        // Three hourly partitions are written back to back as three files,
        // each replicated onto both of two devices. The devices have room
        // for the first two files and not the third, so the insert fails
        // after writing two files, and neither may survive.
        let rows: Vec<Row> = (0..3).flat_map(|h| log_rows(10, T0 + h * 3600)).collect();
        let logs = |s: &TableStore| {
            s.create_table("logs", log_schema(), Some(PartitionSpec::hourly("start_time")), 1000, &IoCtx::new(0))
        };
        // What the first two partitions (20 rows) take on each device.
        let roomy = store_on(2, 512 * MIB);
        logs(&roomy)?;
        roomy.insert("logs", &rows[..20], &IoCtx::new(0))?;
        let two_files = roomy.plog.physical_bytes() / 2;

        let s = store_on(2, two_files + 1);
        logs(&s)?;
        let err = s.insert("logs", &rows, &IoCtx::new(0)).unwrap_err();
        assert!(matches!(err, Error::CapacityExhausted(_)), "{err:?}");
        let pool = s.plog.pool_for_tests();
        for d in 0..2 {
            assert_eq!(pool.device(d).op_counts().1, 2, "two files reached device {d}");
        }
        assert_eq!((s.plog.record_count(), s.plog.physical_bytes()), (0, 0));
        assert!(s.live_files("logs", &IoCtx::new(0))?.is_empty());
        Ok(())
    }

    #[test]
    fn commit_replace_conflict_on_stale_input() -> Result<()> {
        let s = test_store();
        s.create_table("t", log_schema(), None, 1000, &IoCtx::new(0))?;
        s.insert("t", &log_rows(10, T0), &IoCtx::new(0))?;
        let base = s.current_snapshot("t")?;
        let files = s.live_files("t", &IoCtx::new(0))?;
        let victim = files[0].path.clone();
        // A concurrent DELETE removes the file compaction wanted to rewrite.
        let pred = Expr::Pred(Predicate::cmp("province", CmpOp::Eq, "beijing"));
        s.delete("t", &pred, &IoCtx::new(10))?;
        let err = s.commit_replace(
            "t",
            base,
            vec![victim],
            vec![(String::new(), log_rows(5, T0))],
            &IoCtx::new(20),
        );
        assert!(matches!(err, Err(Error::Conflict(_))), "{err:?}");
        Ok(())
    }

    #[test]
    fn commit_replace_succeeds_when_inputs_still_live() -> Result<()> {
        let s = test_store();
        s.create_table("t", log_schema(), None, 1000, &IoCtx::new(0))?;
        s.insert("t", &log_rows(10, T0), &IoCtx::new(0))?;
        let base = s.current_snapshot("t")?;
        let files = s.live_files("t", &IoCtx::new(0))?;
        // A concurrent append-only insert does not conflict with compaction.
        s.insert("t", &log_rows(10, T0 + 100), &IoCtx::new(10))?;
        let (rows, _) = s.read_file_rows(&files[0].path, &IoCtx::new(20))?;
        let info = s.commit_replace(
            "t",
            base,
            vec![files[0].path.clone()],
            vec![(String::new(), rows)],
            &IoCtx::new(20),
        )?;
        assert_eq!(info.files_removed, 1);
        let r = s.select("t", &ScanOptions::default(), &IoCtx::new(30))?;
        assert_eq!(r.rows.len(), 20);
        Ok(())
    }

    #[test]
    fn filebased_metadata_mode_agrees_with_accelerated() -> Result<()> {
        // One scan path: `pushdown` only gates file skipping, the reader
        // filters and projects either way. Every combination of metadata
        // mode × pushdown × projection must return the reference rows, and
        // the cost accounting is pinned to the values the forked scan loop
        // produced before it was removed — less, on the file-based path,
        // the device time of a snapshot record that no longer lists its
        // commit ids.
        let s = test_store();
        s.create_table("t", log_schema(), None, 1000, &IoCtx::new(0))?;
        let mut all_rows = Vec::new();
        for i in 0..5 {
            let rows = log_rows(20, T0 + i * 100);
            s.insert("t", &rows, &IoCtx::new(0))?;
            all_rows.extend(rows);
        }
        s.meta().flush("t", &IoCtx::new(0))?;
        // Matches all of file 1 and half of file 2; files 0, 3, 4 are skippable.
        let predicate = Expr::all(vec![
            Predicate::cmp("start_time", CmpOp::Ge, T0 + 100),
            Predicate::cmp("start_time", CmpOp::Lt, T0 + 210),
        ]);
        let matching: Vec<Row> = all_rows
            .into_iter()
            .filter(|r| matches!(r[1], Value::Int(t) if (T0 + 100..T0 + 210).contains(&t)))
            .collect();
        assert_eq!(matching.len(), 30);
        // (mode, pushdown) → (files_scanned, bytes_scanned, metadata_time, data_time)
        let pinned = [
            (MetadataMode::Accelerated, true, (2, 566, 4_000, 160_262)),
            (MetadataMode::Accelerated, false, (5, 1415, 4_000, 400_655)),
            (MetadataMode::FileBased, true, (2, 566, 480_257, 160_262)),
            (MetadataMode::FileBased, false, (5, 1415, 480_257, 400_655)),
        ];
        let mut instant = common::clock::secs(10);
        for (mode, pushdown, (files, bytes, meta_t, data_t)) in pinned {
            for projection in [None, Some(vec!["province".to_string(), "start_time".to_string()])] {
                let expect: Vec<Row> = match &projection {
                    Some(_) => matching.iter().map(|r| vec![r[2].clone(), r[1].clone()]).collect(),
                    None => matching.clone(),
                };
                let opts = ScanOptions {
                    predicate: predicate.clone(),
                    projection,
                    mode,
                    pushdown,
                    ..Default::default()
                };
                // Distinct quiet instants: device queues have drained.
                instant += common::clock::secs(10);
                let r = s.select("t", &opts, &IoCtx::new(instant))?;
                let what = format!("{mode:?} pushdown={pushdown} projected={}", opts.projection.is_some());
                assert_eq!(r.rows, expect, "{what}");
                let st = r.stats;
                assert_eq!(
                    (st.files_scanned, st.bytes_scanned, st.metadata_time, st.data_time),
                    (files, bytes, meta_t, data_t),
                    "{what}"
                );
                assert_eq!(st.files_scanned + st.files_skipped, st.files_candidate, "{what}");
            }
        }
        Ok(())
    }

    #[test]
    fn concurrent_stagers_collide_on_head_intent() -> Result<()> {
        let s = test_store();
        s.create_table("t", log_schema(), None, 1000, &IoCtx::new(0))?;
        s.insert("t", &log_rows(10, T0), &IoCtx::new(0))?;
        let before = s.current_snapshot("t")?;
        let a = s.mvcc().begin().id;
        let b = s.mvcc().begin().id;
        s.stage_commit(a, "t", &[], &[], &IoCtx::new(10))?;
        // The second writer hits the first's head intent — the bespoke
        // commit lock's job, now expressed as a write-write conflict.
        let err = s.stage_commit(b, "t", &[], &[], &IoCtx::new(10));
        assert!(matches!(err, Err(Error::Conflict(_))), "{err:?}");
        s.mvcc().abort(b)?;
        s.mvcc().commit_decide(a)?;
        s.roll_forward(a, &IoCtx::new(10))?;
        assert_eq!(s.current_snapshot("t")?, before + 1);
        assert_eq!(s.mvcc().pending_intents(), 0);
        Ok(())
    }

    #[test]
    fn decided_commit_replays_through_publish() -> Result<()> {
        // Decide a staged commit, then "crash" before publish/resolve: the
        // surviving intents must be enough to republish the metadata.
        let s = test_store();
        s.create_table("t", log_schema(), None, 1000, &IoCtx::new(0))?;
        s.insert("t", &log_rows(10, T0), &IoCtx::new(0))?;
        let before = s.current_snapshot("t")?;
        let txn = s.mvcc().begin().id;
        s.stage_commit(txn, "t", &[], &[], &IoCtx::new(10))?;
        s.mvcc().commit_decide(txn)?;
        s.mvcc().forget(txn);
        // Recovery path: publish the decided writes, then resolve.
        let decided = s.mvcc().decided()?;
        assert_eq!(decided.len(), 1);
        let infos = s.publish(&decided[0].writes, &IoCtx::new(20))?;
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].snapshot_id, before + 1);
        s.mvcc().resolve_committed(txn)?;
        assert_eq!(s.current_snapshot("t")?, before + 1);
        assert_eq!(s.select("t", &ScanOptions::default(), &IoCtx::new(30))?.rows.len(), 10);
        assert_eq!(s.mvcc().pending_intents(), 0);
        // Replaying again is harmless (publication must be idempotent).
        s.publish(&decided[0].writes, &IoCtx::new(40))?;
        assert_eq!(s.current_snapshot("t")?, before + 1);
        assert!(s.mvcc().decided_writes(txn)?.is_empty(), "resolved: nothing left to roll forward");
        Ok(())
    }
}
