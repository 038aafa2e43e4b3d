//! Table maintenance: binpack compaction and the block-utilization metric.
//!
//! §VI-A defines block utilization at state *t* as
//! `Σ f_i / (K × Σ ⌈f_i / K⌉)` — live bytes over allocated block bytes —
//! and compacts small files with "the binpack strategy … to efficiently
//! merge small files to the target file size". The deployment runs the
//! executor from [`CompactionChore`] on the paper's static 30-second
//! interval; LakeBrain's RL agent is evaluated offline, against its own
//! environment model (Fig 16).

use crate::meta::DataFileMeta;
use crate::table::{CommitInfo, TableStore};
use common::chore::{Chore, TickReport};
use common::ctx::{IoCtx, QosClass};
use common::size::div_ceil;
use common::{Error, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Storage block size used for utilization accounting (paper's `K`).
pub const BLOCK_SIZE: u64 = 4 * 1024 * 1024;

/// Target output file size of the compaction chore.
pub const COMPACTION_TARGET_BYTES: u64 = 64 * 1024 * 1024;

/// Block utilization of a set of files: `Σ f_i / (K × Σ ⌈f_i/K⌉)`.
///
/// Empty input counts as fully utilized (nothing is wasted).
pub fn block_utilization(file_sizes: &[u64], block_size: u64) -> f64 {
    if file_sizes.is_empty() {
        return 1.0;
    }
    let live: u64 = file_sizes.iter().sum();
    let blocks: u64 = file_sizes.iter().map(|&f| div_ceil(f.max(1), block_size)).sum();
    live as f64 / (block_size * blocks) as f64
}

/// Outcome of one compaction run on one partition.
#[derive(Debug, Clone)]
pub struct CompactionOutcome {
    /// Files merged away.
    pub files_compacted: u64,
    /// Files produced.
    pub files_produced: u64,
    /// Block utilization of the partition before.
    pub utilization_before: f64,
    /// Block utilization of the partition after.
    pub utilization_after: f64,
    /// The commit, when one was made.
    pub commit: Option<CommitInfo>,
}

/// Group a partition's files into binpack bins of up to `target_bytes`.
///
/// Files are considered largest-first (classic first-fit-decreasing); bins
/// holding a single file are not rewritten (no gain).
pub fn binpack(files: &[DataFileMeta], target_bytes: u64) -> Vec<Vec<DataFileMeta>> {
    let mut sorted: Vec<&DataFileMeta> = files.iter().collect();
    sorted.sort_by_key(|f| std::cmp::Reverse(f.bytes));
    let mut bins: Vec<(u64, Vec<DataFileMeta>)> = Vec::new();
    for f in sorted {
        if f.bytes >= target_bytes {
            continue; // already at/above target: leave alone
        }
        match bins.iter_mut().find(|(used, _)| used + f.bytes <= target_bytes) {
            Some((used, bin)) => {
                *used += f.bytes;
                bin.push(f.clone());
            }
            None => bins.push((f.bytes, vec![f.clone()])),
        }
    }
    bins.into_iter()
        .map(|(_, bin)| bin)
        .filter(|bin| bin.len() > 1)
        .collect()
}

/// The compaction executor.
#[derive(Debug)]
pub struct Compactor {
    /// Target output file size in bytes.
    pub target_bytes: u64,
}

impl Compactor {
    /// A compactor merging toward `target_bytes` output files.
    pub fn new(target_bytes: u64) -> Self {
        Compactor { target_bytes: target_bytes.max(1) }
    }

    /// Live files of `table` grouped by partition.
    pub fn partitions(
        &self,
        store: &TableStore,
        table: &str,
        ctx: &IoCtx,
    ) -> Result<BTreeMap<String, Vec<DataFileMeta>>> {
        let mut map: BTreeMap<String, Vec<DataFileMeta>> = BTreeMap::new();
        for f in store.live_files(table, ctx)? {
            map.entry(f.partition.clone()).or_default().push(f);
        }
        Ok(map)
    }

    /// Compact one partition of `table` with binpack, committing the
    /// rewrite optimistically. Returns `Error::Conflict` when a concurrent
    /// commit invalidated the inputs (the failure case the RL reward
    /// penalizes).
    pub fn compact_partition(
        &self,
        store: &TableStore,
        table: &str,
        partition: &str,
        ctx: &IoCtx,
    ) -> Result<CompactionOutcome> {
        // Compaction is maintenance work: it must yield device queues to
        // foreground traffic regardless of what the caller's context says.
        let ctx = ctx.at(ctx.now).with_qos(QosClass::Maintenance);
        let base = store.current_snapshot(table)?;
        let parts = self.partitions(store, table, &ctx)?;
        let files = parts
            .get(partition)
            .ok_or_else(|| Error::NotFound(format!("partition {partition} of {table}")))?;
        let sizes_before: Vec<u64> = files.iter().map(|f| f.bytes).collect();
        let bins = binpack(files, self.target_bytes);
        if bins.is_empty() {
            return Ok(CompactionOutcome {
                files_compacted: 0,
                files_produced: 0,
                utilization_before: block_utilization(&sizes_before, BLOCK_SIZE),
                utilization_after: block_utilization(&sizes_before, BLOCK_SIZE),
                commit: None,
            });
        }
        let mut removed = Vec::new();
        let mut added = Vec::new();
        let mut t = ctx.now;
        for bin in &bins {
            let mut merged_rows = Vec::new();
            for f in bin {
                let (rows, tr) = store.read_file_rows(&f.path, &ctx.at(t))?;
                t = tr;
                merged_rows.extend(rows);
                removed.push(f.path.clone());
            }
            added.push((partition.to_string(), merged_rows));
        }
        let files_compacted = removed.len() as u64;
        let files_produced = added.len() as u64;
        let commit = store.commit_replace(table, base, removed, added, &ctx.at(t))?;
        let parts_after = self.partitions(store, table, &ctx.at(commit.finished_at))?;
        let sizes_after: Vec<u64> = parts_after
            .get(partition)
            .map(|fs| fs.iter().map(|f| f.bytes).collect())
            .unwrap_or_default();
        Ok(CompactionOutcome {
            files_compacted,
            files_produced,
            utilization_before: block_utilization(&sizes_before, BLOCK_SIZE),
            utilization_after: block_utilization(&sizes_after, BLOCK_SIZE),
            commit: Some(commit),
        })
    }

    /// Compact every partition (the static "compact everything on a timer"
    /// baseline); conflicts on individual partitions are skipped.
    pub fn compact_all(
        &self,
        store: &TableStore,
        table: &str,
        ctx: &IoCtx,
    ) -> Result<Vec<CompactionOutcome>> {
        let mut out = Vec::new();
        for partition in self.partitions(store, table, ctx)?.keys() {
            match self.compact_partition(store, table, partition, ctx) {
                Ok(o) => out.push(o),
                Err(Error::Conflict(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }
}

/// The compaction maintenance chore: each tick runs the binpack executor
/// over every partition of every catalog table. The chore runtime's
/// period is the paper's "Default-compaction" 30-second interval, so the
/// tick itself compacts unconditionally; a partition whose commit conflicts
/// is skipped until the next tick.
#[derive(Debug)]
pub struct CompactionChore {
    store: Arc<TableStore>,
    compactor: Compactor,
}

impl CompactionChore {
    /// A chore compacting `store`'s tables toward
    /// [`COMPACTION_TARGET_BYTES`] files.
    pub fn new(store: Arc<TableStore>) -> Self {
        CompactionChore { store, compactor: Compactor::new(COMPACTION_TARGET_BYTES) }
    }

    /// One tick's work over `tables`, the catalog listing it started from.
    fn compact_tables(&self, tables: Vec<String>, ctx: &IoCtx) -> Result<TickReport> {
        let mut report = TickReport::idle(ctx.now);
        for table in tables {
            let outcomes = match self.compactor.compact_all(&self.store, &table, ctx) {
                Ok(o) => o,
                // table dropped between list() and the scan: skip it
                Err(Error::NotFound(_)) => continue,
                Err(e) => return Err(e),
            };
            for o in outcomes {
                report.work_done += o.files_compacted;
                if let Some(commit) = &o.commit {
                    report.finished_at = report.finished_at.max(commit.finished_at);
                }
            }
        }
        Ok(report)
    }
}

impl Chore for CompactionChore {
    fn name(&self) -> &'static str {
        "compaction"
    }

    fn tick(&self, ctx: &IoCtx) -> Result<TickReport> {
        self.compact_tables(self.store.catalog().list(), ctx)
    }
}

/// The MetaFresher as a chore: a due-time flush of every table's pending
/// metadata-cache entries, replacing "flush only when the per-table buffer
/// fills" with "flush whatever is pending when the tick comes due". The
/// threshold auto-flush inside `put_commit` still backstops hot tables
/// between ticks.
#[derive(Debug)]
pub struct MetaFlushChore {
    store: Arc<TableStore>,
}

impl MetaFlushChore {
    /// A chore flushing `store`'s metadata cache.
    pub fn new(store: Arc<TableStore>) -> Self {
        MetaFlushChore { store }
    }
}

impl Chore for MetaFlushChore {
    fn name(&self) -> &'static str {
        "meta-flush"
    }

    fn tick(&self, ctx: &IoCtx) -> Result<TickReport> {
        let mut report = TickReport::idle(ctx.now);
        for (table, pending) in self.store.meta().pending_tables() {
            let t = self.store.meta().flush(&table, ctx)?;
            report.work_done += pending;
            report.finished_at = report.finished_at.max(t);
        }
        Ok(report)
    }
}

/// Result of a snapshot-expiration run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpiryReport {
    /// Snapshots removed from the time-travel chain.
    pub snapshots_expired: u64,
    /// Data files physically deleted (unreferenced by retained snapshots).
    pub files_deleted: u64,
    /// Logical bytes reclaimed.
    pub bytes_reclaimed: u64,
    /// PLog deletes that failed during reclamation. The logical expiry
    /// still completes (metadata no longer references the file); the
    /// orphaned extents are picked up by the scrub service.
    pub reclaim_failures: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::{log_rows, log_schema, test_store};
    use crate::table::ScanOptions;
    use common::ctx::IoCtx;
    use format::ColumnStats;

    fn meta(path: &str, bytes: u64) -> DataFileMeta {
        DataFileMeta {
            path: path.into(),
            partition: "p".into(),
            record_count: 1,
            bytes,
            stats: vec![ColumnStats::from_column(&format::Column::Int(vec![1])).unwrap()],
        }
    }

    #[test]
    fn utilization_formula_matches_paper() {
        // Two 1 MiB files in 4 MiB blocks: 2 MiB live / 8 MiB allocated.
        let u = block_utilization(&[1 << 20, 1 << 20], BLOCK_SIZE);
        assert!((u - 0.25).abs() < 1e-9);
        // One exactly-block-sized file is fully utilized.
        assert!((block_utilization(&[BLOCK_SIZE], BLOCK_SIZE) - 1.0).abs() < 1e-9);
        assert_eq!(block_utilization(&[], BLOCK_SIZE), 1.0);
    }

    #[test]
    fn binpack_merges_small_and_leaves_large() {
        let files = vec![
            meta("a", 100),
            meta("b", 200),
            meta("c", 300),
            meta("big", 10_000),
        ];
        let bins = binpack(&files, 1000);
        assert_eq!(bins.len(), 1);
        let merged: Vec<&str> = bins[0].iter().map(|f| f.path.as_str()).collect();
        assert!(merged.contains(&"a") && merged.contains(&"b") && merged.contains(&"c"));
        assert!(!merged.contains(&"big"), "files at/above target stay");
    }

    #[test]
    fn binpack_respects_target_capacity() {
        let files: Vec<DataFileMeta> =
            (0..10).map(|i| meta(&format!("f{i}"), 400)).collect();
        let bins = binpack(&files, 1000);
        for bin in &bins {
            let total: u64 = bin.iter().map(|f| f.bytes).sum();
            assert!(total <= 1000);
            assert!(bin.len() > 1);
        }
    }

    #[test]
    fn compaction_reduces_file_count_and_preserves_rows() {
        let store = test_store();
        store
            .create_table("t", log_schema(), None, 100_000, &IoCtx::new(0))
            .unwrap();
        // Many small inserts → many small files in the "" partition.
        for i in 0..20 {
            store.insert("t", &log_rows(10, 1_656_806_400 + i * 10), &IoCtx::new(0)).unwrap();
        }
        assert_eq!(store.live_files("t", &IoCtx::new(0)).unwrap().len(), 20);
        let before_rows = store.select("t", &ScanOptions::default(), &IoCtx::new(0)).unwrap().rows.len();

        let compactor = Compactor::new(64 * 1024 * 1024);
        let outcome = compactor.compact_partition(&store, "t", "", &IoCtx::new(10)).unwrap();
        assert_eq!(outcome.files_compacted, 20);
        assert_eq!(outcome.files_produced, 1);
        assert!(outcome.utilization_after > outcome.utilization_before);
        assert_eq!(store.live_files("t", &IoCtx::new(20)).unwrap().len(), 1);
        let after_rows = store.select("t", &ScanOptions::default(), &IoCtx::new(20)).unwrap().rows.len();
        assert_eq!(after_rows, before_rows, "compaction must not lose rows");
    }

    #[test]
    fn compaction_noop_when_nothing_to_merge() {
        let store = test_store();
        store.create_table("t", log_schema(), None, 100_000, &IoCtx::new(0)).unwrap();
        store.insert("t", &log_rows(10, 0), &IoCtx::new(0)).unwrap();
        let compactor = Compactor::new(64 * 1024 * 1024);
        let outcome = compactor.compact_partition(&store, "t", "", &IoCtx::new(0)).unwrap();
        assert_eq!(outcome.files_compacted, 0);
        assert!(outcome.commit.is_none());
    }

    #[test]
    fn compact_all_covers_partitions() {
        let store = test_store();
        store
            .create_table(
                "t",
                log_schema(),
                Some(crate::catalog::PartitionSpec::hourly("start_time")),
                100_000,
                &IoCtx::new(0),
            )
            .unwrap();
        for h in 0..3i64 {
            for _ in 0..5 {
                store
                    .insert("t", &log_rows(10, 1_656_806_400 + h * 3600), &IoCtx::new(0))
                    .unwrap();
            }
        }
        assert_eq!(store.live_files("t", &IoCtx::new(0)).unwrap().len(), 15);
        let compactor = Compactor::new(64 * 1024 * 1024);
        let outcomes = compactor.compact_all(&store, "t", &IoCtx::new(0)).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(store.live_files("t", &IoCtx::new(0)).unwrap().len(), 3);
    }

    #[test]
    fn compaction_chore_tick_merges_every_table_and_skips_dropped_ones() {
        use common::clock::secs;
        let store = Arc::new(test_store());
        for table in ["a", "b", "gone"] {
            store
                .create_table(
                    table,
                    log_schema(),
                    Some(crate::catalog::PartitionSpec::hourly("start_time")),
                    100_000,
                    &IoCtx::new(0),
                )
                .unwrap();
            for h in 0..3i64 {
                for _ in 0..4 {
                    store
                        .insert(table, &log_rows(10, 1_656_806_400 + h * 3600), &IoCtx::new(0))
                        .unwrap();
                }
            }
        }
        let chore = CompactionChore::new(store.clone());
        // a table dropped between list() and its scan is skipped
        let listed = store.catalog().list();
        assert_eq!(listed, ["a", "b", "gone"]);
        store.drop_table("gone", true, &IoCtx::new(secs(1))).unwrap();
        let r = chore.compact_tables(listed, &IoCtx::new(secs(30))).unwrap();
        // one tick merges every small-file partition of both tables
        assert_eq!(r.work_done, 24, "3 partitions x 4 files in each of a and b");
        assert!(r.finished_at > secs(30), "compaction I/O charged");
        for table in ["a", "b"] {
            assert_eq!(store.live_files(table, &IoCtx::new(secs(40))).unwrap().len(), 3);
        }
        // the next tick finds nothing left to merge
        let r2 = chore.tick(&IoCtx::new(secs(60))).unwrap();
        assert_eq!(r2.work_done, 0);
    }

    #[test]
    fn meta_flush_chore_flushes_pending_tables_in_order() {
        let store = Arc::new(test_store());
        store.create_table("b", log_schema(), None, 100_000, &IoCtx::new(0)).unwrap();
        store.create_table("a", log_schema(), None, 100_000, &IoCtx::new(0)).unwrap();
        store.insert("b", &log_rows(5, 0), &IoCtx::new(0)).unwrap();
        store.insert("a", &log_rows(5, 0), &IoCtx::new(0)).unwrap();
        store.insert("a", &log_rows(5, 100), &IoCtx::new(0)).unwrap();
        let pending = store.meta().pending_tables();
        assert_eq!(
            pending,
            vec![("a".to_string(), 2), ("b".to_string(), 1)],
            "pending view is sorted by table name"
        );
        let chore = MetaFlushChore::new(store.clone());
        // one tick flushes every pending table, "a" first
        let r = chore.tick(&IoCtx::new(common::clock::secs(1))).unwrap();
        assert_eq!(r.work_done, 3, "a's two pending entries and b's one flushed");
        assert_eq!(r.backlog_hint, 0);
        assert!(r.finished_at > common::clock::secs(1), "flush I/O charged");
        assert!(store.meta().pending_tables().is_empty());
        // a further tick is a no-op
        let r2 = chore.tick(&IoCtx::new(common::clock::secs(3))).unwrap();
        assert_eq!(r2, TickReport::idle(common::clock::secs(3)));
    }

    #[test]
    fn expiry_reclaims_files_only_old_snapshots_reference() {
        let store = test_store();
        store.create_table("t", log_schema(), None, 100_000, &IoCtx::new(0)).unwrap();
        // v1: initial data; v2: delete a province (drops/rewrites files)
        let v1 = store.insert("t", &log_rows(90, 0), &IoCtx::new(1000)).unwrap();
        let (snap1, _) = store
            .meta()
            .get_snapshot("t", v1.snapshot_id, crate::MetadataMode::Accelerated, &IoCtx::new(0))
            .unwrap();
        let pred = format::Expr::Pred(format::Predicate::cmp(
            "province",
            format::CmpOp::Eq,
            "beijing",
        ));
        let v2 = store.delete("t", &pred, &IoCtx::new(snap1.timestamp + 1000)).unwrap();
        let (snap2, _) = store
            .meta()
            .get_snapshot("t", v2.snapshot_id, crate::MetadataMode::Accelerated, &IoCtx::new(0))
            .unwrap();
        // both versions reachable before expiry
        let t_now = snap2.timestamp + common::clock::secs(10);
        assert_eq!(
            store
                .select(
                    "t",
                    &ScanOptions { as_of: Some(snap1.timestamp), ..Default::default() },
                    &IoCtx::new(t_now),
                )
                .unwrap()
                .rows
                .len(),
            90
        );
        // expire everything older than the delete commit
        let report = store.expire_snapshots("t", snap2.timestamp, &IoCtx::new(t_now)).unwrap();
        assert_eq!(report.snapshots_expired, 1);
        assert!(report.files_deleted >= 1, "the rewritten v1 file must go");
        assert!(report.bytes_reclaimed > 0);
        // current data intact …
        assert_eq!(
            store.select("t", &ScanOptions::default(), &IoCtx::new(t_now)).unwrap().rows.len(),
            60
        );
        // … but time travel into the expired range is gone
        assert!(store
            .select(
                "t",
                &ScanOptions { as_of: Some(snap1.timestamp), ..Default::default() },
                &IoCtx::new(t_now),
            )
            .is_err());
    }

    #[test]
    fn expiry_is_noop_within_retention() {
        let store = test_store();
        store.create_table("t", log_schema(), None, 100_000, &IoCtx::new(0)).unwrap();
        let v1 = store.insert("t", &log_rows(10, 0), &IoCtx::new(1000)).unwrap();
        let (snap1, _) = store
            .meta()
            .get_snapshot("t", v1.snapshot_id, crate::MetadataMode::Accelerated, &IoCtx::new(0))
            .unwrap();
        store.insert("t", &log_rows(10, 100), &IoCtx::new(snap1.timestamp + 1000)).unwrap();
        let report = store.expire_snapshots("t", 0, &IoCtx::new(common::clock::secs(10))).unwrap();
        assert_eq!(report, ExpiryReport::default());
        // full history still reachable
        assert_eq!(
            store
                .select(
                    "t",
                    &ScanOptions { as_of: Some(snap1.timestamp), ..Default::default() },
                    &IoCtx::new(common::clock::secs(10)),
                )
                .unwrap()
                .rows
                .len(),
            10
        );
    }

    #[test]
    fn expiry_then_filebased_reads_still_work() {
        // the squashed base commit must be re-persistable for the
        // file-based metadata path
        let store = test_store();
        store.create_table("t", log_schema(), None, 100_000, &IoCtx::new(0)).unwrap();
        let mut stamps = Vec::new();
        let mut t = 1000u64;
        for i in 0..5 {
            let info = store.insert("t", &log_rows(10, i * 100), &IoCtx::new(t)).unwrap();
            let (snap, _) = store
                .meta()
                .get_snapshot("t", info.snapshot_id, crate::MetadataMode::Accelerated, &IoCtx::new(0))
                .unwrap();
            stamps.push(snap.timestamp);
            t = snap.timestamp + 1000;
        }
        let t_now = stamps[4] + common::clock::secs(10);
        // retain the last two snapshots
        let report = store.expire_snapshots("t", stamps[3], &IoCtx::new(t_now)).unwrap();
        assert_eq!(report.snapshots_expired, 3);
        store.meta().flush("t", &IoCtx::new(t_now)).unwrap();
        let r = store
            .select(
                "t",
                &ScanOptions {
                    mode: crate::MetadataMode::FileBased,
                    ..Default::default()
                },
                &IoCtx::new(t_now + common::clock::secs(10)),
            )
            .unwrap();
        assert_eq!(r.rows.len(), 50, "no data may be lost by expiry");
    }

    #[test]
    fn expiry_below_an_out_of_order_snapshot_expires_everything_older() {
        // Snapshot timestamps follow the callers' clocks: snapshot 2 is
        // older than snapshot 1. Once 2 expires, 1 goes with it, so the
        // retained history stays one contiguous range that still replays.
        use common::clock::secs;
        let store = test_store();
        store.create_table("t", log_schema(), None, 100_000, &IoCtx::new(0)).unwrap();
        for (i, now) in [secs(2), secs(1), secs(3)].into_iter().enumerate() {
            store.insert("t", &log_rows(10, i as i64 * 100), &IoCtx::new(now)).unwrap();
        }
        let report = store.expire_snapshots("t", secs(2), &IoCtx::new(secs(10))).unwrap();
        assert_eq!(report.snapshots_expired, 2);
        store.meta().flush("t", &IoCtx::new(secs(10))).unwrap();
        let opts = ScanOptions { mode: crate::MetadataMode::FileBased, ..Default::default() };
        let r = store.select("t", &opts, &IoCtx::new(secs(20))).unwrap();
        assert_eq!(r.rows.len(), 30, "the retained snapshot replays every live row");
    }

    #[test]
    fn query_reads_fewer_files_after_compaction() {
        let store = test_store();
        store.create_table("t", log_schema(), None, 100_000, &IoCtx::new(0)).unwrap();
        for i in 0..30 {
            store.insert("t", &log_rows(5, i * 5), &IoCtx::new(0)).unwrap();
        }
        // Issue each phase far enough apart (virtual time) that device
        // queues from the previous phase have drained; otherwise data_time
        // would include queueing behind earlier operations.
        use common::clock::secs;
        let before = store.select("t", &ScanOptions::default(), &IoCtx::new(secs(100))).unwrap();
        Compactor::new(64 * 1024 * 1024)
            .compact_partition(&store, "t", "", &IoCtx::new(secs(200)))
            .unwrap();
        let after = store.select("t", &ScanOptions::default(), &IoCtx::new(secs(300))).unwrap();
        assert_eq!(before.rows.len(), after.rows.len());
        assert!(after.stats.files_scanned < before.stats.files_scanned);
        assert!(after.stats.data_time < before.stats.data_time,
            "merged files must cost less device time to read");
    }
}
