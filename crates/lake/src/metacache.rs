//! Metadata acceleration (§V-B INSERT step (b), Fig 9) and the file-based
//! metadata path it replaces.
//!
//! "Metadata updates are mostly small I/O operations. To avoid generating a
//! significant number of small files, we leverage a write cache to
//! aggregate the metadata updates … Metadata in the write cache is
//! asynchronously flushed to the persistent storage pool when the buffer is
//! full. A metadata management process (MetaFresher) transforms the commits
//! and snapshots from key-value pairs to files."
//!
//! Two read paths are provided so Fig 15 can compare them:
//!
//! * [`MetadataMode::Accelerated`] — commits, snapshots and a materialized
//!   per-partition live-file index are served from the KV cache at
//!   SCM-class latency; a query pays for the partitions it touches, not
//!   for the whole table;
//! * [`MetadataMode::FileBased`] — the reader loads the snapshot file and
//!   every commit file from the persistence pool and replays them, which is
//!   linear in the number of commits/files (the classic file-based catalog
//!   cost).

use crate::meta::{Commit, DataFileMeta, Snapshot};
use common::clock::{micros, Nanos};
use common::ctx::{IoCtx, Phase};
use common::{Error, Result};
use kvstore::keys;
use plog::{PlogAddress, PlogStore};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use common::lockwitness::TrackedMutex;

/// Which metadata path a read uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetadataMode {
    /// KV write-cache + materialized index (StreamLake).
    Accelerated,
    /// Read snapshot + commit files from storage and replay (baseline).
    FileBased,
}

/// Per-lookup cost of the SCM/RDMA-optimized KV engine.
pub(crate) const KV_LOOKUP_COST: Nanos = micros(2);

/// Approximate in-memory footprint of one file's metadata on the compute
/// side (path + stats), used by the Fig 15(b) memory model.
pub const PER_FILE_META_BYTES: u64 = 200;

/// The metadata write cache + MetaFresher. Its keys live in the PLog's KV
/// index under `meta/`, `live/` and `addr/` (DESIGN.md, "One metadata home").
#[derive(Debug)]
pub struct MetadataCache {
    plog: Arc<PlogStore>,
    /// Pending (unflushed) commit/snapshot cache entries per table.
    pending: TrackedMutex<BTreeMap<String, u64>>,
    /// MetaFresher flush threshold (pending entries per table).
    flush_threshold: u64,
}

impl MetadataCache {
    /// A cache flushing to `plog` once a table accumulates
    /// `flush_threshold` unflushed metadata entries.
    pub(crate) fn new(plog: Arc<PlogStore>, flush_threshold: u64) -> Self {
        MetadataCache {
            plog,
            pending: TrackedMutex::new("lake.meta.pending", BTreeMap::new()),
            flush_threshold: flush_threshold.max(1),
        }
    }

    /// Record a commit: cached as KV pairs, live-file index updated, and
    /// flushed by the MetaFresher when the buffer is full. Returns the
    /// virtual completion time of the (cache-resident) update.
    pub(crate) fn put_commit(&self, table: &str, commit: &Commit, ctx: &IoCtx) -> Result<Nanos> {
        self.plog.kv().put(keys::meta_commit(table, commit.id), commit.encode());
        // maintain the materialized per-partition live-file index
        for f in &commit.added {
            self.plog.kv().put(keys::live_file(table, &f.partition, &f.path), {
                let mut buf = Vec::new();
                f.encode(&mut buf);
                buf
            });
        }
        for path in &commit.removed {
            // the removed file's partition is embedded in its index entries;
            // scan the (small) per-table prefix for it. Borrowed scan: only
            // the doomed keys are materialized, never the values.
            let suffix = format!("/{path}");
            let mut doomed = Vec::new();
            self.plog
                .kv()
                .scan_prefix_with(keys::live_table(table).as_bytes(), &mut |k, _| {
                    if k.ends_with(suffix.as_bytes()) {
                        doomed.push(k.to_vec());
                    }
                    true
                });
            for k in doomed {
                self.plog.kv().delete(k);
            }
        }
        let mut pending = self.pending.lock();
        let counter = pending.entry(table.to_string()).or_insert(0);
        *counter += 1;
        ctx.record(Phase::Meta, ctx.now, KV_LOOKUP_COST);
        let mut finish = ctx.now + KV_LOOKUP_COST;
        if *counter >= self.flush_threshold {
            *counter = 0;
            drop(pending);
            finish = self.flush(table, ctx)?;
        }
        Ok(finish)
    }

    /// Replace the cached body of a published commit (snapshot expiry's
    /// squash). Unlike [`put_commit`](Self::put_commit) it leaves the
    /// live-file index alone: the index tracks the current snapshot, which
    /// rewriting history does not change.
    pub(crate) fn rewrite_commit(&self, table: &str, commit: &Commit) {
        self.plog.kv().put(keys::meta_commit(table, commit.id), commit.encode());
    }

    /// Record a snapshot in the cache. Returns the virtual completion time
    /// of the (cache-resident) update.
    pub(crate) fn put_snapshot(
        &self,
        table: &str,
        snapshot: &Snapshot,
        ctx: &IoCtx,
    ) -> Result<Nanos> {
        self.plog.kv().put(keys::meta_snapshot(table, snapshot.id), snapshot.encode());
        ctx.record(Phase::Meta, ctx.now, KV_LOOKUP_COST);
        Ok(ctx.now + KV_LOOKUP_COST)
    }

    /// MetaFresher: persist all cached commit/snapshot entries of `table`
    /// as files in the storage pool (asynchronous in the paper; charged to
    /// the background timeline here, so the returned time is when the flush
    /// completes, not when foreground work may continue).
    pub fn flush(&self, table: &str, ctx: &IoCtx) -> Result<Nanos> {
        let mut finish = ctx.now;
        // Maintenance-path scans stay on the cloning API: the loop bodies
        // call back into the store (get/put), which a borrowed scan's read
        // lock would forbid.
        for prefix in [keys::meta_commits(table), keys::meta_snapshots(table)] {
            for (k, v) in self.plog.kv().scan_prefix(prefix.as_bytes()) {
                if self.address(&k).is_some() {
                    continue; // already persisted
                }
                let (addr, t) =
                    self.plog.append_to_shard_at(self.plog.shard_of(&k), &v, ctx)?;
                finish = finish.max(t);
                self.set_address(&k, &addr);
            }
        }
        self.pending.lock().insert(table.to_string(), 0);
        Ok(finish)
    }

    /// Tables with unflushed metadata entries and their pending counts, in
    /// name order (the backing map is ordered), so maintenance sweeps are
    /// deterministic.
    pub(crate) fn pending_tables(&self) -> Vec<(String, u64)> {
        self.pending
            .lock()
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(t, &n)| (t.clone(), n))
            .collect()
    }

    /// Fetch a snapshot under the given mode; returns it plus the virtual
    /// completion time.
    pub fn get_snapshot(
        &self,
        table: &str,
        id: u64,
        mode: MetadataMode,
        ctx: &IoCtx,
    ) -> Result<(Snapshot, Nanos)> {
        self.get_entry(&keys::meta_snapshot(table, id), mode, ctx, Snapshot::decode)
    }

    /// Fetch a commit under the given mode.
    pub fn get_commit(
        &self,
        table: &str,
        id: u64,
        mode: MetadataMode,
        ctx: &IoCtx,
    ) -> Result<(Commit, Nanos)> {
        self.get_entry(&keys::meta_commit(table, id), mode, ctx, Commit::decode)
    }

    /// One decoded metadata entry: from the KV cache at SCM-class latency,
    /// or from its persisted file at device latency.
    fn get_entry<T>(
        &self,
        key: &str,
        mode: MetadataMode,
        ctx: &IoCtx,
        decode: fn(&[u8]) -> Result<T>,
    ) -> Result<(T, Nanos)> {
        match mode {
            MetadataMode::Accelerated => {
                let bytes = self
                    .plog
                    .kv()
                    .get(key.as_bytes())
                    .ok_or_else(|| Error::NotFound(format!("metadata entry {key}")))?;
                ctx.record(Phase::Meta, ctx.now, KV_LOOKUP_COST);
                Ok((decode(&bytes)?, ctx.now + KV_LOOKUP_COST))
            }
            MetadataMode::FileBased => {
                let addr = self.address(key.as_bytes()).ok_or_else(|| {
                    Error::NotFound(format!("metadata file for {key} not persisted"))
                })?;
                let (bytes, t) = self.plog.read_at(&addr, ctx)?;
                Ok((decode(&bytes)?, t))
            }
        }
    }

    /// The live data files of `snapshot`, optionally restricted to a set of
    /// partitions.
    ///
    /// Accelerated mode serves the materialized index: cost is one KV scan
    /// per *touched* partition. File-based mode reads every commit file of
    /// the snapshot from storage and replays it: cost is linear in commits.
    pub(crate) fn live_files(
        &self,
        table: &str,
        snapshot: &Snapshot,
        partitions: Option<&[String]>,
        mode: MetadataMode,
        ctx: &IoCtx,
    ) -> Result<(Vec<DataFileMeta>, Nanos)> {
        match mode {
            MetadataMode::Accelerated => {
                let mut out = Vec::new();
                let mut finish = ctx.now;
                // This is the hot read path of every select/commit: decode
                // straight out of the borrowed scan instead of cloning each
                // `(key, value)` pair first.
                let mut decode_err = None;
                let mut collect = |_: &[u8], v: &[u8]| match DataFileMeta::decode_entry(v) {
                    Ok(f) => {
                        out.push(f);
                        true
                    }
                    Err(e) => {
                        decode_err = Some(e);
                        false
                    }
                };
                // One KV scan per touched partition, or one over the table.
                let prefixes = match partitions {
                    Some(parts) => parts.iter().map(|p| keys::live_file(table, p, "")).collect(),
                    None => vec![keys::live_table(table)],
                };
                for prefix in prefixes {
                    finish += KV_LOOKUP_COST;
                    self.plog.kv().scan_prefix_with(prefix.as_bytes(), &mut collect);
                }
                if let Some(e) = decode_err {
                    return Err(e);
                }
                out.sort_by(|a, b| a.path.cmp(&b.path));
                ctx.record(Phase::Meta, ctx.now, finish - ctx.now);
                Ok((out, finish))
            }
            MetadataMode::FileBased => self.replay_commits(table, snapshot, partitions, mode, ctx),
        }
    }

    /// The live files of `snapshot` reconstructed by replaying its commits,
    /// read under `mode`: from storage for the file-based path, from the KV
    /// cache for time travel (a *historical* snapshot must not consult the
    /// materialized index, which always reflects the current one). Cost is
    /// linear in commits either way.
    pub(crate) fn replay_commits(
        &self,
        table: &str,
        snapshot: &Snapshot,
        partitions: Option<&[String]>,
        mode: MetadataMode,
        ctx: &IoCtx,
    ) -> Result<(Vec<DataFileMeta>, Nanos)> {
        let mut live: BTreeMap<String, DataFileMeta> = BTreeMap::new();
        let mut t = ctx.now;
        for cid in snapshot.commit_ids() {
            let (commit, tc) = self.get_commit(table, cid, mode, &ctx.at(t))?;
            t = tc;
            for f in commit.added {
                live.insert(f.path.clone(), f);
            }
            for r in &commit.removed {
                live.remove(r);
            }
        }
        // BTreeMap values come out in path order already.
        let out = live
            .into_values()
            .filter(|f| partitions.is_none_or(|ps| ps.contains(&f.partition)))
            .collect();
        Ok((out, t))
    }

    /// Remove a commit entry (cache + any persisted file). Used by snapshot
    /// expiration.
    pub(crate) fn remove_commit(&self, table: &str, id: u64) {
        self.remove_entry(keys::meta_commit(table, id).as_bytes());
    }

    /// Remove a snapshot entry (cache + any persisted file).
    pub(crate) fn remove_snapshot(&self, table: &str, id: u64) {
        self.remove_entry(keys::meta_snapshot(table, id).as_bytes());
    }

    /// Invalidate the persisted copy of a commit/snapshot after rewriting
    /// its cache entry, so the next MetaFresher flush re-persists it.
    pub(crate) fn invalidate_persisted(&self, table: &str, commit_id: u64) {
        self.forget_persisted(keys::meta_commit(table, commit_id).as_bytes());
        self.forget_persisted(keys::meta_snapshot(table, commit_id).as_bytes());
    }

    /// Every data-file path a cached commit of `table` added, in path order
    /// — what a hard drop must physically reclaim.
    pub(crate) fn data_file_paths(&self, table: &str) -> Result<BTreeSet<String>> {
        let mut paths = BTreeSet::new();
        for (_, body) in self.plog.kv().scan_prefix(keys::meta_commits(table).as_bytes()) {
            paths.extend(Commit::decode(&body)?.added.into_iter().map(|f| f.path));
        }
        Ok(paths)
    }

    /// Drop every trace of `table` — live index, commit and snapshot
    /// entries, pending-flush count — so a re-created table of the same
    /// name cannot inherit the dead one's files (hard drop).
    pub(crate) fn purge_table(&self, table: &str) {
        let prefixes =
            [keys::live_table(table), keys::meta_commits(table), keys::meta_snapshots(table)];
        for prefix in prefixes {
            for (key, _) in self.plog.kv().scan_prefix(prefix.as_bytes()) {
                self.remove_entry(&key);
            }
        }
        self.pending.lock().remove(table);
    }

    /// Cache entry first, then its persisted copy — the order the paper
    /// calls out for dropping metadata.
    fn remove_entry(&self, key: &[u8]) {
        self.plog.kv().delete(key.to_vec());
        self.forget_persisted(key);
    }

    /// Drop the persisted copy of cache entry `key`, if it has one.
    fn forget_persisted(&self, key: &[u8]) {
        // Best-effort invalidation: the KV tombstone is authoritative; an
        // orphaned PLog extent is scrub-reclaimed.
        // slint:allow(R11): best-effort delete, orphan is scrub-reclaimed
        let _ = self.reclaim(key);
    }

    /// Record that `key` — a cache entry, or a table's data-file path — is
    /// persisted at `addr`.
    pub(crate) fn set_address(&self, key: &[u8], addr: &PlogAddress) {
        self.plog.kv().put(keys::addr(key), addr.encode());
    }

    /// Where `key` (a cache entry or a data-file path) is persisted, if it is.
    pub(crate) fn address(&self, key: &[u8]) -> Option<PlogAddress> {
        self.plog.kv().get(&keys::addr(key)).and_then(|b| PlogAddress::decode(&b).ok())
    }

    /// Free `key`'s persisted copy and drop its address entry; a no-op when
    /// it has none. An `Err` means the PLog record could not be freed (the
    /// entry is gone either way; scrub reclaims orphans).
    pub(crate) fn reclaim(&self, key: &[u8]) -> Result<()> {
        let akey = keys::addr(key);
        let Some(bytes) = self.plog.kv().get(&akey) else {
            return Ok(());
        };
        let freed = PlogAddress::decode(&bytes).and_then(|addr| self.plog.delete(&addr));
        self.plog.kv().delete(akey);
        freed.map(|_| ())
    }

    /// Compute-side metadata footprint for holding `file_count` files'
    /// metadata in memory (the Fig 15(b) OOM model).
    pub fn metadata_footprint_bytes(file_count: u64) -> u64 {
        file_count * PER_FILE_META_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::size::MIB;
    use common::SimClock;
    use common::ctx::IoCtx;
    use ec::Redundancy;
    use format::{Column, ColumnStats};
    use plog::PlogConfig;
    use simdisk::{MediaKind, StoragePool};

    fn cache(threshold: u64) -> MetadataCache {
        let clock = SimClock::new();
        let pool = Arc::new(StoragePool::new(
            "meta",
            MediaKind::NvmeSsd,
            4,
            256 * MIB,
            clock,
        ));
        let plog = Arc::new(
            PlogStore::new(
                pool,
                PlogConfig {
                    shard_count: 16,
                    redundancy: Redundancy::Replicate { copies: 2 },
                    shard_capacity: 64 * MIB,
                },
            )
            .unwrap(),
        );
        MetadataCache::new(plog, threshold)
    }

    fn file(partition: &str, path: &str) -> DataFileMeta {
        DataFileMeta {
            path: path.to_string(),
            partition: partition.to_string(),
            record_count: 10,
            bytes: 100,
            stats: vec![ColumnStats::from_column(&Column::Int(vec![1, 9])).unwrap()],
        }
    }

    fn commit(id: u64, partition: &str, path: &str) -> Commit {
        Commit { id, timestamp: id, added: vec![file(partition, path)], removed: vec![] }
    }

    #[test]
    fn cached_commit_readable_in_accelerated_mode() {
        let c = cache(100);
        c.put_commit("t", &commit(1, "h=0", "f1"), &IoCtx::new(0)).unwrap();
        let (back, t) = c.get_commit("t", 1, MetadataMode::Accelerated, &IoCtx::new(0)).unwrap();
        assert_eq!(back.id, 1);
        assert_eq!(t, KV_LOOKUP_COST);
    }

    #[test]
    fn file_based_read_requires_flush() {
        let c = cache(100);
        c.put_commit("t", &commit(1, "h=0", "f1"), &IoCtx::new(0)).unwrap();
        assert!(c.get_commit("t", 1, MetadataMode::FileBased, &IoCtx::new(0)).is_err());
        c.flush("t", &IoCtx::new(0)).unwrap();
        let (back, t) = c.get_commit("t", 1, MetadataMode::FileBased, &IoCtx::new(0)).unwrap();
        assert_eq!(back.id, 1);
        assert!(t > KV_LOOKUP_COST, "file read must cost device time");
    }

    #[test]
    fn hot_metadata_reads_use_borrowed_scans() {
        // The live-file index is consulted by every select and every
        // commit; pin it (and put_commit's removal cleanup) to the
        // borrowed scan API — zero cloned scan pairs.
        let c = cache(100);
        for i in 1..=8 {
            c.put_commit("t", &commit(i, "h=0", &format!("f{i}")), &IoCtx::new(0))
                .unwrap();
        }
        let snap = Snapshot { id: 8, base: 1, timestamp: 0 };
        let before = kvstore::scan_copies();
        let (files, _) = c
            .live_files("t", &snap, None, MetadataMode::Accelerated, &IoCtx::new(0))
            .unwrap();
        assert_eq!(files.len(), 8);
        let rm = Commit { id: 9, timestamp: 9, added: vec![], removed: vec!["f1".into()] };
        c.put_commit("t", &rm, &IoCtx::new(0)).unwrap();
        assert_eq!(
            kvstore::scan_copies(),
            before,
            "hot metadata paths must not clone scan batches"
        );
    }

    #[test]
    fn metafresher_auto_flushes_at_threshold() {
        let c = cache(3);
        c.put_commit("t", &commit(1, "h=0", "f1"), &IoCtx::new(0)).unwrap();
        c.put_commit("t", &commit(2, "h=0", "f2"), &IoCtx::new(0)).unwrap();
        assert!(c.get_commit("t", 1, MetadataMode::FileBased, &IoCtx::new(0)).is_err());
        c.put_commit("t", &commit(3, "h=0", "f3"), &IoCtx::new(0)).unwrap(); // hits threshold
        assert!(c.get_commit("t", 1, MetadataMode::FileBased, &IoCtx::new(0)).is_ok());
    }

    #[test]
    fn live_files_replay_matches_materialized_index() {
        let c = cache(100);
        for i in 1..=5u64 {
            c.put_commit("t", &commit(i, &format!("h={}", i % 2), &format!("f{i}")), &IoCtx::new(0))
                .unwrap();
        }
        // remove f2 in commit 6
        let rm = Commit { id: 6, timestamp: 6, added: vec![], removed: vec!["f2".into()] };
        c.put_commit("t", &rm, &IoCtx::new(0)).unwrap();
        c.flush("t", &IoCtx::new(0)).unwrap();
        let snap = Snapshot { id: 6, base: 1, timestamp: 10 };
        let (fast, t_fast) = c
            .live_files("t", &snap, None, MetadataMode::Accelerated, &IoCtx::new(0))
            .unwrap();
        let (slow, t_slow) = c
            .live_files("t", &snap, None, MetadataMode::FileBased, &IoCtx::new(0))
            .unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 4);
        assert!(!fast.iter().any(|f| f.path == "f2"));
        assert!(t_slow > t_fast, "file-based replay must be slower");
    }

    #[test]
    fn partition_restriction_prunes_and_costs_per_partition() {
        let c = cache(100);
        for i in 1..=10u64 {
            c.put_commit("t", &commit(i, &format!("h={i}"), &format!("f{i}")), &IoCtx::new(0))
                .unwrap();
        }
        let snap = Snapshot { id: 10, base: 1, timestamp: 0 };
        let (one, t_one) = c
            .live_files("t", &snap, Some(&["h=3".to_string()]), MetadataMode::Accelerated, &IoCtx::new(0))
            .unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].path, "f3");
        let (all, t_all) = c
            .live_files(
                "t",
                &snap,
                Some(&(1..=10).map(|i| format!("h={i}")).collect::<Vec<_>>()),
                MetadataMode::Accelerated,
                &IoCtx::new(0),
            )
            .unwrap();
        assert_eq!(all.len(), 10);
        assert!(t_all > t_one, "cost scales with touched partitions only");
    }

    #[test]
    fn snapshot_cache_roundtrip_and_persisted_read() {
        let c = cache(100);
        let snap = Snapshot { id: 3, base: 1, timestamp: 99 };
        c.put_snapshot("t", &snap, &IoCtx::new(0)).unwrap();
        let (got, _) = c.get_snapshot("t", 3, MetadataMode::Accelerated, &IoCtx::new(0)).unwrap();
        assert_eq!(got, snap);
        c.flush("t", &IoCtx::new(0)).unwrap();
        let (got, _) = c.get_snapshot("t", 3, MetadataMode::FileBased, &IoCtx::new(0)).unwrap();
        assert_eq!(got, snap);
    }

    #[test]
    fn footprint_model_is_linear() {
        assert_eq!(
            MetadataCache::metadata_footprint_bytes(1000),
            1000 * PER_FILE_META_BYTES
        );
    }

    #[test]
    fn flush_is_idempotent() {
        let c = cache(100);
        c.put_commit("t", &commit(1, "h", "f"), &IoCtx::new(0)).unwrap();
        c.flush("t", &IoCtx::new(0)).unwrap();
        let entries = c.plog.kv().len();
        c.flush("t", &IoCtx::new(0)).unwrap(); // second flush persists nothing new
        assert_eq!(c.plog.kv().len(), entries);
    }
}
