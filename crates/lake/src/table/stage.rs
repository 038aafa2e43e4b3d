//! Stage: what a table mutation does *before* its transaction decides —
//! write data files, build the next commit + snapshot, lay them down as
//! MVCC write intents. `publish.rs` reads them back after the decision.

use super::scan::{file_may_match, partitions_for_predicate};
use super::{CommitInfo, StagedTableCommit, TableStore};
use crate::catalog::TableProfile;
use crate::meta::{Commit, DataFileMeta, Snapshot};
use crate::metacache::MetadataMode;
use common::clock::Nanos;
use common::ctx::IoCtx;
use common::{Bytes, Error, Result};
use format::{ColumnStats, Expr, LakeFileReader, LakeFileWriter, Row};
use kvstore::keys;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

impl TableStore {
    /// INSERT: write rows as partitioned data files and commit.
    pub fn insert(&self, name: &str, rows: &[Row], ctx: &IoCtx) -> Result<CommitInfo> {
        let (added, t) = self.write_rows(name, rows, ctx)?;
        self.commit(name, &added, &[], &ctx.at(t))
    }

    /// Stage an INSERT inside an existing MVCC transaction: write the
    /// partitioned data files, then stage their commit as `txn`'s write
    /// intents. The rows become visible only when the transaction decides
    /// and is rolled forward; the receipt lists the files, for
    /// [`discard`](Self::discard) should it be given up instead. A stage
    /// that fails discards its files itself.
    pub fn stage_insert(
        &self,
        txn: u64,
        name: &str,
        rows: &[Row],
        ctx: &IoCtx,
    ) -> Result<StagedTableCommit> {
        let (added, t) = self.write_rows(name, rows, ctx)?;
        match self.stage_commit(txn, name, &added, &[], &ctx.at(t)) {
            Ok(staged) => Ok(StagedTableCommit { files: added, ..staged }),
            Err(e) => {
                self.discard(&added);
                Err(e)
            }
        }
    }

    /// DELETE: remove matching rows. Files whose rows all match are dropped
    /// by metadata only; partially-matching files are rewritten.
    pub fn delete(&self, name: &str, predicate: &Expr, ctx: &IoCtx) -> Result<CommitInfo> {
        self.transform(name, predicate, &|_row: &Row| None, ctx)
    }

    /// UPDATE with a computed transform: rewrite every row matching
    /// `predicate` through `f` (`None` deletes the row) — the general form
    /// behind DELETE, UPDATE and ETL-style in-place jobs. Every file that
    /// may contain matches is dropped wholesale (all rows match and `f`
    /// deletes), rewritten, or left untouched.
    pub fn transform(
        &self,
        name: &str,
        predicate: &Expr,
        f: &dyn Fn(&Row) -> Option<Row>,
        ctx: &IoCtx,
    ) -> Result<CommitInfo> {
        let profile = self.catalog.get(name)?;
        if profile.current_snapshot == 0 {
            return Err(Error::NotFound(format!("table {name} is empty")));
        }
        let partitions = partitions_for_predicate(&profile, predicate);
        let (files, mut t) = self.current_live_files(&profile, partitions.as_deref(), ctx)?;
        let mut removed = Vec::new();
        let mut added: Vec<(String, Vec<Row>)> = Vec::new();
        for file in &files {
            if !file_may_match(&profile.schema, file, predicate) {
                continue; // data skipping: untouched
            }
            let (reader, tr) = self.open_data_file(&file.path, &ctx.at(t))?;
            t = tr;
            // The selection first: a file with no matching row builds no rows.
            let mut hits = Vec::new();
            reader.scan_batches(predicate, Some(&[]), |b| {
                hits.push(b);
                Ok(())
            })?;
            if hits.is_empty() {
                continue;
            }
            let mut hits = hits.into_iter().peekable();
            let mut out_rows = Vec::new();
            reader.scan_batches(&Expr::True, None, |group| {
                let hit = hits.next_if(|h| h.group == group.group).map(|h| h.selection);
                for i in group.selection.iter() {
                    let row = group.row(i);
                    match &hit {
                        Some(sel) if sel.contains(i) => out_rows.extend(f(&row)),
                        _ => out_rows.push(row),
                    }
                }
                Ok(())
            })?;
            removed.push(file.path.clone());
            if !out_rows.is_empty() {
                added.push((file.partition.clone(), out_rows));
            }
        }
        if removed.is_empty() {
            // nothing matched: an empty commit is a no-op snapshot
            return self.commit(name, &[], &[], &ctx.at(t));
        }
        self.commit_replace(name, profile.current_snapshot, removed, added, &ctx.at(t))
    }

    /// Replace-commit used by compaction: atomically swap `removed` paths
    /// for `added_rows` files, validating against `base_snapshot`.
    ///
    /// Fails with [`Error::Conflict`] when a commit after `base_snapshot`
    /// touched any of the partitions being rewritten — the
    /// compaction-vs-ingestion conflict LakeBrain's reward models (§VI-A).
    /// Conflicts at decide time propagate too (compaction retries from a
    /// fresh base).
    pub fn commit_replace(
        &self,
        name: &str,
        base_snapshot: u64,
        removed: Vec<String>,
        added: Vec<(String, Vec<Row>)>,
        ctx: &IoCtx,
    ) -> Result<CommitInfo> {
        let profile = self.catalog.get(name)?;
        let mut written = Vec::new();
        let staged = self.with_txn(|txn| {
            // Re-read the head inside the transaction.
            if self.catalog.get(name)?.current_snapshot != base_snapshot {
                // Concurrent commits happened; conflict when they removed any
                // of the files we are replacing. Each liveness probe is an MVCC
                // read of the file's `lake/live/` key, so it both answers
                // "still live?" and registers the dependency for OCC
                // validation at decide time.
                for path in &removed {
                    if self.mvcc.get(txn, &keys::lake_live(name, path))?.is_none() {
                        return Err(Error::Conflict(format!(
                            "compaction base snapshot {base_snapshot} is stale: a concurrent \
                             commit removed one of the input files"
                        )));
                    }
                }
            }
            let groups = added.iter().map(|(p, rows)| (p.clone(), rows.iter().collect()));
            let (added, t) = self.write_files(&profile, groups, ctx)?;
            written = added;
            self.stage_commit(txn, name, &written, &removed, &ctx.at(t))?;
            Ok(t)
        });
        // A losing replace never publishes the files it wrote.
        let (txn, t) = staged.inspect_err(|_| self.discard(&written))?;
        self.roll_forward_commit(txn, &ctx.at(t))
    }

    /// Run `stage` in a fresh MVCC transaction and decide it. A staging
    /// error aborts the transaction (a decide-time conflict aborts itself),
    /// so no path leaks intents. Returns the decided transaction, for the
    /// caller to roll forward, and what `stage` produced.
    pub(super) fn with_txn<T>(&self, stage: impl FnOnce(u64) -> Result<T>) -> Result<(u64, T)> {
        let txn = self.mvcc.begin().id;
        match stage(txn) {
            Ok(out) => {
                self.mvcc.commit_decide(txn)?;
                Ok((txn, out))
            }
            Err(e) => {
                self.mvcc.abort(txn)?;
                Err(e)
            }
        }
    }

    fn commit(
        &self,
        name: &str,
        added: &[DataFileMeta],
        removed: &[String],
        ctx: &IoCtx,
    ) -> Result<CommitInfo> {
        const ATTEMPTS: usize = 8;
        let mut attempt = 0;
        loop {
            attempt += 1;
            match self.with_txn(|txn| self.stage_commit(txn, name, added, removed, ctx)) {
                Ok((txn, _)) => return self.roll_forward_commit(txn, ctx),
                // raced another writer: restage on the new head
                Err(Error::Conflict(_)) if attempt < ATTEMPTS => continue,
                // given up: the inserted files will never be published
                Err(e) => {
                    self.discard(added);
                    return Err(e);
                }
            }
        }
    }

    /// Roll forward a transaction that staged exactly one table commit.
    fn roll_forward_commit(&self, txn: u64, ctx: &IoCtx) -> Result<CommitInfo> {
        self.roll_forward(txn, ctx)?
            .pop()
            .ok_or_else(|| Error::Corruption(format!("decided txn {txn} carried no table commit")))
    }

    /// Build the next commit + snapshot of `name` and lay them down as
    /// write intents of `txn` (head, commit and live-file keys). Nothing
    /// is visible until the transaction decides and
    /// [`publish`](Self::publish) reads the intents back.
    ///
    /// The head read registers an OCC dependency: a commit that advances
    /// the table head after this stage forces `commit_decide` into
    /// [`Error::Conflict`]; a concurrently *staging* writer collides on
    /// the head intent immediately.
    pub(crate) fn stage_commit(
        &self,
        txn: u64,
        name: &str,
        added: &[DataFileMeta],
        removed: &[String],
        ctx: &IoCtx,
    ) -> Result<StagedTableCommit> {
        let profile = self.catalog.get(name)?;
        // Register the read-write dependency on the table head.
        self.mvcc.get(txn, &keys::lake_head(name))?;
        let parent = profile.current_snapshot;
        let new_id = parent + 1;
        let base = if parent == 0 {
            new_id
        } else {
            self.meta
                .get_snapshot(name, parent, MetadataMode::Accelerated, ctx)?
                .0
                .base
        };
        let commit = Commit {
            id: new_id,
            timestamp: ctx.now,
            added: added.to_vec(),
            removed: removed.to_vec(),
        };
        let snapshot = Snapshot { id: new_id, base, timestamp: ctx.now };
        self.mvcc
            .put(txn, &keys::lake_commit(name, new_id), &commit.encode())?;
        self.mvcc.put(txn, &keys::lake_head(name), &snapshot.encode())?;
        for f in added {
            let mut buf = Vec::with_capacity(64);
            f.encode(&mut buf);
            self.mvcc.put(txn, &keys::lake_live(name, &f.path), &buf)?;
        }
        for path in removed {
            self.mvcc.delete(txn, &keys::lake_live(name, path))?;
        }
        Ok(StagedTableCommit { table: name.to_string(), files: Vec::new() })
    }

    /// The file-writing body shared by `insert` and `stage_insert`.
    fn write_rows(
        &self,
        name: &str,
        rows: &[Row],
        ctx: &IoCtx,
    ) -> Result<(Vec<DataFileMeta>, Nanos)> {
        let profile = self.catalog.get(name)?;
        if rows.is_empty() {
            return Err(Error::InvalidArgument("insert of zero rows".into()));
        }
        self.write_files(&profile, self.partition_rows(&profile, rows)?, ctx)
    }

    /// Write one data file per `(partition, rows)` group, back to back. A
    /// failure discards the files written before it.
    fn write_files<'r>(
        &self,
        profile: &TableProfile,
        groups: impl IntoIterator<Item = (String, Vec<&'r Row>)>,
        ctx: &IoCtx,
    ) -> Result<(Vec<DataFileMeta>, Nanos)> {
        let mut added = Vec::new();
        let mut t = ctx.now;
        for (partition, rows) in groups {
            let (meta, tw) = self
                .write_data_file(profile, &partition, &rows, &ctx.at(t))
                .inspect_err(|_| self.discard(&added))?;
            t = tw;
            added.push(meta);
        }
        Ok((added, t))
    }

    /// Group borrowed `rows` by partition value (one unnamed group for an
    /// unpartitioned table).
    fn partition_rows<'r>(
        &self,
        profile: &TableProfile,
        rows: &'r [Row],
    ) -> Result<BTreeMap<String, Vec<&'r Row>>> {
        let Some(spec) = &profile.partition else {
            return Ok(BTreeMap::from([(String::new(), rows.iter().collect())]));
        };
        let col = profile.schema.index_of(&spec.column)?;
        let mut groups: BTreeMap<String, Vec<&Row>> = BTreeMap::new();
        for row in rows {
            if row.len() != profile.schema.width() {
                return Err(Error::InvalidArgument("row width mismatch".into()));
            }
            groups.entry(spec.partition_value(&row[col])?).or_default().push(row);
        }
        Ok(groups)
    }

    fn write_data_file(
        &self,
        profile: &TableProfile,
        partition: &str,
        rows: &[&Row],
        ctx: &IoCtx,
    ) -> Result<(DataFileMeta, Nanos)> {
        let file_id = self.next_file_id.fetch_add(1, Ordering::Relaxed);
        let path = format!("data/{partition}/{file_id:010}.lake");
        let writer = LakeFileWriter::new(
            profile.schema.clone(),
            profile.target_file_rows.clamp(1, 8192) as usize,
        )?;
        // One image: the reader that re-reads its footer stats and the PLog
        // append share it.
        let image = Bytes::from_vec(writer.encode_rows(rows)?);
        let stats: Vec<ColumnStats> = LakeFileReader::open(image.clone())?
            .file_stats()
            .ok_or_else(|| Error::InvalidArgument("cannot write empty data file".into()))?;
        let bytes = image.len() as u64;
        let (addr, t) = self
            .plog
            .append_to_shard_at(self.plog.shard_of(path.as_bytes()), image, ctx)?;
        // Paths embed unique file ids and start `data/` (cache entries start
        // `meta/`), so `addr/` + path is a safe, collision-free key.
        self.meta.set_address(path.as_bytes(), &addr);
        Ok((
            DataFileMeta {
                path,
                partition: partition.to_string(),
                record_count: rows.len() as u64,
                bytes,
                stats,
            },
            t,
        ))
    }
}
