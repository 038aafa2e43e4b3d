//! Publish: what happens to table metadata *after* a transaction decided.
//! [`TableStore::publish`] is the only code that writes a commit or snapshot
//! into the metadata cache for a decided transaction; its sole input is the
//! transaction's surviving intents, so live commits, `Transaction::resolve`
//! and crash recovery publish identically. Its mirror,
//! [`TableStore::discard`], reclaims the data files of a stage that will
//! never be published. Snapshot expiry — the one operation that rewrites
//! published history — lives here too.

use super::{
    head_key, CommitInfo, TableStore, COMMIT_KEY_PREFIX, COMMIT_OVERHEAD, LIVE_KEY_PREFIX,
};
use crate::catalog::TableProfile;
use crate::maintenance::ExpiryReport;
use crate::meta::{Commit, DataFileMeta, Snapshot};
use crate::metacache::MetadataMode;
use common::clock::Nanos;
use common::ctx::{IoCtx, Phase};
use common::{Error, Result};
use std::collections::BTreeMap;

impl TableStore {
    /// Publish every table commit among a decided transaction's surviving
    /// intents (`writes`, from [`kvstore::MvccStore::decided_writes`]):
    /// commit → snapshot through the acceleration cache, then the catalog
    /// head swing; one [`CommitInfo`] per table, in table-name order. A
    /// `lake/commit/` intent carries the commit body, the table's
    /// `lake/head/` intent its snapshot; `lake/live/` intents have no side
    /// effect (the live index derives from commits) and a head written
    /// without a commit (drop, expiry) publishes nothing. Idempotent —
    /// recovery may replay it.
    pub fn publish(
        &self,
        writes: &[(Vec<u8>, Option<Vec<u8>>)],
        ctx: &IoCtx,
    ) -> Result<Vec<CommitInfo>> {
        let mut infos = Vec::new();
        for (key, value) in writes {
            let (Some(rest), Some(body)) = (key.strip_prefix(COMMIT_KEY_PREFIX.as_bytes()), value)
            else {
                continue;
            };
            let (name, _) = std::str::from_utf8(rest)
                .ok()
                .and_then(|r| r.rsplit_once('/'))
                .ok_or_else(|| Error::Corruption("malformed lake commit key".into()))?;
            // The table's head intent carries the snapshot the commit
            // publishes.
            let head = head_key(name);
            let snapshot = writes
                .iter()
                .find(|(k, _)| *k == head)
                .and_then(|(_, v)| v.as_deref())
                .ok_or_else(|| {
                    Error::Corruption(format!("commit of {name} decided without its head"))
                })?;
            let snapshot = Snapshot::decode(snapshot)?;
            let id = snapshot.id;
            let commit = Commit::decode(body)?;
            let t1 = self.meta.put_commit(name, &commit, ctx)?;
            let t2 = self.meta.put_snapshot(name, &snapshot, &ctx.at(t1))?;
            let mut profile = self.catalog.get_any(name)?;
            if profile.current_snapshot < id {
                profile.current_snapshot = id;
                profile.modified_at = ctx.now;
                self.catalog.update(&profile);
            }
            // The fixed coordination cost is metadata work: OCC validation,
            // catalog CAS, snapshot publication.
            ctx.record(Phase::Meta, t2, COMMIT_OVERHEAD);
            infos.push(CommitInfo {
                snapshot_id: id,
                files_added: commit.added.len() as u64,
                files_removed: commit.removed.len() as u64,
                finished_at: t2 + COMMIT_OVERHEAD,
            });
        }
        Ok(infos)
    }

    /// Roll one of this store's own decided transactions forward: publish,
    /// then resolve. (A coordinator whose transaction also has stream
    /// participants flips those between the same two steps.)
    pub(super) fn roll_forward(&self, txn: u64, ctx: &IoCtx) -> Result<Vec<CommitInfo>> {
        let infos = self.publish(&self.mvcc.decided_writes(txn)?, ctx)?;
        self.mvcc.resolve_committed(txn)?;
        Ok(infos)
    }

    /// Give up a stage: reclaim every data file it wrote (PLog record and
    /// address entry) — the mirror of [`publish`](Self::publish) for a
    /// transaction that will never decide committed. Call it after the
    /// stage's intents are gone; it never replaces a write, so virtual time
    /// is untouched. Best effort: a record that cannot be freed is left for
    /// scrub.
    pub fn discard(&self, files: &[DataFileMeta]) {
        for f in files {
            // slint:allow(R11): best-effort delete, orphan is scrub-reclaimed
            let _ = self.meta.reclaim(f.path.as_bytes());
        }
    }

    /// [`discard`](Self::discard) for a transaction known only by its
    /// surviving intents (a recovered orphan): the files its `lake/live/`
    /// puts name. A `lake/live/` delete names a file the table still owns.
    pub fn discard_intents(&self, writes: &[(Vec<u8>, Option<Vec<u8>>)]) {
        let files: Vec<DataFileMeta> = writes
            .iter()
            .filter(|(key, _)| key.starts_with(LIVE_KEY_PREFIX.as_bytes()))
            .filter_map(|(_, value)| DataFileMeta::decode_entry(value.as_deref()?).ok())
            .collect();
        self.discard(&files);
    }

    /// Expire snapshots whose timestamp is older than `retain_after`,
    /// keeping at least the current snapshot.
    ///
    /// §IV-B: "Snapshots also monitor the expiration of all commits … By
    /// keeping old commits and snapshots, table objects use a timestamp to
    /// look up the corresponding snapshot." Expiration is the other half of
    /// that design: old versions are reachable *until* retention lapses,
    /// after which the files only they referenced are physically reclaimed.
    ///
    /// The oldest retained snapshot is *squashed*: its commit prefix is
    /// replaced by one synthetic base commit holding its live file set, so
    /// expired commit files can be dropped; data files referenced only by
    /// expired snapshots are physically reclaimed from the PLog.
    pub fn expire_snapshots(
        &self,
        name: &str,
        retain_after: Nanos,
        ctx: &IoCtx,
    ) -> Result<ExpiryReport> {
        let profile = self.catalog.get(name)?;
        if profile.current_snapshot == 0 {
            return Ok(ExpiryReport::default());
        }
        // Serialize against writers by taking a write intent on the table
        // head: a concurrent commit stages the same key, so one of the two
        // surfaces `Error::Conflict` instead of interleaving metadata
        // rewrites with a commit.
        let (txn, report) = self.with_txn(|txn| {
            let head = self.mvcc.get(txn, &head_key(name))?;
            self.mvcc.write(txn, &head_key(name), head.as_deref())?;
            let report = self.expire_body(name, retain_after, &profile, ctx)?;
            if report.snapshots_expired > 0 {
                // The squash moved the current snapshot's base; refresh the
                // head intent so MVCC readers see the post-expiry shape once
                // this transaction resolves.
                let id = profile.current_snapshot;
                let (snap, _) = self.meta.get_snapshot(name, id, MetadataMode::Accelerated, ctx)?;
                self.mvcc.put(txn, &head_key(name), &snap.encode())?;
            }
            Ok(report)
        })?;
        self.roll_forward(txn, ctx)?;
        Ok(report)
    }

    fn expire_body(
        &self,
        name: &str,
        retain_after: Nanos,
        profile: &TableProfile,
        ctx: &IoCtx,
    ) -> Result<ExpiryReport> {
        let mut report = ExpiryReport::default();
        let mode = MetadataMode::Accelerated;
        // Walk the chain newest → oldest, splitting retained vs expired.
        // Everything below the first expired snapshot expires too, so the
        // retained ids stay one contiguous range — what the rebased
        // `base..=id` commit ranges below require.
        let mut retained: Vec<Snapshot> = Vec::new();
        let mut expired: Vec<Snapshot> = Vec::new();
        let mut cursor = Some(profile.current_snapshot);
        while let Some(id) = cursor {
            let (snap, _) = self.meta.get_snapshot(name, id, mode, ctx)?;
            cursor = snap.parent();
            if expired.is_empty() && (retained.is_empty() || snap.timestamp >= retain_after) {
                retained.push(snap);
            } else {
                expired.push(snap);
            }
        }
        if expired.is_empty() {
            return Ok(report);
        }
        // Live file sets: everything a retained snapshot can still reach
        // stays; files only expired snapshots reference are reclaimed.
        let mut keep: BTreeMap<String, DataFileMeta> = BTreeMap::new();
        let mut retained_live: Vec<Vec<DataFileMeta>> = Vec::new();
        for snap in &retained {
            let (files, _) = self.meta.replay_commits(name, snap, None, mode, ctx)?;
            for f in &files {
                keep.insert(f.path.clone(), f.clone());
            }
            retained_live.push(files);
        }
        // BTreeMap so physical reclamation happens in path order — the
        // report and the PLog delete sequence are deterministic.
        let mut drop_candidates: BTreeMap<String, DataFileMeta> = BTreeMap::new();
        for snap in &expired {
            let (files, _) = self.meta.replay_commits(name, snap, None, mode, ctx)?;
            for f in files {
                if !keep.contains_key(&f.path) {
                    drop_candidates.insert(f.path.clone(), f);
                }
            }
        }
        for (path, meta) in &drop_candidates {
            if self.meta.reclaim(path.as_bytes()).is_err() {
                report.reclaim_failures += 1;
            }
            report.files_deleted += 1;
            report.bytes_reclaimed += meta.bytes;
        }
        // Squash the oldest retained snapshot onto a synthetic base commit.
        // `retained` is non-empty by construction (the current snapshot is
        // always kept), but corrupt metadata must surface as an error, not
        // a panic.
        let oldest = *retained
            .last()
            .ok_or_else(|| Error::Corruption("expiry retained no snapshot".into()))?;
        let oldest_live = retained_live
            .last()
            .ok_or_else(|| Error::Corruption("expiry lost the retained live set".into()))?
            .clone();
        let base_commit = Commit {
            id: oldest.id,
            timestamp: oldest.timestamp,
            added: oldest_live,
            removed: Vec::new(),
        };
        self.meta.invalidate_persisted(name, oldest.id);
        self.meta.rewrite_commit(name, &base_commit);
        // Rebase retained snapshots onto the squashed base commit.
        for snap in &retained {
            if snap.base != oldest.id {
                self.meta.invalidate_persisted(name, snap.id);
                self.meta.put_snapshot(name, &Snapshot { base: oldest.id, ..*snap }, ctx)?;
            }
        }
        // Finally drop the expired snapshots and their exclusive commits.
        for snap in &expired {
            self.meta.remove_snapshot(name, snap.id);
            self.meta.remove_commit(name, snap.id);
            report.snapshots_expired += 1;
        }
        Ok(report)
    }
}
