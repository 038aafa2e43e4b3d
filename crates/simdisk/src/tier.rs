//! The tiering service from StreamLake's data-service layer.
//!
//! "The tiering service offers static and dynamic data migration and
//! eviction between the SSD and HDD storage pools based on tiering
//! policies, which saves a lot of storage costs." (§III)
//!
//! New extents land in the SSD pool; a policy run demotes extents whose
//! last access is older than the configured threshold to the HDD pool.
//! Reads from the HDD tier optionally promote extents back (dynamic
//! tiering).

use crate::pool::{ExtentHandle, StoragePool};
use common::chore::{Chore, TickReport};
use common::clock::Nanos;
use common::ctx::IoCtx;
use common::{Bytes, Error, Result, SimClock};
use std::collections::BTreeMap;
use std::sync::Arc;
use common::lockwitness::TrackedMutex;

/// Which pool an extent currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The hot (SSD) pool.
    Hot,
    /// The cold (HDD) pool.
    Cold,
}

#[derive(Debug)]
struct TieredExtent {
    handle: ExtentHandle,
    tier: Tier,
    last_access: Nanos,
    bytes: u64,
}

/// Outcome of one policy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Extents demoted to the cold pool.
    pub demoted: usize,
    /// Bytes moved to the cold pool.
    pub bytes_demoted: u64,
    /// Physical bytes reclaimed from the hot pool by the demotions (the
    /// per-device space actually freed, as reported by extent deletion —
    /// with redundancy this exceeds the logical `bytes_demoted`).
    pub bytes_reclaimed: u64,
}

/// SSD↔HDD tiering with an idle-age demotion policy.
#[derive(Debug)]
pub struct TieringService {
    hot: Arc<StoragePool>,
    cold: Arc<StoragePool>,
    clock: SimClock,
    /// Extents idle longer than this are demoted on a policy run.
    demote_after: Nanos,
    /// Whether cold reads promote the extent back to the hot tier.
    promote_on_read: bool,
    /// Keyed by extent id; a `BTreeMap` so policy runs visit extents in a
    /// deterministic order (demotion order must not depend on hash state).
    extents: TrackedMutex<BTreeMap<u64, TieredExtent>>,
}

impl TieringService {
    /// Create a tiering service over the given hot and cold pools.
    pub fn new(
        hot: Arc<StoragePool>,
        cold: Arc<StoragePool>,
        clock: SimClock,
        demote_after: Nanos,
        promote_on_read: bool,
    ) -> Self {
        TieringService {
            hot,
            cold,
            clock,
            demote_after,
            promote_on_read,
            extents: TrackedMutex::new("simdisk.tier.extents", BTreeMap::new()),
        }
    }

    /// Write sharded data under `key`; new data always lands hot.
    pub fn write(&self, key: u64, shards: &[Bytes]) -> Result<()> {
        let handle = self.on_shared_timeline(|ctx| self.hot.write_shards_ctx(shards, ctx))?;
        let bytes = shards.iter().map(|s| s.len() as u64).sum();
        let mut map = self.extents.lock();
        if let Some(old) = map.insert(
            key,
            TieredExtent { handle, tier: Tier::Hot, last_access: self.clock.now(), bytes },
        ) {
            // Overwrite: free the previous copy wherever it lived.
            self.pool_for(old.tier).delete(&old.handle);
        }
        Ok(())
    }

    /// Read all shards of `key`, refreshing its access time.
    pub fn read(&self, key: u64) -> Result<Vec<Option<Bytes>>> {
        let mut map = self.extents.lock();
        let ext = map
            .get_mut(&key)
            .ok_or_else(|| Error::NotFound(format!("tiered extent {key}")))?;
        ext.last_access = self.clock.now();
        let shards = self.on_shared_timeline(|ctx| self.pool_for(ext.tier).read_shards_ctx(&ext.handle, ctx))?;
        if ext.tier == Tier::Cold && self.promote_on_read {
            if let Some(full) = Self::all_present(&shards) {
                let new_handle = self.on_shared_timeline(|ctx| self.hot.write_shards_ctx(&full, ctx))?;
                self.cold.delete(&ext.handle);
                ext.handle = new_handle;
                ext.tier = Tier::Hot;
            }
        }
        Ok(shards)
    }

    /// Delete `key` from whichever tier holds it, returning the physical
    /// bytes reclaimed (0 if the key was absent).
    pub fn delete(&self, key: u64) -> u64 {
        match self.extents.lock().remove(&key) {
            Some(ext) => self.pool_for(ext.tier).delete(&ext.handle),
            None => 0,
        }
    }

    /// Current tier of `key`, if present.
    pub fn tier_of(&self, key: u64) -> Option<Tier> {
        self.extents.lock().get(&key).map(|e| e.tier)
    }

    /// Run the demotion policy at virtual time `now`: move every hot extent
    /// idle past the threshold to the cold pool, in key order. An extent
    /// that cannot move (degraded, or the cold pool is full) stays hot and
    /// eligible.
    pub fn run_policy(&self, now: Nanos) -> MigrationReport {
        let mut report = MigrationReport::default();
        let mut map = self.extents.lock();
        for ext in map.values_mut() {
            if ext.tier != Tier::Hot || now.saturating_sub(ext.last_access) < self.demote_after {
                continue;
            }
            let Some(full) = self
                .on_shared_timeline(|ctx| self.hot.read_shards_ctx(&ext.handle, ctx))
                .ok()
                .and_then(|shards| Self::all_present(&shards))
            else {
                continue; // degraded extent: leave for repair, not migration
            };
            match self.on_shared_timeline(|ctx| self.cold.write_shards_ctx(&full, ctx)) {
                Ok(new_handle) => {
                    report.bytes_reclaimed += self.hot.delete(&ext.handle);
                    ext.handle = new_handle;
                    ext.tier = Tier::Cold;
                    report.demoted += 1;
                    report.bytes_demoted += ext.bytes;
                }
                Err(_) => continue, // cold pool full; try again next run
            }
        }
        report
    }

    /// Earliest future time at which some hot extent becomes eligible for
    /// demotion, given no further accesses. `None` when nothing is hot.
    fn next_demotion_due(&self, now: Nanos) -> Option<Nanos> {
        self.extents
            .lock()
            .values()
            .filter(|e| e.tier == Tier::Hot)
            .map(|e| (e.last_access + self.demote_after).max(now))
            .min()
    }

    /// Blended storage cost of all extents (bytes × per-byte media cost),
    /// the quantity tiering minimizes.
    pub fn storage_cost(&self) -> f64 {
        let map = self.extents.lock();
        map.values()
            .map(|e| e.bytes as f64 * self.pool_for(e.tier).kind().cost_per_byte())
            .sum()
    }

    /// Tiering I/O runs on the shared timeline, whatever ctx the chore
    /// runtime ticked it with: `op` gets a foreground-lane ctx minted at the
    /// clock's current instant, and the clock is advanced to its finish.
    fn on_shared_timeline<T>(&self, op: impl FnOnce(&IoCtx) -> Result<(T, Nanos)>) -> Result<T> {
        // slint:allow(R10): known follow-up (DESIGN.md, request context): tiering ignores its chore ctx
        let (out, finish) = op(&IoCtx::new(self.clock.now()))?;
        self.clock.advance_to(finish);
        Ok(out)
    }

    fn pool_for(&self, tier: Tier) -> &StoragePool {
        match tier {
            Tier::Hot => &self.hot,
            Tier::Cold => &self.cold,
        }
    }

    /// All shard handles, or `None` if any is missing. Clones are
    /// refcounted, so promotion/demotion rewrites move handles, not bytes.
    fn all_present(shards: &[Option<Bytes>]) -> Option<Vec<Bytes>> {
        shards.iter().cloned().collect()
    }
}

impl Chore for TieringService {
    fn name(&self) -> &'static str {
        "tiering"
    }

    /// One demotion pass at `ctx.now`. `work_done` counts extents demoted;
    /// `next_due` is the earliest future demotion eligibility so an idle
    /// tier does not get polled at the base period. An eligible extent the
    /// pass had to leave behind is due now, so it makes the chore come back
    /// one period later rather than on the next nanosecond.
    fn tick(&self, ctx: &IoCtx) -> Result<TickReport> {
        let report = self.run_policy(ctx.now);
        Ok(TickReport {
            work_done: report.demoted as u64,
            backlog_hint: 0,
            next_due: self.next_demotion_due(ctx.now).filter(|&due| due > ctx.now),
            finished_at: ctx.now,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MediaKind;
    use common::clock::secs;
    use common::size::MIB;

    fn service(promote: bool) -> (TieringService, SimClock) {
        let clock = SimClock::new();
        let hot = Arc::new(StoragePool::new(
            "ssd",
            MediaKind::NvmeSsd,
            3,
            64 * MIB,
            clock.clone(),
        ));
        let cold = Arc::new(StoragePool::new(
            "hdd",
            MediaKind::SasHdd,
            3,
            256 * MIB,
            clock.clone(),
        ));
        (
            TieringService::new(hot, cold, clock.clone(), secs(60), promote),
            clock,
        )
    }

    #[test]
    fn fresh_writes_are_hot() {
        let (t, _) = service(false);
        t.write(1, &[Bytes::from_vec(b"abc".to_vec())]).unwrap();
        assert_eq!(t.tier_of(1), Some(Tier::Hot));
    }

    #[test]
    fn idle_extents_demote_and_recent_ones_stay() {
        let (t, clock) = service(false);
        t.write(1, &[Bytes::from_vec(b"old".to_vec())]).unwrap();
        clock.advance(secs(120));
        t.write(2, &[Bytes::from_vec(b"new".to_vec())]).unwrap();
        let report = t.run_policy(clock.now());
        assert_eq!(report.demoted, 1);
        assert_eq!(t.tier_of(1), Some(Tier::Cold));
        assert_eq!(t.tier_of(2), Some(Tier::Hot));
    }

    #[test]
    fn demoted_data_still_readable() {
        let (t, clock) = service(false);
        t.write(1, &[Bytes::from_vec(b"payload".to_vec())]).unwrap();
        clock.advance(secs(120));
        t.run_policy(clock.now());
        let shards = t.read(1).unwrap();
        assert_eq!(shards[0].as_deref(), Some(b"payload".as_ref()));
        assert_eq!(t.tier_of(1), Some(Tier::Cold), "no promotion when disabled");
    }

    #[test]
    fn cold_read_promotes_when_enabled() {
        let (t, clock) = service(true);
        t.write(1, &[Bytes::from_vec(b"hotagain".to_vec())]).unwrap();
        clock.advance(secs(120));
        t.run_policy(clock.now());
        assert_eq!(t.tier_of(1), Some(Tier::Cold));
        t.read(1).unwrap();
        assert_eq!(t.tier_of(1), Some(Tier::Hot));
    }

    #[test]
    fn recent_access_defers_demotion() {
        let (t, clock) = service(false);
        t.write(1, &[Bytes::from_vec(b"busy".to_vec())]).unwrap();
        clock.advance(secs(50));
        t.read(1).unwrap(); // refresh access time
        clock.advance(secs(50));
        assert_eq!(t.run_policy(clock.now()).demoted, 0);
    }

    #[test]
    fn tiering_reduces_storage_cost() {
        let (t, clock) = service(false);
        t.write(1, &[Bytes::from_vec(vec![0u8; 1024])]).unwrap();
        let hot_cost = t.storage_cost();
        clock.advance(secs(120));
        t.run_policy(clock.now());
        assert!(
            t.storage_cost() < hot_cost,
            "cold media must be cheaper per byte"
        );
    }

    #[test]
    fn delete_removes_from_either_tier() {
        let (t, clock) = service(false);
        t.write(1, &[Bytes::from_vec(b"x".to_vec())]).unwrap();
        clock.advance(secs(120));
        t.run_policy(clock.now());
        t.delete(1);
        assert!(t.read(1).is_err());
        assert_eq!(t.tier_of(1), None);
    }

    #[test]
    fn delete_reports_freed_bytes() {
        let (t, _) = service(false);
        t.write(1, &[Bytes::from_vec(vec![7u8; 4096])]).unwrap();
        assert_eq!(t.delete(1), 4096);
        assert_eq!(t.delete(1), 0, "absent key frees nothing");
    }

    #[test]
    fn chore_tick_reports_next_due() {
        let (t, clock) = service(false);
        t.write(1, &[Bytes::from_vec(vec![1u8; 32])]).unwrap();
        t.write(2, &[Bytes::from_vec(vec![2u8; 32])]).unwrap();
        // Nothing eligible yet: idle tick, next_due = first eligibility.
        let r = t.tick(&IoCtx::new(clock.now())).unwrap();
        assert_eq!(r.work_done, 0);
        // Writes charge virtual time, so eligibility is 60s after each
        // extent's write instant, not exactly t=60s.
        let due = r.next_due.expect("hot extents imply a future demotion time");
        assert!(due >= secs(60) && due < secs(61), "due at {due}");
        clock.advance(secs(120));
        t.write(3, &[Bytes::from_vec(vec![3u8; 32])]).unwrap();
        let r = t.tick(&IoCtx::new(clock.now())).unwrap();
        assert_eq!(r.work_done, 2);
        let due = r.next_due.expect("the fresh extent is still hot");
        assert!(due >= clock.now() + secs(59), "due at {due}");
    }

    #[test]
    fn an_extent_left_behind_defers_to_the_scheduler_period() {
        let (t, clock) = service(false);
        t.write(1, &[Bytes::from_vec(vec![1u8; 32])]).unwrap();
        clock.advance(secs(120));
        for d in 0..3 {
            t.hot.device(d).fail();
        }
        let r = t.tick(&IoCtx::new(clock.now())).unwrap();
        assert_eq!(r.work_done, 0, "an unreadable hot extent cannot demote");
        assert_eq!(t.tier_of(1), Some(Tier::Hot));
        assert_eq!(r.next_due, None, "eligible-but-stuck comes back at the period");
    }

    #[test]
    fn overwrite_frees_previous_copy() {
        let (t, _) = service(false);
        t.write(1, &[Bytes::from_vec(vec![0u8; 4096])]).unwrap();
        t.write(1, &[Bytes::from_vec(vec![0u8; 16])]).unwrap();
        let shards = t.read(1).unwrap();
        assert_eq!(shards[0].as_ref().unwrap().len(), 16);
    }
}
