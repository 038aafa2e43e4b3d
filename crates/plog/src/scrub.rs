//! The self-healing scrub service.
//!
//! Replicated bytes rot silently: a checksum is only worth as much as the
//! frequency with which somebody recomputes it. The scrubber walks every
//! indexed PLog record on Maintenance-QoS virtual-time cycles, verifies
//! each stored shard against the CRC32s in the index entry, rewrites
//! checksum-failed shards in place, and re-encodes records whose devices
//! died — so latent damage is found and repaired before a second fault
//! turns it into data loss.
//!
//! Cycles are resumable: a bounded `cycle_budget` scans that many records
//! and parks a cursor, so maintenance work can be spread over many small
//! virtual-time slices instead of one monolithic pass.

use crate::store::{PlogAddress, PlogStore, RecordHealth};
use common::chore::{Chore, ChoreBudget, TickReport};
use common::clock::Nanos;
use common::ctx::{IoCtx, QosClass};
use common::metrics::Metrics;
use common::{Error, Result};
use std::sync::Arc;
use common::lockwitness::TrackedMutex;

/// What one scrub cycle observed and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Records examined this cycle.
    pub records_scanned: u64,
    /// Shards read and checksum-verified.
    pub shards_verified: u64,
    /// Shards whose stored bytes failed verification.
    pub corruptions_detected: u64,
    /// Corrupt shards rewritten in place on their live device.
    pub shards_healed: u64,
    /// Records fully re-encoded onto healthy devices (missing shards).
    pub records_reencoded: u64,
    /// Records that could not be read at all (beyond fault tolerance).
    pub records_unreadable: u64,
    /// Virtual completion time of the cycle.
    pub finished_at: Nanos,
}

impl ScrubReport {
    /// A cycle that found nothing to fix and nothing it couldn't read.
    pub fn is_clean(&self) -> bool {
        self.corruptions_detected == 0
            && self.records_reencoded == 0
            && self.records_unreadable == 0
    }

    fn absorb(&mut self, h: &RecordHealth) {
        self.shards_verified += h.shards - h.missing;
        self.corruptions_detected += h.corrupt;
        self.shards_healed += h.healed_in_place;
        self.records_reencoded += u64::from(h.reencoded);
        self.finished_at = self.finished_at.max(h.finish);
    }
}

/// Background integrity scanner over a [`PlogStore`].
///
/// Owns only a cursor; all verification and repair is delegated to
/// [`PlogStore::verify_and_heal`], so scrub repairs carry the same
/// delete-race guarantees as foreground repair.
#[derive(Debug)]
pub struct ScrubService {
    store: Arc<PlogStore>,
    metrics: Metrics,
    cycle_budget: usize,
    /// Resume point: the (shard, offset) *after* the last scanned record.
    cursor: TrackedMutex<Option<(u32, u64)>>,
}

impl ScrubService {
    /// A scrubber whose every cycle walks the whole index.
    pub fn new(store: Arc<PlogStore>) -> Self {
        let metrics = store.metrics().clone();
        ScrubService { store, metrics, cycle_budget: usize::MAX, cursor: TrackedMutex::new("plog.scrub.cursor", None) }
    }

    /// Cap each cycle at `budget` records (minimum 1); the next cycle
    /// resumes where this one stopped.
    pub fn with_cycle_budget(mut self, budget: usize) -> Self {
        self.cycle_budget = budget.max(1);
        self
    }

    /// Run one scrub cycle starting at `ctx.now`. QoS is forced to
    /// Maintenance regardless of what the caller's `ctx` carries: scrub
    /// I/O must never contend in a foreground lane.
    pub fn run_cycle(&self, ctx: &IoCtx) -> Result<ScrubReport> {
        self.run_cycle_bounded(ctx, self.cycle_budget)
    }

    /// [`run_cycle`](Self::run_cycle) with the record cap further tightened
    /// to `max_records` (the chore runtime's per-tick op budget).
    fn run_cycle_bounded(&self, ctx: &IoCtx, max_records: usize) -> Result<ScrubReport> {
        let limit = self.cycle_budget.min(max_records).max(1);
        let ctx = ctx.clone().with_qos(QosClass::Maintenance).without_deadline();
        let addrs = self.scan_order();
        let mut report = ScrubReport { finished_at: ctx.now, ..Default::default() };
        let mut next_cursor = None;
        for (scanned, addr) in addrs.iter().enumerate() {
            if scanned >= limit {
                next_cursor = Some((addr.shard, addr.offset));
                break;
            }
            report.records_scanned += 1;
            match self.store.verify_and_heal(addr, &ctx.at(report.finished_at)) {
                Ok(h) => report.absorb(&h),
                // Deleted between the index scan and the read: not damage.
                Err(Error::NotFound(_)) => {}
                Err(_) => report.records_unreadable += 1,
            }
        }
        *self.cursor.lock() = next_cursor;
        self.metrics.incr("scrub.cycles", 1);
        self.metrics.incr("scrub.records_scanned", report.records_scanned);
        self.metrics.incr("scrub.corruptions_detected", report.corruptions_detected);
        self.metrics
            .incr("scrub.repairs", report.shards_healed + report.records_reencoded);
        Ok(report)
    }

    /// Run cycles back to back (each starting at the previous one's finish
    /// time) until a full index pass comes back clean or `max_cycles` is
    /// spent. Returns the reports in order; convergence holds iff the last
    /// report is clean and covered every record.
    pub fn run_to_convergence(&self, ctx: &IoCtx, max_cycles: usize) -> Result<Vec<ScrubReport>> {
        let mut reports = Vec::new();
        let mut clean_streak = 0u64;
        let mut t = ctx.now;
        for _ in 0..max_cycles {
            let report = self.run_cycle(&ctx.at(t))?;
            t = report.finished_at.max(t);
            clean_streak = if report.is_clean() { clean_streak + report.records_scanned } else { 0 };
            let done = clean_streak >= self.store.record_count() as u64
                && self.cursor.lock().is_none();
            reports.push(report);
            if done {
                break;
            }
        }
        Ok(reports)
    }

    /// The index in scan order, rotated so the parked cursor (if any) goes
    /// first. Records appended mid-cycle simply wait for the next pass.
    fn scan_order(&self) -> Vec<PlogAddress> {
        let mut addrs = self.store.addresses();
        if let Some((shard, offset)) = *self.cursor.lock() {
            let at = addrs
                .iter()
                .position(|a| (a.shard, a.offset) >= (shard, offset))
                .unwrap_or(0);
            addrs.rotate_left(at);
        }
        addrs
    }
}

impl Chore for ScrubService {
    fn name(&self) -> &'static str {
        "scrub"
    }

    /// One bounded scrub cycle: `budget.ops` caps the records scanned (on
    /// top of the service's own `cycle_budget`). `backlog_hint` is the
    /// index remainder when the cursor parked mid-pass, so the runtime can
    /// tell a finished sweep from a starved one.
    fn tick(&self, ctx: &IoCtx, budget: ChoreBudget) -> Result<TickReport> {
        let cap = usize::try_from(budget.ops).unwrap_or(usize::MAX);
        let report = self.run_cycle_bounded(ctx, cap)?;
        let backlog = if self.cursor.lock().is_some() {
            (self.store.record_count() as u64).saturating_sub(report.records_scanned)
        } else {
            0
        };
        Ok(TickReport {
            work_done: report.records_scanned,
            backlog_hint: backlog,
            next_due: None,
            finished_at: report.finished_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::{get, put};
    use crate::store::PlogConfig;
    use common::size::MIB;
    use common::SimClock;
    use ec::Redundancy;
    use simdisk::{MediaKind, StoragePool};

    fn store(redundancy: Redundancy, devices: usize) -> Arc<PlogStore> {
        let pool = Arc::new(StoragePool::new(
            "pool",
            MediaKind::NvmeSsd,
            devices,
            64 * MIB,
            SimClock::new(),
        ));
        Arc::new(
            PlogStore::new(
                pool,
                PlogConfig { shard_count: 8, redundancy, shard_capacity: 8 * MIB },
            )
            .unwrap(),
        )
    }

    #[test]
    fn clean_store_scrubs_clean() {
        let s = store(Redundancy::Replicate { copies: 3 }, 4);
        for i in 0..10u32 {
            put(&s, &i.to_be_bytes(), format!("record {i}").into_bytes()).unwrap();
        }
        let scrub = ScrubService::new(Arc::clone(&s));
        let report = scrub.run_cycle(&IoCtx::new(0)).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.records_scanned, 10);
        assert_eq!(report.shards_verified, 30);
        assert!(report.finished_at > 0, "scrub I/O must consume virtual time");
    }

    #[test]
    fn scrub_finds_and_heals_bit_rot() {
        let s = store(Redundancy::Replicate { copies: 3 }, 4);
        let mut addrs = Vec::new();
        for i in 0..6u32 {
            addrs.push(put(&s, &i.to_be_bytes(), format!("payload-{i}").into_bytes()).unwrap());
        }
        // Rot one byte on two distinct devices.
        s.pool_for_tests().device(0).corrupt_stored_byte(0, 3, 0x10).unwrap();
        s.pool_for_tests().device(2).corrupt_stored_byte(1, 4, 0x20).unwrap();
        let scrub = ScrubService::new(Arc::clone(&s));
        let reports = scrub.run_to_convergence(&IoCtx::new(0), 8).unwrap();
        let total_corrupt: u64 = reports.iter().map(|r| r.corruptions_detected).sum();
        let total_healed: u64 = reports.iter().map(|r| r.shards_healed).sum();
        assert_eq!(total_corrupt, 2);
        assert_eq!(total_healed, 2);
        assert!(reports.last().unwrap().is_clean(), "scrub must converge");
        for (i, addr) in addrs.iter().enumerate() {
            assert_eq!(get(&s, addr).unwrap(), format!("payload-{i}").as_bytes());
        }
        assert_eq!(s.metrics().counter("scrub.corruptions_detected"), 2);
        assert_eq!(s.metrics().counter("scrub.repairs"), 2);
    }

    #[test]
    fn scrub_reencodes_records_hit_by_device_death() {
        let s = store(Redundancy::ErasureCode { k: 2, m: 1 }, 5);
        for i in 0..4u32 {
            put(&s, &i.to_be_bytes(), vec![i as u8; 4000]).unwrap();
        }
        s.pool_for_tests().device(1).fail();
        let scrub = ScrubService::new(Arc::clone(&s));
        let reports = scrub.run_to_convergence(&IoCtx::new(0), 8).unwrap();
        let reencoded: u64 = reports.iter().map(|r| r.records_reencoded).sum();
        assert!(reencoded >= 1, "records on the dead device must be re-placed");
        assert!(reports.last().unwrap().is_clean());
        // Full redundancy restored: the dead device no longer matters.
        for addr in s.addresses() {
            assert_eq!(get(&s, &addr).unwrap().len(), 4000);
        }
    }

    #[test]
    fn bounded_cycles_cover_the_index_across_cycles() {
        let s = store(Redundancy::Replicate { copies: 2 }, 3);
        for i in 0..9u32 {
            put(&s, &i.to_be_bytes(), format!("r{i}").into_bytes()).unwrap();
        }
        let scrub = ScrubService::new(Arc::clone(&s)).with_cycle_budget(4);
        let mut scanned = 0;
        let mut t = 0;
        for _ in 0..3 {
            let r = scrub.run_cycle(&IoCtx::new(t)).unwrap();
            scanned += r.records_scanned;
            t = r.finished_at;
        }
        assert_eq!(scanned, 9 + 3, "three budget-4 cycles wrap past 9 records");
        assert_eq!(s.metrics().counter("scrub.cycles"), 3);
    }

    #[test]
    fn chore_tick_respects_the_op_budget_and_reports_backlog() {
        let s = store(Redundancy::Replicate { copies: 2 }, 3);
        for i in 0..10u32 {
            put(&s, &i.to_be_bytes(), format!("r{i}").into_bytes()).unwrap();
        }
        let scrub = ScrubService::new(Arc::clone(&s));
        let r = scrub.tick(&IoCtx::new(0), ChoreBudget::new(u64::MAX, 4)).unwrap();
        assert_eq!(r.work_done, 4);
        assert_eq!(r.backlog_hint, 6, "cursor parked with six records to go");
        let r2 = scrub
            .tick(&IoCtx::new(r.finished_at), ChoreBudget::UNLIMITED)
            .unwrap();
        assert_eq!(r2.work_done, 10, "full cycle resumes at the cursor and wraps the index");
        assert_eq!(r2.backlog_hint, 0);
    }

    #[test]
    fn unreadable_records_are_counted_not_fatal() {
        let s = store(Redundancy::Replicate { copies: 2 }, 3);
        put(&s, b"a", b"too many faults").unwrap();
        for d in 0..3 {
            s.pool_for_tests().device(d).fail();
        }
        let scrub = ScrubService::new(Arc::clone(&s));
        let report = scrub.run_cycle(&IoCtx::new(0)).unwrap();
        assert_eq!(report.records_unreadable, 1);
        assert!(!report.is_clean());
    }
}
