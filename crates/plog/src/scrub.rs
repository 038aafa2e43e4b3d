//! The self-healing scrub service.
//!
//! Replicated bytes rot silently: a checksum is only worth as much as the
//! frequency with which somebody recomputes it. The scrubber walks every
//! indexed PLog record on Maintenance-QoS virtual-time cycles, verifies
//! each stored shard against the CRC32s in the index entry, rewrites
//! checksum-failed shards in place, and re-encodes records whose devices
//! died — so latent damage is found and repaired before a second fault
//! turns it into data loss.

use crate::store::{PlogStore, RecordHealth};
use common::chore::{Chore, TickReport};
use common::clock::Nanos;
use common::ctx::{IoCtx, QosClass};
use common::metrics::Metrics;
use common::{Error, Result};
use std::sync::Arc;

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
/// Keeps no scan state: all verification and repair is delegated to
/// [`PlogStore::verify_and_heal`], so scrub repairs carry the same
/// delete-race guarantees as foreground repair.
#[derive(Debug)]
pub struct ScrubService {
    store: Arc<PlogStore>,
    metrics: Metrics,
}

impl ScrubService {
    /// A scrubber whose every cycle walks the whole index.
    pub fn new(store: Arc<PlogStore>) -> Self {
        let metrics = store.metrics().clone();
        ScrubService { store, metrics }
    }

    /// Run one scrub cycle over the whole index, starting at `ctx.now`.
    /// Records appended mid-cycle wait for the next one. QoS is forced to
    /// Maintenance regardless of what the caller's `ctx` carries: scrub
    /// I/O must never contend in a foreground lane.
    pub fn run_cycle(&self, ctx: &IoCtx) -> Result<ScrubReport> {
        let ctx = ctx.clone().with_qos(QosClass::Maintenance).without_deadline();
        let mut report = ScrubReport { finished_at: ctx.now, ..Default::default() };
        for addr in &self.store.addresses() {
            report.records_scanned += 1;
            match self.store.verify_and_heal(addr, &ctx.at(report.finished_at)) {
                Ok(h) => report.absorb(&h),
                // Deleted between the index scan and the read: not damage.
                Err(Error::NotFound(_)) => {}
                Err(_) => report.records_unreadable += 1,
            }
        }
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
        let mut t = ctx.now;
        for _ in 0..max_cycles {
            let report = self.run_cycle(&ctx.at(t))?;
            t = report.finished_at.max(t);
            let done = report.is_clean()
                && report.records_scanned >= self.store.record_count() as u64;
            reports.push(report);
            if done {
                break;
            }
        }
        Ok(reports)
    }
}

impl Chore for ScrubService {
    fn name(&self) -> &'static str {
        "scrub"
    }

    /// One full scrub cycle; `work_done` counts the records scanned.
    fn tick(&self, ctx: &IoCtx) -> Result<TickReport> {
        let report = self.run_cycle(ctx)?;
        Ok(TickReport {
            work_done: report.records_scanned,
            backlog_hint: 0,
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
