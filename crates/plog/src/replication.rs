//! The replication service (§III, data-service layer).
//!
//! "The replication service provides periodical replications to remote
//! sites for backup and recovery." A [`RemoteReplicator`] pairs a primary
//! [`PlogStore`] with a remote-site store; each `run` copies records
//! appended since the previous run over a WAN link, and
//! [`recover`](RemoteReplicator::recover) restores a record from the
//! remote copy when the primary has lost it beyond its redundancy margin.
//!
//! Remote appends that hit a transient device fault are retried with a
//! deterministic virtual-time backoff (doubling from
//! [`RETRY_BASE_BACKOFF`]). After [`MAX_RETRY_ATTEMPTS`] tries the loop
//! abandons the record and lets a later cycle pick it up.

use crate::store::{PlogAddress, PlogStore};
use common::chore::{Chore, TickReport};
use common::clock::{millis, Nanos};
use common::ctx::{IoCtx, Phase};
use common::{Error, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use common::lockwitness::TrackedMutex;

/// WAN throughput between sites (far below the local fabric).
pub(crate) const WAN_BYTES_PER_SEC: u64 = 100_000_000; // ~800 Mb/s

/// First retry backoff after a transient remote fault; doubles per attempt.
pub(crate) const RETRY_BASE_BACKOFF: Nanos = millis(1);

/// Attempts per record and cycle before the record is left to the next cycle.
pub(crate) const MAX_RETRY_ATTEMPTS: u32 = 5;

/// Report of one replication cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationReport {
    /// Records copied this cycle.
    pub records_copied: u64,
    /// Logical bytes shipped over the WAN.
    pub(crate) bytes_shipped: u64,
    /// Remote appends retried after transient faults.
    pub(crate) retries: u64,
    /// Records abandoned this cycle after exhausting the attempt budget.
    pub(crate) records_abandoned: u64,
    /// Index records scanned (decoded) this cycle. With the per-shard
    /// cursor a quiet cycle scans only what was appended since the last
    /// one — this is the observable for no-full-rescan assertions.
    pub(crate) records_scanned: u64,
    /// Virtual completion time of the cycle.
    pub finished_at: Nanos,
}

/// Where replication has read up to, per shard, plus the below-watermark
/// records still owed to the remote site.
#[derive(Debug, Default)]
struct ReplicationCursor {
    /// First primary offset per shard that no cycle has scanned yet.
    watermarks: BTreeMap<u32, u64>,
    /// Already-scanned addresses that still need shipping: abandoned after
    /// retry exhaustion, locally unreadable last cycle, or unprocessed when
    /// a cycle aborted on a terminal error. Revisited every cycle until
    /// shipped.
    pending: BTreeSet<PlogAddress>,
}

/// Periodic primary → remote-site replication.
#[derive(Debug)]
pub struct RemoteReplicator {
    primary: Arc<PlogStore>,
    remote: Arc<PlogStore>,
    /// primary address → remote address for everything already shipped.
    mapping: TrackedMutex<BTreeMap<PlogAddress, PlogAddress>>,
    /// Incremental scan state: quiet cycles are O(new records), not a full
    /// index walk.
    cursor: TrackedMutex<ReplicationCursor>,
}

impl RemoteReplicator {
    /// Pair `primary` with a `remote` site store.
    pub fn new(primary: Arc<PlogStore>, remote: Arc<PlogStore>) -> Self {
        RemoteReplicator {
            primary,
            remote,
            mapping: TrackedMutex::new("plog.repl.mapping", BTreeMap::new()),
            cursor: TrackedMutex::new("plog.repl.cursor", ReplicationCursor::default()),
        }
    }

    /// One replication cycle: ship every record not yet at the remote site.
    /// Records the primary can no longer read (beyond redundancy) are
    /// skipped — recovery for those must come *from* the remote. WAN
    /// shipping time is attributed to [`Phase::Wan`]; retry backoff waits
    /// to [`Phase::Queue`].
    pub fn run(&self, ctx: &IoCtx) -> Result<ReplicationReport> {
        let mut report = ReplicationReport { finished_at: ctx.now, ..Default::default() };
        let mut mapping = self.mapping.lock();
        let mut cursor = self.cursor.lock();
        // Scan only past each shard's watermark; everything discovered (plus
        // the carried-over pending set) becomes this cycle's work list. Work
        // enters `pending` up front and leaves only when shipped, so a cycle
        // aborted by a terminal error forfeits nothing.
        for shard in 0..self.primary.config().shard_count as u32 {
            let from = cursor.watermarks.get(&shard).copied().unwrap_or(0);
            let fresh = self.primary.addresses_from(shard, from);
            report.records_scanned += fresh.len() as u64;
            if let Some(last) = fresh.last() {
                cursor.watermarks.insert(shard, last.offset + last.len.max(1));
            }
            cursor.pending.extend(fresh);
        }
        // (shard, offset) order across pending and fresh records alike —
        // the same order the full-index walk used to produce.
        let work: Vec<PlogAddress> = cursor.pending.iter().copied().collect();
        let mut t = ctx.now;
        for addr in work {
            if mapping.contains_key(&addr) {
                cursor.pending.remove(&addr);
                continue;
            }
            let Ok((data, t_read)) = self.primary.read_at(&addr, &ctx.at(t)) else {
                continue; // unreadable locally; not this service's job
            };
            let wan = data.len() as u64 * 1_000_000_000 / WAN_BYTES_PER_SEC;
            ctx.record(Phase::Wan, t_read, wan);
            match self.ship_with_retry(&addr, &data, t_read + wan, ctx, &mut report)? {
                Some((raddr, t_write)) => {
                    mapping.insert(addr, raddr);
                    cursor.pending.remove(&addr);
                    t = t_write;
                    report.records_copied += 1;
                    report.bytes_shipped += data.len() as u64;
                }
                None => report.records_abandoned += 1,
            }
        }
        report.finished_at = t;
        Ok(report)
    }

    /// Append `data` at the remote site, retrying **retryable** errors
    /// ([`Error::is_retryable`]: transient I/O faults) with doubling
    /// backoff. Terminal errors — capacity exhaustion, corruption, missing
    /// namespaces — return immediately: backing off against a fault that
    /// can never recover is wasted virtual time. `Ok(None)` means the
    /// attempt budget ran out; the record stays unmapped for the next
    /// cycle.
    fn ship_with_retry(
        &self,
        addr: &PlogAddress,
        data: &common::Bytes,
        arrival: Nanos,
        ctx: &IoCtx,
        report: &mut ReplicationReport,
    ) -> Result<Option<(PlogAddress, Nanos)>> {
        let shard = addr.shard % self.remote.config().shard_count as u32;
        let mut t = arrival;
        let mut backoff = RETRY_BASE_BACKOFF;
        let mut attempts = 0u32;
        loop {
            match self.remote.append_to_shard_at(shard, data.clone(), &ctx.at(t)) {
                Ok(placed) => return Ok(Some(placed)),
                Err(e) if e.is_retryable() => {
                    attempts += 1;
                    if attempts >= MAX_RETRY_ATTEMPTS {
                        return Ok(None);
                    }
                    ctx.record(Phase::Queue, t, backoff);
                    report.retries += 1;
                    t += backoff;
                    backoff = backoff.saturating_mul(2);
                }
                // Terminal class: retrying the identical append can never
                // succeed, so surface it now instead of burning backoff.
                Err(e) => return Err(e),
            }
        }
    }

    /// Recover the record at `addr` from the remote site (disaster
    /// recovery: the primary lost it beyond its redundancy margin).
    pub fn recover(&self, addr: &PlogAddress, ctx: &IoCtx) -> Result<(common::Bytes, Nanos)> {
        let mapping = self.mapping.lock();
        let raddr = mapping
            .get(addr)
            .ok_or_else(|| Error::NotFound(format!("no remote copy of {addr:?}")))?;
        let (data, t_read) = self.remote.read_at(raddr, ctx)?;
        let wan = data.len() as u64 * 1_000_000_000 / WAN_BYTES_PER_SEC;
        ctx.record(Phase::Wan, t_read, wan);
        Ok((data, t_read + wan))
    }
}

impl Chore for RemoteReplicator {
    fn name(&self) -> &'static str {
        "replication"
    }

    /// One shipping cycle. `work_done` counts records copied.
    fn tick(&self, ctx: &IoCtx) -> Result<TickReport> {
        let report = self.run(ctx)?;
        Ok(TickReport { work_done: report.records_copied, finished_at: report.finished_at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::{get, put};
    use crate::PlogConfig;
    use common::clock::secs;
    use common::ctx::{QosClass, SpanSink};
    use common::metrics::Metrics;
    use common::size::MIB;
    use common::SimClock;
    use ec::Redundancy;
    use simdisk::{MediaKind, StoragePool};

    fn site(name: &str, devices: usize) -> Arc<PlogStore> {
        let pool = Arc::new(StoragePool::new(
            name,
            MediaKind::NvmeSsd,
            devices,
            256 * MIB,
            SimClock::new(),
        ));
        Arc::new(
            PlogStore::new(
                pool,
                PlogConfig {
                    shard_count: 8,
                    redundancy: Redundancy::Replicate { copies: 2 },
                    shard_capacity: 64 * MIB,
                },
            )
            .unwrap(),
        )
    }

    fn fail_remote_until(remote: &Arc<PlogStore>, until: Nanos) {
        for i in 0..4 {
            remote.pool_for_tests().device(i).fail_until(until);
        }
    }

    #[test]
    fn replication_copies_everything_once() {
        let primary = site("primary", 4);
        let remote = site("remote", 4);
        let mut addrs = Vec::new();
        for i in 0..20 {
            addrs.push(put(&primary, format!("k{i}").as_bytes(), &vec![i as u8; 500]).unwrap());
        }
        let rep = RemoteReplicator::new(primary.clone(), remote.clone());
        let r1 = rep.run(&IoCtx::new(0)).unwrap();
        assert_eq!(r1.records_copied, 20);
        assert_eq!(r1.bytes_shipped, 20 * 500);
        assert!(r1.finished_at > 0, "WAN time must be charged");
        // a second cycle with nothing new is a no-op
        let r2 = rep.run(&IoCtx::new(r1.finished_at)).unwrap();
        assert_eq!(r2.records_copied, 0);
        // incremental: new appends ship next cycle
        put(&primary, b"new", b"fresh record").unwrap();
        let r3 = rep.run(&IoCtx::new(r2.finished_at)).unwrap();
        assert_eq!(r3.records_copied, 1);
        assert_eq!(rep.mapping.lock().len(), 21);
    }

    #[test]
    fn quiet_cycles_do_not_rescan_the_index() {
        let primary = site("primary", 4);
        let remote = site("remote", 4);
        for i in 0..12 {
            put(&primary, format!("k{i}").as_bytes(), vec![i as u8; 256]).unwrap();
        }
        let rep = RemoteReplicator::new(primary.clone(), remote);
        let r1 = rep.run(&IoCtx::new(0)).unwrap();
        assert_eq!(r1.records_copied, 12);
        assert_eq!(r1.records_scanned, 12);
        // Nothing new: the cursor leaves the second cycle with zero index
        // records to scan, even though all 12 are still in the primary index.
        let r2 = rep.run(&IoCtx::new(r1.finished_at)).unwrap();
        assert_eq!(r2.records_scanned, 0, "quiet cycle must not rescan the index");
        assert_eq!(r2.records_copied, 0);
        // One fresh append costs exactly one scanned record next cycle.
        put(&primary, b"new", b"fresh".to_vec()).unwrap();
        let r3 = rep.run(&IoCtx::new(r2.finished_at)).unwrap();
        assert_eq!(r3.records_scanned, 1);
        assert_eq!(r3.records_copied, 1);
    }

    #[test]
    fn disaster_recovery_restores_from_remote() {
        let primary = site("primary", 4);
        let remote = site("remote", 4);
        let payload = b"business critical".to_vec();
        let addr = put(&primary, b"k", &payload).unwrap();
        let rep = RemoteReplicator::new(primary.clone(), remote);
        rep.run(&IoCtx::new(0)).unwrap();
        // primary site burns down (both replicas lost)
        for i in 0..4 {
            primary_pool_fail(&primary, i);
        }
        assert!(get(&primary, &addr).is_err(), "primary must have lost the data");
        let (back, t) = rep.recover(&addr, &IoCtx::new(0)).unwrap();
        assert_eq!(back, payload);
        assert!(t > 0);
    }

    #[test]
    fn recovery_of_unreplicated_record_fails_cleanly() {
        let primary = site("primary", 4);
        let remote = site("remote", 4);
        let addr = put(&primary, b"k", b"not yet shipped").unwrap();
        let rep = RemoteReplicator::new(primary, remote);
        assert!(matches!(rep.recover(&addr, &IoCtx::new(0)), Err(Error::NotFound(_))));
    }

    #[test]
    fn recovery_survives_a_corrupted_remote_replica() {
        let primary = site("primary", 4);
        let remote = site("remote", 4);
        let payload = b"last line of defence".to_vec();
        let addr = put(&primary, b"k", &payload).unwrap();
        let rep = RemoteReplicator::new(primary.clone(), remote.clone());
        rep.run(&IoCtx::new(0)).unwrap();
        // Primary burns down AND the remote copy itself has rotted on one
        // device: recovery must verify, fall back to the clean replica, and
        // still return the exact bytes.
        for i in 0..4 {
            primary_pool_fail(&primary, i);
        }
        let raddr = *rep.mapping.lock().get(&addr).unwrap();
        let entry_dev = {
            let survivors = remote.pool_for_tests();
            // rot the first stored extent of whichever device holds one
            (0..4).find(|&d| survivors.device(d).corrupt_stored_byte(0, 3, 0x08).is_some()).unwrap()
        };
        let (back, _) = rep.recover(&addr, &IoCtx::new(0)).unwrap();
        assert_eq!(back, payload);
        assert!(remote.metrics().counter("plog.corruptions_detected") >= 1);
        // The recovery read healed the rotten remote replica in passing.
        let again = get(&remote, &raddr).unwrap();
        assert_eq!(again, payload);
        let _ = entry_dev;
    }

    #[test]
    fn recovery_fails_loudly_when_every_remote_replica_is_rotten() {
        let primary = site("primary", 4);
        let remote = site("remote", 4);
        let addr = put(&primary, b"k", b"doomed twice over").unwrap();
        let rep = RemoteReplicator::new(primary.clone(), remote.clone());
        rep.run(&IoCtx::new(0)).unwrap();
        for i in 0..4 {
            primary_pool_fail(&primary, i);
        }
        // Corrupt every remote device's stored extent: both replicas rot.
        for d in 0..4 {
            let _ = remote.pool_for_tests().device(d).corrupt_stored_byte(0, 1, 0x01);
        }
        let err = rep.recover(&addr, &IoCtx::new(0));
        assert!(
            matches!(err, Err(Error::Corruption(_))),
            "corrupt bytes must never be returned as recovered data: {err:?}"
        );
    }

    #[test]
    fn transient_remote_fault_is_retried_until_it_heals() {
        let primary = site("primary", 4);
        let remote = site("remote", 4);
        put(&primary, b"k", &vec![7u8; 1000]).unwrap();
        // The whole remote site is unreachable for 3ms of virtual time: the
        // first attempt and the 1ms + 2ms backoff retries fail, the fourth
        // (at >= 3ms) lands.
        fail_remote_until(&remote, millis(3));
        let rep = RemoteReplicator::new(primary, remote.clone());
        let ctx = IoCtx::new(0).with_qos(QosClass::Background);
        let report = rep.run(&ctx).unwrap();
        assert_eq!(report.records_copied, 1);
        assert!(report.retries >= 1, "transient fault must be retried, got {report:?}");
        assert_eq!(report.records_abandoned, 0);
        assert_eq!(rep.mapping.lock().len(), 1);
        assert!(report.finished_at >= millis(3), "success only after the fault window");
        // deterministic: a fresh identical setup produces the same timings
        let primary2 = site("primary", 4);
        put(&primary2, b"k", &vec![7u8; 1000]).unwrap();
        let remote2 = site("remote", 4);
        fail_remote_until(&remote2, millis(3));
        let rep2 = RemoteReplicator::new(primary2, remote2);
        let report2 = rep2.run(&IoCtx::new(0).with_qos(QosClass::Background)).unwrap();
        assert_eq!(report.finished_at, report2.finished_at);
        assert_eq!(report.retries, report2.retries);
    }

    #[test]
    fn a_dead_remote_is_abandoned_not_fatal_and_keeps_the_trail() {
        let primary = site("primary", 4);
        let remote = site("remote", 4);
        put(&primary, b"k", &vec![1u8; 1000]).unwrap();
        fail_remote_until(&remote, secs(60));
        let sink = Arc::new(SpanSink::new(Metrics::new()));
        let rep = RemoteReplicator::new(primary, remote);
        let ctx = IoCtx::new(0).with_qos(QosClass::Background).with_sink(sink.clone());
        let report = rep.run(&ctx).unwrap();
        assert_eq!(report.records_copied, 0);
        assert_eq!(report.records_abandoned, 1);
        assert_eq!(report.retries, u64::from(MAX_RETRY_ATTEMPTS) - 1);
        assert_eq!(rep.mapping.lock().len(), 0);
        // the span trail shows the abandoned attempt: WAN shipping plus the
        // recorded backoff waits, all under the request's trace id.
        let trail = sink.trail();
        assert!(trail.iter().any(|r| r.phase == Phase::Wan), "trail: {trail:?}");
        assert!(
            trail.iter().any(|r| r.phase == Phase::Queue && r.duration == RETRY_BASE_BACKOFF),
            "trail: {trail:?}"
        );
        assert!(trail.iter().all(|r| r.trace == ctx.trace));
        // the next cycle, after the fault clears, ships it
        let late = rep.run(&IoCtx::new(secs(61))).unwrap();
        assert_eq!(late.records_copied, 1);
    }

    fn primary_pool_fail(store: &Arc<PlogStore>, device: usize) {
        store.pool_for_tests().device(device).fail();
    }

    #[test]
    fn terminal_errors_are_never_retried() {
        // A remote whose shards are already full fails every append with
        // CapacityExhausted — a terminal error. The retry loop must surface
        // it immediately: no backoff waits, no retry spans, no wasted
        // virtual time (the old loop special-cased Error::Io; this pins the
        // is_retryable() contract instead).
        let primary = site("primary", 4);
        put(&primary, b"k", &vec![9u8; 1000]).unwrap();
        let pool = Arc::new(StoragePool::new(
            "remote",
            MediaKind::NvmeSsd,
            4,
            256 * MIB,
            SimClock::new(),
        ));
        let remote = Arc::new(
            PlogStore::new(
                pool,
                PlogConfig {
                    shard_count: 8,
                    redundancy: Redundancy::Replicate { copies: 2 },
                    // far smaller than the 1000-byte record: every append
                    // is CapacityExhausted from the first attempt
                    shard_capacity: 16,
                },
            )
            .unwrap(),
        );
        let sink = Arc::new(SpanSink::new(Metrics::new()));
        let rep = RemoteReplicator::new(primary, remote);
        let ctx = IoCtx::new(0).with_sink(sink.clone());
        let err = rep.run(&ctx).unwrap_err();
        assert!(matches!(err, Error::CapacityExhausted(_)), "got {err:?}");
        assert!(!err.is_retryable(), "capacity exhaustion must be terminal");
        // No backoff wait was ever recorded — the loop did not spin.
        // (Device queueing also lands in Phase::Queue, but at ~µs scale;
        // retry backoff starts at RETRY_BASE_BACKOFF and only doubles.)
        assert!(
            sink.trail()
                .iter()
                .all(|r| r.phase != Phase::Queue || r.duration < RETRY_BASE_BACKOFF),
            "terminal errors must not be backed off: {:?}",
            sink.trail()
        );
        assert_eq!(rep.mapping.lock().len(), 0);
    }
}
