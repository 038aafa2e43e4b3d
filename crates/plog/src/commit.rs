//! Group commit: coalescing concurrent appends into one commit group.
//!
//! Submitters hand the committer `(shard, record, ctx)` and get a
//! [`Ticket`] back; the group flushes when a deterministic policy trips
//! (record count, byte size, or a virtual-time linger deadline observed by
//! the next submit/flush) and every ticket resolves to its record's
//! durable address and virtual completion time — or its own failure.
//!
//! The committer owns policy, tickets and group accounting only. The
//! append itself — encode, checksum, reserve, stripe write, rollback, one
//! batched index put (one WAL frame per group instead of one per record) —
//! is the store's single append routine, the same one a lone
//! `append_to_shard_at` runs with a group of one; its per-record rollback
//! and timing contract is documented there.
//!
//! Determinism: groups are assembled and flushed under one lock
//! (`plog.commit.state`, rank 59 — above the scrub cursor, below
//! `plog.shard` which a flush takes while reserving); records are
//! processed in ticket order; virtual timing of each record equals what
//! the same `ctx` would have seen from `append_to_shard_at`.

use crate::store::{PlogAddress, PlogStore};
use common::clock::Nanos;
use common::ctx::{IoCtx, Phase};
use common::lockwitness::TrackedMutex;
use common::{Bytes, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Deterministic flush policy of a [`GroupCommitter`].
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitConfig {
    /// Flush when a group holds this many records.
    pub max_records: usize,
    /// Flush when a group holds this many payload bytes.
    pub max_bytes: u64,
    /// Flush when a submit arrives at or past `opened_at + linger`.
    /// Virtual time has no background timers: the deadline trips on the
    /// next submission or explicit flush that observes it, which keeps the
    /// policy a pure function of the submission sequence.
    pub linger: Nanos,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_records: 16,
            max_bytes: 8 * 1024 * 1024,
            linger: 500_000, // 500µs of virtual time
        }
    }
}

/// Handle to one submitted record; redeem with [`GroupCommitter::take`]
/// after the group holding it flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(u64);

#[derive(Debug)]
struct Pending {
    ticket: u64,
    shard: u32,
    record: Bytes,
    ctx: IoCtx,
}

#[derive(Debug, Default)]
struct CommitState {
    epoch: u64,
    next_ticket: u64,
    pending: Vec<Pending>,
    pending_bytes: u64,
    opened_at: Option<Nanos>,
    done: BTreeMap<u64, Result<(PlogAddress, Nanos)>>,
}

/// Coalesces concurrent appends into per-epoch commit groups over a
/// [`PlogStore`].
#[derive(Debug)]
pub struct GroupCommitter {
    store: Arc<PlogStore>,
    config: GroupCommitConfig,
    state: TrackedMutex<CommitState>,
}

impl GroupCommitter {
    /// A committer over `store` with the given flush policy.
    pub fn new(store: Arc<PlogStore>, config: GroupCommitConfig) -> Self {
        GroupCommitter {
            store,
            config,
            state: TrackedMutex::new("plog.commit.state", CommitState::default()),
        }
    }

    /// The flush policy.
    pub fn config(&self) -> &GroupCommitConfig {
        &self.config
    }

    /// Commit groups flushed so far.
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// Records waiting in the open group.
    pub fn pending_records(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Queue `record` for `shard`. The returned ticket resolves once the
    /// group flushes; this call itself flushes when the policy trips
    /// (including when `ctx.now` is at/past the linger deadline of the
    /// group the record joined).
    pub fn submit(&self, shard: u32, record: impl Into<Bytes>, ctx: &IoCtx) -> Result<Ticket> {
        let record: Bytes = record.into();
        let mut st = self.state.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        let opened_at = *st.opened_at.get_or_insert(ctx.now);
        st.pending_bytes += record.len() as u64;
        st.pending.push(Pending { ticket, shard, record, ctx: ctx.clone() });
        let due = st.pending.len() >= self.config.max_records
            || st.pending_bytes >= self.config.max_bytes
            || ctx.now >= opened_at + self.config.linger;
        if due {
            self.flush_locked(&mut st, ctx)?;
        }
        Ok(Ticket(ticket))
    }

    /// Flush the open group now (no-op when nothing is pending).
    pub fn flush(&self, ctx: &IoCtx) -> Result<()> {
        let mut st = self.state.lock();
        self.flush_locked(&mut st, ctx)
    }

    /// Redeem a ticket: the record's durable address and virtual
    /// completion time, or its individual failure. `None` while the
    /// group is still open (or if the ticket was already taken).
    pub fn take(&self, ticket: Ticket) -> Option<Result<(PlogAddress, Nanos)>> {
        self.state.lock().done.remove(&ticket.0)
    }

    fn flush_locked(&self, st: &mut CommitState, ctx: &IoCtx) -> Result<()> {
        if st.pending.is_empty() {
            return Ok(());
        }
        let group = std::mem::take(&mut st.pending);
        st.pending_bytes = 0;
        let opened_at = st.opened_at.take().unwrap_or(ctx.now);
        st.epoch += 1;

        let records: Vec<_> = group.iter().map(|p| (p.shard, p.record.clone(), &p.ctx)).collect();
        let outcomes = self.store.append_group(&records);

        // Group accounting: per-group latency span (Meta phase, open → last
        // record finish) on the flushing ctx, plus counters.
        let metrics = self.store.metrics();
        metrics.incr("plog.commit.groups", 1);
        metrics.incr("plog.commit.records", outcomes.len() as u64);
        let failures = outcomes.iter().filter(|r| r.is_err()).count() as u64;
        if failures > 0 {
            metrics.incr("plog.commit.failed_records", failures);
        }
        let latest = outcomes.iter().flatten().map(|&(_, finish)| finish).fold(opened_at, Nanos::max);
        ctx.record(Phase::Meta, opened_at, latest - opened_at);
        for (p, outcome) in group.iter().zip(outcomes) {
            st.done.insert(p.ticket, outcome);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PlogConfig;
    use crate::store::tests::get;
    use common::Error;
    use ec::Redundancy;
    use crate::workers::WorkerPool;
    use common::clock::secs;
    use common::size::MIB;
    use common::SimClock;
    use simdisk::pool::StoragePool;
    use simdisk::MediaKind;

    fn plog(redundancy: Redundancy, devices: usize) -> Arc<PlogStore> {
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
                PlogConfig { shard_count: 16, redundancy, shard_capacity: 8 * MIB },
            )
            .unwrap(),
        )
    }

    fn committer(store: &Arc<PlogStore>, config: GroupCommitConfig) -> GroupCommitter {
        GroupCommitter::new(Arc::clone(store), config)
    }

    #[test]
    fn grouped_appends_match_sequential_appends() {
        // A flushed group must produce exactly the addresses and virtual
        // completion times the sequential per-record path produces.
        let seq = plog(Redundancy::Replicate { copies: 2 }, 4);
        let grp = plog(Redundancy::Replicate { copies: 2 }, 4);
        let gc = committer(&grp, GroupCommitConfig::default());
        let ctx = IoCtx::new(1_000);
        let records: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 4096]).collect();
        let mut expected = Vec::new();
        for (i, r) in records.iter().enumerate() {
            expected.push(seq.append_to_shard_at((i % 2) as u32, r.clone(), &ctx).unwrap());
        }
        let tickets: Vec<Ticket> = records
            .iter()
            .enumerate()
            .map(|(i, r)| gc.submit((i % 2) as u32, r.clone(), &ctx).unwrap())
            .collect();
        assert_eq!(gc.epoch(), 0, "5 small records must not trip the default policy");
        gc.flush(&ctx).unwrap();
        assert_eq!(gc.epoch(), 1);
        let got: Vec<_> = tickets.iter().map(|&t| gc.take(t).unwrap().unwrap()).collect();
        assert_eq!(got, expected);
        for (addr, _) in &got {
            assert_eq!(get(&grp, addr).unwrap(), get(&seq, addr).unwrap());
        }
    }

    #[test]
    fn group_pays_one_index_frame() {
        let store = plog(Redundancy::Replicate { copies: 2 }, 4);
        let gc = committer(&store, GroupCommitConfig::default());
        let ctx = IoCtx::new(0);
        let frames_before = store.index_for_tests().wal_frames();
        for i in 0..8u8 {
            gc.submit(0, vec![i; 1024], &ctx).unwrap();
        }
        gc.flush(&ctx).unwrap();
        let frames = store.index_for_tests().wal_frames() - frames_before;
        assert_eq!(frames, 1, "8-record group must log one WAL frame, logged {frames}");
        assert_eq!(store.record_count(), 8);
        assert_eq!(store.metrics().counter("plog.commit.groups"), 1);
        assert_eq!(store.metrics().counter("plog.commit.records"), 8);
    }

    #[test]
    fn count_byte_and_linger_policies_each_trip_a_flush() {
        let store = plog(Redundancy::Replicate { copies: 2 }, 4);
        let gc = committer(
            &store,
            GroupCommitConfig { max_records: 3, max_bytes: 1 << 20, linger: 1_000 },
        );
        let ctx = IoCtx::new(0);
        // Count policy: the third submit flushes.
        gc.submit(0, vec![1u8; 16], &ctx).unwrap();
        gc.submit(0, vec![2u8; 16], &ctx).unwrap();
        assert_eq!(gc.epoch(), 0);
        gc.submit(0, vec![3u8; 16], &ctx).unwrap();
        assert_eq!(gc.epoch(), 1);
        assert_eq!(gc.pending_records(), 0);
        // Byte policy: one fat record flushes alone.
        gc.submit(1, vec![4u8; 2 << 20], &ctx).unwrap();
        assert_eq!(gc.epoch(), 2);
        // Linger policy: a submit observing now >= opened_at + linger flushes.
        gc.submit(2, vec![5u8; 16], &IoCtx::new(5_000)).unwrap();
        assert_eq!(gc.epoch(), 2);
        gc.submit(2, vec![6u8; 16], &IoCtx::new(6_001)).unwrap();
        assert_eq!(gc.epoch(), 3, "submit at opened_at + linger must trip the flush");
    }

    #[test]
    fn submitters_racing_the_linger_deadline_form_one_deterministic_group() {
        // Deterministic interleaving of the race the linger window invites:
        // A opens the group, B lands inside the window, C arrives at the
        // deadline and trips the flush carrying all three.
        let store = plog(Redundancy::Replicate { copies: 2 }, 4);
        let gc = committer(
            &store,
            GroupCommitConfig { max_records: 100, max_bytes: 1 << 30, linger: secs(1) },
        );
        let a = gc.submit(0, b"record-a".as_slice(), &IoCtx::new(0)).unwrap();
        let b = gc.submit(0, b"record-b".as_slice(), &IoCtx::new(secs(1) / 2)).unwrap();
        assert_eq!(gc.epoch(), 0, "submits inside the window must not flush");
        assert!(gc.take(a).is_none(), "unflushed tickets must not resolve");
        let c = gc.submit(1, b"record-c".as_slice(), &IoCtx::new(secs(1))).unwrap();
        assert_eq!(gc.epoch(), 1, "the deadline-observing submit flushes");
        assert_eq!(gc.pending_records(), 0);
        let (addr_a, _) = gc.take(a).unwrap().unwrap();
        let (addr_b, _) = gc.take(b).unwrap().unwrap();
        let (addr_c, _) = gc.take(c).unwrap().unwrap();
        // Submission order is commit order: A then B on shard 0.
        assert_eq!(addr_a.offset, 0);
        assert_eq!(addr_b.offset, addr_a.len);
        assert_eq!(addr_c.offset, 0);
        assert_eq!(store.metrics().counter("plog.commit.groups"), 1);
        assert_eq!(store.metrics().counter("plog.commit.records"), 3);
        // Tickets are single-use.
        assert!(gc.take(a).is_none());
    }

    #[test]
    fn failed_record_rolls_back_only_its_own_address_space() {
        // The batched-path extension of the append leak regression: one
        // record in the group blows its deadline mid-flush; its neighbours
        // on the same shard commit and its reservation vanishes exactly.
        let store = plog(Redundancy::Replicate { copies: 2 }, 4);
        let gc = committer(&store, GroupCommitConfig::default());
        let ok = IoCtx::new(0).with_deadline(secs(10));
        let doomed = IoCtx::new(0).with_deadline(1); // NVMe latency alone blows this
        let a = gc.submit(0, vec![1u8; 1000], &ok).unwrap();
        let b = gc.submit(0, vec![2u8; 1000], &doomed).unwrap();
        let c = gc.submit(0, vec![3u8; 1000], &ok).unwrap();
        gc.flush(&ok).unwrap();
        let (addr_a, _) = gc.take(a).unwrap().unwrap();
        let err = gc.take(b).unwrap().unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded(_)), "{err:?}");
        let (addr_c, _) = gc.take(c).unwrap().unwrap();
        // B's 1000 bytes were reclaimed: C sits directly behind A.
        assert_eq!(addr_a.offset, 0);
        assert_eq!(addr_c.offset, addr_a.len, "failed record leaked its reservation");
        assert_eq!(store.shard_usage()[0], 2000);
        assert_eq!(store.record_count(), 2);
        assert_eq!(store.metrics().counter("plog.commit.failed_records"), 1);
        assert_eq!(get(&store, &addr_a).unwrap(), vec![1u8; 1000]);
        assert_eq!(get(&store, &addr_c).unwrap(), vec![3u8; 1000]);
    }

    #[test]
    fn whole_group_pool_failure_rolls_back_every_reservation() {
        let store = plog(Redundancy::Replicate { copies: 2 }, 3);
        let gc = committer(&store, GroupCommitConfig::default());
        store.pool_for_tests().device(1).fail();
        store.pool_for_tests().device(2).fail();
        let ctx = IoCtx::new(0);
        let tickets: Vec<Ticket> =
            (0..3u8).map(|i| gc.submit(0, vec![i; 512], &ctx).unwrap()).collect();
        gc.flush(&ctx).unwrap();
        for t in tickets {
            assert!(gc.take(t).unwrap().is_err());
        }
        assert_eq!(store.shard_usage()[0], 0, "failed group leaked address space");
        assert_eq!(store.record_count(), 0);
        assert_eq!(store.physical_bytes(), 0);
        // The shard is fully reusable after the pool heals.
        store.pool_for_tests().device(1).heal();
        let t = gc.submit(0, b"recovered".as_slice(), &ctx).unwrap();
        gc.flush(&ctx).unwrap();
        assert_eq!(gc.take(t).unwrap().unwrap().0.offset, 0);
    }

    #[test]
    fn grouped_commit_matches_sequential_with_workers_attached() {
        let seq = plog(Redundancy::ErasureCode { k: 3, m: 2 }, 6);
        let fanned = {
            let pool = Arc::new(StoragePool::new(
                "pool",
                MediaKind::NvmeSsd,
                6,
                64 * MIB,
                SimClock::new(),
            ));
            Arc::new(
                PlogStore::new(
                    pool,
                    PlogConfig {
                        shard_count: 16,
                        redundancy: Redundancy::ErasureCode { k: 3, m: 2 },
                        shard_capacity: 8 * MIB,
                    },
                )
                .unwrap()
                .with_workers(Arc::new(WorkerPool::new(4, 42))),
            )
        };
        let gc = committer(&fanned, GroupCommitConfig::default());
        let ctx = IoCtx::new(2_000);
        let records: Vec<Vec<u8>> =
            (0..4usize).map(|i| (0..200 * 1024).map(|j| ((i * 31 + j) % 251) as u8).collect()).collect();
        let mut expected = Vec::new();
        for r in &records {
            expected.push(seq.append_to_shard_at(3, r.clone(), &ctx).unwrap());
        }
        let tickets: Vec<Ticket> =
            records.iter().map(|r| gc.submit(3, r.clone(), &ctx).unwrap()).collect();
        gc.flush(&ctx).unwrap();
        for (t, want) in tickets.into_iter().zip(expected) {
            assert_eq!(gc.take(t).unwrap().unwrap(), want);
        }
        for (i, r) in records.iter().enumerate() {
            let addr = PlogAddress {
                shard: 3,
                offset: (0..i).map(|j| records[j].len() as u64).sum(),
                len: r.len() as u64,
            };
            assert_eq!(get(&fanned, &addr).unwrap().as_slice(), r.as_slice());
        }
    }
}
