//! The stream object (§IV-A).
//!
//! A stream object stores one partition of a message stream "organized as a
//! collection of data slices. Each slice contains up to 256 records." The
//! operations mirror Fig 3: create/destroy, append (returning the starting
//! offset) and offset-addressed reads.
//!
//! Slices reach the PLog one way: records sit in the open buffer until
//! their slice is durable, and `persist_locked` — behind both `append_at`
//! (full slices) and `flush_at` (plus the open remainder) — cuts the buffer
//! into slices, hands them to `PlogStore::append_group` in offset order,
//! and moves exactly the persisted prefix into the slice list. A failed
//! write therefore loses nothing and reorders nothing: everything from the
//! failure on stays buffered for the next flush.
//!
//! Stream objects also carry the mechanics behind the paper's delivery
//! guarantees (§V-A):
//!
//! * *strict order* — offsets are assigned under the object lock;
//! * *idempotent writes* — `(producer_id, sequence)` pairs dedup retries;
//! * *exactly-once* — transactional records stay invisible to readers
//!   until their transaction commits.
//!
//! With `scm_cache` enabled, slice flushes are acknowledged from a
//! storage-class-memory staging device and drained to the PLog in the
//! background; acknowledgement falls back to PLog completion once the drain
//! backlog exceeds the staging budget (this is what makes the SCM benefit
//! disappear at saturation in Fig 14(a)/(b)).

use crate::record::Record;
use common::clock::{Nanos, millis};
use common::ctx::{IoCtx, QosClass};
use common::{Bytes, Error, ObjectId, Result};
use plog::{PlogAddress, PlogStore};
use simdisk::device::{Device, MediaKind};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use common::lockwitness::TrackedMutex;

/// Maximum records per slice (paper: 256).
pub(crate) const SLICE_CAPACITY: usize = 256;

/// Options for [`StreamObjectStore::create`] (the paper's
/// `CREATE_OPTIONS_S`).
#[derive(Debug, Clone)]
pub struct CreateOptions {
    /// Records per slice before a flush (≤ [`SLICE_CAPACITY`]).
    pub slice_capacity: usize,
    /// Stage slice flushes in SCM and acknowledge early.
    pub scm_cache: bool,
    /// Pin the object to a specific PLog shard (defaults to hashing the
    /// object id).
    pub shard_hint: Option<u32>,
}

/// What [`StreamObjectStore::destroy`] accomplished: destruction itself is
/// all-or-nothing (the object is unpublished), but slice reclamation in
/// PLog is per-slice and best-effort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DestroyOutcome {
    /// Slices whose PLog records were reclaimed (or already absent).
    pub(crate) freed_slices: u64,
    /// Slices whose PLog delete failed (e.g. a corrupt index entry); their
    /// extents may leak until scrub reclaims them.
    pub(crate) failed_deletes: u64,
}

impl Default for CreateOptions {
    fn default() -> Self {
        CreateOptions { slice_capacity: SLICE_CAPACITY, scm_cache: false, shard_hint: None }
    }
}

/// Read control (the paper's `READ_CTRL_S`).
#[derive(Debug, Clone, Copy)]
pub struct ReadCtrl {
    /// Maximum records returned.
    pub(crate) max_records: usize,
}

impl Default for ReadCtrl {
    fn default() -> Self {
        ReadCtrl { max_records: usize::MAX }
    }
}

#[derive(Debug, Clone)]
struct SliceMeta {
    base_offset: u64,
    count: u64,
    addr: PlogAddress,
}

#[derive(Debug, Default)]
struct ObjectState {
    slices: Vec<SliceMeta>,
    buffer: Vec<Record>,
    buffer_base: u64,
    next_offset: u64,
    open_txns: BTreeSet<u64>,
    aborted_txns: BTreeSet<u64>,
    producer_seqs: BTreeMap<u64, u64>,
    persisted_bytes: u64,
    /// Virtual time at which the background SCM→PLog drain frees up.
    drain_backlog_until: Nanos,
    destroyed: bool,
}

/// One stream object.
#[derive(Debug)]
pub struct StreamObject {
    id: ObjectId,
    shard: u32,
    slice_capacity: usize,
    scm: Option<Arc<Device>>,
    plog: Arc<PlogStore>,
    state: TrackedMutex<ObjectState>,
}

/// Outcome of an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendAck {
    /// Offset of the first appended record, or `None` if every record was
    /// an idempotent duplicate.
    pub(crate) base_offset: Option<u64>,
    /// Virtual time at which the append is acknowledged durable.
    pub ack_time: Nanos,
}

impl StreamObject {
    /// The object's id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Next offset to be assigned (== record count including buffered).
    pub fn end_offset(&self) -> u64 {
        self.state.lock().next_offset
    }

    /// Logical bytes persisted to the PLog so far.
    pub(crate) fn persisted_bytes(&self) -> u64 {
        self.state.lock().persisted_bytes
    }

    /// Number of persisted slices.
    pub fn slice_count(&self) -> usize {
        self.state.lock().slices.len()
    }

    /// Append records under `ctx` (arrival time, QoS).
    ///
    /// Duplicate `(producer_id, sequence)` pairs are dropped (idempotence);
    /// a sequence gap is an error, as the broker cannot know what was lost.
    /// Records accepted before a gap or a failed slice write keep their
    /// offsets and stay in the open buffer, so a retry (dropped as
    /// duplicates) plus a later flush loses nothing.
    pub fn append_at(&self, records: &[Record], ctx: &IoCtx) -> Result<AppendAck> {
        let mut st = self.state.lock();
        if st.destroyed {
            return Err(Error::NotFound(format!("stream object {} destroyed", self.id)));
        }
        let mut base: Option<u64> = None;
        for r in records {
            if let Some((pid, seq)) = r.producer_seq {
                let last = st.producer_seqs.get(&pid).copied();
                match last {
                    Some(l) if seq <= l => continue, // duplicate retry: drop
                    Some(l) if seq > l + 1 => {
                        return Err(Error::InvalidArgument(format!(
                            "producer {pid} sequence gap: last {l}, got {seq}"
                        )))
                    }
                    _ => {}
                }
                st.producer_seqs.insert(pid, seq);
            }
            if let Some(t) = r.txn {
                st.open_txns.insert(t);
            }
            base.get_or_insert(st.next_offset);
            st.next_offset += 1;
            st.buffer.push(r.clone());
        }
        let ack_time = self.persist_locked(&mut st, false, ctx)?;
        Ok(AppendAck { base_offset: base, ack_time })
    }

    /// Force-persist the open slice buffer (e.g. on shutdown or conversion).
    pub fn flush_at(&self, ctx: &IoCtx) -> Result<Nanos> {
        let mut st = self.state.lock();
        if st.destroyed {
            return Err(Error::NotFound(format!("stream object {} destroyed", self.id)));
        }
        self.persist_locked(&mut st, true, ctx)
    }

    /// The one slice-persist routine: cut the buffer into full slices (plus
    /// the open remainder when `include_open`), persist them in offset
    /// order, move the persisted *prefix* from the buffer into `slices`,
    /// and leave everything from the first failure on buffered for the
    /// next flush — `buffer_base + buffer.len() == next_offset` always.
    /// Returns the latest acknowledgement time.
    ///
    /// Without SCM all slices reach the PLog as one append group (one index
    /// WAL frame however many slices). With SCM each slice is a group of
    /// its own: it is staged in SCM and drained to the PLog in the
    /// background, and a drain starts only once the previous one finished.
    fn persist_locked(
        &self,
        st: &mut ObjectState,
        include_open: bool,
        ctx: &IoCtx,
    ) -> Result<Nanos> {
        let cap = self.slice_capacity;
        let end = if include_open { st.buffer.len() } else { st.buffer.len() / cap * cap };
        if end == 0 {
            return Ok(ctx.now);
        }
        let encoded: Vec<(u64, Bytes)> = st.buffer[..end]
            .chunks(cap)
            .map(|c| (c.len() as u64, Record::encode_slice(c).into()))
            .collect();
        let mut ack = ctx.now;
        let mut persisted = 0u64; // records made durable: a prefix of the buffer
        let mut failed: Option<Error> = None;
        let group_len = if self.scm.is_some() { 1 } else { encoded.len() };
        for group in encoded.chunks(group_len) {
            let scm_ext = self.id.raw() * 1_000_003 + st.slices.len() as u64;
            let staged_at = match &self.scm {
                Some(scm) => match scm.write_extent_ctx(scm_ext, &group[0].1, ctx) {
                    Ok(t) => Some(t.finish),
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                },
                None => None,
            };
            // The drain is background work: it keeps the request's trace
            // and sink but must not inherit its foreground device lane.
            let drain_ctx = staged_at
                .map(|t| ctx.at(t.max(st.drain_backlog_until)).with_qos(QosClass::Background));
            let group_ctx = drain_ctx.as_ref().unwrap_or(ctx);
            let appends: Vec<_> =
                group.iter().map(|(_, bytes)| (self.shard, bytes.clone(), group_ctx)).collect();
            let outcomes = self.plog.append_group(&appends);
            for (outcome, (count, bytes)) in outcomes.into_iter().zip(group) {
                match outcome {
                    Ok((addr, finish)) if failed.is_none() => {
                        let base_offset = st.buffer_base + persisted;
                        st.slices.push(SliceMeta { base_offset, count: *count, addr });
                        st.persisted_bytes += bytes.len() as u64;
                        persisted += count;
                        ack = ack.max(self.retire_staging(st, scm_ext, staged_at, finish));
                    }
                    Ok((addr, _)) => {
                        // An earlier slice failed: keep the slice sequence
                        // gap-free by rolling this one back; its records
                        // stay buffered behind the failed slice's.
                        #[expect(clippy::let_underscore_must_use, reason = "R11: best-effort rollback, orphan is scrub-reclaimed")]
                        let _ = self.plog.delete(&addr);
                    }
                    Err(e) => {
                        failed.get_or_insert(e);
                    }
                }
            }
            if failed.is_some() {
                break;
            }
        }
        st.buffer.drain(..persisted as usize);
        st.buffer_base += persisted;
        failed.map_or(Ok(ack), Err)
    }

    /// Close out a slice whose PLog write finished at `plog_finish` and
    /// return when it is acknowledged: at PLog completion, or — staged in
    /// SCM at `staged_at`, the staging extent now released — from SCM while
    /// the drain keeps up. Once the drain backlog exceeds ~5 ms the PLog
    /// becomes the critical path; this is why persistent memory stops
    /// helping near saturation in Fig 14(a)/(b).
    fn retire_staging(
        &self,
        st: &mut ObjectState,
        scm_ext: u64,
        staged_at: Option<Nanos>,
        plog_finish: Nanos,
    ) -> Nanos {
        let (Some(scm), Some(staged_at)) = (&self.scm, staged_at) else {
            return plog_finish;
        };
        st.drain_backlog_until = plog_finish;
        // The slice is durable in the PLog by now; a failed SCM delete only
        // delays persistent-memory reuse.
        #[expect(clippy::let_underscore_must_use, reason = "R11: slice already durable in PLog")]
        let _ = scm.delete_extent(scm_ext); // drained
        if plog_finish.saturating_sub(staged_at) > millis(5) {
            plog_finish
        } else {
            staged_at
        }
    }

    /// Read up to `ctrl.max_records` records starting at `offset`.
    ///
    /// Returns `(offset, record)` pairs in offset order and the virtual
    /// completion time of the underlying PLog reads. The read borrows the
    /// object's state under its lock for the whole scan, PLog reads
    /// included — the same state → PLog order `append_at` takes — so it
    /// copies neither the slice index nor the transaction sets. The first
    /// slice to fetch is found by binary search on the slice ends; every
    /// slice from there on is read whole (all its shards fetched and
    /// verified) until the limit or an open transaction stops the scan.
    pub fn read_at(
        &self,
        offset: u64,
        ctrl: ReadCtrl,
        ctx: &IoCtx,
    ) -> Result<(Vec<(u64, Record)>, Nanos)> {
        let st = self.state.lock();
        if st.destroyed {
            return Err(Error::NotFound(format!("stream object {} destroyed", self.id)));
        }
        // Visibility follows last-stable-offset semantics: the scan STOPS at
        // the first record of a still-open transaction (so a later commit is
        // not skipped over by consumers that already advanced), and records
        // of aborted transactions are filtered out.
        enum Vis {
            Deliver,
            Skip,
            Stop,
        }
        let classify = |r: &Record| -> Vis {
            match r.txn {
                Some(t) if st.open_txns.contains(&t) => Vis::Stop,
                Some(t) if st.aborted_txns.contains(&t) => Vis::Skip,
                _ => Vis::Deliver,
            }
        };
        let mut out = Vec::new();
        let mut finish = ctx.now;
        let first = st.slices.partition_point(|s| s.base_offset + s.count <= offset);
        for meta in &st.slices[first..] {
            if out.len() >= ctrl.max_records {
                return Ok((out, finish));
            }
            let (bytes, t) = self.plog.read_at(&meta.addr, ctx)?;
            finish = finish.max(t);
            for (i, r) in Record::decode_slice(&bytes)?.into_iter().enumerate() {
                let off = meta.base_offset + i as u64;
                if off < offset || out.len() >= ctrl.max_records {
                    continue;
                }
                match classify(&r) {
                    Vis::Deliver => out.push((off, r)),
                    Vis::Skip => {}
                    Vis::Stop => return Ok((out, finish)),
                }
            }
        }
        let from = usize::try_from(offset.saturating_sub(st.buffer_base)).unwrap_or(usize::MAX);
        for (i, r) in st.buffer.iter().enumerate().skip(from) {
            if out.len() >= ctrl.max_records {
                break;
            }
            let off = st.buffer_base + i as u64;
            match classify(r) {
                Vis::Deliver => out.push((off, r.clone())),
                Vis::Skip => {}
                Vis::Stop => break,
            }
        }
        Ok((out, finish))
    }

    /// Drop persisted slices that lie entirely before `offset`, freeing
    /// their PLog space (used after archiving and by `delete_msg`
    /// stream→table conversion). Offsets are never reused: reads below the
    /// truncation point simply return nothing.
    pub fn truncate_before(&self, offset: u64) -> u64 {
        let mut st = self.state.lock();
        let mut freed = 0u64;
        st.slices.retain(|s| {
            if s.base_offset + s.count <= offset {
                // Truncation is logical — offsets are never reused, so a
                // leaked extent is unreachable and scrub-reclaimed.
                #[expect(clippy::let_underscore_must_use, reason = "R11: leaked extent is scrub-reclaimed")]
                let _ = self.plog.delete(&s.addr);
                freed += s.count;
                false
            } else {
                true
            }
        });
        freed
    }

    /// Mark a transaction committed: its records become visible.
    pub(crate) fn commit_txn(&self, txn: u64) {
        self.state.lock().open_txns.remove(&txn);
    }

    /// Mark a transaction aborted: its records stay permanently invisible.
    pub fn abort_txn(&self, txn: u64) {
        let mut st = self.state.lock();
        st.open_txns.remove(&txn);
        st.aborted_txns.insert(txn);
    }

    /// Whether this participant can prepare `txn` (2PC phase one).
    pub(crate) fn prepared(&self, txn: u64) -> bool {
        let st = self.state.lock();
        !st.destroyed && st.open_txns.contains(&txn)
    }
}

/// Registry of stream objects over one PLog store (the store-layer service
/// behind `CreateServerStreamObject` / `DestroyServerStreamObject`).
#[derive(Debug)]
pub struct StreamObjectStore {
    plog: Arc<PlogStore>,
    scm: Option<Arc<Device>>,
    objects: TrackedMutex<BTreeMap<ObjectId, Arc<StreamObject>>>,
    next_id: AtomicU64,
}

impl StreamObjectStore {
    /// Create a store over `plog`; `scm_capacity` provisions a shared SCM
    /// staging device when nonzero (Set-2 hardware in §VII-C).
    pub fn new(plog: Arc<PlogStore>, scm_capacity: u64) -> Self {
        let scm = (scm_capacity > 0)
            .then(|| Arc::new(Device::new(u64::MAX, MediaKind::Scm, scm_capacity)));
        StreamObjectStore {
            plog,
            scm,
            objects: TrackedMutex::new("stream.object.registry", BTreeMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// `CreateServerStreamObject`: allocate a new stream object.
    pub fn create(&self, options: CreateOptions) -> Result<Arc<StreamObject>> {
        if options.slice_capacity == 0 || options.slice_capacity > SLICE_CAPACITY {
            return Err(Error::InvalidArgument(format!(
                "slice_capacity must be in 1..={SLICE_CAPACITY}"
            )));
        }
        let id = ObjectId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let shard = options
            .shard_hint
            .unwrap_or_else(|| self.plog.shard_of(&id.raw().to_be_bytes()));
        let obj = Arc::new(StreamObject {
            id,
            shard,
            slice_capacity: options.slice_capacity,
            scm: options.scm_cache.then(|| self.scm.clone()).flatten(),
            plog: self.plog.clone(),
            state: TrackedMutex::new("stream.object.state", ObjectState::default()),
        });
        self.objects.lock().insert(id, obj.clone());
        Ok(obj)
    }

    /// Look up an object by id.
    pub(crate) fn get(&self, id: ObjectId) -> Result<Arc<StreamObject>> {
        self.objects
            .lock()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("stream object {id}")))
    }

    /// `DestroyServerStreamObject`: drop the object and free its slices.
    ///
    /// Freeing slices stays best-effort (the object is already unpublished
    /// from the registry), but the outcome is reported instead of
    /// swallowed: [`DestroyOutcome::failed_deletes`] counts the slices that
    /// could not be freed, so leaked extents are observable.
    pub fn destroy(&self, id: ObjectId) -> Result<DestroyOutcome> {
        let obj = self
            .objects
            .lock()
            .remove(&id)
            .ok_or_else(|| Error::NotFound(format!("stream object {id}")))?;
        let mut st = obj.state.lock();
        st.destroyed = true;
        let mut outcome = DestroyOutcome::default();
        for s in &st.slices {
            match obj.plog.delete(&s.addr) {
                // Ok(0) means the record was already gone — still freed.
                Ok(_) => outcome.freed_slices += 1,
                Err(_) => outcome.failed_deletes += 1,
            }
        }
        st.slices.clear();
        st.buffer.clear();
        Ok(outcome)
    }

    /// The backing PLog store.
    pub(crate) fn plog(&self) -> &Arc<PlogStore> {
        &self.plog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::size::MIB;
    use common::SimClock;
    use common::ctx::IoCtx;
    use ec::Redundancy;
    use plog::PlogConfig;
    use simdisk::StoragePool;

    fn store(scm: bool) -> StreamObjectStore {
        let pool = Arc::new(StoragePool::new(
            "ssd",
            MediaKind::NvmeSsd,
            4,
            256 * MIB,
            SimClock::new(),
        ));
        let plog = Arc::new(
            PlogStore::new(
                pool,
                PlogConfig {
                    shard_count: 8,
                    redundancy: Redundancy::Replicate { copies: 2 },
                    shard_capacity: 64 * MIB,
                },
            )
            .unwrap(),
        );
        StreamObjectStore::new(plog, if scm { 16 * MIB } else { 0 })
    }

    fn at(t: Nanos) -> IoCtx {
        IoCtx::new(t)
    }

    fn recs(n: usize, start: i64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(format!("k{i}").into_bytes(), vec![b'v'; 64], start + i as i64))
            .collect()
    }

    /// Every record of `obj` from offset 0, asserted gap-free and in
    /// append order (`recs` stamps record i with timestamp i).
    fn assert_reads_back_in_order(obj: &StreamObject, want: usize) {
        let (got, _) = obj.read_at(0, ReadCtrl::default(), &at(0)).unwrap();
        assert_eq!(got.len(), want);
        for (i, (off, r)) in got.iter().enumerate() {
            assert_eq!((*off, r.timestamp), (i as u64, i as i64));
        }
    }

    #[test]
    fn append_assigns_contiguous_offsets() {
        let s = store(false);
        let obj = s.create(CreateOptions::default()).unwrap();
        let a1 = obj.append_at(&recs(10, 0), &at(0)).unwrap();
        let a2 = obj.append_at(&recs(5, 10), &at(0)).unwrap();
        assert_eq!(a1.base_offset, Some(0));
        assert_eq!(a2.base_offset, Some(10));
        assert_eq!(obj.end_offset(), 15);
    }

    #[test]
    fn slices_flush_at_capacity_and_reads_span_slices_and_buffer() {
        let s = store(false);
        let obj = s
            .create(CreateOptions { slice_capacity: 16, ..Default::default() })
            .unwrap();
        obj.append_at(&recs(40, 0), &at(0)).unwrap();
        assert_eq!(obj.slice_count(), 2, "two full slices persisted");
        assert_reads_back_in_order(&obj, 40);
    }

    #[test]
    fn read_from_mid_offset_with_limit() {
        let s = store(false);
        let obj = s
            .create(CreateOptions { slice_capacity: 8, ..Default::default() })
            .unwrap();
        obj.append_at(&recs(30, 0), &at(0)).unwrap();
        let ctrl = ReadCtrl { max_records: 5 };
        let (got, _) = obj.read_at(12, ctrl, &at(0)).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].0, 12);
        assert_eq!(got[4].0, 16);
    }

    #[test]
    fn idempotent_duplicates_are_dropped() {
        let s = store(false);
        let obj = s.create(CreateOptions::default()).unwrap();
        let mut r = Record::new(b"k".to_vec(), b"v".to_vec(), 1);
        r.producer_seq = Some((7, 1));
        obj.append_at(std::slice::from_ref(&r), &at(0)).unwrap();
        // network retry resends the same sequence
        let ack = obj.append_at(std::slice::from_ref(&r), &at(0)).unwrap();
        assert_eq!(ack.base_offset, None, "duplicate must not be re-appended");
        assert_eq!(obj.end_offset(), 1);
        // a gap is an error
        let mut r3 = r.clone();
        r3.producer_seq = Some((7, 5));
        assert!(obj.append_at(&[r3], &at(0)).is_err());
    }

    #[test]
    fn transactional_visibility() {
        let s = store(false);
        let obj = s.create(CreateOptions::default()).unwrap();
        let mut r = Record::new(b"k".to_vec(), b"txn-value".to_vec(), 1);
        r.txn = Some(42);
        obj.append_at(&[r], &at(0)).unwrap();
        obj.append_at(&recs(1, 99), &at(0)).unwrap(); // plain record after

        let ctrl = ReadCtrl::default();
        // LSO semantics: the read stops at the open transaction, hiding it
        // AND everything after it — though both records exist.
        assert_eq!(obj.read_at(0, ctrl, &at(0)).unwrap().0.len(), 0, "open txn blocks");
        assert_eq!(obj.end_offset(), 2);

        obj.commit_txn(42);
        assert_eq!(obj.read_at(0, ctrl, &at(0)).unwrap().0.len(), 2, "commit reveals");
    }

    #[test]
    fn aborted_txn_records_stay_hidden() {
        let s = store(false);
        let obj = s.create(CreateOptions::default()).unwrap();
        let mut r = Record::new(b"k".to_vec(), b"poison".to_vec(), 1);
        r.txn = Some(9);
        obj.append_at(&[r], &at(0)).unwrap();
        obj.abort_txn(9);
        let (got, _) = obj.read_at(0, ReadCtrl::default(), &at(0)).unwrap();
        assert!(got.is_empty());
        assert!(!obj.prepared(9));
    }

    #[test]
    fn destroy_frees_plog_space_and_blocks_access() {
        let s = store(false);
        let obj = s
            .create(CreateOptions { slice_capacity: 4, ..Default::default() })
            .unwrap();
        obj.append_at(&recs(16, 0), &at(0)).unwrap();
        assert!(s.plog().physical_bytes() > 0);
        s.destroy(obj.id()).unwrap();
        assert_eq!(s.plog().physical_bytes(), 0);
        assert!(obj.append_at(&recs(1, 0), &at(0)).is_err());
        assert!(s.get(obj.id()).is_err());
        assert!(s.objects.lock().is_empty());
    }

    #[test]
    fn scm_cache_lowers_ack_latency_at_low_rate() {
        let no_scm = store(false);
        let with_scm = store(true);
        let o1 = no_scm
            .create(CreateOptions { slice_capacity: 4, ..Default::default() })
            .unwrap();
        let o2 = with_scm
            .create(CreateOptions { slice_capacity: 4, scm_cache: true, ..Default::default() })
            .unwrap();
        // Appends spaced far apart: drain backlog stays empty, SCM ack wins.
        let mut lat1 = 0u64;
        let mut lat2 = 0u64;
        for i in 0..8u64 {
            let now = i * common::clock::millis(100);
            let a1 = o1.append_at(&recs(4, 0), &at(now)).unwrap();
            let a2 = o2.append_at(&recs(4, 0), &at(now)).unwrap();
            lat1 += a1.ack_time - now;
            lat2 += a2.ack_time - now;
        }
        assert!(
            lat2 < lat1,
            "scm-staged acks ({lat2}) must beat direct plog acks ({lat1})"
        );
    }

    #[test]
    fn flush_persists_partial_slice() {
        let s = store(false);
        let obj = s.create(CreateOptions::default()).unwrap();
        obj.append_at(&recs(3, 0), &at(0)).unwrap();
        assert_eq!(obj.slice_count(), 0);
        obj.flush_at(&at(0)).unwrap();
        assert_eq!(obj.slice_count(), 1);
        assert!(obj.persisted_bytes() > 0);
        let (got, _) = obj.read_at(0, ReadCtrl::default(), &at(0)).unwrap();
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn batched_append_matches_per_slice_appends() {
        // Same slices, same virtual arrival: the object's grouped append
        // must produce exactly the addresses and ack a twin PLog sees from
        // one `append_to_shard_at` per slice — while paying one index WAL
        // frame for the whole append instead of one per slice.
        let batched = store(false);
        let twin = store(false);
        let obj = batched.create(CreateOptions { slice_capacity: 8, ..Default::default() }).unwrap();
        let records = recs(24, 0);
        let mut expected_ack = 0;
        let mut expected_addrs = Vec::new();
        for slice in records.chunks(8) {
            let (addr, finish) = twin
                .plog()
                .append_to_shard_at(obj.shard, Record::encode_slice(slice), &at(0))
                .unwrap();
            expected_addrs.push(addr);
            expected_ack = finish.max(expected_ack);
        }
        let frames_before = batched.plog().kv().wal_frames();
        let ack = obj.append_at(&records, &at(0)).unwrap();
        assert_eq!(ack, AppendAck { base_offset: Some(0), ack_time: expected_ack });
        assert_eq!(batched.plog().addresses(), expected_addrs);
        assert_eq!(obj.slice_count(), 3);
        assert_eq!(
            batched.plog().kv().wal_frames() - frames_before,
            1,
            "three filled slices must commit under one index WAL frame"
        );
        let (got, _) = obj.read_at(0, ReadCtrl::default(), &at(ack.ack_time)).unwrap();
        assert_eq!(got.into_iter().map(|(_, r)| r).collect::<Vec<_>>(), records);
    }

    #[test]
    fn failed_batched_append_restores_the_buffer() {
        let s = store(false);
        let obj = s.create(CreateOptions { slice_capacity: 4, ..Default::default() }).unwrap();
        for d in 1..4 {
            s.plog().pool_for_tests().device(d).fail();
        }
        // Two filled slices, both doomed: one healthy device cannot hold
        // two replicas.
        let frames_before = s.plog().kv().wal_frames();
        assert!(obj.append_at(&recs(8, 0), &at(0)).is_err());
        assert_eq!(obj.slice_count(), 0);
        assert_eq!(obj.end_offset(), 8, "offsets stay assigned to the buffered records");
        assert_eq!(s.plog().physical_bytes(), 0, "failed group leaked extents");
        assert_eq!(
            s.plog().kv().wal_frames(),
            frames_before,
            "a group with no success must not log an index frame"
        );
        // The records live on in the open buffer: once the pool heals, a
        // flush persists them — still cut at the slice capacity — and reads
        // see every offset.
        for d in 1..4 {
            s.plog().pool_for_tests().device(d).heal();
        }
        obj.flush_at(&at(0)).unwrap();
        assert_eq!(obj.slice_count(), 2, "no slice may exceed its capacity");
        assert_reads_back_in_order(&obj, 8);
    }

    #[test]
    fn sequence_gap_after_a_full_slice_loses_nothing() {
        // Regression: the gap used to return early with the first slice
        // parked in the group committer — never recorded, never readable —
        // while the client's retry was dropped as duplicates.
        for scm in [false, true] {
            let s = store(scm);
            let obj = s
                .create(CreateOptions { slice_capacity: 8, scm_cache: scm, ..Default::default() })
                .unwrap();
            let mut batch = recs(12, 0);
            for (i, r) in batch.iter_mut().enumerate() {
                // Producer 7 sends sequences 1..=10, then skips ahead.
                let seq = if i < 10 { i as u64 + 1 } else { i as u64 + 5 };
                r.producer_seq = Some((7, seq));
            }
            assert!(obj.append_at(&batch, &at(0)).is_err(), "scm={scm}");
            assert_eq!(obj.end_offset(), 10, "the ten records before the gap keep their offsets");
            let retry = obj.append_at(&batch[..10], &at(0)).unwrap();
            assert_eq!(retry.base_offset, None, "the retry is all duplicates");
            obj.flush_at(&at(0)).unwrap();
            assert_reads_back_in_order(&obj, 10);
            assert_eq!(obj.slice_count(), 2, "one full slice and the two-record remainder");
        }
    }

    /// Arm device 2 so that the next write it takes fails *and* tips it
    /// into suspect: placement cannot see the transient outage, so the
    /// next stripe still lands on it, but later stripes steer around it.
    fn fail_exactly_one_write_on_device_2(s: &StreamObjectStore) {
        let dev = s.plog().pool_for_tests().device(2);
        dev.fail_until(millis(1));
        for _ in 1..simdisk::device::SUSPECT_FAULT_THRESHOLD {
            dev.note_corruption();
        }
    }

    #[test]
    fn mid_group_failure_keeps_order_and_loses_nothing() {
        let s = store(false);
        let obj = s.create(CreateOptions { slice_capacity: 4, ..Default::default() }).unwrap();
        // A fresh pool places by most-free, ties by index: slice 0 lands on
        // devices (0, 1), slice 1 on (2, 3) and fails, slice 2 — device 2
        // now suspect — on (3, 0) and succeeds behind the failure.
        fail_exactly_one_write_on_device_2(&s);
        let err = obj.append_at(&recs(12, 0), &at(0)).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err:?}");
        assert_eq!(obj.slice_count(), 1, "only the slice before the failure is recorded");
        assert_eq!(s.plog().record_count(), 1, "the third slice must be rolled back");
        assert_eq!(s.plog().physical_bytes(), 2 * obj.persisted_bytes());
        {
            let st = obj.state.lock();
            assert_eq!(st.buffer_base, 4);
            assert_eq!(st.buffer_base + st.buffer.len() as u64, st.next_offset);
        }
        assert_reads_back_in_order(&obj, 12);
        s.plog().pool_for_tests().device(2).heal();
        obj.flush_at(&at(0)).unwrap();
        assert!(obj.state.lock().buffer.is_empty());
        assert_reads_back_in_order(&obj, 12);
    }

    #[test]
    fn failed_scm_drain_keeps_the_slice_buffered() {
        let s = store(true);
        let obj = s
            .create(CreateOptions { slice_capacity: 4, scm_cache: true, ..Default::default() })
            .unwrap();
        fail_exactly_one_write_on_device_2(&s);
        // Slices drain one at a time: the second drain fails, the third
        // slice is never attempted, and all twelve offsets stay assigned.
        assert!(obj.append_at(&recs(12, 0), &at(0)).is_err());
        assert_eq!(obj.slice_count(), 1);
        assert_eq!(obj.end_offset(), 12);
        assert_reads_back_in_order(&obj, 12);
        s.plog().pool_for_tests().device(2).heal();
        obj.flush_at(&at(0)).unwrap();
        assert_eq!(obj.slice_count(), 3);
        assert_reads_back_in_order(&obj, 12);
    }

    /// The read path as a plain walk over every record ever appended:
    /// offsets below `first_kept` are truncated, an open transaction stops
    /// the scan and an aborted one is skipped.
    fn linear_read(
        all: &[Record],
        first_kept: u64,
        open: &BTreeSet<u64>,
        aborted: &BTreeSet<u64>,
        offset: u64,
        max_records: usize,
    ) -> Vec<(u64, Record)> {
        let mut out = Vec::new();
        for (off, r) in (0u64..).zip(all).skip_while(|(off, _)| *off < offset.max(first_kept)) {
            if out.len() >= max_records {
                break;
            }
            match r.txn {
                Some(t) if open.contains(&t) => break,
                Some(t) if aborted.contains(&t) => {}
                _ => out.push((off, r.clone())),
            }
        }
        out
    }

    #[test]
    fn read_at_matches_a_linear_walk_over_every_offset() {
        let s = store(false);
        let obj = s.create(CreateOptions::default()).unwrap();
        // Txn 7 (aborted) spans the truncation point and ten slices, txn 8
        // commits, txn 9 stays open from a persisted slice into the tail.
        let txn_of = |off: u64| match off {
            20..=45 if off.is_multiple_of(5) => Some(7),
            60..=62 => Some(8),
            250 | 260 | 310 => Some(9),
            _ => None,
        };
        let mut all = recs(340, 0);
        for (off, r) in (0u64..).zip(all.iter_mut()) {
            r.txn = txn_of(off);
        }
        // 300 one-record slices, then a 40-record tail left in the buffer.
        for r in &all[..300] {
            obj.append_at(std::slice::from_ref(r), &at(0)).unwrap();
            obj.flush_at(&at(0)).unwrap();
        }
        obj.append_at(&all[300..], &at(0)).unwrap();
        assert_eq!((obj.slice_count(), obj.end_offset()), (300, 340));
        obj.commit_txn(8);
        obj.abort_txn(7);
        assert_eq!(obj.truncate_before(30), 30);
        let open = BTreeSet::from([9]);
        let aborted = BTreeSet::from([7]);
        for offset in 0..obj.end_offset() + 3 {
            for max_records in [0, 1, 3, 64, usize::MAX] {
                let (got, _) = obj.read_at(offset, ReadCtrl { max_records }, &at(0)).unwrap();
                let want = linear_read(&all, 30, &open, &aborted, offset, max_records);
                assert_eq!(got, want, "offset {offset}, max_records {max_records}");
            }
        }
    }

    #[test]
    fn create_rejects_bad_slice_capacity() {
        let s = store(false);
        assert!(s.create(CreateOptions { slice_capacity: 0, ..Default::default() }).is_err());
        assert!(s
            .create(CreateOptions { slice_capacity: 1000, ..Default::default() })
            .is_err());
    }
}
