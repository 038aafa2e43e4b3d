//! The PLog store: sharded, redundancy-encoded, index-backed appends.
//!
//! Integrity: every stored shard is covered by a CRC32 kept in the KV
//! index entry (not inlined into the shard, so the zero-copy write path
//! stays copy-free). Reads verify each shard they touch, demote
//! checksum-failed shards to redundancy fallback, surface unrecoverable
//! damage as [`Error::Corruption`], and write healed content back over
//! rotten shards on live devices.

use crate::placement::shard_for;
use crate::workers::WorkerPool;
use common::checksum::crc32;
use common::clock::Nanos;
use common::ctx::{IoCtx, Phase, QosClass};
use common::metrics::Metrics;
use common::varint::Reader;
use common::{Bytes, Error, Result};
use ec::{Redundancy, Stripe};
use kvstore::SharedKv;
use simdisk::pool::{ExtentHandle, StoragePool};
use std::sync::Arc;
use common::lockwitness::TrackedMutex;

/// Per-shard work below this size stays inline: fanning it across the
/// worker pool costs more in handoff than the hash or device call saves.
const FAN_BYTES: usize = 32 * 1024;

/// Configuration of a [`PlogStore`].
#[derive(Debug, Clone, Copy)]
pub struct PlogConfig {
    /// Number of logical shards (paper default 4096; tests use fewer).
    pub shard_count: usize,
    /// Redundancy applied to every appended record.
    pub redundancy: Redundancy,
    /// Logical address space per shard (paper: 128 MiB).
    pub shard_capacity: u64,
}

impl Default for PlogConfig {
    fn default() -> Self {
        PlogConfig {
            shard_count: crate::placement::DEFAULT_SHARD_COUNT,
            redundancy: Redundancy::Replicate { copies: 3 },
            shard_capacity: 128 * 1024 * 1024,
        }
    }
}

/// A durable address returned by [`PlogStore::append_to_shard_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlogAddress {
    /// Logical shard holding the record.
    pub shard: u32,
    /// Byte offset within the shard's address space.
    pub offset: u64,
    /// Logical record length.
    pub len: u64,
}

impl PlogAddress {
    /// Serialize for callers that keep addresses in their own KV indexes
    /// (three varints: shard, offset, len).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20);
        common::varint::encode_u64(self.shard as u64, &mut out);
        common::varint::encode_u64(self.offset, &mut out);
        common::varint::encode_u64(self.len, &mut out);
        out
    }

    /// Decode a buffer produced by [`encode`](Self::encode).
    pub fn decode(buf: &[u8]) -> Result<PlogAddress> {
        let mut r = Reader::new(buf, "plog address");
        let shard = u32::try_from(r.u64()?)
            .map_err(|_| Error::Corruption("plog address shard overflows u32".into()))?;
        let addr = PlogAddress { shard, offset: r.u64()?, len: r.u64()? };
        r.finish()?;
        Ok(addr)
    }

    pub(crate) fn index_key(&self) -> Vec<u8> {
        let mut k = Vec::with_capacity(16);
        k.extend_from_slice(b"plog/");
        k.extend_from_slice(&self.shard.to_be_bytes());
        k.push(b'/');
        k.extend_from_slice(&self.offset.to_be_bytes());
        k
    }
}

#[derive(Debug, Default)]
struct ShardState {
    next_offset: u64,
}

/// A decoded index entry: where the record's shards live plus the CRC32 of
/// each stored shard (`crcs.len() == handle.shards.len()`, enforced by
/// `decode_entry`).
#[derive(Debug, Clone)]
struct IndexEntry {
    handle: ExtentHandle,
    crcs: Vec<u32>,
}

/// What a scrub pass found (and fixed) for one record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordHealth {
    /// Total shard slots of the record.
    pub shards: u64,
    /// Shards unreadable (failed/unreachable device).
    pub missing: u64,
    /// Shards read but checksum-failed.
    pub corrupt: u64,
    /// Corrupt shards rewritten in place on their live device.
    pub healed_in_place: u64,
    /// Whether the whole record was re-encoded onto healthy devices.
    pub reencoded: bool,
    /// Virtual completion time of the pass.
    pub finish: Nanos,
}

impl RecordHealth {
    /// Nothing missing, nothing rotten.
    pub fn is_clean(&self) -> bool {
        self.missing == 0 && self.corrupt == 0
    }
}

/// The sharded persistence-log store.
///
/// Every append is routed by key to a shard, encoded under the configured
/// redundancy, written as one extent (shards on distinct devices) into the
/// backing pool, and indexed in a key-value store so reads are a single
/// lookup regardless of shard size.
#[derive(Debug)]
pub struct PlogStore {
    pool: Arc<StoragePool>,
    config: PlogConfig,
    shards: Vec<TrackedMutex<ShardState>>,
    index: SharedKv,
    metrics: Metrics,
    workers: Option<Arc<WorkerPool>>,
}

impl PlogStore {
    /// Create a store over `pool` with the given configuration.
    pub fn new(pool: Arc<StoragePool>, config: PlogConfig) -> Result<Self> {
        if config.shard_count == 0 {
            return Err(Error::InvalidArgument("shard_count must be positive".into()));
        }
        let shards = (0..config.shard_count)
            .map(|_| TrackedMutex::new("plog.shard", ShardState::default()))
            .collect();
        Ok(PlogStore {
            pool,
            config,
            shards,
            index: SharedKv::new(),
            metrics: Metrics::new(),
            workers: None,
        })
    }

    /// Attach a worker pool: stripe writes and verification fan per-shard
    /// work across it instead of running sequentially on the caller's
    /// thread. Virtual-time figures are unchanged — only host latency.
    pub fn with_workers(mut self, workers: Arc<WorkerPool>) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Record integrity counters (`plog.*`) into `metrics` instead of a
    /// private registry (used by the deployment to share one registry).
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// The metrics registry integrity counters are recorded into.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The store configuration.
    pub fn config(&self) -> &PlogConfig {
        &self.config
    }

    /// The shard that owns `routing_key`.
    pub fn shard_of(&self, routing_key: &[u8]) -> u32 {
        shard_for(routing_key, self.config.shard_count) as u32
    }

    /// Append `record` to `shard` (callers route by key with
    /// [`shard_of`](Self::shard_of); stream objects own their shard
    /// assignment): the redundancy shards are written concurrently under
    /// `ctx` (deadline, QoS lane and span phases apply). Returns the durable
    /// address and the completion time (latest shard finish). Takes the
    /// payload by handle: passing an owned `Bytes`/`Vec<u8>` moves it
    /// through encode and placement without a single payload copy.
    ///
    /// This is [`append_group`](Self::append_group) with a group of one.
    pub fn append_to_shard_at(
        &self,
        shard: u32,
        record: impl Into<Bytes>,
        ctx: &IoCtx,
    ) -> Result<(PlogAddress, Nanos)> {
        self.append_group(&[(shard, record.into(), ctx)])
            .pop()
            .unwrap_or_else(|| Err(Error::Io("append produced no outcome".into())))
    }

    /// The append routine — the only place records enter the store. For
    /// each `(shard, record, ctx)` of the group, in order: encode +
    /// checksum, reserve address space, write the stripe, and on failure
    /// roll the reservation back; then one batched index put covering every
    /// success (a single WAL frame however large the group). Outcomes come
    /// back in group order and fail independently. A caller that holds
    /// several records at once (a stream object whose append filled several
    /// slices) passes them as one group; a lone record is a group of one.
    ///
    /// Address space is reserved per record *immediately before* its stripe
    /// write, so a failed write undoes exactly its own reservation — no
    /// later record has reserved behind it yet — and a rejected (e.g.
    /// past-deadline or pool-full) append can be retried without leaking
    /// the shard. Each record's virtual timing depends only on its own
    /// `ctx`, never on what it was grouped with.
    ///
    /// Host-side fan-out with workers attached: a multi-record group
    /// encodes its records across the pool (results join in group order); a
    /// lone record fans its shards' CRCs instead. CRC fanning is off inside
    /// a record job — the job may itself be on a worker, and a nested
    /// scatter could deadlock a fully busy pool.
    pub fn append_group(
        &self,
        group: &[(u32, Bytes, &IoCtx)],
    ) -> Vec<Result<(PlogAddress, Nanos)>> {
        let redundancy = self.config.redundancy;
        let inline = || -> Vec<Result<(Stripe, Vec<u32>)>> {
            group
                .iter()
                .map(|(_, record, _)| encode_record(record.clone(), redundancy, self.workers.as_deref()))
                .collect()
        };
        let encoded = match &self.workers {
            Some(w) if group.len() >= 2 => {
                let jobs: Vec<_> = group
                    .iter()
                    .map(|(_, record, _)| {
                        let record = record.clone();
                        move || encode_record(record, redundancy, None)
                    })
                    .collect();
                // A lost worker must not lose the group: redo the pure work
                // inline.
                w.scatter(jobs).unwrap_or_else(|_| inline())
            }
            _ => inline(),
        };
        let mut entries = Vec::with_capacity(group.len());
        let mut outcomes = Vec::with_capacity(group.len());
        for ((shard, record, ctx), enc) in group.iter().zip(encoded) {
            outcomes.push(enc.and_then(|(stripe, crcs)| {
                let addr = self.reserve(*shard, record.len() as u64)?;
                match self.write_stripe_ctx(&stripe, ctx) {
                    Ok((handle, finish)) => {
                        entries.push((addr.index_key(), encode_entry(&handle, addr.len, &crcs)));
                        Ok((addr, finish))
                    }
                    Err(e) => {
                        self.rollback_reservation(&addr);
                        Err(e)
                    }
                }
            }));
        }
        if !entries.is_empty() {
            self.index.put_batch(entries);
        }
        outcomes
    }

    /// Reserve `len` bytes of address space on `shard` — the first half of
    /// an append.
    fn reserve(&self, shard: u32, len: u64) -> Result<PlogAddress> {
        let mut st = self.shards[shard as usize].lock();
        if st.next_offset + len > self.config.shard_capacity {
            return Err(Error::CapacityExhausted(format!(
                "plog shard {shard} address space full ({} of {})",
                st.next_offset, self.config.shard_capacity
            )));
        }
        let addr = PlogAddress { shard, offset: st.next_offset, len };
        st.next_offset += len;
        Ok(addr)
    }

    /// Undo an address-space reservation after a failed write, if no later
    /// append has already extended the shard past it.
    fn rollback_reservation(&self, addr: &PlogAddress) {
        let mut st = self.shards[addr.shard as usize].lock();
        if st.next_offset == addr.offset + addr.len {
            st.next_offset = addr.offset;
        }
    }

    /// Read the record at `addr`; returns it with the completion time,
    /// reconstructing from surviving redundancy shards when devices have
    /// failed or stored bytes have rotted. Every shard read is
    /// checksum-verified; corrupt shards never reach the caller.
    /// A blown `ctx` deadline surfaces as [`Error::DeadlineExceeded`];
    /// individual shard faults and checksum failures degrade to redundancy
    /// reconstruction (unrecoverable checksum damage is
    /// [`Error::Corruption`]). Checksum-failed shards on live devices are
    /// healed in the background of the read: the write-back runs at
    /// Maintenance QoS with the reader's deadline cleared.
    pub fn read_at(&self, addr: &PlogAddress, ctx: &IoCtx) -> Result<(Bytes, Nanos)> {
        let entry = self.lookup_entry(addr)?;
        let (mut survivors, finish) = self.pool.read_shards_ctx(&entry.handle, ctx)?;
        let corrupt = self.verify_shards(&entry, &mut survivors);
        let missing = survivors.iter().filter(|s| s.is_none()).count();
        let data = Stripe::decode(self.config.redundancy, addr.len as usize, &survivors)
            .map_err(|e| corruption_or(e, &corrupt))?;
        if missing > 0 {
            self.metrics.incr("plog.fallback_reads", 1);
        }
        if !corrupt.is_empty() {
            let heal_ctx = ctx.at(finish).with_qos(QosClass::Maintenance).without_deadline();
            self.heal_in_place(&entry, &corrupt, &data, &heal_ctx);
        }
        Ok((data, finish))
    }

    /// Delete the record at `addr`, returning the physical bytes freed.
    ///
    /// Idempotent: deleting an absent record is `Ok(0)`. An index entry
    /// that is *present but undecodable* is corruption, not absence — the
    /// garbage entry is dropped (its extents cannot be located and may leak
    /// until pool GC) and [`Error::Corruption`] is returned so callers can
    /// tell the two apart.
    pub fn delete(&self, addr: &PlogAddress) -> Result<u64> {
        let _shard_guard = self.shards[addr.shard as usize].lock();
        let Some(bytes) = self.index.get(&addr.index_key()) else {
            return Ok(0);
        };
        let (handle, len, _crcs) = match decode_entry(&bytes) {
            Ok(entry) => entry,
            Err(e) => {
                self.index.delete(addr.index_key());
                self.metrics.incr("plog.corrupt_index_entries", 1);
                return Err(Error::Corruption(format!(
                    "plog index entry for {addr:?} undecodable ({e}); extents may leak"
                )));
            }
        };
        self.pool.delete(&handle);
        self.index.delete(addr.index_key());
        Ok(self.config.redundancy.stored_bytes(len))
    }

    /// Verify every shard of `addr` and restore full redundancy (the scrub
    /// work unit, Maintenance QoS expected on `ctx`).
    ///
    /// Checksum-failed shards on live devices are rewritten in place;
    /// missing shards (failed/unreachable devices) force a full re-encode
    /// onto healthy devices. That re-place is safe against a concurrent
    /// [`delete`](Self::delete): the new index entry is committed under the
    /// shard lock only if the record still exists; when it vanished
    /// mid-heal the freshly written extent is rolled back instead of
    /// resurrecting the record.
    pub fn verify_and_heal(&self, addr: &PlogAddress, ctx: &IoCtx) -> Result<RecordHealth> {
        self.verify_and_heal_with_hook(addr, ctx, || {})
    }

    /// `verify_and_heal` with a test hook running between the re-encoded
    /// extent's write and the index commit — the window a concurrent
    /// `delete` can land in.
    fn verify_and_heal_with_hook(
        &self,
        addr: &PlogAddress,
        ctx: &IoCtx,
        between: impl FnOnce(),
    ) -> Result<RecordHealth> {
        let entry = self.lookup_entry(addr)?;
        let (mut survivors, finish) = self.pool.read_shards_ctx(&entry.handle, ctx)?;
        let corrupt = self.verify_shards(&entry, &mut survivors);
        let none_count = survivors.iter().filter(|s| s.is_none()).count() as u64;
        let mut health = RecordHealth {
            shards: survivors.len() as u64,
            corrupt: corrupt.len() as u64,
            missing: none_count - corrupt.len() as u64,
            finish,
            ..Default::default()
        };
        if health.is_clean() {
            return Ok(health);
        }
        let data = Stripe::decode(self.config.redundancy, addr.len as usize, &survivors)
            .map_err(|e| corruption_or(e, &corrupt))?;
        if health.missing > 0 {
            // Shards are gone, not just rotten: re-place the whole record.
            let (stripe, crcs) =
                encode_record(data, self.config.redundancy, self.workers.as_deref())?;
            let (new_handle, wfinish) =
                self.pool.write_shards_ctx(&stripe.shards, &ctx.at(health.finish))?;
            health.finish = wfinish;
            between();
            if self.commit_reindex(addr, &new_handle, &crcs) {
                self.pool.delete(&entry.handle);
                self.metrics.incr("plog.records_reencoded", 1);
                health.reencoded = true;
            } else {
                self.pool.delete(&new_handle);
            }
        } else {
            (health.healed_in_place, health.finish) =
                self.heal_in_place(&entry, &corrupt, &data, &ctx.at(health.finish));
        }
        Ok(health)
    }

    /// Swap `addr`'s index entry to `new_handle` iff the record still
    /// exists; `false` means a concurrent delete won and nothing was put.
    fn commit_reindex(&self, addr: &PlogAddress, new_handle: &ExtentHandle, crcs: &[u32]) -> bool {
        let _shard_guard = self.shards[addr.shard as usize].lock();
        if self.index.get(&addr.index_key()).is_none() {
            return false;
        }
        self.index.put(addr.index_key(), encode_entry(new_handle, addr.len, crcs));
        true
    }

    /// Verify surviving shards against the entry's CRCs; checksum-failed
    /// shards are demoted to `None` (attributed to their device, counted)
    /// and their indices returned.
    fn verify_shards(&self, entry: &IndexEntry, survivors: &mut [Option<Bytes>]) -> Vec<usize> {
        // One coalesced pass over the stripe: aliased replicas share one
        // digest and the per-slot checks below stay in slot order. Reads
        // hash inline: with the carry-less CRC kernel a 100 KB shard
        // digests in microseconds, and scattering a stripe's shards over
        // the worker pool measured slower end to end (EXPERIMENTS.md
        // "Columnar lake reads").
        let digests = coalesced_digests(survivors, None);
        let mut corrupt = Vec::new();
        for (i, slot) in survivors.iter_mut().enumerate() {
            let Some(crc) = digests[i] else { continue };
            self.metrics.incr("plog.shards_verified", 1);
            if entry.crcs.get(i) != Some(&crc) {
                self.metrics.incr("plog.corruptions_detected", 1);
                self.pool.note_corruption(&entry.handle, i);
                corrupt.push(i);
                *slot = None;
            }
        }
        corrupt
    }

    /// Write an encoded stripe under `ctx`: plan the placement, run the
    /// per-shard writes — inline in shard order, stopping at the first
    /// failure, or as one job per shard when a worker pool is attached and
    /// the stripe is big enough to be worth fanning — then one tail for
    /// both: replay spans, roll back on failure.
    ///
    /// Determinism: shard writes run with span recording detached
    /// ([`IoCtx::without_sink`]) and this thread replays each shard's
    /// queue/device spans **in shard order**, stopping at the first failing
    /// shard, so the sink's windowed histograms observe one sample sequence
    /// whichever way the writes ran. Virtual timing is identical too:
    /// planned per-shard writes charge distinct per-device queues from the
    /// same `ctx.now`.
    fn write_stripe_ctx(&self, stripe: &Stripe, ctx: &IoCtx) -> Result<(ExtentHandle, Nanos)> {
        let plan = self.pool.plan_shards(stripe.shards.len())?;
        let quiet = ctx.clone().without_sink();
        let fan = self.workers.as_ref().filter(|w| {
            w.threads() > 1
                && stripe.shards.len() >= 2
                && stripe.shards.iter().map(|s| s.len()).max().unwrap_or(0) >= FAN_BYTES
        });
        let results = match fan {
            Some(workers) => {
                let jobs: Vec<_> = stripe
                    .shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let pool = Arc::clone(&self.pool);
                        let plan = plan.clone();
                        let s = s.clone();
                        let ctx = quiet.clone();
                        move || pool.write_planned_shard(&plan, i, s, &ctx)
                    })
                    .collect();
                workers.scatter(jobs).unwrap_or_else(|e| vec![Err(e)])
            }
            None => {
                let mut results = Vec::with_capacity(stripe.shards.len());
                for (i, s) in stripe.shards.iter().enumerate() {
                    results.push(self.pool.write_planned_shard(&plan, i, s.clone(), &quiet));
                    if results.last().is_some_and(|r| r.is_err()) {
                        break;
                    }
                }
                results
            }
        };
        let mut finish = ctx.now;
        for r in results {
            match r {
                Ok(t) => {
                    ctx.record(Phase::Queue, ctx.now, t.start.saturating_sub(ctx.now));
                    ctx.record(Phase::Device, t.start, t.finish.saturating_sub(t.start));
                    finish = finish.max(t.finish);
                }
                Err(e) => {
                    // Shards placed before (or, when fanned, after) the
                    // failing one are rolled back with the plan.
                    self.pool.delete(&plan.handle());
                    return Err(e);
                }
            }
        }
        Ok((plan.handle(), finish))
    }

    /// Write verified content back over checksum-failed shards sitting on
    /// live devices; returns how many were healed and the latest rewrite
    /// finish. Best effort: a failed heal is counted, never surfaced — the
    /// reader already has its data and the scrubber will retry.
    fn heal_in_place(
        &self,
        entry: &IndexEntry,
        corrupt: &[usize],
        data: &Bytes,
        ctx: &IoCtx,
    ) -> (u64, Nanos) {
        let (mut healed, mut finish) = (0, ctx.now);
        let Ok(stripe) = Stripe::encode(data.clone(), self.config.redundancy) else {
            return (healed, finish);
        };
        for &i in corrupt {
            let Some(shard) = stripe.shards.get(i) else { continue };
            match self.pool.rewrite_shard_ctx(&entry.handle, i, shard.clone(), ctx) {
                Ok(wfinish) => {
                    finish = finish.max(wfinish);
                    healed += 1;
                    self.metrics.incr("plog.shards_healed", 1);
                }
                Err(_) => self.metrics.incr("plog.heal_failures", 1),
            }
        }
        (healed, finish)
    }

    /// The backing storage pool (fault injection in tests).
    pub fn pool_for_tests(&self) -> &Arc<StoragePool> {
        &self.pool
    }

    /// The deployment's one metadata store: this PLog's KV index, its own
    /// entries under `plog/`, every service built over the PLog under a
    /// prefix of its own (DESIGN.md, "One metadata home").
    pub fn kv(&self) -> &SharedKv {
        &self.index
    }

    /// Logical bytes appended per shard (for balance inspection).
    pub fn shard_usage(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.lock().next_offset).collect()
    }

    /// Number of indexed records (the `plog/` keys of the store).
    pub fn record_count(&self) -> usize {
        let mut n = 0;
        self.index.scan_prefix_with(b"plog/", &mut |_, _| {
            n += 1;
            true
        });
        n
    }

    /// All indexed addresses, in (shard, offset) order. Used by the
    /// replication service to enumerate what needs copying.
    pub fn addresses(&self) -> Vec<PlogAddress> {
        Self::parse_index_entries(self.index.scan_prefix(b"plog/"))
    }

    /// Indexed addresses of `shard` with `offset >= from`, in offset order.
    ///
    /// This is the incremental-replication cursor: a caller that remembers
    /// the highest offset it has seen per shard pays one bounded range scan
    /// per cycle instead of decoding the whole index.
    pub fn addresses_from(&self, shard: u32, from: u64) -> Vec<PlogAddress> {
        let lo = PlogAddress { shard, offset: from, len: 0 }.index_key();
        // One byte past the '/' separator upper-bounds every key of `shard`
        // without touching the next shard's prefix.
        let mut hi = Vec::with_capacity(10);
        hi.extend_from_slice(b"plog/");
        hi.extend_from_slice(&shard.to_be_bytes());
        hi.push(b'/' + 1);
        Self::parse_index_entries(self.index.scan_range(&lo, &hi))
    }

    fn parse_index_entries(entries: Vec<(Vec<u8>, Vec<u8>)>) -> Vec<PlogAddress> {
        entries
            .into_iter()
            .filter_map(|(k, v)| {
                // key layout: "plog/" + shard be-bytes + '/' + offset be-bytes
                let shard_bytes: [u8; 4] = k.get(5..9)?.try_into().ok()?;
                let offset_bytes: [u8; 8] = k.get(10..18)?.try_into().ok()?;
                let (_handle, len, _crcs) = decode_entry(&v).ok()?;
                Some(PlogAddress {
                    shard: u32::from_be_bytes(shard_bytes),
                    offset: u64::from_be_bytes(offset_bytes),
                    len,
                })
            })
            .collect()
    }

    /// Physical bytes stored in the backing pool.
    pub fn physical_bytes(&self) -> u64 {
        self.pool.used()
    }

    fn lookup_entry(&self, addr: &PlogAddress) -> Result<IndexEntry> {
        let bytes = self
            .index
            .get(&addr.index_key())
            .ok_or_else(|| Error::NotFound(format!("plog address {addr:?}")))?;
        let (handle, _len, crcs) = decode_entry(&bytes)?;
        Ok(IndexEntry { handle, crcs })
    }
}

/// Encode + checksum one record — the pure, fannable half of an append.
/// Replication hashes the payload once and reuses the digest; erasure
/// coding hashes each distinct shard, across `workers` when given.
fn encode_record(
    record: Bytes,
    redundancy: Redundancy,
    workers: Option<&WorkerPool>,
) -> Result<(Stripe, Vec<u32>)> {
    let stripe = Stripe::encode(record, redundancy)?;
    let slots: Vec<Option<Bytes>> = stripe.shards.iter().map(|s| Some(s.clone())).collect();
    let crcs =
        coalesced_digests(&slots, workers).into_iter().map(|d| d.unwrap_or_default()).collect();
    Ok((stripe, crcs))
}

/// One coalesced CRC pass over a set of shard slots: each *distinct*
/// buffer is hashed exactly once and its digest reused for every slot
/// aliasing it (replication clones one handle `copies` times; the device
/// model's rot injection is copy-on-write, so aliased slots are byte-
/// identical by construction). Distinct buffers above [`FAN_BYTES`] are
/// hashed across `workers` when a pool is given (the append path);
/// digests come back in slot order either way.
fn coalesced_digests(
    slots: &[Option<Bytes>],
    workers: Option<&WorkerPool>,
) -> Vec<Option<u32>> {
    let mut distinct: Vec<Bytes> = Vec::new();
    let mut slot_map: Vec<Option<usize>> = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot {
            None => slot_map.push(None),
            Some(b) => {
                let key = (b.as_slice().as_ptr() as usize, b.len());
                let idx = distinct
                    .iter()
                    .position(|d| (d.as_slice().as_ptr() as usize, d.len()) == key)
                    .unwrap_or_else(|| {
                        distinct.push(b.clone());
                        distinct.len() - 1
                    });
                slot_map.push(Some(idx));
            }
        }
    }
    let inline = |bufs: &[Bytes]| bufs.iter().map(|b| crc32(b.as_slice())).collect::<Vec<u32>>();
    let fan = workers
        .filter(|w| w.threads() > 1)
        .filter(|_| distinct.len() >= 2 && distinct.iter().any(|b| b.len() >= FAN_BYTES));
    let crcs = match fan {
        Some(w) => {
            let jobs: Vec<_> = distinct
                .iter()
                .map(|b| {
                    let b = b.clone();
                    move || crc32(b.as_slice())
                })
                .collect();
            match w.scatter(jobs) {
                Ok(v) => v,
                // A lost worker only costs the parallelism: hash inline.
                Err(_) => inline(&distinct),
            }
        }
        None => inline(&distinct),
    };
    slot_map.into_iter().map(|m| m.map(|i| crcs[i])).collect()
}

/// Attribute an unrecoverable decode to checksum damage when verification
/// demoted shards: the caller should see [`Error::Corruption`], not a
/// generic redundancy failure.
fn corruption_or(e: Error, corrupt: &[usize]) -> Error {
    match e {
        Error::Unrecoverable(msg) if !corrupt.is_empty() => Error::Corruption(format!(
            "{msg}; {} shard(s) failed checksum verification: {corrupt:?}",
            corrupt.len()
        )),
        other => other,
    }
}

/// Index entry frame: `varint(logical_len) ++ handle ++ crc32[shards] (4-byte
/// LE each)`. A checksum block of any length other than exactly
/// `4 * shard_count` — including a missing one — is corruption: an entry
/// without its CRCs would read back unverified.
fn encode_entry(h: &ExtentHandle, logical_len: u64, crcs: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + h.shards.len() * 12 + crcs.len() * 4);
    common::varint::encode_u64(logical_len, &mut out);
    out.extend_from_slice(&encode_handle(h));
    for &c in crcs {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out
}

fn decode_entry(buf: &[u8]) -> Result<(ExtentHandle, u64, Vec<u32>)> {
    let mut r = Reader::new(buf, "plog index entry");
    let len = r.u64()?;
    let handle = decode_handle(&mut r)?;
    if r.remaining() != handle.shards.len() * 4 {
        return Err(Error::Corruption(format!(
            "index entry checksum block is {} bytes, want {} for {} shards",
            r.remaining(),
            handle.shards.len() * 4,
            handle.shards.len()
        )));
    }
    let crcs = r.bytes(r.remaining())?.as_chunks().0.iter().copied().map(u32::from_le_bytes).collect();
    Ok((handle, len, crcs))
}

fn encode_handle(h: &ExtentHandle) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + h.shards.len() * 12);
    common::varint::encode_u64(h.id, &mut out);
    common::varint::encode_u64(h.shards.len() as u64, &mut out);
    for &(dev, ext) in &h.shards {
        common::varint::encode_u64(dev as u64, &mut out);
        common::varint::encode_u64(ext, &mut out);
    }
    out
}

fn decode_handle(r: &mut Reader<'_>) -> Result<ExtentHandle> {
    let id = r.u64()?;
    // A shard is two varints: device and extent.
    let count = r.count(2)?;
    let mut shards = Vec::with_capacity(count);
    for _ in 0..count {
        let dev = usize::try_from(r.u64()?)
            .map_err(|_| Error::Corruption("device index overflows usize".into()))?;
        shards.push((dev, r.u64()?));
    }
    Ok(ExtentHandle { id, shards })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use common::size::MIB;
    use common::SimClock;
    use simdisk::MediaKind;

    fn store(redundancy: Redundancy, devices: usize) -> PlogStore {
        let pool = Arc::new(StoragePool::new(
            "pool",
            MediaKind::NvmeSsd,
            devices,
            64 * MIB,
            SimClock::new(),
        ));
        PlogStore::new(
            pool,
            PlogConfig { shard_count: 16, redundancy, shard_capacity: 8 * MIB },
        )
        .unwrap()
    }

    /// Key-routed append at virtual time zero, for tests (crate-wide) that
    /// assert on content and counters rather than timing.
    pub(crate) fn put(s: &PlogStore, key: &[u8], record: impl Into<Bytes>) -> Result<PlogAddress> {
        s.append_to_shard_at(s.shard_of(key), record, &IoCtx::new(0)).map(|(addr, _)| addr)
    }

    /// Read-side twin of [`put`].
    pub(crate) fn get(s: &PlogStore, addr: &PlogAddress) -> Result<Bytes> {
        s.read_at(addr, &IoCtx::new(0)).map(|(data, _)| data)
    }

    #[test]
    fn address_codec_roundtrips_and_rejects_truncation() {
        let addr = PlogAddress { shard: 4095, offset: u64::MAX - 7, len: 1 << 40 };
        let bytes = addr.encode();
        assert_eq!(PlogAddress::decode(&bytes).unwrap(), addr);
        for cut in 0..bytes.len() {
            assert!(PlogAddress::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A shard past u32 is not truncated onto another, and a byte past
        // the three varints is not ignored.
        let mut wide = Vec::new();
        for v in [(1u64 << 32) + 1, 0, 1] {
            common::varint::encode_u64(v, &mut wide);
        }
        assert!(matches!(PlogAddress::decode(&wide), Err(Error::Corruption(_))));
        let mut trailing = addr.encode();
        trailing.push(0);
        assert!(matches!(PlogAddress::decode(&trailing), Err(Error::Corruption(_))));
    }

    #[test]
    fn append_read_roundtrip_replicated() {
        let s = store(Redundancy::Replicate { copies: 3 }, 4);
        let addr = put(&s, b"topic-a/slice-1", b"hello streamlake").unwrap();
        assert_eq!(get(&s, &addr).unwrap(), b"hello streamlake");
        assert_eq!(s.record_count(), 1);
    }

    #[test]
    fn replicated_append_is_at_most_one_payload_copy() {
        // The zero-copy contract end to end: handing the store an owned
        // buffer, 3-way replication stores three refcounted handles over the
        // ONE buffer — no per-replica memcpy anywhere in plog/ec/simdisk.
        let s = store(Redundancy::Replicate { copies: 3 }, 4);
        let payload = vec![7u8; 64 * 1024];
        let before = common::bytes::payload_copies();
        put(&s, b"hot/key", payload).unwrap();
        let copies = common::bytes::payload_copies() - before;
        assert!(copies <= 1, "3-way replicated append made {copies} payload copies");
    }

    #[test]
    fn replicated_read_is_zero_copy() {
        let s = store(Redundancy::Replicate { copies: 3 }, 4);
        let addr = put(&s, b"hot/key", vec![9u8; 32 * 1024]).unwrap();
        let before = common::bytes::payload_copies();
        let back = get(&s, &addr).unwrap();
        assert_eq!(
            common::bytes::payload_copies(),
            before,
            "replicated read must return a refcounted handle, not a copy"
        );
        assert_eq!(back.len(), 32 * 1024);
    }

    #[test]
    fn append_read_roundtrip_erasure_coded() {
        let s = store(Redundancy::ErasureCode { k: 3, m: 2 }, 6);
        let record = vec![42u8; 10_000];
        let addr = put(&s, b"key", &record).unwrap();
        assert_eq!(get(&s, &addr).unwrap(), record);
    }

    #[test]
    fn survives_device_failures_up_to_ft() {
        let s = store(Redundancy::ErasureCode { k: 3, m: 2 }, 6);
        let record = b"durable payload".to_vec();
        let addr = put(&s, b"key", &record).unwrap();
        // Fail two devices — within fault tolerance.
        s.pool.device(0).fail();
        s.pool.device(1).fail();
        assert_eq!(get(&s, &addr).unwrap(), record);
    }

    #[test]
    fn loses_data_beyond_ft() {
        let s = store(Redundancy::Replicate { copies: 2 }, 4);
        let addr = put(&s, b"key", b"fragile").unwrap();
        // Fail every device holding a replica.
        for i in 0..4 {
            s.pool.device(i).fail();
        }
        assert!(matches!(get(&s, &addr), Err(Error::Unrecoverable(_))));
    }

    #[test]
    fn shard_capacity_is_enforced() {
        let s = store(Redundancy::Replicate { copies: 1 }, 2);
        // shard_capacity is 8 MiB; append directly to one shard past it.
        let big = vec![0u8; 5 * MIB as usize];
        s.append_to_shard_at(3, &big, &IoCtx::new(0)).unwrap();
        assert!(matches!(
            s.append_to_shard_at(3, &big, &IoCtx::new(0)),
            Err(Error::CapacityExhausted(_))
        ));
    }

    #[test]
    fn usage_spreads_over_shards() {
        let s = store(Redundancy::Replicate { copies: 1 }, 2);
        for i in 0..200 {
            let key = format!("slice-{i}");
            put(&s, key.as_bytes(), &[0u8; 100]).unwrap();
        }
        let usage = s.shard_usage();
        let nonzero = usage.iter().filter(|&&u| u > 0).count();
        assert!(nonzero > 10, "appends must spread over shards, got {nonzero}/16");
    }

    #[test]
    fn replication_stores_copies_ec_stores_less() {
        let logical = 30_000u64;
        let rep = store(Redundancy::Replicate { copies: 3 }, 4);
        put(&rep, b"k", &vec![1u8; logical as usize]).unwrap();
        let ec = store(Redundancy::ErasureCode { k: 10, m: 2 }, 12);
        put(&ec, b"k", &vec![1u8; logical as usize]).unwrap();
        assert!(rep.physical_bytes() >= 3 * logical);
        assert!(ec.physical_bytes() < 2 * logical);
    }

    #[test]
    fn delete_is_idempotent_and_reports_freed_bytes() {
        let s = store(Redundancy::Replicate { copies: 2 }, 3);
        let addr = put(&s, b"k", b"bye").unwrap();
        assert_eq!(s.delete(&addr).unwrap(), 2 * 3); // two copies of "bye"
        assert_eq!(s.record_count(), 0);
        assert_eq!(s.physical_bytes(), 0);
        assert_eq!(s.delete(&addr).unwrap(), 0); // second delete: absent, Ok(0)
        assert!(matches!(get(&s, &addr), Err(Error::NotFound(_))));
    }

    #[test]
    fn delete_distinguishes_absent_from_undecodable() {
        let s = store(Redundancy::Replicate { copies: 2 }, 3);
        let addr = put(&s, b"k", b"mangle me").unwrap();
        // Smash the index entry: present but undecodable is corruption, not
        // absence.
        s.index.put(addr.index_key(), vec![0xff; 3]);
        assert!(matches!(s.delete(&addr), Err(Error::Corruption(_))));
        assert_eq!(s.metrics.counter("plog.corrupt_index_entries"), 1);
        // The garbage entry was dropped, so the retry is a clean no-op.
        assert_eq!(s.delete(&addr).unwrap(), 0);
    }

    /// Flip one byte of one stored replica via the same path the fault
    /// injector uses, returning which (device, extent) was hit.
    fn rot_one_replica(s: &PlogStore, addr: &PlogAddress) -> (usize, u64) {
        let entry = s.lookup_entry(addr).unwrap();
        let (dev, ext) = entry.handle.shards[0];
        s.pool.device(dev).corrupt_stored_byte(0, 2, 0x40).unwrap();
        (dev, ext)
    }

    #[test]
    fn read_detects_bit_rot_falls_back_and_heals() {
        let s = store(Redundancy::Replicate { copies: 3 }, 4);
        let addr = put(&s, b"k", b"precious payload").unwrap();
        let (dev, ext) = rot_one_replica(&s, &addr);
        // The read never returns the rotten bytes: it falls back to a clean
        // replica and writes the verified content back over the damage.
        assert_eq!(get(&s, &addr).unwrap(), b"precious payload");
        assert_eq!(s.metrics.counter("plog.corruptions_detected"), 1);
        assert_eq!(s.metrics.counter("plog.fallback_reads"), 1);
        assert_eq!(s.metrics.counter("plog.shards_healed"), 1);
        // Healed in place: the same extent now verifies clean.
        let (raw, _) = s.pool.device(dev).read_extent_ctx(ext, &IoCtx::new(0)).unwrap();
        assert_eq!(raw.as_slice(), b"precious payload");
        let before = s.metrics.counter("plog.corruptions_detected");
        assert_eq!(get(&s, &addr).unwrap(), b"precious payload");
        assert_eq!(s.metrics.counter("plog.corruptions_detected"), before);
    }

    #[test]
    fn healed_replicated_read_stays_zero_copy_for_the_caller() {
        let s = store(Redundancy::Replicate { copies: 3 }, 4);
        let addr = put(&s, b"k", vec![5u8; 16 * 1024]).unwrap();
        rot_one_replica(&s, &addr);
        let before = common::bytes::payload_copies();
        let back = get(&s, &addr).unwrap();
        assert_eq!(
            common::bytes::payload_copies(),
            before,
            "verification and heal must not copy the payload"
        );
        assert_eq!(back.len(), 16 * 1024);
    }

    #[test]
    fn unrecoverable_checksum_damage_is_corruption() {
        let s = store(Redundancy::Replicate { copies: 2 }, 3);
        let addr = put(&s, b"k", b"doomed bits").unwrap();
        let entry = s.lookup_entry(&addr).unwrap();
        for &(dev, _) in &entry.handle.shards {
            s.pool.device(dev).corrupt_stored_byte(0, 5, 0x01).unwrap();
        }
        // Every replica checksum-fails: the caller must see Corruption, and
        // must never see the damaged bytes.
        assert!(matches!(get(&s, &addr), Err(Error::Corruption(_))));
        assert_eq!(s.metrics.counter("plog.corruptions_detected"), 2);
    }

    #[test]
    fn ec_read_detects_bit_rot_in_a_data_shard() {
        let s = store(Redundancy::ErasureCode { k: 3, m: 2 }, 6);
        let record: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
        let addr = put(&s, b"k", &record).unwrap();
        let entry = s.lookup_entry(&addr).unwrap();
        let (dev, _) = entry.handle.shards[1];
        s.pool.device(dev).corrupt_stored_byte(0, 7, 0x80).unwrap();
        assert_eq!(get(&s, &addr).unwrap(), record, "EC must reconstruct around rot");
        assert!(s.metrics.counter("plog.corruptions_detected") >= 1);
    }

    #[test]
    fn verify_and_heal_reports_and_repairs() {
        let s = store(Redundancy::Replicate { copies: 3 }, 4);
        let addr = put(&s, b"k", b"scrub target").unwrap();
        let clean = s.verify_and_heal(&addr, &IoCtx::new(0)).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.shards, 3);
        rot_one_replica(&s, &addr);
        let found = s.verify_and_heal(&addr, &IoCtx::new(clean.finish)).unwrap();
        assert_eq!(found.corrupt, 1);
        assert_eq!(found.healed_in_place, 1);
        assert!(!found.reencoded);
        let again = s.verify_and_heal(&addr, &IoCtx::new(found.finish)).unwrap();
        assert!(again.is_clean(), "heal must converge: {again:?}");
    }

    #[test]
    fn verify_and_heal_reencodes_around_a_dead_device() {
        let s = store(Redundancy::ErasureCode { k: 2, m: 1 }, 5);
        let addr = put(&s, b"k", b"re-place me").unwrap();
        let entry = s.lookup_entry(&addr).unwrap();
        s.pool.device(entry.handle.shards[0].0).fail();
        let h = s.verify_and_heal(&addr, &IoCtx::new(0)).unwrap();
        assert_eq!(h.missing, 1);
        assert!(h.reencoded);
        // Full redundancy restored on healthy devices: any later single
        // failure among them is survivable.
        let now = s.lookup_entry(&addr).unwrap();
        s.pool.device(now.handle.shards[0].0).fail();
        assert_eq!(get(&s, &addr).unwrap(), b"re-place me");
    }

    #[test]
    fn verify_and_heal_loses_gracefully_to_concurrent_delete() {
        // Deterministic interleaving of the historical race on scrub's
        // re-place path: delete lands between the re-encoded extent's
        // write and the index commit.
        let s = store(Redundancy::ErasureCode { k: 2, m: 1 }, 5);
        let addr = put(&s, b"k", b"scrubbed away").unwrap();
        let entry = s.lookup_entry(&addr).unwrap();
        s.pool.device(entry.handle.shards[0].0).fail();
        let health = s
            .verify_and_heal_with_hook(&addr, &IoCtx::new(0), || {
                s.delete(&addr).unwrap();
            })
            .unwrap();
        assert_eq!(health.missing, 1);
        assert!(!health.reencoded, "a lost commit must not report re-encode");
        // The delete must win — no resurrection, no leaked extent.
        assert!(matches!(get(&s, &addr), Err(Error::NotFound(_))));
        assert_eq!(s.record_count(), 0);
        assert_eq!(s.physical_bytes(), 0, "heal leaked its rolled-back extent");
        assert_eq!(s.metrics.counter("plog.records_reencoded"), 0);
    }

    #[test]
    fn timed_append_and_read_report_completion() {
        let s = store(Redundancy::ErasureCode { k: 2, m: 1 }, 4);
        let (addr, wfinish) = s.append_to_shard_at(0, b"timed record", &IoCtx::new(100)).unwrap();
        assert!(wfinish > 100);
        let (data, rfinish) = s.read_at(&addr, &IoCtx::new(wfinish)).unwrap();
        assert_eq!(data, b"timed record");
        assert!(rfinish > wfinish);
    }

    #[test]
    fn past_deadline_append_returns_the_shard_address_space() {
        let s = store(Redundancy::Replicate { copies: 2 }, 4);
        let ctx = IoCtx::new(0).with_deadline(1); // NVMe latency alone blows this
        let err = s.append_to_shard_at(0, b"doomed", &ctx).unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded(_)));
        assert_eq!(s.shard_usage()[0], 0, "reserved offset must be rolled back");
        assert_eq!(s.record_count(), 0);
        // the same shard is still usable with an adequate budget
        let (_, finish) = s
            .append_to_shard_at(0, b"ok", &IoCtx::new(0).with_deadline(common::clock::secs(1)))
            .unwrap();
        assert!(finish > 0);
    }

    #[test]
    fn addresses_from_scans_only_the_requested_tail() {
        let s = store(Redundancy::Replicate { copies: 1 }, 2);
        let (a0, _) = s.append_to_shard_at(2, b"one", &IoCtx::new(0)).unwrap();
        let (a1, _) = s.append_to_shard_at(2, b"two", &IoCtx::new(0)).unwrap();
        s.append_to_shard_at(3, b"other shard", &IoCtx::new(0)).unwrap();
        assert_eq!(s.addresses_from(2, 0), vec![a0, a1]);
        assert_eq!(s.addresses_from(2, a0.offset + a0.len), vec![a1]);
        assert_eq!(s.addresses_from(2, a1.offset + a1.len), vec![]);
        assert_eq!(s.addresses_from(7, 0), vec![]);
        assert_eq!(s.addresses().len(), 3);
    }

    #[test]
    fn replicated_append_hashes_the_payload_once() {
        // The coalesced CRC pass must reuse one digest across aliased
        // replicas instead of hashing the same buffer `copies` times.
        let s = store(Redundancy::Replicate { copies: 3 }, 4);
        let n = 64 * 1024u64;
        let before = common::checksum::crc_hashed_bytes();
        put(&s, b"k", vec![3u8; n as usize]).unwrap();
        let hashed = common::checksum::crc_hashed_bytes() - before;
        assert!(hashed < 2 * n, "3-way replicated append hashed {hashed} bytes for {n} payload bytes");
    }

    #[test]
    fn verified_replicated_read_hashes_each_distinct_buffer_once() {
        let s = store(Redundancy::Replicate { copies: 3 }, 4);
        let n = 64 * 1024u64;
        let addr = put(&s, b"k", vec![4u8; n as usize]).unwrap();
        let before = common::checksum::crc_hashed_bytes();
        get(&s, &addr).unwrap();
        let hashed = common::checksum::crc_hashed_bytes() - before;
        assert!(
            hashed < 2 * n,
            "verifying 3 aliased replicas hashed {hashed} bytes (want one {n}-byte pass)"
        );
        assert_eq!(
            s.metrics.counter("plog.shards_verified"),
            3,
            "coalescing must not change the per-shard verified count"
        );
    }

    #[test]
    fn worker_fanned_append_and_read_match_inline_results() {
        // Attaching a worker pool is a host-side optimisation only: the
        // durable address, the virtual completion times and the returned
        // bytes must be identical to inline execution.
        let record: Vec<u8> = (0..256 * 1024).map(|i| (i % 253) as u8).collect();
        let seq = store(Redundancy::ErasureCode { k: 3, m: 2 }, 6);
        let fan = store(Redundancy::ErasureCode { k: 3, m: 2 }, 6)
            .with_workers(Arc::new(WorkerPool::new(4, 11)));
        let (a0, t0) = seq.append_to_shard_at(1, record.clone(), &IoCtx::new(500)).unwrap();
        let (a1, t1) = fan.append_to_shard_at(1, record.clone(), &IoCtx::new(500)).unwrap();
        assert_eq!(a0, a1);
        assert_eq!(t0, t1, "fanned stripe write must keep virtual timing byte-identical");
        let (d0, r0) = seq.read_at(&a0, &IoCtx::new(t0)).unwrap();
        let (d1, r1) = fan.read_at(&a1, &IoCtx::new(t1)).unwrap();
        assert_eq!(r0, r1, "fanned verification must keep virtual timing byte-identical");
        assert_eq!(d0, d1);
        assert_eq!(d0.as_slice(), record.as_slice());
    }

    /// The two host-side executions of a stripe write: inline on the
    /// caller's thread, and fanned across a worker pool.
    fn both_executions(redundancy: Redundancy, devices: usize) -> [PlogStore; 2] {
        [
            store(redundancy, devices),
            store(redundancy, devices).with_workers(Arc::new(WorkerPool::new(4, 5))),
        ]
    }

    #[test]
    fn unplaceable_append_returns_the_shard_address_space() {
        for s in both_executions(Redundancy::Replicate { copies: 2 }, 3) {
            s.pool.device(1).fail();
            s.pool.device(2).fail();
            // One healthy device cannot hold two replicas: placement fails
            // after the shard offset was already reserved.
            let err = s.append_to_shard_at(0, vec![1u8; 128 * 1024], &IoCtx::new(0)).unwrap_err();
            assert!(matches!(err, Error::CapacityExhausted(_)), "{err:?}");
            assert_eq!(s.shard_usage()[0], 0, "reserved offset must be rolled back");
            assert_eq!(s.record_count(), 0);
            assert_eq!(s.physical_bytes(), 0, "failed write leaked extents");
            // The shard stays usable once the pool heals.
            s.pool.device(1).heal();
            let (addr, _) = s.append_to_shard_at(0, b"ok", &IoCtx::new(0)).unwrap();
            assert_eq!(addr.offset, 0);
            assert_eq!(get(&s, &addr).unwrap(), b"ok");
        }
    }

    #[test]
    fn mid_stripe_failure_has_one_outcome_inline_and_fanned() {
        use common::ctx::SpanSink;
        // Shard 2 of a 5-wide stripe hits a transiently dead device (which
        // placement cannot see). Both executions must leave the same
        // world behind: nothing stored, nothing reserved, the same spans
        // recorded for the shards before the failure, the same error.
        const FAILING_SHARD: usize = 2;
        let record: Vec<u8> = (0..256 * 1024).map(|i| (i % 241) as u8).collect();
        let outcomes = both_executions(Redundancy::ErasureCode { k: 3, m: 2 }, 6).map(|s| {
            // A fresh pool ranks devices by index: shard i lands on device i.
            s.pool.device(FAILING_SHARD).fail_until(common::clock::millis(1));
            let sink = Arc::new(SpanSink::new(Metrics::new()));
            let ctx = IoCtx::new(100).with_sink(Arc::clone(&sink));
            let err = s.append_to_shard_at(1, record.clone(), &ctx).unwrap_err();
            assert!(matches!(err, Error::Io(_)), "{err:?}");
            assert_eq!(s.physical_bytes(), 0, "placed shards must be deleted");
            assert_eq!(s.shard_usage()[1], 0, "reservation must be returned");
            assert_eq!(s.record_count(), 0);
            let spans: Vec<_> =
                sink.trail().into_iter().map(|r| (r.phase, r.start, r.duration)).collect();
            assert_eq!(spans.len(), 2 * FAILING_SHARD, "queue + device per shard before the failure");
            (err.to_string(), spans)
        });
        assert_eq!(outcomes[0], outcomes[1]);
    }

    /// One group over `records`, all under `ctx`, `shard_of(i)` routing
    /// the i-th record.
    fn append_all(
        s: &PlogStore,
        records: &[Vec<u8>],
        shard_of: impl Fn(usize) -> u32,
        ctx: &IoCtx,
    ) -> Vec<Result<(PlogAddress, Nanos)>> {
        let group: Vec<_> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (shard_of(i), Bytes::from(r.clone()), ctx))
            .collect();
        s.append_group(&group)
    }

    #[test]
    fn grouped_appends_match_sequential_appends() {
        // A group must produce exactly the addresses and virtual completion
        // times the same records get from one `append_to_shard_at` each.
        let seq = store(Redundancy::Replicate { copies: 2 }, 4);
        let grp = store(Redundancy::Replicate { copies: 2 }, 4);
        let ctx = IoCtx::new(1_000);
        let records: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 4096]).collect();
        let expected: Vec<_> = records
            .iter()
            .enumerate()
            .map(|(i, r)| seq.append_to_shard_at((i % 2) as u32, r.clone(), &ctx).unwrap())
            .collect();
        let got: Vec<_> = append_all(&grp, &records, |i| (i % 2) as u32, &ctx)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, expected);
        for (addr, _) in &got {
            assert_eq!(get(&grp, addr).unwrap(), get(&seq, addr).unwrap());
        }
    }

    #[test]
    fn group_pays_one_index_frame() {
        let s = store(Redundancy::Replicate { copies: 2 }, 4);
        let records: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 1024]).collect();
        let frames_before = s.index.wal_frames();
        let outcomes = append_all(&s, &records, |_| 0, &IoCtx::new(0));
        assert!(outcomes.iter().all(|r| r.is_ok()));
        let frames = s.index.wal_frames() - frames_before;
        assert_eq!(frames, 1, "8-record group must log one WAL frame, logged {frames}");
        assert_eq!(s.record_count(), 8);
    }

    #[test]
    fn failed_record_rolls_back_only_its_own_address_space() {
        // The grouped extension of the append leak regression: one record
        // in the group blows its deadline; its neighbours on the same shard
        // commit and its reservation vanishes exactly.
        let s = store(Redundancy::Replicate { copies: 2 }, 4);
        let ok = IoCtx::new(0).with_deadline(common::clock::secs(10));
        let doomed = IoCtx::new(0).with_deadline(1); // NVMe latency alone blows this
        let record = |b: u8| Bytes::from(vec![b; 1000]);
        let mut outcomes =
            s.append_group(&[(0, record(1), &ok), (0, record(2), &doomed), (0, record(3), &ok)]);
        let (addr_c, _) = outcomes.pop().unwrap().unwrap();
        let err = outcomes.pop().unwrap().unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded(_)), "{err:?}");
        let (addr_a, _) = outcomes.pop().unwrap().unwrap();
        // B's 1000 bytes were reclaimed: C sits directly behind A.
        assert_eq!(addr_a.offset, 0);
        assert_eq!(addr_c.offset, addr_a.len, "failed record leaked its reservation");
        assert_eq!(s.shard_usage()[0], 2000);
        assert_eq!(s.record_count(), 2);
        assert_eq!(get(&s, &addr_a).unwrap(), vec![1u8; 1000]);
        assert_eq!(get(&s, &addr_c).unwrap(), vec![3u8; 1000]);
    }

    #[test]
    fn whole_group_pool_failure_rolls_back_every_reservation() {
        let s = store(Redundancy::Replicate { copies: 2 }, 3);
        s.pool.device(1).fail();
        s.pool.device(2).fail();
        let ctx = IoCtx::new(0);
        let records: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 512]).collect();
        assert!(append_all(&s, &records, |_| 0, &ctx).iter().all(|r| r.is_err()));
        assert_eq!(s.shard_usage()[0], 0, "failed group leaked address space");
        assert_eq!(s.record_count(), 0);
        assert_eq!(s.physical_bytes(), 0);
        // The shard is fully reusable after the pool heals.
        s.pool.device(1).heal();
        let (addr, _) = s.append_to_shard_at(0, b"recovered", &ctx).unwrap();
        assert_eq!(addr.offset, 0);
    }

    #[test]
    fn grouped_appends_match_sequential_with_workers_attached() {
        // A ≥ 2-record group fans its encodes across the pool; addresses,
        // timings and stored bytes must not notice.
        let [seq, fanned] = both_executions(Redundancy::ErasureCode { k: 3, m: 2 }, 6);
        let ctx = IoCtx::new(2_000);
        let records: Vec<Vec<u8>> = (0..4usize)
            .map(|i| (0..200 * 1024).map(|j| ((i * 31 + j) % 251) as u8).collect())
            .collect();
        let expected: Vec<_> =
            records.iter().map(|r| seq.append_to_shard_at(3, r.clone(), &ctx).unwrap()).collect();
        let got: Vec<_> =
            append_all(&fanned, &records, |_| 3, &ctx).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, expected);
        for ((addr, _), r) in got.iter().zip(&records) {
            assert_eq!(get(&fanned, addr).unwrap().as_slice(), r.as_slice());
        }
    }

    #[test]
    fn index_entry_without_its_crc_block_is_corruption_not_unverified_bytes() {
        let s = store(Redundancy::Replicate { copies: 3 }, 4);
        let addr = put(&s, b"k", b"verify me or refuse").unwrap();
        // Chop the CRC block off the live entry: a truncated entry must not
        // turn checksums off.
        let key = addr.index_key();
        let mut entry = s.kv().get(&key).unwrap();
        entry.truncate(entry.len() - 3 * 4);
        s.kv().put(key, entry);
        assert!(matches!(s.read_at(&addr, &IoCtx::new(0)), Err(Error::Corruption(_))));
        assert!(matches!(s.verify_and_heal(&addr, &IoCtx::new(0)), Err(Error::Corruption(_))));
        assert_eq!(s.metrics.counter("plog.shards_verified"), 0, "no shard was read at all");
    }

    #[test]
    fn handle_encoding_roundtrips() {
        let h = ExtentHandle { id: 42, shards: vec![(0, 43008), (3, 43009), (7, 43010)] };
        let enc = encode_handle(&h);
        let mut r = Reader::new(&enc, "extent handle");
        assert_eq!(decode_handle(&mut r).unwrap(), h);
        assert!(r.finish().is_ok());
    }
}
