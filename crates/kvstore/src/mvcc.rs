//! MVCC with write intents over the KV engine (ROADMAP item 2).
//!
//! The transaction layer the paper's "one copy, many views" thesis needs
//! for *reunion*: archiving stream segments and committing the table
//! snapshot that references them must be one atomic decision. The design
//! is a deliberately small CockroachDB-shaped core (see SNIPPETS.md
//! snippet 1):
//!
//! * **Versioned values** — a user key maps to a set of committed versions
//!   keyed `(user_key, timestamp)`, newest first. Snapshot reads at a
//!   chosen timestamp ([`MvccStore::read_at`]) see the newest version at
//!   or below it; the timestamp oracle only moves forward, so a snapshot
//!   once taken is immutable (time travel).
//! * **Write intents** — a transactional write is a *provisional* version:
//!   one intent per key pointing at a durable transaction record. Intent +
//!   record travel in a single [`WriteBatch`], so the WAL either persists
//!   both or neither.
//! * **Transaction records** — the single source of truth for a
//!   transaction's fate. `commit_decide` flips the record to COMMITTED in
//!   one WAL frame: *that* write is the atomic commit point for every
//!   intent the transaction wrote, across stream and lake alike.
//!   Resolution (intent → version) afterwards is pure, idempotent cleanup
//!   that recovery can replay.
//! * **Latches + timestamp cache + pushes** — a latch/interval manager
//!   detects key-range write conflicts between live transactions; reads
//!   leave their timestamp in a read-timestamp cache, and writers have
//!   their provisional commit timestamp *pushed* above every read they
//!   would otherwise invalidate. A reader meeting a live writer's intent
//!   pushes the writer instead of blocking.
//!
//! Every mutation of durable state is one atomic batch, so a crash leaves
//! only (a) pending records with intents — aborted by [`MvccStore::recover`] —
//! or (b) committed records with unresolved intents — resolved by it.
//! Recovery is idempotent and, with the same seed, produces a byte-identical
//! [`ResolutionJournal`].

use crate::batch::WriteBatch;
use crate::store::SharedKv;
use common::lockwitness::TrackedMutex;
use common::{Error, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// An MVCC timestamp (also used as transaction id: a transaction's id is
/// the timestamp the oracle issued at `begin`).
pub type Ts = u64;

const STATUS_PENDING: u8 = 0;
const STATUS_COMMITTED: u8 = 1;

const FLAG_TOMBSTONE: u8 = 1;

/// Journal action: a committed intent was resolved into a version.
pub const JOURNAL_COMMIT: u8 = 1;
/// Journal action: a pending intent was removed by abort/cleanup.
pub const JOURNAL_ABORT: u8 = 2;

// ---------------------------------------------------------------------------
// key encoding

/// Escape a user key for use inside a composite key: `0x00` becomes
/// `0x00 0xFF`, and the escaped key is terminated by `0x00 0x00`, which
/// sorts below every escape sequence — so composite keys preserve the
/// user-key order and a key is never a prefix of a sibling.
fn escape_into(user: &[u8], out: &mut Vec<u8>) {
    for &b in user {
        out.push(b);
        if b == 0 {
            out.push(0xFF);
        }
    }
    out.push(0);
    out.push(0);
}

#[cfg(test)]
fn unescape(buf: &[u8]) -> Option<(Vec<u8>, usize)> {
    let mut out = Vec::with_capacity(buf.len());
    let mut i = 0;
    while i + 1 < buf.len() {
        if buf[i] == 0 {
            if buf[i + 1] == 0 {
                return Some((out, i + 2));
            }
            out.push(0);
            i += 2;
        } else {
            out.push(buf[i]);
            i += 1;
        }
    }
    None
}

/// `m/<esc(key)><!ts BE>` — committed version; `!ts` so newer versions
/// sort first within a key.
fn version_key(user: &[u8], ts: Ts) -> Vec<u8> {
    let mut k = Vec::with_capacity(user.len() + 12);
    k.extend_from_slice(b"m/");
    escape_into(user, &mut k);
    k.extend_from_slice(&(!ts).to_be_bytes());
    k
}

/// Prefix of all versions of `user` (everything below the timestamp).
fn version_prefix(user: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(user.len() + 4);
    k.extend_from_slice(b"m/");
    escape_into(user, &mut k);
    k
}

/// `i/<esc(key)>` — the (single) write intent on a user key.
fn intent_key(user: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(user.len() + 4);
    k.extend_from_slice(b"i/");
    escape_into(user, &mut k);
    k
}

/// `t/<txn BE>` — the durable transaction record.
fn record_key(txn: Ts) -> Vec<u8> {
    let mut k = Vec::with_capacity(10);
    k.extend_from_slice(b"t/");
    k.extend_from_slice(&txn.to_be_bytes());
    k
}

// ---------------------------------------------------------------------------
// value encoding

/// Version value: `[flags][payload]`.
fn encode_version(value: Option<&[u8]>) -> Vec<u8> {
    match value {
        Some(v) => {
            let mut out = Vec::with_capacity(1 + v.len());
            out.push(0);
            out.extend_from_slice(v);
            out
        }
        None => vec![FLAG_TOMBSTONE],
    }
}

fn decode_version(buf: &[u8]) -> Option<Vec<u8>> {
    match buf.first() {
        Some(&f) if f & FLAG_TOMBSTONE == 0 => Some(buf[1..].to_vec()),
        _ => None,
    }
}

/// Intent value: `[txn BE][flags][payload]` — the pointer back to the
/// transaction record plus the provisional value.
fn encode_intent(txn: Ts, value: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + value.map_or(0, <[u8]>::len));
    out.extend_from_slice(&txn.to_be_bytes());
    match value {
        Some(v) => {
            out.push(0);
            out.extend_from_slice(v);
        }
        None => out.push(FLAG_TOMBSTONE),
    }
    out
}

fn decode_intent(buf: &[u8]) -> Result<(Ts, Option<Vec<u8>>)> {
    if buf.len() < 9 {
        return Err(Error::Corruption("mvcc intent value too short".into()));
    }
    let mut ts = [0u8; 8];
    ts.copy_from_slice(&buf[..8]);
    Ok((u64::from_be_bytes(ts), decode_version(&buf[8..])))
}

/// Record value: `[status][commit_ts BE][read_ts BE][count][len key]*`.
fn encode_record(status: u8, commit_ts: Ts, read_ts: Ts, writes: &BTreeSet<Vec<u8>>) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.push(status);
    out.extend_from_slice(&commit_ts.to_be_bytes());
    out.extend_from_slice(&read_ts.to_be_bytes());
    common::varint::encode_u64(writes.len() as u64, &mut out);
    for k in writes {
        common::varint::encode_u64(k.len() as u64, &mut out);
        out.extend_from_slice(k);
    }
    out
}

fn decode_record(buf: &[u8]) -> Result<(u8, Ts, Ts, BTreeSet<Vec<u8>>)> {
    if buf.len() < 17 {
        return Err(Error::Corruption("mvcc txn record too short".into()));
    }
    let status = buf[0];
    let mut w = [0u8; 8];
    w.copy_from_slice(&buf[1..9]);
    let commit_ts = u64::from_be_bytes(w);
    w.copy_from_slice(&buf[9..17]);
    let read_ts = u64::from_be_bytes(w);
    let mut rest = &buf[17..];
    let (count, n) = common::varint::decode_u64(rest)?;
    rest = &rest[n..];
    let mut writes = BTreeSet::new();
    for _ in 0..count {
        let (len, n) = common::varint::decode_u64(rest)?;
        rest = &rest[n..];
        let len = len as usize;
        if rest.len() < len {
            return Err(Error::Corruption("mvcc txn record truncated".into()));
        }
        writes.insert(rest[..len].to_vec());
        rest = &rest[len..];
    }
    Ok((status, commit_ts, read_ts, writes))
}

// ---------------------------------------------------------------------------
// in-memory state

/// A write latch held by a live transaction over `[lo, hi)`.
#[derive(Debug, Clone)]
struct Latch {
    lo: Vec<u8>,
    hi: Vec<u8>,
    txn: Ts,
}

fn point_range(key: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let lo = key.to_vec();
    let mut hi = key.to_vec();
    hi.push(0);
    (lo, hi)
}

#[derive(Debug, Default)]
struct ActiveTxn {
    read_ts: Ts,
    /// The commit timestamp the transaction will use unless pushed higher.
    provisional_ts: Ts,
    /// Point keys read by this transaction (validated at decide time).
    reads: BTreeSet<Vec<u8>>,
    /// Keys holding this transaction's intents.
    writes: BTreeSet<Vec<u8>>,
    /// Decision already durable (commit_decide ran) at this timestamp.
    decided_at: Option<Ts>,
}

#[derive(Debug, Default)]
struct MvccState {
    active: BTreeMap<Ts, ActiveTxn>,
    latches: Vec<Latch>,
    /// Highest timestamp at which each key was read (the timestamp cache):
    /// writers must commit above it.
    read_cache: BTreeMap<Vec<u8>, Ts>,
}

impl MvccState {
    /// Acquire a `[lo, hi)` latch for `txn`; conflicts with any overlapping
    /// latch held by another transaction.
    fn latch(&mut self, txn: Ts, lo: Vec<u8>, hi: Vec<u8>) -> Result<()> {
        for l in &self.latches {
            if l.txn != txn && l.lo < hi && lo < l.hi {
                return Err(Error::Conflict(format!(
                    "mvcc latch conflict: txn {txn} vs txn {} over overlapping key range",
                    l.txn
                )));
            }
        }
        self.latches.push(Latch { lo, hi, txn });
        Ok(())
    }

    fn release_latches(&mut self, txn: Ts) {
        self.latches.retain(|l| l.txn != txn);
    }
}

// ---------------------------------------------------------------------------
// journal

/// One resolution action: what happened to one intent, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The transaction whose intent was resolved.
    pub txn: Ts,
    /// [`JOURNAL_COMMIT`] or [`JOURNAL_ABORT`].
    pub action: u8,
    /// Commit timestamp (0 for aborts).
    pub ts: Ts,
    /// The user key whose intent was resolved.
    pub key: Vec<u8>,
}

/// Append-only log of intent resolutions. Same seed ⇒ same schedule ⇒
/// byte-identical [`encode`](ResolutionJournal::encode) output — the
/// determinism contract interleaving tests pin.
#[derive(Debug, Default)]
pub struct ResolutionJournal {
    entries: Vec<JournalEntry>,
}

impl ResolutionJournal {
    /// Deterministic byte encoding of the whole journal.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.entries.len() * 24);
        for e in &self.entries {
            out.extend_from_slice(&e.txn.to_be_bytes());
            out.push(e.action);
            out.extend_from_slice(&e.ts.to_be_bytes());
            common::varint::encode_u64(e.key.len() as u64, &mut out);
            out.extend_from_slice(&e.key);
        }
        out
    }

    /// FNV-1a digest of [`encode`](ResolutionJournal::encode).
    pub fn digest(&self) -> u64 {
        common::checksum::fnv1a(&self.encode())
    }

    /// Number of recorded resolutions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// ---------------------------------------------------------------------------
// reports

/// A transaction handle returned by [`MvccStore::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnHandle {
    /// Transaction id (== the begin timestamp).
    pub id: Ts,
    /// Snapshot timestamp all reads of this transaction observe.
    pub read_ts: Ts,
}

/// A committed-but-unresolved transaction surfaced for coordinators
/// (recovery replays side effects from its intents before resolving).
#[derive(Debug, Clone)]
pub struct DecidedTxn {
    /// Transaction id.
    pub txn: Ts,
    /// Durable commit timestamp.
    pub commit_ts: Ts,
    /// `(user_key, value)` pairs; `None` is a delete.
    pub writes: Vec<(Vec<u8>, Option<Vec<u8>>)>,
}

/// A pending (never decided) transaction with no live coordinator.
#[derive(Debug, Clone)]
pub struct PendingTxn {
    /// Transaction id.
    pub txn: Ts,
    /// Its orphaned intents as `(user_key, value)` pairs, as in
    /// [`DecidedTxn::writes`] — what an abort throws away.
    pub writes: Vec<(Vec<u8>, Option<Vec<u8>>)>,
}

/// What [`MvccStore::recover`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed records whose intents were resolved into versions.
    pub committed_resolved: u64,
    /// Pending records aborted and cleaned.
    pub aborted_cleaned: u64,
    /// Intents removed or rewritten while doing so.
    pub intents_resolved: u64,
}

// ---------------------------------------------------------------------------
// the store

/// The MVCC transaction store.
///
/// Thread-safe; all coordination state lives under two tracked locks
/// (`kv.mvcc.state`, `kv.mvcc.journal`) that rank *below* the KV index
/// lock, so holding them across KV operations is hierarchy-clean.
pub struct MvccStore {
    kv: SharedKv,
    state: TrackedMutex<MvccState>,
    journal: TrackedMutex<ResolutionJournal>,
    next_ts: AtomicU64,
}

impl std::fmt::Debug for MvccStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvccStore")
            .field("next_ts", &self.next_ts.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for MvccStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MvccStore {
    /// A fresh store over an empty KV engine.
    pub fn new() -> Self {
        Self::over(SharedKv::new())
    }

    /// Wrap an existing KV engine (crash recovery: rebuild the KvStore from
    /// WAL bytes first, then wrap it and call [`recover`](Self::recover)).
    /// The timestamp oracle resumes above every timestamp persisted in it.
    pub fn over(kv: SharedKv) -> Self {
        let mut max_ts: Ts = 0;
        kv.scan_prefix_with(b"t/", &mut |k, v| {
            if k.len() == 10 {
                let mut w = [0u8; 8];
                w.copy_from_slice(&k[2..10]);
                max_ts = max_ts.max(u64::from_be_bytes(w));
            }
            if let Ok((_, commit_ts, read_ts, _)) = decode_record(v) {
                max_ts = max_ts.max(commit_ts).max(read_ts);
            }
            true
        });
        kv.scan_prefix_with(b"m/", &mut |k, _| {
            if k.len() >= 8 {
                let mut w = [0u8; 8];
                w.copy_from_slice(&k[k.len() - 8..]);
                max_ts = max_ts.max(!u64::from_be_bytes(w));
            }
            true
        });
        MvccStore {
            kv,
            state: TrackedMutex::new("kv.mvcc.state", MvccState::default()),
            journal: TrackedMutex::new("kv.mvcc.journal", ResolutionJournal::default()),
            next_ts: AtomicU64::new(max_ts + 1),
        }
    }

    /// The underlying KV engine (WAL inspection, chore-driven compaction).
    pub fn kv(&self) -> &SharedKv {
        &self.kv
    }

    /// Begin a transaction: issue a timestamp, durably register a PENDING
    /// record (so a crashed coordinator's transactions are discoverable),
    /// and return the handle.
    pub fn begin(&self) -> TxnHandle {
        let ts = self.next_ts.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = self.state.lock();
            st.active.insert(
                ts,
                ActiveTxn { read_ts: ts, provisional_ts: ts, ..ActiveTxn::default() },
            );
            self.kv.put(record_key(ts), encode_record(STATUS_PENDING, 0, ts, &BTreeSet::new()));
            drop(st);
        }
        TxnHandle { id: ts, read_ts: ts }
    }

    /// The snapshot timestamp `txn` reads at.
    pub fn read_ts(&self, txn: Ts) -> Result<Ts> {
        let st = self.state.lock();
        st.active
            .get(&txn)
            .map(|t| t.read_ts)
            .ok_or_else(|| Error::NotFound(format!("mvcc txn {txn}")))
    }

    /// Number of live (begun, not yet resolved/aborted) transactions.
    pub fn active_count(&self) -> usize {
        self.state.lock().active.len()
    }

    /// Transactional read at the transaction's snapshot.
    ///
    /// Sees the transaction's own intent first; a *live* foreign writer's
    /// intent pushes that writer's provisional commit timestamp above our
    /// snapshot (read-write conflict resolution in the reader's favor,
    /// without blocking either side); an *orphaned* intent is resolved or
    /// aborted inline according to its transaction record.
    pub fn get(&self, txn: Ts, key: &[u8]) -> Result<Option<Vec<u8>>> {
        loop {
            enum Next {
                Done(Option<Vec<u8>>),
                Resolve(Ts),
                Cleanup(Ts),
            }
            let next = {
                let mut st = self.state.lock();
                let me = st
                    .active
                    .get(&txn)
                    .ok_or_else(|| Error::NotFound(format!("mvcc txn {txn}")))?;
                let read_ts = me.read_ts;
                match self.kv.get(&intent_key(key)) {
                    Some(raw) => {
                        let (owner, value) = decode_intent(&raw)?;
                        if owner == txn {
                            Self::note_read(&mut st, txn, key, read_ts);
                            Next::Done(value)
                        } else if let Some(w) = st.active.get_mut(&owner) {
                            // Live writer: push its commit timestamp above our
                            // snapshot, then read beneath the intent.
                            if w.provisional_ts <= read_ts {
                                w.provisional_ts = read_ts + 1;
                            }
                            Self::note_read(&mut st, txn, key, read_ts);
                            Next::Done(self.read_version_at(key, read_ts))
                        } else {
                            // Orphaned intent: its record decides its fate.
                            match self.kv.get(&record_key(owner)) {
                                Some(rec) if rec.first() == Some(&STATUS_COMMITTED) => {
                                    Next::Resolve(owner)
                                }
                                _ => Next::Cleanup(owner),
                            }
                        }
                    }
                    None => {
                        Self::note_read(&mut st, txn, key, read_ts);
                        Next::Done(self.read_version_at(key, read_ts))
                    }
                }
            };
            match next {
                Next::Done(v) => return Ok(v),
                Next::Resolve(owner) => {
                    self.resolve_committed(owner)?;
                }
                Next::Cleanup(owner) => {
                    self.abort(owner)?;
                }
            }
        }
    }

    /// Non-transactional snapshot read at `ts` (time travel). Ignores
    /// pending intents — only committed versions are visible — and leaves
    /// no trace in the timestamp cache: commit timestamps issued by the
    /// oracle are always above every previously issued timestamp, so a
    /// historical snapshot is immutable without it.
    pub fn read_at(&self, key: &[u8], ts: Ts) -> Option<Vec<u8>> {
        self.read_version_at(key, ts)
    }

    /// The newest committed version of `key` at or below `ts`.
    fn read_version_at(&self, key: &[u8], ts: Ts) -> Option<Vec<u8>> {
        let prefix = version_prefix(key);
        let mut lo = prefix.clone();
        lo.extend_from_slice(&(!ts).to_be_bytes());
        let mut hi = prefix.clone();
        hi.extend_from_slice(&[0xFF; 9]);
        let mut found: Option<Vec<u8>> = None;
        self.kv.scan_range_with(&lo, &hi, &mut |k, v| {
            if k.starts_with(&prefix) {
                found = decode_version(v);
            }
            false // first hit is the newest version ≤ ts
        });
        found
    }

    fn note_read(st: &mut MvccState, txn: Ts, key: &[u8], read_ts: Ts) {
        let cached = st.read_cache.entry(key.to_vec()).or_insert(0);
        if *cached < read_ts {
            *cached = read_ts;
        }
        if let Some(me) = st.active.get_mut(&txn) {
            me.reads.insert(key.to_vec());
        }
    }

    /// Transactional write (`None` deletes). Lays down a write intent and
    /// updates the transaction record in one atomic WAL frame. A foreign
    /// intent or overlapping latch on the key is a write-write conflict.
    pub fn write(&self, txn: Ts, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        let mut st = self.state.lock();
        if !st.active.contains_key(&txn) {
            return Err(Error::NotFound(format!("mvcc txn {txn}")));
        }
        if let Some(raw) = self.kv.get(&intent_key(key)) {
            let (owner, _) = decode_intent(&raw)?;
            if owner != txn {
                return Err(Error::Conflict(format!(
                    "mvcc write-write conflict: txn {owner} holds an intent the key txn {txn} wants"
                )));
            }
        }
        let (lo, hi) = point_range(key);
        st.latch(txn, lo, hi)?;
        // Push the provisional commit timestamp above every read of the key.
        let read_high = st.read_cache.get(key).copied().unwrap_or(0);
        let me = st
            .active
            .get_mut(&txn)
            .ok_or_else(|| Error::NotFound(format!("mvcc txn {txn}")))?;
        if me.provisional_ts <= read_high {
            me.provisional_ts = read_high + 1;
        }
        me.writes.insert(key.to_vec());
        let record = encode_record(STATUS_PENDING, 0, me.read_ts, &me.writes);
        let mut batch = WriteBatch::new();
        batch.put(intent_key(key), encode_intent(txn, value));
        batch.put(record_key(txn), record);
        self.kv.apply(&batch);
        drop(st);
        Ok(())
    }

    /// Transactional put.
    pub fn put(&self, txn: Ts, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(txn, key, Some(value))
    }

    /// Transactional delete (writes a tombstone intent).
    pub fn delete(&self, txn: Ts, key: &[u8]) -> Result<()> {
        self.write(txn, key, None)
    }

    /// Take an explicit `[lo, hi)` interval latch for `txn` — key-range
    /// conflict detection for operations that logically cover a range
    /// (e.g. a table's whole metadata span) without writing every key.
    pub fn lock_range(&self, txn: Ts, lo: &[u8], hi: &[u8]) -> Result<()> {
        let mut st = self.state.lock();
        if !st.active.contains_key(&txn) {
            return Err(Error::NotFound(format!("mvcc txn {txn}")));
        }
        st.latch(txn, lo.to_vec(), hi.to_vec())
    }

    /// Phase one of commit: validate and durably decide.
    ///
    /// OCC validation re-checks every read against the version store — a
    /// committed version newer than our snapshot on a key we read means the
    /// transaction acted on stale data and must abort ([`Error::Conflict`];
    /// the transaction is cleaned up before returning). On success the
    /// record flips to COMMITTED at the final (possibly pushed) commit
    /// timestamp in a single WAL frame — the atomic commit point.
    pub fn commit_decide(&self, txn: Ts) -> Result<Ts> {
        let decision = {
            let mut st = self.state.lock();
            let me = st
                .active
                .get(&txn)
                .ok_or_else(|| Error::NotFound(format!("mvcc txn {txn}")))?;
            if let Some(ts) = me.decided_at {
                return Ok(ts); // idempotent re-decide
            }
            let read_ts = me.read_ts;
            let mut commit_ts = me.provisional_ts;
            let mut conflict: Option<String> = None;
            for key in &me.reads {
                if let Some(ts) = self.newest_version_ts(key) {
                    if ts > read_ts {
                        conflict = Some(format!(
                            "mvcc read-write conflict: a key txn {txn} read at ts {read_ts} \
                             has a newer committed version at ts {ts}"
                        ));
                        break;
                    }
                }
            }
            if conflict.is_none() {
                for key in &me.writes {
                    if let Some(ts) = self.newest_version_ts(key) {
                        if ts >= commit_ts {
                            commit_ts = ts + 1;
                        }
                    }
                    if let Some(&ts) = st.read_cache.get(key) {
                        if ts >= commit_ts {
                            commit_ts = ts + 1;
                        }
                    }
                }
            }
            match conflict {
                Some(msg) => Err(msg),
                None => {
                    let me = st
                        .active
                        .get_mut(&txn)
                        .ok_or_else(|| Error::NotFound(format!("mvcc txn {txn}")))?;
                    me.decided_at = Some(commit_ts);
                    let rec = encode_record(STATUS_COMMITTED, commit_ts, me.read_ts, &me.writes);
                    self.kv.put(record_key(txn), rec);
                    Ok(commit_ts)
                }
            }
        };
        match decision {
            Ok(ts) => {
                // Keep the oracle above every issued commit timestamp.
                self.next_ts.fetch_max(ts + 1, Ordering::Relaxed);
                Ok(ts)
            }
            Err(msg) => {
                self.abort(txn)?;
                Err(Error::Conflict(msg))
            }
        }
    }

    fn newest_version_ts(&self, key: &[u8]) -> Option<Ts> {
        let prefix = version_prefix(key);
        let mut hi = prefix.clone();
        hi.extend_from_slice(&[0xFF; 9]);
        let mut found = None;
        self.kv.scan_range_with(&prefix, &hi, &mut |k, _| {
            if k.starts_with(&prefix) && k.len() >= 8 {
                let mut w = [0u8; 8];
                w.copy_from_slice(&k[k.len() - 8..]);
                found = Some(!u64::from_be_bytes(w));
            }
            false
        });
        found
    }

    /// Phase two of commit: rewrite every intent as a committed version at
    /// the decided timestamp and drop the record, in one atomic batch.
    /// Idempotent — resolving an already-resolved transaction is a no-op —
    /// and callable on a recovered store whose in-memory state is empty
    /// (everything needed is in the record). Returns how many intents it
    /// made visible; coordinators apply their side effects *before*
    /// resolving, from [`decided_writes`](Self::decided_writes).
    pub fn resolve_committed(&self, txn: Ts) -> Result<u64> {
        let mut st = self.state.lock();
        let rec = match self.kv.get(&record_key(txn)) {
            Some(r) => r,
            None => return Ok(0), // already resolved
        };
        let (status, commit_ts, _read_ts, writes) = decode_record(&rec)?;
        if status != STATUS_COMMITTED {
            return Err(Error::InvalidArgument(format!(
                "mvcc txn {txn} is not decided; resolve_committed needs commit_decide first"
            )));
        }
        let mut batch = WriteBatch::new();
        let mut entries = Vec::with_capacity(writes.len());
        for key in &writes {
            let ik = intent_key(key);
            if let Some(raw) = self.kv.get(&ik) {
                let (owner, value) = decode_intent(&raw)?;
                if owner == txn {
                    batch.put(version_key(key, commit_ts), encode_version(value.as_deref()));
                    batch.delete(ik);
                    entries.push(JournalEntry {
                        txn,
                        action: JOURNAL_COMMIT,
                        ts: commit_ts,
                        key: key.clone(),
                    });
                }
            }
        }
        batch.delete(record_key(txn));
        self.kv.apply(&batch);
        st.active.remove(&txn);
        st.release_latches(txn);
        drop(st);
        let resolved = entries.len() as u64;
        self.journal.lock().entries.extend(entries);
        Ok(resolved)
    }

    /// Abort: remove the transaction's intents and record in one atomic
    /// batch. Works for live transactions and for orphaned records after a
    /// coordinator crash.
    pub fn abort(&self, txn: Ts) -> Result<()> {
        let mut st = self.state.lock();
        if let Some(rec) = self.kv.get(&record_key(txn)) {
            if rec.first() == Some(&STATUS_COMMITTED) {
                return Err(Error::InvalidArgument(format!(
                    "mvcc txn {txn} already decided committed; resolve it instead of aborting"
                )));
            }
        }
        let writes: BTreeSet<Vec<u8>> = match st.active.get(&txn) {
            Some(me) => me.writes.clone(),
            None => match self.kv.get(&record_key(txn)) {
                Some(rec) => decode_record(&rec)?.3,
                None => return Err(Error::NotFound(format!("mvcc txn {txn}"))),
            },
        };
        let mut batch = WriteBatch::new();
        let mut entries = Vec::with_capacity(writes.len());
        for key in &writes {
            let ik = intent_key(key);
            if let Some(raw) = self.kv.get(&ik) {
                if let Ok((owner, _)) = decode_intent(&raw) {
                    if owner == txn {
                        batch.delete(ik);
                        entries.push(JournalEntry {
                            txn,
                            action: JOURNAL_ABORT,
                            ts: 0,
                            key: key.clone(),
                        });
                    }
                }
            }
        }
        batch.delete(record_key(txn));
        self.kv.apply(&batch);
        st.active.remove(&txn);
        st.release_latches(txn);
        drop(st);
        self.journal.lock().entries.extend(entries);
        Ok(())
    }

    /// Committed-but-unresolved transactions, in id order, with the values
    /// their intents will make visible. Coordinators replay side effects
    /// from this before resolving.
    pub fn decided(&self) -> Result<Vec<DecidedTxn>> {
        let mut out = Vec::new();
        for (txn, status, commit_ts, writes) in self.records()? {
            if status == STATUS_COMMITTED {
                out.push(DecidedTxn { txn, commit_ts, writes: self.surviving_intents(txn, writes)? });
            }
        }
        Ok(out)
    }

    /// The surviving intents of one decided transaction, as `(user_key,
    /// value)` pairs in key order (`None` is a delete) — the whole input of
    /// a roll-forward, read from the transaction's own record instead of a
    /// scan over every record. Empty once the transaction is resolved; an
    /// undecided transaction is an error.
    pub fn decided_writes(&self, txn: Ts) -> Result<Vec<(Vec<u8>, Option<Vec<u8>>)>> {
        let Some(rec) = self.kv.get(&record_key(txn)) else {
            return Ok(Vec::new()); // already resolved
        };
        let (status, _commit_ts, _read_ts, writes) = decode_record(&rec)?;
        if status != STATUS_COMMITTED {
            return Err(Error::InvalidArgument(format!(
                "mvcc txn {txn} is not decided; only a decided transaction rolls forward"
            )));
        }
        self.surviving_intents(txn, writes)
    }

    fn surviving_intents(
        &self,
        txn: Ts,
        writes: BTreeSet<Vec<u8>>,
    ) -> Result<Vec<(Vec<u8>, Option<Vec<u8>>)>> {
        let mut pairs = Vec::with_capacity(writes.len());
        for key in writes {
            if let Some(raw) = self.kv.get(&intent_key(&key)) {
                let (owner, value) = decode_intent(&raw)?;
                if owner == txn {
                    pairs.push((key, value));
                }
            }
        }
        Ok(pairs)
    }

    /// Pending records with no live coordinator (not in the active map), in
    /// id order — the orphans a crash leaves behind.
    pub fn orphan_pending(&self) -> Result<Vec<PendingTxn>> {
        let st = self.state.lock();
        let mut out = Vec::new();
        for (txn, status, _commit_ts, writes) in self.records()? {
            if status == STATUS_PENDING && !st.active.contains_key(&txn) {
                out.push(PendingTxn { txn, writes: self.surviving_intents(txn, writes)? });
            }
        }
        drop(st);
        Ok(out)
    }

    fn records(&self) -> Result<Vec<(Ts, u8, Ts, BTreeSet<Vec<u8>>)>> {
        let mut out = Vec::new();
        let mut err = None;
        self.kv.scan_prefix_with(b"t/", &mut |k, v| {
            if k.len() != 10 {
                return true;
            }
            let mut w = [0u8; 8];
            w.copy_from_slice(&k[2..10]);
            let txn = u64::from_be_bytes(w);
            match decode_record(v) {
                Ok((status, commit_ts, _read_ts, writes)) => {
                    out.push((txn, status, commit_ts, writes));
                    true
                }
                Err(e) => {
                    err = Some(e);
                    false
                }
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Crash recovery sweep: resolve every committed record, abort every
    /// orphaned pending record, in transaction-id order. Idempotent; after
    /// it returns there are zero unresolved intents for decided-or-orphaned
    /// transactions.
    pub fn recover(&self) -> Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        for d in self.decided()? {
            report.intents_resolved += self.resolve_committed(d.txn)?;
            report.committed_resolved += 1;
        }
        for p in self.orphan_pending()? {
            report.intents_resolved += p.writes.len() as u64;
            self.abort(p.txn)?;
            report.aborted_cleaned += 1;
        }
        Ok(report)
    }

    /// Drop the in-memory coordinator state of `txn` (active entry and
    /// latches) without touching durable state — the crash-injection seam.
    /// The record and intents survive exactly as a process death would
    /// leave them, so [`decided`](Self::decided),
    /// [`orphan_pending`](Self::orphan_pending) and
    /// [`recover`](Self::recover) can be exercised in-process.
    pub fn forget(&self, txn: Ts) {
        let mut st = self.state.lock();
        st.active.remove(&txn);
        st.release_latches(txn);
    }

    /// Number of write intents currently persisted (any transaction).
    pub fn pending_intents(&self) -> usize {
        let mut n = 0;
        self.kv.scan_prefix_with(b"i/", &mut |_, _| {
            n += 1;
            true
        });
        n
    }

    /// Deterministic digest of the resolution journal.
    pub fn journal_digest(&self) -> u64 {
        self.journal.lock().digest()
    }

    /// Byte encoding of the resolution journal (same-seed replay pinning).
    pub fn journal_bytes(&self) -> Vec<u8> {
        self.journal.lock().encode()
    }

    /// Entries resolved so far.
    pub fn journal_len(&self) -> usize {
        self.journal.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::KvStore;

    #[test]
    fn put_commit_get_roundtrip_and_time_travel() -> Result<()> {
        let m = MvccStore::new();
        let t1 = m.begin();
        m.put(t1.id, b"k", b"v1")?;
        let ts1 = m.commit_decide(t1.id)?;
        m.resolve_committed(t1.id)?;
        let t2 = m.begin();
        m.put(t2.id, b"k", b"v2")?;
        let ts2 = m.commit_decide(t2.id)?;
        m.resolve_committed(t2.id)?;
        assert!(ts2 > ts1);
        assert_eq!(m.read_at(b"k", ts1), Some(b"v1".to_vec()));
        assert_eq!(m.read_at(b"k", ts2), Some(b"v2".to_vec()));
        assert_eq!(m.read_at(b"k", ts1.saturating_sub(1)), None);
        assert_eq!(m.pending_intents(), 0);
        Ok(())
    }

    #[test]
    fn own_writes_are_visible_before_commit() -> Result<()> {
        let m = MvccStore::new();
        let t = m.begin();
        m.put(t.id, b"k", b"mine")?;
        assert_eq!(m.get(t.id, b"k")?, Some(b"mine".to_vec()));
        m.delete(t.id, b"k")?;
        assert_eq!(m.get(t.id, b"k")?, None);
        Ok(())
    }

    #[test]
    fn write_write_intent_collision_conflicts() -> Result<()> {
        let m = MvccStore::new();
        let a = m.begin();
        let b = m.begin();
        m.put(a.id, b"contested", b"a")?;
        let err = m.put(b.id, b"contested", b"b");
        assert!(matches!(err, Err(Error::Conflict(_))), "{err:?}");
        // Loser aborts; winner commits and the key carries its value.
        m.abort(b.id)?;
        m.commit_decide(a.id)?;
        m.resolve_committed(a.id)?;
        let r = m.begin();
        assert_eq!(m.get(r.id, b"contested")?, Some(b"a".to_vec()));
        m.abort(r.id)?;
        Ok(())
    }

    #[test]
    fn reader_pushes_writer_commit_timestamp() -> Result<()> {
        let m = MvccStore::new();
        let w = m.begin();
        m.put(w.id, b"k", b"new")?;
        let r = m.begin();
        // Reader meets the live intent: sees nothing (no committed version)
        // and pushes the writer above its snapshot.
        assert_eq!(m.get(r.id, b"k")?, None);
        let commit_ts = m.commit_decide(w.id)?;
        assert!(
            commit_ts > r.read_ts,
            "writer must commit above the reader's snapshot ({commit_ts} vs {})",
            r.read_ts
        );
        m.resolve_committed(w.id)?;
        // The reader's snapshot is unperturbed even after resolution.
        assert_eq!(m.read_at(b"k", r.read_ts), None);
        assert_eq!(m.read_at(b"k", commit_ts), Some(b"new".to_vec()));
        m.abort(r.id)?;
        Ok(())
    }

    #[test]
    fn occ_read_validation_aborts_lost_update() -> Result<()> {
        let m = MvccStore::new();
        let setup = m.begin();
        m.put(setup.id, b"cnt", b"0")?;
        m.commit_decide(setup.id)?;
        m.resolve_committed(setup.id)?;
        // Two read-modify-write transactions race; the slower one must
        // fail validation instead of silently losing the first update.
        let a = m.begin();
        let b = m.begin();
        assert_eq!(m.get(a.id, b"cnt")?, Some(b"0".to_vec()));
        assert_eq!(m.get(b.id, b"cnt")?, Some(b"0".to_vec()));
        m.put(a.id, b"cnt", b"1")?;
        m.commit_decide(a.id)?;
        m.resolve_committed(a.id)?;
        // b's write now collides with nothing (a resolved), but its READ is
        // stale: decide must fail and clean up.
        m.put(b.id, b"cnt", b"1")?;
        let err = m.commit_decide(b.id);
        assert!(matches!(err, Err(Error::Conflict(_))), "{err:?}");
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.pending_intents(), 0);
        Ok(())
    }

    #[test]
    fn range_latches_detect_overlap() -> Result<()> {
        let m = MvccStore::new();
        let a = m.begin();
        let b = m.begin();
        m.lock_range(a.id, b"table/a", b"table/m")?;
        assert!(matches!(m.lock_range(b.id, b"table/g", b"table/z"), Err(Error::Conflict(_))));
        // Disjoint range is fine; same-txn overlap is fine.
        m.lock_range(b.id, b"table/m", b"table/z")?;
        m.lock_range(a.id, b"table/c", b"table/d")?;
        // Point writes respect the interval too.
        assert!(matches!(m.put(b.id, b"table/h", b"x"), Err(Error::Conflict(_))));
        m.abort(a.id)?;
        m.put(b.id, b"table/h", b"x")?;
        m.abort(b.id)?;
        Ok(())
    }

    #[test]
    fn crash_recovery_resolves_committed_and_cleans_pending() -> Result<()> {
        let m = MvccStore::new();
        // t1 stays pending (coordinator "crashes" before deciding).
        let t1 = m.begin();
        m.put(t1.id, b"orphan/a", b"x")?;
        m.put(t1.id, b"orphan/b", b"y")?;
        // t2 decides but crashes before resolving.
        let t2 = m.begin();
        m.put(t2.id, b"done/a", b"1")?;
        m.put(t2.id, b"done/b", b"2")?;
        let commit_ts = m.commit_decide(t2.id)?;
        // Crash: rebuild from WAL bytes alone.
        let wal = m.kv().with_read(|kv| kv.wal_bytes().to_vec());
        let rec = MvccStore::over(SharedKv::from_store(KvStore::recover(wal)?));
        assert!(rec.pending_intents() > 0, "intents must survive the crash");
        let report = rec.recover()?;
        assert_eq!(report.committed_resolved, 1);
        assert_eq!(report.aborted_cleaned, 1);
        assert_eq!(rec.pending_intents(), 0, "zero orphaned intents after recovery");
        assert_eq!(rec.read_at(b"done/a", commit_ts), Some(b"1".to_vec()));
        assert_eq!(rec.read_at(b"done/b", commit_ts), Some(b"2".to_vec()));
        assert_eq!(rec.read_at(b"orphan/a", u64::MAX), None);
        // Recovery is idempotent: a second sweep does nothing.
        let digest = rec.journal_digest();
        let again = rec.recover()?;
        assert_eq!(again, RecoveryReport::default());
        assert_eq!(rec.journal_digest(), digest);
        // The oracle resumed above every persisted timestamp.
        let t3 = rec.begin();
        assert!(t3.read_ts > commit_ts);
        rec.abort(t3.id)?;
        Ok(())
    }

    #[test]
    fn recovery_journal_is_byte_identical_per_seed() -> Result<()> {
        let run = |seed: u64| -> Result<Vec<u8>> {
            let m = MvccStore::new();
            for i in 0..4u64 {
                let t = m.begin();
                let key = format!("k/{}", (seed.wrapping_mul(31) + i) % 8);
                m.put(t.id, key.as_bytes(), &seed.to_be_bytes())?;
                if i % 2 == 0 {
                    m.commit_decide(t.id)?;
                }
            }
            let wal = m.kv().with_read(|kv| kv.wal_bytes().to_vec());
            let rec = MvccStore::over(SharedKv::from_store(KvStore::recover(wal)?));
            rec.recover()?;
            Ok(rec.journal_bytes())
        };
        assert_eq!(run(7)?, run(7)?, "same seed must replay identically");
        assert_ne!(run(7)?, run(8)?, "different seeds must differ");
        Ok(())
    }

    #[test]
    fn tombstones_hide_older_versions() -> Result<()> {
        let m = MvccStore::new();
        let t1 = m.begin();
        m.put(t1.id, b"k", b"v")?;
        m.commit_decide(t1.id)?;
        m.resolve_committed(t1.id)?;
        let t2 = m.begin();
        m.delete(t2.id, b"k")?;
        let ts2 = m.commit_decide(t2.id)?;
        m.resolve_committed(t2.id)?;
        assert_eq!(m.read_at(b"k", ts2), None);
        assert!(m.read_at(b"k", ts2 - 1).is_some());
        Ok(())
    }

    #[test]
    fn unknown_txn_operations_are_not_found() {
        let m = MvccStore::new();
        assert!(matches!(m.put(999, b"k", b"v"), Err(Error::NotFound(_))));
        assert!(matches!(m.get(999, b"k"), Err(Error::NotFound(_))));
        assert!(matches!(m.abort(999), Err(Error::NotFound(_))));
        assert!(matches!(m.commit_decide(999), Err(Error::NotFound(_))));
    }

    #[test]
    fn decided_writes_are_one_transactions_surviving_intents() -> Result<()> {
        let m = MvccStore::new();
        let other = m.begin();
        m.put(other.id, b"z", b"other")?;
        m.commit_decide(other.id)?;
        let t = m.begin();
        m.put(t.id, b"b", b"2")?;
        m.delete(t.id, b"a")?;
        assert!(
            matches!(m.decided_writes(t.id), Err(Error::InvalidArgument(_))),
            "an undecided transaction cannot roll forward"
        );
        m.commit_decide(t.id)?;
        m.forget(t.id); // nothing but the record and the intents is needed
        let writes = m.decided_writes(t.id)?;
        assert_eq!(writes, vec![(b"a".to_vec(), None), (b"b".to_vec(), Some(b"2".to_vec()))]);
        let listed = m.decided()?;
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[1].writes, writes, "decided() is the same read per record");
        assert_eq!(m.resolve_committed(t.id)?, 2);
        assert!(m.decided_writes(t.id)?.is_empty(), "resolved: nothing left");
        assert_eq!(m.resolve_committed(t.id)?, 0, "resolution is idempotent");
        Ok(())
    }

    #[test]
    fn commit_path_scans_pay_no_cloned_pairs() -> Result<()> {
        let m = MvccStore::new();
        for i in 0..8u32 {
            let t = m.begin();
            m.put(t.id, format!("warm/{i}").as_bytes(), b"v")?;
            m.commit_decide(t.id)?;
            m.resolve_committed(t.id)?;
        }
        let before = crate::store::scan_copies();
        let t = m.begin();
        m.put(t.id, b"hot", b"v")?;
        assert_eq!(m.get(t.id, b"hot")?, Some(b"v".to_vec()));
        m.commit_decide(t.id)?;
        m.resolve_committed(t.id)?;
        m.recover()?;
        assert_eq!(
            crate::store::scan_copies(),
            before,
            "txn commit + recovery scans must use the borrowed scan variants"
        );
        Ok(())
    }

    #[test]
    fn escape_roundtrips_and_preserves_order() {
        let keys: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"\x00".to_vec(),
            b"\x00\x00".to_vec(),
            b"a".to_vec(),
            b"a\x00b".to_vec(),
            b"ab".to_vec(),
        ];
        let mut escaped: Vec<(Vec<u8>, Vec<u8>)> = keys
            .iter()
            .map(|k| {
                let mut e = Vec::new();
                escape_into(k, &mut e);
                (e, k.clone())
            })
            .collect();
        for (e, k) in &escaped {
            let (back, used) = unescape(e).unwrap();
            assert_eq!(&back, k);
            assert_eq!(used, e.len());
        }
        let mut sorted = escaped.clone();
        sorted.sort();
        escaped.sort_by(|a, b| a.1.cmp(&b.1));
        assert_eq!(sorted, escaped, "escaping must preserve user-key order");
    }
}
