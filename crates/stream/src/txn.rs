//! Exactly-once transactions (§V-A, "Delivery Guarantee" item 4).
//!
//! "The system provides exactly-once semantics through a transaction
//! manager and the two-phase commit protocol. This tracks participant
//! actions and ensures that all results in a transaction are visible or
//! invisible at the same time."
//!
//! The coordinator is a thin layer over [`MvccStore`]: each stream
//! transaction is an MVCC transaction record, and each participant
//! registration writes a provisional intent under `s/<txn>/<object>`.
//! The durable commit point is the MVCC record flip ([`commit_decide`]
//! writes one WAL frame); participant visibility flips happen during
//! *resolution* and are driven by those surviving intents
//! ([`MvccStore::decided_writes`]), not by coordinator memory — so
//! [`TxnManager::resolve`] is the same call whether the coordinator lived
//! through the decision or a recovering process found it in the store.
//!
//! [`commit_decide`]: MvccStore::commit_decide

use crate::object::{StreamObject, StreamObjectStore};
use common::{Error, ObjectId, Result, TxnId};
use kvstore::MvccStore;
use std::collections::BTreeMap;
use std::sync::Arc;
use common::lockwitness::TrackedMutex;

/// Key prefix for stream-participant intents in the MVCC keyspace.
const PARTICIPANT_PREFIX: &[u8] = b"s/";

/// The MVCC user key recording that `txn` produced into `object`; the
/// intent's value repeats the object id.
fn participant_key(txn: u64, object: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(PARTICIPANT_PREFIX.len() + 17);
    k.extend_from_slice(PARTICIPANT_PREFIX);
    k.extend_from_slice(&txn.to_be_bytes());
    k.push(b'/');
    k.extend_from_slice(&object.to_be_bytes());
    k
}

/// The object a participant intent names: the id in its value, which is
/// also the last eight bytes of its key.
fn participant_object(id: &[u8]) -> Option<ObjectId> {
    Some(ObjectId(u64::from_be_bytes(id.try_into().ok()?)))
}

/// The transaction coordinator.
#[derive(Debug)]
pub struct TxnManager {
    objects: Arc<StreamObjectStore>,
    mvcc: Arc<MvccStore>,
    /// In-flight transactions and the participants registered so far.
    active: TrackedMutex<BTreeMap<u64, Vec<Arc<StreamObject>>>>,
}

impl TxnManager {
    /// A coordinator for transactions over `objects`, keeping its records
    /// and intents in `mvcc` (share the store so stream transactions can
    /// atomically span other subsystems writing it).
    pub fn new(objects: Arc<StreamObjectStore>, mvcc: Arc<MvccStore>) -> Self {
        TxnManager {
            objects,
            mvcc,
            active: TrackedMutex::new("stream.txn.active", BTreeMap::new()),
        }
    }

    /// The MVCC store backing transaction records and intents.
    pub fn mvcc(&self) -> &Arc<MvccStore> {
        &self.mvcc
    }

    /// Begin a transaction: a durable PENDING record in the MVCC store.
    pub fn begin(&self) -> TxnId {
        let handle = self.mvcc.begin();
        self.active.lock().insert(handle.id, Vec::new());
        TxnId(handle.id)
    }

    /// Record that `txn` produced into `object` (idempotent per object).
    /// Writes a provisional intent so the membership survives a
    /// coordinator crash.
    pub fn register_participant(&self, txn: TxnId, object: Arc<StreamObject>) -> Result<()> {
        let mut active = self.active.lock();
        let participants = active
            .get_mut(&txn.raw())
            .ok_or_else(|| Error::NotFound(format!("transaction {txn}")))?;
        if !participants.iter().any(|p| p.id() == object.id()) {
            let key = participant_key(txn.raw(), object.id().raw());
            self.mvcc
                .put(txn.raw(), &key, &object.id().raw().to_be_bytes())?;
            participants.push(object);
        }
        Ok(())
    }

    /// Phase 1 + the commit point: prepare every participant, then flip the
    /// MVCC record to COMMITTED (one WAL frame — the durable decision).
    /// Participant visibility does *not* change yet; callers follow up with
    /// [`resolve`](Self::resolve). Any prepare failure aborts everywhere.
    pub fn prepare_decide(&self, txn: TxnId) -> Result<u64> {
        let participants = self
            .active
            .lock()
            .get(&txn.raw())
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("transaction {txn}")))?;
        // Phase 1: prepare — every participant must still hold the txn open.
        let decision = if participants.iter().all(|p| p.prepared(txn.raw())) {
            self.mvcc.commit_decide(txn.raw()) // a failed decide aborts the record itself
        } else {
            self.mvcc.abort(txn.raw()).and(Err(Error::TxnAborted(format!(
                "transaction {txn}: a participant failed to prepare"
            ))))
        };
        if decision.is_err() {
            // The MVCC record is aborted; mirror that on the participants
            // and drop the coordinator entry.
            for p in &participants {
                p.abort_txn(txn.raw());
            }
            self.active.lock().remove(&txn.raw());
        }
        decision
    }

    /// Phase 2, the stream half of a roll-forward: flip visibility on every
    /// participant named by an `s/` intent among the decided transaction's
    /// surviving `writes` ([`MvccStore::decided_writes`]), then resolve the
    /// intents and delete the record. Needs no coordinator memory, so live
    /// commits and crash recovery make the same call.
    pub fn resolve(&self, txn: TxnId, writes: &[(Vec<u8>, Option<Vec<u8>>)]) -> Result<()> {
        for (key, value) in writes {
            if let Some(o) = self.participant(key, value.as_deref()) {
                o.commit_txn(txn.raw());
            }
        }
        self.mvcc.resolve_committed(txn.raw())?;
        self.active.lock().remove(&txn.raw());
        Ok(())
    }

    /// The live stream object an `s/` intent (`key`, and the id bytes it
    /// carries) names; `None` for other keys and destroyed objects.
    fn participant(&self, key: &[u8], id: Option<&[u8]>) -> Option<Arc<StreamObject>> {
        if !key.starts_with(PARTICIPANT_PREFIX) {
            return None;
        }
        self.objects.get(participant_object(id?)?).ok()
    }

    /// Two-phase commit. On any prepare failure the transaction is aborted
    /// everywhere and `TxnAborted` is returned.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        self.prepare_decide(txn)?;
        self.resolve(txn, &self.mvcc.decided_writes(txn.raw())?)
    }

    /// Abort `txn` on every participant and clean its MVCC intents.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let participants = self
            .active
            .lock()
            .remove(&txn.raw())
            .ok_or_else(|| Error::NotFound(format!("transaction {txn}")))?;
        for p in &participants {
            p.abort_txn(txn.raw());
        }
        self.mvcc.abort(txn.raw())
    }

    /// Abort an orphan — a pending transaction whose coordinator died
    /// before deciding, found by [`MvccStore::orphan_pending`] with its
    /// surviving `writes`: the participants are the ones its `s/` intents
    /// name, exactly as in [`resolve`](Self::resolve).
    pub fn abort_orphan(&self, txn: TxnId, writes: &[(Vec<u8>, Option<Vec<u8>>)]) -> Result<()> {
        for (key, value) in writes {
            if let Some(o) = self.participant(key, value.as_deref()) {
                o.abort_txn(txn.raw());
            }
        }
        self.active.lock().remove(&txn.raw());
        self.mvcc.abort(txn.raw())
    }

    /// Drop the in-memory coordinator entry for `txn` without touching
    /// participants or the MVCC record — the crash-injection seam.
    pub fn forget(&self, txn: TxnId) {
        self.active.lock().remove(&txn.raw());
    }

    /// Number of in-flight transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::ctx::IoCtx;
    use crate::object::{CreateOptions, ReadCtrl};
    use crate::record::Record;
    use common::size::MIB;
    use common::SimClock;
    use ec::Redundancy;
    use plog::{PlogConfig, PlogStore};
    use simdisk::{MediaKind, StoragePool};

    fn object_store() -> Arc<StreamObjectStore> {
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
        Arc::new(StreamObjectStore::new(plog, 0))
    }

    fn txn_record(txn: TxnId, v: &[u8]) -> Record {
        let mut r = Record::new(b"k".to_vec(), v.to_vec(), 0);
        r.txn = Some(txn.raw());
        r
    }

    #[test]
    fn commit_makes_all_streams_visible_atomically() {
        let store = object_store();
        let a = store.create(CreateOptions::default()).unwrap();
        let b = store.create(CreateOptions::default()).unwrap();
        let mgr = TxnManager::new(store.clone(), Arc::default());
        let txn = mgr.begin();
        a.append_at(&[txn_record(txn, b"to-a")], &IoCtx::new(0)).unwrap();
        b.append_at(&[txn_record(txn, b"to-b")], &IoCtx::new(0)).unwrap();
        mgr.register_participant(txn, a.clone()).unwrap();
        mgr.register_participant(txn, b.clone()).unwrap();

        let ctrl = ReadCtrl::default();
        assert!(a.read_at(0, ctrl, &IoCtx::new(0)).unwrap().0.is_empty());
        assert!(b.read_at(0, ctrl, &IoCtx::new(0)).unwrap().0.is_empty());
        mgr.commit(txn).unwrap();
        assert_eq!(a.read_at(0, ctrl, &IoCtx::new(0)).unwrap().0.len(), 1);
        assert_eq!(b.read_at(0, ctrl, &IoCtx::new(0)).unwrap().0.len(), 1);
        assert_eq!(mgr.active_count(), 0);
        // Resolution also cleaned the MVCC side: no intents, no records.
        assert_eq!(mgr.mvcc().pending_intents(), 0);
        assert_eq!(mgr.mvcc().active_count(), 0);
    }

    #[test]
    fn abort_hides_everywhere() {
        let store = object_store();
        let a = store.create(CreateOptions::default()).unwrap();
        let b = store.create(CreateOptions::default()).unwrap();
        let mgr = TxnManager::new(store.clone(), Arc::default());
        let txn = mgr.begin();
        a.append_at(&[txn_record(txn, b"x")], &IoCtx::new(0)).unwrap();
        b.append_at(&[txn_record(txn, b"y")], &IoCtx::new(0)).unwrap();
        mgr.register_participant(txn, a.clone()).unwrap();
        mgr.register_participant(txn, b.clone()).unwrap();
        mgr.abort(txn).unwrap();
        let ctrl = ReadCtrl::default();
        assert!(a.read_at(0, ctrl, &IoCtx::new(0)).unwrap().0.is_empty());
        assert!(b.read_at(0, ctrl, &IoCtx::new(0)).unwrap().0.is_empty());
        assert_eq!(mgr.mvcc().pending_intents(), 0);
    }

    #[test]
    fn failed_prepare_aborts_all_participants() {
        let store = object_store();
        let a = store.create(CreateOptions::default()).unwrap();
        let b = store.create(CreateOptions::default()).unwrap();
        let mgr = TxnManager::new(store.clone(), Arc::default());
        let txn = mgr.begin();
        a.append_at(&[txn_record(txn, b"x")], &IoCtx::new(0)).unwrap();
        b.append_at(&[txn_record(txn, b"y")], &IoCtx::new(0)).unwrap();
        mgr.register_participant(txn, a.clone()).unwrap();
        mgr.register_participant(txn, b.clone()).unwrap();
        // Participant b fails before commit (destroyed object cannot prepare).
        store.destroy(b.id()).unwrap();
        assert!(matches!(mgr.commit(txn), Err(Error::TxnAborted(_))));
        // Survivor's records are aborted, never visible.
        assert!(a.read_at(0, ReadCtrl::default(), &IoCtx::new(0)).unwrap().0.is_empty());
        // And the MVCC record + intents are gone.
        assert_eq!(mgr.mvcc().pending_intents(), 0);
        assert_eq!(mgr.mvcc().active_count(), 0);
    }

    #[test]
    fn unknown_txn_operations_fail() {
        let mgr = TxnManager::new(object_store(), Arc::default());
        assert!(mgr.commit(TxnId(999)).is_err());
        assert!(mgr.abort(TxnId(999)).is_err());
    }

    #[test]
    fn double_commit_is_not_found() {
        let store = object_store();
        let a = store.create(CreateOptions::default()).unwrap();
        let mgr = TxnManager::new(store.clone(), Arc::default());
        let txn = mgr.begin();
        a.append_at(&[txn_record(txn, b"x")], &IoCtx::new(0)).unwrap();
        mgr.register_participant(txn, a).unwrap();
        mgr.commit(txn).unwrap();
        assert!(matches!(mgr.commit(txn), Err(Error::NotFound(_))));
    }

    #[test]
    fn decide_without_resolve_leaves_replayable_intents() {
        // Simulates the coordinator crashing between the commit point and
        // resolution: the decision and the participant set must both be
        // recoverable from the MVCC store.
        let store = object_store();
        let a = store.create(CreateOptions::default()).unwrap();
        let mgr = TxnManager::new(store.clone(), Arc::default());
        let txn = mgr.begin();
        a.append_at(&[txn_record(txn, b"x")], &IoCtx::new(0)).unwrap();
        mgr.register_participant(txn, a.clone()).unwrap();
        mgr.prepare_decide(txn).unwrap();
        // Not yet visible: resolution has not run.
        assert!(a.read_at(0, ReadCtrl::default(), &IoCtx::new(0)).unwrap().0.is_empty());
        let decided = mgr.mvcc().decided().unwrap();
        assert_eq!(decided.len(), 1);
        assert_eq!(decided[0].txn, txn.raw());
        let (key, value) = &decided[0].writes[0];
        assert!(key.starts_with(PARTICIPANT_PREFIX));
        assert_eq!(participant_object(value.as_deref().unwrap()), Some(a.id()));
        // A coordinator with no memory of the transaction still rolls it
        // forward: the flip comes from the surviving intent.
        mgr.forget(txn);
        mgr.resolve(txn, &decided[0].writes).unwrap();
        assert_eq!(a.read_at(0, ReadCtrl::default(), &IoCtx::new(0)).unwrap().0.len(), 1);
        assert_eq!(mgr.mvcc().pending_intents(), 0);
    }
}
