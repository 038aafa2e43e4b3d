//! The KV engine proper: memtable + WAL, with a shared thread-safe wrapper.

use crate::batch::{Op, WriteBatch};
use crate::wal::Wal;
use common::Result;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;
use common::lockwitness::TrackedRwLock;

std::thread_local! {
    static SCAN_COPIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of key/value pairs *cloned out* of a store by this thread's
/// [`KvStore::scan_prefix`]/[`KvStore::scan_range`] calls (and their
/// [`SharedKv`] wrappers) since it started. The borrowed scan variants
/// ([`KvStore::for_each_prefix`], [`KvStore::for_each_range`]) never bump
/// it; hot-path regression tests read this before/after a request the same
/// way [`common::bytes::payload_copies`] pins the zero-copy data path.
pub fn scan_copies() -> u64 {
    SCAN_COPIES.with(|c| c.get())
}

fn note_scan_copies(pairs: usize) {
    if pairs > 0 {
        SCAN_COPIES.with(|c| c.set(c.get() + pairs as u64));
    }
}

/// An ordered key-value store with write-ahead logging.
///
/// All mutations flow through [`WriteBatch`]es appended to the WAL before
/// they touch the memtable, so [`recover`](KvStore::recover) rebuilds the
/// exact committed state from log bytes.
#[derive(Debug, Default)]
pub struct KvStore {
    mem: BTreeMap<Vec<u8>, Vec<u8>>,
    wal: Wal,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a store from WAL bytes (crash recovery).
    pub fn recover(wal_bytes: Vec<u8>) -> Result<Self> {
        let wal = Wal::from_bytes(wal_bytes)?;
        let mut mem = BTreeMap::new();
        for payload in wal.replay()? {
            let batch = WriteBatch::decode(&payload)?;
            Self::apply_to_mem(&mut mem, &batch);
        }
        Ok(KvStore { mem, wal })
    }

    /// Insert or overwrite a single key.
    pub fn put(&mut self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) {
        let mut b = WriteBatch::new();
        b.put(key, value);
        self.apply(&b);
    }

    /// Delete a single key (no-op if absent).
    pub fn delete(&mut self, key: impl Into<Vec<u8>>) {
        let mut b = WriteBatch::new();
        b.delete(key);
        self.apply(&b);
    }

    /// Insert or overwrite many keys atomically: one WAL frame for the
    /// whole batch, so either every put survives recovery or none do.
    pub(crate) fn put_batch(&mut self, pairs: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>) {
        let mut b = WriteBatch::new();
        for (key, value) in pairs {
            b.put(key, value);
        }
        self.apply(&b);
    }

    /// Apply a batch atomically: logged as one frame, then applied.
    pub(crate) fn apply(&mut self, batch: &WriteBatch) {
        if batch.is_empty() {
            return;
        }
        self.wal.append(&batch.encode());
        Self::apply_to_mem(&mut self.mem, batch);
    }

    /// Fetch the value for `key`.
    pub fn get(&self, key: &[u8]) -> Option<&Vec<u8>> {
        self.mem.get(key)
    }

    /// All pairs whose key starts with `prefix`, in key order. Clones every
    /// matched pair (and says so via [`scan_copies`]); hot paths should use
    /// [`for_each_prefix`](KvStore::for_each_prefix) instead.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let out: Vec<_> = self
            .mem
            .range::<Vec<u8>, _>((Bound::Included(&prefix.to_vec()), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        note_scan_copies(out.len());
        out
    }

    /// All pairs with `lo <= key < hi`, in key order. Clones every matched
    /// pair (see [`scan_copies`]); hot paths should use
    /// [`for_each_range`](KvStore::for_each_range) instead.
    pub(crate) fn scan_range(&self, lo: &[u8], hi: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let out: Vec<_> = self
            .mem
            .range::<Vec<u8>, _>((Bound::Included(&lo.to_vec()), Bound::Excluded(&hi.to_vec())))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        note_scan_copies(out.len());
        out
    }

    /// Borrowed prefix scan: call `f(key, value)` for each pair in key
    /// order, stopping when `f` returns `false`. No allocation per pair.
    pub(crate) fn for_each_prefix(&self, prefix: &[u8], f: &mut dyn FnMut(&[u8], &[u8]) -> bool) {
        for (k, v) in self
            .mem
            .range::<Vec<u8>, _>((Bound::Included(&prefix.to_vec()), Bound::Unbounded))
        {
            if !k.starts_with(prefix) || !f(k, v) {
                break;
            }
        }
    }

    /// Borrowed range scan over `lo <= key < hi`, stopping when `f`
    /// returns `false`. No allocation per pair.
    pub(crate) fn for_each_range(
        &self,
        lo: &[u8],
        hi: &[u8],
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) {
        for (k, v) in self
            .mem
            .range::<Vec<u8>, _>((Bound::Included(&lo.to_vec()), Bound::Excluded(&hi.to_vec())))
        {
            if !f(k, v) {
                break;
            }
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// Size of the WAL in bytes (grows with every batch until compaction).
    pub fn wal_bytes_len(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// Number of WAL frames (one per applied batch; group commit's gauge
    /// for "a whole group paid one frame").
    pub(crate) fn wal_frames(&self) -> u64 {
        self.wal.record_count()
    }

    /// Raw WAL bytes, e.g. for persisting into a PLog.
    pub fn wal_bytes(&self) -> &[u8] {
        self.wal.bytes()
    }

    /// Rewrite the WAL as a single batch of the live state, discarding
    /// superseded entries.
    pub(crate) fn compact_wal(&mut self) {
        let mut b = WriteBatch::new();
        for (k, v) in &self.mem {
            b.put(k.clone(), v.clone());
        }
        self.wal.reset_with(&[b.encode()]);
    }

    fn apply_to_mem(mem: &mut BTreeMap<Vec<u8>, Vec<u8>>, batch: &WriteBatch) {
        for op in batch.ops() {
            match op {
                Op::Put { key, value } => {
                    mem.insert(key.clone(), value.clone());
                }
                Op::Delete { key } => {
                    mem.remove(key);
                }
            }
        }
    }
}

/// A cloneable, thread-safe handle to a [`KvStore`].
///
/// Services share catalog and topology metadata through this wrapper; all
/// methods take `&self` and lock internally.
#[derive(Debug, Clone)]
pub struct SharedKv {
    inner: Arc<TrackedRwLock<KvStore>>,
}

impl Default for SharedKv {
    fn default() -> Self {
        SharedKv { inner: Arc::new(TrackedRwLock::new("kv.index", KvStore::default())) }
    }
}

impl SharedKv {
    /// A fresh, empty shared store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an existing store (e.g. one rebuilt by [`KvStore::recover`]).
    pub fn from_store(store: KvStore) -> Self {
        SharedKv { inner: Arc::new(TrackedRwLock::new("kv.index", store)) }
    }

    /// Insert or overwrite a key.
    pub fn put(&self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) {
        self.inner.write().put(key, value);
    }

    /// Delete a key.
    pub fn delete(&self, key: impl Into<Vec<u8>>) {
        self.inner.write().delete(key);
    }

    /// Apply a batch atomically: one write lock and one WAL frame.
    pub fn apply(&self, batch: &WriteBatch) {
        self.inner.write().apply(batch);
    }

    /// Insert or overwrite many keys under one write lock and WAL frame.
    pub fn put_batch(&self, pairs: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>) {
        self.inner.write().put_batch(pairs);
    }

    /// Fetch a value (cloned out of the lock).
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.read().get(key).cloned()
    }

    /// Prefix scan (cloned snapshot; counts against [`scan_copies`]).
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.read().scan_prefix(prefix)
    }

    /// Range scan `lo <= key < hi` (cloned snapshot; counts against
    /// [`scan_copies`]).
    pub fn scan_range(&self, lo: &[u8], hi: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.read().scan_range(lo, hi)
    }

    /// Borrowed prefix scan under the read lock: `f(key, value)` per pair
    /// in key order until it returns `false`. The hot-path variant — no
    /// per-pair clones (see [`scan_copies`]). `f` must not call back into
    /// this store.
    pub fn scan_prefix_with(&self, prefix: &[u8], f: &mut dyn FnMut(&[u8], &[u8]) -> bool) {
        self.inner.read().for_each_prefix(prefix, f);
    }

    /// Borrowed range scan under the read lock over `lo <= key < hi`.
    /// `f` must not call back into this store.
    pub(crate) fn scan_range_with(
        &self,
        lo: &[u8],
        hi: &[u8],
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) {
        self.inner.read().for_each_range(lo, hi, f);
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Number of WAL frames appended so far.
    pub fn wal_frames(&self) -> u64 {
        self.inner.read().wal_frames()
    }

    /// Run a closure with shared read access (borrowed gets, WAL
    /// inspection) without cloning values out of the lock.
    pub fn with_read<R>(&self, f: impl FnOnce(&KvStore) -> R) -> R {
        f(&self.inner.read())
    }

    /// Run a closure with exclusive access (for read-modify-write).
    pub(crate) fn with_mut<R>(&self, f: impl FnOnce(&mut KvStore) -> R) -> R {
        f(&mut self.inner.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn put_get_delete() {
        let mut kv = KvStore::new();
        kv.put(b"k".to_vec(), b"v".to_vec());
        assert_eq!(kv.get(b"k"), Some(&b"v".to_vec()));
        kv.delete(b"k".to_vec());
        assert_eq!(kv.get(b"k"), None);
        assert_eq!(kv.len(), 0);
    }

    #[test]
    fn batch_is_atomic_across_recovery() {
        let mut kv = KvStore::new();
        let mut b = WriteBatch::new();
        b.put(b"a".to_vec(), b"1".to_vec()).put(b"b".to_vec(), b"2".to_vec());
        kv.apply(&b);
        // Tear the WAL inside the batch frame: recovery must drop BOTH keys.
        let mut bytes = kv.wal_bytes().to_vec();
        bytes.truncate(bytes.len() - 1);
        let rec = KvStore::recover(bytes).unwrap();
        assert_eq!(rec.len(), 0, "torn batch must not be half-applied");
    }

    #[test]
    fn put_batch_logs_one_frame_and_is_atomic() {
        let mut kv = KvStore::new();
        kv.put(b"seed".to_vec(), b"0".to_vec());
        let frame_len = kv.wal_bytes_len();
        kv.put_batch((0..16u32).map(|i| (format!("k{i:02}").into_bytes(), i.to_le_bytes().to_vec())));
        assert_eq!(kv.len(), 17);
        // One frame for 16 puts: far smaller than 16 single-put frames.
        assert!(kv.wal_bytes_len() - frame_len < 16 * frame_len);
        // Tear inside the batch frame: recovery drops the whole batch.
        let mut bytes = kv.wal_bytes().to_vec();
        bytes.truncate(bytes.len() - 1);
        let rec = KvStore::recover(bytes).unwrap();
        assert_eq!(rec.len(), 1, "torn batched put must not be half-applied");
        assert_eq!(rec.get(b"seed"), Some(&b"0".to_vec()));
    }

    #[test]
    fn shared_put_batch_matches_individual_puts() {
        let kv = SharedKv::new();
        kv.put_batch(vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), b"2".to_vec()),
            (b"a".to_vec(), b"3".to_vec()), // last writer wins within a batch
        ]);
        assert_eq!(kv.get(b"a"), Some(b"3".to_vec()));
        assert_eq!(kv.get(b"b"), Some(b"2".to_vec()));
        kv.put_batch(Vec::new()); // empty batch is a no-op
        assert_eq!(kv.len(), 2);
    }

    #[test]
    fn recovery_replays_committed_state() {
        let mut kv = KvStore::new();
        kv.put(b"x".to_vec(), b"1".to_vec());
        kv.put(b"y".to_vec(), b"2".to_vec());
        kv.delete(b"x".to_vec());
        kv.put(b"y".to_vec(), b"3".to_vec());
        let rec = KvStore::recover(kv.wal_bytes().to_vec()).unwrap();
        assert_eq!(rec.get(b"x"), None);
        assert_eq!(rec.get(b"y"), Some(&b"3".to_vec()));
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn prefix_scan_returns_sorted_matches() {
        let mut kv = KvStore::new();
        kv.put(b"fam/b".to_vec(), b"2".to_vec());
        kv.put(b"fam/a".to_vec(), b"1".to_vec());
        kv.put(b"table/z".to_vec(), b"9".to_vec());
        let hits = kv.scan_prefix(b"fam/");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, b"fam/a");
        assert_eq!(hits[1].0, b"fam/b");
    }

    #[test]
    fn range_scan_is_half_open() {
        let mut kv = KvStore::new();
        for k in [b"a", b"b", b"c"] {
            kv.put(k.to_vec(), b"v".to_vec());
        }
        let hits = kv.scan_range(b"a", b"c");
        assert_eq!(hits.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(), vec![
            b"a".to_vec(),
            b"b".to_vec()
        ]);
    }

    #[test]
    fn compaction_shrinks_wal_and_preserves_state() {
        let mut kv = KvStore::new();
        for i in 0..200u32 {
            kv.put(b"hot".to_vec(), i.to_le_bytes().to_vec());
        }
        let before = kv.wal_bytes_len();
        kv.compact_wal();
        assert!(kv.wal_bytes_len() < before / 10);
        let rec = KvStore::recover(kv.wal_bytes().to_vec()).unwrap();
        assert_eq!(rec.get(b"hot"), Some(&199u32.to_le_bytes().to_vec()));
    }

    #[test]
    fn shared_kv_is_usable_across_threads() {
        let kv = SharedKv::new();
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let kv = kv.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    kv.put(format!("t{t}/k{i}").into_bytes(), i.to_le_bytes().to_vec());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(kv.len(), 400);
        assert_eq!(kv.scan_prefix(b"t2/").len(), 100);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn store_matches_model_btreemap(
            ops in proptest::collection::vec(
                prop_oneof![
                    (proptest::collection::vec(any::<u8>(), 1..8),
                     proptest::collection::vec(any::<u8>(), 0..8)).prop_map(|(k, v)| (true, k, v)),
                    proptest::collection::vec(any::<u8>(), 1..8).prop_map(|k| (false, k, vec![])),
                ],
                0..100,
            )
        ) {
            let mut kv = KvStore::new();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for (is_put, k, v) in ops {
                if is_put {
                    kv.put(k.clone(), v.clone());
                    model.insert(k, v);
                } else {
                    kv.delete(k.clone());
                    model.remove(&k);
                }
            }
            prop_assert_eq!(kv.len(), model.len());
            for (k, v) in &model {
                prop_assert_eq!(kv.get(k), Some(v));
            }
            // recovery agrees with the model too
            let rec = KvStore::recover(kv.wal_bytes().to_vec()).unwrap();
            prop_assert_eq!(rec.len(), model.len());
            for (k, v) in &model {
                prop_assert_eq!(rec.get(k), Some(v));
            }
        }
    }
}
