//! Runtime lock-order witness (the dynamic half of slint R9).
//!
//! The static rule `slint` R9 proves, from source text, that every lock in
//! the workspace is acquired consistently with one canonical hierarchy (see
//! `DESIGN.md` § "Static analysis (slint v2)"). This module corroborates
//! the claim at runtime: when enabled, every instrumented acquisition pushes
//! its lock *class* onto a per-thread witness stack, records the observed
//! `held → acquired` edges into a global DAG, and panics the moment an
//! acquisition inverts the declared ranks or re-enters a class the thread
//! already holds (which would deadlock for real under `std::sync::Mutex`).
//!
//! The witness is a debug-only sanitizer, not a production mechanism:
//!
//! * In release builds (`cfg!(debug_assertions)` false) `acquire` folds to
//!   a no-op returning a zero-sized-ish guard; nothing is recorded.
//! * In debug builds it is still opt-in: per-thread via [`enable`] (used by
//!   the chaos/maintenance suites) or process-wide via the
//!   `SL_LOCKWITNESS=1` environment variable (used by `scripts/check.sh`).
//!
//! The hierarchy table below is the workspace's only one: `slint` R9 reads
//! it (owner struct and field locate each class in source text), and a unit
//! test here pins DESIGN.md's printed copy to it.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// One lock class of the canonical hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockClass {
    /// Stable class name, as passed to [`acquire`] / [`TrackedMutex::new`].
    pub name: &'static str,
    /// Rank: acquisitions must happen in strictly increasing rank order.
    pub rank: u32,
    /// Struct that owns the lock field (how `slint` finds the class).
    pub owner: &'static str,
    /// Field name of the lock within `owner`.
    pub field: &'static str,
}

const fn class(
    name: &'static str,
    rank: u32,
    owner: &'static str,
    field: &'static str,
) -> LockClass {
    LockClass { name, rank, owner, field }
}

/// Canonical lock hierarchy, outermost first. A thread may only acquire
/// classes with strictly increasing ranks; classes absent from the table
/// are tracked for edge recording but never violate by rank.
pub const HIERARCHY: &[LockClass] = &[
    class("core.chore.runtime", 10, "ChoreRuntime", "inner"),
    // frontdoor.state ranks below access.grants on purpose: admission
    // stage 1 (auth) runs and releases before the door state is locked,
    // and the door may hold its state while calling into stream/plog/
    // simdisk/metrics (all higher ranks). journal ranks just above state:
    // decisions are journaled while the state lock is still held.
    class("core.frontdoor.state", 12, "FrontDoor", "state"),
    class("core.frontdoor.journal", 13, "FrontDoor", "journal"),
    class("core.access.grants", 15, "AccessController", "inner"),
    class("stream.service.quotas", 22, "StreamService", "quotas"),
    // group.state ranks below dispatcher.topo: rebalancing holds the
    // coordinator state while reading partition counts from the topology.
    class("stream.group.state", 23, "GroupCoordinator", "state"),
    class("stream.group.journal", 24, "GroupCoordinator", "journal"),
    class("stream.dispatcher.topo", 25, "StreamDispatcher", "topo"),
    class("stream.txn.active", 28, "TxnManager", "active"),
    class("stream.object.registry", 30, "StreamObjectStore", "objects"),
    class("stream.object.state", 35, "StreamObject", "state"),
    class("stream.archive.entries", 40, "ArchiveService", "entries"),
    class("lake.meta.pending", 50, "MetadataCache", "pending"),
    class("plog.repl.mapping", 55, "RemoteReplicator", "mapping"),
    class("plog.repl.cursor", 56, "RemoteReplicator", "cursor"),
    class("plog.shard", 60, "PlogStore", "shards"),
    // MVCC coordination state ranks below kv.index: the transaction layer
    // holds its state/journal locks while reading and batch-writing the
    // backing KV store (intents, records, resolutions).
    class("kv.mvcc.state", 66, "MvccStore", "state"),
    class("kv.mvcc.journal", 67, "MvccStore", "journal"),
    class("kv.index", 70, "SharedKv", "inner"),
    // fault.state ranks below device.state: FaultInjector::advance_to
    // holds its schedule lock while applying events to devices.
    class("simdisk.fault.state", 72, "FaultInjector", "state"),
    class("simdisk.device.state", 75, "Device", "state"),
    class("common.metrics", 85, "Metrics", "inner"),
    class("common.span.trail", 90, "SpanSink", "trail"),
];

/// Rank of `class` in the canonical hierarchy, if declared.
pub fn rank(class: &str) -> Option<u32> {
    HIERARCHY.iter().find(|c| c.name == class).map(|c| c.rank)
}

/// Monotonic id so guards can be dropped in any order.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Count of violations detected (the witness also panics; the counter
/// survives `catch_unwind` in tests that assert on detection).
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Observed acquisition-order edges `(held, acquired)` across all threads.
static EDGES: OnceLock<Mutex<BTreeSet<(&'static str, &'static str)>>> = OnceLock::new();

fn edges_cell() -> &'static Mutex<BTreeSet<(&'static str, &'static str)>> {
    EDGES.get_or_init(|| Mutex::new(BTreeSet::new()))
}

fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SL_LOCKWITNESS").map(|v| v == "1" || v == "true").unwrap_or(false)
    })
}

thread_local! {
    /// Per-thread opt-in flag (tests) and held-lock stack.
    static TLS_ENABLED: RefCell<bool> = const { RefCell::new(false) };
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
}

#[derive(Clone, Copy)]
struct Held {
    class: &'static str,
    rank: Option<u32>,
    id: u64,
}

/// Enable the witness on the current thread (debug builds only; a no-op in
/// release builds where the whole mechanism compiles out).
pub fn enable() {
    TLS_ENABLED.with(|e| *e.borrow_mut() = true);
}

/// Disable the witness on the current thread.
pub fn disable() {
    TLS_ENABLED.with(|e| *e.borrow_mut() = false);
}

/// Whether acquisitions on this thread are currently being witnessed.
pub(crate) fn enabled() -> bool {
    cfg!(debug_assertions) && (env_enabled() || TLS_ENABLED.with(|e| *e.borrow()))
}

/// Violations detected so far, process-wide.
pub fn violation_count() -> u64 {
    VIOLATIONS.load(Ordering::Relaxed)
}

/// The observed runtime lock DAG: every `(held, acquired)` pair seen while
/// the witness was enabled, in stable order.
pub fn observed_edges() -> Vec<(&'static str, &'static str)> {
    edges_cell().lock().unwrap_or_else(PoisonError::into_inner).iter().copied().collect()
}

/// Witness token for one acquisition; dropping it (in any order) removes
/// the class from the thread's held stack.
#[must_use = "the witness guard must live as long as the lock guard it shadows"]
#[derive(Debug)]
pub(crate) struct Guard {
    id: Option<u64>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.id == id) {
                held.remove(pos);
            }
        });
    }
}

/// Record the acquisition of lock class `class` on this thread.
///
/// Call immediately *before* taking the real lock and keep the returned
/// guard alive exactly as long as the real guard (drop it alongside an
/// explicit `drop(lock_guard)`). Panics — after bumping
/// [`violation_count`] — when the acquisition inverts the declared
/// hierarchy or re-enters a class this thread already holds.
pub(crate) fn acquire(class: &'static str) -> Guard {
    if !enabled() {
        return Guard { id: None };
    }
    let new_rank = rank(class);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let conflict = HELD.with(|held| {
        let mut held = held.borrow_mut();
        let mut conflict: Option<String> = None;
        for h in held.iter() {
            if h.class == class {
                conflict = Some(format!(
                    "lockwitness: nested reacquisition of lock class `{class}` \
                     (already held by this thread; std::sync::Mutex would deadlock)"
                ));
                break;
            }
            if let (Some(hr), Some(nr)) = (h.rank, new_rank) {
                if hr >= nr {
                    conflict = Some(format!(
                        "lockwitness: lock-order inversion: acquiring `{class}` (rank {nr}) \
                         while holding `{held}` (rank {hr}); the canonical hierarchy \
                         requires strictly increasing ranks",
                        held = h.class,
                    ));
                    break;
                }
            }
        }
        if conflict.is_none() {
            let mut edges = edges_cell().lock().unwrap_or_else(PoisonError::into_inner);
            for h in held.iter() {
                edges.insert((h.class, class));
            }
            held.push(Held { class, rank: new_rank, id });
        }
        conflict
    });
    if let Some(msg) = conflict {
        VIOLATIONS.fetch_add(1, Ordering::Relaxed);
        // slint:allow(R4): the witness is a sanitizer; detecting a latent
        // deadlock must abort the test loudly, not return an Error.
        panic!("{msg}");
    }
    Guard { id: Some(id) }
}

/// A `parking_lot::Mutex` whose every acquisition is witnessed under a
/// fixed lock class. Drop-in for the bare mutex at declaration sites: the
/// acquisition syntax (`field.lock()`) and guard ergonomics are unchanged,
/// and the witness entry is popped automatically when the guard drops —
/// including at explicit `drop(guard)` release points.
pub struct TrackedMutex<T> {
    class: &'static str,
    inner: parking_lot::Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// A mutex witnessed under `class` (a name from [`HIERARCHY`], or an
    /// unranked label for edge recording only).
    pub const fn new(class: &'static str, value: T) -> Self {
        TrackedMutex { class, inner: parking_lot::Mutex::new(value) }
    }

    /// Acquire, recording the acquisition on the thread's witness stack.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let witness = acquire(self.class);
        TrackedMutexGuard { inner: self.inner.lock(), _witness: witness }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("class", &self.class)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard for [`TrackedMutex`]: releases the real lock first, then pops the
/// witness entry (fields drop in declaration order).
pub struct TrackedMutexGuard<'a, T> {
    inner: parking_lot::MutexGuard<'a, T>,
    _witness: Guard,
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A `parking_lot::RwLock` counterpart of [`TrackedMutex`]. Reader/writer
/// distinction is irrelevant to ordering: both sides are witnessed the
/// same way (a read lock still deadlocks against a writer cycle).
pub struct TrackedRwLock<T> {
    class: &'static str,
    inner: parking_lot::RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// An rwlock witnessed under `class`.
    pub const fn new(class: &'static str, value: T) -> Self {
        TrackedRwLock { class, inner: parking_lot::RwLock::new(value) }
    }

    /// Acquire shared, recording the acquisition.
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        let witness = acquire(self.class);
        TrackedReadGuard { inner: self.inner.read(), _witness: witness }
    }

    /// Acquire exclusive, recording the acquisition.
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        let witness = acquire(self.class);
        TrackedWriteGuard { inner: self.inner.write(), _witness: witness }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedRwLock")
            .field("class", &self.class)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard for [`TrackedRwLock`].
pub struct TrackedReadGuard<'a, T> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
    _witness: Guard,
}

impl<T> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard for [`TrackedRwLock`].
pub struct TrackedWriteGuard<'a, T> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    _witness: Guard,
}

impl<T> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that assert on the process-wide violation counter.
    static TEST_GATE: Mutex<()> = Mutex::new(());

    fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
        enable();
        let out = f();
        disable();
        HELD.with(|h| h.borrow_mut().clear());
        out
    }

    #[test]
    fn ranks_are_strictly_increasing_in_table_order() {
        for pair in HIERARCHY.windows(2) {
            assert!(
                pair[0].rank < pair[1].rank,
                "hierarchy table must be sorted by rank: {:?} before {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn frontdoor_ranks_sit_between_chore_and_access() {
        // The front door locks its state before journaling a decision
        // (state < journal) and may hold either while calling auth-free
        // paths into stream/plog/simdisk/metrics — so both must rank
        // below every data-path lock, and below access.grants (auth runs
        // and releases before the state lock is taken).
        let rank_of = |name: &str| rank(name).unwrap_or_else(|| panic!("{name} undeclared"));
        let state = rank_of("core.frontdoor.state");
        let journal = rank_of("core.frontdoor.journal");
        assert!(state < journal, "decisions are journaled under the state lock");
        assert!(rank_of("core.chore.runtime") < state);
        assert!(journal < rank_of("core.access.grants"));
        assert!(journal < rank_of("stream.service.quotas"));
        assert!(journal < rank_of("simdisk.device.state"));
        assert!(journal < rank_of("common.metrics"));
    }

    #[test]
    fn design_doc_lists_exactly_this_hierarchy() {
        // DESIGN.md prints the table for readers; this is its only guard.
        // Rows look like `| 60 | `plog.shard` | ... |`, under the heading.
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split_once("### Canonical lock hierarchy")
            .expect("DESIGN.md has the canonical lock hierarchy section")
            .1;
        let section = section.split("\n#").next().unwrap_or(section);
        let listed: Vec<(String, u32)> = section
            .lines()
            .filter_map(|line| {
                let mut cells = line.strip_prefix('|')?.split('|').map(str::trim);
                let rank = cells.next()?.parse().ok()?;
                Some((cells.next()?.trim_matches('`').to_string(), rank))
            })
            .collect();
        let declared: Vec<(String, u32)> =
            HIERARCHY.iter().map(|c| (c.name.to_string(), c.rank)).collect();
        assert_eq!(listed, declared, "DESIGN.md's lock table drifted from HIERARCHY");
    }

    #[test]
    fn disabled_witness_records_nothing() {
        let _gate = TEST_GATE.lock().unwrap_or_else(PoisonError::into_inner);
        if env_enabled() {
            return; // SL_LOCKWITNESS=1 force-enables the witness process-wide
        }
        disable();
        let before = observed_edges().len();
        let _a = acquire("plog.shard");
        let _b = acquire("core.chore.runtime"); // would invert if enabled
        assert_eq!(observed_edges().len(), before);
    }

    #[test]
    fn records_edges_in_rank_order() {
        let _gate = TEST_GATE.lock().unwrap_or_else(PoisonError::into_inner);
        with_enabled(|| {
            let a = acquire("plog.shard");
            let b = acquire("kv.index");
            drop(b);
            drop(a);
        });
        assert!(observed_edges().contains(&("plog.shard", "kv.index")));
    }

    #[test]
    fn out_of_order_guard_drop_is_tolerated() {
        let _gate = TEST_GATE.lock().unwrap_or_else(PoisonError::into_inner);
        with_enabled(|| {
            let a = acquire("stream.object.state");
            let b = acquire("plog.shard");
            drop(a); // dropped before b: stack is scanned by id, not popped
            let c = acquire("kv.index");
            drop(c);
            drop(b);
        });
        assert!(observed_edges().contains(&("plog.shard", "kv.index")));
    }

    #[test]
    fn inversion_panics_and_counts() {
        let _gate = TEST_GATE.lock().unwrap_or_else(PoisonError::into_inner);
        let before = violation_count();
        let result = std::panic::catch_unwind(|| {
            with_enabled(|| {
                let _kv = acquire("kv.index"); // rank 70
                let _shard = acquire("plog.shard"); // rank 60: inversion
            });
        });
        HELD.with(|h| h.borrow_mut().clear());
        disable();
        assert!(result.is_err(), "inversion must panic");
        assert_eq!(violation_count(), before + 1);
    }

    #[test]
    fn nested_reacquisition_panics() {
        let _gate = TEST_GATE.lock().unwrap_or_else(PoisonError::into_inner);
        let before = violation_count();
        let result = std::panic::catch_unwind(|| {
            with_enabled(|| {
                let _a = acquire("plog.shard");
                let _b = acquire("plog.shard"); // same class: self-deadlock
            });
        });
        HELD.with(|h| h.borrow_mut().clear());
        disable();
        assert!(result.is_err(), "reacquisition must panic");
        assert_eq!(violation_count(), before + 1);
    }

    #[test]
    fn unranked_classes_record_but_never_violate() {
        let _gate = TEST_GATE.lock().unwrap_or_else(PoisonError::into_inner);
        with_enabled(|| {
            let a = acquire("baselines.kafka.topics");
            let b = acquire("core.chore.runtime"); // ranked, under unranked: ok
            drop(b);
            drop(a);
        });
        assert!(observed_edges()
            .contains(&("baselines.kafka.topics", "core.chore.runtime")));
    }
}
