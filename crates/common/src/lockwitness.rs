//! Runtime lock-order witness: the workspace's one lock-order check.
//!
//! Every production lock is a [`TrackedMutex`] or [`TrackedRwLock`] under a
//! class declared in [`HIERARCHY`]. In every debug build, each acquisition
//! pushes its class onto a per-thread witness stack, records the observed
//! `held → acquired` edges into a global set, and panics the moment the
//! acquisition inverts the declared ranks, re-enters a class the thread
//! already holds (which would deadlock for real), or names a class the
//! table does not declare. Ranks must rise strictly along every thread's
//! stack, so no set of threads can wait on each other in a cycle.
//!
//! The check runs where the locks are taken, so it sees exactly the paths
//! a test drives, trait objects and closures included, and none that no
//! test takes. Release builds (`cfg!(debug_assertions)` false) compile it
//! out: `acquire` folds to a no-op and nothing is recorded.
//!
//! A unit test here pins DESIGN.md's printed copy of the table to it.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// One lock class of the canonical hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockClass {
    /// Stable class name, as passed to [`TrackedMutex::new`].
    pub name: &'static str,
    /// Rank: acquisitions must happen in strictly increasing rank order.
    pub rank: u32,
}

const fn class(name: &'static str, rank: u32) -> LockClass {
    LockClass { name, rank }
}

/// Canonical lock hierarchy, outermost first. A thread may only acquire
/// classes with strictly increasing ranks; acquiring a class absent from
/// the table is a violation.
pub const HIERARCHY: &[LockClass] = &[
    // Each comparison baseline holds its one lock across pool I/O and
    // never nests under the system's locks.
    class("baselines.hdfs.namenode", 4),
    class("baselines.kafka.topics", 6),
    class("core.chore.runtime", 10),
    // frontdoor.state ranks below access.grants on purpose: admission
    // stage 1 (auth) runs and releases before the door state is locked,
    // and the door may hold its state while calling into stream/plog/
    // simdisk/metrics (all higher ranks). journal ranks just above state:
    // decisions are journaled while the state lock is still held.
    class("core.frontdoor.state", 12),
    class("core.frontdoor.journal", 13),
    class("core.access.grants", 15),
    class("stream.service.quotas", 22),
    // group.state ranks below dispatcher.topo: rebalancing holds the
    // coordinator state while reading partition counts from the topology.
    class("stream.group.state", 23),
    class("stream.group.journal", 24),
    class("stream.dispatcher.topo", 25),
    class("stream.txn.active", 28),
    class("stream.object.registry", 30),
    class("stream.object.state", 35),
    class("stream.archive.entries", 40),
    class("lake.meta.pending", 50),
    class("plog.repl.mapping", 55),
    class("plog.repl.cursor", 56),
    class("plog.shard", 60),
    // MVCC coordination state ranks below kv.index: the transaction layer
    // holds its state/journal locks while reading and batch-writing the
    // backing KV store (intents, records, resolutions).
    class("kv.mvcc.state", 66),
    class("kv.mvcc.journal", 67),
    class("kv.index", 70),
    // fault.state ranks below device.state: FaultInjector::advance_to
    // holds its schedule lock while applying events to devices.
    class("simdisk.fault.state", 72),
    class("simdisk.device.state", 75),
    class("common.metrics", 85),
    class("common.span.trail", 90),
];

/// Rank of `class` in the canonical hierarchy. A class absent from
/// [`HIERARCHY`] is a violation: this counts it and panics.
pub fn rank(class: &str) -> u32 {
    match HIERARCHY.iter().find(|c| c.name == class) {
        Some(c) => c.rank,
        None => violation(format!(
            "lockwitness: lock class `{class}` is not declared in HIERARCHY; \
             every witnessed lock needs a rank"
        )),
    }
}

/// Monotonic id so guards can be dropped in any order.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Count of violations detected (the witness also panics; the counter
/// survives `catch_unwind` in tests that assert on detection).
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Observed acquisition-order edges `(held, acquired)` across all threads.
static EDGES: Mutex<BTreeSet<(&'static str, &'static str)>> = Mutex::new(BTreeSet::new());

thread_local! {
    /// This thread's held-lock stack.
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
}

#[derive(Clone, Copy)]
struct Held {
    class: &'static str,
    rank: u32,
    id: u64,
}

/// Violations detected so far, process-wide.
pub fn violation_count() -> u64 {
    VIOLATIONS.load(Ordering::Relaxed)
}

/// The observed runtime lock DAG: every `(held, acquired)` pair this
/// process has taken, in stable order.
pub fn observed_edges() -> Vec<(&'static str, &'static str)> {
    EDGES.lock().unwrap_or_else(PoisonError::into_inner).iter().copied().collect()
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

/// Count a violation and panic with `msg`.
fn violation(msg: String) -> ! {
    VIOLATIONS.fetch_add(1, Ordering::Relaxed);
    // The witness is a sanitizer: detecting a latent deadlock must abort
    // the test loudly, not return an Error.
    panic!("{msg}");
}

/// Record the acquisition of lock class `class` on this thread.
///
/// Call immediately *before* taking the real lock and keep the returned
/// guard alive exactly as long as the real guard (drop it alongside an
/// explicit `drop(lock_guard)`). Panics — after bumping
/// [`violation_count`] — when the acquisition inverts the declared
/// hierarchy, re-enters a class this thread already holds, or names an
/// undeclared class. A no-op in release builds.
pub(crate) fn acquire(class: &'static str) -> Guard {
    if !cfg!(debug_assertions) {
        return Guard { id: None };
    }
    let new_rank = rank(class);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let conflict = HELD.with(|held| {
        let mut held = held.borrow_mut();
        for h in held.iter() {
            if h.class == class {
                return Some(format!(
                    "lockwitness: nested reacquisition of lock class `{class}` \
                     (already held by this thread; the lock would deadlock)"
                ));
            }
            if h.rank >= new_rank {
                return Some(format!(
                    "lockwitness: lock-order inversion: acquiring `{class}` (rank {new_rank}) \
                     while holding `{held}` (rank {hr}); the canonical hierarchy \
                     requires strictly increasing ranks",
                    held = h.class,
                    hr = h.rank,
                ));
            }
        }
        let mut edges = EDGES.lock().unwrap_or_else(PoisonError::into_inner);
        for h in held.iter() {
            edges.insert((h.class, class));
        }
        held.push(Held { class, rank: new_rank, id });
        None
    });
    if let Some(msg) = conflict {
        violation(msg);
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
    /// A mutex witnessed under `class`, a name from [`HIERARCHY`].
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
    /// An rwlock witnessed under `class`, a name from [`HIERARCHY`].
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

    /// Run `f`, which must panic with a violation; returns how many
    /// violations it counted.
    fn violations_in(f: impl FnOnce()) -> u64 {
        let _gate = TEST_GATE.lock().unwrap_or_else(PoisonError::into_inner);
        let before = violation_count();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        assert!(result.is_err(), "the violation must panic");
        violation_count() - before
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
        let state = rank("core.frontdoor.state");
        let journal = rank("core.frontdoor.journal");
        assert!(state < journal, "decisions are journaled under the state lock");
        assert!(rank("core.chore.runtime") < state);
        assert!(journal < rank("core.access.grants"));
        assert!(journal < rank("stream.service.quotas"));
        assert!(journal < rank("simdisk.device.state"));
        assert!(journal < rank("common.metrics"));
    }

    #[test]
    fn design_doc_lists_exactly_this_hierarchy() {
        // DESIGN.md prints the table for readers; this is its only guard.
        // Rows look like `| 60 | `plog.shard` |`, under the heading.
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
    fn a_plain_debug_test_run_is_armed() {
        // No enable call and no environment variable: a debug build
        // witnesses every acquisition, so an inversion through the public
        // lock types panics in an ordinary `cargo test`.
        let kv = TrackedMutex::new("kv.index", ());
        let shard = TrackedMutex::new("plog.shard", ());
        let counted = violations_in(|| {
            let _kv = kv.lock(); // rank 70
            let _shard = shard.lock(); // rank 60: inversion
        });
        assert_eq!(counted, 1);
        // Both guards unwound: the same locks in rank order are fine.
        let _shard = shard.lock();
        let _kv = kv.lock();
    }

    #[test]
    fn records_edges_in_rank_order() {
        let a = acquire("plog.shard");
        let b = acquire("kv.index");
        drop(b);
        drop(a);
        assert!(observed_edges().contains(&("plog.shard", "kv.index")));
    }

    #[test]
    fn out_of_order_guard_drop_is_tolerated() {
        let a = acquire("stream.object.state");
        let b = acquire("plog.shard");
        drop(a); // dropped before b: stack is scanned by id, not popped
        let c = acquire("kv.index");
        drop(c);
        drop(b);
        assert!(observed_edges().contains(&("plog.shard", "kv.index")));
    }

    #[test]
    fn inversion_panics_and_counts() {
        let counted = violations_in(|| {
            let _kv = acquire("kv.index"); // rank 70
            let _shard = acquire("plog.shard"); // rank 60: inversion
        });
        assert_eq!(counted, 1);
    }

    #[test]
    fn nested_reacquisition_panics() {
        let counted = violations_in(|| {
            let _a = acquire("plog.shard");
            let _b = acquire("plog.shard"); // same class: self-deadlock
        });
        assert_eq!(counted, 1);
    }

    #[test]
    fn undeclared_class_panics() {
        // Every witnessed lock is ranked: a class the table does not
        // declare is a violation even with nothing held.
        let counted = violations_in(|| {
            let _a = acquire("test.undeclared");
        });
        assert_eq!(counted, 1);
    }
}
