//! A small fixed worker pool for fanning per-shard and per-record work —
//! stripe encodes, CRC passes and planned device writes — across threads
//! on the PLog hot path.
//!
//! Determinism contract: workers compute *pure* functions of their inputs
//! (a CRC of a buffer, a planned device write whose virtual timing depends
//! only on that device's state and `ctx.now`), so which thread runs a job
//! never changes its result. [`WorkerPool::scatter`] additionally joins
//! results in submission order, so callers observe one canonical ordering
//! regardless of host scheduling. Job assignment walks the workers
//! round-robin from a seeded offset — load spreading, not randomness: the
//! offset feeds no result.

use common::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

/// Worker count used by [`WorkerPool::with_default_size`]: small and fixed,
/// sized for per-shard fan-out (stripes are a handful of shards wide), not
/// for saturating the host.
pub(crate) const DEFAULT_WORKERS: usize = 4;

type Job = Box<dyn FnOnce() + Send>;

/// Hand a finished job result back to the collector. A send error means
/// the collector dropped its receiver after an earlier failure and the
/// result is unwanted.
fn deliver<T>(slot: &Sender<T>, value: T) {
    // slint:allow(R11): dropped receiver — the collector already bailed
    let _ = slot.send(value);
}

/// A fixed pool of helper threads with deterministic scatter/join.
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    next_offset: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.senders.len()).finish()
    }
}

impl WorkerPool {
    /// A pool of `threads` workers (at least 1). `seed` picks the starting
    /// round-robin offset for job assignment.
    pub(crate) fn new(threads: usize, seed: u64) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, rx) = channel::<Job>();
            // A failed spawn just leaves the pool smaller; scatter falls
            // back to inline execution when no worker accepts the job.
            match std::thread::Builder::new()
                .name(format!("plog-worker-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                }) {
                Ok(h) => {
                    senders.push(tx);
                    handles.push(h);
                }
                Err(_) => {}
            }
        }
        WorkerPool { senders, handles, next_offset: AtomicU64::new(seed) }
    }

    /// The default small pool.
    pub fn with_default_size(seed: u64) -> Self {
        Self::new(DEFAULT_WORKERS, seed)
    }

    /// Live worker threads.
    pub(crate) fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Run `jobs` across the pool and return their results **in submission
    /// order** (the deterministic join order). Jobs must be pure with
    /// respect to host scheduling: their results may not depend on which
    /// worker runs them or in what wall-clock order.
    pub(crate) fn scatter<T, F>(&self, jobs: Vec<F>) -> Result<Vec<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if self.senders.is_empty() || jobs.len() <= 1 {
            return Ok(jobs.into_iter().map(|j| j()).collect());
        }
        let start = self.next_offset.fetch_add(1, Ordering::Relaxed) as usize;
        let mut results = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.into_iter().enumerate() {
            let (tx, rx) = channel();
            let wrapped: Job = Box::new(move || deliver(&tx, job()));
            if let Err(returned) = self.senders[(start + i) % self.senders.len()].send(wrapped) {
                // The worker died (a previous job panicked): run inline.
                (returned.0)();
            }
            results.push(rx);
        }
        results
            .into_iter()
            .map(|rx| {
                rx.recv().map_err(|_| Error::Io("plog worker lost a job result".into()))
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing every sender ends the workers' recv loops.
        self.senders.clear();
        for h in self.handles.drain(..) {
            // slint:allow(R11): panicked worker already surfaced as a lost job result
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_joins_in_submission_order() {
        let pool = WorkerPool::new(3, 7);
        let jobs: Vec<_> = (0..64u64)
            .map(|i| {
                move || {
                    // Uneven work so host completion order scrambles.
                    let mut acc = i;
                    for _ in 0..(i % 5) * 1000 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    (i, acc)
                }
            })
            .collect();
        let got = pool.scatter(jobs).unwrap();
        let ids: Vec<u64> = got.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_independent_of_seed_and_thread_count() {
        let job_set = || (0..32u32).map(|i| move || i * i).collect::<Vec<_>>();
        let a = WorkerPool::new(1, 0).scatter(job_set()).unwrap();
        let b = WorkerPool::new(4, 99).scatter(job_set()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_single_job_scatter_run_inline() {
        let pool = WorkerPool::new(2, 0);
        assert!(pool.scatter(Vec::<fn() -> u8>::new()).unwrap().is_empty());
        assert_eq!(pool.scatter(vec![|| 41 + 1]).unwrap(), vec![42]);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = WorkerPool::new(2, 3);
        let _ = pool.scatter((0..8).map(|i| move || i).collect::<Vec<_>>()).unwrap();
        drop(pool); // must not hang
    }
}
