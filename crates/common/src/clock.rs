//! Virtual time.
//!
//! The paper's evaluation runs on OceanStor hardware (SCM, NVMe, SAS HDD,
//! RDMA fabric). We reproduce the *latency structure* of that hardware with a
//! discrete virtual clock: every simulated device charges its service time
//! against a [`SimClock`], so experiments report deterministic virtual
//! durations independent of the host machine.
//!
//! The clock is shared (`Arc` internally via atomics) and safe to advance from
//! many worker threads; `advance` models elapsed work, `advance_to` models
//! waiting until a device becomes free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Nanoseconds, the base unit of virtual time.
pub type Nanos = u64;

/// Convert microseconds to virtual nanoseconds.
pub const fn micros(us: u64) -> Nanos {
    us * 1_000
}

/// Convert milliseconds to virtual nanoseconds.
pub const fn millis(ms: u64) -> Nanos {
    ms * 1_000_000
}

/// Convert seconds to virtual nanoseconds.
pub const fn secs(s: u64) -> Nanos {
    s * 1_000_000_000
}

/// A shared, monotonically non-decreasing virtual clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock starting at virtual time zero.
    pub fn new() -> Self {
        SimClock { now: Arc::new(AtomicU64::new(0)) }
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> Nanos {
        self.now.load(Ordering::Acquire)
    }

    /// Advance the clock by `delta` nanoseconds, returning the new time.
    pub fn advance(&self, delta: Nanos) -> Nanos {
        self.now.fetch_add(delta, Ordering::AcqRel) + delta
    }

    /// Move the clock forward to `t` if `t` is in the future; the clock never
    /// goes backwards. Returns the resulting time.
    pub fn advance_to(&self, t: Nanos) -> Nanos {
        let mut cur = self.now.load(Ordering::Acquire);
        while cur < t {
            match self
                .now
                .compare_exchange_weak(cur, t, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return t,
                Err(observed) => cur = observed,
            }
        }
        cur
    }
}

/// A stopwatch over a [`SimClock`], for measuring virtual durations.
#[derive(Debug)]
pub struct SimStopwatch {
    clock: SimClock,
    start: Nanos,
}

impl SimStopwatch {
    /// Start timing at the clock's current instant.
    pub fn start(clock: &SimClock) -> Self {
        SimStopwatch { clock: clock.clone(), start: clock.now() }
    }

    /// Virtual nanoseconds elapsed since `start`.
    pub fn elapsed(&self) -> Nanos {
        self.clock.now().saturating_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(micros(3), 3_000);
        assert_eq!(millis(2), 2_000_000);
        assert_eq!(secs(1), 1_000_000_000);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance(5), 15);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = SimClock::new();
        c.advance(100);
        assert_eq!(c.advance_to(50), 100);
        assert_eq!(c.advance_to(200), 200);
        assert_eq!(c.now(), 200);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(42);
        assert_eq!(b.now(), 42);
    }

    #[test]
    fn stopwatch_measures_virtual_time() {
        let c = SimClock::new();
        let sw = SimStopwatch::start(&c);
        c.advance(micros(7));
        assert_eq!(sw.elapsed(), 7_000);
    }

    #[test]
    fn concurrent_advance_to_is_monotonic() {
        let c = SimClock::new();
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for j in 0..1000 {
                    c.advance_to(i * 1000 + j);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.now() >= 7999);
    }
}
