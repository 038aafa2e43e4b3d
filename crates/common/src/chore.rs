//! The maintenance-chore contract every background service implements.
//!
//! The paper's storage-side services — PLog scrub/repair and remote
//! replication (§IV), stream-to-table archival (§V), metadata write-cache
//! flushing and small-file compaction (§VI) — all run *inside* the storage
//! layer, competing with foreground traffic for the same devices. Instead
//! of a bespoke loop per service, each implements [`Chore`]:
//! one unit of background work that a single scheduler (`core::chore`) can
//! tick on the virtual clock, defer when foreground latency spikes, and
//! retry with deterministic backoff when it fails.
//!
//! The contract:
//!
//! * a tick is **honest** — [`TickReport::work_done`] is the work actually
//!   performed and [`TickReport::backlog_hint`] is the service's estimate of
//!   what it had to leave for a later tick;
//! * a tick is **deterministic** — the same `(ctx.now, service state)`
//!   produces the same report, byte for byte, which is what lets the
//!   runtime replay whole maintenance schedules from a seed.

use crate::clock::Nanos;
use crate::ctx::IoCtx;
use crate::error::Result;

/// What one tick accomplished, returned by [`Chore::tick`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Units of work performed (chore-defined: records, extents, objects,
    /// tables, partitions). Zero means the tick found nothing to do.
    pub work_done: u64,
    /// The chore's estimate of work still pending after this tick. Zero
    /// means caught up; nonzero means the tick had to leave work behind
    /// (e.g. records a remote site refused).
    pub backlog_hint: u64,
    /// Virtual time at which the tick's work completed. Ticks that perform
    /// no timed I/O report their start time.
    pub finished_at: Nanos,
}

impl TickReport {
    /// An idle report: no work found, finished instantly at `now`.
    pub fn idle(now: Nanos) -> Self {
        TickReport { finished_at: now, ..Default::default() }
    }
}

/// One background service as seen by the maintenance runtime.
///
/// Implementations live in the service's own crate. The runtime guarantees the
/// `ctx` it passes runs at `QosClass::Maintenance` with a span sink
/// attached; implementations must not upgrade the class.
pub trait Chore: Send + Sync {
    /// Stable identifier used in status reports and metrics
    /// (`chore.<name>.*`).
    fn name(&self) -> &'static str;

    /// Perform one tick's work starting at `ctx.now`.
    ///
    /// Returns `Ok` with an honest [`TickReport`] — including when there was
    /// nothing to do — and `Err` only for failures the service could not
    /// absorb; the runtime answers an `Err` with deterministic jittered
    /// backoff, not with state rollback, so implementations must leave
    /// themselves re-tickable after any error.
    fn tick(&self, ctx: &IoCtx) -> Result<TickReport>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_report_carries_the_clock() {
        let r = TickReport::idle(42);
        assert_eq!(r.work_done, 0);
        assert_eq!(r.backlog_hint, 0);
        assert_eq!(r.finished_at, 42);
    }
}
