//! Seeded, virtual-time fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a schedule of fault events — transient outage
//! windows, permanent deaths, silent bit-rot, torn-write windows and
//! gray-failure degradation — generated up front from a single seed, so a
//! chaos run is fully determined by `(seed, workload)` and replays
//! byte-identically. A [`FaultInjector`] binds a plan to a
//! [`StoragePool`] and applies events as the harness advances virtual
//! time with [`FaultInjector::advance_to`].
//!
//! Everything is pre-materialized at plan-generation time (which extent
//! slot a bit-rot event hits, which byte, which XOR mask), so applying a
//! plan consumes no randomness and the injector itself is replay-safe.

use crate::device::Device;
use crate::pool::StoragePool;
use common::clock::Nanos;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use common::lockwitness::TrackedMutex;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// Transient outage: I/O on the device fails with `Error::Io` until
    /// `until`; stored bytes survive.
    Transient {
        /// End of the outage window (absolute virtual time).
        until: Nanos,
    },
    /// Permanent death: the device fails and loses its contents until a
    /// harness heals it.
    Death,
    /// Silent bit-rot: XOR `mask` into one byte of one stored extent. The
    /// extent slot and byte offset are picked deterministically from the
    /// pre-drawn `pick`/`offset` values modulo the device's live contents.
    BitRot {
        /// Extent selector (`pick % extent_count` at apply time).
        pick: u64,
        /// Byte selector (`offset % extent_len` at apply time).
        offset: u64,
        /// Non-zero XOR mask applied to the chosen byte.
        mask: u8,
    },
    /// Torn writes: writes issued before `until` are acknowledged but store
    /// only a prefix of the payload.
    TornWrites {
        /// End of the torn-write window (absolute virtual time).
        until: Nanos,
    },
    /// Gray failure: ops starting before `until` run `factor`× slower.
    Gray {
        /// End of the degradation window (absolute virtual time).
        until: Nanos,
        /// Service-time multiplier (≥ 2).
        factor: u64,
    },
}

/// One scheduled fault: at virtual time `at`, apply `kind` to `device`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultEvent {
    /// Virtual time the fault takes effect.
    pub(crate) at: Nanos,
    /// Target device index within the pool.
    pub(crate) device: usize,
    /// What happens.
    pub(crate) kind: FaultKind,
}

/// How many events of each class a generated plan contains.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlanConfig {
    /// Virtual-time horizon events are scheduled within `[0, horizon)`.
    pub horizon: Nanos,
    /// Maximum length of transient/torn/gray windows.
    pub max_window: Nanos,
    /// Silent bit-rot events.
    pub bit_rot: usize,
    /// Transient outage windows.
    pub transient: usize,
    /// Permanent device deaths.
    pub deaths: usize,
    /// Torn-write windows.
    pub torn: usize,
    /// Gray-failure degradation windows.
    pub gray: usize,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            horizon: common::clock::secs(1),
            max_window: common::clock::millis(50),
            bit_rot: 3,
            transient: 2,
            deaths: 1,
            torn: 1,
            gray: 1,
        }
    }
}

/// A deterministic schedule of fault events, sorted by time.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with explicit events (sorted into application order).
    pub(crate) fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.at, e.device, kind_order(&e.kind)));
        FaultPlan { events }
    }

    /// Generate a plan for a `device_count`-device pool from `seed`.
    ///
    /// All randomness is consumed here; the resulting plan is a plain value
    /// that applies without touching an RNG, so the same seed always yields
    /// the same schedule and the same injected damage.
    pub fn generate(seed: u64, device_count: usize, cfg: &FaultPlanConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        if device_count == 0 || cfg.horizon == 0 {
            return FaultPlan { events };
        }
        let window = |rng: &mut StdRng, at: Nanos| at + 1 + rng.gen_range(0..cfg.max_window.max(1));
        for _ in 0..cfg.transient {
            let at = rng.gen_range(0..cfg.horizon);
            let until = window(&mut rng, at);
            let device = rng.gen_range(0..device_count);
            events.push(FaultEvent { at, device, kind: FaultKind::Transient { until } });
        }
        for _ in 0..cfg.deaths {
            let at = rng.gen_range(0..cfg.horizon);
            let device = rng.gen_range(0..device_count);
            events.push(FaultEvent { at, device, kind: FaultKind::Death });
        }
        for _ in 0..cfg.bit_rot {
            let at = rng.gen_range(0..cfg.horizon);
            let device = rng.gen_range(0..device_count);
            let pick = rng.gen::<u64>();
            let offset = rng.gen::<u64>();
            let mask = rng.gen_range(1u8..=255);
            events.push(FaultEvent { at, device, kind: FaultKind::BitRot { pick, offset, mask } });
        }
        for _ in 0..cfg.torn {
            let at = rng.gen_range(0..cfg.horizon);
            let until = window(&mut rng, at);
            let device = rng.gen_range(0..device_count);
            events.push(FaultEvent { at, device, kind: FaultKind::TornWrites { until } });
        }
        for _ in 0..cfg.gray {
            let at = rng.gen_range(0..cfg.horizon);
            let until = window(&mut rng, at);
            let device = rng.gen_range(0..device_count);
            let factor = rng.gen_range(2u64..=8);
            events.push(FaultEvent { at, device, kind: FaultKind::Gray { until, factor } });
        }
        Self::from_events(events)
    }
}

fn kind_order(kind: &FaultKind) -> u8 {
    match kind {
        FaultKind::Transient { .. } => 0,
        FaultKind::Death => 1,
        FaultKind::BitRot { .. } => 2,
        FaultKind::TornWrites { .. } => 3,
        FaultKind::Gray { .. } => 4,
    }
}

/// Tally of what a plan actually did when applied — bit-rot events can miss
/// (empty device), and a chaos harness needs to know damage really landed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionLog {
    /// Events applied so far (all kinds).
    pub(crate) events_applied: u64,
    /// Bit-rot events that corrupted a stored byte.
    pub bit_rot_applied: u64,
    /// Bit-rot events that found no extent to damage.
    pub(crate) bit_rot_skipped: u64,
    /// Transient outage windows opened.
    pub(crate) transients: u64,
    /// Devices killed.
    pub(crate) deaths: u64,
    /// Torn-write windows opened.
    pub(crate) torn_windows: u64,
    /// Gray-degradation windows opened.
    pub(crate) gray_windows: u64,
}

#[derive(Debug)]
struct InjectorState {
    events: Vec<FaultEvent>,
    next: usize,
    log: InjectionLog,
}

/// Applies a [`FaultPlan`] to a pool as virtual time advances.
#[derive(Debug)]
pub struct FaultInjector {
    pool: Arc<StoragePool>,
    state: TrackedMutex<InjectorState>,
}

impl FaultInjector {
    /// Bind `plan` to `pool`. Nothing is applied until
    /// [`advance_to`](Self::advance_to).
    pub fn new(pool: Arc<StoragePool>, plan: FaultPlan) -> Self {
        FaultInjector {
            pool,
            state: TrackedMutex::new("simdisk.fault.state", InjectorState { events: plan.events, next: 0, log: InjectionLog::default() }),
        }
    }

    /// Apply every event scheduled at or before `now`; returns how many
    /// fired. Idempotent per event: each fires exactly once however the
    /// harness slices its time steps.
    pub fn advance_to(&self, now: Nanos) -> u64 {
        let mut st = self.state.lock();
        let mut fired = 0;
        while st.next < st.events.len() && st.events[st.next].at <= now {
            let ev = st.events[st.next];
            st.next += 1;
            self.apply(&ev, &mut st.log);
            st.log.events_applied += 1;
            fired += 1;
        }
        fired
    }

    /// What the plan has done so far.
    pub fn log(&self) -> InjectionLog {
        self.state.lock().log
    }

    /// Whether every scheduled event has fired.
    pub fn exhausted(&self) -> bool {
        let st = self.state.lock();
        st.next >= st.events.len()
    }

    fn apply(&self, ev: &FaultEvent, log: &mut InjectionLog) {
        if ev.device >= self.pool.device_count() {
            return;
        }
        let dev: &Arc<Device> = self.pool.device(ev.device);
        match ev.kind {
            FaultKind::Transient { until } => {
                dev.fail_until(until);
                log.transients += 1;
            }
            FaultKind::Death => {
                dev.fail();
                log.deaths += 1;
            }
            FaultKind::BitRot { pick, offset, mask } => {
                if dev.corrupt_stored_byte(pick, offset, mask).is_some() {
                    log.bit_rot_applied += 1;
                } else {
                    log.bit_rot_skipped += 1;
                }
            }
            FaultKind::TornWrites { until } => {
                dev.tear_writes_until(until);
                log.torn_windows += 1;
            }
            FaultKind::Gray { until, factor } => {
                dev.degrade_until(until, factor);
                log.gray_windows += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MediaKind;
    use common::clock::millis;
    use common::ctx::IoCtx;
    use common::size::MIB;
    use common::SimClock;

    fn pool(n: usize) -> Arc<StoragePool> {
        Arc::new(StoragePool::new("chaos", MediaKind::NvmeSsd, n, 16 * MIB, SimClock::new()))
    }

    #[test]
    fn same_seed_same_plan() {
        let cfg = FaultPlanConfig::default();
        let a = FaultPlan::generate(7, 8, &cfg);
        let b = FaultPlan::generate(7, 8, &cfg);
        assert_eq!(a.events, b.events);
        let c = FaultPlan::generate(8, 8, &cfg);
        assert_ne!(a.events, c.events, "different seeds must differ");
    }

    #[test]
    fn events_are_time_ordered_and_within_horizon() {
        let cfg = FaultPlanConfig::default();
        let plan = FaultPlan::generate(42, 6, &cfg);
        let evs = &plan.events;
        assert_eq!(evs.len(), cfg.bit_rot + cfg.transient + cfg.deaths + cfg.torn + cfg.gray);
        assert!(evs.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(evs.iter().all(|e| e.at < cfg.horizon && e.device < 6));
    }

    #[test]
    fn injector_applies_each_event_once() {
        let p = pool(2);
        p.device(0).write_extent_ctx(1, vec![0u8; 128], &IoCtx::new(0)).unwrap();
        let plan = FaultPlan::from_events(vec![
            FaultEvent { at: millis(1), device: 0, kind: FaultKind::BitRot { pick: 0, offset: 3, mask: 0x40 } },
            FaultEvent { at: millis(2), device: 1, kind: FaultKind::Transient { until: millis(9) } },
        ]);
        let inj = FaultInjector::new(p.clone(), plan);
        assert_eq!(inj.advance_to(0), 0);
        assert_eq!(inj.advance_to(millis(1)), 1);
        // Re-advancing over the same window must not re-fire the event.
        assert_eq!(inj.advance_to(millis(1)), 0);
        assert_eq!(inj.advance_to(millis(5)), 1);
        assert!(inj.exhausted());
        let log = inj.log();
        assert_eq!(log.bit_rot_applied, 1);
        assert_eq!(log.transients, 1);
        let (data, _) = p.device(0).read_extent_ctx(1, &IoCtx::new(millis(10))).unwrap();
        assert_eq!(data.as_slice()[3], 0x40, "bit rot must have landed");
    }

    #[test]
    fn bit_rot_on_empty_device_is_logged_as_skipped() {
        let p = pool(1);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: 0,
            device: 0,
            kind: FaultKind::BitRot { pick: 9, offset: 9, mask: 0xFF },
        }]);
        let inj = FaultInjector::new(p, plan);
        inj.advance_to(0);
        assert_eq!(inj.log().bit_rot_skipped, 1);
        assert_eq!(inj.log().bit_rot_applied, 0);
    }
}
