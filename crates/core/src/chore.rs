//! The deterministic maintenance runtime.
//!
//! Every background service in the deployment — tiering, scrubbing, remote
//! replication, stream archival, metadata flushing and compaction — runs as
//! a [`Chore`] scheduled here, instead of each owning an ad-hoc loop. The
//! runtime gives them what the paper's "separation is for better reunion"
//! design demands from maintenance work sharing a substrate with foreground
//! traffic:
//!
//! * **virtual-time scheduling** — ticks fire at per-chore due times on the
//!   simulated clock; same seed + same schedule ⇒ byte-identical replays;
//! * **budgets** — each tick carries a token-style byte/op allowance the
//!   chore must respect ([`ChoreBudget`]);
//! * **backpressure-aware admission** — the runtime samples the foreground
//!   `qos.foreground.*` phase histograms and halves budgets (ultimately
//!   deferring ticks) while foreground p99 exceeds a threshold, restoring
//!   them when pressure clears;
//! * **deterministic retry** — a failing chore backs off exponentially with
//!   seeded jitter, so failure schedules replay exactly;
//! * **QoS isolation** — every tick runs under a [`QosClass::Maintenance`]
//!   context minted from the deployment's span sink, so devices let
//!   foreground I/O bypass maintenance I/O.

use common::chore::{Chore, ChoreBudget, TickReport};
use common::clock::{millis, secs, Nanos};
use common::ctx::{IoCtx, QosClass, SpanSink, QOS_PREFIX};
use common::metrics::Metrics;
use std::sync::Arc;
use common::lockwitness::TrackedMutex;

/// Backpressure policy: when the foreground tail exceeds the threshold,
/// maintenance budgets shrink; when it clears, they recover.
#[derive(Debug, Clone, Copy)]
pub struct BackpressureConfig {
    /// Foreground p99 (queue or device phase) above this defers/starves
    /// maintenance.
    pub p99_threshold: Nanos,
    /// How many recent foreground samples the p99 is computed over. A
    /// windowed view is essential: a full-history p99 would remember a
    /// burst forever and never let budgets recover.
    pub window: usize,
    /// Each pressured admission halves budgets once more, up to this many
    /// times; at the maximum the tick is deferred outright.
    pub max_shift: u32,
}

impl Default for BackpressureConfig {
    fn default() -> Self {
        BackpressureConfig { p99_threshold: millis(2), window: 256, max_shift: 3 }
    }
}

/// Per-chore registration parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChoreConfig {
    /// Nominal tick period on the virtual clock (used whenever the chore
    /// doesn't name its own `next_due`).
    pub period: Nanos,
    /// Budget handed to each tick before backpressure scaling.
    pub budget: ChoreBudget,
}

impl ChoreConfig {
    /// A period with unlimited budget.
    pub fn every(period: Nanos) -> Self {
        ChoreConfig { period: period.max(1), budget: ChoreBudget::UNLIMITED }
    }

    /// Replace the budget.
    pub fn with_budget(mut self, budget: ChoreBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// What happened when a chore came due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// The chore ran and returned a report.
    Ticked(TickReport),
    /// Admission deferred the tick (backpressure at maximum shift).
    Deferred,
    /// The chore failed; it retries at the recorded time.
    Failed {
        /// When the deterministic backoff schedules the retry.
        retry_at: Nanos,
    },
}

/// One journal entry: a chore coming due, with the budget it was offered
/// and what happened. The journal is the determinism contract's witness —
/// two same-seed runs must produce identical journals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickEvent {
    /// Which chore.
    pub chore: &'static str,
    /// Virtual time the tick fired.
    pub at: Nanos,
    /// Budget offered after backpressure scaling.
    pub budget: ChoreBudget,
    /// Outcome.
    pub outcome: TickOutcome,
}

/// Point-in-time status of one registered chore.
#[derive(Debug, Clone, Copy)]
pub struct ChoreStatus {
    /// Chore name.
    pub name: &'static str,
    /// Virtual time of the last executed tick, if any.
    pub last_tick: Option<Nanos>,
    /// Ticks executed (not counting deferrals).
    pub ticks: u64,
    /// Total work units reported.
    pub work_done: u64,
    /// Backlog hint from the most recent tick.
    pub backlog_hint: u64,
    /// Consecutive failures (0 after any success).
    pub consecutive_failures: u32,
    /// The budget the next tick will be offered (backpressure included).
    pub current_budget: ChoreBudget,
    /// Ticks deferred by backpressure so far.
    pub deferred: u64,
    /// When the chore next comes due.
    pub next_due: Nanos,
}

struct Registered {
    chore: Arc<dyn Chore>,
    period: Nanos,
    base_budget: ChoreBudget,
    next_due: Nanos,
    last_tick: Option<Nanos>,
    ticks: u64,
    work_done: u64,
    backlog_hint: u64,
    consecutive_failures: u32,
    deferred: u64,
}

struct RuntimeInner {
    chores: Vec<Registered>,
    /// Current backpressure level: effective budgets are the base halved
    /// this many times; at `max_shift` admission defers ticks instead.
    budget_shift: u32,
    journal: Vec<TickEvent>,
}

/// First retry delay after a chore failure; doubles per consecutive
/// failure (capped), plus seeded jitter of up to half the delay.
const BACKOFF_BASE: Nanos = secs(1);
/// Exponent cap so the backoff arithmetic never overflows.
const BACKOFF_MAX_EXP: u32 = 10;

/// The maintenance runtime. See the module docs for the contract.
pub struct ChoreRuntime {
    metrics: Metrics,
    sink: Arc<SpanSink>,
    seed: u64,
    backpressure: BackpressureConfig,
    inner: TrackedMutex<RuntimeInner>,
}

impl std::fmt::Debug for ChoreRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ChoreRuntime")
            .field("chores", &inner.chores.iter().map(|r| r.chore.name()).collect::<Vec<_>>())
            .field("budget_shift", &inner.budget_shift)
            .field("seed", &self.seed)
            .finish()
    }
}

impl ChoreRuntime {
    /// A runtime sampling `metrics` for foreground pressure and minting
    /// tick contexts against `sink`.
    pub fn new(
        metrics: Metrics,
        sink: Arc<SpanSink>,
        seed: u64,
        backpressure: BackpressureConfig,
    ) -> Self {
        ChoreRuntime {
            metrics,
            sink,
            seed,
            backpressure,
            inner: TrackedMutex::new("core.chore.runtime", RuntimeInner {
                chores: Vec::new(),
                budget_shift: 0,
                journal: Vec::new(),
            }),
        }
    }

    /// Register a chore. Its first tick comes due one period after virtual
    /// zero; registration order breaks same-instant ties, so registration
    /// order is part of the deterministic schedule.
    pub fn register(&self, chore: Arc<dyn Chore>, config: ChoreConfig) {
        let period = config.period.max(1);
        self.inner.lock().chores.push(Registered {
            chore,
            period,
            base_budget: config.budget,
            next_due: period,
            last_tick: None,
            ticks: 0,
            work_done: 0,
            backlog_hint: 0,
            consecutive_failures: 0,
            deferred: 0,
        });
    }

    /// The foreground tail latency admission looks at: the worse of the
    /// windowed queue-phase and device-phase p99s for foreground-QoS
    /// spans. `None` when no foreground traffic has been observed.
    pub fn foreground_p99(&self) -> Option<Nanos> {
        foreground_p99(&self.metrics, self.backpressure.window)
    }

    /// Current backpressure level (0 = unpressured).
    pub fn budget_shift(&self) -> u32 {
        self.inner.lock().budget_shift
    }

    /// Run every due tick up to and including virtual time `until`,
    /// in due-time order. Returns the journal entries this call produced.
    pub fn run_until(&self, until: Nanos) -> Vec<TickEvent> {
        let mut inner = self.inner.lock();
        let journal_start = inner.journal.len();
        loop {
            // earliest due chore at or before `until`; registration order
            // breaks ties (strict `<` keeps the first-registered winner)
            let mut next: Option<(usize, Nanos)> = None;
            for (i, reg) in inner.chores.iter().enumerate() {
                if reg.next_due <= until && next.map_or(true, |(_, due)| reg.next_due < due) {
                    next = Some((i, reg.next_due));
                }
            }
            let Some((idx, now)) = next else { break };

            // admission: sample foreground pressure, adjust the shift
            let pressured = self
                .foreground_p99()
                .is_some_and(|p99| p99 > self.backpressure.p99_threshold);
            inner.budget_shift = if pressured {
                (inner.budget_shift + 1).min(self.backpressure.max_shift)
            } else {
                inner.budget_shift.saturating_sub(1)
            };
            let shift = inner.budget_shift;

            let reg = &mut inner.chores[idx];
            if pressured && shift >= self.backpressure.max_shift {
                // fully pressured: defer the tick a period
                reg.deferred += 1;
                reg.next_due = now.saturating_add(reg.period).max(now + 1);
                let event = TickEvent {
                    chore: reg.chore.name(),
                    at: now,
                    budget: ChoreBudget::new(0, 0),
                    outcome: TickOutcome::Deferred,
                };
                inner.journal.push(event);
                continue;
            }

            let mut budget = reg.base_budget;
            for _ in 0..shift {
                budget = budget.halved();
            }
            let ctx = IoCtx::new(now)
                .with_qos(QosClass::Maintenance)
                .with_sink(self.sink.clone());
            let chore = reg.chore.clone();
            let outcome = match chore.tick(&ctx, budget) {
                Ok(report) => {
                    reg.last_tick = Some(now);
                    reg.ticks += 1;
                    reg.work_done += report.work_done;
                    reg.backlog_hint = report.backlog_hint;
                    reg.consecutive_failures = 0;
                    // the chore may name its own due time; never schedule
                    // into the past or the same instant (no livelock)
                    let due = report.next_due.unwrap_or_else(|| now.saturating_add(reg.period));
                    reg.next_due = due.max(now + 1);
                    TickOutcome::Ticked(report)
                }
                Err(_) => {
                    reg.last_tick = Some(now);
                    reg.ticks += 1;
                    reg.consecutive_failures += 1;
                    let exp = (reg.consecutive_failures - 1).min(BACKOFF_MAX_EXP);
                    let delay = BACKOFF_BASE.saturating_mul(1 << exp);
                    let jitter = seeded_jitter(
                        self.seed,
                        idx as u64,
                        reg.consecutive_failures,
                        delay / 2,
                    );
                    let retry_at = now.saturating_add(delay).saturating_add(jitter);
                    reg.next_due = retry_at.max(now + 1);
                    TickOutcome::Failed { retry_at: reg.next_due }
                }
            };
            let event = TickEvent { chore: reg.chore.name(), at: now, budget, outcome };
            inner.journal.push(event);
        }
        inner.journal[journal_start..].to_vec()
    }

    /// The full tick journal since construction.
    pub fn journal(&self) -> Vec<TickEvent> {
        self.inner.lock().journal.clone()
    }

    /// Per-chore status: last tick, cumulative work, failure streak and
    /// the budget the next tick would be offered under current pressure.
    pub fn status(&self) -> Vec<ChoreStatus> {
        let inner = self.inner.lock();
        inner
            .chores
            .iter()
            .map(|reg| {
                let mut budget = reg.base_budget;
                for _ in 0..inner.budget_shift {
                    budget = budget.halved();
                }
                ChoreStatus {
                    name: reg.chore.name(),
                    last_tick: reg.last_tick,
                    ticks: reg.ticks,
                    work_done: reg.work_done,
                    backlog_hint: reg.backlog_hint,
                    consecutive_failures: reg.consecutive_failures,
                    current_budget: budget,
                    deferred: reg.deferred,
                    next_due: reg.next_due,
                }
            })
            .collect()
    }
}

/// The foreground pressure sample shared by chore backpressure and
/// front-door load shedding: the worse of the last-`window` queue-phase and
/// device-phase p99s of foreground-QoS spans in `metrics`. `None` when no
/// foreground traffic has been observed.
pub(crate) fn foreground_p99(metrics: &Metrics, window: usize) -> Option<Nanos> {
    let fg = QosClass::Foreground.name();
    let queue = metrics.histogram_tail(&format!("{QOS_PREFIX}{fg}.queue"), window);
    let device = metrics.histogram_tail(&format!("{QOS_PREFIX}{fg}.device"), window);
    queue.into_iter().chain(device).map(|tail| tail.p99).max()
}

/// Deterministic jitter in `[0, span)`: an xorshift64* hash of
/// `(seed, stream index, attempt count)` — chore retry backoff keys it by
/// (chore, consecutive failures), breaker probes by (breaker, trips). No
/// wall clock, no global RNG: every schedule built on it is a pure
/// function of the seed.
pub(crate) fn seeded_jitter(seed: u64, idx: u64, attempt: u32, span: Nanos) -> Nanos {
    let mut x = seed
        ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03)
        | 1;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D) % span.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::clock::micros;
    use common::Error;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A chore doing `backlog`-bounded unit work, failing on chosen ticks.
    struct TestChore {
        name: &'static str,
        backlog: AtomicU64,
        fail_first: u32,
        calls: AtomicU64,
    }

    impl TestChore {
        fn new(name: &'static str, backlog: u64) -> Self {
            TestChore {
                name,
                backlog: AtomicU64::new(backlog),
                fail_first: 0,
                calls: AtomicU64::new(0),
            }
        }

        fn failing(name: &'static str, fail_first: u32) -> Self {
            TestChore {
                name,
                backlog: AtomicU64::new(u64::MAX),
                fail_first,
                calls: AtomicU64::new(0),
            }
        }
    }

    impl Chore for TestChore {
        fn name(&self) -> &'static str {
            self.name
        }

        fn tick(&self, ctx: &IoCtx, budget: ChoreBudget) -> common::Result<TickReport> {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            if call < u64::from(self.fail_first) {
                return Err(Error::Io(format!("{} induced failure {call}", self.name)));
            }
            let backlog = self.backlog.load(Ordering::Relaxed);
            let done = backlog.min(budget.ops).min(budget.bytes);
            let left = backlog - done;
            self.backlog.store(left, Ordering::Relaxed);
            Ok(TickReport {
                work_done: done,
                backlog_hint: left,
                next_due: None,
                finished_at: ctx.now,
            })
        }
    }

    fn runtime(seed: u64) -> ChoreRuntime {
        let metrics = Metrics::new();
        let sink = Arc::new(SpanSink::new(metrics.clone()));
        ChoreRuntime::new(metrics, sink, seed, BackpressureConfig::default())
    }

    #[test]
    fn ticks_fire_in_due_time_order_with_registration_tiebreak() {
        let rt = runtime(1);
        rt.register(Arc::new(TestChore::new("fast", 100)), ChoreConfig::every(secs(1)));
        rt.register(Arc::new(TestChore::new("slow", 100)), ChoreConfig::every(secs(3)));
        rt.register(Arc::new(TestChore::new("tied", 100)), ChoreConfig::every(secs(1)));
        let events = rt.run_until(secs(3));
        let order: Vec<(&str, Nanos)> = events.iter().map(|e| (e.chore, e.at)).collect();
        assert_eq!(
            order,
            vec![
                ("fast", secs(1)),
                ("tied", secs(1)), // same due time: registration order
                ("fast", secs(2)),
                ("tied", secs(2)),
                ("fast", secs(3)),
                ("slow", secs(3)), // 3s period, registered second
                ("tied", secs(3)),
            ]
        );
    }

    #[test]
    fn same_seed_runs_replay_byte_identically() {
        let build = || {
            let rt = runtime(42);
            rt.register(Arc::new(TestChore::failing("flaky", 3)), ChoreConfig::every(secs(2)));
            rt.register(
                Arc::new(TestChore::new("steady", 1000)),
                ChoreConfig::every(secs(1)).with_budget(ChoreBudget::new(u64::MAX, 7)),
            );
            rt
        };
        let a = build();
        let b = build();
        let ja = a.run_until(secs(120));
        let jb = b.run_until(secs(120));
        assert!(!ja.is_empty());
        assert_eq!(ja, jb, "same seed + same schedule must replay identically");
    }

    #[test]
    fn failure_backoff_is_exponential_jittered_and_reproducible() {
        let rt = runtime(7);
        rt.register(Arc::new(TestChore::failing("flaky", 4)), ChoreConfig::every(secs(1)));
        let events = rt.run_until(secs(60));
        let retries: Vec<Nanos> = events
            .iter()
            .filter_map(|e| match e.outcome {
                TickOutcome::Failed { retry_at } => Some(retry_at),
                _ => None,
            })
            .collect();
        assert_eq!(retries.len(), 4);
        // delays grow 1s, 2s, 4s (+ jitter < half the delay each)
        let mut fail_at = secs(1);
        for (i, &retry) in retries.iter().enumerate() {
            let delay = BACKOFF_BASE * (1 << i);
            assert!(
                retry >= fail_at + delay && retry < fail_at + delay + delay / 2 + 1,
                "retry {i} at {retry} outside [{}, {})",
                fail_at + delay,
                fail_at + delay + delay / 2 + 1,
            );
            fail_at = retry;
        }
        // identical seed reproduces the exact sequence
        let rt2 = runtime(7);
        rt2.register(Arc::new(TestChore::failing("flaky", 4)), ChoreConfig::every(secs(1)));
        let events2 = rt2.run_until(secs(60));
        assert_eq!(events, events2);
        // a different seed jitters differently
        let rt3 = runtime(8);
        rt3.register(Arc::new(TestChore::failing("flaky", 4)), ChoreConfig::every(secs(1)));
        assert_ne!(events, rt3.run_until(secs(60)));
        // after the failures, success resets the streak
        let status = rt.status();
        assert_eq!(status[0].consecutive_failures, 0);
        assert!(status[0].ticks > 4);
    }

    #[test]
    fn backpressure_halves_budgets_then_defers_then_recovers() {
        let metrics = Metrics::new();
        let sink = Arc::new(SpanSink::new(metrics.clone()));
        let bp = BackpressureConfig { p99_threshold: millis(1), window: 8, max_shift: 2 };
        let rt = ChoreRuntime::new(metrics.clone(), sink.clone(), 5, bp);
        rt.register(
            Arc::new(TestChore::new("worker", u64::MAX)),
            ChoreConfig::every(secs(1)).with_budget(ChoreBudget::new(1024, 64)),
        );

        // quiet foreground: full budget
        let fg = IoCtx::new(0).with_sink(sink.clone());
        fg.record(common::ctx::Phase::Queue, 0, micros(10));
        let e = rt.run_until(secs(1));
        assert_eq!(e[0].budget, ChoreBudget::new(1024, 64));
        assert_eq!(rt.budget_shift(), 0);

        // burst: foreground queue p99 blows past the threshold
        for _ in 0..8 {
            fg.record(common::ctx::Phase::Queue, 0, millis(5));
        }
        let e = rt.run_until(secs(2));
        assert_eq!(e[0].budget, ChoreBudget::new(512, 32), "first pressured tick halves");
        let e = rt.run_until(secs(3));
        assert_eq!(
            e[0].outcome,
            TickOutcome::Deferred,
            "at max shift the tick is deferred outright"
        );
        assert_eq!(rt.status()[0].deferred, 1);

        // pressure clears: the window forgets the burst as fresh quiet
        // samples displace it, and budgets step back up
        for _ in 0..16 {
            fg.record(common::ctx::Phase::Queue, 0, micros(10));
        }
        let e = rt.run_until(secs(4));
        assert_eq!(e[0].budget, ChoreBudget::new(512, 32), "shift steps down, not jumps");
        let e = rt.run_until(secs(5));
        assert_eq!(e[0].budget, ChoreBudget::new(1024, 64), "full budget restored");
        assert_eq!(rt.budget_shift(), 0);
    }

    #[test]
    fn status_reports_cumulative_work_and_next_due() {
        let rt = runtime(3);
        rt.register(
            Arc::new(TestChore::new("worker", 10)),
            ChoreConfig::every(secs(1)).with_budget(ChoreBudget::new(u64::MAX, 4)),
        );
        rt.run_until(secs(2));
        let s = &rt.status()[0];
        assert_eq!(s.name, "worker");
        assert_eq!(s.ticks, 2);
        assert_eq!(s.work_done, 8);
        assert_eq!(s.backlog_hint, 2);
        assert_eq!(s.last_tick, Some(secs(2)));
        assert_eq!(s.next_due, secs(3));
        assert_eq!(s.consecutive_failures, 0);
    }
}
