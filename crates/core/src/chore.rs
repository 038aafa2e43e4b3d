//! The deterministic maintenance runtime.
//!
//! Every background service in the deployment — scrubbing, remote
//! replication, stream archival, metadata flushing, compaction, consumer
//! offset retention and KV WAL compaction — runs as a [`Chore`] scheduled
//! here, instead of each owning an ad-hoc loop. The
//! runtime gives them what the paper's "separation is for better reunion"
//! design demands from maintenance work sharing a substrate with foreground
//! traffic:
//!
//! * **virtual-time scheduling** — ticks fire at per-chore due times on the
//!   simulated clock; same seed + same schedule ⇒ byte-identical replays;
//! * **backpressure-aware admission** — the runtime samples the foreground
//!   `qos.foreground.*` phase histograms; each pressured admission raises
//!   a pressure level by one (up to [`MAX_PRESSURE_LEVEL`]), each quiet one
//!   lowers it by one, and a pressured admission at the top level defers
//!   the tick by one period;
//! * **deterministic retry** — a failing chore backs off exponentially with
//!   seeded jitter, so failure schedules replay exactly;
//! * **QoS isolation** — every tick runs under a [`QosClass::Maintenance`]
//!   context minted from the deployment's span sink, so devices let
//!   foreground I/O bypass maintenance I/O.

use common::chore::{Chore, TickReport};
use common::clock::{millis, secs, Nanos};
use common::ctx::{IoCtx, QosClass, SpanSink, QOS_PREFIX};
use common::metrics::Metrics;
use std::sync::Arc;
use common::lockwitness::TrackedMutex;

/// Foreground p99 (queue or device phase) above this is foreground
/// pressure: chore admission ramps towards deferral and the front door
/// sheds non-foreground requests.
const FOREGROUND_P99_THRESHOLD: Nanos = millis(2);

/// How many recent foreground samples the p99 is computed over. A windowed
/// view is essential: a full-history p99 would remember a burst forever and
/// never let pressure clear.
const FOREGROUND_WINDOW: usize = 256;

/// The pressure level at which a pressured admission defers the tick.
pub const MAX_PRESSURE_LEVEL: u32 = 3;

/// What happened when a chore came due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// The chore ran and returned a report.
    Ticked(TickReport),
    /// Admission deferred the tick (pressured at the top pressure level).
    Deferred,
    /// The chore failed; it retries at the recorded time.
    Failed {
        /// When the deterministic backoff schedules the retry.
        retry_at: Nanos,
    },
}

/// One journal entry: a chore coming due and what happened. The journal is
/// the determinism contract's witness — two same-seed runs must produce
/// identical journals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickEvent {
    /// Which chore.
    pub chore: &'static str,
    /// Virtual time the tick fired.
    pub at: Nanos,
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
    /// Ticks deferred by backpressure so far.
    pub deferred: u64,
    /// When the chore next comes due.
    pub next_due: Nanos,
}

struct Registered {
    chore: Arc<dyn Chore>,
    period: Nanos,
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
    /// Current backpressure level, 0 ..= [`MAX_PRESSURE_LEVEL`].
    pressure_level: u32,
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
    inner: TrackedMutex<RuntimeInner>,
}

impl std::fmt::Debug for ChoreRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ChoreRuntime")
            .field("chores", &inner.chores.iter().map(|r| r.chore.name()).collect::<Vec<_>>())
            .field("pressure_level", &inner.pressure_level)
            .field("seed", &self.seed)
            .finish()
    }
}

impl ChoreRuntime {
    /// A runtime sampling `metrics` for foreground pressure and minting
    /// tick contexts against `sink`.
    pub fn new(metrics: Metrics, sink: Arc<SpanSink>, seed: u64) -> Self {
        ChoreRuntime {
            metrics,
            sink,
            seed,
            inner: TrackedMutex::new("core.chore.runtime", RuntimeInner {
                chores: Vec::new(),
                pressure_level: 0,
                journal: Vec::new(),
            }),
        }
    }

    /// Register a chore ticking every `period` of virtual time. Its first
    /// tick comes due one period after virtual zero; registration order
    /// breaks same-instant ties, so registration order is part of the
    /// deterministic schedule.
    pub fn register(&self, chore: Arc<dyn Chore>, period: Nanos) {
        let period = period.max(1);
        self.inner.lock().chores.push(Registered {
            chore,
            period,
            next_due: period,
            last_tick: None,
            ticks: 0,
            work_done: 0,
            backlog_hint: 0,
            consecutive_failures: 0,
            deferred: 0,
        });
    }

    /// Current backpressure level (0 = unpressured).
    pub fn pressure_level(&self) -> u32 {
        self.inner.lock().pressure_level
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

            // admission: sample foreground pressure, step the level
            let pressured = foreground_pressured(&self.metrics);
            inner.pressure_level = if pressured {
                (inner.pressure_level + 1).min(MAX_PRESSURE_LEVEL)
            } else {
                inner.pressure_level.saturating_sub(1)
            };
            let level = inner.pressure_level;

            let reg = &mut inner.chores[idx];
            if pressured && level == MAX_PRESSURE_LEVEL {
                // pressured at the top level: defer the tick a period
                reg.deferred += 1;
                reg.next_due = now.saturating_add(reg.period).max(now + 1);
                let event = TickEvent {
                    chore: reg.chore.name(),
                    at: now,
                    outcome: TickOutcome::Deferred,
                };
                inner.journal.push(event);
                continue;
            }

            let ctx = IoCtx::new(now)
                .with_qos(QosClass::Maintenance)
                .with_sink(self.sink.clone());
            let chore = reg.chore.clone();
            let outcome = match chore.tick(&ctx) {
                Ok(report) => {
                    reg.last_tick = Some(now);
                    reg.ticks += 1;
                    reg.work_done += report.work_done;
                    reg.backlog_hint = report.backlog_hint;
                    reg.consecutive_failures = 0;
                    reg.next_due = now.saturating_add(reg.period).max(now + 1);
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
            let event = TickEvent { chore: reg.chore.name(), at: now, outcome };
            inner.journal.push(event);
        }
        inner.journal[journal_start..].to_vec()
    }

    /// The full tick journal since construction.
    pub fn journal(&self) -> Vec<TickEvent> {
        self.inner.lock().journal.clone()
    }

    /// Per-chore status: last tick, cumulative work, failure streak,
    /// deferrals and next due time.
    pub fn status(&self) -> Vec<ChoreStatus> {
        let inner = self.inner.lock();
        inner
            .chores
            .iter()
            .map(|reg| ChoreStatus {
                name: reg.chore.name(),
                last_tick: reg.last_tick,
                ticks: reg.ticks,
                work_done: reg.work_done,
                backlog_hint: reg.backlog_hint,
                consecutive_failures: reg.consecutive_failures,
                deferred: reg.deferred,
                next_due: reg.next_due,
            })
            .collect()
    }
}

/// The worse of the last-[`FOREGROUND_WINDOW`] queue-phase and device-phase
/// p99s of foreground-QoS spans in `metrics`. `None` when no foreground
/// traffic has been observed.
fn foreground_p99(metrics: &Metrics) -> Option<Nanos> {
    let fg = QosClass::Foreground.name();
    let queue = metrics.histogram_tail(&format!("{QOS_PREFIX}{fg}.queue"), FOREGROUND_WINDOW);
    let device = metrics.histogram_tail(&format!("{QOS_PREFIX}{fg}.device"), FOREGROUND_WINDOW);
    queue.into_iter().chain(device).map(|tail| tail.p99).max()
}

/// The one definition of foreground pressure, shared by chore admission
/// and front-door load shedding: the windowed foreground p99 is over
/// [`FOREGROUND_P99_THRESHOLD`].
pub(crate) fn foreground_pressured(metrics: &Metrics) -> bool {
    foreground_p99(metrics).is_some_and(|p99| p99 > FOREGROUND_P99_THRESHOLD)
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

    /// A chore working `per_tick` units of a `backlog` each tick, failing
    /// on chosen ticks.
    struct TestChore {
        name: &'static str,
        backlog: AtomicU64,
        per_tick: u64,
        fail_first: u32,
        calls: AtomicU64,
    }

    impl TestChore {
        fn new(name: &'static str, backlog: u64, per_tick: u64) -> Self {
            TestChore {
                name,
                backlog: AtomicU64::new(backlog),
                per_tick,
                fail_first: 0,
                calls: AtomicU64::new(0),
            }
        }

        fn failing(name: &'static str, fail_first: u32) -> Self {
            TestChore { fail_first, ..TestChore::new(name, u64::MAX, u64::MAX) }
        }
    }

    impl Chore for TestChore {
        fn name(&self) -> &'static str {
            self.name
        }

        fn tick(&self, ctx: &IoCtx) -> common::Result<TickReport> {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            if call < u64::from(self.fail_first) {
                return Err(Error::Io(format!("{} induced failure {call}", self.name)));
            }
            let backlog = self.backlog.load(Ordering::Relaxed);
            let done = backlog.min(self.per_tick);
            let left = backlog - done;
            self.backlog.store(left, Ordering::Relaxed);
            Ok(TickReport {
                work_done: done,
                backlog_hint: left,
                finished_at: ctx.now,
            })
        }
    }

    fn runtime(seed: u64) -> ChoreRuntime {
        let metrics = Metrics::new();
        let sink = Arc::new(SpanSink::new(metrics.clone()));
        ChoreRuntime::new(metrics, sink, seed)
    }

    #[test]
    fn ticks_fire_in_due_time_order_with_registration_tiebreak() {
        let rt = runtime(1);
        rt.register(Arc::new(TestChore::new("fast", 100, 1)), secs(1));
        rt.register(Arc::new(TestChore::new("slow", 100, 1)), secs(3));
        rt.register(Arc::new(TestChore::new("tied", 100, 1)), secs(1));
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
            rt.register(Arc::new(TestChore::failing("flaky", 3)), secs(2));
            rt.register(Arc::new(TestChore::new("steady", 1000, 7)), secs(1));
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
        rt.register(Arc::new(TestChore::failing("flaky", 4)), secs(1));
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
        rt2.register(Arc::new(TestChore::failing("flaky", 4)), secs(1));
        let events2 = rt2.run_until(secs(60));
        assert_eq!(events, events2);
        // a different seed jitters differently
        let rt3 = runtime(8);
        rt3.register(Arc::new(TestChore::failing("flaky", 4)), secs(1));
        assert_ne!(events, rt3.run_until(secs(60)));
        // after the failures, success resets the streak
        let status = rt.status();
        assert_eq!(status[0].consecutive_failures, 0);
        assert!(status[0].ticks > 4);
    }

    #[test]
    fn backpressure_ramps_to_deferral_and_steps_back_down() {
        let metrics = Metrics::new();
        let sink = Arc::new(SpanSink::new(metrics.clone()));
        let rt = ChoreRuntime::new(metrics.clone(), sink.clone(), 5);
        rt.register(Arc::new(TestChore::new("worker", u64::MAX, 1)), secs(1));
        let fg = IoCtx::new(0).with_sink(sink.clone());
        let fill = |latency: Nanos| {
            for _ in 0..FOREGROUND_WINDOW {
                fg.record(common::ctx::Phase::Queue, 0, latency);
            }
        };
        // (outcome is a tick, pressure level after the admission) per second
        let step = |at: u64| {
            let e = rt.run_until(secs(at));
            assert_eq!(e.len(), 1, "one admission per second");
            (matches!(e[0].outcome, TickOutcome::Ticked(_)), rt.pressure_level())
        };

        // quiet foreground: the tick runs at level 0
        fill(micros(10));
        assert_eq!(step(1), (true, 0));

        // burst: each pressured admission raises the level by one, and
        // the first one to reach the top level defers
        fill(millis(5));
        assert_eq!(step(2), (true, 1));
        assert_eq!(step(3), (true, 2));
        assert_eq!(step(4), (false, MAX_PRESSURE_LEVEL), "third pressured admission defers");
        assert_eq!(step(5), (false, MAX_PRESSURE_LEVEL), "still pressured: still deferring");
        assert_eq!(rt.status()[0].deferred, 2);
        assert_eq!(rt.status()[0].next_due, secs(6), "a deferral waits one period");

        // pressure clears: each quiet admission steps the level down by
        // one, and ticks resume from the first of them
        fill(micros(10));
        assert_eq!(step(6), (true, 2));
        assert_eq!(step(7), (true, 1));
        assert_eq!(step(8), (true, 0));
        assert_eq!(rt.status()[0].ticks, 6);
    }

    #[test]
    fn status_reports_cumulative_work_and_next_due() {
        let rt = runtime(3);
        rt.register(Arc::new(TestChore::new("worker", 10, 4)), secs(1));
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
