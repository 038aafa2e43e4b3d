//! The multi-tenant front door: the service boundary where client traffic
//! actually arrives (ROADMAP item 3).
//!
//! The paper's StreamLake serves millions of tenants through one shared
//! storage plane; nothing reaches the engine without passing the access
//! layer first. [`FrontDoor`] models that boundary as a deterministic,
//! virtual-time request-processing pipeline over an existing
//! [`StreamLake`]:
//!
//! 1. **Auth + namespace** — the caller's token is authenticated and the
//!    target resource ACL-checked on [`AccessController`]; only valid user
//!    requests become internal requests.
//! 2. **Per-tenant rate limiting** — an integer nano-token bucket per
//!    tenant (the `stream::quota` design), rejecting with a retryable
//!    [`Error::RateLimited`] carrying an *exact* refill hint.
//! 3. **Admission control** — under foreground tail-latency pressure
//!    (windowed p99 over the same `qos.foreground.*` histograms the chore
//!    runtime samples), Background/Maintenance-QoS requests are shed with
//!    a retryable [`Error::Overloaded`]; foreground traffic always passes.
//! 4. **Circuit breakers** — a pool breaker keyed on `simdisk` device
//!    health (failed / suspect counters) and a per-tenant breaker keyed on
//!    consecutive downstream errors. Closed→Open→HalfOpen transitions run
//!    on the virtual clock with seeded jitter, so a chaos run replays its
//!    transition journal byte-for-byte.
//!
//! Every decision is journaled ([`AdmissionEvent`], [`BreakerTransition`]):
//! two same-seed runs over the same arrival schedule must produce
//! identical journals — that journal equality *is* the tenant-isolation
//! determinism contract the SLO suite pins.

use crate::access::{AccessController, Permission, Principal};
use crate::chore::{foreground_pressured, seeded_jitter};
use crate::system::StreamLake;
use common::bucket::NanoBucket;
use common::checksum::Fnv1a;
use common::clock::{millis, Nanos};
use common::ctx::IoCtx;
use common::lockwitness::TrackedMutex;
use common::{Error, Result};
use std::collections::BTreeMap;
use std::sync::Arc;
use stream::object::AppendAck;
use stream::{ConsumedRecord, Consumer, Producer};

/// Cap on the open-duration doubling exponent so repeated trips never
/// overflow the clock.
const OPEN_BACKOFF_MAX_EXP: u32 = 10;

/// What kind of engine operation a request maps to; determines the ACL
/// permission checked in stage 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Produce records into a topic.
    Produce,
    /// Consume records from a topic.
    Consume,
    /// Read from a lakehouse table.
    TableRead,
    /// Write to a lakehouse table.
    TableWrite,
}

impl RequestKind {
    /// The ACL permission stage 1 requires.
    pub fn permission(self) -> Permission {
        match self {
            RequestKind::Produce | RequestKind::TableWrite => Permission::Write,
            RequestKind::Consume | RequestKind::TableRead => Permission::Read,
        }
    }

    /// Stable lower-case name (journals, metrics).
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Produce => "produce",
            RequestKind::Consume => "consume",
            RequestKind::TableRead => "table_read",
            RequestKind::TableWrite => "table_write",
        }
    }
}

/// Retry-after hint attached to requests shed by admission control.
const SHED_RETRY_AFTER: Nanos = millis(1);

/// Circuit-breaker (stage 4) policy.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive downstream errors that open a tenant's breaker.
    pub tenant_error_trip: u32,
    /// The pool breaker trips when more than this many devices are
    /// hard-failed.
    pub max_failed_devices: usize,
    /// … or when more than this many devices are suspect (gray failures).
    pub max_suspect_devices: usize,
    /// Base open duration before the first half-open probe; doubles per
    /// consecutive trip (capped).
    pub open_base: Nanos,
    /// Span of the seeded jitter added to each probe time, so breaker
    /// probe schedules decorrelate across keys yet replay per seed.
    pub probe_jitter: Nanos,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            tenant_error_trip: 5,
            max_failed_devices: 0,
            max_suspect_devices: 3,
            open_base: millis(100),
            probe_jitter: millis(20),
        }
    }
}

/// Front-door construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct FrontDoorConfig {
    /// Seed for the deterministic breaker probe jitter.
    pub seed: u64,
    /// Token-bucket rate (requests/virtual second) for tenants admitted
    /// without an explicit rate.
    pub default_rate: u64,
    /// Token-bucket depth, as a span of virtual time at the tenant's rate
    /// (never below one whole token). A small window keeps an idle-then-
    /// bursting tenant from dumping seconds of banked tokens onto the
    /// devices at one instant — the burst a tenant can ever land is
    /// `rate × burst_window`.
    pub burst_window: Nanos,
    /// Stage-4 breaker policy.
    pub breaker: BreakerConfig,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        FrontDoorConfig {
            seed: 42,
            default_rate: 1000,
            burst_window: millis(50),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Circuit-breaker phase (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// Requests flow; health is checked on every admission.
    Closed,
    /// Requests are rejected until the scheduled probe time.
    Open,
    /// Probe requests flow; their outcome closes or re-opens the breaker.
    HalfOpen,
}

impl BreakerPhase {
    /// Stable lower-case name (journals).
    pub fn name(self) -> &'static str {
        match self {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open => "open",
            BreakerPhase::HalfOpen => "half_open",
        }
    }
}

/// The front door's verdict on one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// The request passed every stage (`probe` marks half-open probes).
    Admitted {
        /// Whether the request doubles as a breaker probe.
        probe: bool,
    },
    /// Stage 1 rejected the token or the ACL check.
    AuthDenied,
    /// Stage 2: the tenant's token bucket was empty.
    RateLimited {
        /// Exact virtual-time refill hint.
        retry_after: Nanos,
    },
    /// Stage 3: shed under foreground pressure (non-foreground QoS only).
    Shed {
        /// Configured retry hint.
        retry_after: Nanos,
    },
    /// Stage 4: an open breaker rejected the request.
    BreakerOpen {
        /// Which breaker (`pool/ssd` or `tenant/<name>`).
        breaker: String,
        /// Time until the next half-open probe.
        retry_after: Nanos,
    },
}

/// One journaled admission decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionEvent {
    /// Virtual time of the decision.
    pub at: Nanos,
    /// Tenant name (`None` when authentication itself failed).
    pub tenant: Option<String>,
    /// Request kind.
    pub kind: RequestKind,
    /// The verdict.
    pub decision: Decision,
}

/// One journaled breaker state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Virtual time of the transition.
    pub at: Nanos,
    /// Breaker key (`pool/ssd` or `tenant/<name>`).
    pub breaker: String,
    /// Phase before.
    pub from: BreakerPhase,
    /// Phase after.
    pub to: BreakerPhase,
}

/// Proof that a request passed the pipeline; hand it back to
/// [`FrontDoor::report`] with the downstream outcome so breakers learn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permit {
    /// The admitted tenant.
    pub tenant: String,
    /// This request is the pool breaker's half-open probe.
    pub pool_probe: bool,
    /// This request is the tenant breaker's half-open probe.
    pub tenant_probe: bool,
}

/// Point-in-time per-tenant counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests admitted (probes included).
    pub admitted: u64,
    /// Requests rejected by the token bucket.
    pub rate_limited: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests rejected by an open breaker (pool or tenant).
    pub breaker_rejected: u64,
    /// Downstream errors observed since the last success.
    pub consecutive_errors: u32,
    /// The tenant breaker's current phase.
    pub breaker_phase: BreakerPhase,
}

#[derive(Debug)]
struct Breaker {
    key: String,
    /// Stable index fed to the jitter hash (probe schedules decorrelate
    /// across breakers but replay per seed).
    idx: u64,
    phase: BreakerPhase,
    open_until: Nanos,
    trips: u32,
}

impl Breaker {
    fn new(key: String, idx: u64) -> Self {
        Breaker { key, idx, phase: BreakerPhase::Closed, open_until: 0, trips: 0 }
    }
}

struct TenantState {
    bucket: NanoBucket,
    breaker: Breaker,
    consecutive_errors: u32,
    admitted: u64,
    rate_limited: u64,
    shed: u64,
    breaker_rejected: u64,
    producer: Producer,
    consumers: BTreeMap<String, Consumer>,
}

struct DoorState {
    /// Ordered so iteration (stats, debugging) is deterministic.
    tenants: BTreeMap<String, TenantState>,
    pool_breaker: Breaker,
    next_tenant_idx: u64,
}

#[derive(Default)]
struct Journal {
    admissions: Vec<AdmissionEvent>,
    transitions: Vec<BreakerTransition>,
}

/// The front door over one [`StreamLake`] deployment. See the module docs
/// for the pipeline contract.
pub struct FrontDoor {
    lake: Arc<StreamLake>,
    access: AccessController,
    config: FrontDoorConfig,
    state: TrackedMutex<DoorState>,
    journal: TrackedMutex<Journal>,
}

impl std::fmt::Debug for FrontDoor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("FrontDoor")
            .field("tenants", &st.tenants.keys().collect::<Vec<_>>())
            .field("pool_breaker", &st.pool_breaker.phase)
            .field("seed", &self.config.seed)
            .finish()
    }
}

impl FrontDoor {
    /// A front door routing into `lake`.
    pub fn new(lake: Arc<StreamLake>, config: FrontDoorConfig) -> Self {
        FrontDoor {
            lake,
            access: AccessController::new(),
            config,
            state: TrackedMutex::new("core.frontdoor.state", DoorState {
                tenants: BTreeMap::new(),
                pool_breaker: Breaker::new("pool/ssd".to_string(), 0),
                next_tenant_idx: 1,
            }),
            journal: TrackedMutex::new("core.frontdoor.journal", Journal::default()),
        }
    }

    /// The deployment behind this door.
    pub fn lake(&self) -> &Arc<StreamLake> {
        &self.lake
    }

    /// The auth/ACL surface (register tokens, grant resource prefixes).
    pub fn access(&self) -> &AccessController {
        &self.access
    }

    /// Register a tenant: create its principal/token and its token bucket
    /// at `rate_per_sec`. Grants are separate — use
    /// [`AccessController::grant`] via [`FrontDoor::access`].
    pub fn register_tenant(&self, name: &str, token: &str, rate_per_sec: u64) -> Principal {
        let principal = self.access.register(name, token);
        let mut st = self.state.lock();
        let idx = st.next_tenant_idx;
        st.next_tenant_idx += 1;
        let producer = self.new_producer();
        st.tenants.entry(name.to_string()).or_insert_with(|| TenantState {
            bucket: NanoBucket::new(rate_per_sec, self.config.burst_window),
            breaker: Breaker::new(format!("tenant/{name}"), idx),
            consecutive_errors: 0,
            admitted: 0,
            rate_limited: 0,
            shed: 0,
            breaker_rejected: 0,
            producer,
            consumers: BTreeMap::new(),
        });
        principal
    }

    fn new_producer(&self) -> Producer {
        let mut p = self.lake.stream().producer();
        // Front-door sends are synchronous: one record, one ack, so each
        // admitted request observes its own device latency.
        p.set_batch_size(1);
        p
    }

    /// Run the four pipeline stages for one request. `Ok` returns a
    /// [`Permit`] the caller must [`report`](FrontDoor::report) the
    /// downstream outcome through; `Err` is one of the journaled
    /// rejections (auth, rate limit, shed, breaker).
    pub fn admit(
        &self,
        token: &str,
        kind: RequestKind,
        resource: &str,
        cost: u64,
        ctx: &IoCtx,
    ) -> Result<Permit> {
        let now = ctx.now;
        // Stage 1: auth + ACL (lock rank 15, released before stage 2).
        // Authentication and authorization are journaled apart: an ACL
        // denial names the tenant, an unknown token cannot.
        let principal = match self.access.authenticate(token) {
            Ok(p) => p,
            Err(e) => {
                self.push_admission(AdmissionEvent {
                    at: now,
                    tenant: None,
                    kind,
                    decision: Decision::AuthDenied,
                });
                self.lake.metrics().incr("frontdoor.auth_denied", 1);
                return Err(e);
            }
        };
        if !self.access.allowed(&principal, resource, kind.permission()) {
            self.push_admission(AdmissionEvent {
                at: now,
                tenant: Some(principal.0.clone()),
                kind,
                decision: Decision::AuthDenied,
            });
            self.lake.metrics().incr("frontdoor.auth_denied", 1);
            return Err(Error::InvalidArgument(format!(
                "access denied: {} lacks {:?} on {resource}",
                principal.0,
                kind.permission()
            )));
        }
        let tenant_name = principal.0;

        let mut st = self.state.lock();
        // Principals registered directly on the access controller get a
        // default-rate bucket on first contact.
        if !st.tenants.contains_key(&tenant_name) {
            let idx = st.next_tenant_idx;
            st.next_tenant_idx += 1;
            let producer = self.new_producer();
            st.tenants.insert(tenant_name.clone(), TenantState {
                bucket: NanoBucket::new(self.config.default_rate, self.config.burst_window),
                breaker: Breaker::new(format!("tenant/{tenant_name}"), idx),
                consecutive_errors: 0,
                admitted: 0,
                rate_limited: 0,
                shed: 0,
                breaker_rejected: 0,
                producer,
                consumers: BTreeMap::new(),
            });
        }

        // Stage 2: per-tenant token bucket.
        let tenant = match st.tenants.get_mut(&tenant_name) {
            Some(t) => t,
            None => return Err(Error::NotFound(format!("tenant {tenant_name}"))),
        };
        if let Err(retry_after) = tenant.bucket.try_acquire(cost, now) {
            tenant.rate_limited += 1;
            let rate = tenant.bucket.rate();
            drop(st);
            self.push_admission(AdmissionEvent {
                at: now,
                tenant: Some(tenant_name.clone()),
                kind,
                decision: Decision::RateLimited { retry_after },
            });
            self.lake.metrics().incr("frontdoor.rate_limited", 1);
            return Err(Error::RateLimited {
                message: format!("tenant {tenant_name} over rate {rate}/s"),
                retry_after,
            });
        }

        // Stage 3: admission control — non-foreground traffic is shed
        // while the windowed foreground p99 is over threshold.
        if !ctx.qos.is_foreground() && foreground_pressured(self.lake.metrics()) {
            let retry_after = SHED_RETRY_AFTER;
            tenant.shed += 1;
            drop(st);
            self.push_admission(AdmissionEvent {
                at: now,
                tenant: Some(tenant_name.clone()),
                kind,
                decision: Decision::Shed { retry_after },
            });
            self.lake.metrics().incr("frontdoor.shed", 1);
            return Err(Error::Overloaded {
                message: format!("{} request shed under foreground pressure", ctx.qos.name()),
                retry_after,
            });
        }

        // Stage 4: circuit breakers — pool health first, then the tenant's
        // own error-rate breaker.
        let pool_unhealthy = self.pool_unhealthy();
        let pool_probe = match self.gate(&mut st.pool_breaker, pool_unhealthy, now) {
            Ok(probe) => probe,
            Err((breaker, retry_after)) => {
                if let Some(t) = st.tenants.get_mut(&tenant_name) {
                    t.breaker_rejected += 1;
                }
                drop(st);
                return Err(self.reject_breaker(now, &tenant_name, kind, breaker, retry_after));
            }
        };
        let tenant = match st.tenants.get_mut(&tenant_name) {
            Some(t) => t,
            None => return Err(Error::NotFound(format!("tenant {tenant_name}"))),
        };
        // A tenant breaker only trips from `report`, never at admission.
        let tenant_probe = match self.gate(&mut tenant.breaker, false, now) {
            Ok(probe) => probe,
            Err((breaker, retry_after)) => {
                tenant.breaker_rejected += 1;
                drop(st);
                return Err(self.reject_breaker(now, &tenant_name, kind, breaker, retry_after));
            }
        };

        tenant.admitted += 1;
        drop(st);
        self.push_admission(AdmissionEvent {
            at: now,
            tenant: Some(tenant_name.clone()),
            kind,
            decision: Decision::Admitted { probe: pool_probe || tenant_probe },
        });
        self.lake.metrics().incr("frontdoor.admitted", 1);
        if pool_probe || tenant_probe {
            self.lake.metrics().incr("frontdoor.probes", 1);
        }
        Ok(Permit { tenant: tenant_name, pool_probe, tenant_probe })
    }

    /// Feed the downstream outcome of an admitted request back into the
    /// breakers: probes close or re-open their breaker; ordinary failures
    /// grow the tenant's error streak until it trips.
    pub fn report(&self, permit: &Permit, ok: bool, ctx: &IoCtx) {
        let now = ctx.now;
        let mut st = self.state.lock();
        if permit.pool_probe && st.pool_breaker.phase == BreakerPhase::HalfOpen {
            let still_unhealthy = self.pool_unhealthy();
            if ok && !still_unhealthy {
                self.close(&mut st.pool_breaker, now);
            } else {
                self.trip(&mut st.pool_breaker, now);
            }
        }
        let Some(tenant) = st.tenants.get_mut(&permit.tenant) else { return };
        if permit.tenant_probe && tenant.breaker.phase == BreakerPhase::HalfOpen {
            if ok {
                self.close(&mut tenant.breaker, now);
                tenant.consecutive_errors = 0;
            } else {
                self.trip(&mut tenant.breaker, now);
            }
        } else if ok {
            tenant.consecutive_errors = 0;
        } else {
            tenant.consecutive_errors += 1;
            if tenant.consecutive_errors >= self.config.breaker.tenant_error_trip
                && tenant.breaker.phase == BreakerPhase::Closed
            {
                self.trip(&mut tenant.breaker, now);
                tenant.consecutive_errors = 0;
            }
        }
    }

    /// Admit, run `f` against the engine, and report the outcome — the
    /// generic route for table and admin operations.
    pub fn with_lake<T>(
        &self,
        token: &str,
        kind: RequestKind,
        resource: &str,
        cost: u64,
        ctx: &IoCtx,
        f: impl FnOnce(&StreamLake) -> Result<T>,
    ) -> Result<T> {
        let permit = self.admit(token, kind, resource, cost, ctx)?;
        let out = f(&self.lake);
        self.report(&permit, out.is_ok(), ctx);
        out
    }

    /// Produce one record through the pipeline (resource `topic/<topic>`,
    /// cost 1).
    pub fn produce(
        &self,
        token: &str,
        topic: &str,
        key: impl Into<Vec<u8>>,
        value: impl Into<Vec<u8>>,
        ctx: &IoCtx,
    ) -> Result<Option<AppendAck>> {
        let resource = format!("topic/{topic}");
        let permit = self.admit(token, RequestKind::Produce, &resource, 1, ctx)?;
        let out = {
            let mut st = self.state.lock();
            let tenant = st
                .tenants
                .get_mut(&permit.tenant)
                .ok_or_else(|| Error::NotFound(format!("tenant {}", permit.tenant)))?;
            tenant.producer.send(topic, key, value, ctx)
        };
        self.report(&permit, out.is_ok(), ctx);
        out
    }

    /// Poll up to `max_records` from `topic` as `group`, through the
    /// pipeline (resource `topic/<topic>`, cost 1). The consumer handle is
    /// owned per (tenant, group) so offsets persist across calls.
    pub fn consume(
        &self,
        token: &str,
        group: &str,
        topic: &str,
        max_records: usize,
        ctx: &IoCtx,
    ) -> Result<Vec<ConsumedRecord>> {
        let resource = format!("topic/{topic}");
        let permit = self.admit(token, RequestKind::Consume, &resource, 1, ctx)?;
        let out = {
            let mut st = self.state.lock();
            let tenant = st
                .tenants
                .get_mut(&permit.tenant)
                .ok_or_else(|| Error::NotFound(format!("tenant {}", permit.tenant)))?;
            let consumer = tenant
                .consumers
                .entry(group.to_string())
                .or_insert_with(|| self.lake.stream().consumer(group));
            consumer.subscribe(topic).and_then(|()| consumer.poll(max_records, ctx))
        };
        self.report(&permit, out.is_ok(), ctx);
        out
    }

    /// Per-tenant counters, if the tenant exists.
    pub fn tenant_stats(&self, name: &str) -> Option<TenantStats> {
        let st = self.state.lock();
        st.tenants.get(name).map(|t| TenantStats {
            admitted: t.admitted,
            rate_limited: t.rate_limited,
            shed: t.shed,
            breaker_rejected: t.breaker_rejected,
            consecutive_errors: t.consecutive_errors,
            breaker_phase: t.breaker.phase,
        })
    }

    /// The pool breaker's current phase.
    pub fn pool_breaker_phase(&self) -> BreakerPhase {
        self.state.lock().pool_breaker.phase
    }

    /// Every admission decision since construction, in order.
    pub fn admission_journal(&self) -> Vec<AdmissionEvent> {
        self.journal.lock().admissions.clone()
    }

    /// Every breaker transition since construction, in order.
    pub fn breaker_journal(&self) -> Vec<BreakerTransition> {
        self.journal.lock().transitions.clone()
    }

    /// FNV-1a digest over both journals — cheap byte-identity witness for
    /// high-volume harnesses that don't want to clone full journals.
    pub fn journal_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        let j = self.journal.lock();
        for e in &j.admissions {
            h.update(&e.at.to_le_bytes());
            h.update(e.tenant.as_deref().unwrap_or("?").as_bytes());
            h.update(e.kind.name().as_bytes());
            let (tag, retry): (u8, Nanos) = match &e.decision {
                Decision::Admitted { probe } => (u8::from(*probe), 0),
                Decision::AuthDenied => (2, 0),
                Decision::RateLimited { retry_after } => (3, *retry_after),
                Decision::Shed { retry_after } => (4, *retry_after),
                Decision::BreakerOpen { retry_after, .. } => (5, *retry_after),
            };
            h.update(&[tag]);
            h.update(&retry.to_le_bytes());
        }
        for t in &j.transitions {
            h.update(&t.at.to_le_bytes());
            h.update(t.breaker.as_bytes());
            h.update(t.from.name().as_bytes());
            h.update(t.to.name().as_bytes());
        }
        h.finish()
    }

    /// Whether the hot pool's device health is past the breaker thresholds.
    fn pool_unhealthy(&self) -> bool {
        let summary = self.lake.ssd_pool().health_summary();
        summary.failed > self.config.breaker.max_failed_devices
            || summary.suspect > self.config.breaker.max_suspect_devices
    }

    /// One breaker's admission gate. `Ok(probe)` admits; `Err((key,
    /// retry_after))` rejects. `unhealthy` trips a closed breaker on the
    /// spot (pool breaker); tenant breakers pass `false` and trip from
    /// [`report`](FrontDoor::report) instead.
    fn gate(
        &self,
        b: &mut Breaker,
        unhealthy: bool,
        now: Nanos,
    ) -> std::result::Result<bool, (String, Nanos)> {
        match b.phase {
            BreakerPhase::Closed => {
                if unhealthy {
                    let retry_after = self.trip(b, now);
                    Err((b.key.clone(), retry_after))
                } else {
                    Ok(false)
                }
            }
            BreakerPhase::Open => {
                if now < b.open_until {
                    Err((b.key.clone(), b.open_until - now))
                } else {
                    b.phase = BreakerPhase::HalfOpen;
                    self.push_transition(BreakerTransition {
                        at: now,
                        breaker: b.key.clone(),
                        from: BreakerPhase::Open,
                        to: BreakerPhase::HalfOpen,
                    });
                    Ok(true)
                }
            }
            // Every request arriving half-open probes; the journal's
            // Admitted{probe} entries record how many it took to settle.
            BreakerPhase::HalfOpen => Ok(true),
        }
    }

    /// Open `b` (from any phase): double the open window per consecutive
    /// trip and schedule the next probe with seeded jitter. Returns the
    /// retry-after span.
    fn trip(&self, b: &mut Breaker, now: Nanos) -> Nanos {
        let from = b.phase;
        b.trips += 1;
        let exp = (b.trips - 1).min(OPEN_BACKOFF_MAX_EXP);
        let open = self.config.breaker.open_base.saturating_mul(1 << exp);
        let jitter = seeded_jitter(self.config.seed, b.idx, b.trips, self.config.breaker.probe_jitter);
        b.open_until = now.saturating_add(open).saturating_add(jitter);
        b.phase = BreakerPhase::Open;
        self.push_transition(BreakerTransition {
            at: now,
            breaker: b.key.clone(),
            from,
            to: BreakerPhase::Open,
        });
        self.lake.metrics().incr("frontdoor.breaker.trips", 1);
        b.open_until - now
    }

    /// Close `b` after a successful probe; the trip streak resets so the
    /// next incident starts from the base open window.
    fn close(&self, b: &mut Breaker, now: Nanos) {
        let from = b.phase;
        b.phase = BreakerPhase::Closed;
        b.trips = 0;
        b.open_until = 0;
        self.push_transition(BreakerTransition {
            at: now,
            breaker: b.key.clone(),
            from,
            to: BreakerPhase::Closed,
        });
    }

    /// Journal + metrics for a breaker rejection; returns the error.
    fn reject_breaker(
        &self,
        now: Nanos,
        tenant: &str,
        kind: RequestKind,
        breaker: String,
        retry_after: Nanos,
    ) -> Error {
        self.push_admission(AdmissionEvent {
            at: now,
            tenant: Some(tenant.to_string()),
            kind,
            decision: Decision::BreakerOpen { breaker: breaker.clone(), retry_after },
        });
        self.lake.metrics().incr("frontdoor.breaker_rejected", 1);
        Error::Overloaded { message: format!("breaker {breaker} open"), retry_after }
    }

    fn push_admission(&self, event: AdmissionEvent) {
        self.journal.lock().admissions.push(event);
    }

    fn push_transition(&self, transition: BreakerTransition) {
        self.journal.lock().transitions.push(transition);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{StreamLakeConfig};
    use common::clock::secs;
    use common::ctx::QosClass;
    use stream::TopicConfig;

    fn door() -> FrontDoor {
        let lake = Arc::new(StreamLake::new(StreamLakeConfig::small()));
        lake.stream().create_topic("t", TopicConfig::with_partitions(2)).unwrap();
        let fd = FrontDoor::new(lake, FrontDoorConfig::default());
        let p = fd.register_tenant("alice", "tok-a", 100);
        fd.access().grant(&p, "topic/", Permission::Write);
        fd.access().grant(&p, "topic/", Permission::Read);
        fd
    }

    fn fg(now: Nanos) -> IoCtx {
        IoCtx::new(now).with_qos(QosClass::Foreground)
    }

    #[test]
    fn auth_gate_rejects_unknown_tokens_and_missing_grants() {
        let fd = door();
        let ctx = fg(0);
        assert!(fd.admit("nope", RequestKind::Produce, "topic/t", 1, &ctx).is_err());
        // alice holds topic/ grants but nothing on table/
        assert!(fd.admit("tok-a", RequestKind::TableWrite, "table/x", 1, &ctx).is_err());
        let journal = fd.admission_journal();
        assert_eq!(journal.len(), 2);
        assert!(journal.iter().all(|e| e.decision == Decision::AuthDenied));
        assert_eq!(journal[0].tenant, None);
        assert_eq!(journal[1].tenant, Some("alice".into()), "authenticated, ACL-denied");
    }

    #[test]
    fn rate_limit_hint_is_exact_and_retryable() {
        let fd = door();
        // The burst depth is 50 ms at 100/s = 5 tokens; drain it, then the
        // next request is limited.
        for _ in 0..5 {
            fd.admit("tok-a", RequestKind::Produce, "topic/t", 1, &fg(0)).unwrap();
        }
        let err = fd.admit("tok-a", RequestKind::Produce, "topic/t", 1, &fg(0)).unwrap_err();
        assert!(err.is_retryable());
        let hint = err.retry_after().expect("rate limit carries a hint");
        // 1 token at 100/s refills in exactly 10 ms.
        assert_eq!(hint, millis(10));
        // One nanosecond early still rejects; at the hint it admits.
        assert!(fd.admit("tok-a", RequestKind::Produce, "topic/t", 1, &fg(hint - 1)).is_err());
        assert!(fd.admit("tok-a", RequestKind::Produce, "topic/t", 1, &fg(hint)).is_ok());
    }

    #[test]
    fn idle_time_banks_at_most_the_burst_window() {
        let fd = door();
        // 100 virtual seconds idle still refill only to the 5-token cap,
        // so a sleeper tenant cannot dump banked seconds onto the devices.
        let t = secs(100);
        for _ in 0..5 {
            fd.admit("tok-a", RequestKind::Produce, "topic/t", 1, &fg(t)).unwrap();
        }
        let err = fd.admit("tok-a", RequestKind::Produce, "topic/t", 1, &fg(t)).unwrap_err();
        assert!(matches!(err, Error::RateLimited { .. }));
    }

    #[test]
    fn background_requests_shed_under_foreground_pressure() {
        let fd = door();
        // Synthesize foreground tail pressure in the shared histograms.
        for _ in 0..64 {
            fd.lake().metrics().observe("qos.foreground.queue", millis(5));
        }
        let bg = IoCtx::new(0).with_qos(QosClass::Background);
        let err = fd.admit("tok-a", RequestKind::Produce, "topic/t", 1, &bg).unwrap_err();
        assert!(matches!(err, Error::Overloaded { .. }), "{err}");
        assert!(err.is_retryable());
        // Foreground traffic always passes stage 3.
        assert!(fd.admit("tok-a", RequestKind::Produce, "topic/t", 1, &fg(0)).is_ok());
        let stats = fd.tenant_stats("alice").unwrap();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.admitted, 1);
    }

    #[test]
    fn pool_breaker_opens_on_device_death_and_probe_heals() {
        let fd = door();
        fd.produce("tok-a", "t", "k", "v", &fg(0)).unwrap();
        assert_eq!(fd.pool_breaker_phase(), BreakerPhase::Closed);
        fd.lake().ssd_pool().device(0).fail();
        // Death trips the breaker at the next admission.
        let err = fd.produce("tok-a", "t", "k", "v", &fg(millis(1))).unwrap_err();
        let retry = err.retry_after().expect("breaker rejection carries a hint");
        assert_eq!(fd.pool_breaker_phase(), BreakerPhase::Open);
        // Still open before the probe time.
        assert!(fd.produce("tok-a", "t", "k", "v", &fg(millis(2))).is_err());
        // Heal the device, then probe at the scheduled time: closes.
        fd.lake().ssd_pool().device(0).heal();
        let probe_at = millis(1) + retry;
        fd.produce("tok-a", "t", "k", "v", &fg(probe_at)).unwrap();
        assert_eq!(fd.pool_breaker_phase(), BreakerPhase::Closed);
        let phases: Vec<(BreakerPhase, BreakerPhase)> = fd
            .breaker_journal()
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        assert_eq!(phases, vec![
            (BreakerPhase::Closed, BreakerPhase::Open),
            (BreakerPhase::Open, BreakerPhase::HalfOpen),
            (BreakerPhase::HalfOpen, BreakerPhase::Closed),
        ]);
    }

    #[test]
    fn failed_probe_reopens_with_longer_window() {
        let fd = door();
        fd.lake().ssd_pool().device(0).fail();
        let err = fd.admit("tok-a", RequestKind::Produce, "topic/t", 1, &fg(0)).unwrap_err();
        let first_retry = err.retry_after().unwrap();
        // Probe while the device is still dead: the pipeline admits the
        // probe, but the downstream health check re-opens.
        let probe = fd
            .admit("tok-a", RequestKind::Produce, "topic/t", 1, &fg(first_retry))
            .unwrap();
        assert!(probe.pool_probe);
        fd.report(&probe, true, &fg(first_retry));
        assert_eq!(fd.pool_breaker_phase(), BreakerPhase::Open);
        // The second open window is at least double the base.
        let reopened = fd.breaker_journal().last().cloned().unwrap();
        assert_eq!((reopened.from, reopened.to), (BreakerPhase::HalfOpen, BreakerPhase::Open));
    }

    #[test]
    fn tenant_breaker_trips_on_consecutive_downstream_errors() {
        let fd = door();
        let p = fd.access().register("tenant-only", "tok-t");
        fd.access().grant(&p, "table/", Permission::Write);
        let trip = FrontDoorConfig::default().breaker.tenant_error_trip;
        for i in 0..trip {
            let err = fd.with_lake(
                "tok-t",
                RequestKind::TableWrite,
                "table/x",
                1,
                &fg(u64::from(i)),
                |_| -> Result<()> { Err(Error::Io("downstream blew up".into())) },
            );
            assert!(err.is_err());
        }
        let stats = fd.tenant_stats("tenant-only").unwrap();
        assert_eq!(stats.breaker_phase, BreakerPhase::Open);
        // Next request is rejected by the tenant breaker, not the pool's.
        let err = fd
            .admit("tok-t", RequestKind::TableWrite, "table/x", 1, &fg(secs(0)))
            .unwrap_err();
        assert!(matches!(err, Error::Overloaded { .. }));
        let j = fd.admission_journal();
        let last = j.last().unwrap();
        assert!(
            matches!(&last.decision, Decision::BreakerOpen { breaker, .. } if breaker == "tenant/tenant-only"),
            "{last:?}"
        );
        // A successful probe at the scheduled time closes it again.
        let retry = err.retry_after().unwrap();
        let probe = fd
            .admit("tok-t", RequestKind::TableWrite, "table/x", 1, &fg(retry))
            .unwrap();
        assert!(probe.tenant_probe);
        fd.report(&probe, true, &fg(retry));
        assert_eq!(fd.tenant_stats("tenant-only").unwrap().breaker_phase, BreakerPhase::Closed);
    }

    #[test]
    fn produce_and_consume_round_trip_through_the_door() {
        let fd = door();
        for i in 0..5u64 {
            fd.produce("tok-a", "t", format!("k{i}"), format!("v{i}"), &fg(i)).unwrap();
        }
        // The five sends drained the 5-token burst; one token refills at
        // 100/s after 10 ms.
        let records = fd.consume("tok-a", "g", "t", 100, &fg(millis(10))).unwrap();
        assert_eq!(records.len(), 5);
        let stats = fd.tenant_stats("alice").unwrap();
        assert_eq!(stats.admitted, 6);
    }

    #[test]
    fn same_seed_replays_identical_journals() {
        let run = |seed: u64| {
            let lake = Arc::new(StreamLake::new(StreamLakeConfig::small()));
            lake.stream().create_topic("t", TopicConfig::with_partitions(2)).unwrap();
            let fd = FrontDoor::new(lake, FrontDoorConfig { seed, ..Default::default() });
            let p = fd.register_tenant("a", "tok", 10);
            fd.access().grant(&p, "topic/", Permission::Write);
            // A schedule that exercises admits, rate limits, a device
            // death trip, and a healed probe.
            for i in 0..20u64 {
                let t = i * millis(25);
                if i == 6 {
                    fd.lake().ssd_pool().device(1).fail();
                }
                if i == 12 {
                    fd.lake().ssd_pool().device(1).heal();
                }
                let _ = fd.produce("tok", "t", "k", "v", &fg(t));
            }
            (fd.admission_journal(), fd.breaker_journal(), fd.journal_digest())
        };
        let (a1, b1, d1) = run(7);
        let (a2, b2, d2) = run(7);
        assert_eq!(a1, a2, "admission journal must replay byte-identically");
        assert_eq!(b1, b2, "breaker journal must replay byte-identically");
        assert_eq!(d1, d2);
        // A different seed moves the probe schedule (jitter) — digest
        // equality across seeds would mean the seed is ignored.
        let (_, _, d3) = run(8);
        assert_ne!(d1, d3, "seed must shape the journal");
    }

    #[test]
    fn zero_rate_tenant_never_admits() {
        let fd = door();
        let p = fd.register_tenant("frozen", "tok-f", 0);
        fd.access().grant(&p, "topic/", Permission::Write);
        let err = fd.admit("tok-f", RequestKind::Produce, "topic/t", 1, &fg(secs(100))).unwrap_err();
        assert!(matches!(err, Error::RateLimited { .. }));
        assert_eq!(err.retry_after(), Some(Nanos::MAX));
    }
}
