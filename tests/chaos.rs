//! Seeded chaos: random fault schedules against the PLog stack.
//!
//! The contract under test, per redundancy class:
//!
//! 1. **No corrupt bytes are ever returned.** Every read of an acknowledged
//!    record either yields the exact appended bytes or a typed error —
//!    silent bit-rot, torn writes and device deaths are all detected by
//!    checksum verification before data reaches the caller.
//! 2. **Scrub converges.** After the fault schedule is exhausted, a bounded
//!    number of Maintenance-QoS scrub cycles detects and repairs all latent
//!    damage; the final cycle is clean and every record reads byte-identical.
//! 3. **Replays are byte-identical.** The same `(seed, workload)` pair
//!    produces the same injected damage, the same detections and the same
//!    metrics counters, run after run.
//!
//! Seeds used here are pinned: the schedules they generate are data, not
//! luck, so a regression in detection or healing fails deterministically.

use common::chore::Chore;
use common::clock::{millis, secs, Nanos};
use common::ctx::IoCtx;
use common::size::MIB;
use common::SimClock;
use ec::Redundancy;
use plog::{PlogAddress, PlogConfig, PlogStore, ScrubService};
use simdisk::{FaultInjector, FaultPlan, FaultPlanConfig, InjectionLog, MediaKind, StoragePool};
use std::sync::Arc;

const HORIZON: Nanos = secs(1);

fn chaos_cfg() -> FaultPlanConfig {
    FaultPlanConfig { horizon: HORIZON, ..Default::default() }
}

/// Deterministic per-record payload, sized to spread over small extents.
fn payload(seed: u64, i: u64) -> Vec<u8> {
    let len = 200 + ((seed.wrapping_mul(31).wrapping_add(i * 97)) % 1800) as usize;
    (0..len).map(|j| (seed as usize + i as usize * 13 + j * 7) as u8).collect()
}

/// Tick `scrub` through its chore entry point, each cycle starting at the
/// previous one's finish, until a cycle over every record detects and
/// repairs nothing (its `scrub.*` counters stay put) or `max_cycles` are
/// spent. Returns whether it converged, the finish time and the corruptions
/// detected on the way.
fn scrub_until_clean(scrub: &ScrubService, store: &PlogStore, ctx: &IoCtx, max_cycles: usize) -> (bool, Nanos, u64) {
    let m = store.metrics();
    let counters = || (m.counter("scrub.corruptions_detected"), m.counter("scrub.repairs"));
    let (detected_before, _) = counters();
    let mut t = ctx.now;
    for _ in 0..max_cycles {
        let before = counters();
        let tick = scrub.tick(&ctx.at(t)).unwrap();
        t = tick.finished_at.max(t);
        if counters() == before && tick.work_done >= store.record_count() as u64 {
            return (true, t, counters().0 - detected_before);
        }
    }
    (false, t, counters().0 - detected_before)
}

struct ChaosOutcome {
    log: InjectionLog,
    counters: Vec<(String, u64)>,
    acked: usize,
    corruptions_detected: u64,
    scrub_converged: bool,
}

/// Run one seeded chaos schedule against a fresh store: interleave appends
/// with fault injection over the horizon, then verify every acked record,
/// scrub to convergence, and verify again.
fn run_chaos(
    seed: u64,
    redundancy: Redundancy,
    devices: usize,
    records: u64,
    cfg: &FaultPlanConfig,
) -> ChaosOutcome {
    let pool = Arc::new(StoragePool::new(
        "chaos",
        MediaKind::NvmeSsd,
        devices,
        64 * MIB,
        SimClock::new(),
    ));
    let store = Arc::new(
        PlogStore::new(
            pool.clone(),
            PlogConfig { shard_count: 16, redundancy, shard_capacity: 32 * MIB },
        )
        .unwrap(),
    );
    let injector = FaultInjector::new(pool, FaultPlan::generate(seed, devices, cfg));

    // Workload: appends spread over the horizon, faults applied as virtual
    // time passes. Only successful appends are "acked" and tracked.
    let step = HORIZON / records;
    let mut acked: Vec<(PlogAddress, Vec<u8>)> = Vec::new();
    for i in 0..records {
        let t = i * step;
        injector.advance_to(t);
        let shard = (i % 16) as u32;
        let body = payload(seed, i);
        if let Ok((addr, _)) = store.append_to_shard_at(shard, body.clone(), &IoCtx::new(t)) {
            acked.push((addr, body));
        }
    }
    injector.advance_to(HORIZON + millis(100));
    assert!(injector.exhausted(), "every scheduled fault must have fired");
    let log = injector.log();

    // Invariant 1: reads after the storm never return corrupt bytes. Reads
    // start after every transient window has closed; only a permanent death
    // plus concurrent damage could make a record unreadable, and then the
    // error must be typed, never wrong bytes.
    let t_read = HORIZON + millis(100);
    for (addr, body) in &acked {
        let (data, _) = store
            .read_at(addr, &IoCtx::new(t_read))
            .unwrap_or_else(|e| panic!("acked record {addr:?} unreadable: {e:?}"));
        assert_eq!(data.as_slice(), &body[..], "corrupt bytes returned for {addr:?}");
    }

    // Invariant 2: scrub converges and restores full redundancy.
    let scrub = ScrubService::new(Arc::clone(&store));
    let (converged, t_after, _) = scrub_until_clean(&scrub, &store, &IoCtx::new(t_read), 16);
    assert!(converged, "scrub failed to converge: {:?}", store.metrics().counters());
    for (addr, body) in &acked {
        let (data, _) = store.read_at(addr, &IoCtx::new(t_after)).unwrap();
        assert_eq!(data.as_slice(), &body[..], "record {addr:?} diverged after scrub");
    }

    ChaosOutcome {
        log,
        corruptions_detected: store.metrics().counter("plog.corruptions_detected"),
        counters: store.metrics().counters(),
        acked: acked.len(),
        scrub_converged: converged,
    }
}

#[test]
fn replicated_class_survives_a_seeded_storm_with_bit_rot() {
    // Seed pinned so the generated plan lands >= 1 bit-rot on stored bytes.
    let out = run_chaos(3, Redundancy::Replicate { copies: 3 }, 6, 64, &chaos_cfg());
    assert!(out.acked > 0, "storm must not reject every append");
    assert!(
        out.log.bit_rot_applied >= 1,
        "plan must corrupt stored bytes: {:?}",
        out.log
    );
    assert!(
        out.corruptions_detected >= out.log.bit_rot_applied,
        "every surviving rotten shard must be detected: {} detected vs {:?}",
        out.corruptions_detected,
        out.log
    );
    assert!(out.scrub_converged);
}

#[test]
fn erasure_coded_class_survives_a_seeded_storm_with_bit_rot() {
    let out = run_chaos(5, Redundancy::ErasureCode { k: 3, m: 2 }, 8, 64, &chaos_cfg());
    assert!(out.acked > 0);
    assert!(out.log.bit_rot_applied >= 1, "{:?}", out.log);
    assert!(out.corruptions_detected >= 1);
    assert!(out.scrub_converged);
}

#[test]
fn same_seed_replays_with_identical_metrics() {
    let a = run_chaos(3, Redundancy::Replicate { copies: 3 }, 6, 64, &chaos_cfg());
    let b = run_chaos(3, Redundancy::Replicate { copies: 3 }, 6, 64, &chaos_cfg());
    assert_eq!(a.log, b.log, "injected damage must replay identically");
    assert_eq!(a.acked, b.acked);
    assert_eq!(
        a.counters, b.counters,
        "every detection/heal counter must replay identically"
    );
}

#[test]
fn seed_sweep_never_returns_corrupt_bytes() {
    // A broader net with a milder schedule (no permanent deaths): whatever
    // the seed does, acked data must come back byte-identical after scrub.
    let cfg = FaultPlanConfig { deaths: 0, ..chaos_cfg() };
    for seed in 0..8 {
        let out = run_chaos(seed, Redundancy::Replicate { copies: 3 }, 8, 24, &cfg);
        assert!(out.acked > 0, "seed {seed} rejected every append");
        assert!(out.scrub_converged, "seed {seed} did not converge");
    }
}

#[test]
fn healed_replicated_reads_stay_zero_copy() {
    // Regression guard for the PR3 zero-copy invariant on the *healed* read
    // path: detection, fallback and write-back must all move refcounted
    // handles, not copies.
    let pool = Arc::new(StoragePool::new("zc", MediaKind::NvmeSsd, 4, 64 * MIB, SimClock::new()));
    let store = PlogStore::new(
        pool.clone(),
        PlogConfig {
            shard_count: 4,
            redundancy: Redundancy::Replicate { copies: 3 },
            shard_capacity: 32 * MIB,
        },
    )
    .unwrap();
    let body = vec![0xA5u8; 256 * 1024];
    let (addr, t) = store.append_to_shard_at(0, body.clone(), &IoCtx::new(0)).unwrap();
    pool.device(0).corrupt_stored_byte(0, 12345, 0x01).unwrap();
    let before = common::bytes::payload_copies();
    let (data, _) = store.read_at(&addr, &IoCtx::new(t)).unwrap();
    assert_eq!(
        common::bytes::payload_copies() - before,
        0,
        "healed replicated read made payload copies"
    );
    assert_eq!(data.as_slice(), &body[..]);
    assert_eq!(store.metrics().counter("plog.corruptions_detected"), 1);
    assert_eq!(store.metrics().counter("plog.shards_healed"), 1);
}

#[test]
fn full_stack_deployment_detects_heals_and_reports() {
    use common::ctx::QosClass;
    use streamlake::{StreamLake, StreamLakeConfig};

    let sl = StreamLake::new(StreamLakeConfig::small());
    sl.stream()
        .create_topic("chaos-topic", stream::TopicConfig::with_partitions(2))
        .unwrap();
    let ctx = sl.root_ctx(QosClass::Foreground);
    let mut p = sl.producer();
    p.set_batch_size(1);
    for i in 0..16 {
        p.send("chaos-topic", format!("k{i}"), format!("v{i}"), &ctx).unwrap();
    }
    // Rot one stored byte somewhere in the SSD pool.
    let rotted = (0..4).any(|d| sl.ssd_pool().device(d).corrupt_stored_byte(2, 11, 0x10).is_some());
    assert!(rotted, "stream data must be on the SSD pool");

    // Scrub the deployment: the damage is found, repaired, and attributed
    // to its device in the health report.
    let scrub_ctx = sl.root_ctx(QosClass::Maintenance);
    let (converged, _, detected) = scrub_until_clean(sl.scrubber(), sl.plog(), &scrub_ctx, 8);
    assert_eq!(detected, 1, "scrub must find exactly the injected rot");
    assert!(converged);
    assert_eq!(sl.metrics().counter("scrub.repairs"), 1);
    let health = sl.health_report();
    let ssd_corruptions: u64 = health
        .iter()
        .find(|(name, _)| *name == "ssd-pool")
        .map(|(_, devs)| devs.iter().map(|d| d.corruptions).sum())
        .unwrap();
    assert_eq!(ssd_corruptions, 1, "health report must attribute the rot");

    // The stream itself is intact end to end.
    let mut c = sl.consumer("chaos-group");
    c.subscribe("chaos-topic").unwrap();
    let recs = c.poll(100, &sl.root_ctx(QosClass::Foreground)).unwrap();
    assert_eq!(recs.len(), 16);
    // Order is only per-stream; compare the value sets.
    let mut got: Vec<Vec<u8>> = recs.iter().map(|r| r.record.value.as_slice().to_vec()).collect();
    got.sort();
    let mut want: Vec<Vec<u8>> = (0..16).map(|i| format!("v{i}").into_bytes()).collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn lock_witness_sees_no_inversion_under_a_seeded_storm() {
    // Drive a full chaos schedule (appends, faults, scrub to convergence)
    // under the lock witness, armed in every debug build, and require that
    // every nested acquisition respected the canonical hierarchy. The
    // witness panics at the offending site on violation, so this also pins
    // WHERE an inversion happens, not just that one did.
    use common::lockwitness;
    let before = lockwitness::violation_count();
    let out = run_chaos(5, Redundancy::ErasureCode { k: 3, m: 2 }, 8, 64, &chaos_cfg());
    assert!(out.scrub_converged);
    assert_eq!(
        lockwitness::violation_count(),
        before,
        "lock witness observed an ordering violation during chaos"
    );
    if cfg!(debug_assertions) {
        let edges = lockwitness::observed_edges();
        assert!(
            !edges.is_empty(),
            "witness saw no nested acquisitions — Tracked instrumentation regressed"
        );
        for (held, acquired) in edges {
            assert!(
                lockwitness::rank(held) < lockwitness::rank(acquired),
                "observed edge {held} -> {acquired} inverts declared ranks"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Front-door circuit breakers under seeded fault plans (ROADMAP item 3).
// ---------------------------------------------------------------------------

/// Drive an open-loop produce schedule through a [`streamlake::FrontDoor`]
/// while a seeded fault plan storms the SSD pool; failed devices are
/// "replaced" (healed) at `heal_at`. Returns both journals and the digest.
fn run_frontdoor_chaos(
    seed: u64,
    heal_at: Nanos,
    until: Nanos,
) -> (
    Vec<streamlake::BreakerTransition>,
    Vec<streamlake::AdmissionEvent>,
    u64,
) {
    use common::ctx::QosClass;
    use streamlake::{BreakerConfig, FrontDoor, FrontDoorConfig, Permission};
    use streamlake::{StreamLake, StreamLakeConfig};

    let lake = Arc::new(StreamLake::new(StreamLakeConfig::small()));
    lake.stream()
        .create_topic("chaos-fd", stream::TopicConfig::with_partitions(2))
        .unwrap();
    let door = FrontDoor::new(
        Arc::clone(&lake),
        FrontDoorConfig {
            seed,
            breaker: BreakerConfig {
                open_base: millis(50),
                probe_jitter: millis(10),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let client = door.register_tenant("client", "tok-chaos", 10_000);
    door.access().grant(&client, "topic/", Permission::Write);

    let plan = FaultPlan::generate(seed, 4, &chaos_cfg());
    let injector = FaultInjector::new(Arc::clone(lake.ssd_pool()), plan);

    let step = millis(5);
    let mut healed = false;
    let mut t = 0;
    while t <= until {
        injector.advance_to(t);
        if !healed && t >= heal_at {
            // Operator replaces every dead device; health counters reset.
            for (idx, h) in lake.ssd_pool().health().iter().enumerate() {
                if h.failed {
                    lake.ssd_pool().device(idx).heal();
                }
            }
            healed = true;
        }
        let ctx = common::ctx::IoCtx::new(t).with_qos(QosClass::Foreground);
        let _ = door.produce("tok-chaos", "chaos-fd", "k", "v", &ctx);
        t += step;
    }
    (door.breaker_journal(), door.admission_journal(), door.journal_digest())
}

#[test]
fn frontdoor_breaker_opens_on_chaos_device_death() {
    use streamlake::BreakerPhase;
    // Seed 3's plan includes a permanent device death inside the horizon
    // (pinned — the schedule is data, not luck). Healing only after `until`
    // keeps the breaker in its open/probe cycle for the whole run.
    let (transitions, admissions, _) = run_frontdoor_chaos(3, secs(10), secs(1));
    assert!(
        transitions.iter().any(|tr| tr.breaker == "pool/ssd"
            && tr.from == BreakerPhase::Closed
            && tr.to == BreakerPhase::Open),
        "device death must trip the pool breaker: {transitions:?}"
    );
    // While open, requests are rejected with the breaker named.
    assert!(
        admissions.iter().any(|e| matches!(
            &e.decision,
            streamlake::Decision::BreakerOpen { breaker, .. } if breaker == "pool/ssd"
        )),
        "open breaker must reject and journal admissions"
    );
}

#[test]
fn frontdoor_half_open_probe_heals_after_recovery() {
    use streamlake::BreakerPhase;
    // Devices are replaced at 1.5 s; the next scheduled half-open probe
    // succeeds against the healthy pool and closes the breaker.
    let (transitions, _, _) = run_frontdoor_chaos(3, millis(1500), secs(4));
    let pool: Vec<(BreakerPhase, BreakerPhase)> = transitions
        .iter()
        .filter(|tr| tr.breaker == "pool/ssd")
        .map(|tr| (tr.from, tr.to))
        .collect();
    assert!(
        pool.contains(&(BreakerPhase::Open, BreakerPhase::HalfOpen)),
        "probe must arm half-open: {pool:?}"
    );
    assert_eq!(
        pool.last(),
        Some(&(BreakerPhase::HalfOpen, BreakerPhase::Closed)),
        "the breaker must close once the pool recovers: {pool:?}"
    );
}

#[test]
fn frontdoor_same_seed_replays_identical_breaker_journal() {
    // Determinism contract: same seed, same fault plan, same arrival
    // schedule — byte-identical journals, with the lock witness checking
    // the front door's declared ranks under chaos.
    use common::lockwitness;
    let before = lockwitness::violation_count();
    let (t1, a1, d1) = run_frontdoor_chaos(3, millis(1500), secs(4));
    assert_eq!(
        lockwitness::violation_count(),
        before,
        "front-door locking inverted the declared hierarchy"
    );
    let (t2, a2, d2) = run_frontdoor_chaos(3, millis(1500), secs(4));
    assert_eq!(t1, t2, "breaker transition journal must replay byte-identically");
    assert_eq!(a1, a2, "admission journal must replay byte-identically");
    assert_eq!(d1, d2);
    // A different seed produces a different storm and probe schedule.
    let (_, _, d3) = run_frontdoor_chaos(4, millis(1500), secs(4));
    assert_ne!(d1, d3, "seed must shape the chaos journals");
}
