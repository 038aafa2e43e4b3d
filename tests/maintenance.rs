//! The maintenance runtime end-to-end: deterministic replay, backpressure
//! under a foreground burst, reproducible backoff, and the foreground-
//! interference acceptance bound.

use common::chore::{Chore, TickReport};
use common::clock::{millis, secs, Nanos};
use common::ctx::{IoCtx, Phase, QosClass};
use common::Error;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use streamlake::chore::MAX_PRESSURE_LEVEL;
use streamlake::{StreamLake, StreamLakeConfig, TickOutcome};
use workloads::packets::PacketGen;

const T0: i64 = 1_656_806_400;

/// One deterministic workload: a topic with produced records, a table with
/// small files — something for every chore.
fn seeded_deployment() -> StreamLake {
    let sl = StreamLake::new(StreamLakeConfig::small());
    sl.stream()
        .create_topic("dpi", stream::TopicConfig::with_partitions(2))
        .unwrap();
    let mut gen = PacketGen::new(1, T0, 500);
    let mut producer = sl.producer();
    producer.set_batch_size(8);
    for p in gen.batch(64) {
        producer.send("dpi", p.key(), p.to_wire(), &IoCtx::new(0)).unwrap();
    }
    producer.flush(&IoCtx::new(0)).unwrap();
    sl.tables()
        .create_table("t", PacketGen::schema(), None, 100_000, &IoCtx::new(0))
        .unwrap();
    for i in 0..6 {
        let rows: Vec<_> = gen.batch(20).iter().map(|p| p.to_row()).collect();
        sl.tables().insert("t", &rows, &IoCtx::new(secs(i))).unwrap();
    }
    sl
}

#[test]
fn same_seed_runs_replay_tick_journals_byte_identically() {
    let a = seeded_deployment();
    let b = seeded_deployment();
    let ja = a.run_maintenance_until(secs(120));
    let jb = b.run_maintenance_until(secs(120));
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "same seed + same schedule must replay identically");
    // the full roster in registration order, and every registered chore
    // came due inside two minutes
    let roster: Vec<&str> = a.chore_status().iter().map(|s| s.name).collect();
    assert_eq!(
        roster,
        [
            "scrub",
            "replication",
            "archive",
            "meta-flush",
            "compaction",
            "offset-retention",
            "kv-wal-compaction",
        ]
    );
    for name in roster {
        assert!(
            ja.iter().any(|e| e.chore == name),
            "chore {name} never appeared in the journal"
        );
    }
    // and the metric-visible figures agree too
    let pa = a.metrics().histograms_with_prefix("");
    let pb = b.metrics().histograms_with_prefix("");
    assert_eq!(format!("{pa:?}"), format!("{pb:?}"), "metric replays must match");
}

#[test]
fn foreground_burst_ramps_to_deferral_and_quiet_admissions_step_back_down() {
    let sl = seeded_deployment();
    assert_eq!(sl.maintenance().pressure_level(), 0);

    // synthetic foreground burst: queue-phase spans far past the 2 ms
    // pressure threshold
    let fg = sl.root_ctx(QosClass::Foreground);
    for _ in 0..512 {
        fg.record(Phase::Queue, 0, millis(8));
    }
    // each pressured admission raises the level by one; the one that
    // reaches the top level is the first to defer, and every later one
    // defers too while the burst fills the window
    let burst = sl.run_maintenance_until(secs(20));
    let deferred: Vec<bool> = burst.iter().map(|e| e.outcome == TickOutcome::Deferred).collect();
    assert!(deferred.len() > MAX_PRESSURE_LEVEL as usize, "journal: {burst:?}");
    let first = deferred.iter().position(|&d| d);
    assert_eq!(first, Some(MAX_PRESSURE_LEVEL as usize - 1), "journal: {burst:?}");
    assert!(deferred[MAX_PRESSURE_LEVEL as usize - 1..].iter().all(|&d| d));
    assert_eq!(sl.maintenance().pressure_level(), MAX_PRESSURE_LEVEL);
    let status_deferred: u64 = sl.chore_status().iter().map(|s| s.deferred).sum();
    assert_eq!(status_deferred, deferred.iter().filter(|&&d| d).count() as u64);

    // pressure clears: enough quiet samples displace the burst from the
    // sampling window; from the first quiet admission on ticks run again,
    // and each quiet admission steps the level down by exactly one
    for _ in 0..512 {
        fg.record(Phase::Queue, 0, common::clock::micros(5));
    }
    let mut quiet_admissions = 0u32;
    while sl.maintenance().pressure_level() > 0 {
        let due = sl.chore_status().iter().map(|s| s.next_due).min().unwrap();
        let events = sl.run_maintenance_until(due);
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.outcome != TickOutcome::Deferred), "{events:?}");
        quiet_admissions += events.len() as u32;
        assert_eq!(
            sl.maintenance().pressure_level(),
            MAX_PRESSURE_LEVEL.saturating_sub(quiet_admissions),
            "the level steps down one per quiet admission"
        );
    }
}

/// A chore that fails its first `fail_first` ticks.
struct Flaky {
    fail_first: u32,
    calls: AtomicU64,
}

impl Chore for Flaky {
    fn name(&self) -> &'static str {
        "flaky"
    }

    fn tick(&self, ctx: &IoCtx) -> common::Result<TickReport> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if call < u64::from(self.fail_first) {
            return Err(Error::Io(format!("induced failure {call}")));
        }
        Ok(TickReport::idle(ctx.now))
    }
}

#[test]
fn failing_chore_backoff_is_reproducible_across_deployments() {
    let retries = |sl: &StreamLake| -> Vec<Nanos> {
        sl.maintenance().register(Arc::new(Flaky { fail_first: 3, calls: AtomicU64::new(0) }), secs(1));
        sl.run_maintenance_until(secs(30))
            .iter()
            .filter_map(|e| match e.outcome {
                TickOutcome::Failed { retry_at } => Some(retry_at),
                _ => None,
            })
            .collect()
    };
    let a = retries(&StreamLake::new(StreamLakeConfig::small()));
    let b = retries(&StreamLake::new(StreamLakeConfig::small()));
    assert_eq!(a.len(), 3, "three induced failures, three retries");
    assert_eq!(a, b, "backoff sequence must be a pure function of the seed");
    // a different seed jitters a different schedule
    let c = retries(&StreamLake::new(StreamLakeConfig {
        maintenance_seed: 7,
        ..StreamLakeConfig::small()
    }));
    assert_ne!(a, c);
}

/// Foreground append p99 (ack latency) for `n` single-record sends,
/// optionally driving all maintenance chores between sends.
fn append_p99(with_chores: bool, n: usize) -> Nanos {
    let sl = seeded_deployment();
    let mut producer = sl.producer();
    producer.set_batch_size(1);
    let mut gen = PacketGen::new(9, T0, 500);
    let mut lats = Vec::new();
    for (i, p) in gen.batch(n).iter().enumerate() {
        let t = secs(120) + (i as u64) * millis(50);
        if with_chores {
            sl.run_maintenance_until(t);
        }
        let ack = producer
            .send("dpi", p.key(), p.to_wire(), &IoCtx::new(t))
            .unwrap()
            .expect("batch size 1 acks immediately");
        lats.push(ack.ack_time - t);
    }
    lats.sort_unstable();
    lats[((lats.len() * 99).div_ceil(100)).min(lats.len()) - 1]
}

#[test]
fn maintenance_interference_stays_within_the_acceptance_bound() {
    let quiesced = append_p99(false, 64);
    let active = append_p99(true, 64);
    assert!(
        active as f64 <= quiesced as f64 * 1.5,
        "foreground append p99 with chores active ({active} ns) must stay \
         within 1.5x of quiesced ({quiesced} ns)"
    );
}

#[test]
fn lock_witness_sees_no_inversion_across_all_chores() {
    // Every registered chore ticks at least once inside two minutes (see
    // the replay test above), so this sweeps every chore's lock paths
    // under the runtime witness in one pass.
    use common::lockwitness;
    let before = lockwitness::violation_count();
    let sl = seeded_deployment();
    let journal = sl.run_maintenance_until(secs(120));
    assert!(!journal.is_empty());
    assert_eq!(
        lockwitness::violation_count(),
        before,
        "lock witness observed an ordering violation during maintenance"
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
