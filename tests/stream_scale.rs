//! The partitioned stream layer at scale: hundreds of partitions, a
//! four-digit fleet of simulated producers and consumers, and continuous
//! consumer-group churn — graceful leaves, crashes expired by the session
//! timeout, and waves of new members.
//!
//! Two invariants are asserted:
//!
//! 1. **Exactly-once per group.** Across every rebalance the group's
//!    members collectively deliver each record exactly once, and the final
//!    committed offsets account for every produced record.
//! 2. **Determinism.** Two runs from the same seed produce byte-identical
//!    rebalance journals (the PR-5 tick-journal discipline applied to
//!    group coordination) and identical final committed offsets.

use common::clock::secs;
use common::ctx::IoCtx;
use std::collections::BTreeMap;
use streamlake::{StreamLake, StreamLakeConfig};
use workloads::producer_fleet;

const TOPIC: &str = "events";
const GROUP: &str = "pipeline";
const PARTITIONS: u32 = 240;
const PRODUCERS: usize = 900;
const CONSUMER_INSTANCES: usize = 150;
const WAVES: usize = 10;
const MSGS_PER_PRODUCER: usize = 3;

struct RunResult {
    journal: Vec<u8>,
    /// partition → final committed offset of the group.
    offsets: BTreeMap<u32, u64>,
    produced: usize,
    rebalances: u64,
    expired: u64,
}

fn run(seed: u64) -> RunResult {
    let sl = StreamLake::new(StreamLakeConfig::small());
    let mut cfg = stream::TopicConfig::with_partitions(PARTITIONS);
    cfg.quota = 1_000_000; // throughput is not under test here
    sl.stream().create_topic(TOPIC, cfg).unwrap();

    let mut fleet = producer_fleet(seed, PRODUCERS, 5_000, 1.0, 64);
    let mut produced = 0usize;
    let mut seen: BTreeMap<(u32, u64), u32> = BTreeMap::new();
    let mut active: Vec<stream::Consumer> = Vec::new();
    let mut spawned = 0usize;
    let mut retired = 0usize;
    sl.clock().advance(secs(1));
    let mut t = sl.clock().now();

    let per_wave_producers = PRODUCERS / WAVES;
    let joins_per_wave = CONSUMER_INSTANCES / WAVES;

    for wave in 0..WAVES {
        // --- produce: this wave's slice of the fleet sends its quota ----
        for w in fleet
            .iter_mut()
            .skip(wave * per_wave_producers)
            .take(per_wave_producers)
        {
            let mut p = sl.producer();
            p.set_batch_size(1);
            for _ in 0..MSGS_PER_PRODUCER {
                let (key, value) = w.next_message();
                p.send(TOPIC, key, value, &IoCtx::new(t)).unwrap();
            }
            produced += MSGS_PER_PRODUCER;
        }

        // --- churn: new members join ------------------------------------
        for _ in 0..joins_per_wave {
            let mut c = sl.consumer(GROUP);
            c.subscribe(TOPIC).unwrap();
            active.push(c);
            spawned += 1;
        }

        // --- drain: enough rounds for the cooperative handoff to settle
        // (ack, reassign, fetch) plus the actual consumption. Each round
        // advances virtual time by 20 s — under the 30 s session timeout,
        // so polling members stay alive while last wave's crashed members
        // (no heartbeats at all) cross the threshold and get reaped.
        for _ in 0..5 {
            t = sl.clock().advance(secs(20));
            for c in active.iter_mut() {
                for r in c.poll(usize::MAX, &IoCtx::new(t)).unwrap() {
                    *seen.entry((r.partition_idx, r.offset)).or_insert(0) += 1;
                }
                c.commit().unwrap();
            }
        }

        // --- churn: the oldest members go — alternating graceful leave
        // and crash (abandon: only the session timeout reaps them) -------
        if wave > 0 {
            for i in 0..joins_per_wave.min(active.len().saturating_sub(2)) {
                let c = active.remove(0);
                retired += 1;
                if i % 2 == 0 {
                    drop(c); // graceful: leave() runs on drop
                } else {
                    c.abandon(); // crash: no leave, expiry must reap it
                }
            }
        }

    }

    // Final settling: keep sweeping (20 s steps, so the last crash wave
    // expires while live members stay fresh) until the group is stable
    // and two consecutive sweeps deliver nothing.
    let mut dry = 0;
    let mut sweeps = 0;
    loop {
        t = sl.clock().advance(secs(20));
        let mut got_any = false;
        for c in active.iter_mut() {
            for r in c.poll(usize::MAX, &IoCtx::new(t)).unwrap() {
                *seen.entry((r.partition_idx, r.offset)).or_insert(0) += 1;
                got_any = true;
            }
            c.commit().unwrap();
        }
        dry = if got_any { 0 } else { dry + 1 };
        sweeps += 1;
        if dry >= 2 && sl.stream().groups().is_stable(GROUP) {
            break;
        }
        assert!(sweeps < 100, "rebalance never converged");
    }

    assert_eq!(spawned, CONSUMER_INSTANCES, "churn plan drifted");
    assert!(retired >= CONSUMER_INSTANCES / 2, "churn must retire members");
    assert_eq!(produced, PRODUCERS * MSGS_PER_PRODUCER);

    // Exactly-once per group, in-run.
    assert_eq!(seen.len(), produced, "every record delivered");
    assert!(
        seen.values().all(|&c| c == 1),
        "duplicate deliveries: {:?}",
        seen.iter().filter(|(_, &c)| c != 1).take(5).collect::<Vec<_>>()
    );

    // The group converged: stable, every partition owned by exactly one
    // live member.
    let groups = sl.stream().groups();
    assert!(groups.is_stable(GROUP), "group never converged");
    assert!(groups.unassigned(GROUP).is_empty(), "unassigned partitions remain");
    let assignment = groups.assignment(GROUP);
    let owned: usize = assignment.values().map(|s| s.len()).sum();
    assert_eq!(owned, PARTITIONS as usize, "double- or un-owned partitions");

    // Committed offsets account for every record.
    let mut offsets = BTreeMap::new();
    let mut committed_total = 0u64;
    for idx in 0..PARTITIONS {
        let off = sl
            .stream()
            .dispatcher()
            .committed_offset(GROUP, TOPIC, idx)
            .unwrap()
            .unwrap_or(0);
        committed_total += off;
        offsets.insert(idx, off);
    }
    assert_eq!(
        committed_total,
        produced as u64,
        "final committed offsets must sum to the record count"
    );

    RunResult {
        journal: groups.journal_bytes(),
        offsets,
        produced,
        rebalances: sl.stream().metrics().counter("stream.group.rebalances"),
        expired: sl.stream().metrics().counter("stream.group.expired_members"),
    }
}

#[test]
fn scale_run_is_exactly_once_and_deterministic() {
    let a = run(42);

    // The run exercised what it claims to exercise.
    assert!(a.rebalances >= WAVES as u64, "churn produced too few rebalances");
    assert!(a.expired > 0, "no crashed member was ever expired");
    assert!(!a.journal.is_empty());
    let text = String::from_utf8(a.journal.clone()).unwrap();
    assert!(text.contains("rebalance"), "journal must record rebalances");
    assert!(text.contains("stable"), "journal must record stabilizations");
    assert!(text.contains("why=expired"), "journal must record expiries");

    // Same seed ⇒ byte-identical journal and identical final offsets.
    let b = run(42);
    assert_eq!(a.produced, b.produced);
    assert!(
        a.journal == b.journal,
        "rebalance journals diverged between identical runs"
    );
    assert_eq!(a.offsets, b.offsets, "final committed offsets diverged");

    // A different seed reshuffles the keys (different offsets per
    // partition) but the protocol invariants held there too (asserted
    // inside run()).
    let c = run(7);
    assert_eq!(c.produced, a.produced);
    assert_ne!(
        c.offsets, a.offsets,
        "different seeds should place records differently"
    );
}
