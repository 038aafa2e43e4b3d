//! Consumer-group convergence smoke gate: a small partitioned-stream run
//! with member churn that must end with every partition assigned and the
//! rebalance protocol converged.
//!
//! `scripts/check.sh` runs this after the tier-1 tests; it drives a
//! 64-partition topic through join/leave/crash waves and exits nonzero if
//! the group never stabilizes, any partition is left unassigned, or the
//! group delivers a record zero or multiple times — so a coordinator
//! regression fails CI even if no unit test names it.
//!
//! `cargo run --release -p bench --bin stream_scale`

use common::clock::secs;
use common::ctx::IoCtx;
use common::size::MIB;
use common::SimClock;
use ec::Redundancy;
use plog::{PlogConfig, PlogStore};
use simdisk::{MediaKind, StoragePool};
use std::collections::BTreeMap;
use std::sync::Arc;

const PARTITIONS: u32 = 64;
const WAVES: usize = 4;
const JOINS_PER_WAVE: usize = 4;
const MSGS_PER_WAVE: usize = 256;

fn service() -> Arc<stream::StreamService> {
    let clock = SimClock::new();
    let pool = Arc::new(StoragePool::new(
        "smoke",
        MediaKind::NvmeSsd,
        6,
        512 * MIB,
        clock.clone(),
    ));
    let plog = Arc::new(
        PlogStore::new(
            pool,
            PlogConfig {
                shard_count: 64,
                redundancy: Redundancy::Replicate { copies: 2 },
                shard_capacity: 256 * MIB,
            },
        )
        .expect("valid smoke config"),
    );
    stream::StreamService::new(
        plog,
        clock,
        stream::StreamServiceOptions { workers: 3, ..Default::default() },
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("stream_scale: FAILED — {msg}");
    std::process::exit(1);
}

fn main() {
    let svc = service();
    svc.create_topic("t", stream::TopicConfig::with_partitions(PARTITIONS))
        .expect("smoke topic");

    let mut produced = 0usize;
    let mut seen: BTreeMap<(u32, u64), u32> = BTreeMap::new();
    let mut active: Vec<stream::Consumer> = Vec::new();
    let mut seq = 0u64;
    #[expect(clippy::disallowed_methods, reason = "R7: this bin is the test driver and sole clock owner")]
    svc.clock().advance(secs(1));

    for wave in 0..WAVES {
        let mut p = svc.producer();
        p.set_batch_size(8);
        let t = svc.clock().now();
        for _ in 0..MSGS_PER_WAVE {
            p.send("t", format!("k{}", seq % 97), seq.to_be_bytes().to_vec(), &IoCtx::new(t))
                .expect("smoke send");
            seq += 1;
        }
        p.flush(&IoCtx::new(t)).expect("smoke flush");
        produced += MSGS_PER_WAVE;

        for _ in 0..JOINS_PER_WAVE {
            let mut c = svc.consumer("g");
            c.subscribe("t").expect("smoke subscribe");
            active.push(c);
        }
        // Drain in sub-session-timeout steps so crashed members from the
        // previous wave expire while polling members stay alive.
        for _ in 0..4 {
            #[expect(clippy::disallowed_methods, reason = "R7: the driver steps virtual time between poll rounds")]
            let t = svc.clock().advance(secs(20));
            for c in active.iter_mut() {
                for r in c.poll(usize::MAX, &IoCtx::new(t)).expect("smoke poll") {
                    *seen.entry((r.partition_idx, r.offset)).or_insert(0) += 1;
                }
                c.commit().expect("smoke commit");
            }
        }
        // Churn: one graceful leave, one crash per wave.
        if wave > 0 && active.len() > 2 {
            drop(active.remove(0));
            active.remove(0).abandon();
        }
    }

    // Settle: the group must converge within a bounded number of sweeps.
    let mut dry = 0;
    let mut sweeps = 0;
    while !(dry >= 2 && svc.groups().is_stable("g")) {
        #[expect(clippy::disallowed_methods, reason = "R7: the driver steps virtual time between poll rounds")]
        let t = svc.clock().advance(secs(20));
        let mut got_any = false;
        for c in active.iter_mut() {
            for r in c.poll(usize::MAX, &IoCtx::new(t)).expect("smoke poll") {
                *seen.entry((r.partition_idx, r.offset)).or_insert(0) += 1;
                got_any = true;
            }
            c.commit().expect("smoke commit");
        }
        dry = if got_any { 0 } else { dry + 1 };
        sweeps += 1;
        if sweeps > 50 {
            fail("rebalance did not converge within 50 sweeps");
        }
    }

    let unassigned = svc.groups().unassigned("g");
    if !unassigned.is_empty() {
        fail(&format!("{} partitions left unassigned: {:?}", unassigned.len(), &unassigned[..unassigned.len().min(5)]));
    }
    if seen.len() != produced {
        fail(&format!("delivered {} of {produced} records", seen.len()));
    }
    if let Some(((p, o), n)) = seen.iter().find(|(_, &n)| n != 1) {
        fail(&format!("partition {p} offset {o} delivered {n} times"));
    }
    println!(
        "stream_scale: ok — {} partitions, {} members live, {} records exactly-once, {} rebalances journaled",
        PARTITIONS,
        active.len(),
        produced,
        svc.metrics().counter("stream.group.rebalances"),
    );
}
