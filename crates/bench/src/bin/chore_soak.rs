//! Maintenance-runtime soak gate: run every registered chore for several
//! virtual hours against a seeded deployment and verify liveness.
//!
//! `scripts/check.sh` runs this after the tier-1 tests. It fails when any
//! chore never ticks, is left stuck in failure backoff, or stops being
//! scheduled before the horizon (permanent starvation) — the regressions a
//! scheduler refactor is most likely to introduce and unit tests are least
//! likely to catch.
//!
//! `cargo run --release -p bench --bin chore_soak`

use common::clock::{secs, Nanos};
use common::ctx::IoCtx;
use streamlake::{StreamLake, StreamLakeConfig};
use workloads::packets::PacketGen;

/// Virtual soak horizon: four hours, long enough for thousands of ticks of
/// the fastest chore and dozens of the slowest.
const HORIZON: Nanos = secs(4 * 3600);

/// A chore that has not been runnable within this margin of the horizon is
/// considered starved (the longest registered period is 60 s; backoff after
/// a transient failure tops out near 17 min, well inside this bound).
const STARVATION_MARGIN: Nanos = secs(30 * 60);

/// Packet-generator epoch of the soak workload.
const T0: i64 = 1_656_806_400;

/// One deterministic workload: a topic with produced records, a table with
/// small files — something for every chore.
fn seeded_deployment() -> StreamLake {
    let sl = StreamLake::new(StreamLakeConfig::small());
    sl.stream()
        .create_topic("dpi", stream::TopicConfig::with_partitions(2))
        .expect("fresh deployment accepts the topic");
    let mut gen = PacketGen::new(1, T0, 500);
    let mut producer = sl.producer();
    producer.set_batch_size(8);
    for p in gen.batch(64) {
        producer.send("dpi", p.key(), p.to_wire(), &IoCtx::new(0)).expect("append");
    }
    producer.flush(&IoCtx::new(0)).expect("flush");
    sl.tables()
        .create_table("t", PacketGen::schema(), None, 100_000, &IoCtx::new(0))
        .expect("fresh deployment accepts the table");
    for i in 0..6 {
        let rows: Vec<_> = gen.batch(20).iter().map(|p| p.to_row()).collect();
        sl.tables().insert("t", &rows, &IoCtx::new(secs(i))).expect("insert");
    }
    sl
}

fn main() {
    let sl = seeded_deployment();
    let events = sl.run_maintenance_until(HORIZON);
    let status = sl.chore_status();

    println!(
        "chore_soak: {} journal events over {} virtual hours",
        events.len(),
        HORIZON / secs(3600)
    );
    println!(
        "{:<12} {:>8} {:>10} {:>9} {:>9} {:>14}",
        "chore", "ticks", "work", "deferred", "failures", "next_due_s"
    );
    let mut failed = false;
    for s in &status {
        println!(
            "{:<12} {:>8} {:>10} {:>9} {:>9} {:>14}",
            s.name,
            s.ticks,
            s.work_done,
            s.deferred,
            s.consecutive_failures,
            s.next_due / secs(1)
        );
        if s.ticks == 0 {
            eprintln!("chore_soak: FAILED — chore `{}` never ticked", s.name);
            failed = true;
        }
        if s.consecutive_failures > 0 {
            eprintln!(
                "chore_soak: FAILED — chore `{}` stuck in backoff ({} consecutive failures)",
                s.name, s.consecutive_failures
            );
            failed = true;
        }
        // Liveness: the scheduler still owes this chore a slot near the
        // horizon. A next_due far past it means the chore was pushed out
        // (deferral loop or runaway backoff) — permanent starvation.
        if s.next_due > HORIZON + STARVATION_MARGIN {
            eprintln!(
                "chore_soak: FAILED — chore `{}` starved: next due {} s, horizon {} s",
                s.name,
                s.next_due / secs(1),
                HORIZON / secs(1)
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("chore_soak: ok — all {} chores live through the horizon", status.len());
}
