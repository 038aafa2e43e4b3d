//! Shared fixtures for the maintenance-runtime gates: a seeded deployment
//! with work queued for every chore, and the foreground-interference probe
//! used by both `chore_soak` and the `perf_baseline` trajectory row.

use common::clock::{millis, secs, Nanos};
use common::ctx::IoCtx;
use streamlake::{StreamLake, StreamLakeConfig};
use workloads::packets::PacketGen;

/// Packet-generator epoch shared by the maintenance gates.
pub const T0: i64 = 1_656_806_400;

/// One deterministic workload: a topic with produced records, a table with
/// small files, and staged tiering extents — something for every chore.
pub fn seeded_deployment() -> StreamLake {
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
    for key in 0..4u64 {
        sl.tiering()
            .write(key, &[common::Bytes::from_vec(vec![key as u8; 2048])])
            .expect("stage tiering extent");
    }
    sl
}

/// Foreground append p99 (virtual ack latency) for `n` single-record sends
/// against a fresh seeded deployment, optionally driving every maintenance
/// chore between sends. Deterministic: the figure is a pure function of the
/// workload and the chore schedule, so the active/quiesced ratio isolates
/// maintenance interference with no host noise.
pub fn append_p99(with_chores: bool, n: usize) -> Nanos {
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
            .expect("append")
            .expect("batch size 1 acks immediately");
        lats.push(ack.ack_time - t);
    }
    lats.sort_unstable();
    lats[((lats.len() * 99).div_ceil(100)).min(lats.len()) - 1]
}
