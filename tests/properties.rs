//! Cross-crate property tests: whole-system invariants under randomized
//! operation sequences.

use common::ctx::IoCtx;
use format::{CmpOp, Expr, Predicate, Value};
use lake::ScanOptions;
use proptest::prelude::*;
use streamlake::{StreamLake, StreamLakeConfig};
use workloads::packets::PacketGen;

/// Model-based test: a table under random inserts and province deletes
/// must agree with a plain Vec filtered the same way.
#[test]
fn table_matches_model_under_random_mutations() {
    let mut runner = proptest::test_runner::TestRunner::new(proptest::test_runner::Config {
        cases: 12,
        ..Default::default()
    });
    let ops_strategy = proptest::collection::vec(
        prop_oneof![
            (1usize..40).prop_map(|n| ("insert", n)),
            (0usize..3).prop_map(|p| ("delete", p)),
        ],
        1..12,
    );
    runner
        .run(&ops_strategy, |ops| {
            let sl = StreamLake::new(StreamLakeConfig::small());
            sl.tables()
                .create_table("t", PacketGen::schema(), None, 100_000, &IoCtx::new(0))
                .unwrap();
            let mut model: Vec<Vec<Value>> = Vec::new();
            let mut gen = PacketGen::new(7, 0, 500);
            let provinces = ["guangdong", "beijing", "shanghai"];
            let mut t = 0u64;
            for (op, arg) in &ops {
                t += common::clock::secs(1);
                match *op {
                    "insert" => {
                        let rows: Vec<_> = gen.batch(*arg).iter().map(|p| p.to_row()).collect();
                        sl.tables().insert("t", &rows, &IoCtx::new(t)).unwrap();
                        model.extend(rows);
                    }
                    "delete" => {
                        let p = provinces[*arg % provinces.len()];
                        if !model.is_empty() {
                            let pred =
                                Expr::Pred(Predicate::cmp("province", CmpOp::Eq, p));
                            sl.tables().delete("t", &pred, &IoCtx::new(t)).unwrap();
                            model.retain(|row| row[2] != Value::from(p));
                        }
                    }
                    _ => unreachable!(),
                }
            }
            let got = sl
                .tables()
                .select("t", &ScanOptions::default(), &IoCtx::new(t + common::clock::secs(1)))
                .unwrap()
                .rows;
            prop_assert_eq!(got.len(), model.len());
            // multiset equality on a stable key
            let key = |r: &Vec<Value>| format!("{:?}", r);
            let mut a: Vec<String> = got.iter().map(key).collect();
            let mut b: Vec<String> = model.iter().map(key).collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
            Ok(())
        })
        .unwrap();
}

/// Per-key order and completeness hold for any batch size and stream count.
#[test]
fn stream_delivery_is_complete_and_ordered_for_any_batching() {
    let mut runner = proptest::test_runner::TestRunner::new(proptest::test_runner::Config {
        cases: 16,
        ..Default::default()
    });
    let strategy = (1usize..6, 1usize..100, 1usize..200);
    runner
        .run(&strategy, |(streams, batch, messages)| {
            let sl = StreamLake::new(StreamLakeConfig::small());
            sl.stream()
                .create_topic("t", stream::TopicConfig::with_partitions(streams as u32))
                .unwrap();
            let mut producer = sl.producer();
            producer.set_batch_size(batch);
            for i in 0..messages {
                producer
                    .send("t", format!("key-{}", i % 7), (i as u32).to_le_bytes().to_vec(), &IoCtx::new(0))
                    .unwrap();
            }
            producer.flush(&IoCtx::new(0)).unwrap();
            let mut consumer = sl.consumer("g");
            consumer.subscribe("t").unwrap();
            let got = consumer.poll(usize::MAX, &IoCtx::new(0)).unwrap();
            prop_assert_eq!(got.len(), messages);
            // per-key sequence numbers must arrive in send order
            let mut last_per_key: std::collections::HashMap<Vec<u8>, u32> =
                std::collections::HashMap::new();
            for r in &got {
                let seq = u32::from_le_bytes(r.record.value.as_slice().try_into().unwrap());
                if let Some(&prev) = last_per_key.get(&r.record.key) {
                    prop_assert!(
                        seq > prev,
                        "key {:?}: {} after {}",
                        r.record.key,
                        seq,
                        prev
                    );
                }
                last_per_key.insert(r.record.key.clone(), seq);
            }
            Ok(())
        })
        .unwrap();
}

/// Per-key order survives topic growth plus a full cooperative rebalance
/// cycle, and the group still sees every record exactly once.
///
/// Operational discipline encoded here: the group drains and commits
/// *before* `scale_topic`, because growing the partition count remaps
/// keys — order across the boundary is only meaningful once the old
/// placement is fully consumed.
#[test]
fn per_key_order_survives_scaling_and_rebalancing() {
    let mut runner = proptest::test_runner::TestRunner::new(proptest::test_runner::Config {
        cases: 12,
        ..Default::default()
    });
    let strategy = (1u32..5, 1u32..8, 1usize..80, 1usize..120, 2usize..5);
    runner
        .run(&strategy, |(parts, growth, phase1, phase2, keys)| {
            let sl = StreamLake::new(StreamLakeConfig::small());
            sl.stream()
                .create_topic("t", stream::TopicConfig::with_partitions(parts))
                .unwrap();
            let mut producer = sl.producer();
            producer.set_batch_size(5);
            let mut seq = 0u32;
            let mut send_n = |producer: &mut stream::Producer, n: usize| {
                for _ in 0..n {
                    producer
                        .send(
                            "t",
                            format!("key-{}", seq as usize % keys),
                            seq.to_le_bytes().to_vec(),
                            &IoCtx::new(0),
                        )
                        .unwrap();
                    seq += 1;
                }
                producer.flush(&IoCtx::new(0)).unwrap();
            };

            let mut last_per_key: std::collections::HashMap<Vec<u8>, u32> =
                std::collections::HashMap::new();
            let mut seen = std::collections::HashSet::new();
            let mut check = |records: &[stream::ConsumedRecord]| {
                for r in records {
                    let s = u32::from_le_bytes(r.record.value.as_slice().try_into().unwrap());
                    assert!(seen.insert(s), "record {s} delivered twice to the group");
                    if let Some(&prev) = last_per_key.get(&r.record.key) {
                        assert!(s > prev, "key {:?}: {s} after {prev}", r.record.key);
                    }
                    last_per_key.insert(r.record.key.clone(), s);
                }
            };

            // Phase 1: a single member drains and commits everything.
            send_n(&mut producer, phase1);
            let mut c1 = sl.consumer("g");
            c1.subscribe("t").unwrap();
            loop {
                let got = c1.poll(usize::MAX, &IoCtx::new(0)).unwrap();
                if got.is_empty() {
                    break;
                }
                check(&got);
            }
            c1.commit().unwrap();

            // Grow the topic, produce more, and churn the membership: the
            // new member forces a full cooperative rebalance cycle.
            sl.stream()
                .scale_topic("t", parts + growth, &IoCtx::new(0))
                .unwrap();
            send_n(&mut producer, phase2);
            let mut c2 = sl.consumer("g");
            c2.subscribe("t").unwrap();
            for _ in 0..8 {
                for c in [&mut c1, &mut c2] {
                    let got = c.poll(usize::MAX, &IoCtx::new(0)).unwrap();
                    check(&got);
                    c.commit().unwrap();
                }
            }
            prop_assert_eq!(
                seen.len(),
                phase1 + phase2,
                "group must deliver every record exactly once"
            );
            prop_assert!(sl.stream().groups().unassigned("g").is_empty());
            Ok(())
        })
        .unwrap();
}

/// Any single device failure never loses acknowledged data under the
/// small config's 2-way replication.
#[test]
fn single_failure_never_loses_acked_messages() {
    let mut runner = proptest::test_runner::TestRunner::new(proptest::test_runner::Config {
        cases: 12,
        ..Default::default()
    });
    let strategy = (0usize..4, 1usize..150);
    runner
        .run(&strategy, |(victim, messages)| {
            let sl = StreamLake::new(StreamLakeConfig::small());
            sl.stream()
                .create_topic("t", stream::TopicConfig::with_partitions(2))
                .unwrap();
            let mut producer = sl.producer();
            producer.set_batch_size(16);
            for i in 0..messages {
                producer.send("t", format!("k{i}"), format!("v{i}"), &IoCtx::new(0)).unwrap();
            }
            producer.flush(&IoCtx::new(0)).unwrap();
            sl.ssd_pool().device(victim).fail();
            let mut consumer = sl.consumer("g");
            consumer.subscribe("t").unwrap();
            let got = consumer.poll(usize::MAX, &IoCtx::new(0)).unwrap();
            prop_assert_eq!(got.len(), messages);
            Ok(())
        })
        .unwrap();
}

/// Time travel to any recorded snapshot returns exactly the cumulative
/// prefix of inserted rows.
#[test]
fn time_travel_returns_exact_prefixes() {
    let mut runner = proptest::test_runner::TestRunner::new(proptest::test_runner::Config {
        cases: 10,
        ..Default::default()
    });
    let strategy = proptest::collection::vec(1usize..30, 1..8);
    runner
        .run(&strategy, |batches| {
            let sl = StreamLake::new(StreamLakeConfig::small());
            sl.tables()
                .create_table("t", PacketGen::schema(), None, 100_000, &IoCtx::new(0))
                .unwrap();
            let mut gen = PacketGen::new(3, 0, 500);
            let mut cumulative = 0usize;
            let mut checkpoints = Vec::new();
            let mut t = 0u64;
            for n in &batches {
                t += common::clock::secs(1);
                let rows: Vec<_> = gen.batch(*n).iter().map(|p| p.to_row()).collect();
                let info = sl.tables().insert("t", &rows, &IoCtx::new(t)).unwrap();
                cumulative += n;
                let (snap, _) = sl
                    .tables()
                    .meta()
                    .get_snapshot("t", info.snapshot_id, lake::MetadataMode::Accelerated, &IoCtx::new(0))
                    .unwrap();
                checkpoints.push((snap.timestamp, cumulative));
                t = snap.timestamp;
            }
            for (ts, expected) in &checkpoints {
                let rows = sl
                    .tables()
                    .select(
                        "t",
                        &ScanOptions { as_of: Some(*ts), ..Default::default() },
                        &IoCtx::new(t + common::clock::secs(5)),
                    )
                    .unwrap()
                    .rows;
                prop_assert_eq!(rows.len(), *expected);
            }
            Ok(())
        })
        .unwrap();
}
