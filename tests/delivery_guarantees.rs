//! The four delivery guarantees of §V-A, exercised through the public API:
//! strict order, idempotent writes, strong consistency (no loss within the
//! redundancy margin — covered in `fault_tolerance.rs`), and exactly-once
//! transactions across topics.

use common::ctx::IoCtx;
use streamlake::{StreamLake, StreamLakeConfig};

fn system() -> StreamLake {
    StreamLake::new(StreamLakeConfig::small())
}

#[test]
fn per_stream_order_is_strict() {
    let sl = system();
    sl.stream()
        .create_topic("t", stream::TopicConfig::with_partitions(4))
        .unwrap();
    let mut p = sl.producer();
    p.set_batch_size(7); // batching must not reorder
    for i in 0..200u32 {
        p.send("t", b"same-key".to_vec(), i.to_le_bytes().to_vec(), &IoCtx::new(0)).unwrap();
    }
    p.flush(&IoCtx::new(0)).unwrap();
    let mut c = sl.consumer("order");
    c.subscribe("t").unwrap();
    let got = c.poll(1000, &IoCtx::new(0)).unwrap();
    assert_eq!(got.len(), 200);
    // single key → single stream; payloads arrive in send order
    let values: Vec<u32> = got
        .iter()
        .map(|r| u32::from_le_bytes(r.record.value.as_slice().try_into().unwrap()))
        .collect();
    assert_eq!(values, (0..200).collect::<Vec<_>>());
}

#[test]
fn duplicate_producer_batches_are_dropped() {
    let sl = system();
    sl.stream()
        .create_topic("t", stream::TopicConfig::with_partitions(1))
        .unwrap();
    let route = sl.stream().dispatcher().route("t", b"k").unwrap();
    let object = sl.stream().dispatcher().object_of(&route).unwrap();

    // a producer retries its batch after a (simulated) lost ack
    let mut records = Vec::new();
    for seq in 1..=5u64 {
        let mut r = stream::Record::new(b"k".to_vec(), format!("m{seq}").into_bytes(), 0);
        r.producer_seq = Some((77, seq));
        records.push(r);
    }
    object.append_at(&records, &IoCtx::new(0)).unwrap();
    object.append_at(&records, &IoCtx::new(0)).unwrap(); // network retry
    object.flush_at(&IoCtx::new(0)).unwrap();
    let (got, _) = object
        .read_at(0, stream::ReadCtrl::default(), &IoCtx::new(0))
        .unwrap();
    assert_eq!(got.len(), 5, "idempotence must drop the retried batch");
}

#[test]
fn exactly_once_across_two_topics() {
    let sl = system();
    sl.stream()
        .create_topic("orders", stream::TopicConfig::with_partitions(1))
        .unwrap();
    sl.stream()
        .create_topic("payments", stream::TopicConfig::with_partitions(1))
        .unwrap();

    // committed transaction: both sides visible
    let txn = sl.stream().txns().begin();
    let mut p = sl.producer();
    p.set_batch_size(1);
    p.send_in_txn(txn, "orders", "o1", "order", &IoCtx::new(0)).unwrap();
    p.send_in_txn(txn, "payments", "o1", "payment", &IoCtx::new(0)).unwrap();

    let mut c_orders = sl.consumer("g");
    let mut c_payments = sl.consumer("g");
    c_orders.subscribe("orders").unwrap();
    c_payments.subscribe("payments").unwrap();
    assert!(c_orders.poll(10, &IoCtx::new(0)).unwrap().is_empty(), "invisible before commit");
    assert!(c_payments.poll(10, &IoCtx::new(0)).unwrap().is_empty());

    sl.stream().txns().commit(txn).unwrap();
    assert_eq!(c_orders.poll(10, &IoCtx::new(0)).unwrap().len(), 1);
    assert_eq!(c_payments.poll(10, &IoCtx::new(0)).unwrap().len(), 1);

    // aborted transaction: neither side ever visible
    let txn2 = sl.stream().txns().begin();
    p.send_in_txn(txn2, "orders", "o2", "order", &IoCtx::new(0)).unwrap();
    p.send_in_txn(txn2, "payments", "o2", "payment", &IoCtx::new(0)).unwrap();
    sl.stream().txns().abort(txn2).unwrap();
    assert!(c_orders.poll(10, &IoCtx::new(0)).unwrap().is_empty());
    assert!(c_payments.poll(10, &IoCtx::new(0)).unwrap().is_empty());
}

#[test]
fn rescaling_workers_loses_no_messages() {
    let sl = system();
    sl.stream()
        .create_topic("t", stream::TopicConfig::with_partitions(6))
        .unwrap();
    let mut p = sl.producer();
    for i in 0..120 {
        p.send("t", format!("k{i}"), format!("v{i}"), &IoCtx::new(0)).unwrap();
    }
    p.flush(&IoCtx::new(0)).unwrap();

    // scale up, then remove a worker: pure metadata operations
    sl.stream().add_worker();
    let victim = sl.stream().dispatcher().workers()[0];
    let report = sl.stream().remove_worker(victim, &IoCtx::new(0)).unwrap();
    assert_eq!(report.bytes_migrated, 0);

    let mut c = sl.consumer("g");
    c.subscribe("t").unwrap();
    assert_eq!(c.poll(1000, &IoCtx::new(0)).unwrap().len(), 120);
}

#[test]
fn consumer_group_resume_is_exactly_once_per_group() {
    let sl = system();
    sl.stream()
        .create_topic("t", stream::TopicConfig::with_partitions(2))
        .unwrap();
    let mut p = sl.producer();
    for i in 0..50 {
        p.send("t", format!("k{i}"), format!("v{i}"), &IoCtx::new(0)).unwrap();
    }
    p.flush(&IoCtx::new(0)).unwrap();

    let mut c1 = sl.consumer("g");
    c1.subscribe("t").unwrap();
    let first = c1.poll(30, &IoCtx::new(0)).unwrap();
    c1.commit().unwrap();
    drop(c1);

    // a replacement consumer in the same group picks up the remainder only
    let mut c2 = sl.consumer("g");
    c2.subscribe("t").unwrap();
    let rest = c2.poll(1000, &IoCtx::new(0)).unwrap();
    assert_eq!(first.len() + rest.len(), 50);
    let mut seen = std::collections::HashSet::new();
    for r in first.iter().chain(rest.iter()) {
        assert!(
            seen.insert((r.partition_idx, r.offset)),
            "no offset may be delivered twice to the group"
        );
    }
}

#[test]
fn a_group_of_n_consumers_delivers_each_record_exactly_once() {
    // Regression for the partitioned consumer-group path: N members of one
    // group collectively receive every record of a topic exactly once,
    // with the membership churning mid-consumption.
    let sl = system();
    sl.stream()
        .create_topic("t", stream::TopicConfig::with_partitions(8))
        .unwrap();
    let mut p = sl.producer();
    for i in 0..400 {
        p.send("t", format!("k{i}"), format!("v{i}"), &IoCtx::new(0)).unwrap();
    }
    p.flush(&IoCtx::new(0)).unwrap();

    let mut members: Vec<stream::Consumer> = (0..4)
        .map(|_| {
            let mut c = sl.consumer("g");
            c.subscribe("t").unwrap();
            c
        })
        .collect();

    let mut seen = std::collections::HashMap::new();
    let drain = |members: &mut Vec<stream::Consumer>,
                     seen: &mut std::collections::HashMap<(u32, u64), u32>| {
        for _ in 0..8 {
            for c in members.iter_mut() {
                for r in c.poll(100, &IoCtx::new(0)).unwrap() {
                    *seen.entry((r.partition_idx, r.offset)).or_insert(0) += 1;
                }
                c.commit().unwrap();
            }
        }
    };
    drain(&mut members, &mut seen);

    // one member leaves gracefully, the survivors absorb its partitions
    drop(members.pop());
    for i in 0..200 {
        p.send("t", format!("late{i}"), format!("v{i}"), &IoCtx::new(0)).unwrap();
    }
    p.flush(&IoCtx::new(0)).unwrap();
    drain(&mut members, &mut seen);

    assert_eq!(seen.len(), 600, "every record delivered");
    assert!(
        seen.values().all(|&c| c == 1),
        "a record reached the group more than once: {:?}",
        seen.iter().filter(|(_, &c)| c != 1).collect::<Vec<_>>()
    );
}
