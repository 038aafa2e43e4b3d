//! The one-metadata-home contract: every metadata key of a deployment lives
//! in the primary PLog's KV index, under the prefix of the service that
//! owns it (DESIGN.md, "One metadata home"), and one WAL recovers all of it.

use common::clock::{millis, secs};
use common::ctx::IoCtx;
use format::{DataType, Field, Row, Schema, Value};
use kvstore::KvStore;
use streamlake::{StreamLake, StreamLakeConfig, Transaction};

/// The owner prefixes of DESIGN.md's "One metadata home" table.
const PREFIXES: [&str; 12] = [
    "plog/", "m/", "i/", "t/", "topic/", "worker/", "group/", "cg/", "catalog/", "meta/", "live/",
    "addr/",
];

fn rows(round: u64) -> Vec<Row> {
    (0..4)
        .map(|i| vec![Value::from(format!("r{round}")), Value::Int(i)])
        .collect()
}

/// A mixed schedule touching every owner: topics, produce, a consumer
/// group commit, table inserts, stream+table transactions, a metadata
/// flush. Returns a transaction left staged, so intents and a record are
/// in the store while it is inspected.
fn mixed_schedule(sl: &StreamLake) -> Transaction<'_> {
    sl.stream()
        .create_topic("events", stream::TopicConfig::with_partitions(2))
        .unwrap();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Utf8),
        Field::new("n", DataType::Int64),
    ])
    .unwrap();
    sl.tables()
        .create_table("facts", schema, None, 1000, &IoCtx::new(0))
        .unwrap();
    let mut producer = sl.producer();
    producer.set_batch_size(1);
    for round in 0..40u64 {
        let ctx = IoCtx::new(millis(100) * round);
        producer
            .send("events", format!("k{round}"), "v", &ctx)
            .unwrap();
        if round % 2 == 0 {
            sl.tables().insert("facts", &rows(round), &ctx).unwrap();
        } else {
            let mut txn = sl.transaction();
            txn.send("events", format!("t{round}"), "v", &ctx).unwrap();
            txn.insert("facts", &rows(round), &ctx).unwrap();
            txn.commit(&ctx).unwrap();
        }
    }
    let ctx = IoCtx::new(secs(5));
    let mut consumer = sl.consumer("readers");
    consumer.subscribe("events").unwrap();
    assert!(!consumer.poll(1000, &ctx).unwrap().is_empty());
    consumer.commit().unwrap();
    sl.sync(&ctx).unwrap();
    let mut open = sl.transaction();
    open.insert("facts", &rows(99), &ctx).unwrap();
    open
}

/// Every key/value pair of a store, in key order.
fn pairs(kv: &KvStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    kv.scan_prefix(b"")
}

/// `KvStore::recover` over the live store's WAL bytes.
fn recovered(sl: &StreamLake) -> Vec<(Vec<u8>, Vec<u8>)> {
    let wal = sl.plog().kv().with_read(|kv| kv.wal_bytes().to_vec());
    pairs(&KvStore::recover(wal).unwrap())
}

#[test]
fn every_service_shares_the_plog_index() {
    let sl = StreamLake::new(StreamLakeConfig::small());
    let open = mixed_schedule(&sl);
    // (i) One store, not copies: a key put through the PLog's handle is
    // read back through the MVCC store's and the dispatcher's.
    sl.plog()
        .kv()
        .put(b"topic/probe".to_vec(), b"one home".to_vec());
    assert_eq!(
        sl.mvcc().kv().get(b"topic/probe"),
        Some(b"one home".to_vec())
    );
    assert_eq!(
        sl.stream().dispatcher().metadata().get(b"topic/probe"),
        Some(b"one home".to_vec())
    );
    sl.plog().kv().delete(b"topic/probe".to_vec());
    assert_eq!(sl.mvcc().kv().get(b"topic/probe"), None);

    // (ii) Every key belongs to exactly one owner, and every owner is here.
    let live = sl.plog().kv().with_read(pairs);
    for (key, _) in &live {
        let owners = PREFIXES
            .iter()
            .filter(|p| key.starts_with(p.as_bytes()))
            .count();
        assert_eq!(
            owners,
            1,
            "key {:?} has {owners} owners",
            String::from_utf8_lossy(key)
        );
    }
    for prefix in PREFIXES {
        assert!(
            live.iter().any(|(k, _)| k.starts_with(prefix.as_bytes())),
            "no {prefix} key after a schedule that writes them"
        );
    }

    // (iv) The PLog's record count is its own prefix, not the whole store.
    assert_eq!(sl.plog().record_count(), sl.plog().addresses().len());
    assert!(sl.plog().kv().len() > sl.plog().record_count());
    drop(open);
}

#[test]
fn one_wal_recovers_everything_before_and_after_compaction() {
    let sl = StreamLake::new(StreamLakeConfig::small());
    let _open = mixed_schedule(&sl);
    // (iii) The one WAL holds every service's state …
    let frames = sl.plog().kv().wal_frames();
    assert!(
        frames >= kvstore::chore::DEFAULT_FRAME_TRIGGER,
        "{frames} frames"
    );
    assert_eq!(recovered(&sl), sl.plog().kv().with_read(pairs));
    // … and the registered chore compacts all of it: it ticks last among
    // the chores due at 30 s, so nothing writes after it.
    sl.run_maintenance_until(secs(30));
    let status = sl.chore_status();
    let chore = status
        .iter()
        .find(|s| s.name == "kv-wal-compaction")
        .unwrap();
    assert!(chore.work_done > 0, "{chore:?}");
    assert_eq!(sl.plog().kv().wal_frames(), 1);
    assert_eq!(recovered(&sl), sl.plog().kv().with_read(pairs));
}
