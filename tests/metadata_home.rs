//! The one-metadata-home contract: every metadata key of a deployment lives
//! in the primary PLog's KV index, under the prefix of the family that
//! owns it (`kvstore::keys`, DESIGN.md "One metadata home"), and one WAL
//! recovers all of it.

use common::clock::{millis, secs};
use common::ctx::IoCtx;
use common::json::Json;
use common::Error;
use format::{DataType, Field, Row, Schema, Value};
use kvstore::{keys, KvStore};
use streamlake::{StreamLake, StreamLakeConfig, Transaction};

fn rows(round: u64) -> Vec<Row> {
    (0..4)
        .map(|i| vec![Value::from(format!("r{round}")), Value::Int(i)])
        .collect()
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Utf8),
        Field::new("n", DataType::Int64),
    ])
    .unwrap()
}

/// A mixed schedule touching every owner: topics, produce, a consumer
/// group commit, table inserts, stream+table transactions, a metadata
/// flush. Returns a transaction left staged, so intents and a record are
/// in the store while it is inspected.
fn mixed_schedule(sl: &StreamLake) -> Transaction<'_> {
    sl.stream()
        .create_topic("events", stream::TopicConfig::with_partitions(2))
        .unwrap();
    sl.tables()
        .create_table("facts", schema(), None, 1000, &IoCtx::new(0))
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
    let probe = keys::topic_config("probe");
    let probe = probe.as_bytes();
    sl.plog().kv().put(probe, b"one home".to_vec());
    assert_eq!(sl.mvcc().kv().get(probe), Some(b"one home".to_vec()));
    assert_eq!(
        sl.stream().dispatcher().metadata().get(probe),
        Some(b"one home".to_vec())
    );
    sl.plog().kv().delete(probe);
    assert_eq!(sl.mvcc().kv().get(probe), None);

    // (ii) Every key belongs to exactly one family, and every family is
    // here, the MVCC user families among the versions and intents.
    let live = sl.plog().kv().with_read(pairs);
    for (key, _) in &live {
        let owners = keys::STORE_FAMILIES
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
    for prefix in keys::STORE_FAMILIES {
        assert!(
            live.iter().any(|(k, _)| k.starts_with(prefix.as_bytes())),
            "no {prefix} key after a schedule that writes them"
        );
    }
    for family in keys::MVCC_FAMILIES {
        let user = |k: &[u8]| {
            [keys::MVCC_VERSION, keys::MVCC_INTENT].iter().any(|p| {
                k.strip_prefix(p.as_bytes()).is_some_and(|u| u.starts_with(family.as_bytes()))
            })
        };
        assert!(
            live.iter().any(|(k, _)| user(k)),
            "no {family} user key after a schedule that writes them"
        );
    }

    // The write-only `worker/` and `cg/` families are gone, and no value
    // is JSON.
    for (key, value) in &live {
        assert!(!key.starts_with(b"worker/") && !key.starts_with(b"cg/"), "{key:?}");
        let json = std::str::from_utf8(value).ok().and_then(|t| Json::parse(t).ok());
        assert!(
            !matches!(json, Some(Json::Object(_))),
            "{} holds JSON",
            String::from_utf8_lossy(key)
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

/// A topic, group or table name is one segment of its keys. Were `/`
/// allowed, group `a` on topic `b/c` and group `a/b` on topic `c` would
/// share the offset key `group/a/b/c/0`, and the second group would resume
/// at the first one's offset. Such names are refused where they enter.
#[test]
fn two_names_never_share_a_key() {
    let sl = StreamLake::new(StreamLakeConfig::small());
    let ctx = IoCtx::new(0);
    let one = || stream::TopicConfig::with_partitions(1);
    let mut producer = sl.producer();
    producer.set_batch_size(1);
    sl.stream().create_topic("c", one()).unwrap();
    for i in 0..3 {
        producer.send("c", format!("k{i}"), "v", &ctx).unwrap();
    }
    if sl.stream().create_topic("b/c", one()).is_ok() {
        for i in 0..10 {
            producer.send("b/c", format!("k{i}"), "v", &ctx).unwrap();
        }
        let mut a = sl.consumer("a");
        a.subscribe("b/c").unwrap();
        assert_eq!(a.poll(100, &ctx).unwrap().len(), 10);
        a.commit().unwrap();
    }
    let mut ab = sl.consumer("a/b");
    if ab.subscribe("c").is_ok() {
        let got = ab.poll(100, &ctx).unwrap().len();
        assert_eq!(got, 3, "group a/b got {got} of 3: it shares group a's offset key");
    }
    for bad in ["b/c", "a/b", "", "x/"] {
        let refused = |r: common::Result<()>| matches!(r, Err(Error::InvalidArgument(_)));
        assert!(refused(sl.stream().create_topic(bad, one()).map(drop)), "topic {bad:?}");
        assert!(refused(sl.consumer(bad).subscribe("c")), "group {bad:?}");
        let table = sl.tables().create_table(bad, schema(), None, 1000, &ctx);
        assert!(refused(table.map(drop)), "table {bad:?}");
    }
}
