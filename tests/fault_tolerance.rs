//! Failure injection across the stack: device loss under replication and
//! erasure coding, scrub re-placement, and WAL-backed metadata recovery.

use common::ctx::IoCtx;
use common::size::MIB;
use common::SimClock;
use ec::Redundancy;
use kvstore::KvStore;
use plog::{PlogAddress, PlogConfig, PlogStore};
use simdisk::{MediaKind, StoragePool};
use std::sync::Arc;
use streamlake::{StreamLake, StreamLakeConfig};
use workloads::packets::PacketGen;

fn plog_on(devices: usize, redundancy: Redundancy) -> (Arc<StoragePool>, PlogStore) {
    let pool = Arc::new(StoragePool::new(
        "pool",
        MediaKind::NvmeSsd,
        devices,
        512 * MIB,
        SimClock::new(),
    ));
    let plog = PlogStore::new(
        pool.clone(),
        PlogConfig { shard_count: 16, redundancy, shard_capacity: 256 * MIB },
    )
    .unwrap();
    (pool, plog)
}

/// Key-routed append at virtual time zero.
fn put(plog: &PlogStore, key: &[u8], record: &[u8]) -> PlogAddress {
    plog.append_to_shard_at(plog.shard_of(key), record, &IoCtx::new(0)).unwrap().0
}

fn get(plog: &PlogStore, addr: &PlogAddress) -> common::Result<common::Bytes> {
    plog.read_at(addr, &IoCtx::new(0)).map(|(data, _)| data)
}

#[test]
fn erasure_coded_data_survives_m_failures_and_heal_restores_margin() {
    let (pool, plog) = plog_on(8, Redundancy::ErasureCode { k: 4, m: 2 });
    let payload = vec![0xABu8; 100_000];
    let addr = put(&plog, b"important", &payload);

    // lose exactly m devices
    pool.device(0).fail();
    pool.device(1).fail();
    assert_eq!(get(&plog, &addr).unwrap(), payload);

    // re-place onto the surviving devices, then heal and fail two OTHERS
    let health = plog.verify_and_heal(&addr, &IoCtx::new(0)).unwrap();
    assert!(health.reencoded, "missing shards must force a re-place: {health:?}");
    pool.device(0).heal();
    pool.device(1).heal();
    pool.device(2).fail();
    pool.device(3).fail();
    assert_eq!(
        get(&plog, &addr).unwrap(),
        payload,
        "post-heal data must tolerate fresh failures"
    );
}

#[test]
fn replication_loses_data_only_when_all_copies_fail() {
    let (pool, plog) = plog_on(3, Redundancy::Replicate { copies: 3 });
    let addr = put(&plog, b"k", b"three copies");
    pool.device(0).fail();
    pool.device(1).fail();
    assert_eq!(get(&plog, &addr).unwrap(), b"three copies");
    pool.device(2).fail();
    assert!(get(&plog, &addr).is_err());
}

#[test]
fn lakehouse_reads_survive_device_failure_under_ec() {
    let sl = StreamLake::new(StreamLakeConfig::evaluation()); // EC 10+2
    sl.tables()
        .create_table("t", PacketGen::schema(), None, 10_000, &IoCtx::new(0))
        .unwrap();
    let mut gen = PacketGen::new(21, 0, 500);
    let rows: Vec<_> = gen.batch(300).iter().map(|p| p.to_row()).collect();
    sl.tables().insert("t", &rows, &IoCtx::new(0)).unwrap();

    sl.ssd_pool().device(0).fail();
    sl.ssd_pool().device(5).fail();
    let r = sl
        .tables()
        .select("t", &lake::ScanOptions::default(), &IoCtx::new(0))
        .unwrap();
    assert_eq!(r.rows.len(), 300, "reads must reconstruct through EC");
}

#[test]
fn kv_store_recovers_committed_state_from_wal_bytes() {
    // the catalog/dispatcher metadata path: crash after arbitrary writes
    let mut kv = KvStore::new();
    for i in 0..500u32 {
        kv.put(format!("key-{i:04}").into_bytes(), i.to_le_bytes().to_vec());
        if i % 3 == 0 {
            kv.delete(format!("key-{:04}", i / 2).into_bytes());
        }
    }
    // full recovery equals live state
    let recovered = KvStore::recover(kv.wal_bytes().to_vec()).unwrap();
    assert_eq!(recovered.len(), kv.len());
    for (k, v) in kv.scan_prefix(b"key-") {
        assert_eq!(recovered.get(&k), Some(&v));
    }
    // torn-tail recovery yields a clean prefix, never a panic or corruption
    let bytes = kv.wal_bytes();
    for cut in (0..bytes.len()).step_by(97) {
        let r = KvStore::recover(bytes[..cut].to_vec()).unwrap();
        assert!(r.len() <= kv.len());
    }
}

#[test]
fn stream_consumption_survives_failures_within_tolerance() {
    let sl = StreamLake::new(StreamLakeConfig::small()); // 2-way replication
    sl.stream()
        .create_topic("t", stream::TopicConfig::with_partitions(2))
        .unwrap();
    let mut p = sl.producer();
    for i in 0..100 {
        p.send("t", format!("k{i}"), format!("v{i}"), &IoCtx::new(0)).unwrap();
    }
    p.flush(&IoCtx::new(0)).unwrap();
    sl.ssd_pool().device(0).fail();
    let mut c = sl.consumer("g");
    c.subscribe("t").unwrap();
    let got = c.poll(1000, &IoCtx::new(0)).unwrap();
    assert_eq!(got.len(), 100, "one failure is within the replication margin");
}
