//! Operational services end-to-end: retention (snapshot expiry), remote
//! replication / disaster recovery and access control.

use common::ctx::IoCtx;
use common::clock::secs;
use common::size::MIB;
use common::SimClock;
use ec::Redundancy;
use lake::{MetadataMode, ScanOptions};
use plog::{PlogConfig, PlogStore, RemoteReplicator};
use simdisk::{MediaKind, StoragePool};
use std::sync::Arc;
use streamlake::{AccessController, Permission, StreamLake, StreamLakeConfig};
use workloads::packets::PacketGen;

#[test]
fn retention_policy_bounds_history_but_keeps_current_data() {
    let sl = StreamLake::new(StreamLakeConfig::small());
    sl.tables()
        .create_table("t", PacketGen::schema(), None, 100_000, &IoCtx::new(0))
        .unwrap();
    let mut gen = PacketGen::new(1, 0, 500);
    let mut stamps = Vec::new();
    let mut t = 0u64;
    for _ in 0..6 {
        let rows: Vec<_> = gen.batch(30).iter().map(|p| p.to_row()).collect();
        let info = sl.tables().insert("t", &rows, &IoCtx::new(t)).unwrap();
        let (snap, _) = sl
            .tables()
            .meta()
            .get_snapshot("t", info.snapshot_id, MetadataMode::Accelerated, &IoCtx::new(0))
            .unwrap();
        stamps.push(snap.timestamp);
        t = snap.timestamp + secs(1);
    }
    // compact first (through the maintenance runtime) so old versions hold
    // exclusive files, then expire
    let events = sl.run_maintenance_until(t.max(secs(30)));
    assert!(
        events.iter().any(|e| e.chore == "compaction"),
        "the compaction chore must have come due"
    );
    let before = sl.physical_bytes();
    let report = sl.tables().expire_snapshots("t", t, &IoCtx::new(t + secs(1))).unwrap();
    assert!(report.snapshots_expired >= 5);
    assert!(report.files_deleted >= 1);
    assert!(sl.physical_bytes() < before, "expiry must reclaim physical space");
    // all current rows intact
    let rows = sl
        .tables()
        .select("t", &ScanOptions::default(), &IoCtx::new(t + secs(2)))
        .unwrap()
        .rows;
    assert_eq!(rows.len(), 180);
    // pre-retention time travel rejected
    assert!(sl
        .tables()
        .select(
            "t",
            &ScanOptions { as_of: Some(stamps[0]), ..Default::default() },
            &IoCtx::new(t + secs(2)),
        )
        .is_err());
}

#[test]
fn remote_replication_recovers_from_total_site_loss() {
    let make_site = |name: &str| {
        let pool = Arc::new(StoragePool::new(
            name,
            MediaKind::NvmeSsd,
            4,
            256 * MIB,
            SimClock::new(),
        ));
        Arc::new(
            PlogStore::new(
                pool,
                PlogConfig {
                    shard_count: 8,
                    redundancy: Redundancy::Replicate { copies: 2 },
                    shard_capacity: 64 * MIB,
                },
            )
            .unwrap(),
        )
    };
    let primary = make_site("primary-dc");
    let remote = make_site("backup-dc");
    // a day's worth of appended records
    let mut addrs = Vec::new();
    for i in 0..50 {
        let shard = primary.shard_of(format!("rec-{i}").as_bytes());
        let (addr, _) = primary
            .append_to_shard_at(shard, format!("payload-{i}").into_bytes(), &IoCtx::new(0))
            .unwrap();
        addrs.push(addr);
    }
    let replicator = RemoteReplicator::new(primary.clone(), remote);
    let report = replicator.run(&IoCtx::new(0)).unwrap();
    assert_eq!(report.records_copied, 50);

    // the whole primary site fails
    for d in 0..4 {
        primary.pool_for_tests().device(d).fail();
    }
    for (i, addr) in addrs.iter().enumerate() {
        let (data, _) = replicator.recover(addr, &IoCtx::new(report.finished_at)).unwrap();
        assert_eq!(data, format!("payload-{i}").into_bytes());
    }
}

#[test]
fn access_layer_gates_pipeline_operations() {
    let ac = AccessController::new();
    let etl = ac.register("etl-service", "etl-token");
    let analyst = ac.register("analyst", "analyst-token");
    ac.grant(&etl, "topic/", Permission::Write);
    ac.grant(&etl, "table/", Permission::Admin);
    ac.grant(&analyst, "table/tb_dpi_log_hours", Permission::Read);

    // the ETL service may produce and manage tables
    assert!(ac.check("etl-token", "topic/dpi", Permission::Write).is_ok());
    assert!(ac.check("etl-token", "table/tb_dpi_log_hours", Permission::Write).is_ok());
    // the analyst may only read its table
    assert!(ac.check("analyst-token", "table/tb_dpi_log_hours", Permission::Read).is_ok());
    assert!(ac.check("analyst-token", "table/tb_dpi_log_hours", Permission::Write).is_err());
    assert!(ac.check("analyst-token", "topic/dpi", Permission::Read).is_err());
    // unauthenticated requests never pass
    assert!(ac.check("stolen-token", "table/tb_dpi_log_hours", Permission::Read).is_err());
}
