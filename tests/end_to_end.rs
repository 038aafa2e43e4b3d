//! Cross-crate integration: the full stream → convert → mutate → query →
//! time-travel life cycle on one deployment.

use common::ctx::IoCtx;
use format::{CmpOp, Expr, Predicate, Value};
use lake::catalog::PartitionSpec;
use lake::conversion::ConversionTask;
use lake::{MetadataMode, ScanOptions};
use stream::config::ConvertToTable;
use stream::record::Record;
use streamlake::{Query, QueryEngine, StreamLake, StreamLakeConfig};
use workloads::packets::{Packet, PacketGen};

const T0: i64 = 1_656_806_400;

fn convert_all(sl: &StreamLake, topic: &str, table: &str, now: u64) -> u64 {
    let cfg = ConvertToTable { split_offset: 1, enabled: true, ..Default::default() };
    let mut converted = 0;
    for route in sl.stream().dispatcher().topic_partitions(topic).unwrap() {
        let object = sl.stream().dispatcher().object_of(&route).unwrap();
        let mut task = ConversionTask::new(
            object,
            table,
            cfg.clone(),
            Box::new(|r: &Record| Ok(Packet::from_wire(&r.value)?.to_row())),
        );
        if let Some(report) = task.run(sl.tables(), &IoCtx::new(now), true).unwrap() {
            converted += report.records_converted;
        }
    }
    converted
}

#[test]
fn stream_to_table_to_query_lifecycle() {
    let sl = StreamLake::new(StreamLakeConfig::small());
    sl.stream()
        .create_topic("dpi", stream::TopicConfig::with_partitions(3))
        .unwrap();
    sl.tables()
        .create_table(
            "dpi",
            PacketGen::schema(),
            Some(PartitionSpec::hourly("start_time")),
            10_000,
            &IoCtx::new(0),
        )
        .unwrap();

    // produce
    let mut gen = PacketGen::new(3, T0, 500);
    let packets = gen.batch(900);
    let mut producer = sl.producer();
    for p in &packets {
        producer.send("dpi", p.key(), p.to_wire(), &IoCtx::new(0)).unwrap();
    }
    producer.flush(&IoCtx::new(0)).unwrap();

    // convert: every produced record becomes exactly one row
    let converted = convert_all(&sl, "dpi", "dpi", 0);
    assert_eq!(converted, 900);

    // query with pushdown answers the same as scanning the packets
    let url = &packets[0].url;
    let q = Query::dau("dpi", url, T0, T0 + 86_400);
    let out = QueryEngine::new().execute(sl.tables(), &q, &IoCtx::new(0)).unwrap();
    let mut truth = std::collections::BTreeMap::new();
    for p in &packets {
        if &p.url == url {
            *truth.entry(p.province.clone()).or_insert(0.0) += 1.0;
        }
    }
    assert_eq!(out.groups, truth);

    // mutate: delete one province, then time travel back across the delete
    let before_delete = sl
        .tables()
        .catalog()
        .get("dpi")
        .unwrap()
        .current_snapshot;
    let (snap, _) = sl
        .tables()
        .meta()
        .get_snapshot("dpi", before_delete, MetadataMode::Accelerated, &IoCtx::new(0))
        .unwrap();
    let pred = Expr::Pred(Predicate::cmp("province", CmpOp::Eq, "beijing"));
    sl.tables().delete("dpi", &pred, &IoCtx::new(snap.timestamp + 1000)).unwrap();

    let now_rows = sl
        .tables()
        .select("dpi", &ScanOptions::default(), &IoCtx::new(snap.timestamp + 10_000))
        .unwrap()
        .rows;
    assert!(now_rows
        .iter()
        .all(|r| r[2] != Value::from("beijing")));

    let historical = sl
        .tables()
        .select(
            "dpi",
            &ScanOptions { as_of: Some(snap.timestamp), ..Default::default() },
            &IoCtx::new(snap.timestamp + 10_000),
        )
        .unwrap()
        .rows;
    assert_eq!(historical.len(), 900, "time travel must see pre-delete data");
}

#[test]
fn compaction_preserves_query_results_end_to_end() {
    let sl = StreamLake::new(StreamLakeConfig::small());
    sl.tables()
        .create_table("logs", PacketGen::schema(), None, 100_000, &IoCtx::new(0))
        .unwrap();
    // many small inserts → many small files
    let mut gen = PacketGen::new(5, T0, 500);
    let mut all = Vec::new();
    for _ in 0..12 {
        let batch = gen.batch(40);
        let rows: Vec<_> = batch.iter().map(|p| p.to_row()).collect();
        sl.tables().insert("logs", &rows, &IoCtx::new(0)).unwrap();
        all.extend(batch);
    }
    assert_eq!(sl.tables().live_files("logs", &IoCtx::new(0)).unwrap().len(), 12);

    let q = Query {
        table: "logs".into(),
        predicate: Expr::True,
        group_by: Some("province".into()),
        aggregate: streamlake::Aggregate::CountStar,
    };
    let before = QueryEngine::new().execute(sl.tables(), &q, &IoCtx::new(0)).unwrap();

    // compaction runs as a maintenance chore on the runtime, not as an
    // ad-hoc call (the interval trigger first fires at 30 virtual seconds)
    let events = sl.run_maintenance_until(common::clock::secs(30));
    assert!(
        events.iter().any(|e| e.chore == "compaction"
            && matches!(e.outcome, streamlake::TickOutcome::Ticked(r) if r.work_done > 0)),
        "the compaction chore must have merged files"
    );
    assert_eq!(sl.tables().live_files("logs", &IoCtx::new(0)).unwrap().len(), 1);

    let after = QueryEngine::new().execute(sl.tables(), &q, &IoCtx::new(0)).unwrap();
    assert_eq!(before.groups, after.groups);
}

#[test]
fn drop_soft_restore_then_hard_drop() {
    let sl = StreamLake::new(StreamLakeConfig::small());
    sl.tables()
        .create_table("t", PacketGen::schema(), None, 1000, &IoCtx::new(0))
        .unwrap();
    let mut gen = PacketGen::new(9, T0, 500);
    let rows: Vec<_> = gen.batch(50).iter().map(|p| p.to_row()).collect();
    sl.tables().insert("t", &rows, &IoCtx::new(0)).unwrap();
    let used_before = sl.physical_bytes();

    sl.tables().drop_table("t", false, &IoCtx::new(0)).unwrap();
    assert!(sl.tables().select("t", &ScanOptions::default(), &IoCtx::new(0)).is_err());
    assert_eq!(sl.physical_bytes(), used_before, "soft drop keeps data");

    sl.tables().restore_table("t", &IoCtx::new(0)).unwrap();
    assert_eq!(
        sl.tables().select("t", &ScanOptions::default(), &IoCtx::new(0)).unwrap().rows.len(),
        50
    );

    sl.tables().drop_table("t", true, &IoCtx::new(0)).unwrap();
    assert!(
        sl.physical_bytes() < used_before,
        "hard drop must free data-file space"
    );
}

#[test]
fn archive_then_playback_preserves_messages() {
    let sl = StreamLake::new(StreamLakeConfig::small());
    let cfg = stream::TopicConfig {
        archive: stream::config::ArchiveConfig {
            external_archive_url: None,
            archive_size: 0, // archive as soon as anything is persisted
            row_2_col: false,
            enabled: true,
        },
        ..stream::TopicConfig::with_partitions(1)
    };
    sl.stream().create_topic("t", cfg).unwrap();
    let mut gen = PacketGen::new(11, T0, 500);
    let packets = gen.batch(256);
    let mut producer = sl.producer();
    for p in &packets {
        producer.send("t", p.key(), p.to_wire(), &IoCtx::new(0)).unwrap();
    }
    producer.flush(&IoCtx::new(0)).unwrap();

    // archival runs as a maintenance chore on the runtime
    let events = sl.run_maintenance_until(common::clock::secs(10));
    assert!(
        events.iter().any(|e| e.chore == "archive"
            && matches!(e.outcome, streamlake::TickOutcome::Ticked(r) if r.work_done > 0)),
        "the archive chore must have shipped the persisted slices"
    );
    let entries = sl.archive().entries();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].count, 256);
    let route = &sl.stream().dispatcher().topic_partitions("t").unwrap()[0];
    let obj = sl.stream().dispatcher().object_of(route).unwrap();
    assert_eq!(obj.slice_count(), 0, "archived slices truncated from hot tier");
    assert!(sl.hdd_pool().used() > 0, "archive lives in the cold pool");

    let back = sl.archive().read_entry(&entries[0], &IoCtx::new(0)).unwrap();
    assert_eq!(back.len(), 256);
    assert_eq!(back[0].key, packets[0].key());
    assert_eq!(back[255].value, packets[255].to_wire());
}
