//! Stream ⇄ table conversion (§V-B): produce log messages, convert them to
//! a lakehouse table with one background task, query with pushdown, time
//! travel to an earlier snapshot, and play rows back into a stream.
//!
//! Run with `cargo run --example stream_to_table`.

use common::ctx::IoCtx;
use format::{CmpOp, Expr, Predicate, Value};
use lake::conversion::{table_to_stream, ConversionTask};
use lake::ScanOptions;
use stream::config::ConvertToTable;
use stream::object::ReadCtrl;
use stream::record::Record;
use streamlake::{Query, QueryEngine, StreamLake, StreamLakeConfig};
use workloads::packets::{Packet, PacketGen};

const T0: i64 = 1_656_806_400;

fn main() {
    let sl = StreamLake::new(StreamLakeConfig::small());

    // Topic with the Fig 8 conversion configuration (scaled down).
    let mut cfg = stream::TopicConfig::with_partitions(2);
    cfg.convert_2_table = ConvertToTable {
        table_schema: vec!["url:utf8".into(), "start_time:int64".into()],
        table_path: "/tables/tb_dpi_log_hours".into(),
        split_offset: 500,
        split_time: 36_000,
        delete_msg: false,
        enabled: true,
    };
    sl.stream().create_topic("dpi", cfg.clone()).expect("topic");
    sl.tables()
        .create_table(
            "tb_dpi_log_hours",
            PacketGen::schema(),
            Some(lake::catalog::PartitionSpec::hourly("start_time")),
            10_000,
            &IoCtx::new(0),
        )
        .expect("table");

    // Produce 1200 packets.
    let mut gen = PacketGen::new(7, T0, 500);
    let packets = gen.batch(1200);
    let mut producer = sl.producer();
    for p in &packets {
        producer.send("dpi", p.key(), p.to_wire(), &IoCtx::new(0)).expect("send");
    }
    producer.flush(&IoCtx::new(0)).expect("flush");

    // Run the conversion task over every stream of the topic.
    let mut converted = 0;
    for route in sl.stream().dispatcher().topic_partitions("dpi").expect("routes") {
        let object = sl.stream().dispatcher().object_of(&route).expect("object");
        let mut task = ConversionTask::new(
            object,
            "tb_dpi_log_hours",
            cfg.convert_2_table.clone(),
            Box::new(|r: &Record| Ok(Packet::from_wire(&r.value)?.to_row())),
        );
        if let Some(report) = task.run(sl.tables(), &IoCtx::new(0), true).expect("convert") {
            converted += report.records_converted;
        }
    }
    println!("converted {converted} stream records into table rows");

    // The DAU query of Fig 13, pushed down to storage.
    let q = Query::dau("tb_dpi_log_hours", &packets[0].url, T0, T0 + 86_400);
    let out = QueryEngine::new()
        .execute(sl.tables(), &q, &IoCtx::new(0))
        .expect("query");
    println!("DAU for {}:", packets[0].url);
    for (province, count) in &out.groups {
        println!("  {province:<12} {count}");
    }
    println!(
        "scan: {} files read, {} skipped by statistics",
        out.scan.files_scanned, out.scan.files_skipped
    );

    // Time travel: the table as of "before any data" does not exist, but
    // after the first commit every snapshot stays addressable.
    let snap = sl.tables().current_snapshot("tb_dpi_log_hours").expect("snapshot");
    println!("current snapshot id: {snap}");

    // Reverse conversion: play beijing's rows back into a fresh stream.
    let playback = sl
        .stream()
        .objects()
        .create(stream::object::CreateOptions::default())
        .expect("playback object");
    let n = table_to_stream(
        sl.tables(),
        "tb_dpi_log_hours",
        &ScanOptions::filtered(Expr::Pred(Predicate::cmp(
            "province",
            CmpOp::Eq,
            "beijing",
        ))),
        &playback,
        &|row: &Vec<Value>| {
            Record::new(
                row[0].as_str().unwrap().as_bytes().to_vec(),
                format!("{}|{}", row[0], row[1]).into_bytes(),
                row[1].as_int().unwrap(),
            )
        },
        &IoCtx::new(0),
    )
    .expect("playback");
    let (replayed, _) = playback
        .read_at(0, ReadCtrl::default(), &IoCtx::new(0))
        .expect("read playback");
    println!("played {n} beijing rows back as a stream ({} readable)", replayed.len());
    assert_eq!(n as usize, replayed.len());
}
