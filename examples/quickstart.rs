//! Quickstart: bring up a StreamLake deployment, stream some messages,
//! land rows in a lakehouse table, and read both back.
//!
//! Run with `cargo run --example quickstart`.

use common::ctx::IoCtx;
use format::{DataType, Field, Schema, Value};
use lake::ScanOptions;
use streamlake::{StreamLake, StreamLakeConfig};

fn main() {
    // A laptop-scale deployment: SSD + HDD pools, erasure-coded PLogs,
    // three stream workers — all simulated, all deterministic.
    let sl = StreamLake::new(StreamLakeConfig::small());

    // --- message streaming (the Fig 7 API shape) -----------------------
    sl.stream()
        .create_topic("topic_streamlake_test", stream::TopicConfig::with_partitions(3))
        .expect("create topic");

    let mut producer = sl.producer();
    producer.set_batch_size(1);
    producer
        .send("topic_streamlake_test", "greeting", "Hello world", &IoCtx::new(0))
        .expect("send");

    let mut consumer = sl.consumer("quickstart-group");
    consumer.subscribe("topic_streamlake_test").expect("subscribe");
    for record in consumer.poll(10, &IoCtx::new(0)).expect("poll") {
        println!(
            "consumed from partition {} offset {}: {}",
            record.partition_idx,
            record.offset,
            String::from_utf8_lossy(&record.record.value)
        );
    }

    // --- lakehouse tables ----------------------------------------------
    let schema = Schema::new(vec![
        Field::new("name", DataType::Utf8),
        Field::new("visits", DataType::Int64),
    ])
    .expect("schema");
    sl.tables()
        .create_table("greetings", schema, None, 1000, &IoCtx::new(0))
        .expect("create table");
    sl.tables()
        .insert(
            "greetings",
            &[
                vec![Value::from("hello"), Value::Int(1)],
                vec![Value::from("world"), Value::Int(2)],
            ],
            &IoCtx::new(0),
        )
        .expect("insert");

    let result = sl
        .tables()
        .select("greetings", &ScanOptions::default(), &IoCtx::new(0))
        .expect("select");
    for row in &result.rows {
        println!("table row: {} -> {}", row[0], row[1]);
    }

    println!(
        "physical bytes stored (with redundancy): {}",
        common::size::human_bytes(sl.physical_bytes())
    );
}
