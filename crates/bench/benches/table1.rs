//! Criterion wrapper for Table 1: wall-clock cost of the full pipeline on
//! each stack at a reduced workload size.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn bench_pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_pipeline");
    group.sample_size(10);
    group.bench_function("streamlake_4k_packets", |b| {
        b.iter_batched(
            || {
                let mut gen = workloads::packets::PacketGen::new(1, bench::table1::T0, 1000);
                gen.batch(4_000)
            },
            |packets| {
                let url = packets[0].url.clone();
                let pipeline = streamlake::StreamLakePipeline::new(streamlake::StreamLake::new(
                    streamlake::StreamLakeConfig::evaluation(),
                ));
                let ctx = common::ctx::IoCtx::new(0);
                pipeline
                    .run(&packets, &url, bench::table1::T0, bench::table1::T0 + 86_400, &ctx)
                    .unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("hdfs_kafka_4k_packets", |b| {
        b.iter_batched(
            || {
                let mut gen = workloads::packets::PacketGen::new(1, bench::table1::T0, 1000);
                gen.batch(4_000)
            },
            |packets| {
                use common::size::MIB;
                let url = packets[0].url.clone();
                let clock = common::SimClock::new();
                let hdfs_pool = std::sync::Arc::new(simdisk::StoragePool::new(
                    "hdfs",
                    simdisk::MediaKind::SasHdd,
                    6,
                    4096 * MIB,
                    clock.clone(),
                ));
                let kafka_pool = std::sync::Arc::new(simdisk::StoragePool::new(
                    "kafka",
                    simdisk::MediaKind::NvmeSsd,
                    6,
                    4096 * MIB,
                    clock,
                ));
                let pipeline = baselines::BaselinePipeline::new(
                    baselines::MiniHdfs::new(hdfs_pool, 16 * MIB, 3),
                    baselines::MiniKafka::new(kafka_pool, 3, 4 * MIB),
                );
                pipeline
                    .run(&packets, &url, bench::table1::T0, bench::table1::T0 + 86_400, 0)
                    .unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_pipelines);
criterion_main!(benches);
