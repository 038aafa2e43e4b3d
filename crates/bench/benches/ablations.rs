//! Ablations over the design choices DESIGN.md calls out: EC width,
//! metadata flush threshold, transport, and the cardinality estimator
//! behind the QD-tree.

use criterion::{criterion_group, criterion_main, Criterion};
use ec::{Redundancy, Stripe};
use lakebrain::cardinality::{CardinalityEstimator, ExactEstimator, SamplingEstimator};
use lakebrain::qdtree::{QdTree, QdTreeConfig};
use lakebrain::spn::Spn;
use workloads::queries::QueryGen;
use workloads::tpch::LineitemGen;

fn bench_ec_widths(c: &mut Criterion) {
    let data = vec![0x3Cu8; 512 * 1024];
    let mut group = c.benchmark_group("ablation_ec_width");
    for (k, m) in [(4usize, 2usize), (10, 2), (22, 2), (10, 4)] {
        group.bench_function(format!("encode_k{k}_m{m}"), |b| {
            b.iter(|| Stripe::encode(&data, Redundancy::ErasureCode { k, m }).unwrap())
        });
    }
    group.finish();
}

fn bench_meta_flush_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_meta_flush");
    group.sample_size(10);
    for threshold in [4u64, 64, 1024] {
        group.bench_function(format!("insert_100_commits_threshold_{threshold}"), |b| {
            b.iter(|| {
                let clock = common::SimClock::new();
                let pool = std::sync::Arc::new(simdisk::StoragePool::new(
                    "p",
                    simdisk::MediaKind::NvmeSsd,
                    4,
                    512 * 1024 * 1024,
                    clock,
                ));
                let plog = std::sync::Arc::new(
                    plog::PlogStore::new(
                        pool,
                        plog::PlogConfig {
                            shard_count: 16,
                            redundancy: Redundancy::Replicate { copies: 2 },
                            shard_capacity: 256 * 1024 * 1024,
                        },
                    )
                    .unwrap(),
                );
                let store = lake::TableStore::new(plog, threshold);
                let ctx = common::ctx::IoCtx::new(0);
                store
                    .create_table("t", workloads::packets::PacketGen::schema(), None, 10_000, &ctx)
                    .unwrap();
                let mut gen = workloads::packets::PacketGen::new(1, 0, 1000);
                for _ in 0..100 {
                    let rows: Vec<_> = gen.batch(5).iter().map(|p| p.to_row()).collect();
                    store.insert("t", &rows, &ctx).unwrap();
                }
                store
            })
        });
    }
    group.finish();
}

fn bench_estimators(c: &mut Criterion) {
    let schema = LineitemGen::schema();
    let mut gen = LineitemGen::new(1);
    let rows = gen.generate_rows(6_000);
    let mut qg = QueryGen::new(2, schema.clone(), &rows);
    let workload = qg.workload(20, 2);
    let spn = Spn::learn(schema.clone(), &rows);
    let sampler = SamplingEstimator::new(schema.clone(), &rows, 33);

    let mut group = c.benchmark_group("ablation_estimators");
    group.sample_size(10);
    group.bench_function("qdtree_build_exact", |b| {
        b.iter(|| {
            let exact = ExactEstimator::new(&schema, &rows);
            QdTree::build(schema.clone(), &workload, &exact, QdTreeConfig::default())
        })
    });
    group.bench_function("qdtree_build_sampling", |b| {
        b.iter(|| QdTree::build(schema.clone(), &workload, &sampler, QdTreeConfig::default()))
    });
    group.bench_function("qdtree_build_spn", |b| {
        b.iter(|| QdTree::build(schema.clone(), &workload, &spn, QdTreeConfig::default()))
    });
    group.bench_function("estimate_only_spn", |b| {
        b.iter(|| workload.iter().map(|q| spn.estimate_rows(q)).sum::<f64>())
    });
    group.finish();
}

fn bench_transports(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_transport");
    group.sample_size(10);
    for (name, transport) in [
        ("rdma", simdisk::Transport::Rdma),
        ("tcp", simdisk::Transport::Tcp),
    ] {
        group.bench_function(format!("produce_2k_msgs_{name}"), |b| {
            b.iter(|| {
                let mut cfg = streamlake::StreamLakeConfig::small();
                cfg.transport = transport;
                let sl = streamlake::StreamLake::new(cfg);
                sl.stream()
                    .create_topic("t", stream::TopicConfig::with_partitions(4))
                    .unwrap();
                let mut p = sl.producer();
                let mut last = 0u64;
                for i in 0..2_000u64 {
                    let ctx = common::ctx::IoCtx::new(i * 1_000);
                    if let Some(ack) = p.send("t", format!("k{i}"), vec![0u8; 512], &ctx).unwrap() {
                        last = last.max(ack.ack_time);
                    }
                }
                last
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ec_widths,
    bench_meta_flush_threshold,
    bench_estimators,
    bench_transports
);
criterion_main!(benches);
