//! Criterion wrapper for Fig 15: metadata acceleration vs the file-based
//! catalog path.

use criterion::{criterion_group, criterion_main, Criterion};
use lake::{MetadataMode, ScanOptions};

fn bench_metadata(c: &mut Criterion) {
    let testbed = bench::fig15::build_testbed(48, 5);
    let predicate = format::Expr::all(vec![
        format::Predicate::cmp("start_time", format::CmpOp::Ge, bench::fig15::T0),
        format::Predicate::cmp("start_time", format::CmpOp::Lt, bench::fig15::T0 + 3600),
    ]);
    let mut group = c.benchmark_group("fig15_metadata");
    for (name, mode) in [
        ("accelerated", MetadataMode::Accelerated),
        ("file_based", MetadataMode::FileBased),
    ] {
        group.bench_function(format!("hour_query_{name}_48_partitions"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let opts = ScanOptions { predicate: predicate.clone(), mode, ..Default::default() };
                testbed
                    .sl
                    .tables()
                    .select("dpi_hours", &opts, &common::ctx::IoCtx::new(i * common::clock::secs(100)))
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_metadata);
criterion_main!(benches);
