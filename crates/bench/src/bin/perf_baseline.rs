//! Wall-clock perf baseline for the code paths `slbench` does not run.
//!
//! Every `slbench` workload (see `BENCHMARK.json`) runs an RS(10,2)
//! deployment with no injected faults, so these five seeded, fixed-size
//! rows are the only wall-clock guard on the paths left over. They are
//! measured in real (host) time — this is the one harness binary that
//! deliberately uses `std::time::Instant` (its two uses waive the R1
//! determinism rule, since this harness measures the real host):
//!
//! * `replicate_append` — 3-way replicated PLog appends
//!   (`append_to_shard_at`, `Bytes` payloads, per-shard CRC32 into the
//!   index entry), MB/s of logical payload;
//! * `verified_read` — replicated `read_at` with every touched shard
//!   checksum-verified against the index CRCs, MB/s;
//! * `degraded_read` — `read_at` on an RS(10,2) store with `m` devices
//!   failed, i.e. every read pays Reed–Solomon reconstruction, MB/s;
//! * `gf256_mul_acc` — the `gf256::mul_acc_slice` fused multiply-add that
//!   dominates RS encode/reconstruct, MB/s over a 1 MiB buffer;
//! * `group_rebalance` — consumer-group churn (joins, cooperative ack
//!   cycles, leaves) over a 64-partition topic, rebalance-journal bytes
//!   per second.
//!
//! Each bench runs [`SAMPLES`] timed passes over a fresh store and reports
//! the best pass (least interference from the host). A bare run records the
//! results in `BENCH_PERF.json` at the workspace root together with
//! per-bench regression `floors` — 80% of the best recorded rate, ratcheting
//! monotonically upward across recordings. `--check` measures the same rows
//! and fails when any sits below its committed floor (or has none); it
//! writes nothing, so the gate leaves the tracked file alone.
//!
//! ```text
//! cargo run --release -p bench --bin perf_baseline            # measure + record
//! cargo run --release -p bench --bin perf_baseline -- --check # measure + compare
//! ```

use common::ctx::IoCtx;
use common::json::Json;
use common::size::MIB;
use common::{Bytes, SimClock};
use ec::Redundancy;
use plog::{PlogAddress, PlogConfig, PlogStore, WorkerPool};
use simdisk::{MediaKind, StoragePool};
use std::collections::BTreeMap;
use std::sync::Arc;
#[expect(clippy::disallowed_types, reason = "R1: this harness measures the real host")]
use std::time::Instant;

/// Payload size per appended record.
const RECORD_BYTES: usize = 256 * 1024;
/// Records appended per pass (48 MiB of logical payload).
const RECORDS: usize = 192;
/// Buffer length for the gf256 kernel bench.
const GF256_BUF: usize = MIB as usize;
/// Kernel invocations per gf256 pass.
const GF256_ITERS: usize = 128;
/// Timed passes per bench; the best is reported.
const SAMPLES: usize = 3;

/// Deterministic payload: a fixed-seed xorshift fill, same bytes every run.
fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

fn store(redundancy: Redundancy, devices: usize) -> PlogStore {
    let pool = Arc::new(StoragePool::new(
        "perf",
        MediaKind::NvmeSsd,
        devices,
        1024 * MIB,
        SimClock::new(),
    ));
    PlogStore::new(
        pool,
        PlogConfig { shard_count: 16, redundancy, shard_capacity: 512 * MIB },
    )
    .expect("valid perf-baseline config")
    // Host-side parallelism only: shard encode/CRC/device work fans across
    // the pool with a deterministic join order, so virtual-time results are
    // identical with or without it.
    .with_workers(Arc::new(WorkerPool::with_default_size(42)))
}

struct BenchResult {
    name: &'static str,
    bytes: u64,
    nanos: u128,
}

impl BenchResult {
    fn mb_per_s(&self) -> f64 {
        if self.nanos == 0 {
            return 0.0;
        }
        (self.bytes as f64 / (1024.0 * 1024.0)) / (self.nanos as f64 / 1e9)
    }

    fn to_json(&self) -> (&'static str, Json) {
        (
            self.name,
            Json::object([
                ("mb_per_s", Json::Num(self.mb_per_s())),
                ("bytes", Json::Num(self.bytes as f64)),
                ("nanos", Json::Num(self.nanos as f64)),
            ]),
        )
    }
}

/// Run `pass` `SAMPLES` times (plus one untimed warm-up) and keep the best.
fn best_of<F: FnMut() -> u64>(name: &'static str, mut pass: F) -> BenchResult {
    pass(); // warm-up: page in tables, allocator, branch predictors
    let mut best_nanos = u128::MAX;
    let mut bytes = 0;
    for _ in 0..SAMPLES {
        #[expect(clippy::disallowed_types, reason = "R1: this harness measures the real host")]
        let start = Instant::now();
        bytes = pass();
        best_nanos = best_nanos.min(start.elapsed().as_nanos());
    }
    BenchResult { name, bytes, nanos: best_nanos }
}

/// Append record `i` the way production does: routed by key, payload
/// handed over as a `Bytes` clone (no per-record copy), under a ctx.
fn append(s: &PlogStore, i: usize, record: &Bytes, ctx: &IoCtx) -> PlogAddress {
    let shard = s.shard_of(&(i as u64).to_be_bytes());
    s.append_to_shard_at(shard, record.clone(), ctx).expect("perf append").0
}

fn bench_replicate_append() -> BenchResult {
    let record = Bytes::from_vec(payload(1, RECORD_BYTES));
    best_of("replicate_append", || {
        let s = store(Redundancy::Replicate { copies: 3 }, 8);
        let ctx = IoCtx::new(0);
        for i in 0..RECORDS {
            append(&s, i, &record, &ctx);
        }
        (RECORDS * RECORD_BYTES) as u64
    })
}

fn bench_degraded_read() -> BenchResult {
    // Build one EC store, fail m devices, then time reconstruction reads.
    let record = Bytes::from_vec(payload(3, RECORD_BYTES));
    let s = store(Redundancy::ErasureCode { k: 10, m: 2 }, 12);
    let ctx = IoCtx::new(0);
    let addrs: Vec<PlogAddress> = (0..RECORDS).map(|i| append(&s, i, &record, &ctx)).collect();
    s.pool_for_tests().device(0).fail();
    s.pool_for_tests().device(1).fail();
    best_of("degraded_read", || {
        let mut total = 0u64;
        for addr in &addrs {
            let (data, _) = s.read_at(addr, &ctx).expect("degraded read within fault tolerance");
            total += data.len() as u64;
        }
        total
    })
}

fn bench_gf256() -> BenchResult {
    let src = payload(4, GF256_BUF);
    let mut dst = payload(5, GF256_BUF);
    best_of("gf256_mul_acc", || {
        for i in 0..GF256_ITERS {
            // cycle the coefficient so no branch predictor learns one table row
            let c = (i as u8) | 2;
            ec::gf256::mul_acc_slice(&mut dst, &src, c);
        }
        (GF256_ITERS * GF256_BUF) as u64
    })
}

fn bench_verified_read() -> BenchResult {
    // Replicated reads where every shard touched is verified against the
    // index CRC32s — the integrity tax on the read path.
    let record = Bytes::from_vec(payload(7, RECORD_BYTES));
    let s = store(Redundancy::Replicate { copies: 3 }, 8);
    let ctx = IoCtx::new(0);
    let addrs: Vec<PlogAddress> = (0..RECORDS).map(|i| append(&s, i, &record, &ctx)).collect();
    best_of("verified_read", || {
        let mut total = 0u64;
        for addr in &addrs {
            let (data, _) = s.read_at(addr, &ctx).expect("verified read");
            total += data.len() as u64;
        }
        total
    })
}

/// Partitions of the rebalance bench topic.
const BENCH_PARTITIONS: u32 = 64;
/// Members churned through the rebalance bench.
const BENCH_MEMBERS: usize = 16;

fn stream_service() -> Arc<stream::StreamService> {
    let clock = SimClock::new();
    let pool = Arc::new(StoragePool::new(
        "perf-stream",
        MediaKind::NvmeSsd,
        8,
        1024 * MIB,
        clock.clone(),
    ));
    let plog = Arc::new(
        PlogStore::new(
            pool,
            PlogConfig {
                shard_count: 64,
                redundancy: Redundancy::Replicate { copies: 2 },
                shard_capacity: 512 * MIB,
            },
        )
        .expect("valid perf-baseline config"),
    );
    stream::StreamService::new(
        plog,
        clock,
        stream::StreamServiceOptions { workers: 4, ..Default::default() },
    )
}

fn bench_group_rebalance() -> BenchResult {
    // Consumer-group coordination throughput: churn BENCH_MEMBERS members
    // through a 64-partition group (join, cooperative ack cycle, leave)
    // and report journal bytes rendered per second — the journal is the
    // deterministic artifact every rebalance produces, so bytes/s tracks
    // coordination cost end to end.
    best_of("group_rebalance", || {
        let svc = stream_service();
        svc.create_topic("t", stream::TopicConfig::with_partitions(BENCH_PARTITIONS))
            .expect("perf topic");
        let groups = svc.groups().clone();
        let topics = vec!["t".to_string()];
        let mut t = 0u64;
        let mut members: Vec<String> = Vec::new();
        for i in 0..BENCH_MEMBERS {
            let m = format!("m{i}");
            t += 1_000_000;
            groups.join("g", &m, &topics, &common::ctx::IoCtx::new(t)).expect("join");
            members.push(m);
            // Cooperative cycle: everyone acks until the group stabilizes.
            while !groups.is_stable("g") {
                t += 1_000_000;
                for m in &members {
                    groups.ack("g", m, &common::ctx::IoCtx::new(t)).expect("ack");
                }
            }
        }
        while members.len() > 1 {
            let m = members.pop().expect("nonempty");
            t += 1_000_000;
            groups.leave("g", &m, &common::ctx::IoCtx::new(t)).expect("leave");
            while !groups.is_stable("g") {
                t += 1_000_000;
                for m in &members {
                    groups.ack("g", m, &common::ctx::IoCtx::new(t)).expect("ack");
                }
            }
        }
        groups.journal_bytes().len() as u64
    })
}

fn output_path() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the trajectory lives at the root.
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or_else(|| std::path::PathBuf::from("."))
        .join("BENCH_PERF.json")
}

/// The rows `--check` requires a committed floor for.
const REQUIRED_BENCHES: [&str; 5] =
    ["replicate_append", "degraded_read", "gf256_mul_acc", "verified_read", "group_rebalance"];

/// Fraction of a measured rate that becomes its recorded floor. A later
/// run whose rate lands below an already-recorded floor (>20% regression
/// against the trajectory) fails `--check`.
const FLOOR_FRACTION: f64 = 0.8;

/// Per-bench regression floors recorded in a trajectory file's text.
fn read_floors(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let json = Json::parse(text).map_err(|e| format!("malformed JSON: {e}"))?;
    let floors = json.get("floors").and_then(|f| f.as_object()).ok_or("missing `floors` object")?;
    Ok(floors.iter().filter_map(|(name, v)| Some((name.clone(), v.as_f64()?))).collect())
}

/// Compare fresh `results` against the floors committed in `text`: every
/// required bench needs a floor, and its measured rate may not sit below it.
fn check_floors(text: &str, results: &[BenchResult]) -> Result<(), String> {
    let floors = read_floors(text)?;
    for name in REQUIRED_BENCHES {
        let floor = floors.get(name).ok_or_else(|| format!("bench `{name}` has no recorded floor"))?;
        let rate = results
            .iter()
            .find(|r| r.name == name)
            .ok_or_else(|| format!("bench `{name}` was not measured"))?
            .mb_per_s();
        if rate < *floor {
            return Err(format!(
                "bench `{name}` regressed: {rate:.2} MB/s is below its recorded floor \
                 {floor:.2} MB/s (>20% under the best recorded trajectory)"
            ));
        }
    }
    Ok(())
}

fn fail(msg: String) -> ! {
    eprintln!("perf_baseline: FAILED — {msg}");
    std::process::exit(1);
}

fn main() {
    let path = output_path();
    let results = [
        bench_replicate_append(),
        bench_degraded_read(),
        bench_gf256(),
        bench_verified_read(),
        bench_group_rebalance(),
    ];
    for r in &results {
        println!("{:<20} {:>10.1} MB/s  ({} bytes in {} ns)", r.name, r.mb_per_s(), r.bytes, r.nanos);
    }
    #[expect(clippy::disallowed_methods, reason = "R3: the floors live in the tracked BENCH_PERF.json")]
    let prior = std::fs::read_to_string(&path);

    if std::env::args().any(|a| a == "--check") {
        let text = prior.unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
        if let Err(e) = check_floors(&text, &results) {
            fail(format!("{}: {e}", path.display()));
        }
        println!("perf_baseline: ok — every bench at or above its floor in {}", path.display());
        return;
    }

    // Floors ratchet: each bench's floor only ever rises, so the trajectory
    // remembers the best recorded run even across slower host days. A
    // missing or unreadable file means no floors yet (first recording).
    let prior_floors = prior.ok().and_then(|t| read_floors(&t).ok()).unwrap_or_default();
    let json = Json::object([
        ("schema", Json::Num(1.0)),
        (
            "workload",
            Json::object([
                ("record_bytes", Json::Num(RECORD_BYTES as f64)),
                ("records", Json::Num(RECORDS as f64)),
                ("gf256_buf_bytes", Json::Num(GF256_BUF as f64)),
                ("gf256_iters", Json::Num(GF256_ITERS as f64)),
                ("samples", Json::Num(SAMPLES as f64)),
            ]),
        ),
        ("benches", Json::Object(results.iter().map(|r| { let (k, v) = r.to_json(); (k.to_string(), v) }).collect())),
        (
            "floors",
            Json::Object(
                results
                    .iter()
                    .map(|r| {
                        let prior = prior_floors.get(r.name).copied().unwrap_or(0.0);
                        (r.name.to_string(), Json::Num(prior.max(FLOOR_FRACTION * r.mb_per_s())))
                    })
                    .collect(),
            ),
        ),
    ]);
    #[expect(clippy::disallowed_methods, reason = "R3: the floors live in the tracked BENCH_PERF.json")]
    if let Err(e) = std::fs::write(&path, json.to_pretty() + "\n") {
        fail(format!("cannot write {}: {e}", path.display()));
    }
    println!("perf_baseline: wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One result per required bench, each at exactly 1.0 MB/s.
    fn one_mb_per_s() -> Vec<BenchResult> {
        REQUIRED_BENCHES
            .iter()
            .map(|&name| BenchResult { name, bytes: MIB, nanos: 1_000_000_000 })
            .collect()
    }

    fn floors_text(floors: &[(&str, f64)]) -> String {
        let body: Vec<String> = floors.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{\"floors\": {{{}}}}}", body.join(", "))
    }

    #[test]
    fn a_rate_at_its_floor_passes() {
        let floors: Vec<_> = REQUIRED_BENCHES.iter().map(|&n| (n, 1.0)).collect();
        assert_eq!(check_floors(&floors_text(&floors), &one_mb_per_s()), Ok(()));
    }

    #[test]
    fn a_rate_below_its_floor_fails() {
        let floors: Vec<_> =
            REQUIRED_BENCHES.iter().map(|&n| (n, if n == "verified_read" { 1.5 } else { 1.0 })).collect();
        let err = check_floors(&floors_text(&floors), &one_mb_per_s()).unwrap_err();
        assert!(err.contains("`verified_read` regressed"), "{err}");
    }

    #[test]
    fn a_missing_floor_row_fails() {
        let floors: Vec<_> =
            REQUIRED_BENCHES.iter().filter(|&&n| n != "group_rebalance").map(|&n| (n, 1.0)).collect();
        let err = check_floors(&floors_text(&floors), &one_mb_per_s()).unwrap_err();
        assert!(err.contains("`group_rebalance` has no recorded floor"), "{err}");
    }
}
