//! Wall-clock perf baseline: the numbers every later PR is judged against.
//!
//! Four seeded, fixed-size microbenches of the hot data path, measured in
//! real (host) time — this is the one harness binary that deliberately uses
//! `std::time::Instant` (the `slint` R1 determinism rule exempts
//! `crates/bench`, which measures the real host):
//!
//! * `replicate_append` — 3-way replicated PLog appends
//!   (`append_to_shard_at`, `Bytes` payloads — the path every deployment
//!   append takes), MB/s of logical payload;
//! * `ec_append` — RS(10,2) erasure-coded PLog appends, same path, MB/s;
//! * `degraded_read` — `read_at` on the EC store with `m` devices failed,
//!   i.e. every read pays Reed–Solomon reconstruction, MB/s;
//! * `gf256_mul_acc` — the `gf256::mul_acc_slice` fused multiply-add that
//!   dominates RS encode/reconstruct, MB/s over a 1 MiB buffer;
//! * `checksummed_append` — 3-way replicated appends including the per-shard
//!   CRC32 computed into the index entry, MB/s;
//! * `verified_read` — replicated `read_at` with every touched shard
//!   checksum-verified against the index CRCs, MB/s;
//! * `partitioned_produce` — keyed produce across a 64-partition topic
//!   (key hash → route → per-partition quota → worker → object), MB/s of
//!   logical payload;
//! * `group_rebalance` — consumer-group churn (joins, cooperative ack
//!   cycles, leaves) over a 64-partition topic, rebalance-journal bytes
//!   per second;
//! * `frontdoor_admission` — produce through the full multi-tenant front
//!   door (auth → token bucket → admission control → breakers → engine),
//!   MB/s of logical payload; tracks the per-request overhead of the
//!   admission pipeline itself;
//! * `txn_commit` — MVCC transactions end to end (begin → intent writes →
//!   commit decide → intent resolution), MB/s of committed payload;
//! * `txn_conflict_abort` — the same path under write-write contention:
//!   every round a loser collides on a live intent and aborts while the
//!   winner commits; MB/s of committed payload, so the row prices conflict
//!   detection + abort cleanup on top of the commit path.
//!
//! One additional row is measured in *virtual* time rather than host time:
//! `maintenance_interference`, the foreground append p99 with every
//! maintenance chore active between sends vs fully quiesced, written as
//! `p99_active_ns` / `p99_quiesced_ns` / `ratio`. Being deterministic, the
//! ratio is an exact regression signal for chore-scheduler changes.
//!
//! Each bench runs [`SAMPLES`] timed passes over a fresh store and reports
//! the best pass (least interference from the host). Results land in
//! `BENCH_PERF.json` at the workspace root; `scripts/check.sh` re-runs this
//! binary with `--check`, which re-reads and validates the file so a
//! missing or malformed trajectory fails the gate. The file also records a
//! per-bench regression `floors` object — 80% of the best recorded rate,
//! ratcheting monotonically upward across runs — and `--check` fails when
//! any required bench's current rate sits below its recorded floor.
//!
//! ```text
//! cargo run --release -p bench --bin perf_baseline            # measure + write
//! cargo run --release -p bench --bin perf_baseline -- --check # validate only
//! ```

use common::ctx::IoCtx;
use common::json::Json;
use common::size::MIB;
use common::{Bytes, SimClock};
use ec::Redundancy;
use plog::{PlogAddress, PlogConfig, PlogStore, WorkerPool};
use simdisk::{MediaKind, StoragePool};
use std::sync::Arc;
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

fn bench_ec_append() -> BenchResult {
    let record = Bytes::from_vec(payload(2, RECORD_BYTES));
    best_of("ec_append", || {
        let s = store(Redundancy::ErasureCode { k: 10, m: 2 }, 12);
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

fn bench_checksummed_append() -> BenchResult {
    // Dedicated row for the checksummed write path (one CRC32 pass per
    // payload feeding the index entry), tracked separately so integrity
    // regressions are visible even if the generic append row drifts.
    //
    // This row drives `PlogStore::append_group` the way a stream object
    // with several filled slices does: records enter as `Bytes` clones (no
    // per-append payload copy) in groups of 16 and pay one batched index
    // put per group.
    let record = Bytes::from_vec(payload(6, RECORD_BYTES));
    best_of("checksummed_append", || {
        let s = store(Redundancy::Replicate { copies: 3 }, 8);
        let ctx = IoCtx::new(0);
        let shards: Vec<u32> =
            (0..RECORDS).map(|i| s.shard_of(&(i as u64).to_be_bytes())).collect();
        for group in shards.chunks(16) {
            let appends: Vec<_> = group.iter().map(|&shard| (shard, record.clone(), &ctx)).collect();
            for outcome in s.append_group(&appends) {
                outcome.expect("perf append");
            }
        }
        (RECORDS * RECORD_BYTES) as u64
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

/// Records sent per partitioned-produce pass.
const PRODUCE_RECORDS: usize = 4096;
/// Payload bytes per produced message.
const PRODUCE_BYTES: usize = 1024;
/// Partitions of the produce/rebalance bench topic.
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

fn bench_partitioned_produce() -> BenchResult {
    // The partition-first produce path: key hash → partition route →
    // per-partition quota → worker → stream object, across a 64-partition
    // topic. MB/s of logical payload through the whole stack.
    let record = payload(8, PRODUCE_BYTES);
    best_of("partitioned_produce", || {
        let svc = stream_service();
        svc.create_topic("t", stream::TopicConfig::with_partitions(BENCH_PARTITIONS))
            .expect("perf topic");
        let mut p = svc.producer();
        p.set_batch_size(16);
        let ctx = common::ctx::IoCtx::new(0);
        for i in 0..PRODUCE_RECORDS {
            p.send("t", format!("key-{i}").into_bytes(), record.clone(), &ctx)
                .expect("perf send");
        }
        p.flush(&ctx).expect("perf flush");
        (PRODUCE_RECORDS * PRODUCE_BYTES) as u64
    })
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

/// Requests sent per frontdoor-admission pass.
const DOOR_RECORDS: usize = 4096;

/// Transactions per txn bench pass.
const TXN_COUNT: usize = 256;
/// Intent writes per transaction.
const TXN_KEYS: usize = 64;
/// Payload bytes per intent.
const TXN_VAL_BYTES: usize = 1024;

fn bench_txn_commit() -> BenchResult {
    // The MVCC commit path end to end: begin, TXN_KEYS intent writes (each
    // a record update + intent in one WAL frame), the commit-decide record
    // flip, then intent resolution into committed versions.
    let value = payload(10, TXN_VAL_BYTES);
    best_of("txn_commit", || {
        let mvcc = kvstore::MvccStore::new();
        for t in 0..TXN_COUNT {
            let h = mvcc.begin();
            for k in 0..TXN_KEYS {
                let key = format!("k/{:03}/{:03}", t % 8, k);
                mvcc.put(h.id, key.as_bytes(), &value[..]).expect("perf put");
            }
            mvcc.commit_decide(h.id).expect("perf decide");
            mvcc.resolve_committed(h.id).expect("perf resolve");
        }
        (TXN_COUNT * TXN_KEYS * TXN_VAL_BYTES) as u64
    })
}

fn bench_txn_conflict_abort() -> BenchResult {
    // Write-write contention: each round a second transaction collides on
    // the winner's live intent (Error::Conflict) and aborts before the
    // winner commits. Committed payload per nanosecond prices conflict
    // detection and abort cleanup on top of the commit path.
    let value = payload(11, TXN_VAL_BYTES);
    best_of("txn_conflict_abort", || {
        let mvcc = kvstore::MvccStore::new();
        for t in 0..TXN_COUNT {
            let winner = mvcc.begin();
            let loser = mvcc.begin();
            for k in 0..TXN_KEYS {
                let key = format!("k/{:03}/{:03}", t % 8, k);
                mvcc.put(winner.id, key.as_bytes(), &value[..]).expect("perf put");
            }
            let contended = format!("k/{:03}/000", t % 8);
            let err = mvcc
                .put(loser.id, contended.as_bytes(), &value[..])
                .expect_err("collision on a live intent");
            assert!(matches!(err, common::Error::Conflict(_)));
            mvcc.abort(loser.id).expect("perf abort");
            mvcc.commit_decide(winner.id).expect("perf decide");
            mvcc.resolve_committed(winner.id).expect("perf resolve");
        }
        (TXN_COUNT * TXN_KEYS * TXN_VAL_BYTES) as u64
    })
}

fn bench_frontdoor_admission() -> BenchResult {
    // The full request-processing pipeline in front of the engine: token
    // auth, ACL check, nano-token bucket, admission control, pool + tenant
    // breakers, then the partitioned produce path. The tenant rate is set
    // so the 50 ms burst depth covers the whole pass — the row measures
    // pipeline overhead, not throttling (every send is at virtual t=0).
    let rate = DOOR_RECORDS as u64 * 100;
    let record = payload(9, PRODUCE_BYTES);
    best_of("frontdoor_admission", || {
        let lake = Arc::new(streamlake::StreamLake::new(
            streamlake::StreamLakeConfig::small(),
        ));
        lake.stream()
            .create_topic("t", stream::TopicConfig::with_partitions(BENCH_PARTITIONS))
            .expect("perf topic");
        let door = streamlake::FrontDoor::new(lake, streamlake::FrontDoorConfig::default());
        let p = door.register_tenant("perf", "tok-perf", rate);
        door.access().grant(&p, "topic/", streamlake::Permission::Write);
        let ctx = common::ctx::IoCtx::new(0).with_qos(common::ctx::QosClass::Foreground);
        for i in 0..DOOR_RECORDS {
            door.produce("tok-perf", "t", format!("key-{i}").into_bytes(), record.clone(), &ctx)
                .expect("perf door send");
        }
        (DOOR_RECORDS * PRODUCE_BYTES) as u64
    })
}

/// Foreground interference of the maintenance runtime, in *virtual* time:
/// append p99 with every chore active between sends vs fully quiesced.
/// Unlike the MB/s rows this is deterministic (no host clock), so the ratio
/// is an exact regression signal for scheduler/backpressure changes.
struct InterferenceResult {
    p99_active: u64,
    p99_quiesced: u64,
}

impl InterferenceResult {
    fn ratio(&self) -> f64 {
        if self.p99_quiesced == 0 {
            return 0.0;
        }
        self.p99_active as f64 / self.p99_quiesced as f64
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("p99_active_ns", Json::Num(self.p99_active as f64)),
            ("p99_quiesced_ns", Json::Num(self.p99_quiesced as f64)),
            ("ratio", Json::Num(self.ratio())),
        ])
    }
}

/// Appends measured for the interference row.
const INTERFERENCE_APPENDS: usize = 64;

fn bench_maintenance_interference() -> InterferenceResult {
    InterferenceResult {
        p99_active: bench::chores::append_p99(true, INTERFERENCE_APPENDS),
        p99_quiesced: bench::chores::append_p99(false, INTERFERENCE_APPENDS),
    }
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

const REQUIRED_BENCHES: [&str; 11] = [
    "replicate_append",
    "ec_append",
    "degraded_read",
    "gf256_mul_acc",
    "checksummed_append",
    "verified_read",
    "partitioned_produce",
    "group_rebalance",
    "frontdoor_admission",
    "txn_commit",
    "txn_conflict_abort",
];

/// Fraction of a measured rate that becomes its recorded floor. A later
/// run whose rate lands below an already-recorded floor (>20% regression
/// against the trajectory) fails `--check`.
const FLOOR_FRACTION: f64 = 0.8;

/// Per-bench regression floors recorded in an existing trajectory file.
/// Missing file or missing object means no floors yet (first recording).
fn read_floors(path: &std::path::Path) -> std::collections::BTreeMap<String, f64> {
    let mut floors = std::collections::BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else { return floors };
    let Ok(json) = Json::parse(&text) else { return floors };
    if let Some(obj) = json.get("floors").and_then(|f| f.as_object()) {
        for (name, v) in obj {
            if let Some(f) = v.as_f64() {
                if f.is_finite() && f > 0.0 {
                    floors.insert(name.clone(), f);
                }
            }
        }
    }
    floors
}

/// Validate an existing BENCH_PERF.json; returns a human-readable error.
fn check_file(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("malformed JSON: {e}"))?;
    let benches = json
        .get("benches")
        .and_then(|b| b.as_object())
        .ok_or("missing `benches` object")?;
    let floors = json
        .get("floors")
        .and_then(|f| f.as_object())
        .ok_or("missing `floors` object (re-run perf_baseline to record one)")?;
    for name in REQUIRED_BENCHES {
        let entry = benches.get(name).ok_or_else(|| format!("missing bench `{name}`"))?;
        let rate = entry
            .get("mb_per_s")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("bench `{name}` has no numeric mb_per_s"))?;
        if !(rate.is_finite() && rate > 0.0) {
            return Err(format!("bench `{name}` reports non-positive rate {rate}"));
        }
        let floor = floors
            .get(name)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("bench `{name}` has no recorded floor"))?;
        if rate < floor {
            return Err(format!(
                "bench `{name}` regressed: {rate:.2} MB/s is below its recorded floor \
                 {floor:.2} MB/s (>20% under the best recorded trajectory)"
            ));
        }
    }
    let interference = json
        .get("maintenance_interference")
        .ok_or("missing `maintenance_interference` object")?;
    for field in ["p99_active_ns", "p99_quiesced_ns", "ratio"] {
        let v = interference
            .get(field)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("maintenance_interference has no numeric {field}"))?;
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("maintenance_interference reports non-positive {field} {v}"));
        }
    }
    Ok(())
}

fn main() {
    let path = output_path();
    if std::env::args().any(|a| a == "--check") {
        match check_file(&path) {
            Ok(()) => {
                println!("perf_baseline: ok — {} is present and well-formed", path.display());
                return;
            }
            Err(e) => {
                eprintln!("perf_baseline: FAILED — {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    // Floors ratchet: each bench's floor only ever rises, so the trajectory
    // remembers the best recorded run even across slower host days.
    let prior_floors = read_floors(&path);

    let results = [
        bench_replicate_append(),
        bench_ec_append(),
        bench_degraded_read(),
        bench_gf256(),
        bench_checksummed_append(),
        bench_verified_read(),
        bench_partitioned_produce(),
        bench_group_rebalance(),
        bench_frontdoor_admission(),
        bench_txn_commit(),
        bench_txn_conflict_abort(),
    ];
    for r in &results {
        println!("{:<20} {:>10.1} MB/s  ({} bytes in {} ns)", r.name, r.mb_per_s(), r.bytes, r.nanos);
    }
    let interference = bench_maintenance_interference();
    println!(
        "{:<20} {:>9.2}x   (append p99 {} ns active vs {} ns quiesced)",
        "maint_interference",
        interference.ratio(),
        interference.p99_active,
        interference.p99_quiesced
    );
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
        ("maintenance_interference", interference.to_json()),
    ]);
    if let Err(e) = std::fs::write(&path, json.to_pretty() + "\n") {
        eprintln!("perf_baseline: FAILED to write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("perf_baseline: wrote {}", path.display());
}
