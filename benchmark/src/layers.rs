//! Per-layer metrics: counts from public counters, drill-down replays into
//! each layer's public entry on fresh instances, and the self-time ledger.
//!
//! This PR may not put spans inside the program, so a layer below the
//! driver's call boundary is measured from outside: the inputs that reached
//! it in the end-to-end phase (how many records, of what size — read from
//! `Device::op_counts`, `PlogStore::shard_usage`, `ScanStats`, …) are
//! replayed straight into that layer on a fresh instance. Going top-down,
//! a layer's **self time** is its replay minus the replay one level below.

use crate::rng::Rng;
use crate::spec::PER_LAYER;
use crate::trace::Recorder;
use crate::wall;
use crate::workloads::Verdict;
use common::clock::{Nanos, SimClock};
use common::ctx::{IoCtx, Phase, SpanSink};
use common::metrics::Metrics;
use common::size::GIB;
use common::Bytes;
use ec::{Redundancy, Stripe};
use format::{CmpOp, Expr, LakeFileReader, LakeFileWriter, Predicate, Row, Schema};
use kvstore::MvccStore;
use lake::{PartitionSpec, ScanOptions, TableStore};
use plog::{PlogConfig, PlogStore, WorkerPool};
use simdisk::{MediaKind, StoragePool};
use std::collections::BTreeMap;
use std::sync::Arc;
use streamlake::{
    FrontDoor, FrontDoorConfig, Permission, RequestKind, StreamLake, StreamLakeConfig,
};

/// Layers of the self-time ledger, in print order. `driver` is the
/// benchmark's own loop (span self time of the pass root).
pub const LEDGER_LAYERS: [&str; 13] = [
    "core.frontdoor",
    "core.query",
    "core.txn",
    "core.chore",
    "stream",
    "lake",
    "format",
    "kvstore",
    "plog",
    "ec",
    "common",
    "simdisk",
    "driver",
];

/// The traced run's result: every per-layer metric plus the ledger.
#[derive(Debug)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    self_ns: BTreeMap<&'static str, f64>,
    /// Free-form lines explaining estimates, printed under the ledger.
    pub notes: Vec<String>,
    /// Mean bytes of the PLog records the timed phase read, when the
    /// workload knows it (otherwise the mean live record size is used).
    pub read_size_hint: Option<u64>,
    seed: u64,
    costs: BTreeMap<usize, PlogCosts>,
}

impl Layers {
    /// An empty report (every metric 0) for a run seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Layers {
            values: PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
            self_ns: BTreeMap::new(),
            notes: Vec::new(),
            read_size_hint: None,
            seed,
            costs: BTreeMap::new(),
        }
    }

    /// PLog-and-below replay costs for records of about `size` bytes
    /// (sizes are bucketed to two significant bits, one replay per bucket).
    pub fn plog_costs(&mut self, size: u64) -> PlogCosts {
        let size = size.max(64) as usize;
        let shift = (usize::BITS - size.leading_zeros()).saturating_sub(2);
        let bucket = (size >> shift) << shift;
        let seed = self.seed;
        *self
            .costs
            .entry(bucket)
            .or_insert_with(|| plog_costs(bucket, seed))
    }

    /// Set metric `name` (must be one of [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    /// Every metric, in spec order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.values[m.name]))
            .collect()
    }

    /// Credit `ns` of the traced timed wall to `layer`'s self time
    /// (negative estimates are clamped to zero).
    pub fn credit(&mut self, layer: &'static str, ns: f64) {
        debug_assert!(
            LEDGER_LAYERS.contains(&layer),
            "unknown ledger layer {layer}"
        );
        *self.self_ns.entry(layer).or_insert(0.0) += ns.max(0.0);
    }

    /// The ledger as `(layer, share of wall)` rows, ending with
    /// `unattributed`.
    pub fn ledger(&self, wall_ns: u64) -> Vec<(&'static str, f64)> {
        let wall = wall_ns.max(1) as f64;
        let mut rows: Vec<(&'static str, f64)> = LEDGER_LAYERS
            .iter()
            .map(|l| (*l, self.self_ns.get(l).copied().unwrap_or(0.0) / wall))
            .collect();
        let attributed: f64 = rows.iter().map(|r| r.1).sum();
        rows.push(("unattributed", 1.0 - attributed));
        rows
    }
}

/// What the deployment's `SpanSink` saw on the traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinkStats {
    /// Virtual p99 of the time device ops waited in queue, ns.
    pub queue_p99: u64,
    /// Virtual p99 of device service time, ns.
    pub device_p99: u64,
    /// `SpanRecord`s the sink took.
    pub records: u64,
}

impl SinkStats {
    /// Read the per-phase view of `sl`'s sink.
    pub fn take(sl: &StreamLake) -> SinkStats {
        let mut stats = SinkStats::default();
        for (phase, summary) in sl.span_sink().phase_view() {
            stats.records += summary.count as u64;
            match phase.as_str() {
                "queue" => stats.queue_p99 = summary.p99,
                "device" => stats.device_p99 = summary.p99,
                _ => {}
            }
        }
        stats
    }
}

/// What the traced run hands the per-layer analysis.
///
/// Counts describe the **reference pass** — tracing off, sink-less
/// contexts, so the program behaves exactly as in the end-to-end run.
/// Spans and the sink's virtual-time view come from the **traced pass**,
/// where attaching the `SpanSink` feeds the foreground-pressure samplers
/// and may defer maintenance; the foreground operations are the same in
/// both.
#[derive(Debug)]
pub struct Evidence<'a> {
    /// The reference pass: per-op wall latencies in op order.
    pub plain: &'a Recorder,
    /// The traced pass: boundary spans.
    pub traced: &'a Recorder,
    /// Public-counter deltas over the reference pass.
    pub delta: Counters,
    /// The reference pass's verdict.
    pub verdict: &'a Verdict,
    pub sink: SinkStats,
    /// What the sink's records cost the traced pass (records × replayed
    /// cost of one record), ns; the ledger credits it to `common`.
    pub sink_ns: f64,
    /// Share of a pass's operations inside the timed phase (the rest are
    /// warm-up). Counters cover the whole pass and spans the timed phase,
    /// so ledger credits priced from counts are scaled by this.
    pub timed_share: f64,
    /// Leading operations of the pass that were warm-up.
    pub warm: usize,
}

impl Evidence<'_> {
    /// Counter deltas of the foreground alone: what the maintenance calls
    /// did is taken out (it stays inside `core.chore`).
    pub fn foreground(&self) -> Counters {
        self.delta.since(&self.plain.chore_io)
    }

    /// Total of the traced spans called `name`, net of the sink's cost
    /// (taken as spread evenly over the traced wall), ns.
    pub fn span_ns(&self, name: &str) -> f64 {
        self.net(self.traced.total_ns(name) as f64)
    }

    /// A duration measured on the traced pass, net of the sink's cost.
    pub fn net(&self, traced_ns: f64) -> f64 {
        traced_ns * (1.0 - self.sink_ns / self.traced.wall_ns.max(1) as f64).max(0.0)
    }
}

/// A snapshot of the public counters the per-layer counts come from.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub ssd_reads: u64,
    pub ssd_writes: u64,
    pub hdd_reads: u64,
    pub hdd_writes: u64,
    /// Logical bytes ever appended to the primary PLog (Σ `shard_usage`).
    pub plog_logical: u64,
    pub wal_frames: u64,
    pub wal_bytes: u64,
    /// Driver-thread CRC input bytes.
    pub crc_bytes: u64,
    /// Driver-thread payload copies.
    pub payload_copies: u64,
    /// Driver-thread key/value pairs cloned out of KV scans.
    pub scan_copies: u64,
}

fn pool_ops(pool: &StoragePool) -> (u64, u64) {
    (0..pool.device_count())
        .map(|i| pool.device(i).op_counts())
        .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1))
}

impl Counters {
    /// Read every counter of `sl` now.
    pub fn take(sl: &StreamLake) -> Counters {
        let (ssd_reads, ssd_writes) = pool_ops(sl.ssd_pool());
        let (hdd_reads, hdd_writes) = pool_ops(sl.hdd_pool());
        Counters {
            ssd_reads,
            ssd_writes,
            hdd_reads,
            hdd_writes,
            plog_logical: sl.plog().shard_usage().iter().sum(),
            wal_frames: sl.mvcc().kv().wal_frames(),
            wal_bytes: sl.mvcc().kv().with_read(|kv| kv.wal_bytes_len()),
            crc_bytes: common::checksum::crc_hashed_bytes(),
            payload_copies: common::bytes::payload_copies(),
            scan_copies: kvstore::scan_copies(),
        }
    }

    /// Accumulate `other` into `self`, field by field.
    pub fn add(&mut self, other: &Counters) {
        self.ssd_reads += other.ssd_reads;
        self.ssd_writes += other.ssd_writes;
        self.hdd_reads += other.hdd_reads;
        self.hdd_writes += other.hdd_writes;
        self.plog_logical += other.plog_logical;
        self.wal_frames += other.wal_frames;
        self.wal_bytes += other.wal_bytes;
        self.crc_bytes += other.crc_bytes;
        self.payload_copies += other.payload_copies;
        self.scan_copies += other.scan_copies;
    }

    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            ssd_reads: self.ssd_reads - earlier.ssd_reads,
            ssd_writes: self.ssd_writes - earlier.ssd_writes,
            hdd_reads: self.hdd_reads - earlier.hdd_reads,
            hdd_writes: self.hdd_writes - earlier.hdd_writes,
            plog_logical: self.plog_logical - earlier.plog_logical,
            wal_frames: self.wal_frames - earlier.wal_frames,
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
            crc_bytes: self.crc_bytes - earlier.crc_bytes,
            payload_copies: self.payload_copies - earlier.payload_copies,
            scan_copies: self.scan_copies - earlier.scan_copies,
        }
    }
}

/// Stripe width of the evaluation deployment's primary PLog (RS 10+2).
pub const STRIPE_SHARDS: u64 = 12;

/// Bytes a kernel replay pushes through a layer at most.
const REPLAY_BYTES: usize = 12 << 20;

fn replay_count(size: usize) -> usize {
    (REPLAY_BYTES / size.max(1)).clamp(32, 2048)
}

fn evaluation_redundancy() -> Redundancy {
    StreamLakeConfig::evaluation().redundancy
}

fn fresh_pool() -> Arc<StoragePool> {
    let cfg = StreamLakeConfig::evaluation();
    Arc::new(StoragePool::new(
        "replay",
        MediaKind::NvmeSsd,
        cfg.ssd_devices,
        2 * GIB,
        SimClock::new(),
    ))
}

/// A PLog store configured like the deployment's primary one, on fresh
/// devices.
pub fn fresh_plog() -> Arc<PlogStore> {
    let cfg = StreamLakeConfig::evaluation();
    Arc::new(
        PlogStore::new(
            fresh_pool(),
            PlogConfig {
                shard_count: cfg.shard_count,
                redundancy: cfg.redundancy,
                shard_capacity: 2 * GIB,
            },
        )
        .expect("evaluation plog config is valid")
        .with_metrics(Metrics::new())
        .with_workers(Arc::new(WorkerPool::with_default_size(
            cfg.maintenance_seed,
        ))),
    )
}

/// Wall cost, per record of `size` bytes, of each layer from the PLog
/// down, measured by replaying `replay_count(size)` records into that
/// layer's public entry on fresh instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlogCosts {
    pub size: usize,
    /// `PlogStore::append_to_shard_at`, inclusive.
    pub append_ns: f64,
    /// `PlogStore::read_at`, inclusive.
    pub read_ns: f64,
    /// `Stripe::encode`.
    pub ec_ns: f64,
    /// `checksum::crc32` over the stripe's shards.
    pub crc_ns: f64,
    /// `StoragePool::write_shards_ctx`.
    pub disk_write_ns: f64,
    /// `StoragePool::read_shards_ctx`.
    pub disk_read_ns: f64,
}

impl PlogCosts {
    /// Nanoseconds per MB of payload for a per-record cost.
    pub fn per_mb(&self, per_record_ns: f64) -> f64 {
        per_record_ns / (self.size.max(1) as f64 / 1e6)
    }

    /// One appended record's wall time split as `(plog self, ec, crc,
    /// simdisk)`: the append replay minus the replays one level below it.
    /// The PLog fans shard work across its worker pool, so the children
    /// can overlap; when they sum to more than the append itself they are
    /// scaled down to fit it and the PLog's own share is zero.
    pub fn append_parts(&self) -> (f64, f64, f64, f64) {
        let below = self.ec_ns + self.crc_ns + self.disk_write_ns;
        let fit = if below > self.append_ns && below > 0.0 {
            self.append_ns / below
        } else {
            1.0
        };
        (
            (self.append_ns - below).max(0.0),
            self.ec_ns * fit,
            self.crc_ns * fit,
            self.disk_write_ns * fit,
        )
    }

    /// One read record's wall time split as `(plog self, crc, simdisk)`,
    /// fitted the same way.
    pub fn read_parts(&self) -> (f64, f64, f64) {
        let below = self.crc_ns + self.disk_read_ns;
        let fit = if below > self.read_ns && below > 0.0 {
            self.read_ns / below
        } else {
            1.0
        };
        (
            (self.read_ns - below).max(0.0),
            self.crc_ns * fit,
            self.disk_read_ns * fit,
        )
    }
}

/// Replay `size`-byte records through the PLog and every layer below it.
pub fn plog_costs(size: usize, seed: u64) -> PlogCosts {
    let size = size.max(1);
    let n = replay_count(size);
    let redundancy = evaluation_redundancy();
    let mut payload = vec![0u8; size];
    Rng::new(seed, 0x706c).fill(&mut payload);
    let payload = Bytes::from_vec(payload);
    let at = |i: usize| IoCtx::new(i as Nanos * 1_000);

    let plog = fresh_plog();
    let shards = plog.config().shard_count as u32;
    let t = wall::now();
    let addrs: Vec<_> = (0..n)
        .map(|i| {
            plog.append_to_shard_at(i as u32 % shards, payload.clone(), &at(i))
                .expect("replay append")
                .0
        })
        .collect();
    let append_ns = wall::ns_since(t) as f64 / n as f64;
    let t = wall::now();
    for (i, addr) in addrs.iter().enumerate() {
        std::hint::black_box(plog.read_at(addr, &at(n + i)).expect("replay read"));
    }
    let read_ns = wall::ns_since(t) as f64 / n as f64;
    drop(plog);

    let t = wall::now();
    let mut stripe = None;
    for _ in 0..n {
        stripe = Some(std::hint::black_box(
            Stripe::encode(payload.clone(), redundancy).expect("replay encode"),
        ));
    }
    let ec_ns = wall::ns_since(t) as f64 / n as f64;
    let stripe = stripe.expect("n >= 1");

    let t = wall::now();
    for _ in 0..n {
        for shard in &stripe.shards {
            std::hint::black_box(common::checksum::crc32(shard));
        }
    }
    let crc_ns = wall::ns_since(t) as f64 / n as f64;

    let pool = fresh_pool();
    let t = wall::now();
    let handles: Vec<_> = (0..n)
        .map(|i| {
            pool.write_shards_ctx(&stripe.shards, &at(i))
                .expect("replay shard write")
                .0
        })
        .collect();
    let disk_write_ns = wall::ns_since(t) as f64 / n as f64;
    let t = wall::now();
    for (i, h) in handles.iter().enumerate() {
        std::hint::black_box(
            pool.read_shards_ctx(h, &at(n + i))
                .expect("replay shard read"),
        );
    }
    let disk_read_ns = wall::ns_since(t) as f64 / n as f64;

    PlogCosts {
        size,
        append_ns,
        read_ns,
        ec_ns,
        crc_ns,
        disk_write_ns,
        disk_read_ns,
    }
}

/// Wall cost per row of the columnar format over the workload's own row
/// batches.
#[derive(Debug, Clone, Copy, Default)]
pub struct FormatCosts {
    pub encode_ns_per_row: f64,
    /// `LakeFileReader::open` + `scan(True, None)`.
    pub decode_ns_per_row: f64,
    /// `open` + `scan(predicate, projection)`.
    pub filter_ns_per_row: f64,
    /// Encoded file bytes over all batches.
    pub encoded_bytes: u64,
    pub rows: u64,
}

/// Encode, fully decode and filter-scan `batches`.
pub fn format_costs(
    schema: &Schema,
    rows_per_group: usize,
    batches: &[&[Row]],
    predicate: &Expr,
    projection: Option<&[usize]>,
) -> FormatCosts {
    let rows: u64 = batches.iter().map(|b| b.len() as u64).sum();
    if rows == 0 {
        return FormatCosts::default();
    }
    let writer = LakeFileWriter::new(schema.clone(), rows_per_group).expect("replay writer");
    let t = wall::now();
    let files: Vec<Bytes> = batches
        .iter()
        .map(|b| Bytes::from_vec(writer.encode(b).expect("replay encode")))
        .collect();
    let encode_ns = wall::ns_since(t) as f64;
    let scan = |expr: &Expr, proj: Option<&[usize]>| {
        let t = wall::now();
        for f in &files {
            let reader = LakeFileReader::open(f.clone()).expect("replay open");
            std::hint::black_box(reader.scan(expr, proj).expect("replay scan"));
        }
        wall::ns_since(t) as f64
    };
    let decode_ns = scan(&Expr::True, None);
    let filter_ns = scan(predicate, projection);
    FormatCosts {
        encode_ns_per_row: encode_ns / rows as f64,
        decode_ns_per_row: decode_ns / rows as f64,
        filter_ns_per_row: filter_ns / rows as f64,
        encoded_bytes: files.iter().map(|f| f.len() as u64).sum(),
        rows,
    }
}

/// `TableStore::insert` replayed on a fresh store: `(ns per row, µs of a
/// 1-row insert afterwards — the commit floor)`.
pub fn lake_insert_costs(
    schema: &Schema,
    partition: Option<PartitionSpec>,
    target_file_rows: u64,
    batches: &[&[Row]],
) -> (f64, f64) {
    let rows: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let Some(first) = batches.iter().find(|b| !b.is_empty()) else {
        return (0.0, 0.0);
    };
    let store = TableStore::new(
        fresh_plog(),
        StreamLakeConfig::evaluation().meta_flush_threshold,
    )
    .with_mvcc(Arc::new(MvccStore::new()));
    store
        .create_table(
            "replay",
            schema.clone(),
            partition,
            target_file_rows,
            &IoCtx::new(0),
        )
        .expect("replay table");
    let t = wall::now();
    for (i, b) in batches.iter().enumerate() {
        store
            .insert("replay", b, &IoCtx::new(i as Nanos * 1_000_000))
            .expect("replay insert");
    }
    let insert_ns = wall::ns_since(t) as f64 / rows as f64;
    const FLOOR_REPS: usize = 16;
    let t = wall::now();
    for i in 0..FLOOR_REPS {
        store
            .insert(
                "replay",
                &first[..1],
                &IoCtx::new((batches.len() + i) as Nanos * 1_000_000),
            )
            .expect("replay 1-row insert");
    }
    (
        insert_ns,
        wall::ns_since(t) as f64 / FLOOR_REPS as f64 / 1e3,
    )
}

/// A bare MVCC transaction (begin → `keys` puts → decide → resolve) on
/// `mvcc`, mean µs over `reps`.
pub fn mvcc_txn_us(mvcc: &MvccStore, keys: usize, reps: usize) -> f64 {
    let value = [0x5au8; 64];
    let t = wall::now();
    for r in 0..reps {
        let h = mvcc.begin();
        for k in 0..keys {
            let key = format!("slbench/probe/{:02}/{k:02}", r % 8);
            mvcc.put(h.id, key.as_bytes(), &value).expect("probe put");
        }
        mvcc.commit_decide(h.id).expect("probe decide");
        mvcc.resolve_committed(h.id).expect("probe resolve");
    }
    wall::ns_since(t) as f64 / reps as f64 / 1e3
}

/// `(incr ns, observe ns, summary µs)` on `metrics`, with a probe
/// histogram `samples` long (the op count: what a run-long histogram
/// costs to summarise).
pub fn metrics_costs(metrics: &Metrics, samples: usize) -> (f64, f64, f64) {
    const REPS: usize = 20_000;
    let t = wall::now();
    for _ in 0..REPS {
        metrics.incr("slbench.probe.counter", 1);
    }
    let incr_ns = wall::ns_since(t) as f64 / REPS as f64;
    let samples = samples.max(1);
    let t = wall::now();
    for i in 0..samples {
        metrics.observe("slbench.probe.histogram", i as u64);
    }
    let observe_ns = wall::ns_since(t) as f64 / samples as f64;
    const SUMMARIES: usize = 5;
    let t = wall::now();
    for _ in 0..SUMMARIES {
        std::hint::black_box(metrics.histogram("slbench.probe.histogram"));
    }
    (
        incr_ns,
        observe_ns,
        wall::ns_since(t) as f64 / SUMMARIES as f64 / 1e3,
    )
}

/// What one `SpanRecord` costs the traced pass: `IoCtx::record` into a
/// fresh `SpanSink`, ns per record.
pub fn span_record_ns() -> f64 {
    const REPS: usize = 200_000;
    let sink = Arc::new(SpanSink::new(Metrics::new()));
    let ctx = IoCtx::new(0).with_sink(sink);
    let t = wall::now();
    for i in 0..REPS {
        ctx.record(Phase::Device, i as Nanos, 1_000);
    }
    wall::ns_since(t) as f64 / REPS as f64
}

/// `FrontDoor::admit` + `report` alone on a fresh door, ns per request.
pub fn frontdoor_admit_ns() -> f64 {
    const REPS: usize = 20_000;
    let lake = Arc::new(StreamLake::new(StreamLakeConfig::evaluation()));
    let door = FrontDoor::new(lake, FrontDoorConfig::default());
    let principal = door.register_tenant("probe", "tok-probe", 1_000_000_000);
    door.access().grant(&principal, "topic/", Permission::Write);
    let t = wall::now();
    for i in 0..REPS {
        let ctx = IoCtx::new(i as Nanos * 1_000);
        let permit = door
            .admit("tok-probe", RequestKind::Produce, "topic/probe", 1, &ctx)
            .expect("probe admit");
        door.report(&permit, true, &ctx);
    }
    wall::ns_since(t) as f64 / REPS as f64
}

/// A predicate no packet satisfies and file statistics can prove so:
/// `start_time < 0`.
pub fn before_all_time() -> Expr {
    Expr::Pred(Predicate::cmp("start_time", CmpOp::Lt, 0i64))
}

/// End-of-run `lake` metrics on the deployment's own store: planning cost
/// over the run's file count (a `select` whose predicate prunes every
/// file), live files, and a metadata flush. `tables` pairs each table with
/// such a predicate.
pub fn lake_end_of_run(sl: &StreamLake, tables: &[(&str, Expr)], l: &mut Layers) {
    const PLANS: usize = 5;
    let now = sl.clock().now().max(common::clock::secs(1_000_000));
    let (mut plan_ns, mut live, mut flush_ns) = (0u64, 0usize, 0u64);
    for (table, prune_all) in tables {
        let opts = ScanOptions::filtered(prune_all.clone());
        for i in 0..PLANS {
            let ctx = IoCtx::new(now + i as Nanos * 1_000_000);
            let t = wall::now();
            let r = sl
                .tables()
                .select(table, &opts, &ctx)
                .expect("planning select");
            plan_ns += wall::ns_since(t);
            assert_eq!(
                r.stats.files_scanned, 0,
                "the planning probe must prune every file"
            );
        }
        live += sl
            .tables()
            .live_files(table, &IoCtx::new(now))
            .map_or(0, |f| f.len());
        let t = wall::now();
        sl.tables()
            .meta()
            .flush(table, &IoCtx::new(now))
            .expect("metadata flush");
        flush_ns += wall::ns_since(t);
    }
    l.set(
        "lake.plan_us",
        plan_ns as f64 / (PLANS * tables.len().max(1)) as f64 / 1e3,
    );
    l.set("lake.live_files_end", live as f64);
    l.set("lake.meta_flush_ms", flush_ns as f64 / 1e6);
}
