//! `lake_query` — bulk load, then aggregate queries over cold data.
//!
//! Setup bulk-loads [`PARTITIONS`] hourly partitions of DPI packets as
//! [`BATCHES`] inserts (4 files per partition) and syncs. The timed phase
//! is read-only: 11 of every 12 queries are `Query::dau` on a Zipf-chosen
//! url over one aligned hour (4 files), every 12th is `SUM(bytes_down)
//! GROUP BY province` over 6 hours (24 files). Few large operations through
//! `core.query → lake → format` and the verified PLog read path; the front
//! door, the stream service and the chores do nothing here.
//!
//! The contract wants every end-to-end metric from every workload, so the
//! write op of this workload is the bulk-load batch insert of its set-up
//! (all set-ups of the run), not something in the timed phase.

use super::{ctx_at, scaled, Verdict, Workload, T0};
use crate::layers::{self, Evidence, Layers};
use crate::rng::{hash_bytes, Rng, Zipf};
use crate::trace::{Open, Recorder};
use crate::wall;
use common::clock::{millis, secs, Nanos};
use common::ctx::IoCtx;
use format::{CmpOp, Expr, Predicate, Row};
use lake::{PartitionSpec, ScanOptions};
use std::collections::BTreeMap;
use streamlake::{Aggregate, Query, QueryEngine, StreamLake, StreamLakeConfig};
use workloads::packets::{Packet, PacketGen};

pub const TABLE: &str = "dpi";
const PARTITIONS: usize = 20;
const FILES_PER_PARTITION: usize = 4;
const BATCHES: usize = PARTITIONS * FILES_PER_PARTITION;
const ROWS_PER_BATCH: usize = 900;
/// One packet per virtual second: 3600 rows per hourly partition.
const PACKETS_PER_SEC: u64 = (ROWS_PER_BATCH * FILES_PER_PARTITION / 3600) as u64;
pub const TARGET_FILE_ROWS: u64 = 4096;
/// Every this-many-th query is the wide scan.
const WIDE_EVERY: usize = 12;
const WIDE_HOURS: usize = 6;
/// Virtual spacing of preload batches and of queries.
const BATCH_SPACING: Nanos = secs(1);
const QUERY_SPACING: Nanos = millis(100);
/// Queries per second of `--seconds` budget.
const OPS_PER_SECOND: usize = 90;
/// Queries the drill-down replays cover.
const REPLAY_QUERIES: usize = 120;

pub struct LakeQuery;

pub struct Inputs {
    packets: Vec<Packet>,
    rows: Vec<Row>,
    wire_bytes: u64,
    queries: Vec<Query>,
    /// `(first hour, hours)` of each query.
    spans: Vec<(usize, usize)>,
}

pub struct Dep {
    sl: StreamLake,
}

pub struct Outputs {
    groups: Vec<BTreeMap<String, f64>>,
    scans: Vec<lake::table::ScanStats>,
}

fn hour_start(h: usize) -> i64 {
    T0 + h as i64 * 3600
}

fn wide_query(lo: i64, hi: i64) -> Query {
    Query {
        table: TABLE.to_string(),
        predicate: Expr::all(vec![
            Predicate::cmp("start_time", CmpOp::Ge, lo),
            Predicate::cmp("start_time", CmpOp::Lt, hi),
        ]),
        group_by: Some("province".to_string()),
        aggregate: Aggregate::Sum("bytes_down".to_string()),
    }
}

/// The reference aggregation, computed by the driver over the generated
/// packets (3600 per hour, in time order).
fn reference(inputs: &Inputs, q: usize) -> BTreeMap<String, f64> {
    let (first, hours) = inputs.spans[q];
    let per_hour = ROWS_PER_BATCH * FILES_PER_PARTITION;
    let window = &inputs.packets[first * per_hour..(first + hours) * per_hour];
    let query = &inputs.queries[q];
    let url = query
        .predicate
        .predicates()
        .into_iter()
        .find(|p| p.column == "url")
        .map(|p| p.literals[0].clone());
    let mut groups = BTreeMap::new();
    for p in window {
        if url
            .as_ref()
            .is_some_and(|u| u.as_str().ok() != Some(p.url.as_str()))
        {
            continue;
        }
        let v = match query.aggregate {
            Aggregate::CountStar => 1.0,
            _ => p.bytes_down as f64,
        };
        *groups.entry(p.province.clone()).or_insert(0.0) += v;
    }
    groups
}

/// The `ScanOptions` `QueryEngine::new().execute` builds for `q`, for the
/// `lake` drill-down replay.
fn scan_options(q: &Query) -> ScanOptions {
    let mut projection = vec!["province".to_string()];
    if let Aggregate::Sum(c) = &q.aggregate {
        projection.push(c.clone());
    }
    ScanOptions {
        predicate: q.predicate.clone(),
        projection: Some(projection),
        ..Default::default()
    }
}

impl Workload for LakeQuery {
    const NAME: &'static str = "lake_query";
    type Inputs = Inputs;
    type Dep = Dep;
    type Outputs = Outputs;

    fn ops(seconds: u64, quick: bool) -> usize {
        scaled(OPS_PER_SECOND, seconds, quick, 2 * WIDE_EVERY)
    }

    fn generate(seed: u64, ops: usize) -> Inputs {
        let mut gen = PacketGen::new(seed, T0, PACKETS_PER_SEC);
        let packets = gen.batch(BATCHES * ROWS_PER_BATCH);
        let rows: Vec<Row> = packets.iter().map(Packet::to_row).collect();
        let wire_bytes = packets.iter().map(|p| p.to_wire().len() as u64).sum();
        // The url universe, hottest first (ties by name, so the order is a
        // function of the data alone).
        let mut freq: BTreeMap<&str, u64> = BTreeMap::new();
        for p in &packets {
            *freq.entry(p.url.as_str()).or_insert(0) += 1;
        }
        let mut urls: Vec<(&str, u64)> = freq.into_iter().collect();
        urls.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let zipf = Zipf::new(urls.len(), 0.99);
        let mut rng = Rng::new(seed, 3);
        let mut queries = Vec::with_capacity(ops);
        let mut spans = Vec::with_capacity(ops);
        for q in 0..ops {
            if (q + 1) % WIDE_EVERY == 0 {
                let first = rng.below((PARTITIONS - WIDE_HOURS + 1) as u64) as usize;
                queries.push(wide_query(
                    hour_start(first),
                    hour_start(first + WIDE_HOURS),
                ));
                spans.push((first, WIDE_HOURS));
            } else {
                let hour = rng.below(PARTITIONS as u64) as usize;
                let url = urls[zipf.sample(&mut rng)].0;
                queries.push(Query::dau(
                    TABLE,
                    url,
                    hour_start(hour),
                    hour_start(hour + 1),
                ));
                spans.push((hour, 1));
            }
        }
        Inputs {
            packets,
            rows,
            wire_bytes,
            queries,
            spans,
        }
    }

    fn setup(inputs: &Inputs, rec: &mut Recorder) -> Dep {
        let sl = StreamLake::new(StreamLakeConfig::evaluation());
        sl.tables()
            .create_table(
                TABLE,
                PacketGen::schema(),
                Some(PartitionSpec::hourly("start_time")),
                TARGET_FILE_ROWS,
                &IoCtx::new(0),
            )
            .expect("create table");
        for (b, batch) in inputs.rows.chunks(ROWS_PER_BATCH).enumerate() {
            let ctx = IoCtx::new(b as Nanos * BATCH_SPACING);
            let op = rec.open("lake.insert", Open::ROOT, b as u64);
            let r = sl.tables().insert(TABLE, batch, &ctx);
            rec.close_bulk_write(op);
            if r.is_err() {
                rec.failed += 1;
            }
        }
        sl.sync(&IoCtx::new(BATCHES as Nanos * BATCH_SPACING))
            .expect("sync metadata");
        Dep { sl }
    }

    fn run(dep: &mut Dep, inputs: &Inputs, ops: usize, warm: usize, rec: &mut Recorder) -> Outputs {
        let sl = &dep.sl;
        let t_load = (BATCHES as Nanos + 1) * BATCH_SPACING;
        let mut out = Outputs {
            groups: Vec::with_capacity(ops),
            scans: Vec::with_capacity(ops),
        };
        let mut pass = rec.start();
        for (q, query) in inputs.queries[..ops].iter().enumerate() {
            if q == warm {
                pass = rec.start();
            }
            let ctx = ctx_at(sl, rec.traced, t_load + q as Nanos * QUERY_SPACING);
            let op = rec.open("core.query.execute", pass, q as u64);
            let result = QueryEngine::new().execute(sl.tables(), query, &ctx);
            rec.close_read(op);
            match result {
                Ok(o) => {
                    rec.virt_ns.push(o.elapsed);
                    out.groups.push(o.groups);
                    out.scans.push(o.scan);
                }
                Err(_) => {
                    rec.failed += 1;
                    out.groups.push(BTreeMap::new());
                    out.scans.push(Default::default());
                }
            }
        }
        rec.finish(pass);
        out
    }

    fn verify(_dep: &Dep, inputs: &Inputs, ops: usize, out: &Outputs) -> Verdict {
        let mut v = Verdict {
            logical_bytes: inputs.wire_bytes,
            ..Default::default()
        };
        let mut mismatched = 0u64;
        for q in 0..ops {
            let got = &out.groups[q];
            if *got == reference(inputs, q) {
                v.primary_ops += 1;
            } else {
                mismatched += 1;
            }
            for (k, x) in got {
                v.digest = v
                    .digest
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(hash_bytes(k.as_bytes()) ^ x.to_bits());
            }
        }
        v.wrong(
            mismatched,
            format!("{mismatched} query results differ from the reference aggregation"),
        );
        v
    }

    fn lake(dep: &Dep) -> &StreamLake {
        &dep.sl
    }

    fn layers(
        dep: &mut Dep,
        inputs: &Inputs,
        ops: usize,
        out: &Outputs,
        ev: &Evidence,
        l: &mut Layers,
    ) {
        let sl = &dep.sl;
        let queries = ops as f64;
        let (mut scanned, mut skipped, mut candidate, mut bytes) = (0u64, 0u64, 0u64, 0u64);
        for s in &out.scans[..ops] {
            scanned += s.files_scanned;
            skipped += s.files_skipped;
            candidate += s.files_candidate;
            bytes += s.bytes_scanned;
        }
        l.set("lake.files_scanned_per_q", scanned as f64 / queries);
        l.set("lake.bytes_scanned_per_q", bytes as f64 / queries);
        l.set("lake.skip_ratio", skipped as f64 / candidate.max(1) as f64);
        // Every PLog read of the timed phase is one data file.
        l.read_size_hint = Some(bytes / scanned.max(1));

        // `lake` replay: the same ScanOptions straight into
        // `TableStore::select` (the store is read-only here, so the replay
        // runs on the deployment itself) for the first timed queries; the
        // same queries' untraced execute latencies give core.query's self
        // time.
        let n = (ops - ev.warm).min(REPLAY_QUERIES);
        let t_replay = secs(100_000);
        let (mut select_ns, mut shipped, mut rows_scanned) = (0u64, 0u64, 0u64);
        let live = sl
            .tables()
            .live_files(TABLE, &IoCtx::new(t_replay))
            .unwrap_or_default();
        let rows_per_byte = live.iter().map(|f| f.record_count).sum::<u64>() as f64
            / live.iter().map(|f| f.bytes).sum::<u64>().max(1) as f64;
        for (q, query) in inputs.queries[ev.warm..ev.warm + n].iter().enumerate() {
            let opts = scan_options(query);
            let ctx = IoCtx::new(t_replay + q as Nanos * QUERY_SPACING);
            let t = wall::now();
            let r = sl
                .tables()
                .select(TABLE, &opts, &ctx)
                .expect("replay select");
            select_ns += wall::ns_since(t);
            shipped += r.rows.len() as u64;
            rows_scanned += (r.stats.bytes_scanned as f64 * rows_per_byte).round() as u64;
        }
        let execute_ns: u64 = ev.plain.read_ns[..n].iter().sum();
        l.set("core.query.rows_shipped_per_q", shipped as f64 / n as f64);
        l.set(
            "core.query.self_us",
            execute_ns.saturating_sub(select_ns) as f64 / n as f64 / 1e3,
        );
        l.set(
            "lake.rows_scanned_per_result_row",
            rows_scanned as f64 / shipped.max(1) as f64,
        );

        // `format` replay: the first two hours of bulk-load batches,
        // filter-scanned the way a DAU query over those hours scans them.
        let schema = PacketGen::schema();
        let batches: Vec<&[Row]> = inputs
            .rows
            .chunks(ROWS_PER_BATCH)
            .take(2 * FILES_PER_PARTITION)
            .collect();
        let province = [schema.index_of("province").expect("province column")];
        let dau = Query::dau(TABLE, &inputs.packets[0].url, hour_start(0), hour_start(2)).predicate;
        let f = layers::format_costs(
            &schema,
            TARGET_FILE_ROWS as usize,
            &batches,
            &dau,
            Some(&province),
        );
        l.set("format.encode_ns_per_row", f.encode_ns_per_row);
        l.set("format.decode_ns_per_row", f.decode_ns_per_row);
        l.set("format.filter_scan_ns_per_row", f.filter_ns_per_row);
        let wire: u64 = inputs.packets[..f.rows as usize]
            .iter()
            .map(|p| p.to_wire().len() as u64)
            .sum();
        l.set(
            "format.bytes_per_wire_byte",
            f.encoded_bytes as f64 / wire.max(1) as f64,
        );

        let (insert_ns, floor_us) = layers::lake_insert_costs(
            &schema,
            Some(PartitionSpec::hourly("start_time")),
            TARGET_FILE_ROWS,
            &batches,
        );
        l.set("lake.insert_ns_per_row", insert_ns);
        l.set("lake.commit_floor_us", floor_us);
        layers::lake_end_of_run(sl, &[(TABLE, layers::before_all_time())], l);

        // Ledger: the replayed prefix scaled to the whole pass. Below
        // `lake` sit `format` (rows scanned × filter-scan cost) and the
        // PLog reads of the data files.
        let total_execute = ev.span_ns("core.query.execute");
        let select_share = (select_ns as f64 / execute_ns.max(1) as f64).min(1.0);
        let lake_inclusive = total_execute * select_share;
        let format_ns = ev.timed_share * bytes as f64 * rows_per_byte * f.filter_ns_per_row;
        let plog_ns =
            ev.timed_share * scanned as f64 * l.plog_costs(bytes / scanned.max(1)).read_ns;
        l.credit("core.query", total_execute - lake_inclusive);
        l.credit("format", format_ns);
        l.credit("lake", lake_inclusive - format_ns - plog_ns);
        l.notes.push(format!(
            "  lake inclusive = select replay, {:.0}% of execute over the first {n} timed queries",
            100.0 * select_share
        ));
    }
}
