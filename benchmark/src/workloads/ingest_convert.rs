//! `ingest_convert` — the one-copy pipeline: stream in, convert to table,
//! query fresh rows, with maintenance running.
//!
//! Each round is one virtual second: [`PACKETS_PER_ROUND`] packets are
//! sent (`Producer::send` + `flush`) into a 4-partition topic configured
//! with `convert_2_table` (`delete_msg = true`); then each partition's
//! `ConversionTask::run(force)` is timed on its own (write op: partition
//! batch → data file → table commit) and followed by a freshness
//! `Query::dau` over the trailing 10 virtual seconds (read op); then
//! `StreamLake::run_maintenance_until(now)` runs whatever chores are due.
//! This is the write side of `lake`/`format` beside reads over many small
//! files, and the only workload where background work completes many
//! cycles.

use super::{ctx_at, maintain, scaled, Verdict, Workload, T0};
use crate::layers::{self, Evidence, Layers};
use crate::rng::{hash_bytes, Rng, Zipf};
use crate::trace::Recorder;
use crate::wall;
use common::clock::{secs, Nanos};
use common::ctx::IoCtx;
use format::{Expr, Row};
use lake::conversion::ConversionTask;
use lake::PartitionSpec;
use std::collections::BTreeMap;
use stream::config::ConvertToTable;
use stream::object::ReadCtrl;
use stream::record::Record;
use stream::{partition_for_key, Producer, TopicConfig};
use streamlake::{Aggregate, Query, QueryEngine, StreamLake, StreamLakeConfig};
use workloads::packets::{Packet, PacketGen};

const TOPIC: &str = "dpi-in";
const TABLE: &str = "dpi_log";
const PARTITIONS: u32 = 4;
/// Packets per round; a round is one virtual second.
const PACKETS_PER_ROUND: usize = 125;
const TARGET_FILE_ROWS: u64 = 4096;
/// The freshness query looks this many virtual seconds back.
const FRESH_WINDOW_S: i64 = 10;
/// Rounds per second of `--seconds` budget.
const OPS_PER_SECOND: usize = 30;
/// Rounds the drill-down replays cover.
const REPLAY_ROUNDS: usize = 24;

pub struct IngestConvert;

pub struct Inputs {
    packets: Vec<Packet>,
    /// Each packet's stream key and wire form, as the producer sends them.
    keys: Vec<Vec<u8>>,
    wires: Vec<Vec<u8>>,
    /// Stream partition of each packet (the key-hash partitioner's choice).
    partition: Vec<u32>,
    /// The url each freshness query asks about: `[round][partition]`.
    urls: Vec<[String; PARTITIONS as usize]>,
}

pub struct Dep {
    sl: StreamLake,
    producer: Producer,
    tasks: Vec<ConversionTask>,
}

#[derive(Default)]
pub struct Outputs {
    fresh: Vec<BTreeMap<String, f64>>,
    scans: Vec<lake::table::ScanStats>,
    converted: u64,
    final_count: f64,
}

fn conversion_config() -> ConvertToTable {
    ConvertToTable {
        table_schema: vec!["url:utf8".into(), "start_time:int64".into()],
        table_path: format!("/tables/{TABLE}"),
        delete_msg: true,
        enabled: true,
        ..Default::default()
    }
}

fn parse(r: &Record) -> common::Result<Row> {
    Ok(Packet::from_wire(&r.value)?.to_row())
}

fn round_start(round: usize) -> Nanos {
    secs(round as u64)
}

fn fresh_query(url: &str, round: usize) -> Query {
    let hi = T0 + round as i64 + 1;
    Query::dau(TABLE, url, hi - FRESH_WINDOW_S, hi)
}

fn count_all() -> Query {
    Query {
        table: TABLE.to_string(),
        predicate: Expr::True,
        group_by: None,
        aggregate: Aggregate::CountStar,
    }
}

fn bring_up() -> Dep {
    let sl = StreamLake::new(StreamLakeConfig::evaluation());
    let mut topic = TopicConfig::with_partitions(PARTITIONS);
    topic.convert_2_table = conversion_config();
    sl.stream()
        .create_topic(TOPIC, topic)
        .expect("create topic");
    sl.tables()
        .create_table(
            TABLE,
            PacketGen::schema(),
            Some(PartitionSpec::hourly("start_time")),
            TARGET_FILE_ROWS,
            &IoCtx::new(0),
        )
        .expect("create table");
    let tasks = sl
        .stream()
        .dispatcher()
        .topic_partitions(TOPIC)
        .expect("topic routes")
        .iter()
        .map(|route| {
            let object = sl
                .stream()
                .dispatcher()
                .object_of(route)
                .expect("partition object");
            ConversionTask::new(object, TABLE, conversion_config(), Box::new(parse))
        })
        .collect();
    let producer = sl.producer();
    Dep {
        sl,
        producer,
        tasks,
    }
}

impl Workload for IngestConvert {
    const NAME: &'static str = "ingest_convert";
    type Inputs = Inputs;
    type Dep = Dep;
    type Outputs = Outputs;

    fn ops(seconds: u64, quick: bool) -> usize {
        scaled(OPS_PER_SECOND, seconds, quick, 12)
    }

    fn generate(seed: u64, rounds: usize) -> Inputs {
        let mut gen = PacketGen::new(seed, T0, PACKETS_PER_ROUND as u64);
        let packets = gen.batch(rounds * PACKETS_PER_ROUND);
        let keys: Vec<Vec<u8>> = packets.iter().map(Packet::key).collect();
        let wires: Vec<Vec<u8>> = packets.iter().map(Packet::to_wire).collect();
        let partition = keys
            .iter()
            .map(|k| partition_for_key(k, PARTITIONS))
            .collect();
        let mut freq: BTreeMap<&str, u64> = BTreeMap::new();
        for p in &packets {
            *freq.entry(p.url.as_str()).or_insert(0) += 1;
        }
        let mut by_heat: Vec<(&str, u64)> = freq.into_iter().collect();
        by_heat.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let zipf = Zipf::new(by_heat.len(), 0.99);
        let mut rng = Rng::new(seed, 4);
        let urls = (0..rounds)
            .map(|_| std::array::from_fn(|_| by_heat[zipf.sample(&mut rng)].0.to_string()))
            .collect();
        Inputs {
            packets,
            keys,
            wires,
            partition,
            urls,
        }
    }

    fn setup(_inputs: &Inputs, _rec: &mut Recorder) -> Dep {
        bring_up()
    }

    fn run(
        dep: &mut Dep,
        inputs: &Inputs,
        rounds: usize,
        warm: usize,
        rec: &mut Recorder,
    ) -> Outputs {
        let traced = rec.traced;
        let mut out = Outputs::default();
        let mut pass = rec.start();
        for round in 0..rounds {
            if round == warm {
                pass = rec.start();
            }
            let req = round as u64;
            let now = round_start(round);
            let ctx = ctx_at(&dep.sl, traced, now);
            for i in round * PACKETS_PER_ROUND..(round + 1) * PACKETS_PER_ROUND {
                let (key, wire) = (inputs.keys[i].clone(), inputs.wires[i].clone());
                let producer = &mut dep.producer;
                rec.attempted += 1;
                if rec
                    .child("stream.producer.send", pass, req, || {
                        producer.send(TOPIC, key, wire, &ctx)
                    })
                    .is_err()
                {
                    rec.failed += 1;
                }
            }
            let producer = &mut dep.producer;
            if rec
                .child("stream.producer.flush", pass, req, || producer.flush(&ctx))
                .is_err()
            {
                rec.failed += 1;
            }
            for (part, task) in dep.tasks.iter_mut().enumerate() {
                let op = rec.open("lake.conversion.run", pass, req);
                let report = task.run(dep.sl.tables(), &ctx, true);
                rec.close_write(op);
                match report {
                    Ok(Some(r)) => {
                        out.converted += r.records_converted;
                        rec.virt_ns.push(r.commit.finished_at.saturating_sub(now));
                    }
                    Ok(None) => {}
                    Err(_) => rec.failed += 1,
                }
                let query = fresh_query(&inputs.urls[round][part], round);
                let op = rec.open("core.query.execute", pass, req);
                let result = QueryEngine::new().execute(dep.sl.tables(), &query, &ctx);
                rec.close_read(op);
                match result {
                    Ok(o) => {
                        out.fresh.push(o.groups);
                        out.scans.push(o.scan);
                    }
                    Err(_) => {
                        rec.failed += 1;
                        out.fresh.push(BTreeMap::new());
                        out.scans.push(Default::default());
                    }
                }
            }
            maintain(&dep.sl, now, pass, req, rec);
        }
        let ctx = ctx_at(&dep.sl, traced, round_start(rounds));
        rec.attempted += 1;
        match QueryEngine::new().execute(dep.sl.tables(), &count_all(), &ctx) {
            Ok(o) => out.final_count = o.groups.get("").copied().unwrap_or(0.0),
            Err(_) => rec.failed += 1,
        }
        rec.finish(pass);
        out
    }

    fn verify(_dep: &Dep, inputs: &Inputs, rounds: usize, out: &Outputs) -> Verdict {
        let mut v = Verdict::default();
        let total = (rounds * PACKETS_PER_ROUND) as u64;
        v.logical_bytes = inputs.wires[..total as usize]
            .iter()
            .map(|w| w.len() as u64)
            .sum();
        // The freshness query after converting partition `part` in round
        // `round` sees every packet of earlier rounds plus this round's
        // packets of partitions `..= part`, inside the trailing window.
        let mut mismatched = 0u64;
        for round in 0..rounds {
            let first_round = (round + 1).saturating_sub(FRESH_WINDOW_S as usize);
            for part in 0..PARTITIONS as usize {
                let url = &inputs.urls[round][part];
                let mut want: BTreeMap<String, f64> = BTreeMap::new();
                for i in first_round * PACKETS_PER_ROUND..(round + 1) * PACKETS_PER_ROUND {
                    let p = &inputs.packets[i];
                    let this_round = i >= round * PACKETS_PER_ROUND;
                    if p.url == *url && !(this_round && inputs.partition[i] as usize > part) {
                        *want.entry(p.province.clone()).or_insert(0.0) += 1.0;
                    }
                }
                let got = &out.fresh[round * PARTITIONS as usize + part];
                if *got != want {
                    mismatched += 1;
                }
                for (k, x) in got {
                    v.digest = v
                        .digest
                        .wrapping_mul(0x100_0000_01b3)
                        .wrapping_add(hash_bytes(k.as_bytes()) ^ x.to_bits());
                }
            }
        }
        v.wrong(
            mismatched,
            format!("{mismatched} freshness results differ from the reference"),
        );
        if out.final_count != total as f64 {
            v.wrong(
                1,
                format!(
                    "final COUNT(*) is {} but {total} packets were sent",
                    out.final_count
                ),
            );
        }
        if out.converted != total {
            v.wrong(
                1,
                format!("{} records converted of {total} sent", out.converted),
            );
        }
        v.primary_ops = if v.wrong == 0 { total } else { 0 };
        v.digest = v.digest.wrapping_add(out.final_count.to_bits());
        v
    }

    fn lake(dep: &Dep) -> &StreamLake {
        &dep.sl
    }

    fn layers(
        dep: &mut Dep,
        inputs: &Inputs,
        rounds: usize,
        out: &Outputs,
        ev: &Evidence,
        l: &mut Layers,
    ) {
        let queries = out.scans.len().max(1) as f64;
        let (mut scanned, mut skipped, mut candidate, mut bytes) = (0u64, 0u64, 0u64, 0u64);
        for s in &out.scans {
            scanned += s.files_scanned;
            skipped += s.files_skipped;
            candidate += s.files_candidate;
            bytes += s.bytes_scanned;
        }
        l.set("lake.files_scanned_per_q", scanned as f64 / queries);
        l.set("lake.bytes_scanned_per_q", bytes as f64 / queries);
        l.set("lake.skip_ratio", skipped as f64 / candidate.max(1) as f64);
        l.set("kvstore.commit_ratio", 1.0);

        // Drill-down replays over the first rounds, each on a fresh
        // instance: `stream` (send + flush, then the offsets conversion
        // read), `lake` (the same row batches straight into insert),
        // `format` (the same batches encoded and scanned).
        let n = rounds.min(REPLAY_ROUNDS);
        let packets = &inputs.packets[..n * PACKETS_PER_ROUND];
        let mut fresh = bring_up();
        let mut send_ns = 0u64;
        let mut read_ns = 0u64;
        let mut read_records = 0u64;
        for round in 0..n {
            let ctx = IoCtx::new(round_start(round));
            let t = wall::now();
            for i in round * PACKETS_PER_ROUND..(round + 1) * PACKETS_PER_ROUND {
                fresh
                    .producer
                    .send(TOPIC, inputs.keys[i].clone(), inputs.wires[i].clone(), &ctx)
                    .expect("replay send");
            }
            fresh.producer.flush(&ctx).expect("replay flush");
            send_ns += wall::ns_since(t);
            for route in fresh
                .sl
                .stream()
                .dispatcher()
                .topic_partitions(TOPIC)
                .expect("routes")
            {
                let object = fresh
                    .sl
                    .stream()
                    .dispatcher()
                    .object_of(&route)
                    .expect("object");
                let from = object.end_offset().saturating_sub(PACKETS_PER_ROUND as u64);
                let t = wall::now();
                let (records, _) = object
                    .read_at(from, ReadCtrl::default(), &ctx)
                    .expect("replay read");
                read_ns += wall::ns_since(t);
                read_records += records.len() as u64;
            }
        }
        drop(fresh);
        let sent = packets.len() as f64;
        l.set("stream.produce_ns_per_rec", send_ns as f64 / sent);
        l.set(
            "stream.read_ns_per_rec",
            read_ns as f64 / read_records.max(1) as f64,
        );

        // The row batches conversion inserted: one per (round, partition).
        let mut batches: Vec<Vec<Row>> = vec![Vec::new(); n * PARTITIONS as usize];
        for (i, p) in packets.iter().enumerate() {
            batches[i / PACKETS_PER_ROUND * PARTITIONS as usize + inputs.partition[i] as usize]
                .push(p.to_row());
        }
        let batch_refs: Vec<&[Row]> = batches
            .iter()
            .map(Vec::as_slice)
            .filter(|b| !b.is_empty())
            .collect();
        let schema = PacketGen::schema();
        let province = [schema.index_of("province").expect("province column")];
        let dau = fresh_query(&inputs.urls[0][0], 0).predicate;
        let f = layers::format_costs(
            &schema,
            TARGET_FILE_ROWS as usize,
            &batch_refs,
            &dau,
            Some(&province),
        );
        l.set("format.encode_ns_per_row", f.encode_ns_per_row);
        l.set("format.decode_ns_per_row", f.decode_ns_per_row);
        l.set("format.filter_scan_ns_per_row", f.filter_ns_per_row);
        let wire: u64 = inputs.wires[..packets.len()]
            .iter()
            .map(|w| w.len() as u64)
            .sum();
        l.set(
            "format.bytes_per_wire_byte",
            f.encoded_bytes as f64 / wire.max(1) as f64,
        );
        let (insert_ns, floor_us) = layers::lake_insert_costs(
            &schema,
            Some(PartitionSpec::hourly("start_time")),
            TARGET_FILE_ROWS,
            &batch_refs,
        );
        l.set("lake.insert_ns_per_row", insert_ns);
        l.set("lake.commit_floor_us", floor_us);
        let parse_t = wall::now();
        for w in &inputs.wires[..packets.len()] {
            std::hint::black_box(Packet::from_wire(w).expect("wire round trip").to_row());
        }
        let parse_ns_per_row = wall::ns_since(parse_t) as f64 / sent;

        layers::lake_end_of_run(&dep.sl, &[(TABLE, layers::before_all_time())], l);

        // Ledger. Rows, files, slices and scanned bytes of the timed rounds,
        // priced with the per-unit replay costs above.
        let timed_rounds = (rounds - ev.warm) as f64;
        let rows = timed_rounds * PACKETS_PER_ROUND as f64;
        let files = timed_rounds * PARTITIONS as f64;
        let (bytes, scanned) = (
            ev.timed_share * bytes as f64,
            ev.timed_share * scanned as f64,
        );
        let file_bytes = (f.encoded_bytes as f64 / batch_refs.len().max(1) as f64) as u64;
        let slice_bytes = (wire as f64 / n as f64 / PARTITIONS as f64) as u64;
        let slice_costs = l.plog_costs(slice_bytes);
        let file_costs = l.plog_costs(file_bytes);
        // stream: send+flush and the conversion's read, minus the slice
        // appends/reads one level below.
        let stream_incl =
            rows * (send_ns as f64 / sent + read_ns as f64 / read_records.max(1) as f64);
        l.credit(
            "stream",
            stream_incl - files * (slice_costs.append_ns + slice_costs.read_ns),
        );
        // lake: insert replay minus format encode and the file append;
        // planning and file opens of the queries are in core.query's spans.
        let format_write_ns = rows * f.encode_ns_per_row;
        l.credit(
            "lake",
            rows * insert_ns - format_write_ns - files * file_costs.append_ns,
        );
        let rows_per_byte = rows / (files * file_bytes.max(1) as f64);
        let format_read_ns = bytes * rows_per_byte * f.filter_ns_per_row;
        l.credit("format", format_write_ns + format_read_ns);
        l.credit("driver", rows * parse_ns_per_row);
        // Foreground PLog reads: one slice per conversion, plus every data
        // file the freshness queries scanned (small until compaction
        // merges them).
        let scanned_costs = l.plog_costs((bytes / scanned.max(1.0)) as u64);
        l.read_size_hint =
            Some(((bytes + files * slice_bytes as f64) / (scanned + files).max(1.0)) as u64);
        let execute_ns = ev.span_ns("core.query.execute");
        l.credit(
            "core.query",
            execute_ns - format_read_ns - scanned * scanned_costs.read_ns,
        );
        l.notes.push(
            "  core.query here includes lake planning and file opens (no select replay: the table changes every round); \
             driver includes the conversion's record parser"
                .to_string(),
        );
    }
}
