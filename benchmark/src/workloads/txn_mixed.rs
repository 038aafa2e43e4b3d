//! `txn_mixed` — cross-subsystem transactions over a growing history.
//!
//! Every round one `StreamLake::transaction()` sends 4 records of 256 B
//! and inserts 16 rows into the unpartitioned table `facts`, then commits
//! (write op: begin → commit). Every 8th round a competing transaction
//! stages an insert on `facts` first-come-second and must get
//! `Error::Conflict` and abort — the expected outcome, not a failure.
//! Every 5th round a snapshot `TableStore::select` of the round just
//! committed (read op) and a committed-only `Consumer::poll(64)`. Rounds
//! arrive on a Poisson schedule in virtual time (10 ms apart on average,
//! drawn from the seed) and each runs the maintenance due by then.
//! Coordination and metadata bound: `core.txn`, `kvstore` MVCC + WAL,
//! `stream::txn`, `lake` stage/apply and planning over thousands of
//! one-commit files; `format` and `ec` are nearly idle. Cost grows with
//! history, so version GC and journal bounding show here.

use super::{ctx_at, maintain, scaled, Verdict, Workload};
use crate::layers::{self, Evidence, Layers, STRIPE_SHARDS};
use crate::rng::{hash_bytes, Rng};
use crate::trace::Recorder;
use common::clock::{millis, Nanos};
use common::ctx::IoCtx;
use common::Error;
use format::{CmpOp, DataType, Expr, Field, Predicate, Row, Schema, Value};
use lake::ScanOptions;
use stream::{Consumer, TopicConfig};
use streamlake::{StreamLake, StreamLakeConfig};

const TOPIC: &str = "events";
const TABLE: &str = "facts";
const GROUP: &str = "audit";
const PARTITIONS: u32 = 4;
const SENDS: usize = 4;
const VALUE_BYTES: usize = 256;
const ROWS: usize = 16;
const CONFLICT_EVERY: usize = 8;
const READ_EVERY: usize = 5;
const POLL_MAX: usize = 64;
/// Mean virtual time between rounds.
const ROUND_SPACING: Nanos = millis(10);
/// Transactions per second of `--seconds` budget.
const OPS_PER_SECOND: usize = 1_200;

pub struct TxnMixed;

pub struct Inputs {
    /// Virtual start time of each round (exponential gaps), plus the end.
    starts: Vec<Nanos>,
    /// `SENDS` values per round.
    values: Vec<Vec<u8>>,
}

pub struct Dep {
    sl: StreamLake,
    consumer: Consumer,
}

#[derive(Default)]
pub struct Outputs {
    committed: u64,
    conflicts_seen: u64,
    conflicts_designed: u64,
    /// Rows each snapshot select returned, with the round it asked about.
    selected: Vec<(usize, Vec<Row>)>,
    polled: Vec<Vec<u8>>,
    final_rows: u64,
    pending_intents: usize,
    active_txns: usize,
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Utf8),
        Field::new("n", DataType::Int64),
    ])
    .expect("static schema is valid")
}

fn rows_of(round: usize) -> Vec<Row> {
    (0..ROWS)
        .map(|i| {
            vec![
                Value::from(format!("r{round}-{i}")),
                Value::Int(round as i64),
            ]
        })
        .collect()
}

fn key_of(round: usize, i: usize) -> Vec<u8> {
    format!("k{round}-{i}").into_bytes()
}

fn round_is(n: i64) -> Expr {
    Expr::Pred(Predicate::cmp("n", CmpOp::Eq, n))
}

impl Workload for TxnMixed {
    const NAME: &'static str = "txn_mixed";
    type Inputs = Inputs;
    type Dep = Dep;
    type Outputs = Outputs;

    fn ops(seconds: u64, quick: bool) -> usize {
        scaled(OPS_PER_SECOND, seconds, quick, 4 * CONFLICT_EVERY)
    }

    fn generate(seed: u64, rounds: usize) -> Inputs {
        let mut rng = Rng::new(seed, 5);
        let values = (0..rounds * SENDS)
            .map(|i| {
                let mut v = vec![0u8; VALUE_BYTES];
                rng.fill(&mut v);
                v[..8].copy_from_slice(&(i as u64).to_le_bytes());
                v
            })
            .collect();
        let mut gap_rng = Rng::new(seed, 7);
        let mut now: Nanos = 0;
        let starts = (0..=rounds)
            .map(|_| {
                now += gap_rng.exp(ROUND_SPACING as f64) as Nanos;
                now
            })
            .collect();
        Inputs { starts, values }
    }

    fn setup(_inputs: &Inputs, _rec: &mut Recorder) -> Dep {
        let sl = StreamLake::new(StreamLakeConfig::evaluation());
        sl.stream()
            .create_topic(TOPIC, TopicConfig::with_partitions(PARTITIONS))
            .expect("create topic");
        sl.tables()
            .create_table(TABLE, schema(), None, 4096, &IoCtx::new(0))
            .expect("create table");
        let mut consumer = sl.consumer(GROUP);
        consumer.subscribe(TOPIC).expect("subscribe");
        Dep { sl, consumer }
    }

    fn run(
        dep: &mut Dep,
        inputs: &Inputs,
        rounds: usize,
        warm: usize,
        rec: &mut Recorder,
    ) -> Outputs {
        let traced = rec.traced;
        let sl = &dep.sl;
        let mut out = Outputs::default();
        let mut pass = rec.start();
        for round in 0..rounds {
            if round == warm {
                pass = rec.start();
            }
            let req = round as u64;
            let now = inputs.starts[round];
            let ctx = ctx_at(sl, traced, now);
            let rows = rows_of(round);

            let op = rec.open("core.txn", pass, req);
            let mut txn = rec.child("core.txn.begin", op, req, || sl.transaction());
            let mut ok = true;
            for i in 0..SENDS {
                let (key, value) = (key_of(round, i), inputs.values[round * SENDS + i].clone());
                ok &= rec
                    .child("core.txn.send", op, req, || {
                        txn.send(TOPIC, key, value, &ctx)
                    })
                    .is_ok();
            }
            ok &= rec
                .child("core.txn.insert", op, req, || {
                    txn.insert(TABLE, &rows, &ctx)
                })
                .is_ok();
            if round % CONFLICT_EVERY == CONFLICT_EVERY - 1 {
                // A competitor stages on the same table while ours holds
                // the head intent: it must lose with Error::Conflict.
                out.conflicts_designed += 1;
                rec.attempted += 1;
                let mut rival = sl.transaction();
                let staged = rec.child("core.txn.insert", op, req, || {
                    rival.insert(TABLE, &rows, &ctx)
                });
                match staged {
                    Err(Error::Conflict(_)) => out.conflicts_seen += 1,
                    _ => rec.failed += 1,
                }
                if rival.abort().is_err() {
                    rec.failed += 1;
                }
            }
            let decided = ok
                && rec
                    .child("core.txn.decide", op, req, || txn.decide(&ctx))
                    .is_ok();
            let resolved =
                decided.then(|| rec.child("core.txn.resolve", op, req, || txn.resolve(&ctx)));
            rec.close_write(op);
            match resolved {
                Some(Ok(infos)) => {
                    out.committed += 1;
                    if let Some(info) = infos.first() {
                        rec.virt_ns.push(info.finished_at.saturating_sub(now));
                    }
                }
                _ => rec.failed += 1,
            }
            drop(txn);

            if round % READ_EVERY == READ_EVERY - 1 {
                let opts = ScanOptions::filtered(round_is(round as i64));
                let op = rec.open("lake.select", pass, req);
                let r = sl.tables().select(TABLE, &opts, &ctx);
                rec.close_read(op);
                match r {
                    Ok(r) => out.selected.push((round, r.rows)),
                    Err(_) => rec.failed += 1,
                }
                rec.attempted += 1;
                let consumer = &mut dep.consumer;
                match rec.child("stream.consumer.poll", pass, req, || {
                    consumer.poll(POLL_MAX, &ctx)
                }) {
                    Ok(records) => out
                        .polled
                        .extend(records.into_iter().map(|r| r.record.value)),
                    Err(_) => rec.failed += 1,
                }
            }
            maintain(sl, now, pass, req, rec);
        }
        // Drain the committed stream and count the table.
        let end = ctx_at(sl, traced, inputs.starts[rounds]);
        let mut empty = 0;
        while empty < 3 {
            rec.attempted += 1;
            match dep.consumer.poll(POLL_MAX, &end) {
                Ok(records) if records.is_empty() => empty += 1,
                Ok(records) => {
                    empty = 0;
                    out.polled
                        .extend(records.into_iter().map(|r| r.record.value));
                }
                Err(_) => {
                    rec.failed += 1;
                    break;
                }
            }
        }
        rec.attempted += 1;
        match sl.tables().select(TABLE, &ScanOptions::default(), &end) {
            Ok(r) => out.final_rows = r.rows.len() as u64,
            Err(_) => rec.failed += 1,
        }
        out.pending_intents = sl.mvcc().pending_intents();
        out.active_txns = sl.stream().txns().active_count();
        rec.finish(pass);
        out
    }

    fn verify(_dep: &Dep, inputs: &Inputs, rounds: usize, out: &Outputs) -> Verdict {
        let mut v = Verdict::default();
        let sends = rounds * SENDS;
        v.logical_bytes = (0..rounds)
            .map(|r| {
                let stream: usize = (0..SENDS).map(|i| key_of(r, i).len() + VALUE_BYTES).sum();
                let table: usize = (0..ROWS).map(|i| format!("r{r}-{i}").len() + 8).sum();
                (stream + table) as u64
            })
            .sum();
        if out.committed != rounds as u64 {
            v.wrong(
                1,
                format!("{} of {rounds} transactions committed", out.committed),
            );
        }
        if out.conflicts_seen != out.conflicts_designed {
            v.wrong(
                1,
                format!(
                    "{} of {} designed conflicts seen",
                    out.conflicts_seen, out.conflicts_designed
                ),
            );
        }
        // Stream side: every committed send visible exactly once.
        let mut seen = vec![false; sends];
        let (mut dup, mut alien) = (0u64, 0u64);
        for value in &out.polled {
            let idx = value
                .get(..8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")) as usize);
            match idx {
                Some(i) if i < sends && *value == inputs.values[i] => {
                    if std::mem::replace(&mut seen[i], true) {
                        dup += 1;
                    }
                    v.digest = v.digest.wrapping_add(hash_bytes(value));
                }
                _ => alien += 1,
            }
        }
        let lost = seen.iter().filter(|s| !**s).count() as u64;
        v.wrong(dup, format!("{dup} committed records polled twice"));
        v.wrong(
            lost,
            format!("{lost} committed records never polled (stream-visible != 4 x committed)"),
        );
        v.wrong(
            alien,
            format!("{alien} polled records the generator never made"),
        );
        // Table side.
        if out.final_rows != (rounds * ROWS) as u64 {
            v.wrong(
                1,
                format!(
                    "table holds {} rows, want {}",
                    out.final_rows,
                    rounds * ROWS
                ),
            );
        }
        let mut bad_selects = 0u64;
        for (round, rows) in &out.selected {
            let mut got = rows.clone();
            got.sort_by(|a, b| a[0].to_string().cmp(&b[0].to_string()));
            let mut want = rows_of(*round);
            want.sort_by(|a, b| a[0].to_string().cmp(&b[0].to_string()));
            if got != want {
                bad_selects += 1;
            }
            v.digest = v.digest.wrapping_mul(31).wrapping_add(rows.len() as u64);
        }
        v.wrong(
            bad_selects,
            format!("{bad_selects} snapshot selects returned the wrong rows"),
        );
        if out.pending_intents != 0 {
            v.wrong(1, format!("{} MVCC intents survive", out.pending_intents));
        }
        if out.active_txns != 0 {
            v.wrong(
                1,
                format!("{} stream transactions still active", out.active_txns),
            );
        }
        v.primary_ops = if v.wrong == 0 { out.committed } else { 0 };
        v
    }

    fn lake(dep: &Dep) -> &StreamLake {
        &dep.sl
    }

    fn layers(
        dep: &mut Dep,
        _inputs: &Inputs,
        rounds: usize,
        out: &Outputs,
        ev: &Evidence,
        l: &mut Layers,
    ) {
        let rec = ev.traced;
        let sl = &dep.sl;
        let attempts = (out.committed + out.conflicts_designed).max(1) as f64;
        l.set("kvstore.commit_ratio", out.committed as f64 / attempts);
        l.set("core.txn.send_us", rec.mean_us("core.txn.send"));
        l.set("core.txn.insert_us", rec.mean_us("core.txn.insert"));
        l.set("core.txn.decide_us", rec.mean_us("core.txn.decide"));
        l.set("core.txn.resolve_us", rec.mean_us("core.txn.resolve"));
        l.set(
            "stream.committed_poll_us",
            rec.mean_us("stream.consumer.poll"),
        );
        l.set("core.query.rows_shipped_per_q", ROWS as f64);
        l.set("lake.rows_scanned_per_result_row", 1.0);
        l.set("lake.files_scanned_per_q", 1.0);

        // `lake`/`format` replays over the same 16-row batches.
        let batches: Vec<Vec<Row>> = (0..rounds.min(256)).map(rows_of).collect();
        let batch_refs: Vec<&[Row]> = batches.iter().map(Vec::as_slice).collect();
        let schema = schema();
        let f = layers::format_costs(&schema, 4096, &batch_refs, &round_is(0), None);
        l.set("format.encode_ns_per_row", f.encode_ns_per_row);
        l.set("format.decode_ns_per_row", f.decode_ns_per_row);
        l.set("format.filter_scan_ns_per_row", f.filter_ns_per_row);
        let wire: usize = batches
            .iter()
            .flatten()
            .map(|r| r[0].to_string().len() + 8)
            .sum();
        l.set(
            "format.bytes_per_wire_byte",
            f.encoded_bytes as f64 / wire.max(1) as f64,
        );
        l.set(
            "lake.bytes_scanned_per_q",
            f.encoded_bytes as f64 / batches.len() as f64,
        );
        let (insert_ns, floor_us) = layers::lake_insert_costs(&schema, None, 4096, &batch_refs);
        l.set("lake.insert_ns_per_row", insert_ns);
        l.set("lake.commit_floor_us", floor_us);
        layers::lake_end_of_run(sl, &[(TABLE, round_is(i64::MAX))], l);

        // Ledger. The transaction's spans are measured; below them the
        // fresh-store replays price `lake` (one 16-row insert), `format`
        // (its encode) and `kvstore` (a bare MVCC transaction); what is
        // left of the spans is core.txn plus stream::txn, which this PR
        // cannot separate from outside.
        let txns = (rounds - ev.warm) as f64;
        // Foreground PLog traffic of the timed rounds: tiny stream slices
        // and 16-row files, close enough in size to price at their mean.
        let fg = ev.foreground();
        let appended = ev.timed_share * (fg.ssd_writes / STRIPE_SHARDS) as f64;
        let reads = ev.timed_share * (fg.ssd_reads / STRIPE_SHARDS) as f64;
        let record = l.plog_costs(fg.plog_logical / (fg.ssd_writes / STRIPE_SHARDS).max(1));
        l.read_size_hint = Some(record.size as u64);
        let selects = ev.plain.read_ns.len() as f64;
        let encode_ns = txns * ROWS as f64 * f.encode_ns_per_row;
        let lake_write_ns = txns * (ROWS as f64 * insert_ns - record.append_ns) - encode_ns;
        let kv_ns = txns * layers::mvcc_txn_us(&kvstore::MvccStore::new(), 4, 200) * 1e3;
        l.credit("format", encode_ns);
        l.credit(
            "lake",
            lake_write_ns.max(0.0) + ev.span_ns("lake.select") - selects * record.read_ns,
        );
        l.credit("kvstore", kv_ns);
        l.credit(
            "stream",
            ev.span_ns("stream.consumer.poll") - (reads - selects).max(0.0) * record.read_ns,
        );
        l.credit(
            "core.txn",
            ev.span_ns("core.txn")
                - lake_write_ns.max(0.0)
                - kv_ns
                - encode_ns
                - appended * record.append_ns,
        );
        l.notes.push(
            "  core.txn here includes stream::txn and the history-dependent part of kvstore/lake commits \
             (replays run on fresh stores; see kvstore.txn_aged_us / lake.plan_us for the aged costs)"
                .to_string(),
        );
    }
}
