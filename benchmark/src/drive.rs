//! Runs one workload end to end (`--trace 0`) or traced (`--trace 1`).

use crate::alloc;
use crate::layers::{self, Counters, Evidence, Layers, SinkStats, STRIPE_SHARDS};
use crate::spec::{self, END_TO_END};
use crate::stats;
use crate::trace::Recorder;
use crate::wall;
use crate::workloads::{Verdict, Workload};
use streamlake::StreamLake;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for totals and ratios).
    pub n: usize,
}

/// The outcome of one invocation.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines (check failures, ledger) for stderr.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all the digits measured.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Passes per run. Every pass repeats the same operations on a deployment
/// of its own — bring-up, preload, warm-up, timed phase — and every
/// wall-clock metric is the median over the passes.
pub const PASSES: usize = 5;

/// The leading operations of a pass that are its warm-up (5 %): they run
/// on the pass's own deployment, before the clock starts.
fn warm_ops(ops: usize) -> usize {
    ops / 20
}

/// Verified primary ops of the timed phase alone (primary ops are spread
/// evenly over a pass's operations, warm-up included).
fn timed_primary(verdict: &Verdict, ops: usize) -> f64 {
    verdict.primary_ops as f64 * (ops - warm_ops(ops)) as f64 / ops.max(1) as f64
}

fn check(rec: &Recorder, verdict: &Verdict) -> (bool, u64) {
    let failed = rec.failed + verdict.wrong;
    (failed == 0 && verdict.primary_ops > 0, failed)
}

/// The end-to-end run: tracing off, sink-less contexts.
pub fn end_to_end<W: Workload>(args: &RunArgs) -> RunResult {
    let ops = W::ops(args.seconds, args.quick);
    let t = wall::now();
    let inputs = W::generate(args.seed, ops);
    let generate_s = wall::secs_since(t);

    // Wall-clock metrics are taken per pass and reported as the median over
    // the passes, so a pass the host disturbed does not move them.
    let mut per_pass: [Vec<f64>; 6] = Default::default();
    let (mut write_n, mut read_n, mut virt_n, mut attempted) = (0usize, 0usize, 0usize, 0u64);
    let (mut timed_s, mut failed, mut all_correct) = (0.0, 0u64, true);
    let mut notes = Vec::new();
    // Pure functions of the seed: every pass must reproduce them exactly.
    let mut exact: Option<(u64, f64, f64)> = None;
    let mut primary = 0u64;
    // `VmHWM` when the first pass ends: the inputs plus one deployment's
    // whole life. Later passes only add what the allocator's per-thread
    // arenas happen to retain, which differs from run to run.
    let mut peak_rss_mb = 0.0;
    for pass in 0..PASSES {
        let mut rec = Recorder::new(false);
        let t = wall::now();
        let mut dep = W::setup(&inputs, &mut rec);
        let out = W::run(&mut dep, &inputs, ops, warm_ops(ops), &mut rec);
        // Set-up is everything before the timed phase began: bring-up,
        // preload and the warm-up operations.
        let setup_s = wall::secs_since(t) - rec.wall_ns as f64 / 1e9;
        let verdict = W::verify(&dep, &inputs, ops, &out);
        let physical = W::lake(&dep).physical_bytes();
        drop(out);
        drop(dep);
        if pass == 0 {
            peak_rss_mb = wall::peak_rss_mb().unwrap_or(0.0);
        }

        let (ok, bad) = check(&rec, &verdict);
        all_correct &= ok;
        failed += bad;
        let timed_ops = timed_primary(&verdict, ops);
        primary += timed_ops as u64;
        notes.extend(verdict.notes.iter().map(|n| format!("pass {pass}: {n}")));
        let wall_s = rec.wall_ns as f64 / 1e9;
        timed_s += wall_s;
        // A workload whose timed phase writes nothing (lake_query) reports
        // the write ops of its set-up.
        let writes = if rec.write_ns.is_empty() {
            &rec.bulk_ns
        } else {
            &rec.write_ns
        };
        let (write_p50, write_p99) = stats::p50_p99_us(writes);
        let (read_p50, read_p99) = stats::p50_p99_us(&rec.read_ns);
        let rate = timed_ops / wall_s;
        notes.push(format!(
            "pass {pass}: set-up {setup_s:.3}s, timed {wall_s:.3}s, {rate:.1} ops/s, write p50 {write_p50:.1} p99 {write_p99:.1} us, read p50 {read_p50:.1} p99 {read_p99:.1} us"
        ));
        for (slot, v) in per_pass
            .iter_mut()
            .zip([setup_s, rate, write_p50, write_p99, read_p50, read_p99])
        {
            slot.push(v);
        }
        write_n += writes.len();
        read_n += rec.read_ns.len();
        virt_n = rec.virt_ns.len();
        attempted += rec.attempted;
        rec.virt_ns.sort_unstable();
        let this = (
            verdict.digest,
            stats::percentile(&rec.virt_ns, 0.99) as f64 / 1e3,
            physical as f64 / verdict.logical_bytes.max(1) as f64,
        );
        if *exact.get_or_insert(this) != this {
            all_correct = false;
            failed += 1;
            notes.push(format!(
                "pass {pass}: digest, virt_p99_us or space_amp differs from pass 0"
            ));
        }
    }
    let (digest, virt_p99, space_amp) = exact.unwrap_or_default();
    let [setups, rates, write_p50, write_p99, read_p50, read_p99] =
        per_pass.map(|v| stats::median(&v));
    let value_of = |name: &str| -> (f64, usize) {
        match name {
            "setup_s" => (setups, PASSES),
            "ops_per_s" => (rates, primary as usize),
            "write_p50_us" => (write_p50, write_n),
            "write_p99_us" => (write_p99, write_n),
            "read_p50_us" => (read_p50, read_n),
            "read_p99_us" => (read_p99, read_n),
            "virt_p99_us" => (virt_p99, virt_n),
            "space_amp" => (space_amp, 1),
            "peak_rss_mb" => (peak_rss_mb, 1),
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let (value, n) = value_of(m.name);
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                n,
            }
        })
        .collect();
    notes.push(format!(
        "{}: seed {} passes {PASSES} x {} ops, generate {:.2}s timed {:.2}s fail_ratio {:.6} digest {:016x}",
        W::NAME,
        args.seed,
        ops,
        generate_s,
        timed_s,
        failed as f64 / attempted.max(1) as f64,
        digest
    ));
    RunResult {
        workload: W::NAME,
        correct: all_correct,
        attempted: attempted.max(1),
        failed,
        metrics,
        notes,
    }
}

/// Where trace files go: `benchmark/out/` of the checkout this binary was
/// built in.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"))
}

/// The traced run: a reference pass with tracing off (wall, per-op
/// latencies, allocations, counts — the program behaves as in the
/// end-to-end run), then the same seed again with boundary spans recorded
/// and the deployment's `SpanSink` attached, then the drill-down replays.
pub fn traced<W: Workload>(args: &RunArgs) -> RunResult {
    let ops = W::ops(args.seconds, args.quick);
    let inputs = W::generate(args.seed, ops);
    let warm = warm_ops(ops);

    // Traced pass first, so its deployment is gone before the reference
    // one is probed.
    let mut dep = W::setup(&inputs, &mut Recorder::new(false));
    let mut rec = Recorder::new(true);
    let out = W::run(&mut dep, &inputs, ops, warm, &mut rec);
    let traced_verdict = W::verify(&dep, &inputs, ops, &out);
    let sink = SinkStats::take(W::lake(&dep));
    drop(out);
    drop(dep);

    // Reference pass: allocations and public counters taken around the
    // pass (warm-up included, like the primary ops they are divided by),
    // counters also around each maintenance call.
    let mut dep = W::setup(&inputs, &mut Recorder::new(false));
    let mut plain = Recorder::new(false);
    plain.split_io = true;
    let c0 = Counters::take(W::lake(&dep));
    let before = alloc::counts();
    alloc::set_enabled(true);
    let out = W::run(&mut dep, &inputs, ops, warm, &mut plain);
    alloc::set_enabled(false);
    let after = alloc::counts();
    let delta = Counters::take(W::lake(&dep)).since(&c0);
    let verdict = W::verify(&dep, &inputs, ops, &out);
    let (ok_traced, failed_traced) = check(&rec, &traced_verdict);
    let (ok_plain, failed_plain) = check(&plain, &verdict);
    let (correct, failed) = (ok_traced && ok_plain, failed_traced + failed_plain);

    let timed_share = (ops - warm) as f64 / ops.max(1) as f64;
    let sink_ns =
        (sink.records as f64 * timed_share * layers::span_record_ns()).min(rec.wall_ns as f64);
    let ev = Evidence {
        plain: &plain,
        traced: &rec,
        delta,
        verdict: &verdict,
        sink,
        sink_ns,
        timed_share,
        warm,
    };
    let mut l = Layers::new(args.seed);
    let primary = verdict.primary_ops.max(1) as f64;
    l.set("proc.allocs_per_op", (after.0 - before.0) as f64 / primary);
    l.set(
        "proc.alloc_bytes_per_op",
        (after.1 - before.1) as f64 / primary,
    );
    W::layers(&mut dep, &inputs, ops, &out, &ev, &mut l);
    generic_layers(W::lake(&dep), &ev, &mut l);
    end_of_run_probes(W::lake(&dep), plain.attempted as usize, &mut l);

    let mut notes = traced_verdict.notes.clone();
    notes.extend(verdict.notes.iter().cloned());
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"ops\":{},\"wall_ns\":{},\"untraced_wall_ns\":{},\"spans\":{}}}",
        W::NAME,
        args.seed,
        ops,
        rec.wall_ns,
        plain.wall_ns,
        rec.spans.len()
    );
    let path = trace_path(W::NAME);
    match rec.write_jsonl(&path, &header) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            rec.spans.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
    notes.push(format!(
        "{}: traced timed wall {:.2}s (untraced {:.2}s); boundary spans:",
        W::NAME,
        rec.wall_ns as f64 / 1e9,
        plain.wall_ns as f64 / 1e9
    ));
    for (name, (count, total, own)) in rec.by_name() {
        notes.push(format!(
            "  {name:<34} n={count:<8} total {:>6.2}%  self {:>6.2}%",
            100.0 * total as f64 / rec.wall_ns as f64,
            100.0 * own as f64 / rec.wall_ns as f64
        ));
    }
    notes.push(
        "layer self time as a share of the traced timed wall (replays x counts):".to_string(),
    );
    for (layer, share) in l.ledger(rec.wall_ns) {
        notes.push(format!("  {layer:<16} {:>6.2}%", 100.0 * share));
    }
    notes.append(&mut l.notes);

    let units: std::collections::BTreeMap<&str, &str> =
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let metrics = l
        .metrics()
        .into_iter()
        .map(|(name, value)| Metric {
            name,
            unit: units[name],
            value,
            n: 1,
        })
        .collect();
    RunResult {
        workload: W::NAME,
        correct,
        attempted: rec.attempted.max(1),
        failed,
        metrics,
        notes,
    }
}

/// Per-layer metrics every workload gets the same way: counts from the
/// deployment's public counters and the PLog-and-below replays at the
/// record sizes this workload appended and read.
fn generic_layers(sl: &StreamLake, ev: &Evidence, l: &mut Layers) {
    const MB: f64 = 1e6;
    let delta = &ev.delta;
    // Foreground I/O: what maintenance did stays inside core.chore.
    let fg = ev.foreground();
    let primary = ev.verdict.primary_ops.max(1) as f64;
    let user_bytes = ev.verdict.logical_bytes.max(1) as f64;
    l.set("stream.dup_or_lost", ev.verdict.dup_or_lost as f64);
    l.set(
        "common.span_overhead_ratio",
        ev.traced.wall_ns as f64 / ev.plain.wall_ns.max(1) as f64,
    );

    // Every primary-PLog append is one full stripe on the SSD pool, every
    // read touches the whole stripe.
    let appended = fg.ssd_writes / STRIPE_SHARDS;
    let read = fg.ssd_reads / STRIPE_SHARDS;
    let live: Vec<u64> = sl.plog().addresses().iter().map(|a| a.len).collect();
    let live_bytes: u64 = live.iter().sum();
    let mean_live = live_bytes / live.len().max(1) as u64;
    // Sizes the replays run at: what the timed phase appended (else what
    // the preload left in the store) and what it read.
    let append_size = fg.plog_logical.checked_div(appended).unwrap_or(mean_live);
    let read_size = l.read_size_hint.unwrap_or(mean_live);
    l.set("plog.records", sl.plog().record_count() as f64);
    l.set("plog.mean_record_bytes", append_size as f64);
    l.set(
        "plog.write_amp",
        sl.plog().physical_bytes() as f64 / live_bytes.max(1) as f64,
    );
    if append_size > 0 {
        let c = l.plog_costs(append_size);
        let r = if read > 0 { l.plog_costs(read_size) } else { c };
        l.set("plog.append_ns_per_mb", c.per_mb(c.append_ns));
        l.set("plog.read_ns_per_mb", r.per_mb(r.read_ns));
        l.set("ec.encode_ns_per_mb", c.per_mb(c.ec_ns));
        l.set("common.crc_ns_per_mb", c.per_mb(c.crc_ns));
        l.set("simdisk.write_ns_per_mb", c.per_mb(c.disk_write_ns));
        l.set("simdisk.read_ns_per_mb", r.per_mb(r.disk_read_ns));
        // Ledger, PLog and below: counts x per-record replay cost.
        let (a, rd) = (
            appended as f64 * ev.timed_share,
            read as f64 * ev.timed_share,
        );
        let (w_self, w_ec, w_crc, w_disk) = c.append_parts();
        let (r_self, r_crc, r_disk) = r.read_parts();
        l.notes.push(format!(
            "  foreground PLog traffic: {appended} appends of ~{append_size} B, {read} reads of ~{read_size} B; \
             sink took {} records (~{:.2}s)",
            ev.sink.records,
            ev.sink_ns / 1e9
        ));
        l.credit("plog", a * w_self + rd * r_self);
        l.credit("ec", a * w_ec);
        l.credit("common", a * w_crc + rd * r_crc);
        l.credit("simdisk", a * w_disk + rd * r_disk);
    }
    // What the attached SpanSink cost the traced pass: time inside
    // common::ctx / common::metrics the untraced run does not pay.
    l.credit("common", ev.sink_ns);

    l.set(
        "common.crc_bytes_per_user_byte",
        delta.crc_bytes as f64 / user_bytes,
    );
    l.set(
        "common.payload_copies_per_op",
        delta.payload_copies as f64 / primary,
    );
    l.set(
        "simdisk.dev_writes_per_op",
        (delta.ssd_writes + delta.hdd_writes) as f64 / primary,
    );
    l.set(
        "simdisk.dev_reads_per_op",
        (delta.ssd_reads + delta.hdd_reads) as f64 / primary,
    );
    l.set("simdisk.virt_queue_p99_us", ev.sink.queue_p99 as f64 / 1e3);
    l.set(
        "simdisk.virt_device_p99_us",
        ev.sink.device_p99 as f64 / 1e3,
    );
    l.set("simdisk.ssd_used_mb", sl.ssd_pool().used() as f64 / MB);
    l.set("simdisk.hdd_used_mb", sl.hdd_pool().used() as f64 / MB);

    l.set(
        "kvstore.wal_frames_per_op",
        delta.wal_frames as f64 / primary,
    );
    l.set("kvstore.wal_bytes_per_op", delta.wal_bytes as f64 / primary);
    l.set("kvstore.keys_end", sl.mvcc().kv().len() as f64);
    l.set(
        "kvstore.scan_copies_per_op",
        delta.scan_copies as f64 / primary,
    );
    l.set(
        "kvstore.pending_intents_end",
        sl.mvcc().pending_intents() as f64,
    );

    // Maintenance metrics describe the reference pass; the ledger (shares
    // of the traced wall) takes the traced pass's maintenance spans.
    let chore_ns: u64 = ev.plain.chore_ns.iter().sum();
    l.set(
        "core.chore.busy_share",
        chore_ns as f64 / ev.plain.wall_ns.max(1) as f64,
    );
    l.set(
        "core.chore.max_stall_ms",
        ev.plain.chore_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6,
    );
    l.credit(
        "core.chore",
        ev.net(ev.traced.chore_ns.iter().sum::<u64>() as f64),
    );
    let (mut ticks, mut deferred) = (0u64, 0u64);
    for s in sl.chore_status() {
        ticks += s.ticks;
        deferred += s.deferred;
        if let Some(m) = spec::PER_LAYER.iter().find(|m| {
            m.name
                .strip_prefix("core.chore.work.")
                .is_some_and(|chore| chore == s.name)
        }) {
            l.set(m.name, s.work_done as f64);
        }
    }
    l.set("core.chore.ticks", ticks as f64);
    l.set("core.chore.deferred", deferred as f64);

    // The pass root's own time is the benchmark's loop.
    if let Some((_, _, own)) = ev.traced.by_name().get("driver.pass") {
        l.credit("driver", ev.net(*own as f64));
    }
}

/// Probes that write into the end-of-run deployment, so they run last.
fn end_of_run_probes(sl: &StreamLake, ops: usize, l: &mut Layers) {
    const TXN_KEYS: usize = 4;
    const TXN_REPS: usize = 200;
    l.set(
        "kvstore.txn_fresh_us",
        layers::mvcc_txn_us(&kvstore::MvccStore::new(), TXN_KEYS, TXN_REPS),
    );
    l.set(
        "kvstore.txn_aged_us",
        layers::mvcc_txn_us(sl.mvcc(), TXN_KEYS, TXN_REPS),
    );
    let (incr, observe, summary) = layers::metrics_costs(sl.metrics(), ops);
    l.set("common.metrics_incr_ns", incr);
    l.set("common.metrics_observe_ns", observe);
    l.set("common.metrics_summary_us", summary);
    l.set("core.frontdoor.admit_ns", layers::frontdoor_admit_ns());
}
