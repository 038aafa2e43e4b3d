//! The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
//! metrics, exactly as `BENCHMARK.json` at the repository root lists them.
//! `tests/schema.rs` fails when the two drift apart.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Whether the value is a pure function of the seed (virtual time,
    /// byte counts): `aa` demands bit-equality for these.
    pub deterministic: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    deterministic: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        deterministic,
    }
}

/// The end-to-end metrics, reported by every workload on the untraced run.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("ops_per_s", "ops/s", Better::Higher, 0.25, false),
    e2e("write_p50_us", "us", Better::Lower, 0.25, false),
    e2e("write_p99_us", "us", Better::Lower, 0.25, false),
    e2e("read_p50_us", "us", Better::Lower, 0.25, false),
    e2e("read_p99_us", "us", Better::Lower, 0.25, false),
    e2e("virt_p99_us", "us", Better::Lower, 0.02, true),
    e2e("space_amp", "ratio", Better::Lower, 0.1, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2, false),
];

/// A per-layer metric: produced by the traced run, no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count or a ratio of counts: the same seed must reproduce it
    /// exactly (`selfcheck` compares these).
    pub exact: bool,
}

/// A wall-clock measurement, lower is better.
const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

/// An exact count, lower is better.
const fn cl(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// An exact count, higher is better.
const fn ch(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: true,
    }
}

/// The per-layer metrics; the layer is the prefix up to the last dot-group
/// naming a module (`core.frontdoor`, `stream`, `plog`, …).
pub const PER_LAYER: [PerLayer; 71] = [
    lo("core.frontdoor.admit_ns", "ns"),
    lo("core.frontdoor.self_share", "ratio"),
    cl("core.frontdoor.refused", "count"),
    cl("core.frontdoor.journal_events", "count"),
    lo("stream.produce_ns_per_rec", "ns"),
    lo("stream.poll_ns_per_rec", "ns"),
    lo("stream.read_ns_per_rec", "ns"),
    lo("stream.committed_poll_us", "us"),
    cl("stream.dup_or_lost", "count"),
    lo("plog.append_ns_per_mb", "ns/MB"),
    lo("plog.read_ns_per_mb", "ns/MB"),
    cl("plog.records", "count"),
    ch("plog.mean_record_bytes", "bytes"),
    cl("plog.write_amp", "ratio"),
    lo("ec.encode_ns_per_mb", "ns/MB"),
    lo("common.crc_ns_per_mb", "ns/MB"),
    cl("common.crc_bytes_per_user_byte", "ratio"),
    cl("common.payload_copies_per_op", "count"),
    lo("common.metrics_incr_ns", "ns"),
    lo("common.metrics_observe_ns", "ns"),
    lo("common.metrics_summary_us", "us"),
    lo("common.span_overhead_ratio", "ratio"),
    lo("simdisk.write_ns_per_mb", "ns/MB"),
    lo("simdisk.read_ns_per_mb", "ns/MB"),
    cl("simdisk.dev_writes_per_op", "count"),
    cl("simdisk.dev_reads_per_op", "count"),
    cl("simdisk.virt_queue_p99_us", "us"),
    cl("simdisk.virt_device_p99_us", "us"),
    cl("simdisk.ssd_used_mb", "MB"),
    cl("simdisk.hdd_used_mb", "MB"),
    cl("kvstore.wal_frames_per_op", "count"),
    cl("kvstore.wal_bytes_per_op", "bytes"),
    cl("kvstore.keys_end", "count"),
    lo("kvstore.txn_fresh_us", "us"),
    lo("kvstore.txn_aged_us", "us"),
    cl("kvstore.scan_copies_per_op", "count"),
    ch("kvstore.commit_ratio", "ratio"),
    cl("kvstore.pending_intents_end", "count"),
    lo("format.encode_ns_per_row", "ns"),
    lo("format.decode_ns_per_row", "ns"),
    lo("format.filter_scan_ns_per_row", "ns"),
    cl("format.bytes_per_wire_byte", "ratio"),
    lo("lake.insert_ns_per_row", "ns"),
    lo("lake.commit_floor_us", "us"),
    lo("lake.plan_us", "us"),
    cl("lake.files_scanned_per_q", "count"),
    cl("lake.bytes_scanned_per_q", "bytes"),
    ch("lake.skip_ratio", "ratio"),
    cl("lake.rows_scanned_per_result_row", "ratio"),
    cl("lake.live_files_end", "count"),
    lo("lake.meta_flush_ms", "ms"),
    lo("core.query.self_us", "us"),
    cl("core.query.rows_shipped_per_q", "count"),
    lo("core.txn.send_us", "us"),
    lo("core.txn.insert_us", "us"),
    lo("core.txn.decide_us", "us"),
    lo("core.txn.resolve_us", "us"),
    lo("core.chore.busy_share", "ratio"),
    lo("core.chore.max_stall_ms", "ms"),
    ch("core.chore.ticks", "count"),
    cl("core.chore.deferred", "count"),
    ch("core.chore.work.scrub", "count"),
    ch("core.chore.work.tiering", "count"),
    ch("core.chore.work.replication", "count"),
    ch("core.chore.work.archive", "count"),
    ch("core.chore.work.meta-flush", "count"),
    ch("core.chore.work.compaction", "count"),
    ch("core.chore.work.offset-retention", "count"),
    ch("core.chore.work.kv-wal-compaction", "count"),
    lo("proc.allocs_per_op", "count"),
    lo("proc.alloc_bytes_per_op", "bytes"),
];

/// The workloads and why each is here.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "stream_rt",
        "per-request overhead: 1 KiB produce/consume round trips through the front door, stream, plog, ec and simdisk; format, lake, query and chores idle",
    ),
    (
        "lake_query",
        "decode/scan bound: selective and wide aggregate queries over bulk-loaded cold tables; front door, stream and chores bypassed",
    ),
    (
        "ingest_convert",
        "one-copy pipeline: stream to table conversion, freshness queries over many small files, the lake/format write side, maintenance chores cycling",
    ),
    (
        "txn_mixed",
        "coordination/metadata bound: stream+table transactions with designed conflicts over a growing MVCC and commit history; format and ec idle",
    ),
];

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, generated from the tables above (`slbench spec`).
pub fn benchmark_json() -> String {
    let quote = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.name()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quote(&COMMAND),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Look an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
