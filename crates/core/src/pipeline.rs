//! The China Mobile analytic pipeline on StreamLake (Fig 12, right).
//!
//! "In our solution, StreamLake serves as a unified stream and batch
//! processing storage … handles the message streaming and data storage …
//! As StreamLake supports time travel, only updated rows are written to
//! the storage. When a job needs to re-run, it can use time travel to
//! retrieve its input data. During the query jobs … the three filters in
//! the WHERE clause and the COUNT aggregate … are pushed down."
//!
//! Pipeline shape (vs. the copy-per-stage baseline in
//! `baselines::pipeline`):
//!
//! 1. **collection** — packets are produced into a StreamLake topic
//!    (stream objects, not files);
//! 2. **stream→table conversion** — one background conversion produces the
//!    single authoritative table copy;
//! 3. **normalization** — an in-place `transform` commit (old versions
//!    remain reachable via time travel; no full extra copy);
//! 4. **labeling** — another in-place transform;
//! 5. **query** — the DAU query with storage-side pushdown.

use crate::query::{Query, QueryEngine};
use crate::system::StreamLake;
use common::clock::Nanos;
use common::ctx::IoCtx;
use common::Result;
use format::{DataType, Expr, Field, Schema, Value};
use lake::catalog::PartitionSpec;
use lake::conversion::ConversionTask;
use stream::config::ConvertToTable;
use stream::record::Record;
use stream::TopicConfig;
use workloads::packets::Packet;

/// The shared per-record job compute constant (see
/// [`baselines::pipeline::PER_RECORD_JOB_COMPUTE`]).
fn baselines_job_compute() -> Nanos {
    20_000
}

/// Cost/throughput report of one StreamLake pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Virtual time of the batch jobs (conversion + normalize + label +
    /// query).
    pub batch_time: Nanos,
    /// Messages per virtual second achieved on the stream side.
    pub stream_msgs_per_sec: f64,
    /// Physical bytes across the deployment (redundancy included).
    pub physical_bytes: u64,
    /// Provinces in the DAU answer.
    pub query_rows: usize,
}

/// The pipeline runner.
#[derive(Debug)]
pub struct StreamLakePipeline {
    /// The deployment the pipeline runs on.
    pub(crate) sl: StreamLake,
}

/// Table schema used by the pipeline: the packet fields plus a `label`
/// column the labeling job fills in.
pub(crate) fn pipeline_schema() -> Schema {
    let mut fields: Vec<Field> = workloads::packets::PacketGen::schema()
        .fields()
        .to_vec();
    fields.push(Field::new("label", DataType::Utf8));
    // slint:allow(R4): static schema, field set fixed at compile time and covered by tests
    Schema::new(fields).expect("static schema is valid")
}

impl StreamLakePipeline {
    /// A pipeline over a fresh deployment.
    pub fn new(sl: StreamLake) -> Self {
        StreamLakePipeline { sl }
    }

    /// Run the pipeline on `packets`; the final query counts flows to
    /// `query_url` within `[query_lo, query_hi)`.
    pub fn run(
        &self,
        packets: &[Packet],
        query_url: &str,
        query_lo: i64,
        query_hi: i64,
        ctx: &IoCtx,
    ) -> Result<PipelineReport> {
        let sl = &self.sl;
        // --- collection: produce into the stream ------------------------
        let mut cfg = TopicConfig::with_partitions(3);
        cfg.convert_2_table = ConvertToTable {
            table_schema: vec!["packet fields + label".into()],
            table_path: "/tables/dpi".into(),
            split_offset: 1, // convert on every run in this scaled setting
            split_time: 36_000,
            delete_msg: true, // one copy: stream data truncates once tabled
            enabled: true,
        };
        sl.stream().create_topic("dpi", cfg.clone())?;
        let mut producer = sl.producer();
        producer.set_batch_size(84);
        let mut last_ack = ctx.now;
        for p in packets {
            if let Some(ack) = producer.send("dpi", p.key(), p.to_wire(), ctx)? {
                last_ack = last_ack.max(ack.ack_time);
            }
        }
        for ack in producer.flush(ctx)? {
            last_ack = last_ack.max(ack.ack_time);
        }
        let stream_secs = ((last_ack - ctx.now) as f64 / 1e9).max(1e-9);
        let stream_msgs_per_sec = packets.len() as f64 / stream_secs;

        // --- conversion: the one authoritative table copy ----------------
        let batch_start = last_ack;
        // identical per-record business logic on both stacks (§VII-A)
        let job_compute =
            packets.len() as u64 * baselines_job_compute();
        sl.tables().create_table(
            "dpi",
            pipeline_schema(),
            Some(PartitionSpec::hourly("start_time")),
            20_000,
            &ctx.at(batch_start),
        )?;
        let mut t = batch_start;
        for route in sl.stream().dispatcher().topic_partitions("dpi")? {
            let object = sl.stream().dispatcher().object_of(&route)?;
            let mut task = ConversionTask::new(
                object,
                "dpi",
                cfg.convert_2_table.clone(),
                Box::new(|r: &Record| {
                    let p = Packet::from_wire(&r.value)?;
                    let mut row = p.to_row();
                    row.push(Value::from("")); // label filled by the label job
                    Ok(row)
                }),
            );
            if let Some(report) = task.run(sl.tables(), &ctx.at(t), true)? {
                t = t.max(report.commit.finished_at);
            }
        }
        t += job_compute; // parse/validate every record

        // --- normalization: in-place transform (time travel keeps history)
        let schema = pipeline_schema();
        let uid_idx = schema.index_of("user_id")?;
        let info = sl.tables().transform(
            "dpi",
            &Expr::True,
            &|row| {
                let mut out = row.clone();
                if let Value::Int(v) = out[uid_idx] {
                    out[uid_idx] =
                        Value::Int((v as u64).wrapping_mul(0x100000001b3) as i64 & 0x7FFF_FFFF);
                }
                Some(out)
            },
            &ctx.at(t),
        )?;
        t = t.max(info.finished_at) + job_compute;

        // --- labeling: in-place transform --------------------------------
        let url_idx = schema.index_of("url")?;
        let label_idx = schema.index_of("label")?;
        let info = sl.tables().transform(
            "dpi",
            &Expr::True,
            &|row| {
                let mut out = row.clone();
                let label = match &out[url_idx] {
                    Value::Str(u) if u.contains("fin_app") => "finance",
                    _ => "other",
                };
                out[label_idx] = Value::from(label);
                Some(out)
            },
            &ctx.at(t),
        )?;
        t = t.max(info.finished_at) + job_compute;

        // --- query: DAU with pushdown -------------------------------------
        let engine = QueryEngine::new();
        let q = Query::dau("dpi", query_url, query_lo, query_hi);
        let out = engine.execute(sl.tables(), &q, &ctx.at(t))?;
        // the pushed-down filter still evaluates every surviving row
        let t_end = t + out.elapsed + job_compute;
        sl.sync(&ctx.at(t_end))?;

        Ok(PipelineReport {
            batch_time: t_end - batch_start,
            stream_msgs_per_sec,
            physical_bytes: sl.physical_bytes(),
            query_rows: out.groups.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::StreamLakeConfig;
    use workloads::packets::PacketGen;

    const T0: i64 = 1_656_806_400;

    #[test]
    fn pipeline_produces_answer_and_accounts_storage() {
        let sl = StreamLake::new(StreamLakeConfig::small());
        let pipeline = StreamLakePipeline::new(sl);
        let mut g = PacketGen::new(1, T0, 1000);
        let packets = g.batch(1500);
        let url = packets[0].url.clone();
        let logical: u64 = packets.iter().map(|p| p.to_wire().len() as u64).sum();
        let report = pipeline.run(&packets, &url, T0, T0 + 86_400, &IoCtx::new(0)).unwrap();
        assert!(report.query_rows > 0);
        assert!(report.stream_msgs_per_sec > 0.0);
        assert!(report.batch_time > 0);
        // The single-copy + in-place-update design must stay well under the
        // baseline's ~15x logical footprint.
        let overhead = report.physical_bytes as f64 / logical as f64;
        assert!(
            overhead < 9.0,
            "StreamLake stores {overhead:.1}x logical; must be far below the baseline's ~15x"
        );
    }

    #[test]
    fn pipeline_answer_matches_ground_truth() {
        let sl = StreamLake::new(StreamLakeConfig::small());
        let pipeline = StreamLakePipeline::new(sl);
        let mut g = PacketGen::new(7, T0, 1000);
        let packets = g.batch(800);
        let url = packets[0].url.clone();
        let report = pipeline.run(&packets, &url, T0, T0 + 86_400, &IoCtx::new(0)).unwrap();
        let truth: std::collections::BTreeSet<&str> = packets
            .iter()
            .filter(|p| p.url == url)
            .map(|p| p.province.as_str())
            .collect();
        assert_eq!(report.query_rows, truth.len());
    }
}
