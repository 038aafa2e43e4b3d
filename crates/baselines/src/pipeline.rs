//! The China Mobile ETL pipeline on the baseline stack (Fig 12, left).
//!
//! "Kafka and HDFS serve as independent stream storage and batch storage
//! respectively … As a typical ETL practice, a new copy of all data is
//! written to HDFS and Kafka after each job. In case failing accidentally,
//! a job can read its input data to reproduce the results."
//!
//! Four jobs: collection → normalization → labeling → query. Every job
//! writes its *full* output back to HDFS (triplicated), which is exactly
//! why Table 1's baseline storage lands at ~4× StreamLake's.

use crate::hdfs::MiniHdfs;
use crate::kafka::{KafkaMessage, MiniKafka};
use common::clock::Nanos;
use common::Result;
use workloads::packets::Packet;

/// Packets per HDFS part-file.
pub(crate) const PACKETS_PER_FILE: usize = 5_000;

/// Per-record compute cost of one pipeline job (parse, normalize,
/// classify, …). The business logic is identical on both stacks — "only
/// minimal changes are made to the compute engines" (§VII-A) — so the
/// same constant is charged by `streamlake::pipeline`.
pub(crate) const PER_RECORD_JOB_COMPUTE: common::clock::Nanos = 20_000;

/// Cost/throughput report of one baseline pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct BaselineReport {
    /// Virtual time of the four batch jobs.
    pub batch_time: Nanos,
    /// Messages per virtual second achieved on the stream side.
    pub stream_msgs_per_sec: f64,
    /// Physical bytes on HDFS (3× replicated).
    pub(crate) hdfs_bytes: u64,
    /// Physical bytes on Kafka brokers (3× replicated).
    pub(crate) kafka_bytes: u64,
    /// Rows the final query returned.
    pub query_rows: usize,
}

impl BaselineReport {
    /// Combined physical storage footprint.
    pub fn total_bytes(&self) -> u64 {
        self.hdfs_bytes + self.kafka_bytes
    }
}

/// The baseline pipeline runner.
#[derive(Debug)]
pub struct BaselinePipeline {
    /// Batch storage.
    pub(crate) hdfs: MiniHdfs,
    /// Stream storage.
    pub(crate) kafka: MiniKafka,
}

impl BaselinePipeline {
    /// Build a pipeline over the given stores.
    pub fn new(hdfs: MiniHdfs, kafka: MiniKafka) -> Self {
        BaselinePipeline { hdfs, kafka }
    }

    /// Run the full pipeline on `packets`; the query counts flows to
    /// `query_url` in `[query_lo, query_hi)` (the Fig 13 DAU query).
    pub fn run(
        &self,
        packets: &[Packet],
        query_url: &str,
        query_lo: i64,
        query_hi: i64,
        now: Nanos,
    ) -> Result<BaselineReport> {
        // --- stream side: collection into Kafka ------------------------
        self.kafka.create_topic("dpi-raw", 3)?;
        let mut last_ack = now;
        for p in packets {
            let (_, _, ack) = self.kafka.produce(
                "dpi-raw",
                KafkaMessage { key: p.key(), value: p.to_wire() },
                now,
            )?;
            last_ack = last_ack.max(ack);
        }
        last_ack = last_ack.max(self.kafka.flush(now)?);
        let stream_secs = ((last_ack - now) as f64 / 1e9).max(1e-9);
        let stream_msgs_per_sec = packets.len() as f64 / stream_secs;

        // --- batch job 1: collection lands raw copy on HDFS -------------
        let batch_start = last_ack;
        let job_compute = packets.len() as u64 * PER_RECORD_JOB_COMPUTE;
        let mut t = self.write_stage(packets.iter().map(|p| p.to_wire()), "raw", batch_start)?;
        t += job_compute;

        // --- batch job 2: normalization (mask subscriber ids), full copy
        let (raw, t_read) = self.read_stage("raw", t)?;
        t = t_read;
        let normalized: Vec<Vec<u8>> = raw
            .iter()
            .map(|line| {
                let mut p = Packet::from_wire(line).expect("own wire format");
                p.user_id = fnv_mask(p.user_id);
                p.to_wire()
            })
            .collect();
        t = self.write_stage(normalized.iter().cloned(), "normalized", t)? + job_compute;

        // --- batch job 3: labeling, full copy ---------------------------
        let (norm, t_read) = self.read_stage("normalized", t)?;
        t = t_read;
        let labeled: Vec<Vec<u8>> = norm
            .iter()
            .map(|line| {
                let p = Packet::from_wire(line).expect("own wire format");
                let label = if p.url.contains("fin_app") { "finance" } else { "other" };
                let mut out = line.clone();
                out.extend_from_slice(format!("|label={label}").as_bytes());
                out
            })
            .collect();
        t = self.write_stage(labeled.iter().cloned(), "labeled", t)? + job_compute;

        // --- batch job 4: query tables + the DAU query ------------------
        // the "insert into tables" copy
        t = self.write_stage(labeled.iter().cloned(), "table", t)?;
        let (table, t_read) = self.read_stage("table", t)?;
        t = t_read + job_compute;
        // full scan, no pushdown, no data skipping: parse every row
        let mut provinces = std::collections::BTreeMap::new();
        for line in &table {
            let trimmed = strip_label(line);
            let p = Packet::from_wire(trimmed).expect("own wire format");
            if p.url == query_url && p.start_time >= query_lo && p.start_time < query_hi {
                *provinces.entry(p.province).or_insert(0u64) += 1;
            }
        }

        Ok(BaselineReport {
            batch_time: t - batch_start,
            stream_msgs_per_sec,
            hdfs_bytes: self.hdfs.physical_bytes(),
            kafka_bytes: self.kafka.physical_bytes(),
            query_rows: provinces.len(),
        })
    }

    fn write_stage(
        &self,
        lines: impl Iterator<Item = Vec<u8>>,
        stage: &str,
        now: Nanos,
    ) -> Result<Nanos> {
        let mut t = now;
        let mut buf: Vec<u8> = Vec::new();
        let mut count = 0usize;
        let mut file_idx = 0usize;
        for line in lines {
            buf.extend_from_slice(&line);
            buf.push(b'\n');
            count += 1;
            if count == PACKETS_PER_FILE {
                t = self
                    .hdfs
                    .write_file(&format!("/{stage}/part-{file_idx:05}"), &buf, t)?;
                buf.clear();
                count = 0;
                file_idx += 1;
            }
        }
        if !buf.is_empty() {
            t = self
                .hdfs
                .write_file(&format!("/{stage}/part-{file_idx:05}"), &buf, t)?;
        }
        Ok(t)
    }

    fn read_stage(&self, stage: &str, now: Nanos) -> Result<(Vec<Vec<u8>>, Nanos)> {
        let mut t = now;
        let mut out = Vec::new();
        for path in self.hdfs.list(&format!("/{stage}/")) {
            let (bytes, tr) = self.hdfs.read_file(&path, t)?;
            t = tr;
            out.extend(
                bytes
                    .split(|&b| b == b'\n')
                    .filter(|l| !l.is_empty())
                    .map(|l| l.to_vec()),
            );
        }
        Ok((out, t))
    }
}

fn fnv_mask(v: u64) -> u64 {
    v.wrapping_mul(0x100000001b3) ^ 0xcbf29ce484222325
}

fn strip_label(line: &[u8]) -> &[u8] {
    match line.windows(7).rposition(|w| w == b"|label=") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::size::MIB;
    use common::SimClock;
    use simdisk::{MediaKind, StoragePool};
    use std::sync::Arc;
    use workloads::packets::PacketGen;

    fn pipeline() -> BaselinePipeline {
        let clock = SimClock::new();
        let hdfs_pool = Arc::new(StoragePool::new(
            "hdfs",
            MediaKind::SasHdd,
            6,
            2048 * MIB,
            clock.clone(),
        ));
        let kafka_pool = Arc::new(StoragePool::new(
            "kafka",
            MediaKind::NvmeSsd,
            6,
            2048 * MIB,
            clock,
        ));
        BaselinePipeline::new(
            MiniHdfs::new(hdfs_pool, 4 * MIB, 3),
            MiniKafka::new(kafka_pool, 3, MIB),
        )
    }

    #[test]
    fn full_run_accounts_for_four_copies_and_answers_query() {
        let p = pipeline();
        let mut g = PacketGen::new(1, 1_656_806_400, 1000);
        let packets = g.batch(2000);
        let logical: u64 = packets.iter().map(|p| p.to_wire().len() as u64).sum();
        let report = p
            .run(&packets, &packets[0].url, 1_656_806_400, 1_656_893_000, 0)
            .unwrap();
        // 4 batch copies × 3 replicas ≈ 12× logical on HDFS (labels add a bit)
        assert!(
            report.hdfs_bytes as f64 > 11.0 * logical as f64,
            "hdfs={} logical={}",
            report.hdfs_bytes,
            logical
        );
        // Kafka adds ~3× more
        assert!(report.kafka_bytes as f64 > 2.5 * logical as f64);
        assert!(report.batch_time > 0);
        assert!(report.stream_msgs_per_sec > 0.0);
        assert!(report.query_rows > 0, "the head URL must appear in several provinces");
    }

    #[test]
    fn storage_scales_linearly_with_input() {
        let small = {
            let p = pipeline();
            let mut g = PacketGen::new(2, 0, 1000);
            let pk = g.batch(500);
            p.run(&pk, "none", 0, 1, 0).unwrap().total_bytes()
        };
        let large = {
            let p = pipeline();
            let mut g = PacketGen::new(2, 0, 1000);
            let pk = g.batch(1500);
            p.run(&pk, "none", 0, 1, 0).unwrap().total_bytes()
        };
        let ratio = large as f64 / small as f64;
        assert!((2.3..3.7).contains(&ratio), "3x input → ~3x storage, got {ratio}");
    }
}
