//! Fig 14: the message streaming service in isolation.
//!
//! (a) produce latency vs offered rate, with (Set-2) and without (Set-1)
//!     the SCM cache; (b) achieved throughput vs offered rate; (c) rescale
//!     1000 → 10000 partitions; (d) space multiplier per redundancy
//!     strategy at fault tolerance 1–3.

use common::clock::{micros, Nanos};
use common::ctx::{IoCtx, QosClass};
use common::metrics::HistogramSummary;
use common::size::{GIB, MIB};
use ec::{Redundancy, Stripe};
use format::{LakeFileWriter, Value};
use streamlake::{StreamLake, StreamLakeConfig};
use workloads::openmessaging::{LatencyRecorder, LoadSpec};
use workloads::packets::PacketGen;

/// One point of Fig 14(a)/(b).
#[derive(Debug, Clone, Copy)]
pub struct StreamPoint {
    /// Offered rate (msgs per virtual second).
    pub offered_rate: u64,
    /// Mean produce latency (virtual ns).
    pub mean_latency: Nanos,
    /// p99 produce latency.
    pub p99_latency: Nanos,
    /// Achieved throughput (msgs per virtual second).
    pub achieved_rate: f64,
}

/// Drive an OpenMessaging-style constant-rate load against one deployment.
///
/// `scm` selects Set-2 (16 GiB persistent memory as a staging cache).
pub fn stream_load(offered_rate: u64, messages: u64, scm: bool) -> StreamPoint {
    let mut cfg = StreamLakeConfig::evaluation();
    cfg.scm_capacity = if scm { 64 * MIB } else { 0 };
    cfg.ssd_capacity = 2 * GIB;
    let sl = StreamLake::new(cfg);
    let mut topic_cfg = stream::TopicConfig::with_partitions(8);
    topic_cfg.scm_cache = scm;
    topic_cfg.quota = u64::MAX / 2; // unthrottled: we measure the substrate
    sl.stream().create_topic("bench", topic_cfg).unwrap();

    let spec = LoadSpec::new(offered_rate, messages);
    let mut latency = LatencyRecorder::new();
    let mut producer = sl.producer();
    // OpenMessaging-style 1 ms linger: the batch grows with the offered
    // rate so the queueing-in-batch delay stays ~constant and the measured
    // latency reflects the storage path, not the linger budget.
    let batch = ((offered_rate / 4000).max(1) as usize).min(1024);
    producer.set_batch_size(batch);
    let payload = vec![0x5Au8; spec.message_bytes];
    let mut last_ack: Nanos = 0;
    let mut batch_arrivals: Vec<Nanos> = Vec::with_capacity(batch);
    for i in 0..spec.total_messages {
        let at = spec.arrival(i);
        batch_arrivals.push(at);
        if let Some(ack) = producer
            .send("bench", format!("k{}", i % 1024), payload.clone(), &IoCtx::new(at))
            .unwrap()
        {
            // per-message latency: from each message's arrival to the ack
            for &arr in &batch_arrivals {
                latency.record(ack.ack_time.saturating_sub(arr));
            }
            batch_arrivals.clear();
            last_ack = last_ack.max(ack.ack_time);
        }
    }
    for ack in producer.flush(&IoCtx::new(spec.duration())).unwrap() {
        for &arr in &batch_arrivals {
            latency.record(ack.ack_time.saturating_sub(arr));
        }
        batch_arrivals.clear();
        last_ack = last_ack.max(ack.ack_time);
    }
    let elapsed = last_ack.max(spec.duration()) as f64 / 1e9;
    StreamPoint {
        offered_rate,
        mean_latency: latency.mean().unwrap_or(0.0) as Nanos,
        p99_latency: latency.percentile(0.99).unwrap_or(0),
        achieved_rate: spec.total_messages as f64 / elapsed.max(1e-9),
    }
}

/// Fig 14(a)+(b): sweep offered rates for Set-1 (no SCM) and Set-2 (SCM).
pub fn latency_throughput_sweep(
    rates: &[u64],
    messages: u64,
) -> (Vec<StreamPoint>, Vec<StreamPoint>) {
    let set1 = rates.iter().map(|&r| stream_load(r, messages, false)).collect();
    let set2 = rates.iter().map(|&r| stream_load(r, messages, true)).collect();
    (set1, set2)
}

/// Fig 14(c): the elasticity numbers.
#[derive(Debug, Clone, Copy)]
pub struct ElasticityReport {
    /// Streams before/after.
    pub from: u32,
    /// Target stream count.
    pub to: u32,
    /// Virtual time the rescale took.
    pub elapsed: Nanos,
    /// Bytes migrated (StreamLake: always 0).
    pub bytes_migrated: u64,
    /// Bytes a Kafka reassignment of the same topic would move.
    pub kafka_bytes_migrated: u64,
    /// Virtual time the Kafka reassignment took.
    pub kafka_elapsed: Nanos,
}

/// Rescale a loaded topic 1000 → 10000 partitions on StreamLake, and the
/// same reassignment on mini-Kafka for contrast.
pub fn elasticity(from: u32, to: u32, preload_msgs: usize) -> ElasticityReport {
    let mut cfg = StreamLakeConfig::evaluation();
    cfg.ssd_capacity = 2 * GIB;
    let sl = StreamLake::new(cfg);
    sl.stream()
        .create_topic("big", stream::TopicConfig::with_partitions(from))
        .unwrap();
    let mut p = sl.producer();
    for i in 0..preload_msgs {
        p.send("big", format!("k{i}"), vec![0u8; 512], &IoCtx::new(0)).unwrap();
    }
    p.flush(&IoCtx::new(0)).unwrap();
    let report = sl.stream().scale_topic("big", to, &IoCtx::new(0)).unwrap();

    // Kafka for contrast: same preload, scale partitions
    let clock = common::SimClock::new();
    let pool = std::sync::Arc::new(simdisk::StoragePool::new(
        "kafka",
        simdisk::MediaKind::NvmeSsd,
        6,
        2 * GIB,
        clock,
    ));
    let kafka = baselines::MiniKafka::new(pool, 3, MIB);
    kafka.create_topic("big", from as usize).unwrap();
    for i in 0..preload_msgs {
        kafka
            .produce(
                "big",
                baselines::kafka::KafkaMessage {
                    key: format!("k{i}").into_bytes(),
                    value: vec![0u8; 512],
                },
                0,
            )
            .unwrap();
    }
    kafka.flush(0).unwrap();
    let (kafka_bytes, kafka_elapsed) = kafka.scale_partitions("big", to as usize, 0).unwrap();

    ElasticityReport {
        from,
        to,
        elapsed: report.elapsed,
        bytes_migrated: report.bytes_migrated,
        kafka_bytes_migrated: kafka_bytes,
        kafka_elapsed,
    }
}

/// One bar of Fig 14(d).
#[derive(Debug, Clone, Copy)]
pub struct SpacePoint {
    /// Fault tolerance (node failures survivable).
    pub fault_tolerance: usize,
    /// Replication multiplier (stored/logical).
    pub replication: f64,
    /// Erasure-coding multiplier.
    pub ec: f64,
    /// EC after columnar re-encoding.
    pub ec_colstore: f64,
}

/// Fig 14(d): measured space multipliers on real packet data.
pub fn space_consumption(packets: usize) -> Vec<SpacePoint> {
    let mut gen = PacketGen::new(77, 0, 1000);
    let batch = gen.batch(packets);
    let row_bytes: Vec<u8> = batch
        .iter()
        .flat_map(|p| {
            let mut w = p.to_wire();
            w.push(b'\n');
            w
        })
        .collect();
    let logical = row_bytes.len() as f64;
    // columnar re-encode through the lake file format
    let rows: Vec<Vec<Value>> = batch.iter().map(|p| p.to_row()).collect();
    let writer = LakeFileWriter::new(PacketGen::schema(), 4096).unwrap();
    let col_bytes = writer.encode(&rows).unwrap();

    (1..=3)
        .map(|ft| {
            let rep = Redundancy::replication_for_ft(ft);
            let ec = Redundancy::ec_for_ft(10, ft);
            let stored = |data: &[u8], red: Redundancy| {
                Stripe::encode(data, red).unwrap().stored_bytes() as f64
            };
            SpacePoint {
                fault_tolerance: ft,
                replication: stored(&row_bytes, rep) / logical,
                ec: stored(&row_bytes, ec) / logical,
                ec_colstore: stored(&col_bytes, ec) / logical,
            }
        })
        .collect()
}

/// Print Fig 14 in a paper-like layout.
pub fn print(set1: &[StreamPoint], set2: &[StreamPoint], el: &ElasticityReport, space: &[SpacePoint]) {
    println!("Fig 14(a)/(b): produce latency and throughput vs offered rate");
    println!(
        "{:>12} | {:>14} {:>14} | {:>14} {:>14}",
        "rate (msg/s)", "Set-1 mean", "Set-2 mean", "Set-1 achv", "Set-2 achv"
    );
    for (a, b) in set1.iter().zip(set2) {
        println!(
            "{:>12} | {:>11.1} us {:>11.1} us | {:>14.0} {:>14.0}",
            a.offered_rate,
            a.mean_latency as f64 / 1e3,
            b.mean_latency as f64 / 1e3,
            a.achieved_rate,
            b.achieved_rate
        );
    }
    println!("\nFig 14(c): rescale {} -> {} streams", el.from, el.to);
    println!(
        "  StreamLake: {:.3} s, {} bytes migrated",
        el.elapsed as f64 / 1e9,
        el.bytes_migrated
    );
    println!(
        "  Kafka     : {:.3} s, {} bytes migrated",
        el.kafka_elapsed as f64 / 1e9,
        el.kafka_bytes_migrated
    );
    println!("\nFig 14(d): space multiplier vs fault tolerance");
    println!("{:>4} {:>14} {:>10} {:>14}", "FT", "Replication", "EC", "EC+Col-store");
    for s in space {
        println!(
            "{:>4} {:>13.2}x {:>9.2}x {:>13.2}x",
            s.fault_tolerance, s.replication, s.ec, s.ec_colstore
        );
    }
}

/// Span phases every request in the produce path must touch; the smoke
/// gate fails when any of them records zero samples.
pub const REQUIRED_PHASES: [&str; 4] = ["queue", "device", "wan", "meta"];

/// A tiny Fig 14-style run with full latency attribution: a constant-rate
/// produce load (queue/device/wan spans) followed by a Fig 14(c)-style
/// metadata-only rescale (meta spans), all under contexts minted from the
/// deployment's span sink. Returns the per-phase histogram view.
pub fn phase_breakdown(messages: u64) -> Vec<(String, HistogramSummary)> {
    let sl = StreamLake::new(StreamLakeConfig::small());
    sl.stream()
        .create_topic("bench", stream::TopicConfig::with_partitions(4))
        .unwrap();
    let root = sl.root_ctx(QosClass::Foreground);
    let mut producer = sl.producer();
    producer.set_batch_size(8);
    let payload = vec![0x5Au8; 512];
    for i in 0..messages {
        let at = i * micros(100);
        producer
            .send("bench", format!("k{}", i % 64), payload.clone(), &root.at(at))
            .unwrap();
    }
    let t_end = messages * micros(100);
    producer.flush(&root.at(t_end)).unwrap();
    sl.stream().scale_topic("bench", 8, &root.at(t_end)).unwrap();
    sl.span_sink().phase_view()
}

/// Names from [`REQUIRED_PHASES`] absent from `view` (zero samples).
pub fn missing_phases(view: &[(String, HistogramSummary)]) -> Vec<&'static str> {
    REQUIRED_PHASES
        .iter()
        .filter(|p| !view.iter().any(|(name, s)| name == *p && s.count > 0))
        .copied()
        .collect()
}

/// Print the per-phase latency breakdown table.
pub fn print_phase_breakdown(view: &[(String, HistogramSummary)]) {
    println!("\nFig 14 per-phase latency attribution (virtual us per span)");
    println!(
        "{:>8} | {:>8} {:>10} {:>10} {:>10} {:>10}",
        "phase", "samples", "mean", "p50", "p99", "max"
    );
    for (name, s) in view {
        println!(
            "{:>8} | {:>8} {:>9.1}u {:>9.1}u {:>9.1}u {:>9.1}u",
            name,
            s.count,
            s.mean / 1e3,
            s.p50 as f64 / 1e3,
            s.p99 as f64 / 1e3,
            s.max as f64 / 1e3
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_breakdown_attributes_every_phase_deterministically() {
        let view = phase_breakdown(200);
        assert!(missing_phases(&view).is_empty(), "view: {view:?}");
        // bit-for-bit reproducible: a second identical run matches
        let again = phase_breakdown(200);
        assert_eq!(view, again);
    }

    #[test]
    fn scm_lowers_latency_at_low_rate_not_throughput_at_high() {
        // Fig 14(a): persistent memory reduces latency at modest rates;
        // Fig 14(b): it does not raise peak throughput.
        let low1 = stream_load(50_000, 4_000, false);
        let low2 = stream_load(50_000, 4_000, true);
        assert!(
            low2.mean_latency < low1.mean_latency,
            "set-2 {} must beat set-1 {} at low rate",
            low2.mean_latency,
            low1.mean_latency
        );
        let high1 = stream_load(1_500_000, 20_000, false);
        let high2 = stream_load(1_500_000, 20_000, true);
        let ratio = high2.achieved_rate / high1.achieved_rate;
        assert!(
            (0.8..1.25).contains(&ratio),
            "scm must not change peak throughput materially: {ratio}"
        );
    }

    #[test]
    fn throughput_scales_with_offered_rate_until_saturation() {
        let a = stream_load(100_000, 5_000, false);
        let b = stream_load(400_000, 20_000, false);
        assert!(
            b.achieved_rate > 2.5 * a.achieved_rate,
            "linear region: {} then {}",
            a.achieved_rate,
            b.achieved_rate
        );
    }

    #[test]
    fn rescale_is_fast_and_migration_free() {
        // scaled-down Fig 14(c): 100 -> 1000 partitions
        let el = elasticity(100, 1000, 2_000);
        assert_eq!(el.bytes_migrated, 0);
        assert!(
            el.elapsed < common::clock::secs(10),
            "rescale took {} ns",
            el.elapsed
        );
        assert!(el.kafka_bytes_migrated > 0, "kafka must move data");
    }

    #[test]
    fn space_multipliers_match_figure_shape() {
        let space = space_consumption(2_000);
        for s in &space {
            // replication stores FT+1 copies; EC stays near (10+m)/10
            assert!((s.replication - (s.fault_tolerance + 1) as f64).abs() < 0.01);
            assert!(s.ec < s.replication);
            assert!(s.ec_colstore < s.ec, "columnar re-encode must shrink further");
        }
        // paper: EC/EC+Col-store save 3-5x at FT=3
        let ft3 = &space[2];
        assert!(ft3.replication / ft3.ec_colstore > 3.0);
    }
}
