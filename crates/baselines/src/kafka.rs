//! A miniature Kafka: per-partition segmented logs with leader/follower
//! replication on broker-local storage.
//!
//! The structural contrast with StreamLake (§I, §II): messages live in
//! *files on brokers' local filesystems* — storage and serving are
//! coupled, partitions replicate whole segments (RF=3), and rescaling
//! partitions onto new brokers must physically move segment bytes (the
//! migration cost Fig 14(c) is about).

use common::clock::Nanos;
use common::ctx::IoCtx;
use common::varint::Reader;
use common::{Error, Result};
use parking_lot::Mutex;
use simdisk::pool::{ExtentHandle, StoragePool};
use std::collections::HashMap;
use std::sync::Arc;

/// Default segment roll size.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1024 * 1024;

/// One Kafka message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KafkaMessage {
    /// Message key.
    pub key: Vec<u8>,
    /// Message payload.
    pub value: Vec<u8>,
}

impl KafkaMessage {
    fn encoded_len(&self) -> u64 {
        (self.key.len() + self.value.len() + 16) as u64
    }
}

#[derive(Debug)]
struct Segment {
    base_offset: u64,
    count: u64,
    handle: ExtentHandle,
    bytes: u64,
}

#[derive(Debug, Default)]
struct Partition {
    segments: Vec<Segment>,
    buffer: Vec<KafkaMessage>,
    buffer_bytes: u64,
    buffer_base: u64,
    next_offset: u64,
}

/// The miniature Kafka cluster.
#[derive(Debug)]
pub struct MiniKafka {
    pool: Arc<StoragePool>,
    topics: Mutex<HashMap<String, Vec<Partition>>>,
    replication: usize,
    segment_bytes: u64,
}

impl MiniKafka {
    /// A cluster storing segments in `pool` with the given replication
    /// factor and segment roll size.
    pub fn new(pool: Arc<StoragePool>, replication: usize, segment_bytes: u64) -> Self {
        MiniKafka {
            pool,
            topics: Mutex::new(HashMap::new()),
            replication: replication.max(1),
            segment_bytes: segment_bytes.max(1),
        }
    }

    /// Create a topic with `partitions` partitions.
    pub fn create_topic(&self, name: &str, partitions: usize) -> Result<()> {
        let mut topics = self.topics.lock();
        if topics.contains_key(name) {
            return Err(Error::AlreadyExists(format!("topic {name}")));
        }
        topics.insert(
            name.to_string(),
            (0..partitions.max(1)).map(|_| Partition::default()).collect(),
        );
        Ok(())
    }

    /// Produce one message; the partition is chosen by key hash. Returns
    /// `(partition, offset, ack_time)` — the ack waits for segment
    /// replication when the append rolls a segment.
    pub fn produce(
        &self,
        topic: &str,
        msg: KafkaMessage,
        now: Nanos,
    ) -> Result<(usize, u64, Nanos)> {
        let mut topics = self.topics.lock();
        let parts = topics
            .get_mut(topic)
            .ok_or_else(|| Error::NotFound(format!("topic {topic}")))?;
        let pidx = (common::checksum::fnv1a(&msg.key) % parts.len() as u64) as usize;
        let part = &mut parts[pidx];
        let offset = part.next_offset;
        part.next_offset += 1;
        part.buffer_bytes += msg.encoded_len();
        part.buffer.push(msg);
        let mut ack = now;
        if part.buffer_bytes >= self.segment_bytes {
            ack = self.roll_segment(part, now)?;
        }
        Ok((pidx, offset, ack))
    }

    /// Force-roll all partition buffers into segments.
    pub fn flush(&self, now: Nanos) -> Result<Nanos> {
        let mut topics = self.topics.lock();
        let mut finish = now;
        for parts in topics.values_mut() {
            for part in parts.iter_mut() {
                if !part.buffer.is_empty() {
                    finish = finish.max(self.roll_segment(part, now)?);
                }
            }
        }
        Ok(finish)
    }

    fn roll_segment(&self, part: &mut Partition, now: Nanos) -> Result<Nanos> {
        let encoded = common::Bytes::from_vec(encode_batch(&part.buffer));
        // producers reach brokers over kernel TCP (no RDMA fabric here),
        // and followers pull the segment over the same network
        let net = simdisk::Transport::Tcp.transfer_time(encoded.len() as u64);
        let encoded_len = encoded.len() as u64;
        let replicas = vec![encoded; self.replication];
        let (handle, t) = self.pool.write_shards_ctx(&replicas, &IoCtx::new(now + net))?;
        part.segments.push(Segment {
            base_offset: part.buffer_base,
            count: part.buffer.len() as u64,
            handle,
            bytes: encoded_len,
        });
        part.buffer.clear();
        part.buffer_bytes = 0;
        part.buffer_base = part.next_offset;
        Ok(t)
    }

    /// Fetch up to `max` messages from `partition` starting at `offset`.
    pub fn fetch(
        &self,
        topic: &str,
        partition: usize,
        offset: u64,
        max: usize,
        now: Nanos,
    ) -> Result<(Vec<(u64, KafkaMessage)>, Nanos)> {
        let topics = self.topics.lock();
        let parts = topics
            .get(topic)
            .ok_or_else(|| Error::NotFound(format!("topic {topic}")))?;
        let part = parts
            .get(partition)
            .ok_or_else(|| Error::NotFound(format!("partition {partition}")))?;
        let mut out = Vec::new();
        let mut finish = now;
        for seg in &part.segments {
            if out.len() >= max || seg.base_offset + seg.count <= offset {
                continue;
            }
            let (replicas, t) = self.pool.read_shards_ctx(&seg.handle, &IoCtx::new(now))?;
            finish = finish.max(t);
            let bytes = replicas
                .into_iter()
                .flatten()
                .next()
                .ok_or_else(|| Error::Unrecoverable("segment lost".into()))?;
            for (i, m) in decode_batch(&bytes)?.into_iter().enumerate() {
                let o = seg.base_offset + i as u64;
                if o >= offset && out.len() < max {
                    out.push((o, m));
                }
            }
        }
        for (i, m) in part.buffer.iter().enumerate() {
            let o = part.buffer_base + i as u64;
            if o >= offset && out.len() < max {
                out.push((o, m.clone()));
            }
        }
        Ok((out, finish))
    }

    /// Number of partitions of `topic`.
    pub fn partition_count(&self, topic: &str) -> Result<usize> {
        Ok(self
            .topics
            .lock()
            .get(topic)
            .ok_or_else(|| Error::NotFound(format!("topic {topic}")))?
            .len())
    }

    /// End offset of a partition.
    pub fn end_offset(&self, topic: &str, partition: usize) -> Result<u64> {
        Ok(self
            .topics
            .lock()
            .get(topic)
            .ok_or_else(|| Error::NotFound(format!("topic {topic}")))?
            .get(partition)
            .ok_or_else(|| Error::NotFound(format!("partition {partition}")))?
            .next_offset)
    }

    /// Grow a topic to `new_count` partitions. Unlike StreamLake's
    /// metadata-only rescale, Kafka reassignment physically copies segment
    /// bytes to rebalance leaders across brokers; this models that cost by
    /// rewriting a proportional share of existing segments. Returns
    /// `(bytes_migrated, completion_time)`.
    pub fn scale_partitions(
        &self,
        topic: &str,
        new_count: usize,
        now: Nanos,
    ) -> Result<(u64, Nanos)> {
        let mut topics = self.topics.lock();
        let parts = topics
            .get_mut(topic)
            .ok_or_else(|| Error::NotFound(format!("topic {topic}")))?;
        let old_count = parts.len();
        if new_count <= old_count {
            return Err(Error::Unsupported("kafka cannot shrink partitions".into()));
        }
        // Fraction of data whose leadership moves: (new-old)/new.
        let move_fraction = (new_count - old_count) as f64 / new_count as f64;
        let mut migrated = 0u64;
        let mut finish = now;
        for part in parts.iter() {
            for seg in &part.segments {
                let share = (seg.bytes as f64 * move_fraction) as u64;
                if share == 0 {
                    continue;
                }
                // read + rewrite the moved share (RF copies)
                let (_, t_read) = self.pool.read_shards_ctx(&seg.handle, &IoCtx::new(now))?;
                let data =
                    vec![common::Bytes::from_vec(vec![0u8; share as usize]); self.replication];
                let (handle, t_write) = self.pool.write_shards_ctx(&data, &IoCtx::new(t_read))?;
                self.pool.delete(&handle); // space settles back after the move
                finish = finish.max(t_write);
                migrated += share;
            }
        }
        for _ in old_count..new_count {
            parts.push(Partition::default());
        }
        Ok((migrated, finish))
    }

    /// Physical bytes on the brokers (replication included).
    pub fn physical_bytes(&self) -> u64 {
        self.pool.used()
    }
}

fn encode_batch(msgs: &[KafkaMessage]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(msgs.len() as u32).to_le_bytes());
    for m in msgs {
        out.extend_from_slice(&(m.key.len() as u32).to_le_bytes());
        out.extend_from_slice(&m.key);
        out.extend_from_slice(&(m.value.len() as u32).to_le_bytes());
        out.extend_from_slice(&m.value);
    }
    out
}

fn decode_batch(buf: &[u8]) -> Result<Vec<KafkaMessage>> {
    let mut r = Reader::new(buf, "kafka segment");
    // A message is at least its two u32 lengths.
    let count = r.u32_le()?;
    let mut out = Vec::with_capacity(r.check_count(count.into(), 8)?);
    for _ in 0..count {
        let klen = r.u32_le()? as usize;
        let key = r.bytes(klen)?.to_vec();
        let vlen = r.u32_le()? as usize;
        let value = r.bytes(vlen)?.to_vec();
        out.push(KafkaMessage { key, value });
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::size::MIB;
    use common::SimClock;
    use simdisk::MediaKind;

    fn kafka(segment: u64) -> MiniKafka {
        let pool = Arc::new(StoragePool::new(
            "kafka",
            MediaKind::NvmeSsd,
            6,
            1024 * MIB,
            SimClock::new(),
        ));
        MiniKafka::new(pool, 3, segment)
    }

    fn msg(i: usize) -> KafkaMessage {
        KafkaMessage { key: format!("k{i}").into_bytes(), value: vec![b'v'; 100] }
    }

    #[test]
    fn produce_fetch_roundtrip() {
        let k = kafka(512);
        k.create_topic("t", 2).unwrap();
        for i in 0..50 {
            k.produce("t", msg(i), 0).unwrap();
        }
        k.flush(0).unwrap();
        let mut total = 0;
        for p in 0..2 {
            let (msgs, _) = k.fetch("t", p, 0, usize::MAX, 0).unwrap();
            // offsets strictly ordered within a partition
            for w in msgs.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
            total += msgs.len();
        }
        assert_eq!(total, 50);
    }

    #[test]
    fn same_key_same_partition() {
        let k = kafka(10_000);
        k.create_topic("t", 4).unwrap();
        let (p1, _, _) = k.produce("t", msg(7), 0).unwrap();
        let (p2, _, _) = k.produce("t", msg(7), 0).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn segments_roll_and_replicate() {
        let k = kafka(256);
        k.create_topic("t", 1).unwrap();
        for i in 0..20 {
            k.produce("t", msg(i), 0).unwrap();
        }
        k.flush(0).unwrap();
        // physical = 3x logical payload bytes (plus small framing)
        let payload: u64 = (0..20).map(|i| format!("k{i}").len() as u64 + 100).sum();
        assert!(k.physical_bytes() >= 3 * payload);
        assert!(k.physical_bytes() <= 3 * payload + 1024);
        assert_eq!(k.end_offset("t", 0).unwrap(), 20);
    }

    #[test]
    fn scaling_partitions_migrates_bytes() {
        let k = kafka(256);
        k.create_topic("t", 2).unwrap();
        for i in 0..100 {
            k.produce("t", msg(i), 0).unwrap();
        }
        k.flush(0).unwrap();
        let (migrated, t) = k.scale_partitions("t", 8, 0).unwrap();
        assert!(migrated > 0, "kafka rescale must move data");
        assert!(t > 0);
        assert_eq!(k.partition_count("t").unwrap(), 8);
        assert!(k.scale_partitions("t", 4, 0).is_err());
    }

    #[test]
    fn duplicate_topic_rejected() {
        let k = kafka(256);
        k.create_topic("t", 1).unwrap();
        assert!(k.create_topic("t", 1).is_err());
        assert!(k.produce("missing", msg(0), 0).is_err());
    }

    #[test]
    fn fetch_from_offset_spans_segments_and_buffer() {
        let k = kafka(300);
        k.create_topic("t", 1).unwrap();
        for i in 0..10 {
            k.produce("t", msg(i), 0).unwrap();
        }
        // no flush: some messages still buffered
        let (msgs, _) = k.fetch("t", 0, 4, usize::MAX, 0).unwrap();
        assert_eq!(msgs.len(), 6);
        assert_eq!(msgs[0].0, 4);
    }
}
