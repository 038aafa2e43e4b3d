//! The producer client API (Fig 7).
//!
//! `Producer::send` is compatible in shape with "the open-source de facto
//! standard": messages are keyed, routed to a partition by the stable key
//! hash ([`partition_for_key`](crate::partition_for_key)), batched per
//! partition, and flushed when the batch fills (or explicitly). Producers
//! are idempotent — every record carries a `(producer_id, sequence)` pair
//! that the stream object uses to drop duplicate retries — and can send
//! within a transaction for exactly-once pipelines.

use crate::object::AppendAck;
use crate::record::Record;
use crate::service::StreamService;
use common::ctx::IoCtx;
use common::{Result, TxnId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default records per batch before an automatic flush.
pub const DEFAULT_BATCH_SIZE: usize = 64;

/// A producer handle.
#[derive(Debug)]
pub struct Producer {
    svc: Arc<StreamService>,
    pid: u64,
    batch_size: usize,
    batches: BTreeMap<(String, u32), Vec<Record>>,
    seqs: BTreeMap<(String, u32), u64>,
}

impl Producer {
    pub(crate) fn new(svc: Arc<StreamService>, pid: u64) -> Self {
        Producer {
            svc,
            pid,
            batch_size: DEFAULT_BATCH_SIZE,
            batches: BTreeMap::new(),
            seqs: BTreeMap::new(),
        }
    }

    /// Set the per-partition batch size (1 = unbatched).
    pub fn set_batch_size(&mut self, n: usize) {
        self.batch_size = n.max(1);
    }

    /// Send one message. Returns the append ack when this send flushed a
    /// batch, `None` while the message is only buffered.
    pub fn send(
        &mut self,
        topic: &str,
        key: impl Into<Vec<u8>>,
        value: impl Into<Vec<u8>>,
        ctx: &IoCtx,
    ) -> Result<Option<AppendAck>> {
        self.send_inner(topic, key.into(), value.into(), None, ctx)
    }

    /// Send one message inside transaction `txn` (invisible to committed
    /// readers until the coordinator commits).
    pub fn send_in_txn(
        &mut self,
        txn: TxnId,
        topic: &str,
        key: impl Into<Vec<u8>>,
        value: impl Into<Vec<u8>>,
        ctx: &IoCtx,
    ) -> Result<Option<AppendAck>> {
        self.send_inner(topic, key.into(), value.into(), Some(txn), ctx)
    }

    fn send_inner(
        &mut self,
        topic: &str,
        key: Vec<u8>,
        value: Vec<u8>,
        txn: Option<TxnId>,
        ctx: &IoCtx,
    ) -> Result<Option<AppendAck>> {
        let route = self.svc.dispatcher().route(topic, &key)?;
        let slot = (topic.to_string(), route.partition_idx);
        let seq = self.seqs.entry(slot.clone()).or_insert(0);
        *seq += 1;
        let mut record = Record::new(key, value, (ctx.now / 1_000_000) as i64);
        record.producer_seq = Some((self.pid, *seq));
        record.txn = txn.map(|t| t.raw());
        let batch = self.batches.entry(slot.clone()).or_default();
        batch.push(record);
        if batch.len() >= self.batch_size {
            let records = std::mem::take(batch);
            let ack = self.svc.produce_to(topic, &route, &records, ctx)?;
            return Ok(Some(ack));
        }
        Ok(None)
    }

    /// Flush all buffered batches; returns one ack per flushed stream.
    pub fn flush(&mut self, ctx: &IoCtx) -> Result<Vec<AppendAck>> {
        let mut acks = Vec::new();
        let slots: Vec<(String, u32)> = self
            .batches
            .iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(k, _)| k.clone())
            .collect();
        for slot in slots {
            let Some(batch) = self.batches.get_mut(&slot) else {
                continue;
            };
            let records = std::mem::take(batch);
            // Re-resolve the route: the partition may have moved workers.
            let route = self.svc.dispatcher().route_partition(&slot.0, slot.1)?;
            acks.push(self.svc.produce_to(&slot.0, &route, &records, ctx)?);
        }
        Ok(acks)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::TopicConfig;
    use crate::object::ReadCtrl;
    use crate::service::tests::test_service;
    use common::ctx::IoCtx;

    fn pending(p: &super::Producer) -> usize {
        p.batches.values().map(|b| b.len()).sum()
    }

    #[test]
    fn batching_flushes_at_threshold() {
        let svc = test_service(1, false);
        svc.create_topic("t", TopicConfig::with_partitions(1)).unwrap();
        let mut p = svc.producer();
        p.set_batch_size(4);
        for i in 0..3 {
            assert!(p.send("t", b"k".to_vec(), format!("m{i}").into_bytes(), &IoCtx::new(0)).unwrap().is_none());
        }
        assert_eq!(pending(&p), 3);
        let ack = p.send("t", b"k".to_vec(), b"m3".to_vec(), &IoCtx::new(0)).unwrap();
        assert!(ack.is_some(), "4th message must flush the batch");
        assert_eq!(pending(&p), 0);
    }

    #[test]
    fn explicit_flush_delivers_partial_batches() {
        let svc = test_service(1, false);
        svc.create_topic("t", TopicConfig::with_partitions(2)).unwrap();
        let mut p = svc.producer();
        p.set_batch_size(100);
        for i in 0..10 {
            p.send("t", format!("key-{i}").into_bytes(), b"v".to_vec(), &IoCtx::new(0)).unwrap();
        }
        let acks = p.flush(&IoCtx::new(0)).unwrap();
        assert!(!acks.is_empty());
        assert_eq!(pending(&p), 0);
        // Every message is readable afterwards.
        let mut total = 0;
        for route in svc.dispatcher().topic_partitions("t").unwrap() {
            svc.dispatcher().object_of(&route).unwrap().flush_at(&IoCtx::new(0)).unwrap();
            let (got, _) = svc.fetch_from(&route, 0, ReadCtrl::default(), &IoCtx::new(0)).unwrap();
            total += got.len();
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn producer_ids_are_distinct() {
        let svc = test_service(1, false);
        let a = svc.producer();
        let b = svc.producer();
        assert_ne!(a.pid, b.pid);
    }

    #[test]
    fn records_carry_monotonic_sequences() {
        let svc = test_service(1, false);
        svc.create_topic("t", TopicConfig::with_partitions(1)).unwrap();
        let mut p = svc.producer();
        p.set_batch_size(1);
        for _ in 0..5 {
            p.send("t", b"k".to_vec(), b"v".to_vec(), &IoCtx::new(0)).unwrap();
        }
        let route = svc.dispatcher().route("t", b"k").unwrap();
        let obj = svc.dispatcher().object_of(&route).unwrap();
        obj.flush_at(&IoCtx::new(0)).unwrap();
        let (got, _) = obj.read_at(0, ReadCtrl::default(), &IoCtx::new(0)).unwrap();
        let seqs: Vec<u64> = got.iter().map(|(_, r)| r.producer_seq.unwrap().1).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    }
}
