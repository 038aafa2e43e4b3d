//! Stream workers (§V-A).
//!
//! A worker is the data-service-layer endpoint serving a set of streams.
//! Produce requests cross the data bus (RDMA), get appended to the stream
//! object, and the ack travels back; fetch requests consult a local
//! consumption cache first ("a local cache is implemented at the stream
//! object client to speed up message consumption").

use crate::object::{AppendAck, ReadCtrl, StreamObject};
use crate::record::Record;
use common::clock::Nanos;
use common::ctx::{IoCtx, Phase};
use common::{Result, WorkerId};
use simdisk::{Bus, LruCache};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use common::lockwitness::TrackedMutex;

/// A stream worker with its stream-object client cache.
#[derive(Debug)]
pub struct StreamWorker {
    id: WorkerId,
    bus: Arc<Bus>,
    /// Consumption cache: (object id, base offset) → encoded record batch.
    cache: TrackedMutex<LruCache<(u64, u64)>>,
    /// Hot-path counters: atomics, not mutexes — produce/fetch bump these
    /// on every request and never need cross-counter consistency.
    produced: AtomicU64,
    fetched: AtomicU64,
}

impl StreamWorker {
    /// Create a worker with a `cache_bytes`-sized consumption cache.
    pub fn new(id: WorkerId, bus: Arc<Bus>, cache_bytes: u64) -> Self {
        StreamWorker {
            id,
            bus,
            cache: TrackedMutex::new("stream.worker.cache", LruCache::new(cache_bytes)),
            produced: AtomicU64::new(0),
            fetched: AtomicU64::new(0),
        }
    }

    /// Worker id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// Handle a produce request: bus transfer + stream-object append +
    /// durable flush.
    ///
    /// The ack is only sent once the batch is persistent: the paper's
    /// delivery guarantee eliminates "unreliable components like file
    /// systems and page caches", so there is no in-memory-ack fast path.
    /// The producer batch is the I/O aggregation unit (§V-A "Efficient
    /// Transfer").
    pub fn produce(
        &self,
        object: &Arc<StreamObject>,
        records: &[Record],
        ctx: &IoCtx,
    ) -> Result<AppendAck> {
        let bytes: usize = records.iter().map(|r| r.size_bytes()).sum();
        let transfer = self.bus.transport().transfer_time(bytes as u64);
        ctx.record(Phase::Wan, ctx.now, transfer);
        let ack = object.append_at(records, &ctx.at(ctx.now + transfer))?;
        let durable = object.flush_at(&ctx.at(ack.ack_time))?;
        self.produced.fetch_add(records.len() as u64, Ordering::Relaxed);
        Ok(AppendAck { base_offset: ack.base_offset, ack_time: durable.max(ack.ack_time) })
    }

    /// Handle a fetch request, serving from the consumption cache when the
    /// same batch was read before.
    pub fn fetch(
        &self,
        object: &Arc<StreamObject>,
        offset: u64,
        ctrl: ReadCtrl,
        ctx: &IoCtx,
    ) -> Result<(Vec<(u64, Record)>, Nanos)> {
        let cache_key = (object.id().raw(), offset);
        // Cached batches are only valid while the object hasn't grown past
        // what was cached; keep it simple and correct by keying on the end
        // offset too.
        let end = object.end_offset();
        let mut cache = self.cache.lock();
        if let Some(encoded) = cache.get(&cache_key) {
            // Cache hit: decode locally, no storage round trip.
            if let Ok(records) = Record::decode_slice(&encoded) {
                let out: Vec<(u64, Record)> = records
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| (offset + i as u64, r))
                    .take(ctrl.max_records)
                    .collect();
                // A cached batch that already reaches the end is complete.
                if out.last().map(|(o, _)| o + 1) == Some(end) || out.len() >= ctrl.max_records {
                    self.fetched.fetch_add(out.len() as u64, Ordering::Relaxed);
                    return Ok((out, ctx.now));
                }
            }
        }
        drop(cache);
        let (records, finish) = object.read_at(offset, ctrl, ctx)?;
        if !records.is_empty() && records.first().map(|(o, _)| *o) == Some(offset) {
            let contiguous: Vec<Record> = records
                .iter()
                .scan(offset, |expect, (o, r)| {
                    if *o == *expect {
                        *expect += 1;
                        Some(r.clone())
                    } else {
                        None
                    }
                })
                .collect();
            self.cache
                .lock()
                .put((object.id().raw(), offset), Record::encode_slice(&contiguous));
        }
        let transfer = self
            .bus
            .transport()
            .transfer_time(records.iter().map(|(_, r)| r.size_bytes() as u64).sum());
        ctx.record(Phase::Wan, finish, transfer);
        self.fetched.fetch_add(records.len() as u64, Ordering::Relaxed);
        Ok((records, finish + transfer))
    }

    /// `(records produced, records fetched)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.produced.load(Ordering::Relaxed), self.fetched.load(Ordering::Relaxed))
    }

    /// `(hits, misses)` of the consumption cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{CreateOptions, StreamObjectStore};
    use common::size::MIB;
    use common::SimClock;
    use common::ctx::IoCtx;
    use ec::Redundancy;
    use plog::{PlogConfig, PlogStore};
    use simdisk::{MediaKind, StoragePool, Transport};

    fn setup() -> (StreamWorker, Arc<StreamObject>) {
        let clock = SimClock::new();
        let pool = Arc::new(StoragePool::new(
            "ssd",
            MediaKind::NvmeSsd,
            4,
            256 * MIB,
            clock.clone(),
        ));
        let plog = Arc::new(
            PlogStore::new(
                pool,
                PlogConfig {
                    shard_count: 8,
                    redundancy: Redundancy::Replicate { copies: 2 },
                    shard_capacity: 64 * MIB,
                },
            )
            .unwrap(),
        );
        let store = StreamObjectStore::new(plog, 0);
        let obj = store
            .create(CreateOptions { slice_capacity: 8, ..Default::default() })
            .unwrap();
        let bus = Arc::new(Bus::new(Transport::Rdma, clock));
        (StreamWorker::new(WorkerId(0), bus, MIB), obj)
    }

    fn recs(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(format!("k{i}").into_bytes(), vec![0u8; 32], i as i64))
            .collect()
    }

    #[test]
    fn produce_charges_bus_transfer() {
        let (w, obj) = setup();
        let ack = w.produce(&obj, &recs(8), &IoCtx::new(0)).unwrap();
        assert!(ack.ack_time > 0, "bus + plog time must be charged");
        assert_eq!(ack.base_offset, Some(0));
        assert_eq!(w.stats().0, 8);
    }

    #[test]
    fn fetch_roundtrips_and_second_fetch_hits_cache() {
        let (w, obj) = setup();
        w.produce(&obj, &recs(8), &IoCtx::new(0)).unwrap();
        let ctrl = ReadCtrl::default();
        let (r1, _) = w.fetch(&obj, 0, ctrl, &IoCtx::new(0)).unwrap();
        assert_eq!(r1.len(), 8);
        let (hits_before, _) = w.cache_stats();
        let (r2, _) = w.fetch(&obj, 0, ctrl, &IoCtx::new(0)).unwrap();
        assert_eq!(r2.len(), 8);
        let (hits_after, _) = w.cache_stats();
        assert_eq!(hits_after, hits_before + 1, "second fetch must hit cache");
        assert_eq!(r1, r2);
    }

    #[test]
    fn cache_does_not_serve_stale_short_reads() {
        let (w, obj) = setup();
        w.produce(&obj, &recs(8), &IoCtx::new(0)).unwrap();
        w.fetch(&obj, 0, ReadCtrl::default(), &IoCtx::new(0)).unwrap();
        // More records arrive; a cached batch ending before the new end must
        // not satisfy an unbounded read.
        w.produce(&obj, &recs(8), &IoCtx::new(0)).unwrap();
        let (r, _) = w.fetch(&obj, 0, ReadCtrl::default(), &IoCtx::new(0)).unwrap();
        assert_eq!(r.len(), 16);
    }

    #[test]
    fn bounded_fetch_respects_max_records() {
        let (w, obj) = setup();
        w.produce(&obj, &recs(16), &IoCtx::new(0)).unwrap();
        let ctrl = ReadCtrl { max_records: 5, committed_only: true };
        let (r, _) = w.fetch(&obj, 2, ctrl, &IoCtx::new(0)).unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r[0].0, 2);
    }
}
