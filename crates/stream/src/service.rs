//! The stream service facade.
//!
//! Wires the dispatcher, stream objects, per-partition quotas, the
//! consumer-group coordinator and the transaction manager into the surface
//! producers and consumers talk to (Fig 6: producers → stream workers →
//! stream objects, coordinated by the stream dispatcher).
//!
//! A stream worker (§V-A) is the data-service-layer endpoint serving a set
//! of streams. Here it is a dispatcher route, not an object: the dispatcher
//! assigns each partition a [`WorkerId`] and rescales the set without
//! moving data, while the service carries each request straight to the
//! partition's stream object and charges the RDMA bus hop itself. The
//! paper's consumption cache ("a local cache is implemented at the stream
//! object client to speed up message consumption") is not modelled: with
//! one consumer group per workload every batch is read once, so it never
//! hits.

use crate::config::TopicConfig;
use crate::consumer::Consumer;
use crate::dispatcher::{PartitionRoute, RescaleReport, StreamDispatcher};
use crate::group::GroupCoordinator;
use crate::object::{AppendAck, ReadCtrl, StreamObjectStore};
use crate::partition::Partition;
use crate::producer::Producer;
use crate::record::Record;
use crate::txn::TxnManager;
use common::bucket::NanoBucket;
use common::clock::{secs, Nanos};
use common::ctx::{IoCtx, Phase};
use common::id::IdGen;
use common::metrics::Metrics;
use common::{Error, Result, SimClock, WorkerId};
use kvstore::MvccStore;
use plog::PlogStore;
use simdisk::Transport;
use std::collections::BTreeMap;
use std::sync::Arc;
use common::lockwitness::TrackedMutex;

/// The bus between stream workers and stream objects: the paper's data
/// bus runs RDMA, "which bypasses the CPU and L1 cache" (§III).
const TRANSPORT: Transport = Transport::Rdma;

/// Construction options for [`StreamService`].
#[derive(Debug, Clone)]
pub struct StreamServiceOptions {
    /// Initial number of stream workers.
    pub workers: usize,
    /// SCM staging capacity shared by scm-enabled topics (0 disables).
    pub scm_capacity: u64,
    /// MVCC store backing transaction records. `None` builds one over the
    /// PLog's KV index; pass the deployment's to let stream transactions
    /// commit atomically with other subsystems (e.g. lake table commits) —
    /// one keyspace must have one `MvccStore`.
    pub txn_mvcc: Option<Arc<MvccStore>>,
}

impl Default for StreamServiceOptions {
    fn default() -> Self {
        StreamServiceOptions {
            workers: 3,
            scm_capacity: 0,
            txn_mvcc: None,
        }
    }
}

/// The message streaming service.
#[derive(Debug)]
pub struct StreamService {
    clock: SimClock,
    objects: Arc<StreamObjectStore>,
    dispatcher: Arc<StreamDispatcher>,
    groups: Arc<GroupCoordinator>,
    quotas: TrackedMutex<BTreeMap<Partition, NanoBucket>>,
    txns: TxnManager,
    producer_ids: IdGen,
    consumer_ids: IdGen,
    metrics: Metrics,
}

impl StreamService {
    /// Build a service over an existing PLog store. Stream counters go to
    /// the PLog's metrics registry, so in a deployment they land next to
    /// every other layer's.
    pub fn new(plog: Arc<PlogStore>, clock: SimClock, opts: StreamServiceOptions) -> Arc<Self> {
        let metrics = plog.metrics().clone();
        let mvcc = opts.txn_mvcc.unwrap_or_else(|| Arc::new(MvccStore::over(plog.kv().clone())));
        let objects = Arc::new(StreamObjectStore::new(plog, opts.scm_capacity));
        let dispatcher = Arc::new(StreamDispatcher::new(objects.clone()));
        let groups = Arc::new(GroupCoordinator::new(dispatcher.clone(), metrics.clone()));
        let txns = TxnManager::new(objects.clone(), mvcc);
        let svc = Arc::new(StreamService {
            clock,
            objects,
            dispatcher,
            groups,
            quotas: TrackedMutex::new("stream.service.quotas", BTreeMap::new()),
            txns,
            producer_ids: IdGen::new(),
            consumer_ids: IdGen::new(),
            metrics,
        });
        for _ in 0..opts.workers.max(1) {
            svc.add_worker();
        }
        svc
    }

    /// The virtual clock shared with the storage substrate.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The dispatcher (topology inspection, offsets).
    pub fn dispatcher(&self) -> &Arc<StreamDispatcher> {
        &self.dispatcher
    }

    /// The consumer-group coordinator.
    pub fn groups(&self) -> &Arc<GroupCoordinator> {
        &self.groups
    }

    /// The stream object store.
    pub fn objects(&self) -> &Arc<StreamObjectStore> {
        &self.objects
    }

    /// The transaction coordinator.
    pub fn txns(&self) -> &TxnManager {
        &self.txns
    }

    /// Service metrics: the PLog store's registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Add a stream worker; returns its id. Rescaling is metadata-only.
    pub fn add_worker(&self) -> WorkerId {
        self.dispatcher.register_worker()
    }

    /// Remove a worker, reassigning its partitions.
    pub fn remove_worker(&self, id: WorkerId, ctx: &IoCtx) -> Result<RescaleReport> {
        self.dispatcher.deregister_worker(id, ctx)
    }

    /// Create a topic; every partition gets its own quota bucket.
    pub fn create_topic(&self, name: &str, config: TopicConfig) -> Result<RescaleReport> {
        let quota = config.quota;
        // slint:allow(R10): a public signature without a ctx that slbench calls; topic creation is metadata-only at current virtual time
        let report = self.dispatcher.create_topic(name, config, &IoCtx::new(self.clock.now()))?;
        let mut quotas = self.quotas.lock();
        for route in self.dispatcher.topic_partitions(name)? {
            quotas.insert(
                Partition::new(name, route.partition_idx),
                NanoBucket::new(quota, secs(1)),
            );
        }
        Ok(report)
    }

    /// Scale a topic to more partitions (Fig 14(c)); new partitions get
    /// fresh quota buckets, existing ones keep their fill level.
    pub fn scale_topic(&self, name: &str, partitions: u32, ctx: &IoCtx) -> Result<RescaleReport> {
        let report = self.dispatcher.scale_topic(name, partitions, ctx)?;
        let quota = self.dispatcher.topic_config(name)?.quota;
        let mut quotas = self.quotas.lock();
        for route in self.dispatcher.topic_partitions(name)? {
            quotas
                .entry(Partition::new(name, route.partition_idx))
                .or_insert_with(|| NanoBucket::new(quota, secs(1)));
        }
        Ok(report)
    }

    /// A new producer handle.
    pub fn producer(self: &Arc<Self>) -> Producer {
        Producer::new(self.clone(), self.producer_ids.next())
    }

    /// A new consumer handle — a fresh member of `group`.
    pub fn consumer(self: &Arc<Self>, group: &str) -> Consumer {
        let member = format!("m{}", self.consumer_ids.next());
        Consumer::new(self.clone(), group, member)
    }

    /// Internal produce path: per-partition quota → bus → stream object.
    ///
    /// The ack is only sent once the batch is persistent: the paper's
    /// delivery guarantee eliminates "unreliable components like file
    /// systems and page caches", so there is no in-memory-ack fast path.
    /// The producer batch is the I/O aggregation unit (§V-A "Efficient
    /// Transfer").
    pub(crate) fn produce_to(
        &self,
        topic: &str,
        route: &PartitionRoute,
        records: &[Record],
        ctx: &IoCtx,
    ) -> Result<AppendAck> {
        {
            let mut quotas = self.quotas.lock();
            // At most `quota` records per virtual second, with a burst of
            // one second's allowance (§V-A: "the quota configuration sets
            // the maximum processing rate for each stream").
            if let Some(q) = quotas.get_mut(&Partition::new(topic, route.partition_idx)) {
                let n = records.len() as u64;
                q.try_acquire(n, ctx.now).map_err(|_wait| {
                    Error::QuotaExceeded(format!(
                        "requested {n}, {} tokens available at rate {}/s",
                        q.available(),
                        q.rate()
                    ))
                })?;
            }
        }
        let object = self.dispatcher.object_of(route)?;
        let bytes: u64 = records.iter().map(|r| r.size_bytes() as u64).sum();
        let transfer = TRANSPORT.transfer_time(bytes);
        ctx.record(Phase::Wan, ctx.now, transfer);
        let appended = object.append_at(records, &ctx.at(ctx.now + transfer))?;
        let durable = object.flush_at(&ctx.at(appended.ack_time))?;
        let ack = AppendAck {
            base_offset: appended.base_offset,
            ack_time: durable.max(appended.ack_time),
        };
        // Register transactional participants with the coordinator.
        for r in records {
            if let Some(t) = r.txn {
                self.txns
                    .register_participant(common::TxnId(t), object.clone())?;
            }
        }
        self.metrics.incr("produce.records", records.len() as u64);
        self.metrics
            .observe("produce.latency_ns", ack.ack_time.saturating_sub(ctx.now));
        Ok(ack)
    }

    /// Internal fetch path: stream object read, then the bus hop back.
    pub(crate) fn fetch_from(
        &self,
        route: &PartitionRoute,
        offset: u64,
        ctrl: ReadCtrl,
        ctx: &IoCtx,
    ) -> Result<(Vec<(u64, Record)>, Nanos)> {
        let object = self.dispatcher.object_of(route)?;
        let (records, finish) = object.read_at(offset, ctrl, ctx)?;
        let bytes: u64 = records.iter().map(|(_, r)| r.size_bytes() as u64).sum();
        let transfer = TRANSPORT.transfer_time(bytes);
        ctx.record(Phase::Wan, finish, transfer);
        self.metrics.incr("fetch.records", records.len() as u64);
        Ok((records, finish + transfer))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use common::ctx::{SpanRecord, SpanSink};
    use common::size::MIB;
    use common::Error;
    use ec::Redundancy;
    use plog::PlogConfig;
    use simdisk::{MediaKind, StoragePool};

    pub(crate) fn test_service(workers: usize, scm: bool) -> Arc<StreamService> {
        let clock = SimClock::new();
        let pool = Arc::new(StoragePool::new(
            "ssd",
            MediaKind::NvmeSsd,
            6,
            512 * MIB,
            clock.clone(),
        ));
        let plog = Arc::new(
            PlogStore::new(
                pool,
                PlogConfig {
                    shard_count: 64,
                    redundancy: Redundancy::Replicate { copies: 2 },
                    shard_capacity: 256 * MIB,
                },
            )
            .unwrap(),
        );
        StreamService::new(
            plog,
            clock,
            StreamServiceOptions {
                workers,
                scm_capacity: if scm { 16 * MIB } else { 0 },
                ..Default::default()
            },
        )
    }

    #[test]
    fn topic_creation_and_worker_scaling() {
        let svc = test_service(2, false);
        assert_eq!(svc.dispatcher().workers().len(), 2);
        svc.create_topic("t", TopicConfig::with_partitions(4)).unwrap();
        let id = svc.add_worker();
        assert_eq!(svc.dispatcher().workers().len(), 3);
        let report = svc.remove_worker(id, &IoCtx::new(0)).unwrap();
        assert_eq!(report.bytes_migrated, 0);
        assert_eq!(svc.dispatcher().workers().len(), 2);
    }

    #[test]
    fn quota_rejects_overload() {
        let svc = test_service(1, false);
        let mut cfg = TopicConfig::with_partitions(1);
        cfg.quota = 10; // 10 msgs/sec
        svc.create_topic("slow", cfg).unwrap();
        let route = svc.dispatcher().route("slow", b"k").unwrap();
        let records: Vec<Record> =
            (0..10).map(|i| Record::new(b"k".to_vec(), b"v".to_vec(), i)).collect();
        svc.produce_to("slow", &route, &records, &IoCtx::new(0)).unwrap();
        let err = svc.produce_to("slow", &route, &records[..1], &IoCtx::new(0));
        assert!(matches!(err, Err(Error::QuotaExceeded(_))));
    }

    #[test]
    fn quotas_are_per_partition_not_per_topic() {
        let svc = test_service(2, false);
        let mut cfg = TopicConfig::with_partitions(2);
        cfg.quota = 10;
        svc.create_topic("t", cfg).unwrap();
        let records: Vec<Record> =
            (0..10).map(|i| Record::new(b"k".to_vec(), b"v".to_vec(), i)).collect();
        let r0 = svc.dispatcher().route_partition("t", 0).unwrap();
        let r1 = svc.dispatcher().route_partition("t", 1).unwrap();
        // Draining partition 0's bucket must not starve partition 1.
        svc.produce_to("t", &r0, &records, &IoCtx::new(0)).unwrap();
        assert!(svc.produce_to("t", &r0, &records[..1], &IoCtx::new(0)).is_err());
        svc.produce_to("t", &r1, &records, &IoCtx::new(0)).unwrap();
    }

    #[test]
    fn produce_fetch_roundtrip_through_service() {
        let svc = test_service(2, false);
        svc.create_topic("t", TopicConfig::with_partitions(2)).unwrap();
        let route = svc.dispatcher().route("t", b"key-1").unwrap();
        let records: Vec<Record> =
            (0..5).map(|i| Record::new(b"key-1".to_vec(), format!("m{i}").into_bytes(), i)).collect();
        let ack = svc.produce_to("t", &route, &records, &IoCtx::new(0)).unwrap();
        assert_eq!(ack.base_offset, Some(0));
        // flush the open slice so a fresh read sees everything
        svc.dispatcher().object_of(&route).unwrap().flush_at(&IoCtx::new(0)).unwrap();
        let (got, _) = svc.fetch_from(&route, 0, ReadCtrl::default(), &IoCtx::new(0)).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(svc.metrics().counter("fetch.records"), 5);
        assert_eq!(svc.metrics().counter("produce.records"), 5);
    }

    /// The `Phase::Wan` spans a request recorded into `sink`.
    fn wan_spans(sink: &SpanSink) -> Vec<SpanRecord> {
        sink.trail().into_iter().filter(|r| r.phase == Phase::Wan).collect()
    }

    #[test]
    fn produce_and_fetch_each_charge_one_bus_hop() {
        // Two identical deployments: one serves requests through the
        // service, the twin replays the same stream-object calls by hand,
        // so the bus charge's size and instants are pinned exactly.
        let (svc, twin) = (test_service(1, false), test_service(1, false));
        for s in [&svc, &twin] {
            s.create_topic("t", TopicConfig::with_partitions(1)).unwrap();
        }
        let route = svc.dispatcher().route_partition("t", 0).unwrap();
        let twin_obj = twin.dispatcher().object_of(&route).unwrap();
        let records: Vec<Record> =
            (0..8).map(|i| Record::new(b"k".to_vec(), vec![0u8; 32], i)).collect();
        let transfer =
            TRANSPORT.transfer_time(records.iter().map(|r| r.size_bytes() as u64).sum());

        // Produce: bus hop at `now`, append after it, flush at the append ack.
        let sink = Arc::new(SpanSink::default());
        let t0 = 1_000;
        let ack = svc
            .produce_to("t", &route, &records, &IoCtx::new(t0).with_sink(sink.clone()))
            .unwrap();
        let wan = wan_spans(&sink);
        assert_eq!(wan.len(), 1, "{wan:?}");
        assert_eq!((wan[0].start, wan[0].duration), (t0, transfer));
        let appended = twin_obj.append_at(&records, &IoCtx::new(t0 + transfer)).unwrap();
        let durable = twin_obj.flush_at(&IoCtx::new(appended.ack_time)).unwrap();
        assert_eq!(ack.base_offset, Some(0));
        assert_eq!(ack.ack_time, durable.max(appended.ack_time), "the ack includes the hop");
        assert!(ack.ack_time > t0 + transfer);

        // Fetch: the storage read, then the bus hop from its finish.
        let sink = Arc::new(SpanSink::default());
        let t1 = ack.ack_time;
        let (got, done) = svc
            .fetch_from(&route, 0, ReadCtrl::default(), &IoCtx::new(t1).with_sink(sink.clone()))
            .unwrap();
        assert_eq!(got.len(), 8);
        let (_, finish) = twin_obj.read_at(0, ReadCtrl::default(), &IoCtx::new(t1)).unwrap();
        let wan = wan_spans(&sink);
        assert_eq!(wan.len(), 1, "{wan:?}");
        assert_eq!((wan[0].start, wan[0].duration), (finish, transfer));
        assert_eq!(done, finish + transfer);
    }
}
