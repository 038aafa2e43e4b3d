//! The stream dispatcher (§V-A).
//!
//! The dispatcher owns the messaging-service metadata: "the relationships
//! among topics, streams, stream workers, and stream objects are stored as
//! key-value pairs in a fault-tolerant key-value store". Each topic's routes
//! and config live in the metadata store under `topic/`, and every reader
//! outside the produce path reads them from there. Topics are sets of
//! **partitions** — each an ordered log backed by a stream object pinned to
//! one PLog shard (`plog::placement::shard_for_partition`). The dispatcher
//! creates topics, assigns partitions to workers round-robin, routes
//! produce/fetch requests, and — crucially for Fig 14(c) — rescales the
//! worker set or the partition count *without data migration*: only KV
//! mappings change, each charged a small metadata-update cost in virtual
//! time.

use crate::config::TopicConfig;
use crate::object::{CreateOptions, StreamObject, StreamObjectStore};
use crate::partition::partition_for_key;
use common::clock::{micros, Nanos};
use common::ctx::{IoCtx, Phase};
use common::lockwitness::TrackedMutex;
use common::varint::{encode_u64, Reader};
use common::{Error, ObjectId, Result, WorkerId};
use kvstore::{keys, SharedKv};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Virtual cost of one metadata update (KV write + topology refresh push).
pub(crate) const METADATA_OP_COST: Nanos = micros(500);

/// One partition's routing entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionRoute {
    /// Partition index within its topic.
    pub partition_idx: u32,
    /// Stream object backing the partition.
    pub object_id: ObjectId,
    /// Worker currently serving the partition.
    pub worker: WorkerId,
}

impl PartitionRoute {
    /// The `topic/<name>/partition/<idx>` value: partition, object and
    /// worker ids as varints.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12);
        for id in [self.partition_idx.into(), self.object_id.raw(), self.worker.raw()] {
            encode_u64(id, &mut out);
        }
        out
    }

    /// Decode a value written by [`encode`](Self::encode).
    pub fn decode(buf: &[u8]) -> Result<PartitionRoute> {
        let mut r = Reader::new(buf, "partition route");
        let partition_idx = u32::try_from(r.u64()?)
            .map_err(|_| Error::Corruption("partition route index overflows u32".into()))?;
        let (object_id, worker) = (ObjectId(r.u64()?), WorkerId(r.u64()?));
        r.finish()?;
        Ok(PartitionRoute { partition_idx, object_id, worker })
    }
}

/// Report of a rescaling operation (Fig 14(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RescaleReport {
    /// Metadata entries created or updated.
    pub(crate) metadata_updates: u64,
    /// Bytes of message data moved between nodes (always 0 by design).
    pub bytes_migrated: u64,
    /// Virtual time the rescale took.
    pub elapsed: Nanos,
}

impl RescaleReport {
    /// `updates` metadata updates and no data moved, charged to `ctx`.
    fn metadata_only(updates: u64, ctx: &IoCtx) -> Self {
        let elapsed = updates * METADATA_OP_COST;
        ctx.record(Phase::Meta, ctx.now, elapsed);
        RescaleReport { metadata_updates: updates, bytes_migrated: 0, elapsed }
    }
}

#[derive(Debug, Default)]
struct Topology {
    /// topic → per-partition routes: the produce path's copy of `topic/`.
    topics: BTreeMap<String, Vec<PartitionRoute>>,
    /// Live stream workers. A worker is nothing but this id and the routes
    /// naming it: requests go straight from the service to the stream object.
    workers: Vec<WorkerId>,
    next_worker_id: u64,
    next_worker_rr: usize,
}

impl Topology {
    fn routes(&self, topic: &str) -> Result<&Vec<PartitionRoute>> {
        self.topics.get(topic).ok_or_else(|| Error::NotFound(format!("topic {topic}")))
    }
}

/// The dispatcher service.
#[derive(Debug)]
pub struct StreamDispatcher {
    objects: Arc<StreamObjectStore>,
    topo: TrackedMutex<Topology>,
}

impl StreamDispatcher {
    /// Create a dispatcher over the given object store.
    pub(crate) fn new(objects: Arc<StreamObjectStore>) -> Self {
        StreamDispatcher {
            objects,
            topo: TrackedMutex::new("stream.dispatcher.topo", Topology::default()),
        }
    }

    /// Register a new stream worker under the next id (monotonic from 0);
    /// newly created partitions may be assigned to it.
    pub(crate) fn register_worker(&self) -> WorkerId {
        let mut topo = self.topo.lock();
        let id = WorkerId(topo.next_worker_id);
        topo.next_worker_id += 1;
        topo.workers.push(id);
        id
    }

    /// Deregister a worker, reassigning its partitions to the survivors.
    /// Returns the rescale report (metadata-only, no data moves).
    pub(crate) fn deregister_worker(&self, id: WorkerId, ctx: &IoCtx) -> Result<RescaleReport> {
        let mut topo = self.topo.lock();
        if topo.workers.len() <= 1 {
            return Err(Error::InvalidArgument("cannot remove the last worker".into()));
        }
        topo.workers.retain(|w| *w != id);
        let workers = topo.workers.clone();
        let mut updates = 0u64;
        for (topic, routes) in topo.topics.iter_mut() {
            for route in routes.iter_mut() {
                if route.worker == id {
                    route.worker = workers[updates as usize % workers.len()];
                    updates += 1;
                    let key = keys::topic_route(topic, route.partition_idx);
                    self.metadata().put(key, route.encode());
                }
            }
        }
        Ok(RescaleReport::metadata_only(updates, ctx))
    }

    /// Currently registered workers.
    pub fn workers(&self) -> Vec<WorkerId> {
        self.topo.lock().workers.clone()
    }

    /// Create a topic with `config.stream_num` partitions, assigned
    /// round-robin (the paper: "streams are added to the stream workers in
    /// a round-robin manner"). Each partition is backed by a fresh stream
    /// object pinned to the shard `shard_for_partition` names, so the
    /// partition→shard mapping is a pure function both layers agree on.
    pub(crate) fn create_topic(
        &self,
        name: &str,
        config: TopicConfig,
        ctx: &IoCtx,
    ) -> Result<RescaleReport> {
        keys::check_name("topic", name)?;
        let mut topo = self.topo.lock();
        if topo.topics.contains_key(name) {
            return Err(Error::AlreadyExists(format!("topic {name}")));
        }
        if topo.workers.is_empty() {
            return Err(Error::InvalidArgument("no stream workers registered".into()));
        }
        if config.stream_num == 0 {
            return Err(Error::InvalidArgument("stream_num must be positive".into()));
        }
        let mut routes = Vec::with_capacity(config.stream_num as usize);
        for idx in 0..config.stream_num {
            routes.push(self.new_partition(&mut topo, name, idx, &config)?);
        }
        let updates = routes.len() as u64 + 1;
        self.metadata().put(keys::topic_config(name), config.encode());
        topo.topics.insert(name.to_string(), routes);
        Ok(RescaleReport::metadata_only(updates, ctx))
    }

    /// Grow (shrinking is unsupported) a topic to `new_partition_num`
    /// partitions. Existing partitions and their data are untouched —
    /// Fig 14(c)'s migration-free elasticity.
    pub(crate) fn scale_topic(
        &self,
        name: &str,
        new_partition_num: u32,
        ctx: &IoCtx,
    ) -> Result<RescaleReport> {
        // Nothing but this call rewrites a config, and only its
        // `stream_num`, so it may be read before the topology lock.
        let mut config = self.topic_config(name)?;
        let mut topo = self.topo.lock();
        let current = topo.routes(name)?.len() as u32;
        if new_partition_num < current {
            return Err(Error::Unsupported(
                "shrinking a topic would reorder keys; not supported".into(),
            ));
        }
        let mut updates = 0u64;
        for idx in current..new_partition_num {
            let route = self.new_partition(&mut topo, name, idx, &config)?;
            topo.topics
                .get_mut(name)
                .ok_or_else(|| Error::NotFound(format!("topic {name}")))?
                .push(route);
            updates += 1;
        }
        config.stream_num = new_partition_num;
        self.metadata().put(keys::topic_config(name), config.encode());
        updates += 1;
        Ok(RescaleReport::metadata_only(updates, ctx))
    }

    /// The partition (and its object) that owns `key` within `topic` under
    /// the default key-hash policy.
    pub fn route(&self, topic: &str, key: &[u8]) -> Result<PartitionRoute> {
        let topo = self.topo.lock();
        let routes = topo.routes(topic)?;
        let idx = partition_for_key(key, routes.len() as u32);
        Ok(routes[idx as usize].clone())
    }

    /// The route of one specific partition.
    pub fn route_partition(&self, topic: &str, partition_idx: u32) -> Result<PartitionRoute> {
        let topo = self.topo.lock();
        let routes = topo.routes(topic)?;
        routes
            .get(partition_idx as usize)
            .cloned()
            .ok_or_else(|| {
                Error::InvalidArgument(format!(
                    "partition {partition_idx} out of range for topic {topic} ({} partitions)",
                    routes.len()
                ))
            })
    }

    /// Number of partitions of `topic`.
    pub(crate) fn partition_count(&self, topic: &str) -> Result<u32> {
        Ok(self.topo.lock().routes(topic)?.len() as u32)
    }

    /// All partition routes of `topic`, in partition order, read from the
    /// metadata store. A route that is undecodable, out of place or missing
    /// is `Error::Corruption`.
    pub fn topic_partitions(&self, topic: &str) -> Result<Vec<PartitionRoute>> {
        // Topology before the store (lock order 25 → 70): a concurrent
        // create or scale writes both under the topology lock. A topic the
        // produce path does not know has no routes, whatever a failed
        // create left in the store.
        let topo = self.topo.lock();
        let known = topo.routes(topic)?.len();
        let mut stored = Vec::with_capacity(known);
        self.metadata().scan_prefix_with(keys::topic_routes(topic).as_bytes(), &mut |_, v| {
            stored.push(PartitionRoute::decode(v));
            true
        });
        if stored.len() != known {
            let n = stored.len();
            return Err(Error::Corruption(format!("topic {topic}: {n} of {known} routes stored")));
        }
        let in_place = |(idx, route): (usize, Result<PartitionRoute>)| match route? {
            r if r.partition_idx as usize == idx => Ok(r),
            r => Err(Error::Corruption(format!(
                "topic {topic}: route {} stored at {idx}",
                r.partition_idx
            ))),
        };
        stored.into_iter().enumerate().map(in_place).collect()
    }

    /// All topic names, sorted (deterministic enumeration for maintenance
    /// sweeps).
    pub(crate) fn topics(&self) -> Vec<String> {
        self.topo.lock().topics.keys().cloned().collect()
    }

    /// The configuration of `topic`, read from the metadata store.
    pub(crate) fn topic_config(&self, topic: &str) -> Result<TopicConfig> {
        let _topo = self.topo.lock();
        let value = self
            .metadata()
            .get(keys::topic_config(topic).as_bytes())
            .ok_or_else(|| Error::NotFound(format!("topic {topic}")))?;
        TopicConfig::decode(&value)
    }

    /// Resolve a route to its stream object.
    pub fn object_of(&self, route: &PartitionRoute) -> Result<Arc<StreamObject>> {
        self.objects.get(route.object_id)
    }

    /// Commit a consumer-group offset for `topic`'s partition
    /// `partition_idx`. Unfenced low-level write — group-aware callers go
    /// through `GroupCoordinator::commit`, which checks ownership first.
    pub(crate) fn commit_offset(&self, group: &str, topic: &str, partition_idx: u32, offset: u64) {
        self.metadata()
            .put(keys::group_offset(group, topic, partition_idx), offset.to_be_bytes().to_vec());
    }

    /// Fetch the committed offset for the partition in `group`. A stored
    /// value that is not one big-endian `u64` is `Error::Corruption`: a
    /// damaged entry must not rewind the group to offset 0.
    pub fn committed_offset(
        &self,
        group: &str,
        topic: &str,
        partition_idx: u32,
    ) -> Result<Option<u64>> {
        let key = keys::group_offset(group, topic, partition_idx);
        let Some(value) = self.metadata().get(key.as_bytes()) else {
            return Ok(None);
        };
        let mut r = Reader::new(&value, "group offset");
        let offset = u64::from_be_bytes(r.array()?);
        r.finish()?;
        Ok(Some(offset))
    }

    /// The metadata KV store: the PLog's, where the topology and group
    /// keys live beside every other service's.
    pub fn metadata(&self) -> &SharedKv {
        self.objects.plog().kv()
    }

    /// Partition `idx` of `topic`: a fresh stream object pinned to the
    /// shard `shard_for_partition` names, served by the next worker
    /// round-robin. Stores its route and returns it.
    fn new_partition(
        &self,
        topo: &mut Topology,
        topic: &str,
        idx: u32,
        config: &TopicConfig,
    ) -> Result<PartitionRoute> {
        let shard_count = self.objects.plog().config().shard_count;
        let shard = plog::placement::shard_for_partition(topic, idx, shard_count) as u32;
        let object = self.objects.create(CreateOptions {
            scm_cache: config.scm_cache,
            shard_hint: Some(shard),
            ..Default::default()
        })?;
        let worker = topo.workers[topo.next_worker_rr % topo.workers.len()];
        topo.next_worker_rr += 1;
        let route = PartitionRoute { partition_idx: idx, object_id: object.id(), worker };
        self.metadata().put(keys::topic_route(topic, idx), route.encode());
        Ok(route)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use common::size::MIB;
    use common::SimClock;
    use ec::Redundancy;
    use plog::{PlogConfig, PlogStore};
    use simdisk::{MediaKind, StoragePool};

    fn dispatcher(workers: usize) -> StreamDispatcher {
        let pool = Arc::new(StoragePool::new(
            "ssd",
            MediaKind::NvmeSsd,
            4,
            256 * MIB,
            SimClock::new(),
        ));
        let plog = Arc::new(
            PlogStore::new(
                pool,
                PlogConfig {
                    shard_count: 32,
                    redundancy: Redundancy::Replicate { copies: 2 },
                    shard_capacity: 64 * MIB,
                },
            )
            .unwrap(),
        );
        let store = Arc::new(StreamObjectStore::new(plog, 0));
        let d = StreamDispatcher::new(store);
        for i in 0..workers {
            assert_eq!(d.register_worker(), WorkerId(i as u64));
        }
        d
    }

    #[test]
    fn create_topic_distributes_partitions_round_robin() {
        let d = dispatcher(3);
        d.create_topic("t", TopicConfig::with_partitions(9), &IoCtx::new(0)).unwrap();
        let routes = d.topic_partitions("t").unwrap();
        assert_eq!(routes.len(), 9);
        let mut per_worker = BTreeMap::new();
        for r in &routes {
            *per_worker.entry(r.worker).or_insert(0u32) += 1;
        }
        assert!(per_worker.values().all(|&c| c == 3), "{per_worker:?}");
    }

    #[test]
    fn duplicate_topic_rejected() {
        let d = dispatcher(1);
        d.create_topic("t", TopicConfig::with_partitions(1), &IoCtx::new(0)).unwrap();
        assert!(matches!(
            d.create_topic("t", TopicConfig::with_partitions(1), &IoCtx::new(0)),
            Err(Error::AlreadyExists(_))
        ));
    }

    #[test]
    fn routing_is_stable_and_key_based() {
        let d = dispatcher(2);
        d.create_topic("t", TopicConfig::with_partitions(4), &IoCtx::new(0)).unwrap();
        let a = d.route("t", b"user-1").unwrap();
        let b = d.route("t", b"user-1").unwrap();
        assert_eq!(a, b, "same key must route identically");
        // Different keys spread over partitions.
        let hit: std::collections::HashSet<u32> = (0..100)
            .map(|i| d.route("t", format!("user-{i}").as_bytes()).unwrap().partition_idx)
            .collect();
        assert!(hit.len() >= 3);
    }

    #[test]
    fn partitions_map_to_their_declared_shards() {
        let d = dispatcher(2);
        d.create_topic("t", TopicConfig::with_partitions(8), &IoCtx::new(0)).unwrap();
        let store = d.objects.plog();
        for route in d.topic_partitions("t").unwrap() {
            let obj = d.object_of(&route).unwrap();
            let want = plog::placement::shard_for_partition("t", route.partition_idx, 32);
            // The slice a persisted record lands in is written to the
            // object's shard and to no other.
            let before = store.shard_usage();
            obj.append_at(&[Record::new(b"k".to_vec(), b"v".to_vec(), 0)], &IoCtx::new(0))
                .unwrap();
            obj.flush_at(&IoCtx::new(0)).unwrap();
            let after = store.shard_usage();
            let grew: Vec<usize> = (0..after.len()).filter(|&s| after[s] > before[s]).collect();
            assert_eq!(grew, vec![want], "partition {} pinned wrong", route.partition_idx);
        }
    }

    #[test]
    fn route_partition_bounds_checked() {
        let d = dispatcher(1);
        d.create_topic("t", TopicConfig::with_partitions(2), &IoCtx::new(0)).unwrap();
        assert_eq!(d.partition_count("t").unwrap(), 2);
        assert!(d.route_partition("t", 1).is_ok());
        assert!(matches!(d.route_partition("t", 2), Err(Error::InvalidArgument(_))));
        assert!(matches!(d.partition_count("nope"), Err(Error::NotFound(_))));
    }

    #[test]
    fn scale_topic_is_metadata_only_and_fast() {
        // Fig 14(c): 1000 → 10000 partitions in under 10 virtual seconds,
        // zero bytes migrated.
        let d = dispatcher(4);
        d.create_topic("big", TopicConfig::with_partitions(1000), &IoCtx::new(0)).unwrap();
        let report = d.scale_topic("big", 10_000, &IoCtx::new(0)).unwrap();
        assert_eq!(report.bytes_migrated, 0);
        assert_eq!(d.topic_partitions("big").unwrap().len(), 10_000);
        assert!(
            report.elapsed < common::clock::secs(10),
            "rescale took {} ns",
            report.elapsed
        );
    }

    #[test]
    fn shrink_is_unsupported() {
        let d = dispatcher(1);
        d.create_topic("t", TopicConfig::with_partitions(4), &IoCtx::new(0)).unwrap();
        assert!(matches!(
            d.scale_topic("t", 2, &IoCtx::new(0)),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn worker_removal_reassigns_without_migration() {
        let d = dispatcher(3);
        d.create_topic("t", TopicConfig::with_partitions(6), &IoCtx::new(0)).unwrap();
        let victim = WorkerId(1);
        let before: Vec<ObjectId> = d
            .topic_partitions("t")
            .unwrap()
            .iter()
            .map(|r| r.object_id)
            .collect();
        let report = d.deregister_worker(victim, &IoCtx::new(0)).unwrap();
        assert_eq!(report.bytes_migrated, 0);
        let after = d.topic_partitions("t").unwrap();
        assert!(after.iter().all(|r| r.worker != victim));
        // Stream objects unchanged: data stayed put.
        let after_ids: Vec<ObjectId> = after.iter().map(|r| r.object_id).collect();
        assert_eq!(before, after_ids);
    }

    #[test]
    fn stored_routes_match_the_produce_path_after_create_scale_and_deregister() {
        let d = dispatcher(3);
        d.create_topic("t", TopicConfig::with_partitions(5), &IoCtx::new(0)).unwrap();
        d.scale_topic("t", 9, &IoCtx::new(0)).unwrap();
        let owned = (0..9).filter(|&i| d.route_partition("t", i).unwrap().worker == WorkerId(1));
        let owned = owned.count() as u64;
        let report = d.deregister_worker(WorkerId(1), &IoCtx::new(0)).unwrap();
        assert_eq!(report.metadata_updates, owned, "one route update per moved partition");
        let stored = d.topic_partitions("t").unwrap();
        assert_eq!(stored.len(), 9);
        for (idx, route) in stored.iter().enumerate() {
            assert_eq!(route, &d.route_partition("t", idx as u32).unwrap());
            assert_ne!(route.worker, WorkerId(1));
        }
        assert_eq!(d.topic_config("t").unwrap().stream_num, 9);
    }

    #[test]
    fn cannot_remove_last_worker() {
        let d = dispatcher(1);
        assert!(d.deregister_worker(WorkerId(0), &IoCtx::new(0)).is_err());
    }

    #[test]
    fn consumer_group_offsets_roundtrip() {
        let d = dispatcher(1);
        assert_eq!(d.committed_offset("g", "t", 0).unwrap(), None);
        d.commit_offset("g", "t", 0, 41);
        d.commit_offset("g", "t", 0, 42);
        assert_eq!(d.committed_offset("g", "t", 0).unwrap(), Some(42));
    }
}
