//! The stream dispatcher (§V-A).
//!
//! The dispatcher owns the messaging-service metadata: "the relationships
//! among topics, streams, stream workers, and stream objects are stored as
//! key-value pairs in a fault-tolerant key-value store". Topics are sets of
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
use common::varint::Reader;
use common::{Error, ObjectId, Result, WorkerId};
use kvstore::SharedKv;
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

/// Report of a rescaling operation (Fig 14(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RescaleReport {
    /// Metadata entries created or updated.
    pub metadata_updates: u64,
    /// Bytes of message data moved between nodes (always 0 by design).
    pub bytes_migrated: u64,
    /// Virtual time the rescale took.
    pub elapsed: Nanos,
}

#[derive(Debug, Default)]
struct Topology {
    /// topic → per-partition routes.
    topics: BTreeMap<String, Vec<PartitionRoute>>,
    /// topic → config.
    configs: BTreeMap<String, TopicConfig>,
    /// Live stream workers. A worker is nothing but this id and the routes
    /// naming it: requests go straight from the service to the stream object.
    workers: Vec<WorkerId>,
    next_worker_id: u64,
    next_worker_rr: usize,
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
        self.metadata().put(format!("worker/{}", id.raw()), b"up".to_vec());
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
        self.metadata().delete(format!("worker/{}", id.raw()));
        let workers = topo.workers.clone();
        let mut updates = 1u64;
        let mut rr = 0usize;
        for (topic, routes) in topo.topics.iter_mut() {
            for route in routes.iter_mut() {
                if route.worker == id {
                    route.worker = workers[rr % workers.len()];
                    rr += 1;
                    updates += 1;
                    self.metadata().put(
                        route_key(topic, route.partition_idx),
                        encode_route(route),
                    );
                }
            }
        }
        ctx.record(Phase::Meta, ctx.now, updates * METADATA_OP_COST);
        Ok(RescaleReport {
            metadata_updates: updates,
            bytes_migrated: 0,
            elapsed: updates * METADATA_OP_COST,
        })
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
        let workers = topo.workers.clone();
        for idx in 0..config.stream_num {
            let obj = self.create_partition_object(name, idx, &config)?;
            let worker = workers[topo.next_worker_rr % workers.len()];
            topo.next_worker_rr += 1;
            let route = PartitionRoute { partition_idx: idx, object_id: obj.id(), worker };
            self.metadata().put(route_key(name, idx), encode_route(&route));
            routes.push(route);
        }
        let updates = routes.len() as u64 + 1;
        self.metadata()
            .put(format!("topic/{name}/config"), config.to_json().into_bytes());
        topo.topics.insert(name.to_string(), routes);
        topo.configs.insert(name.to_string(), config);
        ctx.record(Phase::Meta, ctx.now, updates * METADATA_OP_COST);
        Ok(RescaleReport {
            metadata_updates: updates,
            bytes_migrated: 0,
            elapsed: updates * METADATA_OP_COST,
        })
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
        let mut topo = self.topo.lock();
        let current = topo
            .topics
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("topic {name}")))?
            .len() as u32;
        if new_partition_num < current {
            return Err(Error::Unsupported(
                "shrinking a topic would reorder keys; not supported".into(),
            ));
        }
        let config = topo.configs.get(name).cloned().unwrap_or_default();
        let workers = topo.workers.clone();
        let mut updates = 0u64;
        for idx in current..new_partition_num {
            let obj = self.create_partition_object(name, idx, &config)?;
            let worker = workers[topo.next_worker_rr % workers.len()];
            topo.next_worker_rr += 1;
            let route = PartitionRoute { partition_idx: idx, object_id: obj.id(), worker };
            self.metadata().put(route_key(name, idx), encode_route(&route));
            topo.topics
                .get_mut(name)
                .ok_or_else(|| Error::NotFound(format!("topic {name}")))?
                .push(route);
            updates += 1;
        }
        if let Some(c) = topo.configs.get_mut(name) {
            c.stream_num = new_partition_num;
            self.metadata()
                .put(format!("topic/{name}/config"), c.to_json().into_bytes());
            updates += 1;
        }
        ctx.record(Phase::Meta, ctx.now, updates * METADATA_OP_COST);
        Ok(RescaleReport {
            metadata_updates: updates,
            bytes_migrated: 0,
            elapsed: updates * METADATA_OP_COST,
        })
    }

    /// The partition (and its object) that owns `key` within `topic` under
    /// the default key-hash policy.
    pub fn route(&self, topic: &str, key: &[u8]) -> Result<PartitionRoute> {
        let topo = self.topo.lock();
        let routes = topo
            .topics
            .get(topic)
            .ok_or_else(|| Error::NotFound(format!("topic {topic}")))?;
        let idx = partition_for_key(key, routes.len() as u32);
        Ok(routes[idx as usize].clone())
    }

    /// The route of one specific partition.
    pub fn route_partition(&self, topic: &str, partition_idx: u32) -> Result<PartitionRoute> {
        let topo = self.topo.lock();
        let routes = topo
            .topics
            .get(topic)
            .ok_or_else(|| Error::NotFound(format!("topic {topic}")))?;
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
        self.topo
            .lock()
            .topics
            .get(topic)
            .map(|r| r.len() as u32)
            .ok_or_else(|| Error::NotFound(format!("topic {topic}")))
    }

    /// All partition routes of `topic`, in partition order.
    pub fn topic_partitions(&self, topic: &str) -> Result<Vec<PartitionRoute>> {
        self.topo
            .lock()
            .topics
            .get(topic)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("topic {topic}")))
    }

    /// All topic names, sorted (deterministic enumeration for maintenance
    /// sweeps).
    pub(crate) fn topics(&self) -> Vec<String> {
        self.topo.lock().topics.keys().cloned().collect()
    }

    /// The configuration of `topic`.
    pub(crate) fn topic_config(&self, topic: &str) -> Result<TopicConfig> {
        self.topo
            .lock()
            .configs
            .get(topic)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("topic {topic}")))
    }

    /// Resolve a route to its stream object.
    pub fn object_of(&self, route: &PartitionRoute) -> Result<Arc<StreamObject>> {
        self.objects.get(route.object_id)
    }

    /// Commit a consumer-group offset for `topic`'s partition
    /// `partition_idx`. Unfenced low-level write — group-aware callers go
    /// through `GroupCoordinator::commit`, which checks ownership first.
    pub(crate) fn commit_offset(&self, group: &str, topic: &str, partition_idx: u32, offset: u64) {
        self.metadata().put(
            format!("group/{group}/{topic}/{partition_idx}"),
            offset.to_be_bytes().to_vec(),
        );
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
        let key = format!("group/{group}/{topic}/{partition_idx}");
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

    fn create_partition_object(
        &self,
        topic: &str,
        partition_idx: u32,
        config: &TopicConfig,
    ) -> Result<Arc<StreamObject>> {
        let shard_count = self.objects.plog().config().shard_count;
        let shard =
            plog::placement::shard_for_partition(topic, partition_idx, shard_count) as u32;
        self.objects.create(CreateOptions {
            scm_cache: config.scm_cache,
            shard_hint: Some(shard),
            ..Default::default()
        })
    }
}

fn route_key(topic: &str, idx: u32) -> String {
    format!("topic/{topic}/partition/{idx:08}")
}

fn encode_route(r: &PartitionRoute) -> Vec<u8> {
    format!("{}:{}:{}", r.partition_idx, r.object_id.raw(), r.worker.raw()).into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for route in d.topic_partitions("t").unwrap() {
            let obj = d.object_of(&route).unwrap();
            let want =
                plog::placement::shard_for_partition("t", route.partition_idx, 32) as u32;
            assert_eq!(obj.shard(), want, "partition {} pinned wrong", route.partition_idx);
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
