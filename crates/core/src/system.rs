//! The [`StreamLake`] system handle.

use crate::chore::{ChoreRuntime, ChoreStatus, TickEvent};
use common::clock::{secs, Nanos};
use common::ctx::{IoCtx, QosClass, SpanSink};
use common::metrics::Metrics;
use common::size::{GIB, MIB};
use common::{Result, SimClock};
use ec::Redundancy;
use kvstore::{MvccStore, WalCompactionChore};
use lake::{CompactionChore, MetaFlushChore, TableStore};
use plog::{PlogConfig, PlogStore, RemoteReplicator, ScrubService};
use simdisk::{DeviceHealth, MediaKind, StoragePool};
use stream::archive::{ArchiveChore, ArchiveService};
use stream::group::OffsetRetentionChore;
use stream::service::{StreamService, StreamServiceOptions};
use stream::{Consumer, Producer};
use std::sync::Arc;

/// Construction parameters for a StreamLake deployment.
#[derive(Debug, Clone)]
pub struct StreamLakeConfig {
    /// SSD pool: device count.
    pub ssd_devices: usize,
    /// SSD pool: capacity per device.
    pub ssd_capacity: u64,
    /// HDD (cold/archive) pool: device count.
    pub hdd_devices: usize,
    /// HDD pool: capacity per device.
    pub hdd_capacity: u64,
    /// SCM staging capacity (0 disables; Set-2 hardware has 16 GiB/node).
    pub scm_capacity: u64,
    /// Logical PLog shard count (paper default 4096; tests use less).
    pub shard_count: usize,
    /// Redundancy for PLog writes.
    pub redundancy: Redundancy,
    /// Stream workers.
    pub workers: usize,
    /// Metadata write-cache flush threshold (pending entries).
    pub meta_flush_threshold: u64,
    /// Seed for the maintenance runtime's deterministic retry jitter.
    pub maintenance_seed: u64,
}

impl Default for StreamLakeConfig {
    fn default() -> Self {
        StreamLakeConfig {
            // enough devices for the default k=10, m=2 erasure-coded
            // stripes (every shard lands on a distinct device)
            ssd_devices: 12,
            ssd_capacity: 4 * GIB,
            hdd_devices: 12,
            hdd_capacity: 16 * GIB,
            scm_capacity: 0,
            shard_count: 64,
            redundancy: Redundancy::ErasureCode { k: 10, m: 2 },
            workers: 3,
            meta_flush_threshold: 64,
            maintenance_seed: 42,
        }
    }
}

impl StreamLakeConfig {
    /// The evaluation configuration: enough devices for wide erasure-coded
    /// stripes (k=10, m=2 — ~83% disk utilization vs 33% for 3-way
    /// replication), as used by the Table 1 / Fig 14 experiments.
    pub fn evaluation() -> Self {
        StreamLakeConfig {
            ssd_devices: 12,
            hdd_devices: 12,
            redundancy: Redundancy::ErasureCode { k: 10, m: 2 },
            ..Default::default()
        }
    }

    /// A small configuration for unit tests.
    pub fn small() -> Self {
        StreamLakeConfig {
            ssd_devices: 4,
            ssd_capacity: 512 * MIB,
            hdd_devices: 4,
            hdd_capacity: 2 * GIB,
            shard_count: 16,
            redundancy: Redundancy::Replicate { copies: 2 },
            ..Default::default()
        }
    }
}

/// One StreamLake deployment: pools, PLogs, streaming, lakehouse, archive,
/// and the maintenance runtime every background service runs under.
#[derive(Debug)]
pub struct StreamLake {
    clock: SimClock,
    metrics: Metrics,
    sink: Arc<SpanSink>,
    ssd: Arc<StoragePool>,
    hdd: Arc<StoragePool>,
    plog: Arc<PlogStore>,
    stream: Arc<StreamService>,
    tables: Arc<TableStore>,
    archive: Arc<ArchiveService>,
    scrubber: Arc<ScrubService>,
    replicator: Arc<RemoteReplicator>,
    chores: ChoreRuntime,
}

/// Device health across a deployment's pools, for operator dashboards and
/// tests: `(pool name, per-device health)`.
pub type PoolHealthReport = Vec<(&'static str, Vec<DeviceHealth>)>;

impl StreamLake {
    /// Bring up a deployment.
    pub fn new(config: StreamLakeConfig) -> Self {
        let clock = SimClock::new();
        let metrics = Metrics::new();
        let sink = Arc::new(SpanSink::new(metrics.clone()));
        let ssd = Arc::new(StoragePool::new(
            "ssd-pool",
            MediaKind::NvmeSsd,
            config.ssd_devices,
            config.ssd_capacity,
            clock.clone(),
        ));
        let hdd = Arc::new(StoragePool::new(
            "hdd-pool",
            MediaKind::SasHdd,
            config.hdd_devices,
            config.hdd_capacity,
            clock.clone(),
        ));
        let plog = Arc::new(
            PlogStore::new(
                ssd.clone(),
                PlogConfig {
                    shard_count: config.shard_count,
                    redundancy: config.redundancy,
                    shard_capacity: config.ssd_capacity, // generous per-shard space
                },
            )
            // slint:allow(R4): config is validated by SystemConfig construction before this point
            .expect("valid plog config")
            .with_metrics(metrics.clone())
            // Host-side parallelism only: per-shard encode/CRC/device work
            // fans across the pool with deterministic join order, so the
            // virtual-time figures are unchanged.
            .with_workers(Arc::new(plog::WorkerPool::with_default_size(
                config.maintenance_seed,
            ))),
        );
        let scrubber = Arc::new(ScrubService::new(plog.clone()));
        // Every service keeps its metadata in the PLog's KV index. The
        // table store builds the one MVCC store over it, and the stream
        // transaction coordinator shares it, so a single transaction can
        // cover both ("archive these segments AND commit the snapshot").
        let tables = Arc::new(TableStore::new(plog.clone(), config.meta_flush_threshold));
        let stream = StreamService::new(
            plog.clone(),
            clock.clone(),
            StreamServiceOptions {
                workers: config.workers,
                scm_capacity: config.scm_capacity,
                txn_mvcc: Some(tables.mvcc().clone()),
                ..Default::default()
            },
        );
        let archive = Arc::new(ArchiveService::new(hdd.clone()));
        // The remote replica site (paper §IV geo-replication): a second
        // PLog store on the cold pool the replicator chore ships into.
        let replica = Arc::new(
            PlogStore::new(
                hdd.clone(),
                PlogConfig {
                    shard_count: config.shard_count,
                    redundancy: Redundancy::Replicate { copies: 2 },
                    shard_capacity: config.hdd_capacity,
                },
            )
            // slint:allow(R4): same validated shape as the primary config
            .expect("valid replica plog config"),
        );
        let replicator = Arc::new(RemoteReplicator::new(plog.clone(), replica));

        // The maintenance runtime owns every background service. Periods
        // are part of the deterministic schedule: registration order
        // breaks same-instant ties, so this order is a contract too.
        let chores = ChoreRuntime::new(metrics.clone(), sink.clone(), config.maintenance_seed);
        chores.register(scrubber.clone(), secs(30));
        chores.register(replicator.clone(), secs(10));
        chores.register(Arc::new(ArchiveChore::new(stream.clone(), archive.clone())), secs(10));
        chores.register(Arc::new(MetaFlushChore::new(tables.clone())), secs(5));
        // the paper's static "Default-compaction" interval
        chores.register(Arc::new(CompactionChore::new(tables.clone())), secs(30));
        chores.register(Arc::new(OffsetRetentionChore::new(stream.groups().clone())), secs(60));
        // Appended last: registration order is part of the deterministic
        // schedule, so new chores must not displace existing ones.
        chores.register(
            Arc::new(WalCompactionChore::new(plog.kv().clone(), metrics.clone())),
            secs(30),
        );

        StreamLake {
            clock,
            metrics,
            sink,
            ssd,
            hdd,
            plog,
            stream,
            tables,
            archive,
            scrubber,
            replicator,
            chores,
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The deployment-wide metrics registry (span phases feed into it).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The span sink every root context reports to.
    pub fn span_sink(&self) -> &Arc<SpanSink> {
        &self.sink
    }

    /// Mint a root request context at the current virtual time, wired to
    /// this deployment's span sink.
    pub fn root_ctx(&self, qos: QosClass) -> IoCtx {
        IoCtx::new(self.clock.now())
            .with_qos(qos)
            .with_sink(self.sink.clone())
    }

    /// The message streaming service.
    pub fn stream(&self) -> &Arc<StreamService> {
        &self.stream
    }

    /// The lakehouse table store.
    pub fn tables(&self) -> &Arc<TableStore> {
        &self.tables
    }

    /// The deployment-wide MVCC store coordinating stream and table
    /// transactions.
    pub fn mvcc(&self) -> &Arc<MvccStore> {
        self.tables.mvcc()
    }

    /// The persistence-log store.
    pub fn plog(&self) -> &Arc<PlogStore> {
        &self.plog
    }

    /// The archive service over the HDD pool.
    pub fn archive(&self) -> &ArchiveService {
        &self.archive
    }

    /// The background integrity scrubber over the PLog store.
    pub fn scrubber(&self) -> &ScrubService {
        &self.scrubber
    }

    /// The remote replication service shipping PLog records to the
    /// replica site.
    pub fn replicator(&self) -> &Arc<RemoteReplicator> {
        &self.replicator
    }

    /// The maintenance runtime every background service runs under.
    pub fn maintenance(&self) -> &ChoreRuntime {
        &self.chores
    }

    /// Drive maintenance: run every due chore tick up to virtual time
    /// `until`, in deterministic due-time order. Returns the tick journal
    /// of this call.
    pub fn run_maintenance_until(&self, until: Nanos) -> Vec<TickEvent> {
        self.chores.run_until(until)
    }

    /// Per-chore status: last tick, cumulative work, failure streaks and
    /// backpressure deferrals.
    pub fn chore_status(&self) -> Vec<ChoreStatus> {
        self.chores.status()
    }

    /// Per-device health (error, slow-I/O and corruption counters) for
    /// every pool in the deployment.
    pub fn health_report(&self) -> PoolHealthReport {
        vec![("ssd-pool", self.ssd.health()), ("hdd-pool", self.hdd.health())]
    }

    /// The hot (SSD) pool.
    pub fn ssd_pool(&self) -> &Arc<StoragePool> {
        &self.ssd
    }

    /// The cold (HDD) pool.
    pub fn hdd_pool(&self) -> &Arc<StoragePool> {
        &self.hdd
    }

    /// Convenience: a new producer.
    pub fn producer(&self) -> Producer {
        self.stream.producer()
    }

    /// Convenience: a new consumer in `group`.
    pub fn consumer(&self, group: &str) -> Consumer {
        self.stream.consumer(group)
    }

    /// Total physical bytes across both pools (redundancy included).
    pub fn physical_bytes(&self) -> u64 {
        self.ssd.used() + self.hdd.used()
    }

    /// Flush any buffered state (stream object buffers, metadata cache) so
    /// that storage accounting is complete.
    pub fn sync(&self, ctx: &IoCtx) -> Result<()> {
        for table in self.tables.catalog().list() {
            self.tables.meta().flush(&table, ctx)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use format::{DataType, Field, Schema, Value};
    use stream::TopicConfig;

    #[test]
    fn end_to_end_stream_and_table_share_one_substrate() {
        let sl = StreamLake::new(StreamLakeConfig::small());
        // stream side
        sl.stream()
            .create_topic("t", TopicConfig::with_partitions(2))
            .unwrap();
        let mut p = sl.producer();
        p.set_batch_size(1);
        for i in 0..10 {
            p.send("t", format!("k{i}"), format!("v{i}"), &IoCtx::new(0)).unwrap();
        }
        // table side
        let schema = Schema::new(vec![
            Field::new("k", DataType::Utf8),
            Field::new("n", DataType::Int64),
        ])
        .unwrap();
        sl.tables().create_table("demo", schema, None, 1000, &IoCtx::new(0)).unwrap();
        sl.tables()
            .insert("demo", &[vec![Value::from("a"), Value::Int(1)]], &IoCtx::new(0))
            .unwrap();
        // both live in the same physical pools
        assert!(sl.physical_bytes() > 0);
        let r = sl
            .tables()
            .select("demo", &lake::ScanOptions::default(), &IoCtx::new(0))
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let mut c = sl.consumer("g");
        c.subscribe("t").unwrap();
        assert_eq!(c.poll(100, &IoCtx::new(0)).unwrap().len(), 10);
    }

    #[test]
    fn offset_retention_runs_under_the_maintenance_runtime() {
        let sl = StreamLake::new(StreamLakeConfig::small());
        assert!(
            sl.chore_status().iter().any(|s| s.name == "offset-retention"),
            "the group-offset retention chore must be registered"
        );
        sl.stream()
            .create_topic("t", TopicConfig::with_partitions(2))
            .unwrap();
        {
            let mut c = sl.consumer("ephemeral");
            c.subscribe("t").unwrap();
            c.poll(10, &IoCtx::new(0)).unwrap();
            c.commit().unwrap();
        } // graceful leave: the group is now empty
        // Past the retention window the maintenance runtime sweeps the
        // group's offsets out of the dispatcher KV.
        let retention = sl.stream().groups().config().offset_retention;
        sl.clock().advance(retention + common::clock::secs(120));
        sl.run_maintenance_until(sl.clock().now());
        assert_eq!(
            sl.stream().dispatcher().committed_offset("ephemeral", "t", 0),
            None,
            "expired group offsets must be swept"
        );
    }

    #[test]
    fn stream_counters_reach_the_deployment_registry() {
        let sl = StreamLake::new(StreamLakeConfig::small());
        sl.stream()
            .create_topic("t", TopicConfig::with_partitions(2))
            .unwrap();
        let mut p = sl.producer();
        p.set_batch_size(1);
        for i in 0..10 {
            p.send("t", format!("k{i}"), format!("v{i}"), &IoCtx::new(0)).unwrap();
        }
        let mut c = sl.consumer("g");
        c.subscribe("t").unwrap();
        assert_eq!(c.poll(100, &IoCtx::new(0)).unwrap().len(), 10);
        assert_eq!(sl.metrics().counter("produce.records"), 10);
        assert_eq!(sl.metrics().counter("fetch.records"), 10);
        assert!(sl.metrics().counter("stream.group.rebalances") > 0);
    }

    #[test]
    fn default_config_uses_erasure_coding() {
        let cfg = StreamLakeConfig::default();
        assert!(matches!(cfg.redundancy, Redundancy::ErasureCode { .. }));
        assert!(cfg.redundancy.utilization() > 0.8, "EC must beat replication");
    }

    #[test]
    fn sync_flushes_metadata() {
        let sl = StreamLake::new(StreamLakeConfig::small());
        let schema =
            Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
        sl.tables().create_table("t", schema, None, 100, &IoCtx::new(0)).unwrap();
        sl.tables().insert("t", &[vec![Value::Int(1)]], &IoCtx::new(0)).unwrap();
        sl.sync(&sl.root_ctx(QosClass::Foreground)).unwrap();
        // file-based metadata reads work after a sync
        let r = sl
            .tables()
            .select(
                "t",
                &lake::ScanOptions {
                    mode: lake::MetadataMode::FileBased,
                    ..Default::default()
                },
                &IoCtx::new(0),
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }
}
