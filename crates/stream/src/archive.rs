//! Historical-data archiving (§V-A, the `archive` topic configuration).
//!
//! "The archive configuration automates the archiving of historical data to
//! meet business and regulatory requirements. Data can be stored in the
//! cost-effective StreamLake archive storage pool … The `archive_size`
//! configuration denotes the data volume in MB that triggers archiving, and
//! the `row_2_col` configuration determines whether the data is archived in
//! a columnar format."
//!
//! Archived batches land in a (typically HDD) archive pool either as a
//! compressed row blob or re-encoded through the columnar lake file format;
//! archived slices are truncated from the stream object, freeing hot-pool
//! space.

use crate::config::ArchiveConfig;
use crate::object::{ReadCtrl, StreamObject};
use crate::record::Record;
use crate::service::StreamService;
use common::chore::{Chore, TickReport};
use common::ctx::IoCtx;
use common::{Error, Result};
use format::{DataType, Field, LakeFileReader, LakeFileWriter, Schema, Value};
use simdisk::pool::{ExtentHandle, StoragePool};
use std::sync::Arc;
use common::lockwitness::TrackedMutex;

/// One archived batch.
#[derive(Debug, Clone)]
pub struct ArchiveEntry {
    /// Number of archived records.
    pub count: u64,
    /// Whether the batch is stored columnar (`row_2_col`).
    pub(crate) columnar: bool,
    handle: ExtentHandle,
}

/// The archive service over a cost-effective storage pool.
#[derive(Debug)]
pub struct ArchiveService {
    pool: Arc<StoragePool>,
    entries: TrackedMutex<Vec<ArchiveEntry>>,
}

fn archive_schema() -> Result<Schema> {
    Schema::new(vec![
        Field::new("key", DataType::Utf8),
        Field::new("value", DataType::Utf8),
        Field::new("timestamp", DataType::Int64),
    ])
}

impl ArchiveService {
    /// An archive service writing into `pool`.
    pub fn new(pool: Arc<StoragePool>) -> Self {
        ArchiveService { pool, entries: TrackedMutex::new("stream.archive.entries", Vec::new()) }
    }

    /// Archive `object`'s data if it exceeds `config.archive_size` (MB of
    /// persisted data). Returns the entry when archiving ran.
    ///
    /// Archived slices are truncated from the stream object. Row payloads
    /// must be UTF-8 when `row_2_col` is set (the columnar format stores
    /// text columns).
    pub(crate) fn maybe_archive(
        &self,
        object: &Arc<StreamObject>,
        config: &ArchiveConfig,
        ctx: &IoCtx,
    ) -> Result<Option<ArchiveEntry>> {
        if !config.enabled {
            return Ok(None);
        }
        let threshold_bytes = config.archive_size * 1024 * 1024;
        if object.persisted_bytes() < threshold_bytes {
            return Ok(None);
        }
        let (records, _) = object.read_at(0, ReadCtrl::default(), ctx)?;
        let (Some(base_offset), Some(last_offset)) = (
            records.first().map(|(off, _)| *off),
            records.last().map(|(off, _)| *off),
        ) else {
            return Ok(None);
        };
        let end_offset = last_offset + 1;
        let payload: Vec<Record> = records.into_iter().map(|(_, r)| r).collect();
        let encoded = if config.row_2_col {
            let schema = archive_schema()?;
            let rows: Result<Vec<Vec<Value>>> = payload
                .iter()
                .map(|r| {
                    let key = String::from_utf8(r.key.clone())
                        .map_err(|_| Error::InvalidArgument("row_2_col requires utf-8 keys".into()))?;
                    let value = String::from_utf8(r.value.clone()).map_err(|_| {
                        Error::InvalidArgument("row_2_col requires utf-8 values".into())
                    })?;
                    Ok(vec![Value::Str(key), Value::Str(value), Value::Int(r.timestamp)])
                })
                .collect();
            LakeFileWriter::new(schema, 4096)?.encode(&rows?)?
        } else {
            format::compress::compress(&Record::encode_slice(&payload))
        };
        let (handle, _) = self.pool.write_shards_ctx(&[encoded.into()], ctx)?;
        let entry = ArchiveEntry {
            count: end_offset - base_offset,
            columnar: config.row_2_col,
            handle,
        };
        object.truncate_before(end_offset);
        self.entries.lock().push(entry.clone());
        Ok(Some(entry))
    }

    /// Read an archived batch back into records (data playback).
    pub fn read_entry(&self, entry: &ArchiveEntry, ctx: &IoCtx) -> Result<Vec<Record>> {
        let bytes = self
            .pool
            .read_shards_ctx(&entry.handle, ctx)?
            .0
            .pop()
            .flatten()
            .ok_or_else(|| Error::Io(format!("archived batch {:?} unreadable", entry.handle)))?;
        if entry.columnar {
            let reader = LakeFileReader::open(bytes)?;
            let rows = reader.scan(&format::Expr::True, None)?;
            rows.into_iter()
                .map(|row| {
                    Ok(Record::new(
                        row[0].as_str()?.as_bytes().to_vec(),
                        row[1].as_str()?.as_bytes().to_vec(),
                        row[2].as_int()?,
                    ))
                })
                .collect()
        } else {
            Record::decode_slice(&format::compress::decompress(&bytes)?)
        }
    }

    /// All archive entries so far.
    pub fn entries(&self) -> Vec<ArchiveEntry> {
        self.entries.lock().clone()
    }
}

/// The archive sweep as a maintenance chore: walks every archive-enabled
/// topic's streams (topics sorted, streams in stream order — deterministic)
/// and archives each object that crossed its `archive_size` threshold.
#[derive(Debug)]
pub struct ArchiveChore {
    service: Arc<StreamService>,
    archive: Arc<ArchiveService>,
}

impl ArchiveChore {
    /// A sweep over `service`'s topics writing into `archive`.
    pub fn new(service: Arc<StreamService>, archive: Arc<ArchiveService>) -> Self {
        ArchiveChore { service, archive }
    }
}

impl Chore for ArchiveChore {
    fn name(&self) -> &'static str {
        "archive"
    }

    /// One sweep: every stream object over its topic's archive threshold
    /// is archived; `work_done` counts the batches written.
    fn tick(&self, ctx: &IoCtx) -> Result<TickReport> {
        let dispatcher = self.service.dispatcher();
        let mut report = TickReport::idle(ctx.now);
        for topic in dispatcher.topics() {
            let config = match dispatcher.topic_config(&topic) {
                Ok(c) => c,
                Err(_) => continue, // deleted mid-sweep
            };
            if !config.archive.enabled {
                continue;
            }
            let threshold = config.archive.archive_size * 1024 * 1024;
            for route in dispatcher.topic_partitions(&topic)? {
                let object = match dispatcher.object_of(&route) {
                    Ok(o) => o,
                    Err(_) => continue,
                };
                if object.persisted_bytes() < threshold {
                    continue;
                }
                if self.archive.maybe_archive(&object, &config.archive, ctx)?.is_some() {
                    report.work_done += 1;
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{CreateOptions, StreamObjectStore};
    use common::size::MIB;
    use common::SimClock;
    use common::ctx::{IoCtx, QosClass, SpanSink};
    use ec::Redundancy;
    use plog::{PlogConfig, PlogStore};
    use simdisk::MediaKind;

    fn setup() -> (StreamObjectStore, ArchiveService) {
        let clock = SimClock::new();
        let hot = Arc::new(StoragePool::new(
            "ssd",
            MediaKind::NvmeSsd,
            4,
            256 * MIB,
            clock.clone(),
        ));
        let cold = Arc::new(StoragePool::new(
            "archive",
            MediaKind::SasHdd,
            4,
            1024 * MIB,
            clock,
        ));
        let plog = Arc::new(
            PlogStore::new(
                hot,
                PlogConfig {
                    shard_count: 8,
                    redundancy: Redundancy::Replicate { copies: 2 },
                    shard_capacity: 128 * MIB,
                },
            )
            .unwrap(),
        );
        (StreamObjectStore::new(plog, 0), ArchiveService::new(cold))
    }

    fn fill(obj: &Arc<StreamObject>, n: usize) {
        let records: Vec<Record> = (0..n)
            .map(|i| {
                Record::new(
                    format!("user-{}", i % 50).into_bytes(),
                    format!("GET http://streamlake_fin_app.com/page/{} province=guangdong", i % 20)
                        .into_bytes(),
                    i as i64,
                )
            })
            .collect();
        obj.append_at(&records, &IoCtx::new(0)).unwrap();
        obj.flush_at(&IoCtx::new(0)).unwrap();
    }

    fn small_cfg(columnar: bool) -> ArchiveConfig {
        ArchiveConfig {
            external_archive_url: None,
            archive_size: 0, // trigger immediately for tests
            row_2_col: columnar,
            enabled: true,
        }
    }

    #[test]
    fn disabled_or_below_threshold_is_noop() {
        let (store, arch) = setup();
        let obj = store.create(CreateOptions::default()).unwrap();
        fill(&obj, 100);
        let mut cfg = small_cfg(false);
        cfg.enabled = false;
        assert!(arch.maybe_archive(&obj, &cfg, &IoCtx::new(0)).unwrap().is_none());
        cfg.enabled = true;
        cfg.archive_size = 1_000_000; // 1 TB threshold: not reached
        assert!(arch.maybe_archive(&obj, &cfg, &IoCtx::new(0)).unwrap().is_none());
    }

    #[test]
    fn row_archive_roundtrips_and_truncates_source() {
        let (store, arch) = setup();
        let obj = store.create(CreateOptions { slice_capacity: 64, ..Default::default() }).unwrap();
        fill(&obj, 256);
        let before_slices = obj.slice_count();
        assert!(before_slices > 0);
        let entry = arch.maybe_archive(&obj, &small_cfg(false), &IoCtx::new(0)).unwrap().unwrap();
        assert_eq!(entry.count, 256);
        assert!(!entry.columnar);
        assert_eq!(obj.slice_count(), 0, "archived slices truncated");
        let back = arch.read_entry(&entry, &IoCtx::new(0)).unwrap();
        assert_eq!(back.len(), 256);
        assert_eq!(back[0].key, b"user-0");
    }

    #[test]
    fn columnar_archive_is_smaller_than_row_archive() {
        let (store, arch) = setup();
        let row_obj = store.create(CreateOptions { slice_capacity: 64, ..Default::default() }).unwrap();
        let col_obj = store.create(CreateOptions { slice_capacity: 64, ..Default::default() }).unwrap();
        fill(&row_obj, 2048);
        fill(&col_obj, 2048);
        arch.maybe_archive(&row_obj, &small_cfg(false), &IoCtx::new(0)).unwrap().unwrap();
        let col = arch.maybe_archive(&col_obj, &small_cfg(true), &IoCtx::new(0)).unwrap().unwrap();
        // Columnar re-encoding (dictionaries on keys/values, delta
        // timestamps) must not lose data and should compete with the row
        // blob; its real win shows on the EC space accounting in Fig 14(d).
        let back = arch.read_entry(&col, &IoCtx::new(0)).unwrap();
        assert_eq!(back.len(), 2048);
        assert_eq!(back[7].timestamp, 7);
    }

    #[test]
    fn archive_pool_holds_the_bytes() {
        let (store, arch) = setup();
        let obj = store.create(CreateOptions { slice_capacity: 64, ..Default::default() }).unwrap();
        fill(&obj, 128);
        arch.maybe_archive(&obj, &small_cfg(false), &IoCtx::new(0)).unwrap().unwrap();
        assert_eq!(arch.entries().len(), 1);
        assert!(arch.pool.used() > 0);
    }

    #[test]
    fn archive_io_runs_on_the_callers_ctx_and_leaves_the_shared_clock() {
        let (store, arch) = setup();
        let obj = store.create(CreateOptions { slice_capacity: 64, ..Default::default() }).unwrap();
        fill(&obj, 128);
        let chore_ctx = |sink: &Arc<SpanSink>| {
            IoCtx::new(0).with_qos(QosClass::Maintenance).with_sink(sink.clone())
        };
        let device_spans = |sink: &SpanSink| {
            sink.metrics().histogram("qos.maintenance.device").map_or(0, |h| h.count)
        };
        // The sweep's own read of the object, recorded apart to subtract it.
        let read_sink = Arc::new(SpanSink::default());
        obj.read_at(0, ReadCtrl::default(), &chore_ctx(&read_sink)).unwrap();

        let clock = arch.pool.clock().clone();
        let before = clock.now();
        let sink = Arc::new(SpanSink::default());
        let entry = arch.maybe_archive(&obj, &small_cfg(false), &chore_ctx(&sink)).unwrap().unwrap();
        assert_eq!(device_spans(&sink), device_spans(&read_sink) + 1, "archive write spans the ctx");
        let playback = Arc::new(SpanSink::default());
        arch.read_entry(&entry, &chore_ctx(&playback)).unwrap();
        assert_eq!(device_spans(&playback), 1, "playback read spans the ctx");
        assert_eq!(clock.now(), before, "archive I/O must not move the shared clock");
    }

    #[test]
    fn non_utf8_payload_rejected_for_columnar() {
        let (store, arch) = setup();
        let obj = store.create(CreateOptions { slice_capacity: 4, ..Default::default() }).unwrap();
        let rec = Record::new(vec![0xFF, 0xFE], vec![0xFF], 0);
        obj.append_at(&vec![rec; 4], &IoCtx::new(0)).unwrap();
        obj.flush_at(&IoCtx::new(0)).unwrap();
        assert!(matches!(
            arch.maybe_archive(&obj, &small_cfg(true), &IoCtx::new(0)),
            Err(Error::InvalidArgument(_))
        ));
    }
}
