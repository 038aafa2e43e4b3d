//! Stream ⇄ table conversion (§V-B).
//!
//! "This process is performed by a background service and results in the
//! conversion of records from stream objects to table objects … triggered
//! by either an accumulation of 10^7 messages or the passing of 36000
//! seconds." The reverse conversion, table → stream, "is also supported for
//! data playback".
//!
//! Conversion is what lets StreamLake keep **one copy** of the data for
//! both stream and batch processing — the core of the Table 1 storage-cost
//! win.

use crate::table::{CommitInfo, ScanOptions, TableStore};
use common::clock::{secs, Nanos};
use common::ctx::IoCtx;
use common::Result;
use format::Row;
use std::sync::Arc;
use stream::config::ConvertToTable;
use stream::object::{ReadCtrl, StreamObject};
use stream::record::Record;

/// Why a conversion run fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Accumulated messages reached `split_offset`.
    Offset,
    /// `split_time` seconds elapsed since the last conversion.
    Time,
    /// Explicitly forced (tests, shutdown).
    Forced,
}

/// Outcome of one conversion run.
#[derive(Debug, Clone)]
pub struct ConversionReport {
    /// What fired the run.
    pub trigger: Trigger,
    /// Records converted to table rows.
    pub records_converted: u64,
    /// The table commit.
    pub commit: CommitInfo,
    /// Stream records freed (`delete_msg = true`).
    pub records_truncated: u64,
}

/// Parses one stream record into a table row.
pub type RecordParser = dyn Fn(&Record) -> Result<Row> + Send + Sync;

/// Serializes one table row back into a stream record (playback).
pub type RowSerializer = dyn Fn(&Row) -> Record + Send + Sync;

/// A background conversion task bound to one stream object and one table.
pub struct ConversionTask {
    object: Arc<StreamObject>,
    table: String,
    config: ConvertToTable,
    parser: Box<RecordParser>,
    converted_until: u64,
    last_run: Nanos,
}

impl std::fmt::Debug for ConversionTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConversionTask")
            .field("object", &self.object.id())
            .field("table", &self.table)
            .field("converted_until", &self.converted_until)
            .finish()
    }
}

impl ConversionTask {
    /// Bind `object` to `table` under `config`, parsing records with
    /// `parser`.
    pub fn new(
        object: Arc<StreamObject>,
        table: impl Into<String>,
        config: ConvertToTable,
        parser: Box<RecordParser>,
    ) -> Self {
        ConversionTask {
            object,
            table: table.into(),
            config,
            parser,
            converted_until: 0,
            last_run: 0,
        }
    }

    /// Offset up to which records were already converted.
    pub fn converted_until(&self) -> u64 {
        self.converted_until
    }

    /// Run the task if a trigger fires; `force` bypasses trigger checks.
    pub fn run(
        &mut self,
        store: &TableStore,
        ctx: &IoCtx,
        force: bool,
    ) -> Result<Option<ConversionReport>> {
        if !self.config.enabled && !force {
            return Ok(None);
        }
        let pending = self.object.end_offset().saturating_sub(self.converted_until);
        let trigger = if force {
            Trigger::Forced
        } else if pending >= self.config.split_offset {
            Trigger::Offset
        } else if ctx.now.saturating_sub(self.last_run) >= secs(self.config.split_time)
            && pending > 0
        {
            Trigger::Time
        } else {
            return Ok(None);
        };
        self.last_run = ctx.now;
        if pending == 0 {
            return Ok(None);
        }
        // Make buffered records readable, then pull everything pending.
        let flush_t = self.object.flush_at(ctx)?;
        let (records, t) =
            self.object.read_at(self.converted_until, ReadCtrl::default(), &ctx.at(flush_t))?;
        let Some(last_offset) = records.last().map(|(off, _)| *off) else {
            return Ok(None);
        };
        let rows: Result<Vec<Row>> =
            records.iter().map(|(_, r)| (self.parser)(r)).collect();
        let rows = rows?;
        let commit = store.insert(&self.table, &rows, &ctx.at(t))?;
        let new_until = last_offset + 1;
        let converted = new_until - self.converted_until;
        self.converted_until = new_until;
        let records_truncated = if self.config.delete_msg {
            self.object.truncate_before(new_until)
        } else {
            0
        };
        Ok(Some(ConversionReport {
            trigger,
            records_converted: converted,
            commit,
            records_truncated,
        }))
    }
}

/// Table → stream playback: select rows and append them to a stream object
/// as records.
pub fn table_to_stream(
    store: &TableStore,
    table: &str,
    opts: &ScanOptions,
    object: &Arc<StreamObject>,
    serialize: &RowSerializer,
    ctx: &IoCtx,
) -> Result<u64> {
    let result = store.select(table, opts, ctx)?;
    let records: Vec<Record> = result.rows.iter().map(serialize).collect();
    if records.is_empty() {
        return Ok(0);
    }
    object.append_at(&records, ctx)?;
    object.flush_at(ctx)?;
    Ok(records.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::{log_schema, test_store};
    use common::SimClock;
    use common::size::MIB;
    use ec::Redundancy;
    use format::Value;
    use plog::{PlogConfig, PlogStore};
    use simdisk::{MediaKind, StoragePool};
    use stream::object::{CreateOptions, StreamObjectStore};

    fn object_store() -> StreamObjectStore {
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
                    shard_count: 8,
                    redundancy: Redundancy::Replicate { copies: 2 },
                    shard_capacity: 128 * MIB,
                },
            )
            .unwrap(),
        );
        StreamObjectStore::new(plog, 0)
    }

    /// value format: "url|start_time|province"
    fn parser() -> Box<RecordParser> {
        Box::new(|r: &Record| {
            let s = String::from_utf8(r.value.clone())
                .map_err(|_| common::Error::InvalidArgument("not utf-8".into()))?;
            let parts: Vec<&str> = s.split('|').collect();
            Ok(vec![
                Value::from(parts[0]),
                Value::Int(parts[1].parse().unwrap_or(0)),
                Value::from(parts[2]),
            ])
        })
    }

    fn fill(obj: &Arc<StreamObject>, n: usize, t0: i64) {
        let records: Vec<Record> = (0..n)
            .map(|i| {
                Record::new(
                    format!("k{i}").into_bytes(),
                    format!("http://a/{}|{}|beijing", i % 5, t0 + i as i64).into_bytes(),
                    t0 + i as i64,
                )
            })
            .collect();
        obj.append_at(&records, &IoCtx::new(0)).unwrap();
    }

    fn cfg(split_offset: u64, split_time: u64, delete_msg: bool) -> ConvertToTable {
        ConvertToTable {
            table_schema: vec![],
            table_path: "/tables/t".into(),
            split_offset,
            split_time,
            delete_msg,
            enabled: true,
        }
    }

    #[test]
    fn offset_trigger_converts_pending_records() {
        let store = test_store();
        store.create_table("t", log_schema(), None, 10_000, &IoCtx::new(0)).unwrap();
        let objs = object_store();
        let obj = objs.create(CreateOptions::default()).unwrap();
        fill(&obj, 150, 1000);
        let mut task = ConversionTask::new(obj.clone(), "t", cfg(100, 999_999, false), parser());
        let report = task.run(&store, &IoCtx::new(0), false).unwrap().unwrap();
        assert_eq!(report.trigger, Trigger::Offset);
        assert_eq!(report.records_converted, 150);
        assert_eq!(task.converted_until(), 150);
        let rows = store.select("t", &ScanOptions::default(), &IoCtx::new(0)).unwrap().rows;
        assert_eq!(rows.len(), 150);
        // stream data retained (delete_msg = false)
        assert_eq!(obj.end_offset(), 150);
        assert!(obj.slice_count() > 0);
    }

    #[test]
    fn below_both_triggers_is_noop() {
        let store = test_store();
        store.create_table("t", log_schema(), None, 10_000, &IoCtx::new(0)).unwrap();
        let objs = object_store();
        let obj = objs.create(CreateOptions::default()).unwrap();
        fill(&obj, 10, 0);
        let mut task = ConversionTask::new(obj, "t", cfg(100, 36_000, false), parser());
        // run at t just after creation: neither trigger fires
        assert!(task.run(&store, &IoCtx::new(secs(1)), false).unwrap().is_none());
    }

    #[test]
    fn time_trigger_fires_after_split_time() {
        let store = test_store();
        store.create_table("t", log_schema(), None, 10_000, &IoCtx::new(0)).unwrap();
        let objs = object_store();
        let obj = objs.create(CreateOptions::default()).unwrap();
        fill(&obj, 10, 0);
        let mut task = ConversionTask::new(obj, "t", cfg(1_000_000, 60, false), parser());
        assert!(task.run(&store, &IoCtx::new(secs(30)), false).unwrap().is_none());
        let report = task.run(&store, &IoCtx::new(secs(61)), false).unwrap().unwrap();
        assert_eq!(report.trigger, Trigger::Time);
        assert_eq!(report.records_converted, 10);
    }

    #[test]
    fn delete_msg_truncates_converted_stream_data() {
        let store = test_store();
        store.create_table("t", log_schema(), None, 10_000, &IoCtx::new(0)).unwrap();
        let objs = object_store();
        let obj = objs.create(CreateOptions { slice_capacity: 16, ..Default::default() }).unwrap();
        fill(&obj, 64, 0);
        let mut task = ConversionTask::new(obj.clone(), "t", cfg(10, 36_000, true), parser());
        let report = task.run(&store, &IoCtx::new(0), false).unwrap().unwrap();
        assert_eq!(report.records_converted, 64);
        assert_eq!(report.records_truncated, 64);
        assert_eq!(obj.slice_count(), 0, "converted slices freed");
    }

    #[test]
    fn incremental_runs_convert_only_new_records() {
        let store = test_store();
        store.create_table("t", log_schema(), None, 10_000, &IoCtx::new(0)).unwrap();
        let objs = object_store();
        let obj = objs.create(CreateOptions::default()).unwrap();
        fill(&obj, 50, 0);
        let mut task = ConversionTask::new(obj.clone(), "t", cfg(10, 36_000, false), parser());
        task.run(&store, &IoCtx::new(0), false).unwrap().unwrap();
        fill(&obj, 30, 100);
        let report = task.run(&store, &IoCtx::new(0), false).unwrap().unwrap();
        assert_eq!(report.records_converted, 30);
        assert_eq!(
            store.select("t", &ScanOptions::default(), &IoCtx::new(0)).unwrap().rows.len(),
            80
        );
    }

    #[test]
    fn playback_table_to_stream_roundtrip() {
        let store = test_store();
        store.create_table("t", log_schema(), None, 10_000, &IoCtx::new(0)).unwrap();
        let objs = object_store();
        let src = objs.create(CreateOptions::default()).unwrap();
        fill(&src, 20, 0);
        let mut task = ConversionTask::new(src, "t", cfg(1, 36_000, false), parser());
        task.run(&store, &IoCtx::new(0), false).unwrap().unwrap();

        // play the table back into a fresh stream object
        let dst = objs.create(CreateOptions::default()).unwrap();
        let n = table_to_stream(
            &store,
            "t",
            &ScanOptions::default(),
            &dst,
            &|row: &Row| {
                Record::new(
                    row[0].as_str().unwrap().as_bytes().to_vec(),
                    format!("{}|{}|{}",
                        row[0].as_str().unwrap(),
                        row[1].as_int().unwrap(),
                        row[2].as_str().unwrap()
                    )
                    .into_bytes(),
                    row[1].as_int().unwrap(),
                )
            },
            &IoCtx::new(0),
        )
        .unwrap();
        assert_eq!(n, 20);
        let (records, _) = dst.read_at(0, ReadCtrl::default(), &IoCtx::new(0)).unwrap();
        assert_eq!(records.len(), 20);
    }

    #[test]
    fn disabled_task_never_runs_unless_forced() {
        let store = test_store();
        store.create_table("t", log_schema(), None, 10_000, &IoCtx::new(0)).unwrap();
        let objs = object_store();
        let obj = objs.create(CreateOptions::default()).unwrap();
        fill(&obj, 10, 0);
        let mut c = cfg(1, 1, false);
        c.enabled = false;
        let mut task = ConversionTask::new(obj, "t", c, parser());
        assert!(task.run(&store, &IoCtx::new(secs(100)), false).unwrap().is_none());
        let forced = task.run(&store, &IoCtx::new(secs(100)), true).unwrap().unwrap();
        assert_eq!(forced.trigger, Trigger::Forced);
        assert_eq!(forced.records_converted, 10);
    }
}
