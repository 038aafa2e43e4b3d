//! Scan: resolve a snapshot, plan its live files (partition pruning,
//! stats-based skipping), read them and hand out column batches. Rows are
//! built only by the row-returning [`TableStore::select`].

use super::{ScanOptions, ScanResult, ScanStats, TableStore};
use crate::catalog::{PartitionTransform, TableProfile};
use crate::meta::{DataFileMeta, Snapshot};
use crate::metacache::MetadataMode;
use common::clock::Nanos;
use common::ctx::IoCtx;
use common::{Error, Result};
use format::{Batch, CmpOp, Expr, LakeFileReader, Row, Schema, Value};

impl TableStore {
    /// SELECT: plan from catalog → snapshot → commits, prune, read, filter;
    /// the matching rows, projected.
    pub fn select(&self, name: &str, opts: &ScanOptions, ctx: &IoCtx) -> Result<ScanResult> {
        let mut rows = Vec::new();
        let stats = self.select_batches(name, opts, ctx, &mut |b| {
            b.push_rows(&mut rows);
            Ok(())
        })?;
        Ok(ScanResult { rows, stats })
    }

    /// The columnar SELECT: plan, prune and read as [`TableStore::select`]
    /// does, handing `visit` each row group with a matching row as a
    /// [`Batch`] of the projected columns (in `opts.projection` order, every
    /// column when `None`).
    pub fn select_batches(
        &self,
        name: &str,
        opts: &ScanOptions,
        ctx: &IoCtx,
        visit: &mut dyn FnMut(Batch) -> Result<()>,
    ) -> Result<ScanStats> {
        let profile = self.catalog.get(name)?;
        let mut stats = ScanStats::default();
        if profile.current_snapshot == 0 {
            return Ok(stats);
        }
        // Resolve the snapshot (time travel walks the parent chain).
        let (snapshot, t_snap) = self.resolve_snapshot(&profile, opts.as_of, opts.mode, ctx)?;
        // Partition pruning from the predicate.
        let partitions = partitions_for_predicate(&profile, &opts.predicate);
        // Historical snapshots cannot use the materialized live index (it
        // reflects the current snapshot only) — replay their commits.
        let (parts, at) = (partitions.as_deref(), ctx.at(t_snap));
        let (files, t_meta) = if snapshot.id == profile.current_snapshot {
            self.meta.live_files(name, &snapshot, parts, opts.mode, &at)?
        } else {
            self.meta.replay_commits(name, &snapshot, parts, opts.mode, &at)?
        };
        stats.metadata_time = t_meta.saturating_sub(ctx.now);
        stats.files_candidate = files.len() as u64;

        let projection_idx: Option<Vec<usize>> = match &opts.projection {
            Some(names) => Some(
                names
                    .iter()
                    .map(|n| profile.schema.index_of(n))
                    .collect::<Result<Vec<_>>>()?,
            ),
            None => None,
        };

        let mut t = t_meta;
        for f in &files {
            // `pushdown` gates data skipping only — the baseline reads every
            // candidate file; the reader filters and projects either way.
            if opts.pushdown && !file_may_match(&profile.schema, f, &opts.predicate) {
                stats.files_skipped += 1;
                stats.bytes_skipped += f.bytes;
                continue;
            }
            let (reader, tr) = self.open_data_file(&f.path, &ctx.at(t))?;
            t = tr;
            stats.files_scanned += 1;
            stats.bytes_scanned += f.bytes;
            reader.scan_batches(&opts.predicate, projection_idx.as_deref(), &mut *visit)?;
        }
        stats.data_time = t.saturating_sub(t_meta);
        Ok(stats)
    }

    /// All live files of the current snapshot (maintenance inspection).
    pub fn live_files(&self, name: &str, ctx: &IoCtx) -> Result<Vec<DataFileMeta>> {
        let profile = self.catalog.get(name)?;
        if profile.current_snapshot == 0 {
            return Ok(Vec::new());
        }
        Ok(self.current_live_files(&profile, None, ctx)?.0)
    }

    /// Read the raw rows of one live data file (compaction input).
    pub fn read_file_rows(&self, path: &str, ctx: &IoCtx) -> Result<(Vec<Row>, Nanos)> {
        let (reader, t) = self.open_data_file(path, ctx)?;
        Ok((reader.scan(&Expr::True, None)?, t))
    }

    /// Current snapshot id of a table (0 when empty).
    pub fn current_snapshot(&self, name: &str) -> Result<u64> {
        Ok(self.catalog.get(name)?.current_snapshot)
    }

    /// The current snapshot's live files from the materialized index — the
    /// planning step every mutation and maintenance pass starts from.
    pub(super) fn current_live_files(
        &self,
        profile: &TableProfile,
        partitions: Option<&[String]>,
        ctx: &IoCtx,
    ) -> Result<(Vec<DataFileMeta>, Nanos)> {
        let mode = MetadataMode::Accelerated;
        let (snapshot, t) = self.resolve_snapshot(profile, None, mode, ctx)?;
        self.meta
            .live_files(&profile.name, &snapshot, partitions, mode, &ctx.at(t))
    }

    pub(super) fn open_data_file(&self, path: &str, ctx: &IoCtx) -> Result<(LakeFileReader, Nanos)> {
        let addr = self
            .meta
            .address(path.as_bytes())
            .ok_or_else(|| Error::NotFound(format!("data file {path}")))?;
        let (bytes, t) = self.plog.read_at(&addr, ctx)?;
        Ok((LakeFileReader::open(bytes)?, t))
    }

    fn resolve_snapshot(
        &self,
        profile: &TableProfile,
        as_of: Option<Nanos>,
        mode: MetadataMode,
        ctx: &IoCtx,
    ) -> Result<(Snapshot, Nanos)> {
        let (mut snapshot, mut t) =
            self.meta
                .get_snapshot(&profile.name, profile.current_snapshot, mode, ctx)?;
        if let Some(as_of) = as_of {
            while snapshot.timestamp > as_of {
                match snapshot.parent() {
                    Some(p) => {
                        let (s, ts) =
                            self.meta.get_snapshot(&profile.name, p, mode, &ctx.at(t))?;
                        snapshot = s;
                        t = ts;
                    }
                    None => {
                        return Err(Error::NotFound(format!(
                            "no snapshot of {} at or before {as_of}",
                            profile.name
                        )))
                    }
                }
            }
        }
        Ok((snapshot, t))
    }
}

/// Whether a file's commit-level statistics admit any match for `expr`.
pub(super) fn file_may_match(schema: &Schema, file: &DataFileMeta, expr: &Expr) -> bool {
    expr.may_match(&|name: &str| schema.index_of(name).ok().and_then(|i| file.stats.get(i)))
}

/// Derive the partitions a predicate can touch, when derivable.
///
/// Supports time-bucket ranges (`ts >= a AND ts < b` on the partition
/// column) and identity equality/IN. Returns `None` when the predicate
/// does not constrain the partition column (all partitions must be
/// consulted).
pub(super) fn partitions_for_predicate(profile: &TableProfile, expr: &Expr) -> Option<Vec<String>> {
    let spec = profile.partition.as_ref()?;
    match spec.transform {
        PartitionTransform::TimeBucket(width) => {
            let (mut lo, mut hi): (Option<i64>, Option<i64>) = (None, None);
            collect_bounds(expr, &spec.column, &mut lo, &mut hi);
            let (lo, hi) = (lo?, hi?);
            if hi < lo {
                return Some(Vec::new());
            }
            let b_lo = lo.div_euclid(width);
            let b_hi = hi.div_euclid(width);
            if b_hi.saturating_sub(b_lo) > 100_000 {
                return None; // range too wide to enumerate
            }
            Some(
                (b_lo..=b_hi)
                    .map(|b| format!("{}_bucket={}", spec.column, b))
                    .collect(),
            )
        }
        PartitionTransform::Identity => {
            let mut values = Vec::new();
            if collect_eq_values(expr, &spec.column, &mut values) {
                Some(
                    values
                        .iter()
                        .map(|v| spec.partition_value(v).ok())
                        .collect::<Option<Vec<_>>>()?,
                )
            } else {
                None
            }
        }
    }
}

/// Collect `[lo, hi]` bounds on `column` from the top-level conjunction.
/// A strict bound at the end of `i64` (`> i64::MAX`, `< i64::MIN`) admits
/// no value: it makes the range the empty `[i64::MAX, i64::MIN]`, which no
/// later bound widens.
fn collect_bounds(expr: &Expr, column: &str, lo: &mut Option<i64>, hi: &mut Option<i64>) {
    match expr {
        Expr::And(a, b) => {
            collect_bounds(a, column, lo, hi);
            collect_bounds(b, column, lo, hi);
        }
        Expr::Pred(p) if p.column == column => {
            if let Some(Value::Int(v)) = p.literals.first() {
                match p.op {
                    CmpOp::Ge => *lo = Some(lo.map_or(*v, |c: i64| c.max(*v))),
                    CmpOp::Gt => match v.checked_add(1) {
                        Some(v) => *lo = Some(lo.map_or(v, |c: i64| c.max(v))),
                        None => (*lo, *hi) = (Some(i64::MAX), Some(i64::MIN)),
                    },
                    CmpOp::Le => *hi = Some(hi.map_or(*v, |c: i64| c.min(*v))),
                    CmpOp::Lt => match v.checked_sub(1) {
                        Some(v) => *hi = Some(hi.map_or(v, |c: i64| c.min(v))),
                        None => (*lo, *hi) = (Some(i64::MAX), Some(i64::MIN)),
                    },
                    CmpOp::Eq => {
                        *lo = Some(lo.map_or(*v, |c: i64| c.max(*v)));
                        *hi = Some(hi.map_or(*v, |c: i64| c.min(*v)));
                    }
                    _ => {}
                }
            }
        }
        _ => {}
    }
}

/// Collect equality/IN literals on `column`; returns false when the
/// predicate does not pin the column to a finite set.
fn collect_eq_values(expr: &Expr, column: &str, out: &mut Vec<Value>) -> bool {
    match expr {
        Expr::And(a, b) => {
            collect_eq_values(a, column, out) || collect_eq_values(b, column, out)
        }
        Expr::Pred(p) if p.column == column => match p.op {
            CmpOp::Eq => {
                out.push(p.literals[0].clone());
                true
            }
            CmpOp::In => {
                out.extend(p.literals.iter().cloned());
                true
            }
            _ => false,
        },
        _ => false,
    }
}
