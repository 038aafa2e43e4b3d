//! A small aggregate query engine with storage-side pushdown.
//!
//! Enough SQL surface for the paper's evaluation queries — Fig 13's DAU
//! query is `SELECT COUNT(*) … WHERE url = … AND start_time ∈ […) GROUP BY
//! province`. With pushdown on (the StreamLake path), filters, projection
//! and the aggregate all run at the storage side and only the aggregate
//! result crosses to the compute engine; with pushdown off (the baseline
//! path), every candidate row ships to compute first.

use common::clock::Nanos;
use common::ctx::{IoCtx, Phase};
use common::{Error, Result};
use format::{Batch, BatchColumn, Expr};
use lake::table::ScanStats;
use lake::{MetadataMode, ScanOptions, TableStore};
use simdisk::Transport;
use std::collections::BTreeMap;

/// Supported aggregate functions.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// `COUNT(*)`
    CountStar,
    /// `SUM(column)` over an Int64/Float64 column.
    Sum(String),
    /// `MIN(column)`.
    Min(String),
    /// `MAX(column)`.
    Max(String),
}

/// One aggregate query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Table to query.
    pub table: String,
    /// `WHERE` clause.
    pub predicate: Expr,
    /// Optional `GROUP BY` column.
    pub group_by: Option<String>,
    /// The aggregate to compute.
    pub aggregate: Aggregate,
}

impl Query {
    /// The Fig 13 DAU query: count flows to `url` within `[lo, hi)` grouped
    /// by province.
    pub fn dau(table: &str, url: &str, lo: i64, hi: i64) -> Query {
        use format::{CmpOp, Predicate};
        Query {
            table: table.to_string(),
            predicate: Expr::all(vec![
                Predicate::cmp("url", CmpOp::Eq, url),
                Predicate::cmp("start_time", CmpOp::Ge, lo),
                Predicate::cmp("start_time", CmpOp::Lt, hi),
            ]),
            group_by: Some("province".to_string()),
            aggregate: Aggregate::CountStar,
        }
    }
}

/// Result of a query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// `(group key, aggregate value)` rows; a single `(Str(""), v)` row for
    /// ungrouped queries.
    pub groups: BTreeMap<String, f64>,
    /// Storage scan statistics.
    pub scan: ScanStats,
    /// End-to-end virtual time, including the compute-transfer leg.
    pub elapsed: Nanos,
}

/// The query engine.
#[derive(Debug)]
pub struct QueryEngine {
    transport: Transport,
    /// Whether filters/aggregates are pushed down to storage.
    pub pushdown: bool,
    /// Metadata path used for planning.
    pub metadata_mode: MetadataMode,
}

impl QueryEngine {
    /// An engine with pushdown enabled over RDMA (the StreamLake setup).
    pub fn new() -> Self {
        QueryEngine { transport: Transport::Rdma, pushdown: true, metadata_mode: MetadataMode::Accelerated }
    }

    /// The baseline engine: no pushdown, file-based metadata, TCP.
    pub fn baseline() -> Self {
        QueryEngine {
            transport: Transport::Tcp,
            pushdown: false,
            metadata_mode: MetadataMode::FileBased,
        }
    }

    /// Execute `query` at the context's virtual time. The aggregate folds
    /// straight over the scan's column batches; no row is built.
    pub fn execute(&self, store: &TableStore, query: &Query, ctx: &IoCtx) -> Result<QueryOutput> {
        // Columns the aggregate needs.
        let value = match &query.aggregate {
            Aggregate::CountStar => None,
            Aggregate::Sum(c) | Aggregate::Min(c) | Aggregate::Max(c) => Some(c),
        };
        let mut projection: Vec<String> = query.group_by.iter().cloned().collect();
        if let Some(c) = value.filter(|c| !projection.contains(c)) {
            projection.push(c.clone());
        }
        // With pushdown, only the needed columns leave storage and the batch
        // holds them in projection order; without it, full rows ship to the
        // compute engine and the batch holds every column.
        let (group_col, value_col) = if self.pushdown {
            (query.group_by.as_ref().map(|_| 0), value.map(|_| projection.len() - 1))
        } else {
            let schema = store.catalog().get(&query.table)?.schema;
            let index = |c: &String| schema.index_of(c);
            (query.group_by.as_ref().map(index).transpose()?, value.map(index).transpose()?)
        };
        let opts = ScanOptions {
            predicate: query.predicate.clone(),
            projection: self.pushdown.then_some(projection),
            as_of: None,
            mode: self.metadata_mode,
            pushdown: self.pushdown,
            // conventional engines prune partitions too (Hive-style layouts)
            partition_pruning: true,
        };
        // Aggregate (at storage when pushed down, at compute otherwise).
        let mut groups = Groups::new(&query.aggregate);
        let mut transfer_bytes = 0u64;
        let stats = store.select_batches(&query.table, &opts, ctx, &mut |b| {
            if !self.pushdown {
                // The baseline ships every matching row's bytes.
                transfer_bytes += b
                    .selection
                    .iter()
                    .map(|i| b.columns.iter().map(|c| c.encoded_len(i) as u64).sum::<u64>())
                    .sum::<u64>();
            }
            groups.fold(&b, group_col, value_col)
        })?;
        let groups = groups.finish();
        // Compute-transfer leg: pushed-down queries ship only the aggregate.
        if self.pushdown {
            transfer_bytes = groups.len() as u64 * 24;
        }
        let transfer = self.transport.transfer_time(transfer_bytes);
        ctx.record(Phase::Wan, ctx.now + stats.metadata_time + stats.data_time, transfer);
        let elapsed = stats.metadata_time + stats.data_time + transfer;
        Ok(QueryOutput { groups, scan: stats, elapsed })
    }
}

/// Running aggregates keyed by group. Each group's accumulator folds its
/// rows in scan order, so results equal a row-at-a-time fold bit for bit.
struct Groups<'q> {
    aggregate: &'q Aggregate,
    /// Group key → index into `acc`; a key is allocated once, when its
    /// first row arrives.
    index: BTreeMap<String, usize>,
    acc: Vec<f64>,
}

impl<'q> Groups<'q> {
    fn new(aggregate: &'q Aggregate) -> Self {
        Groups { aggregate, index: BTreeMap::new(), acc: Vec::new() }
    }

    /// The accumulator of group `key`, created empty on first use.
    fn slot(&mut self, key: &str) -> usize {
        if let Some(&i) = self.index.get(key) {
            return i;
        }
        let i = self.acc.len();
        self.acc.push(match self.aggregate {
            Aggregate::CountStar | Aggregate::Sum(_) => 0.0,
            Aggregate::Min(_) => f64::INFINITY,
            Aggregate::Max(_) => f64::NEG_INFINITY,
        });
        self.index.insert(key.to_string(), i);
        i
    }

    /// Fold the selected rows of `b`: `group` and `value` are the batch
    /// columns holding the group key and the aggregated value.
    fn fold(&mut self, b: &Batch, group: Option<usize>, value: Option<usize>) -> Result<()> {
        let value = value.map(|v| &b.columns[v]);
        let val = |i: usize| -> Result<f64> {
            match value {
                None => Ok(1.0),
                Some(BatchColumn::Int(v)) => Ok(v[i] as f64),
                Some(BatchColumn::Float(v)) => Ok(v[i]),
                Some(other) => Err(Error::InvalidArgument(format!(
                    "cannot aggregate over {}",
                    other.value(i)
                ))),
            }
        };
        // A dictionary-coded group column resolves each code to its group
        // once per batch.
        let mut by_code: Vec<Option<usize>> = match group.map(|g| &b.columns[g]) {
            Some(BatchColumn::Dict(dict, _)) => vec![None; dict.len()],
            _ => Vec::new(),
        };
        for i in b.selection.iter() {
            let slot = match group.map(|g| &b.columns[g]) {
                None => self.slot(""),
                Some(BatchColumn::Dict(dict, codes)) => {
                    let code = codes[i] as usize;
                    match by_code[code] {
                        Some(s) => s,
                        None => *by_code[code].insert(self.slot(dict.get(code))),
                    }
                }
                Some(BatchColumn::Str(s)) => self.slot(s.get(i)),
                Some(col) => self.slot(&col.value(i).to_string()),
            };
            let v = val(i)?;
            let acc = &mut self.acc[slot];
            *acc = match self.aggregate {
                Aggregate::CountStar | Aggregate::Sum(_) => *acc + v,
                Aggregate::Min(_) => acc.min(v),
                Aggregate::Max(_) => acc.max(v),
            };
        }
        Ok(())
    }

    fn finish(self) -> BTreeMap<String, f64> {
        self.index.into_iter().map(|(k, i)| (k, self.acc[i])).collect()
    }
}

impl Default for QueryEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{StreamLake, StreamLakeConfig};
    use format::Value;
    use lake::catalog::PartitionSpec;
    use workloads::packets::PacketGen;

    const T0: i64 = 1_656_806_400;

    fn loaded_system(n: usize) -> (StreamLake, Vec<workloads::packets::Packet>) {
        let sl = StreamLake::new(StreamLakeConfig::small());
        sl.tables()
            .create_table(
                "dpi",
                PacketGen::schema(),
                Some(PartitionSpec::hourly("start_time")),
                5000,
                &IoCtx::new(0),
            )
            .unwrap();
        // spread the data over six hourly partitions
        let mut packets = Vec::new();
        for h in 0..6u64 {
            let mut g = PacketGen::new(1 + h, T0 + h as i64 * 3600, 500);
            let batch = g.batch(n / 6);
            let rows: Vec<_> = batch.iter().map(|p| p.to_row()).collect();
            sl.tables().insert("dpi", &rows, &IoCtx::new(0)).unwrap();
            packets.extend(batch);
        }
        (sl, packets)
    }

    #[test]
    fn dau_query_counts_by_province() {
        let (sl, packets) = loaded_system(2000);
        let url = &packets[0].url.clone();
        let q = Query::dau("dpi", url, T0, T0 + 86_400);
        let out = QueryEngine::new().execute(sl.tables(), &q, &IoCtx::new(0)).unwrap();
        // ground truth
        let mut truth: BTreeMap<String, f64> = BTreeMap::new();
        for p in &packets {
            if &p.url == url && p.start_time >= T0 && p.start_time < T0 + 86_400 {
                *truth.entry(p.province.clone()).or_insert(0.0) += 1.0;
            }
        }
        assert_eq!(out.groups, truth);
    }

    #[test]
    fn pushdown_and_baseline_agree_but_pushdown_is_faster() {
        let (sl, packets) = loaded_system(3000);
        let url = packets[0].url.clone();
        sl.sync(&sl.root_ctx(common::ctx::QosClass::Foreground)).unwrap(); // baseline needs persisted metadata files
        let q = Query::dau("dpi", &url, T0, T0 + 2);
        // Every pushdown × metadata-mode engine, each at a quiet, distinct
        // virtual instant so device queues from loading have drained. The
        // scan accounting is pinned to what the forked (pre-PR-13) scan loop
        // charged: (files_scanned, bytes_scanned, metadata_time, data_time).
        let engines = [
            (QueryEngine::new(), (1, 554_255, 4_000, 338_095)),
            (QueryEngine { pushdown: false, ..QueryEngine::new() }, (1, 554_255, 4_000, 338_095)),
            (QueryEngine { pushdown: true, ..QueryEngine::baseline() }, (1, 554_255, 566_889, 338_095)),
            (QueryEngine::baseline(), (1, 554_255, 566_889, 338_095)),
        ];
        let mut outs = Vec::new();
        for (i, (engine, pinned)) in engines.iter().enumerate() {
            let at = IoCtx::new(common::clock::secs(100 * (i as u64 + 1)));
            let out = engine.execute(sl.tables(), &q, &at).unwrap();
            let s = out.scan;
            assert_eq!(
                (s.files_scanned, s.bytes_scanned, s.metadata_time, s.data_time),
                *pinned,
                "engine {i}"
            );
            outs.push(out);
        }
        assert!(!outs[0].groups.is_empty());
        assert!(outs.iter().all(|o| o.groups == outs[0].groups), "pushdown must not change answers");
        let (fast, slow) = (&outs[0], &outs[3]);
        assert!(
            fast.elapsed < slow.elapsed,
            "pushdown {} must beat baseline {}",
            fast.elapsed,
            slow.elapsed
        );
        // Both engines prune partitions (Hive-style layouts do too), so
        // file counts match; the win is row shipping avoided + RDMA.
        assert!(fast.scan.files_scanned <= slow.scan.files_scanned);
    }

    #[test]
    fn sum_min_max_aggregates() {
        let (sl, _) = loaded_system(500);
        let engine = QueryEngine::new();
        let base = Query {
            table: "dpi".into(),
            predicate: Expr::True,
            group_by: None,
            aggregate: Aggregate::Sum("bytes_down".into()),
        };
        let sum = engine.execute(sl.tables(), &base, &IoCtx::new(0)).unwrap();
        let min = engine
            .execute(
                sl.tables(),
                &Query { aggregate: Aggregate::Min("bytes_down".into()), ..base.clone() },
                &IoCtx::new(0),
            )
            .unwrap();
        let max = engine
            .execute(
                sl.tables(),
                &Query { aggregate: Aggregate::Max("bytes_down".into()), ..base.clone() },
                &IoCtx::new(0),
            )
            .unwrap();
        let s = sum.groups[""];
        let lo = min.groups[""];
        let hi = max.groups[""];
        assert!(lo <= hi);
        assert!(s >= hi);
        assert!(s / 500.0 >= lo && s / 500.0 <= hi, "mean must lie in [min, max]");
    }

    /// The row-at-a-time aggregation the batch fold replaced, over the
    /// full rows `select` returns.
    fn reference(store: &TableStore, q: &Query) -> Result<BTreeMap<String, f64>> {
        let schema = store.catalog().get(&q.table)?.schema;
        let rows = store.select(&q.table, &ScanOptions::filtered(q.predicate.clone()), &IoCtx::new(0))?.rows;
        let mut groups = BTreeMap::new();
        for row in &rows {
            let key = match &q.group_by {
                Some(g) => match &row[schema.index_of(g)?] {
                    Value::Str(s) => s.clone(),
                    other => other.to_string(),
                },
                None => String::new(),
            };
            let (init, c): (f64, Option<&String>) = match &q.aggregate {
                Aggregate::CountStar => (0.0, None),
                Aggregate::Sum(c) => (0.0, Some(c)),
                Aggregate::Min(c) => (f64::INFINITY, Some(c)),
                Aggregate::Max(c) => (f64::NEG_INFINITY, Some(c)),
            };
            let v = match c.map(|c| schema.index_of(c)).transpose()?.map(|i| &row[i]) {
                None => 1.0,
                Some(Value::Int(v)) => *v as f64,
                Some(Value::Float(v)) => *v,
                Some(other) => return Err(Error::InvalidArgument(format!("{other}"))),
            };
            let e = groups.entry(key).or_insert(init);
            *e = match &q.aggregate {
                Aggregate::CountStar | Aggregate::Sum(_) => *e + v,
                Aggregate::Min(_) => e.min(v),
                Aggregate::Max(_) => e.max(v),
            };
        }
        Ok(groups)
    }

    /// A table with a dictionary-coded and a plain string column, an int,
    /// a float and a bool column, over several files and row groups.
    fn mixed_table(seed: u64) -> StreamLake {
        use format::{DataType, Field, Schema};
        let sl = StreamLake::new(StreamLakeConfig::small());
        let schema = Schema::new(vec![
            Field::new("k", DataType::Utf8),
            Field::new("u", DataType::Utf8),
            Field::new("g", DataType::Int64),
            Field::new("x", DataType::Float64),
            Field::new("b", DataType::Bool),
        ])
        .unwrap();
        sl.tables().create_table("t", schema, None, 40, &IoCtx::new(0)).unwrap();
        let mut state = seed;
        let mut next = move |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for f in 0..3 {
            let rows: Vec<_> = (0..90)
                .map(|i| {
                    vec![
                        Value::from(["ab", "cd", "ef"][next(3) as usize]),
                        Value::from(format!("u{}", next(1000))),
                        Value::Int(next(7) as i64 - 3),
                        Value::Float((next(2001) as f64 - 1000.0) / 7.0),
                        Value::Bool((f + i) % 3 == 0),
                    ]
                })
                .collect();
            sl.tables().insert("t", &rows, &IoCtx::new(0)).unwrap();
        }
        sl
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        #[test]
        fn batch_aggregation_equals_the_row_reference(seed in proptest::prelude::any::<u64>()) {
            check_aggregation(seed);
        }
    }

    fn check_aggregation(seed: u64) {
        use format::{CmpOp, Predicate};
        let sl = mixed_table(seed);
        let preds = [
            Expr::True,
            Expr::Pred(Predicate::cmp("k", CmpOp::Ne, "cd")),
            Expr::all(vec![Predicate::cmp("g", CmpOp::Ge, 0i64), Predicate::cmp("x", CmpOp::Lt, 50.0)]),
            Expr::Pred(Predicate::cmp("g", CmpOp::Gt, 99i64)),
        ];
        let aggregates = [
            Aggregate::CountStar,
            Aggregate::Sum("x".into()),
            Aggregate::Sum("g".into()),
            Aggregate::Min("x".into()),
            Aggregate::Max("g".into()),
            Aggregate::Sum("k".into()),
        ];
        let group_bys = [None, Some("k"), Some("u"), Some("g"), Some("b"), Some("x")];
        for (i, predicate) in preds.iter().enumerate() {
            for aggregate in &aggregates {
                for group_by in group_bys {
                    let q = Query {
                        table: "t".into(),
                        predicate: predicate.clone(),
                        group_by: group_by.map(String::from),
                        aggregate: aggregate.clone(),
                    };
                    let want = reference(sl.tables(), &q);
                    for engine in [QueryEngine::new(), QueryEngine { pushdown: false, ..QueryEngine::new() }] {
                        let got = engine.execute(sl.tables(), &q, &IoCtx::new(0));
                        match (&got, &want) {
                            (Ok(got), Ok(want)) => assert_eq!(&got.groups, want, "{q:?} pushdown {}", engine.pushdown),
                            (Err(_), Err(_)) => {}
                            _ => panic!("{q:?} pushdown {}: {got:?} vs {want:?}", engine.pushdown),
                        }
                    }
                    // The empty selection aggregates to no group at all.
                    if i == 3 {
                        assert!(want.map_or(true, |w| w.is_empty()));
                    }
                }
            }
        }
    }

    #[test]
    fn ungrouped_count() {
        let (sl, packets) = loaded_system(200);
        let q = Query {
            table: "dpi".into(),
            predicate: Expr::True,
            group_by: None,
            aggregate: Aggregate::CountStar,
        };
        let out = QueryEngine::new().execute(sl.tables(), &q, &IoCtx::new(0)).unwrap();
        assert_eq!(out.groups.len(), 1);
        assert_eq!(out.groups[""], packets.len() as f64);
    }
}
