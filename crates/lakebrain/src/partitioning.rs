//! Layout evaluation: how many bytes does a partitioning strategy let the
//! workload skip? (Fig 16(b)/(c).)
//!
//! Three strategies are compared, mirroring §VII-E:
//!
//! * **Full** — no partitioning: the whole table is one partition;
//! * **Day** — partition by the day of `l_shipdate` (the manual baseline);
//! * **Ours** — route rows through the workload-driven [`QdTree`].
//!
//! Every strategy materializes its partitions as real columnar lake files,
//! and the evaluation replays the workload against the files' footer
//! statistics: a file whose stats refute the query contributes
//! `bytes_skipped`; the rest are scanned.

use crate::qdtree::QdTree;
use common::Result;
use format::{Expr, LakeFileReader, LakeFileWriter, Row, Schema};
use std::collections::BTreeMap;

/// Result of evaluating one layout under one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutReport {
    /// Partitions materialized.
    pub partitions: usize,
    /// Total stored bytes.
    pub(crate) total_bytes: u64,
    /// Bytes read across the whole workload.
    pub scanned_bytes: u64,
    /// Bytes skipped via statistics across the whole workload.
    pub(crate) skipped_bytes: u64,
    /// Rows actually scanned across the whole workload.
    pub scanned_rows: u64,
    /// Files opened across the whole workload (per-query, per-file).
    pub scanned_files: u64,
    /// Matching rows returned (identical across correct layouts).
    pub(crate) result_rows: u64,
}

impl LayoutReport {
    /// Fraction of workload bytes skipped.
    pub fn skip_fraction(&self) -> f64 {
        let denom = (self.scanned_bytes + self.skipped_bytes) as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.skipped_bytes as f64 / denom
        }
    }
}

/// A partition assignment function.
pub type Assigner<'a> = dyn Fn(&Row) -> u64 + 'a;

/// Assign everything to one partition (the Full baseline).
pub fn full_assigner() -> Box<Assigner<'static>> {
    Box::new(|_| 0)
}

/// Partition by integer bucket of `column` (e.g. day of `l_shipdate`).
pub fn bucket_assigner(schema: &Schema, column: &str, width: i64) -> Result<Box<Assigner<'static>>> {
    let idx = schema.index_of(column)?;
    Ok(Box::new(move |row: &Row| {
        row[idx].as_int().map(|v| v.div_euclid(width)).unwrap_or(0) as u64
    }))
}

/// Partition through a QD-tree.
pub fn qdtree_assigner(tree: &QdTree) -> Box<Assigner<'_>> {
    Box::new(move |row: &Row| tree.route(row) as u64)
}

/// Materialize `rows` under `assign` and replay `workload` against the
/// files' statistics.
pub fn evaluate_layout(
    schema: &Schema,
    rows: &[Row],
    assign: &Assigner<'_>,
    workload: &[Expr],
    rows_per_group: usize,
) -> Result<LayoutReport> {
    // group rows into partitions
    let mut groups: BTreeMap<u64, Vec<Row>> = BTreeMap::new();
    for row in rows {
        groups.entry(assign(row)).or_default().push(row.clone());
    }
    // write one lake file per partition
    let writer = LakeFileWriter::new(schema.clone(), rows_per_group.max(1))?;
    let mut files = Vec::with_capacity(groups.len());
    let mut total_bytes = 0u64;
    for rows in groups.values() {
        let bytes = writer.encode(rows)?;
        total_bytes += bytes.len() as u64;
        files.push((bytes.len() as u64, LakeFileReader::open(bytes)?));
    }
    // replay the workload with stats-based pruning
    let mut report = LayoutReport {
        partitions: groups.len(),
        total_bytes,
        scanned_bytes: 0,
        skipped_bytes: 0,
        scanned_rows: 0,
        scanned_files: 0,
        result_rows: 0,
    };
    for q in workload {
        for (bytes, reader) in &files {
            let stats = reader.file_stats().expect("partitions are non-empty");
            let refuted = !q.may_match(&|name: &str| {
                reader.schema().index_of(name).ok().and_then(|i| stats.get(i))
            });
            if refuted {
                report.skipped_bytes += bytes;
                continue;
            }
            report.scanned_bytes += bytes;
            report.scanned_rows += reader.total_rows();
            report.scanned_files += 1;
            report.result_rows += reader.scan(q, Some(&[0]))?.len() as u64;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::ExactEstimator;
    use crate::qdtree::QdTreeConfig;
    use workloads::queries::QueryGen;
    use workloads::tpch::LineitemGen;

    fn setup(n: usize) -> (Schema, Vec<Row>, Vec<Expr>) {
        let schema = LineitemGen::schema();
        let mut g = LineitemGen::new(1);
        let rows = g.generate_rows(n);
        let mut qg = QueryGen::new(2, schema.clone(), &rows);
        // a mixed workload: time-range queries plus predicates on other
        // columns (where manual day partitioning cannot help)
        let mut workload: Vec<Expr> = (0..10).map(|_| qg.range_query("l_shipdate", 90)).collect();
        workload.extend(qg.workload(20, 2));
        (schema, rows, workload)
    }

    #[test]
    fn full_layout_skips_nothing_at_file_level() {
        let (schema, rows, workload) = setup(3000);
        let report =
            evaluate_layout(&schema, &rows, &full_assigner(), &workload, 1024).unwrap();
        assert_eq!(report.partitions, 1);
        assert_eq!(report.skipped_bytes, 0, "one file can never be skipped whole");
    }

    #[test]
    fn day_partitioning_skips_for_time_queries() {
        let (schema, rows, workload) = setup(3000);
        let day = bucket_assigner(&schema, "l_shipdate", 30).unwrap();
        let report = evaluate_layout(&schema, &rows, &day, &workload, 1024).unwrap();
        assert!(report.partitions > 10);
        assert!(
            report.skip_fraction() > 0.3,
            "time buckets must skip for shipdate ranges: {}",
            report.skip_fraction()
        );
    }

    #[test]
    fn qdtree_beats_day_partitioning_on_mixed_workloads() {
        // The Fig 16(b) headline: predicate-aware partitioning skips more
        // bytes than the manual shipdate layout once the workload includes
        // non-temporal predicates.
        let (schema, rows, workload) = setup(4000);
        let est = ExactEstimator::new(&schema, &rows);
        let tree = QdTree::build(
            schema.clone(),
            &workload,
            &est,
            QdTreeConfig { min_leaf_rows: 100.0, max_depth: 10 },
        );
        let qd = qdtree_assigner(&tree);
        let day = bucket_assigner(&schema, "l_shipdate", 30).unwrap();
        let r_qd = evaluate_layout(&schema, &rows, &qd, &workload, 1024).unwrap();
        let r_day = evaluate_layout(&schema, &rows, &day, &workload, 1024).unwrap();
        assert!(
            r_qd.skip_fraction() > r_day.skip_fraction(),
            "qd-tree {} must skip more than day {}",
            r_qd.skip_fraction(),
            r_day.skip_fraction()
        );
    }

    #[test]
    fn all_layouts_return_identical_results() {
        let (schema, rows, workload) = setup(2000);
        let est = ExactEstimator::new(&schema, &rows);
        let tree = QdTree::build(schema.clone(), &workload, &est, QdTreeConfig::default());
        let layouts: Vec<Box<Assigner>> = vec![
            full_assigner(),
            bucket_assigner(&schema, "l_shipdate", 30).unwrap(),
            qdtree_assigner(&tree),
        ];
        let results: Vec<u64> = layouts
            .iter()
            .map(|a| {
                evaluate_layout(&schema, &rows, a, &workload, 512)
                    .unwrap()
                    .result_rows
            })
            .collect();
        assert_eq!(results[0], results[1], "layout must not change answers");
        assert_eq!(results[0], results[2]);
    }
}
