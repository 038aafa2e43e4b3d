//! Cardinality estimation interfaces (§VI-B).
//!
//! "We can either directly compute the cardinality, or sample for
//! estimation, which is time-consuming or not accurate enough. Hence, we
//! can use AI-driven cardinality estimation methods to estimate the
//! cardinality accurately and efficiently." All three options live behind
//! [`CardinalityEstimator`] so the QD-tree builder can be ablated across
//! them.

use format::{Expr, Row, Schema};

/// Estimates how many rows of a table satisfy a predicate.
pub trait CardinalityEstimator {
    /// Estimated number of matching rows.
    fn estimate_rows(&self, expr: &Expr) -> f64;

    /// Total rows the estimator models.
    fn total_rows(&self) -> f64;

    /// Estimator name for reports.
    fn name(&self) -> &'static str;

    /// Estimated selectivity in `[0, 1]`.
    fn selectivity(&self, expr: &Expr) -> f64 {
        let total = self.total_rows();
        if total <= 0.0 {
            0.0
        } else {
            (self.estimate_rows(expr) / total).clamp(0.0, 1.0)
        }
    }
}

/// Ground truth: scans every row (the "directly compute" option — accurate
/// but expensive at scale).
pub struct ExactEstimator<'a> {
    schema: &'a Schema,
    rows: &'a [Row],
}

impl<'a> ExactEstimator<'a> {
    /// An exact estimator over `rows`.
    pub fn new(schema: &'a Schema, rows: &'a [Row]) -> Self {
        ExactEstimator { schema, rows }
    }
}

impl CardinalityEstimator for ExactEstimator<'_> {
    fn estimate_rows(&self, expr: &Expr) -> f64 {
        self.rows
            .iter()
            .filter(|r| expr.eval_row(self.schema, r).unwrap_or(false))
            .count() as f64
    }

    fn total_rows(&self) -> f64 {
        self.rows.len() as f64
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

/// Uniform-sample scaling (the "sample for estimation" option — cheap but
/// noisy on selective predicates).
pub struct SamplingEstimator {
    schema: Schema,
    sample: Vec<Row>,
    total: f64,
}

impl SamplingEstimator {
    /// An estimator over every `1/stride`-th row of `rows`.
    pub fn new(schema: Schema, rows: &[Row], stride: usize) -> Self {
        let stride = stride.max(1);
        let sample: Vec<Row> = rows.iter().step_by(stride).cloned().collect();
        SamplingEstimator { schema, sample, total: rows.len() as f64 }
    }
}

impl CardinalityEstimator for SamplingEstimator {
    fn estimate_rows(&self, expr: &Expr) -> f64 {
        if self.sample.is_empty() {
            return 0.0;
        }
        let hits = self
            .sample
            .iter()
            .filter(|r| expr.eval_row(&self.schema, r).unwrap_or(false))
            .count() as f64;
        hits / self.sample.len() as f64 * self.total
    }

    fn total_rows(&self) -> f64 {
        self.total
    }

    fn name(&self) -> &'static str {
        "sampling"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use format::{CmpOp, Predicate, Value};
    use workloads::tpch::LineitemGen;

    fn data() -> (Schema, Vec<Row>) {
        let mut g = LineitemGen::new(1);
        (LineitemGen::schema(), g.generate_rows(4000))
    }

    #[test]
    fn exact_matches_bruteforce() {
        let (schema, rows) = data();
        let est = ExactEstimator::new(&schema, &rows);
        let q = Expr::Pred(Predicate::cmp("l_quantity", CmpOp::Le, 25i64));
        let truth = rows
            .iter()
            .filter(|r| q.eval_row(&schema, r).unwrap())
            .count() as f64;
        assert_eq!(est.estimate_rows(&q), truth);
        assert!((est.selectivity(&q) - 0.5).abs() < 0.05);
    }

    #[test]
    fn sampling_is_close_on_moderate_selectivity() {
        let (schema, rows) = data();
        let exact = ExactEstimator::new(&schema, &rows);
        let sampled = SamplingEstimator::new(schema.clone(), &rows, 33); // ~3%
        let q = Expr::Pred(Predicate::cmp("l_shipdate", CmpOp::Le, 9300i64));
        let truth = exact.estimate_rows(&q);
        let est = sampled.estimate_rows(&q);
        let rel_err = (est - truth).abs() / truth.max(1.0);
        assert!(rel_err < 0.25, "sampling rel err {rel_err}");
        assert_eq!(sampled.total_rows(), rows.len() as f64);
    }

    #[test]
    fn sampling_misses_rare_values() {
        // The weakness the paper calls out: selective predicates defeat
        // small samples.
        let (schema, mut rows) = data();
        // one needle row
        let qty = schema.index_of("l_quantity").unwrap();
        rows[0][qty] = Value::Int(-99);
        let sampled = SamplingEstimator::new(schema.clone(), &rows, 100);
        let q = Expr::Pred(Predicate::cmp("l_quantity", CmpOp::Eq, -99i64));
        // With stride 100 starting at 0, the needle IS in the sample and
        // gets scaled 100x — or with a needle elsewhere it becomes 0.
        // Either way the absolute error is large relative to truth (1 row).
        let est = sampled.estimate_rows(&q);
        assert!(est == 0.0 || est >= 50.0, "sampling cannot resolve rare values: {est}");
    }

    #[test]
    fn selectivity_is_clamped() {
        let (schema, rows) = data();
        let est = ExactEstimator::new(&schema, &rows);
        assert_eq!(est.selectivity(&Expr::True), 1.0);
        let impossible = Expr::Pred(Predicate::cmp("l_quantity", CmpOp::Gt, 1000i64));
        assert_eq!(est.selectivity(&impossible), 0.0);
    }
}
