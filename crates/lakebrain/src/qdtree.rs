//! The query-data tree (QD-tree) partitioner (§VI-B, following \[28\]).
//!
//! "Given a table T and a query workload W consisting of the pushdown
//! predicates, we will build a query tree, similar to a decision tree where
//! each inner node denotes a predicate … Each leaf node refers to a
//! partition such that when executing W, we can skip as many tuples as
//! possible."
//!
//! The builder is greedy: at every node it evaluates each workload
//! predicate as a candidate cut, scores it by the number of tuples the
//! workload would skip (children a query provably cannot match), asks the
//! cardinality estimator for child sizes, and recurses until the depth /
//! leaf-size limits. The estimator is pluggable — exact, sampling, or the
//! SPN — enabling the paper's accuracy-matters argument to be tested.

use crate::cardinality::CardinalityEstimator;
use format::{CmpOp, Expr, Predicate, Row, Schema, Value};
use std::cmp::Ordering;

/// Build limits.
#[derive(Debug, Clone, Copy)]
pub struct QdTreeConfig {
    /// Do not split nodes below this estimated row count.
    pub min_leaf_rows: f64,
    /// Maximum tree depth.
    pub max_depth: usize,
}

impl Default for QdTreeConfig {
    fn default() -> Self {
        QdTreeConfig { min_leaf_rows: 500.0, max_depth: 8 }
    }
}

#[derive(Debug)]
enum TreeNode {
    Inner { pred: Predicate, yes: usize, no: usize },
    Leaf { id: usize },
}

/// A built QD-tree.
#[derive(Debug)]
pub struct QdTree {
    schema: Schema,
    nodes: Vec<TreeNode>,
    leaves: usize,
}

impl QdTree {
    /// Build a tree for `workload` using `estimator` for node sizing.
    pub fn build(
        schema: Schema,
        workload: &[Expr],
        estimator: &dyn CardinalityEstimator,
        config: QdTreeConfig,
    ) -> Self {
        // candidate cuts: every distinct predicate in the workload
        let mut candidates: Vec<Predicate> = Vec::new();
        for q in workload {
            for p in q.predicates() {
                if !candidates.iter().any(|c| c == p) {
                    candidates.push(p.clone());
                }
            }
        }
        let mut tree = QdTree { schema, nodes: Vec::new(), leaves: 0 };
        tree.build_node(&mut Vec::new(), workload, &candidates, estimator, config, 0);
        tree
    }

    fn build_node(
        &mut self,
        path: &mut Vec<Predicate>,
        workload: &[Expr],
        candidates: &[Predicate],
        estimator: &dyn CardinalityEstimator,
        config: QdTreeConfig,
        depth: usize,
    ) -> usize {
        let here_expr = Expr::all(path.clone());
        let here_rows = estimator.estimate_rows(&here_expr);
        if depth < config.max_depth && here_rows >= config.min_leaf_rows {
            if let Some((cut, _gain)) =
                self.best_cut(path, workload, candidates, estimator, here_rows)
            {
                let idx = self.nodes.len();
                self.nodes.push(TreeNode::Leaf { id: usize::MAX }); // placeholder
                path.push(cut.clone());
                let yes =
                    self.build_node(path, workload, candidates, estimator, config, depth + 1);
                path.pop();
                path.push(cut.negated());
                let no =
                    self.build_node(path, workload, candidates, estimator, config, depth + 1);
                path.pop();
                self.nodes[idx] = TreeNode::Inner { pred: cut, yes, no };
                return idx;
            }
        }
        let id = self.leaves;
        self.leaves += 1;
        let idx = self.nodes.len();
        self.nodes.push(TreeNode::Leaf { id });
        idx
    }

    fn best_cut(
        &self,
        path: &[Predicate],
        workload: &[Expr],
        candidates: &[Predicate],
        estimator: &dyn CardinalityEstimator,
        here_rows: f64,
    ) -> Option<(Predicate, f64)> {
        let mut best: Option<(Predicate, f64)> = None;
        for cut in candidates {
            if path.iter().any(|p| p == cut || *p == cut.negated()) {
                continue; // already decided on this path
            }
            let mut with_cut = path.to_vec();
            with_cut.push(cut.clone());
            let yes_rows = estimator.estimate_rows(&Expr::all(with_cut)).min(here_rows);
            let no_rows = (here_rows - yes_rows).max(0.0);
            if yes_rows < 1.0 || no_rows < 1.0 {
                continue; // degenerate split
            }
            // Tuples the workload skips: a query skips the yes-child when it
            // is incompatible with the cut, and the no-child when it is
            // incompatible with the cut's negation.
            let neg = cut.negated();
            let mut gain = 0.0;
            for q in workload {
                let preds = q.predicates();
                if preds.iter().any(|p| incompatible(p, cut)) {
                    gain += yes_rows;
                }
                if preds.iter().any(|p| incompatible(p, &neg)) {
                    gain += no_rows;
                }
            }
            if gain > 0.0 && best.as_ref().is_none_or(|(_, g)| gain > *g) {
                best = Some((cut.clone(), gain));
            }
        }
        best
    }

    /// Number of leaf partitions.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// Route one row to its leaf partition id.
    pub(crate) fn route(&self, row: &Row) -> usize {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                TreeNode::Leaf { id } => return *id,
                TreeNode::Inner { pred, yes, no } => {
                    let matches = pred
                        .eval_row(&self.schema, row)
                        .unwrap_or(false);
                    idx = if matches { *yes } else { *no };
                }
            }
        }
    }
}

/// Whether two predicates on the same column provably cannot both hold.
/// Conservative: returns `false` whenever unsure.
pub(crate) fn incompatible(a: &Predicate, b: &Predicate) -> bool {
    if a.column != b.column {
        return false;
    }
    // Eq/In vs anything: test each pinned value against the other predicate.
    let pinned = |p: &Predicate| -> Option<Vec<Value>> {
        match p.op {
            CmpOp::Eq => Some(vec![p.literals[0].clone()]),
            CmpOp::In => Some(p.literals.clone()),
            _ => None,
        }
    };
    if let Some(vals) = pinned(a) {
        return vals.iter().all(|v| !b.eval_value(v));
    }
    if let Some(vals) = pinned(b) {
        return vals.iter().all(|v| !a.eval_value(v));
    }
    // range vs range: derive (lo, hi) bounds and check empty intersection
    type Bound = Option<(Value, bool)>; // (literal, inclusive)
    let bounds = |p: &Predicate| -> Option<(Bound, Bound)> {
        // returns (lower bound, inclusive), (upper bound, inclusive)
        let lit = p.literals.first()?.clone();
        Some(match p.op {
            CmpOp::Lt => (None, Some((lit, false))),
            CmpOp::Le => (None, Some((lit, true))),
            CmpOp::Gt => (Some((lit, false)), None),
            CmpOp::Ge => (Some((lit, true)), None),
            _ => return None,
        })
    };
    let (Some((alo, ahi)), Some((blo, bhi))) = (bounds(a), bounds(b)) else {
        return false;
    };
    let lo = max_bound(alo, blo);
    let hi = min_bound(ahi, bhi);
    match (lo, hi) {
        (Some((lo, lo_inc)), Some((hi, hi_inc))) => {
            match lo.partial_cmp_same_type(&hi) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => !(lo_inc && hi_inc),
                _ => false,
            }
        }
        _ => false,
    }
}

fn max_bound(
    a: Option<(Value, bool)>,
    b: Option<(Value, bool)>,
) -> Option<(Value, bool)> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some((va, ia)), Some((vb, ib))) => match va.partial_cmp_same_type(&vb) {
            Some(Ordering::Greater) => Some((va, ia)),
            Some(Ordering::Less) => Some((vb, ib)),
            _ => Some((va, ia && ib)),
        },
    }
}

fn min_bound(
    a: Option<(Value, bool)>,
    b: Option<(Value, bool)>,
) -> Option<(Value, bool)> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some((va, ia)), Some((vb, ib))) => match va.partial_cmp_same_type(&vb) {
            Some(Ordering::Less) => Some((va, ia)),
            Some(Ordering::Greater) => Some((vb, ib)),
            _ => Some((va, ia && ib)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::ExactEstimator;

    use format::{DataType, Field, Schema};

    fn people_schema() -> Schema {
        Schema::new(vec![
            Field::new("age", DataType::Int64),
            Field::new("gender", DataType::Utf8),
        ])
        .unwrap()
    }

    fn people_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int((i as i64 * 7919) % 80),
                    Value::from(if i % 2 == 0 { "Male" } else { "Female" }),
                ]
            })
            .collect()
    }

    #[test]
    fn incompatibility_logic() {
        let lt30 = Predicate::cmp("age", CmpOp::Lt, 30i64);
        let ge30 = Predicate::cmp("age", CmpOp::Ge, 30i64);
        let ge50 = Predicate::cmp("age", CmpOp::Ge, 50i64);
        let eq10 = Predicate::cmp("age", CmpOp::Eq, 10i64);
        let male = Predicate::cmp("gender", CmpOp::Eq, "Male");
        assert!(incompatible(&lt30, &ge30));
        assert!(incompatible(&lt30, &ge50));
        assert!(!incompatible(&ge30, &ge50));
        assert!(incompatible(&eq10, &ge30));
        assert!(!incompatible(&eq10, &lt30));
        assert!(!incompatible(&male, &lt30), "different columns never conflict");
        assert!(incompatible(
            &male,
            &Predicate::cmp("gender", CmpOp::Eq, "Female")
        ));
        // boundary: age < 30 vs age >= 29 overlap at 29
        assert!(!incompatible(&lt30, &Predicate::cmp("age", CmpOp::Ge, 29i64)));
        // age <= 30 vs age >= 30 share exactly 30
        assert!(!incompatible(
            &Predicate::cmp("age", CmpOp::Le, 30i64),
            &ge30
        ));
        // age < 30 vs age > 30 are disjoint
        assert!(incompatible(&lt30, &Predicate::cmp("age", CmpOp::Gt, 30i64)));
    }

    #[test]
    fn builds_the_papers_example_tree() {
        // Fig 11: workload on age and gender produces partitions like
        // "age < 30 AND G = Male".
        let schema = people_schema();
        let rows = people_rows(4000);
        let est = ExactEstimator::new(&schema, &rows);
        let workload = vec![
            Expr::all(vec![
                Predicate::cmp("age", CmpOp::Lt, 30i64),
                Predicate::cmp("gender", CmpOp::Eq, "Male"),
            ]),
            Expr::Pred(Predicate::cmp("age", CmpOp::Ge, 50i64)),
            Expr::Pred(Predicate::cmp("gender", CmpOp::Eq, "Female")),
        ];
        let tree = QdTree::build(
            schema.clone(),
            &workload,
            &est,
            QdTreeConfig { min_leaf_rows: 100.0, max_depth: 6 },
        );
        assert!(tree.leaf_count() >= 3, "leaves: {}", tree.leaf_count());
        // routing respects the predicates: two rows differing only in the
        // partitioned attributes land in different leaves
        let young_male = vec![Value::Int(20), Value::from("Male")];
        let old_male = vec![Value::Int(60), Value::from("Male")];
        let young_female = vec![Value::Int(20), Value::from("Female")];
        assert_ne!(tree.route(&young_male), tree.route(&old_male));
        assert_ne!(tree.route(&young_male), tree.route(&young_female));
    }

    #[test]
    fn routing_is_total_and_stable() {
        let schema = people_schema();
        let rows = people_rows(2000);
        let est = ExactEstimator::new(&schema, &rows);
        let workload = vec![Expr::Pred(Predicate::cmp("age", CmpOp::Lt, 40i64))];
        let tree = QdTree::build(schema.clone(), &workload, &est, QdTreeConfig::default());
        let assign = rows.iter().map(|r| tree.route(r)).collect::<Vec<_>>();
        assert_eq!(assign.len(), rows.len());
        assert!(assign.iter().all(|&l| l < tree.leaf_count()));
        // same row → same leaf
        assert_eq!(tree.route(&rows[0]), tree.route(&rows[0].clone()));
    }

    #[test]
    fn no_usable_cut_yields_single_leaf() {
        let schema = people_schema();
        let rows = people_rows(1000);
        let est = ExactEstimator::new(&schema, &rows);
        // empty workload: nothing to optimize for
        let tree = QdTree::build(schema.clone(), &[], &est, QdTreeConfig::default());
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn partitions_skip_tuples_for_the_workload() {
        let schema = people_schema();
        let rows = people_rows(4000);
        let est = ExactEstimator::new(&schema, &rows);
        let q = Expr::all(vec![Predicate::cmp("age", CmpOp::Lt, 30i64)]);
        let workload = vec![q.clone()];
        let tree = QdTree::build(
            schema.clone(),
            &workload,
            &est,
            QdTreeConfig { min_leaf_rows: 100.0, max_depth: 4 },
        );
        assert!(tree.leaf_count() >= 2);
        // every row matching q lands in a leaf that holds ONLY candidate rows
        let assign = rows.iter().map(|r| tree.route(r)).collect::<Vec<_>>();
        let matching_leaves: std::collections::HashSet<usize> = rows
            .iter()
            .zip(&assign)
            .filter(|(r, _)| q.eval_row(&schema, r).unwrap())
            .map(|(_, &l)| l)
            .collect();
        let non_matching_in_those: usize = rows
            .iter()
            .zip(&assign)
            .filter(|(r, l)| {
                matching_leaves.contains(l) && !q.eval_row(&schema, r).unwrap()
            })
            .count();
        assert_eq!(
            non_matching_in_those, 0,
            "age<30 leaf must contain only age<30 rows"
        );
    }
}
