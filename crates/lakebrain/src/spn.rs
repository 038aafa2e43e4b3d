//! A sum-product network (SPN) cardinality estimator.
//!
//! §VI-B: "we use the sum-product network \[12\] as the estimator", i.e. the
//! DeepDB construction: recursively split the (rows × columns) matrix —
//! *sum* nodes cluster rows, *product* nodes split columns into
//! (approximately) independent groups, leaves are per-column histograms.
//! Estimation multiplies leaf selectivities along products and averages
//! them across sums, answering conjunctive range/equality predicates in
//! microseconds regardless of table size.

use crate::cardinality::CardinalityEstimator;
use format::{CmpOp, DataType, Expr, Predicate, Row, Schema, Value};
use std::collections::BTreeMap;

const MIN_ROWS_FOR_SPLIT: usize = 256;
const HISTOGRAM_BINS: usize = 32;
const CORRELATION_THRESHOLD: f64 = 0.3;

/// One node of the network.
#[derive(Debug)]
enum Node {
    /// Weighted mixture over row clusters.
    Sum { children: Vec<(f64, Node)> },
    /// Independent column groups.
    Product { children: Vec<Node> },
    /// Distribution of a single column.
    Leaf(Leaf),
}

#[derive(Debug)]
enum Leaf {
    /// Equi-width histogram over numeric values.
    Numeric { column: usize, edges: Vec<f64>, counts: Vec<f64>, total: f64 },
    /// Value → frequency for categorical/bool columns.
    Categorical { column: usize, freqs: BTreeMap<String, f64>, total: f64 },
}

/// The trained estimator.
#[derive(Debug)]
pub struct Spn {
    schema: Schema,
    root: Node,
    total_rows: f64,
}

impl Spn {
    /// Learn an SPN from a sample of rows (the paper trains on a 3% sample
    /// of `lineitem`).
    pub fn learn(schema: Schema, rows: &[Row]) -> Self {
        assert!(!rows.is_empty(), "cannot learn an SPN from zero rows");
        let cols: Vec<usize> = (0..schema.width()).collect();
        let idx: Vec<usize> = (0..rows.len()).collect();
        let root = build(&schema, rows, &idx, &cols, true);
        Spn { schema, root, total_rows: rows.len() as f64 }
    }

    /// Re-scale the modelled total (e.g. learned on a sample of a larger
    /// table).
    pub fn with_total_rows(mut self, total: f64) -> Self {
        self.total_rows = total;
        self
    }

    /// Probability a random row satisfies `expr` (conjunctions of
    /// predicates; OR is handled by inclusion bound).
    pub(crate) fn probability(&self, expr: &Expr) -> f64 {
        let by_col = match conjunctive_by_column(expr, &self.schema) {
            Some(map) => map,
            None => return 1.0, // unsupported shape: no pruning claimed
        };
        eval(&self.root, &by_col).clamp(0.0, 1.0)
    }
}

impl CardinalityEstimator for Spn {
    fn estimate_rows(&self, expr: &Expr) -> f64 {
        self.probability(expr) * self.total_rows
    }

    fn total_rows(&self) -> f64 {
        self.total_rows
    }

    fn name(&self) -> &'static str {
        "spn"
    }
}

/// Predicates of a conjunctive expression, grouped by column index.
type PredsByColumn<'e> = BTreeMap<usize, Vec<&'e Predicate>>;

/// Group a conjunctive expression's predicates by column index. Returns
/// `None` for non-conjunctive shapes.
fn conjunctive_by_column<'e>(
    expr: &'e Expr,
    schema: &Schema,
) -> Option<PredsByColumn<'e>> {
    let mut map: BTreeMap<usize, Vec<&Predicate>> = BTreeMap::new();
    collect(expr, schema, &mut map)?;
    Some(map)
}

fn collect<'e>(
    expr: &'e Expr,
    schema: &Schema,
    map: &mut BTreeMap<usize, Vec<&'e Predicate>>,
) -> Option<()> {
    match expr {
        Expr::True => Some(()),
        Expr::Pred(p) => {
            let idx = schema.index_of(&p.column).ok()?;
            map.entry(idx).or_default().push(p);
            Some(())
        }
        Expr::And(a, b) => {
            collect(a, schema, map)?;
            collect(b, schema, map)
        }
        Expr::Or(_, _) => None,
    }
}

fn eval(node: &Node, preds: &BTreeMap<usize, Vec<&Predicate>>) -> f64 {
    match node {
        Node::Sum { children } => children.iter().map(|(w, c)| w * eval(c, preds)).sum(),
        Node::Product { children } => children.iter().map(|c| eval(c, preds)).product(),
        Node::Leaf(leaf) => leaf_prob(leaf, preds),
    }
}

fn leaf_prob(leaf: &Leaf, preds: &BTreeMap<usize, Vec<&Predicate>>) -> f64 {
    let column = match leaf {
        Leaf::Numeric { column, .. } | Leaf::Categorical { column, .. } => *column,
    };
    let Some(ps) = preds.get(&column) else {
        return 1.0;
    };
    match leaf {
        Leaf::Numeric { edges, counts, total, .. } => {
            // intersect all predicates into one interval + extra filters
            let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
            let mut eq: Option<f64> = None;
            for p in ps {
                let lit = match p.literals.first() {
                    Some(Value::Int(v)) => *v as f64,
                    Some(Value::Float(v)) => *v,
                    _ => continue,
                };
                match p.op {
                    CmpOp::Lt | CmpOp::Le => hi = hi.min(lit),
                    CmpOp::Gt | CmpOp::Ge => lo = lo.max(lit),
                    CmpOp::Eq => eq = Some(lit),
                    _ => {}
                }
            }
            if let Some(v) = eq {
                lo = lo.max(v);
                hi = hi.min(v + 1e-9);
            }
            if lo > hi {
                return 0.0;
            }
            let mut mass = 0.0;
            for (i, &c) in counts.iter().enumerate() {
                let (b_lo, b_hi) = (edges[i], edges[i + 1]);
                let o_lo = lo.max(b_lo);
                let o_hi = hi.min(b_hi);
                if o_hi <= o_lo {
                    continue;
                }
                let width = (b_hi - b_lo).max(1e-12);
                mass += c * ((o_hi - o_lo) / width).min(1.0);
            }
            (mass / total.max(1e-12)).clamp(0.0, 1.0)
        }
        Leaf::Categorical { freqs, total, .. } => {
            let prob_of = |v: &Value| -> f64 {
                let key = value_key(v);
                freqs.get(&key).copied().unwrap_or(0.0) / total.max(1e-12)
            };
            let mut prob = 1.0f64;
            for p in ps {
                let this = match p.op {
                    CmpOp::Eq => prob_of(&p.literals[0]),
                    CmpOp::Ne => 1.0 - prob_of(&p.literals[0]),
                    CmpOp::In => p.literals.iter().map(prob_of).sum::<f64>().min(1.0),
                    CmpOp::NotIn => {
                        1.0 - p.literals.iter().map(prob_of).sum::<f64>().min(1.0)
                    }
                    // Lexicographic ranges on categories: count matching keys.
                    CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                        let mut mass = 0.0;
                        for (k, f) in freqs {
                            let v = Value::Str(k.clone());
                            if p.eval_value(&v) {
                                mass += f;
                            }
                        }
                        mass / total.max(1e-12)
                    }
                };
                prob = prob.min(this); // conjunctive upper bound on same column
            }
            prob.clamp(0.0, 1.0)
        }
    }
}

fn value_key(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
    }
}

fn numeric_of(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn build(schema: &Schema, rows: &[Row], idx: &[usize], cols: &[usize], try_product: bool) -> Node {
    if cols.len() == 1 {
        return Node::Leaf(make_leaf(schema, rows, idx, cols[0]));
    }
    if idx.len() < MIN_ROWS_FOR_SPLIT {
        // small cluster: assume independence
        return Node::Product {
            children: cols
                .iter()
                .map(|&c| Node::Leaf(make_leaf(schema, rows, idx, c)))
                .collect(),
        };
    }
    if try_product {
        if let Some(groups) = independent_groups(schema, rows, idx, cols) {
            return Node::Product {
                children: groups
                    .iter()
                    .map(|g| build(schema, rows, idx, g, false))
                    .collect(),
            };
        }
    }
    // sum split: cluster rows on the numeric column with highest variance
    if let Some((left, right)) = cluster_rows(schema, rows, idx, cols) {
        let wl = left.len() as f64 / idx.len() as f64;
        let wr = 1.0 - wl;
        return Node::Sum {
            children: vec![
                (wl, build(schema, rows, &left, cols, true)),
                (wr, build(schema, rows, &right, cols, true)),
            ],
        };
    }
    // cannot cluster (constant data): independence fallback
    Node::Product {
        children: cols
            .iter()
            .map(|&c| Node::Leaf(make_leaf(schema, rows, idx, c)))
            .collect(),
    }
}

fn make_leaf(schema: &Schema, rows: &[Row], idx: &[usize], col: usize) -> Leaf {
    match schema.field(col).dtype {
        DataType::Int64 | DataType::Float64 => {
            let vals: Vec<f64> = idx
                .iter()
                .map(|&i| numeric_of(&rows[i][col]).unwrap_or(0.0))
                .collect();
            let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let hi = if hi <= lo { lo + 1.0 } else { hi + 1e-9 };
            let bins = HISTOGRAM_BINS.min(vals.len().max(1));
            let width = (hi - lo) / bins as f64;
            let mut counts = vec![0.0; bins];
            for v in &vals {
                let b = (((v - lo) / width) as usize).min(bins - 1);
                counts[b] += 1.0;
            }
            let edges: Vec<f64> = (0..=bins).map(|i| lo + width * i as f64).collect();
            Leaf::Numeric { column: col, edges, counts, total: vals.len() as f64 }
        }
        DataType::Utf8 | DataType::Bool => {
            let mut freqs: BTreeMap<String, f64> = BTreeMap::new();
            for &i in idx {
                *freqs.entry(value_key(&rows[i][col])).or_insert(0.0) += 1.0;
            }
            Leaf::Categorical { column: col, freqs, total: idx.len() as f64 }
        }
    }
}

/// Try to split columns into ≥2 groups with low pairwise association.
fn independent_groups(
    schema: &Schema,
    rows: &[Row],
    idx: &[usize],
    cols: &[usize],
) -> Option<Vec<Vec<usize>>> {
    let n = cols.len();
    // union-find over columns, merging correlated pairs
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    // subsample rows for the correlation test
    let step = (idx.len() / 512).max(1);
    let sample: Vec<usize> = idx.iter().step_by(step).copied().collect();
    for a in 0..n {
        for b in (a + 1)..n {
            if association(schema, rows, &sample, cols[a], cols[b]) > CORRELATION_THRESHOLD {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb {
                    parent[ra] = rb;
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, &col) in cols.iter().enumerate() {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(col);
    }
    if groups.len() >= 2 {
        Some(groups.into_values().collect())
    } else {
        None
    }
}

/// A cheap association proxy in [0, 1]: |Pearson| on numeric encodings
/// (categories hashed to ranks).
fn association(schema: &Schema, rows: &[Row], idx: &[usize], a: usize, b: usize) -> f64 {
    let enc = |col: usize, i: usize| -> f64 {
        match &rows[i][col] {
            Value::Int(v) => *v as f64,
            Value::Float(v) => *v,
            Value::Bool(v) => *v as u8 as f64,
            // stable hash to pseudo-rank
            Value::Str(s) => (common::checksum::fnv1a(s.as_bytes()) % 1000) as f64,
        }
    };
    let _ = schema;
    let n = idx.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let (mut sa, mut sb, mut saa, mut sbb, mut sab) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &i in idx {
        let (x, y) = (enc(a, i), enc(b, i));
        sa += x;
        sb += y;
        saa += x * x;
        sbb += y * y;
        sab += x * y;
    }
    let cov = sab / n - (sa / n) * (sb / n);
    let va = (saa / n - (sa / n).powi(2)).max(0.0);
    let vb = (sbb / n - (sb / n).powi(2)).max(0.0);
    if va <= 1e-12 || vb <= 1e-12 {
        return 0.0;
    }
    (cov / (va.sqrt() * vb.sqrt())).abs()
}

/// Split rows at the median of the highest-variance numeric column.
fn cluster_rows(
    schema: &Schema,
    rows: &[Row],
    idx: &[usize],
    cols: &[usize],
) -> Option<(Vec<usize>, Vec<usize>)> {
    let mut best: Option<(usize, f64)> = None;
    for &c in cols {
        if !matches!(schema.field(c).dtype, DataType::Int64 | DataType::Float64) {
            continue;
        }
        let vals: Vec<f64> = idx
            .iter()
            .map(|&i| numeric_of(&rows[i][c]).unwrap_or(0.0))
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let scale = vals.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
        let var = vals.iter().map(|v| ((v - mean) / scale).powi(2)).sum::<f64>()
            / vals.len() as f64;
        if best.is_none_or(|(_, bv)| var > bv) {
            best = Some((c, var));
        }
    }
    let (col, var) = best?;
    if var <= 1e-12 {
        return None;
    }
    let mut vals: Vec<f64> = idx
        .iter()
        .map(|&i| numeric_of(&rows[i][col]).unwrap_or(0.0))
        .collect();
    vals.sort_by(|a, b| a.total_cmp(b));
    let median = vals[vals.len() / 2];
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for &i in idx {
        if numeric_of(&rows[i][col]).unwrap_or(0.0) < median {
            left.push(i);
        } else {
            right.push(i);
        }
    }
    if left.is_empty() || right.is_empty() {
        return None;
    }
    Some((left, right))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::ExactEstimator;
    use workloads::queries::QueryGen;
    use workloads::tpch::LineitemGen;

    #[test]
    fn learns_and_estimates_simple_ranges() {
        let mut g = LineitemGen::new(1);
        let rows = g.generate_rows(4000);
        let spn = Spn::learn(LineitemGen::schema(), &rows);
        let q = Expr::Pred(Predicate::cmp("l_quantity", CmpOp::Le, 25i64));
        // true selectivity ≈ 0.5
        let p = spn.probability(&q);
        assert!((p - 0.5).abs() < 0.1, "p={p}");
    }

    #[test]
    fn conjunctions_multiply_across_independent_columns() {
        let mut g = LineitemGen::new(2);
        let rows = g.generate_rows(4000);
        let schema = LineitemGen::schema();
        let spn = Spn::learn(schema.clone(), &rows);
        let q = Expr::all(vec![
            Predicate::cmp("l_quantity", CmpOp::Le, 25i64),
            Predicate::cmp("l_returnflag", CmpOp::Eq, "A"),
        ]);
        let exact = ExactEstimator::new(&schema, &rows);
        let truth = exact.selectivity(&q);
        let est = spn.probability(&q);
        assert!(
            (est - truth).abs() < 0.08,
            "spn {est} vs truth {truth}"
        );
    }

    #[test]
    fn categorical_in_lists_supported() {
        let mut g = LineitemGen::new(3);
        let rows = g.generate_rows(3000);
        let schema = LineitemGen::schema();
        let spn = Spn::learn(schema.clone(), &rows);
        let q = Expr::Pred(Predicate::in_list(
            "l_shipmode",
            vec!["AIR".into(), "RAIL".into()],
        ));
        let exact = ExactEstimator::new(&schema, &rows).selectivity(&q);
        let est = spn.probability(&q);
        assert!((est - exact).abs() < 0.08, "spn {est} vs exact {exact}");
    }

    #[test]
    fn workload_accuracy_beats_small_sampling_on_average() {
        let mut g = LineitemGen::new(4);
        let rows = g.generate_rows(6000);
        let schema = LineitemGen::schema();
        // SPN trained on a 3% sample (the paper's training setup).
        let sample: Vec<Row> = rows.iter().step_by(33).cloned().collect();
        let spn = Spn::learn(schema.clone(), &sample).with_total_rows(rows.len() as f64);
        let exact = ExactEstimator::new(&schema, &rows);
        let mut qg = QueryGen::new(5, schema.clone(), &rows);
        let workload = qg.workload(60, 2);
        let mut err = 0.0;
        for q in &workload {
            err += (spn.selectivity(q) - exact.selectivity(q)).abs();
        }
        let mean_err = err / workload.len() as f64;
        assert!(mean_err < 0.15, "mean selectivity error {mean_err}");
    }

    #[test]
    fn impossible_predicates_estimate_near_zero() {
        let mut g = LineitemGen::new(6);
        let rows = g.generate_rows(2000);
        let spn = Spn::learn(LineitemGen::schema(), &rows);
        let q = Expr::all(vec![
            Predicate::cmp("l_quantity", CmpOp::Ge, 40i64),
            Predicate::cmp("l_quantity", CmpOp::Le, 10i64),
        ]);
        assert!(spn.probability(&q) < 0.01);
        let q2 = Expr::Pred(Predicate::cmp("l_returnflag", CmpOp::Eq, "ZZZ"));
        assert!(spn.probability(&q2) < 0.01);
    }

    #[test]
    fn estimator_trait_scales_to_total() {
        let mut g = LineitemGen::new(7);
        let rows = g.generate_rows(1000);
        let spn = Spn::learn(LineitemGen::schema(), &rows).with_total_rows(1_000_000.0);
        assert_eq!(spn.total_rows(), 1_000_000.0);
        assert_eq!(spn.name(), "spn");
        let half = spn.estimate_rows(&Expr::Pred(Predicate::cmp(
            "l_quantity",
            CmpOp::Le,
            25i64,
        )));
        assert!(half > 300_000.0 && half < 700_000.0, "{half}");
    }
}
