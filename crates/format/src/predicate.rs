//! Pushdown predicates.
//!
//! The query jobs in the paper push `WHERE` filters and aggregates down to
//! the storage side (§VII-A: "the three filters in the WHERE clause and the
//! COUNT aggregate … are pushed down to compute in StreamLake"), and
//! LakeBrain's predicate-aware partitioning builds its query tree from the
//! same predicate shape: `(attribute, operator, literal)` with operators
//! `{<=, >=, <, >, =, IN}` (§VI-B).
//!
//! [`Predicate`] is one such comparison; [`Expr`] combines them with
//! AND/OR. Both evaluate over whole decoded columns into a [`Selection`]
//! (the scan path), against single rows (the reference semantics the
//! column path is tested against) and, conservatively, against
//! [`ColumnStats`] — the stats evaluation answers "may this chunk contain a
//! matching row?", never producing false negatives.

use crate::batch::{BatchColumn, Selection};
use crate::file::GroupColumns;
use crate::schema::Schema;
use crate::stats::ColumnStats;
use crate::value::{Row, Value};
use common::Result;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator of a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=` (negation of Eq, needed to split query-tree branches)
    Ne,
    /// `IN (v1, v2, …)`
    In,
    /// `NOT IN (v1, v2, …)`
    NotIn,
}

impl CmpOp {
    /// The operator accepting exactly the rows this one rejects.
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::In => CmpOp::NotIn,
            CmpOp::NotIn => CmpOp::In,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::In => "IN",
            CmpOp::NotIn => "NOT IN",
        };
        f.write_str(s)
    }
}

/// One `(attribute, operator, literal(s))` comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Column name the predicate applies to.
    pub column: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literals: one value for scalar operators, the full list for
    /// `In`/`NotIn`.
    pub literals: Vec<Value>,
}

impl Predicate {
    /// Scalar comparison `column op literal`.
    pub fn cmp(column: impl Into<String>, op: CmpOp, literal: impl Into<Value>) -> Self {
        Predicate { column: column.into(), op, literals: vec![literal.into()] }
    }

    /// Membership test `column IN literals`.
    pub fn in_list(column: impl Into<String>, literals: Vec<Value>) -> Self {
        Predicate { column: column.into(), op: CmpOp::In, literals }
    }

    /// The predicate matching exactly the complement set of rows.
    pub fn negated(&self) -> Predicate {
        Predicate { column: self.column.clone(), op: self.op.negated(), literals: self.literals.clone() }
    }

    /// Evaluate against a single value of the predicate column.
    pub fn eval_value(&self, v: &Value) -> bool {
        match self.op {
            CmpOp::In => self
                .literals
                .iter()
                .any(|lit| v.partial_cmp_same_type(lit) == Some(Ordering::Equal)),
            CmpOp::NotIn => !self
                .literals
                .iter()
                .any(|lit| v.partial_cmp_same_type(lit) == Some(Ordering::Equal)),
            // type mismatch never matches
            op => v
                .partial_cmp_same_type(&self.literals[0])
                .is_some_and(|ord| accepts(op, ord)),
        }
    }

    /// The rows of `care` whose value in `col` matches. Dictionary chunks
    /// are tested once per dictionary entry, then looked up per row.
    pub(crate) fn select(&self, col: &BatchColumn, care: &Selection) -> Selection {
        fn as_str(l: &Value) -> Option<&str> {
            match l {
                Value::Str(x) => Some(x),
                _ => None,
            }
        }
        match col {
            BatchColumn::Int(v) => {
                let t = Test::new(self, |l| match l {
                    Value::Int(x) => Some(x),
                    _ => None,
                });
                care.filter(|i| t.accepts(&v[i], i64::cmp))
            }
            BatchColumn::Float(v) => {
                let t = Test::new(self, |l| match l {
                    Value::Float(x) => Some(x),
                    _ => None,
                });
                care.filter(|i| t.accepts(&v[i], f64::total_cmp))
            }
            BatchColumn::Bool(v) => {
                let t = Test::new(self, |l| match l {
                    Value::Bool(x) => Some(x),
                    _ => None,
                });
                care.filter(|i| t.accepts(&v[i], bool::cmp))
            }
            BatchColumn::Str(s) => {
                let t = Test::new(self, as_str);
                care.filter(|i| t.accepts(s.get(i), <str as Ord>::cmp))
            }
            BatchColumn::Dict(dict, codes) => {
                let t = Test::new(self, as_str);
                let hits: Vec<bool> = dict.iter().map(|e| t.accepts(e, <str as Ord>::cmp)).collect();
                care.filter(|i| hits[codes[i] as usize])
            }
        }
    }

    /// Evaluate against a row under `schema`.
    pub fn eval_row(&self, schema: &Schema, row: &Row) -> Result<bool> {
        let idx = schema.index_of(&self.column)?;
        Ok(self.eval_value(&row[idx]))
    }

    /// Conservative evaluation against chunk statistics: `true` when the
    /// chunk *may* contain matching rows, `false` only when it provably
    /// cannot (safe to skip).
    pub fn may_match_stats(&self, stats: &ColumnStats) -> bool {
        let cmp_min = |lit: &Value| lit.partial_cmp_same_type(&stats.min);
        let cmp_max = |lit: &Value| lit.partial_cmp_same_type(&stats.max);
        match self.op {
            // rows < lit exist iff min < lit
            CmpOp::Lt => cmp_min(&self.literals[0]) == Some(Ordering::Greater),
            CmpOp::Le => cmp_min(&self.literals[0]) != Some(Ordering::Less),
            // rows > lit exist iff max > lit
            CmpOp::Gt => cmp_max(&self.literals[0]) == Some(Ordering::Less),
            CmpOp::Ge => cmp_max(&self.literals[0]) != Some(Ordering::Greater),
            CmpOp::Eq => stats.may_contain(&self.literals[0]),
            CmpOp::Ne => {
                // Only skippable when the chunk is constant and equal to lit.
                !(stats.min.partial_cmp_same_type(&stats.max) == Some(Ordering::Equal)
                    && cmp_min(&self.literals[0]) == Some(Ordering::Equal))
            }
            CmpOp::In => self.literals.iter().any(|lit| stats.may_contain(lit)),
            CmpOp::NotIn => {
                let constant =
                    stats.min.partial_cmp_same_type(&stats.max) == Some(Ordering::Equal);
                !(constant
                    && self
                        .literals
                        .iter()
                        .any(|lit| cmp_min(lit) == Some(Ordering::Equal)))
            }
        }
    }
}

/// Whether scalar operator `op` accepts a value ordered `ord` against its
/// literal.
fn accepts(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
        CmpOp::Eq | CmpOp::In => ord == Ordering::Equal,
        CmpOp::Ne | CmpOp::NotIn => ord != Ordering::Equal,
    }
}

/// One predicate's literals of one column type, ready to test that type's
/// values with the semantics of [`Predicate::eval_value`].
struct Test<'a, T: ?Sized> {
    op: CmpOp,
    lits: Vec<&'a T>,
}

impl<'a, T: ?Sized> Test<'a, T> {
    /// The literals `typed` can view as `T`. A scalar operator only has its
    /// first literal, and a mismatched one never matches.
    fn new(p: &'a Predicate, typed: impl Fn(&'a Value) -> Option<&'a T>) -> Self {
        let lits = match p.op {
            CmpOp::In | CmpOp::NotIn => p.literals.iter().filter_map(typed).collect(),
            _ => p.literals.first().and_then(typed).into_iter().collect(),
        };
        Test { op: p.op, lits }
    }

    fn accepts(&self, v: &T, cmp: impl Fn(&T, &T) -> Ordering) -> bool {
        let member = || self.lits.iter().any(|l| cmp(v, l) == Ordering::Equal);
        match self.op {
            CmpOp::In => member(),
            CmpOp::NotIn => !member(),
            op => self.lits.first().is_some_and(|l| accepts(op, cmp(v, l))),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            CmpOp::In | CmpOp::NotIn => {
                write!(f, "{} {} (", self.column, self.op)?;
                for (i, lit) in self.literals.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{lit}")?;
                }
                write!(f, ")")
            }
            _ => write!(f, "{} {} {}", self.column, self.op, self.literals[0]),
        }
    }
}

/// A boolean combination of predicates.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Matches every row.
    True,
    /// A single comparison.
    Pred(Predicate),
    /// Both sub-expressions must match.
    And(Box<Expr>, Box<Expr>),
    /// Either sub-expression must match.
    Or(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Conjunction of a list of predicates (`True` when empty).
    pub fn all(preds: Vec<Predicate>) -> Expr {
        preds
            .into_iter()
            .map(Expr::Pred)
            .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
            .unwrap_or(Expr::True)
    }

    /// Evaluate against a row.
    pub fn eval_row(&self, schema: &Schema, row: &Row) -> Result<bool> {
        Ok(match self {
            Expr::True => true,
            Expr::Pred(p) => p.eval_row(schema, row)?,
            Expr::And(a, b) => a.eval_row(schema, row)? && b.eval_row(schema, row)?,
            Expr::Or(a, b) => a.eval_row(schema, row)? || b.eval_row(schema, row)?,
        })
    }

    /// The rows of `care` the expression matches, evaluated over the group's
    /// whole columns, which `cols` decodes on first use. A sub-expression
    /// sees only the rows the row-at-a-time short circuit of
    /// [`Expr::eval_row`] would evaluate it for: a missing column is an
    /// error exactly when `eval_row` would reach it on some row of `care`,
    /// and a column no remaining row needs is never decoded.
    pub(crate) fn select(&self, care: &Selection, cols: &mut GroupColumns<'_>) -> Result<Selection> {
        match self {
            Expr::True => Ok(care.clone()),
            Expr::Pred(_) if care.is_empty() => Ok(care.clone()),
            Expr::Pred(p) => Ok(p.select(cols.named(&p.column)?, care)),
            Expr::And(a, b) => b.select(&a.select(care, cols)?, cols),
            Expr::Or(a, b) => {
                let left = a.select(care, cols)?;
                let right = b.select(&care.and_not(&left), cols)?;
                Ok(left.or(&right))
            }
        }
    }

    /// Conservative stats evaluation: `stats_of` maps a column name to that
    /// chunk's statistics (`None` when unknown — treated as "may match").
    pub fn may_match<'a>(&self, stats_of: &impl Fn(&str) -> Option<&'a ColumnStats>) -> bool {
        match self {
            Expr::True => true,
            Expr::Pred(p) => match stats_of(&p.column) {
                Some(s) => p.may_match_stats(s),
                None => true,
            },
            Expr::And(a, b) => a.may_match(stats_of) && b.may_match(stats_of),
            Expr::Or(a, b) => a.may_match(stats_of) || b.may_match(stats_of),
        }
    }

    /// Every predicate referenced by the expression, left to right.
    pub fn predicates(&self) -> Vec<&Predicate> {
        match self {
            Expr::True => Vec::new(),
            Expr::Pred(p) => vec![p],
            Expr::And(a, b) | Expr::Or(a, b) => {
                let mut v = a.predicates();
                v.extend(b.predicates());
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::schema::{DataType, Field};
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("age", DataType::Int64),
            Field::new("province", DataType::Utf8),
        ])
        .unwrap()
    }

    #[test]
    fn scalar_ops_on_rows() {
        let s = schema();
        let row: Row = vec![Value::Int(35), Value::from("beijing")];
        assert!(Predicate::cmp("age", CmpOp::Ge, 30i64).eval_row(&s, &row).unwrap());
        assert!(!Predicate::cmp("age", CmpOp::Lt, 30i64).eval_row(&s, &row).unwrap());
        assert!(Predicate::cmp("province", CmpOp::Eq, "beijing").eval_row(&s, &row).unwrap());
        assert!(Predicate::cmp("province", CmpOp::Ne, "anhui").eval_row(&s, &row).unwrap());
    }

    #[test]
    fn in_and_notin() {
        let p = Predicate::in_list("province", vec!["beijing".into(), "anhui".into()]);
        assert!(p.eval_value(&Value::from("anhui")));
        assert!(!p.eval_value(&Value::from("tibet")));
        let np = p.negated();
        assert_eq!(np.op, CmpOp::NotIn);
        assert!(np.eval_value(&Value::from("tibet")));
        assert!(!np.eval_value(&Value::from("anhui")));
    }

    #[test]
    fn negation_partitions_rows() {
        // For any predicate p and value v: exactly one of p, ¬p matches —
        // this is the invariant the QD-tree relies on to split partitions.
        let preds = [
            Predicate::cmp("age", CmpOp::Lt, 30i64),
            Predicate::cmp("age", CmpOp::Le, 30i64),
            Predicate::cmp("age", CmpOp::Eq, 30i64),
            Predicate::in_list("age", vec![Value::Int(1), Value::Int(2)]),
        ];
        for p in &preds {
            for v in [Value::Int(1), Value::Int(29), Value::Int(30), Value::Int(31)] {
                assert_ne!(p.eval_value(&v), p.negated().eval_value(&v), "{p} vs {v}");
            }
        }
    }

    #[test]
    fn stats_skipping_is_sound_on_boundaries() {
        let stats = ColumnStats::from_column(&Column::Int(vec![10, 20])).unwrap();
        // provable skips
        assert!(!Predicate::cmp("c", CmpOp::Lt, 10i64).may_match_stats(&stats));
        assert!(!Predicate::cmp("c", CmpOp::Gt, 20i64).may_match_stats(&stats));
        assert!(!Predicate::cmp("c", CmpOp::Eq, 25i64).may_match_stats(&stats));
        // must-scan cases
        assert!(Predicate::cmp("c", CmpOp::Le, 10i64).may_match_stats(&stats));
        assert!(Predicate::cmp("c", CmpOp::Ge, 20i64).may_match_stats(&stats));
        assert!(Predicate::cmp("c", CmpOp::Eq, 15i64).may_match_stats(&stats));
        assert!(Predicate::cmp("c", CmpOp::Ne, 15i64).may_match_stats(&stats));
    }

    #[test]
    fn ne_skips_only_constant_chunks() {
        let constant = ColumnStats::from_column(&Column::Int(vec![7, 7, 7])).unwrap();
        assert!(!Predicate::cmp("c", CmpOp::Ne, 7i64).may_match_stats(&constant));
        assert!(Predicate::cmp("c", CmpOp::Ne, 8i64).may_match_stats(&constant));
    }

    #[test]
    fn expr_combinators() {
        let s = schema();
        let row: Row = vec![Value::Int(35), Value::from("beijing")];
        let e = Expr::all(vec![
            Predicate::cmp("age", CmpOp::Ge, 30i64),
            Predicate::cmp("province", CmpOp::Eq, "beijing"),
        ]);
        assert!(e.eval_row(&s, &row).unwrap());
        let e2 = Expr::Or(
            Box::new(Expr::Pred(Predicate::cmp("age", CmpOp::Lt, 0i64))),
            Box::new(Expr::Pred(Predicate::cmp("province", CmpOp::Eq, "beijing"))),
        );
        assert!(e2.eval_row(&s, &row).unwrap());
        assert_eq!(Expr::True.predicates().len(), 0);
        assert_eq!(e.predicates().len(), 2);
    }

    #[test]
    fn missing_column_is_error() {
        let s = schema();
        let row: Row = vec![Value::Int(1), Value::from("x")];
        assert!(Predicate::cmp("nope", CmpOp::Eq, 1i64).eval_row(&s, &row).is_err());
    }

    proptest! {
        /// Soundness: if stats says skip, no value in [min, max] matches.
        #[test]
        fn stats_never_false_negative(
            vals in proptest::collection::vec(-50i64..50, 1..20),
            lit in -60i64..60,
            op_idx in 0usize..6,
        ) {
            let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne][op_idx];
            let col = Column::Int(vals.clone());
            let stats = ColumnStats::from_column(&col).unwrap();
            let p = Predicate::cmp("c", op, lit);
            if !p.may_match_stats(&stats) {
                for v in &vals {
                    prop_assert!(!p.eval_value(&Value::Int(*v)),
                        "stats said skip but {v} matches {p}");
                }
            }
        }
    }
}
