//! Per-column statistics kept in file footers and commit metadata.
//!
//! Statistics power two levels of data skipping: within a file (footer
//! row-group stats, §IV-B "Footers in the Parquet files contain statistics")
//! and across files (commit-level value ranges used by the scan planner).

use crate::column::Column;
use crate::value::Value;
use common::varint::Reader;
use common::{Error, Result};
use std::cmp::Ordering;

/// Min/max/count statistics for one column chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Smallest value in the chunk.
    pub min: Value,
    /// Largest value in the chunk.
    pub max: Value,
    /// Number of rows in the chunk.
    pub row_count: u64,
}

impl ColumnStats {
    /// Compute stats for a non-empty column; `None` for an empty one. The
    /// extremes are found over the column's own values, in
    /// [`Value::partial_cmp_same_type`] order; only the two winners become
    /// [`Value`]s.
    pub fn from_column(col: &Column) -> Option<ColumnStats> {
        let (min, max) = match col {
            Column::Int(v) => extremes(v, Ord::cmp).map(|(a, b)| (Value::Int(*a), Value::Int(*b)))?,
            Column::Float(v) => {
                extremes(v, f64::total_cmp).map(|(a, b)| (Value::Float(*a), Value::Float(*b)))?
            }
            Column::Str(v) => extremes(v, Ord::cmp).map(|(a, b)| (Value::from(*a), Value::from(*b)))?,
            Column::Bool(v) => extremes(v, Ord::cmp).map(|(a, b)| (Value::Bool(*a), Value::Bool(*b)))?,
        };
        Some(ColumnStats { min, max, row_count: col.len() as u64 })
    }

    /// Merge two chunk stats into stats covering both.
    pub fn merge(&self, other: &ColumnStats) -> ColumnStats {
        let min = if other.min.partial_cmp_same_type(&self.min) == Some(Ordering::Less) {
            other.min.clone()
        } else {
            self.min.clone()
        };
        let max = if other.max.partial_cmp_same_type(&self.max) == Some(Ordering::Greater) {
            other.max.clone()
        } else {
            self.max.clone()
        };
        ColumnStats { min, max, row_count: self.row_count + other.row_count }
    }

    /// Whether `v` can possibly appear in the chunk (`min <= v <= max`).
    pub fn may_contain(&self, v: &Value) -> bool {
        matches!(
            v.partial_cmp_same_type(&self.min),
            Some(Ordering::Greater) | Some(Ordering::Equal)
        ) && matches!(
            v.partial_cmp_same_type(&self.max),
            Some(Ordering::Less) | Some(Ordering::Equal)
        )
    }

    /// Serialize to footer bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.min.encode(out);
        self.max.encode(out);
        common::varint::encode_u64(self.row_count, out);
    }

    /// Decode from footer bytes.
    pub fn decode(r: &mut Reader<'_>) -> Result<ColumnStats> {
        let (min, max) = (Value::decode(r)?, Value::decode(r)?);
        if min.dtype() != max.dtype() {
            return Err(Error::Corruption("stats min/max types differ".into()));
        }
        Ok(ColumnStats { min, max, row_count: r.u64()? })
    }
}

/// The first smallest and first largest of `vals` under `cmp`.
fn extremes<T>(vals: &[T], cmp: impl Fn(&T, &T) -> Ordering) -> Option<(&T, &T)> {
    let (first, rest) = vals.split_first()?;
    Some(rest.iter().fold((first, first), |(min, max), v| {
        (
            if cmp(v, min) == Ordering::Less { v } else { min },
            if cmp(v, max) == Ordering::Greater { v } else { max },
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_column_finds_extremes() {
        let s = ColumnStats::from_column(&Column::Int(vec![5, -2, 9, 0])).unwrap();
        assert_eq!(s.min, Value::Int(-2));
        assert_eq!(s.max, Value::Int(9));
        assert_eq!(s.row_count, 4);
    }

    #[test]
    fn empty_column_has_no_stats() {
        assert!(ColumnStats::from_column(&Column::Str(vec![])).is_none());
    }

    #[test]
    fn string_stats_are_lexicographic() {
        let s = ColumnStats::from_column(&Column::Str(vec!["beijing", "guangdong", "anhui"]))
        .unwrap();
        assert_eq!(s.min, Value::from("anhui"));
        assert_eq!(s.max, Value::from("guangdong"));
    }

    #[test]
    fn float_extremes_follow_the_value_order() {
        // `Value`'s total order: -0.0 below 0.0, a positive NaN above all.
        let s = ColumnStats::from_column(&Column::Float(vec![0.0, -0.0, f64::NAN, 1.0])).unwrap();
        assert_eq!(s.min.as_float().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(s.max.as_float().unwrap().is_nan());
    }

    #[test]
    fn merge_widens_range() {
        let a = ColumnStats::from_column(&Column::Int(vec![1, 5])).unwrap();
        let b = ColumnStats::from_column(&Column::Int(vec![-3, 2])).unwrap();
        let m = a.merge(&b);
        assert_eq!(m.min, Value::Int(-3));
        assert_eq!(m.max, Value::Int(5));
        assert_eq!(m.row_count, 4);
    }

    #[test]
    fn may_contain_respects_bounds() {
        let s = ColumnStats::from_column(&Column::Int(vec![10, 20])).unwrap();
        assert!(s.may_contain(&Value::Int(10)));
        assert!(s.may_contain(&Value::Int(15)));
        assert!(s.may_contain(&Value::Int(20)));
        assert!(!s.may_contain(&Value::Int(9)));
        assert!(!s.may_contain(&Value::Int(21)));
        assert!(!s.may_contain(&Value::from("ten"))); // type mismatch is "no"
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = ColumnStats::from_column(&Column::Float(vec![1.5, -0.5])).unwrap();
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut r = Reader::new(&buf, "stats");
        assert_eq!(ColumnStats::decode(&mut r).unwrap(), s);
        assert!(r.finish().is_ok());
    }
}
