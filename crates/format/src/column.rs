//! Typed column vectors.
//!
//! Rows arrive row-oriented from the stream side; the writer pivots them
//! into [`Column`]s before encoding. Readers decode chunks into
//! [`BatchColumn`](crate::batch::BatchColumn)s instead and build rows only
//! at the API edge.

use crate::schema::{DataType, Schema};
use crate::value::{Row, Value};
use common::{Error, Result};

/// A homogeneous column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
    /// String column.
    Str(Vec<String>),
    /// Boolean column.
    Bool(Vec<bool>),
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int64 => Column::Int(Vec::new()),
            DataType::Float64 => Column::Float(Vec::new()),
            DataType::Utf8 => Column::Str(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int64,
            Column::Float(_) => DataType::Float64,
            Column::Str(_) => DataType::Utf8,
            Column::Bool(_) => DataType::Bool,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value; errors on type mismatch.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (Column::Int(col), Value::Int(x)) => col.push(*x),
            (Column::Float(col), Value::Float(x)) => col.push(*x),
            (Column::Str(col), Value::Str(x)) => col.push(x.clone()),
            (Column::Bool(col), Value::Bool(x)) => col.push(*x),
            (col, v) => {
                return Err(Error::InvalidArgument(format!(
                    "cannot push {:?} into {:?} column",
                    v.dtype(),
                    col.dtype()
                )))
            }
        }
        Ok(())
    }

    /// The value at `idx` (cloned into a dynamic [`Value`]).
    pub fn value(&self, idx: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[idx]),
            Column::Float(v) => Value::Float(v[idx]),
            Column::Str(v) => Value::Str(v[idx].clone()),
            Column::Bool(v) => Value::Bool(v[idx]),
        }
    }
}

/// Pivot rows into one column per schema field.
///
/// Every row must match the schema's width and types.
pub fn rows_to_columns(schema: &Schema, rows: &[Row]) -> Result<Vec<Column>> {
    let mut cols: Vec<Column> = schema
        .fields()
        .iter()
        .map(|f| Column::empty(f.dtype))
        .collect();
    for (rid, row) in rows.iter().enumerate() {
        if row.len() != schema.width() {
            return Err(Error::InvalidArgument(format!(
                "row {rid} has {} values, schema has {} fields",
                row.len(),
                schema.width()
            )));
        }
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v)?;
        }
    }
    Ok(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ])
        .unwrap()
    }

    #[test]
    fn pivot_roundtrip() {
        let s = schema();
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::from("a")],
            vec![Value::Int(2), Value::from("b")],
        ];
        let cols = rows_to_columns(&s, &rows).unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].len(), 2);
        let back: Vec<Row> = (0..2).map(|i| cols.iter().map(|c| c.value(i)).collect()).collect();
        assert_eq!(back, rows);
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = schema();
        let rows: Vec<Row> = vec![vec![Value::from("oops"), Value::from("a")]];
        assert!(rows_to_columns(&s, &rows).is_err());
    }

    #[test]
    fn width_mismatch_rejected() {
        let s = schema();
        let rows: Vec<Row> = vec![vec![Value::Int(1)]];
        assert!(rows_to_columns(&s, &rows).is_err());
    }

    #[test]
    fn empty_rows_give_empty_columns() {
        let s = schema();
        let cols = rows_to_columns(&s, &[]).unwrap();
        assert!(cols.iter().all(|c| c.is_empty()));
    }

    #[test]
    fn value_accessor_matches_push_order() {
        let mut c = Column::empty(DataType::Bool);
        c.push(&Value::Bool(true)).unwrap();
        c.push(&Value::Bool(false)).unwrap();
        assert_eq!(c.value(0), Value::Bool(true));
        assert_eq!(c.value(1), Value::Bool(false));
    }
}
