//! Dynamically-typed values and rows.

use crate::schema::DataType;
use common::varint::{self, Reader};
use common::{Error, Result};
use std::cmp::Ordering;
use std::fmt;

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// A row is one value per schema field, in schema order.
pub type Row = Vec<Value>;

impl Value {
    /// The type of this value.
    pub fn dtype(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int64,
            Value::Float(_) => DataType::Float64,
            Value::Str(_) => DataType::Utf8,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// Integer payload, or an error for other types.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(Error::InvalidArgument(format!("expected Int, got {other}"))),
        }
    }

    /// Float payload, or an error for other types.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            other => Err(Error::InvalidArgument(format!("expected Float, got {other}"))),
        }
    }

    /// String payload, or an error for other types.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(v) => Ok(v),
            other => Err(Error::InvalidArgument(format!("expected Str, got {other}"))),
        }
    }

    /// Bool payload, or an error for other types.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(Error::InvalidArgument(format!("expected Bool, got {other}"))),
        }
    }

    /// Total order across values of the *same* type (floats use IEEE total
    /// ordering). Returns `None` for mismatched types.
    pub fn partial_cmp_same_type(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Serialize with a type tag (used by footers and commit metadata).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(v) => {
                out.push(0);
                varint::encode_i64(*v, out);
            }
            Value::Float(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(v) => {
                out.push(2);
                varint::encode_u64(v.len() as u64, out);
                out.extend_from_slice(v.as_bytes());
            }
            Value::Bool(v) => {
                out.push(3);
                out.push(*v as u8);
            }
        }
    }

    /// Decode a tagged value.
    pub fn decode(r: &mut Reader<'_>) -> Result<Value> {
        Ok(match r.u8()? {
            0 => Value::Int(r.i64()?),
            1 => Value::Float(f64::from_le_bytes(r.array()?)),
            2 => Value::Str(r.str()?.to_owned()),
            3 => Value::Bool(r.u8()? != 0),
            other => return Err(Error::Corruption(format!("unknown value tag {other}"))),
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v:?}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(5).as_int().unwrap(), 5);
        assert!(Value::Int(5).as_str().is_err());
        assert_eq!(Value::from("x").as_str().unwrap(), "x");
        assert!(Value::Bool(true).as_bool().unwrap());
    }

    #[test]
    fn same_type_ordering() {
        assert_eq!(
            Value::Int(1).partial_cmp_same_type(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::from("b").partial_cmp_same_type(&Value::from("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Int(1).partial_cmp_same_type(&Value::from("a")), None);
        // total_cmp handles NaN deterministically
        assert!(Value::Float(f64::NAN)
            .partial_cmp_same_type(&Value::Float(0.0))
            .is_some());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            "[a-z]{0,12}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(v in arb_value()) {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let mut r = Reader::new(&buf, "value");
            let back = Value::decode(&mut r).unwrap();
            prop_assert!(r.finish().is_ok());
            // NaN != NaN under PartialEq; compare via total ordering instead.
            prop_assert_eq!(back.partial_cmp_same_type(&v), Some(Ordering::Equal));
        }
    }
}
