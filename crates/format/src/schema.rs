//! Schemas for table objects.
//!
//! A schema is an ordered list of named, typed fields. Field names are
//! unique; lookups by name return the column index used everywhere else in
//! the format. Values are non-nullable — the DPI-log and TPC-H workloads the
//! paper evaluates have fully-populated records, and the simplification
//! keeps statistics exact.

use common::varint::{self, Reader};
use common::{Error, Result};

/// The primitive column types supported by the format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (also used for epoch timestamps).
    Int64,
    /// 64-bit IEEE float.
    Float64,
    /// UTF-8 string.
    Utf8,
    /// Boolean.
    Bool,
}

impl DataType {
    fn tag(self) -> u8 {
        match self {
            DataType::Int64 => 0,
            DataType::Float64 => 1,
            DataType::Utf8 => 2,
            DataType::Bool => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => DataType::Int64,
            1 => DataType::Float64,
            2 => DataType::Utf8,
            3 => DataType::Bool,
            other => return Err(Error::Corruption(format!("unknown datatype tag {other}"))),
        })
    }
}

/// One named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, unique within the schema.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field { name: name.into(), dtype }
    }
}

/// An ordered collection of fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema; rejects duplicate field names.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(Error::InvalidArgument(format!("duplicate field name {:?}", f.name)));
            }
        }
        Ok(Schema { fields })
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.fields.len()
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| Error::NotFound(format!("column {name:?}")))
    }

    /// The field at `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Serialize for the file footer.
    pub fn encode(&self, out: &mut Vec<u8>) {
        varint::encode_u64(self.fields.len() as u64, out);
        for f in &self.fields {
            varint::encode_u64(f.name.len() as u64, out);
            out.extend_from_slice(f.name.as_bytes());
            out.push(f.dtype.tag());
        }
    }

    /// Decode from footer bytes.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self> {
        // A field takes at least a one-byte name length and a type tag.
        let count = r.count(2)?;
        let mut fields = Vec::with_capacity(count);
        for _ in 0..count {
            let name = r.str()?.to_owned();
            fields.push(Field { name, dtype: DataType::from_tag(r.u8()?)? });
        }
        Schema::new(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("url", DataType::Utf8),
            Field::new("start_time", DataType::Int64),
            Field::new("bytes", DataType::Float64),
            Field::new("is_https", DataType::Bool),
        ])
        .unwrap()
    }

    #[test]
    fn index_lookup_by_name() {
        let s = sample();
        assert_eq!(s.index_of("start_time").unwrap(), 1);
        assert_eq!(s.width(), 4);
        assert!(matches!(s.index_of("missing"), Err(Error::NotFound(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("a", DataType::Utf8),
        ]);
        assert!(matches!(r, Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample();
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut r = Reader::new(&buf, "schema");
        assert_eq!(Schema::decode(&mut r).unwrap(), s);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn truncated_schema_is_corruption() {
        let s = sample();
        let mut buf = Vec::new();
        s.encode(&mut buf);
        for cut in 1..buf.len() {
            assert!(Schema::decode(&mut Reader::new(&buf[..cut], "schema")).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn unknown_dtype_tag_rejected() {
        let mut buf = Vec::new();
        common::varint::encode_u64(1, &mut buf);
        common::varint::encode_u64(1, &mut buf);
        buf.push(b'x');
        buf.push(42); // bogus tag
        assert!(Schema::decode(&mut Reader::new(&buf, "schema")).is_err());
    }
}
