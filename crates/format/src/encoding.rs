//! Column encodings.
//!
//! Each column chunk is stored under the encoding that minimizes its size:
//!
//! * integers — plain little-endian or zig-zag delta varints (timestamps and
//!   near-sorted ids collapse dramatically under deltas);
//! * floats — plain little-endian;
//! * strings — plain length-prefixed, or dictionary when the chunk has few
//!   distinct values (provinces, URLs, labels);
//! * booleans — bit-packed.
//!
//! Every encoded chunk begins with its row count, which the decoder checks
//! against the row group's; string chunks decode into
//! [`Strs`](crate::batch::Strs) and dictionary chunks stay coded.

use crate::batch::{BatchColumn, Strs};
use crate::column::Column;
use crate::schema::DataType;
use common::varint::{self, Reader};
use common::{Error, Result};

/// The encoding applied to one column chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// 8-byte little-endian integers.
    PlainInt,
    /// Zig-zag varint deltas from the previous value.
    DeltaInt,
    /// 8-byte little-endian floats.
    PlainFloat,
    /// Length-prefixed UTF-8 strings.
    PlainStr,
    /// Sorted dictionary + per-row varint indexes.
    DictStr,
    /// Bit-packed booleans, 8 per byte.
    PackedBool,
}

impl Encoding {
    /// Wire tag for the chunk header.
    pub fn tag(self) -> u8 {
        match self {
            Encoding::PlainInt => 0,
            Encoding::DeltaInt => 1,
            Encoding::PlainFloat => 2,
            Encoding::PlainStr => 3,
            Encoding::DictStr => 4,
            Encoding::PackedBool => 5,
        }
    }

    /// Decode a wire tag.
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => Encoding::PlainInt,
            1 => Encoding::DeltaInt,
            2 => Encoding::PlainFloat,
            3 => Encoding::PlainStr,
            4 => Encoding::DictStr,
            5 => Encoding::PackedBool,
            other => return Err(Error::Corruption(format!("unknown encoding tag {other}"))),
        })
    }
}

/// Append `col`'s encoded chunk to `out` under the smallest applicable
/// encoding, and return that encoding.
pub fn encode_column(col: &Column, out: &mut Vec<u8>) -> Encoding {
    varint::encode_u64(col.len() as u64, out);
    match col {
        Column::Int(vals) => {
            let body = out.len();
            encode_delta_int(vals, out);
            if out.len() - body < 8 * vals.len() {
                return Encoding::DeltaInt;
            }
            out.truncate(body);
            for v in vals {
                out.extend_from_slice(&v.to_le_bytes());
            }
            Encoding::PlainInt
        }
        Column::Float(vals) => {
            for v in vals {
                out.extend_from_slice(&v.to_le_bytes());
            }
            Encoding::PlainFloat
        }
        Column::Str(vals) => {
            let mut dict = vals.clone();
            dict.sort_unstable();
            dict.dedup();
            if !vals.is_empty() && dict.len() * 2 <= vals.len() {
                encode_dict_str(vals, &dict, out);
                Encoding::DictStr
            } else {
                encode_strs(vals, out);
                Encoding::PlainStr
            }
        }
        Column::Bool(vals) => {
            encode_packed_bool(vals, out);
            Encoding::PackedBool
        }
    }
}

/// Decode a chunk produced by [`encode_column`] that must hold exactly
/// `rows` values, its row group's row count. A chunk whose own count
/// disagrees is corruption, and so are bytes left after its values; no
/// count sizes an allocation before the remaining bytes are known to hold
/// that many values.
pub fn decode_chunk(enc: Encoding, dtype: DataType, buf: &[u8], rows: usize) -> Result<BatchColumn> {
    let mut r = Reader::new(buf, "column chunk");
    // The fewest bytes one value takes under `enc`; a bit-packed boolean
    // takes none of its own.
    let min_bytes = match enc {
        Encoding::PlainInt | Encoding::PlainFloat => 8,
        Encoding::PackedBool => 0,
        Encoding::DeltaInt | Encoding::PlainStr | Encoding::DictStr => 1,
    };
    let count = r.count(min_bytes)?;
    if count != rows {
        return Err(Error::Corruption(format!(
            "column chunk holds {count} values, its row group {rows}"
        )));
    }
    let col = match (enc, dtype) {
        (Encoding::PlainInt, DataType::Int64) => {
            BatchColumn::Int(fixed8(&mut r, rows)?.map(i64::from_le_bytes).collect())
        }
        (Encoding::DeltaInt, DataType::Int64) => BatchColumn::Int(decode_delta_int(&mut r, rows)?),
        (Encoding::PlainFloat, DataType::Float64) => {
            BatchColumn::Float(fixed8(&mut r, rows)?.map(f64::from_le_bytes).collect())
        }
        (Encoding::PlainStr, DataType::Utf8) => BatchColumn::Str(decode_strs(&mut r, rows)?),
        (Encoding::DictStr, DataType::Utf8) => decode_dict_str(&mut r, rows)?,
        (Encoding::PackedBool, DataType::Bool) => {
            let bytes = r.bytes(rows.div_ceil(8))?;
            BatchColumn::Bool((0..rows).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
        }
        (enc, dtype) => {
            return Err(Error::Corruption(format!(
                "encoding {enc:?} incompatible with column type {dtype:?}"
            )))
        }
    };
    r.finish()?;
    Ok(col)
}

/// `rows` little-endian 8-byte words.
fn fixed8<'a>(r: &mut Reader<'a>, rows: usize) -> Result<impl Iterator<Item = [u8; 8]> + 'a> {
    Ok(r.bytes(rows.saturating_mul(8))?.as_chunks().0.iter().copied())
}

/// `n` length-prefixed strings; the caller has checked that the remaining
/// bytes can hold `n`.
fn decode_strs(r: &mut Reader<'_>, n: usize) -> Result<Strs> {
    let mut bytes = Vec::with_capacity(r.remaining());
    let mut ends = Vec::with_capacity(n);
    for _ in 0..n {
        bytes.extend_from_slice(r.len_prefixed()?);
        ends.push(bytes.len());
    }
    Strs::new(bytes, ends)
}

fn encode_delta_int(vals: &[i64], out: &mut Vec<u8>) {
    let mut prev = 0i64;
    for &v in vals {
        varint::encode_i64(v.wrapping_sub(prev), out);
        prev = v;
    }
}

fn decode_delta_int(r: &mut Reader<'_>, rows: usize) -> Result<Vec<i64>> {
    let mut out = Vec::with_capacity(rows);
    let mut prev = 0i64;
    for _ in 0..rows {
        prev = prev.wrapping_add(r.i64()?);
        out.push(prev);
    }
    Ok(out)
}

/// Length-prefixed strings.
fn encode_strs(vals: &[&str], out: &mut Vec<u8>) {
    out.reserve(vals.iter().map(|s| s.len() + 2).sum());
    for s in vals {
        varint::encode_u64(s.len() as u64, out);
        out.extend_from_slice(s.as_bytes());
    }
}

/// `dict` is `vals` sorted and deduplicated; each row is its index there.
fn encode_dict_str(vals: &[&str], dict: &[&str], out: &mut Vec<u8>) {
    varint::encode_u64(dict.len() as u64, out);
    encode_strs(dict, out);
    for s in vals {
        let code = dict.binary_search(s).unwrap_or_else(|i| i);
        varint::encode_u64(code as u64, out);
    }
}

fn decode_dict_str(r: &mut Reader<'_>, rows: usize) -> Result<BatchColumn> {
    let dict_len = r.count(1)?;
    let dict = decode_strs(r, dict_len)?;
    let mut codes = Vec::with_capacity(rows);
    for _ in 0..rows {
        let code = r.u64()?;
        if code >= dict_len as u64 {
            return Err(Error::Corruption(format!("dictionary index {code} out of range")));
        }
        codes.push(u32::try_from(code).map_err(|_| Error::Corruption("dictionary too large".into()))?);
    }
    Ok(BatchColumn::Dict(dict, codes))
}

fn encode_packed_bool(vals: &[bool], out: &mut Vec<u8>) {
    out.extend(vals.chunks(8).map(|bits| {
        bits.iter().enumerate().fold(0u8, |byte, (i, &b)| byte | (b as u8) << i)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use proptest::prelude::*;

    fn encode(col: &Column) -> (Encoding, Vec<u8>) {
        let mut buf = Vec::new();
        let enc = encode_column(col, &mut buf);
        (enc, buf)
    }

    fn decode_column(enc: Encoding, dtype: DataType, buf: &[u8], rows: usize) -> Result<Vec<Value>> {
        let col = decode_chunk(enc, dtype, buf, rows)?;
        Ok((0..col.len()).map(|i| col.value(i)).collect())
    }

    fn values(col: &Column) -> Vec<Value> {
        (0..col.len()).map(|i| col.value(i)).collect()
    }

    fn roundtrip(col: Column) {
        let (enc, buf) = encode(&col);
        let back = decode_column(enc, col.dtype(), &buf, col.len()).unwrap();
        assert_eq!(back, values(&col));
    }

    #[test]
    fn sorted_ints_choose_delta_and_shrink() {
        let vals: Vec<i64> = (0..10_000).map(|i| 1_656_806_400 + i).collect();
        let col = Column::Int(vals);
        let (enc, buf) = encode(&col);
        assert_eq!(enc, Encoding::DeltaInt);
        assert!(buf.len() < 2 * 10_000, "sorted ints must encode ~1 byte each");
        roundtrip(col);
    }

    #[test]
    fn random_ints_choose_plain() {
        let mut x = 0x9E3779B97F4A7C15u64;
        let vals: Vec<i64> = (0..1000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as i64
            })
            .collect();
        let col = Column::Int(vals);
        let (enc, _) = encode(&col);
        assert_eq!(enc, Encoding::PlainInt);
        roundtrip(col);
    }

    #[test]
    fn low_cardinality_strings_choose_dictionary() {
        let provinces = ["guangdong", "beijing", "shanghai"];
        let col = Column::Str((0..3000).map(|i| provinces[i % 3]).collect());
        let (enc, buf) = encode(&col);
        assert_eq!(enc, Encoding::DictStr);
        assert!(buf.len() < 3200, "dict coding must be ~1 byte per row");
        roundtrip(col);
    }

    #[test]
    fn a_dictionary_is_sorted_and_rows_are_its_indexes() {
        let (enc, buf) = encode(&Column::Str(vec!["b", "a", "b", "c", "a", "a"]));
        assert_eq!(enc, Encoding::DictStr);
        assert_eq!(buf, [6, 3, 1, b'a', 1, b'b', 1, b'c', 1, 0, 1, 2, 0, 0]);
    }

    #[test]
    fn unique_strings_choose_plain() {
        let vals: Vec<String> = (0..100).map(|i| format!("user-{i}")).collect();
        let col = Column::Str(vals.iter().map(String::as_str).collect());
        let (enc, _) = encode(&col);
        assert_eq!(enc, Encoding::PlainStr);
        roundtrip(col);
    }

    #[test]
    fn bools_pack_to_one_bit() {
        let vals: Vec<bool> = (0..8000).map(|i| i % 3 == 0).collect();
        let col = Column::Bool(vals);
        let (enc, buf) = encode(&col);
        assert_eq!(enc, Encoding::PackedBool);
        assert!(buf.len() <= 8000 / 8 + 4);
        roundtrip(col);
    }

    #[test]
    fn empty_columns_roundtrip() {
        roundtrip(Column::Int(vec![]));
        roundtrip(Column::Float(vec![]));
        roundtrip(Column::Str(vec![]));
        roundtrip(Column::Bool(vec![]));
    }

    #[test]
    fn incompatible_encoding_dtype_rejected() {
        let (enc, buf) = encode(&Column::Int(vec![1, 2, 3]));
        assert!(decode_column(enc, DataType::Utf8, &buf, 3).is_err());
    }

    #[test]
    fn a_count_other_than_the_row_groups_is_corruption() {
        let cols = [
            Column::Int(vec![5, 9, 1 << 40]),
            Column::Int(vec![1, 2, 3, 4, 5, 6]),
            Column::Float(vec![1.0, 2.0]),
            Column::Str(vec!["a".into(), "bb".into()]),
            Column::Str(vec!["x".into(); 8]),
            Column::Bool(vec![true, false, true]),
        ];
        for col in cols {
            let (enc, buf) = encode(&col);
            let n = col.len();
            assert!(decode_column(enc, col.dtype(), &buf, n).is_ok());
            for rows in [0, n - 1, n + 1, usize::MAX] {
                assert!(
                    matches!(decode_column(enc, col.dtype(), &buf, rows), Err(Error::Corruption(_))),
                    "{enc:?} decoded as {rows} rows"
                );
            }
        }
    }

    #[test]
    fn hostile_counts_fail_before_allocating() {
        // A count that matches the row group but not the bytes: every
        // decoder must refuse it without sizing a buffer from it.
        let huge = u64::MAX >> 8;
        for (enc, dtype) in [
            (Encoding::PlainInt, DataType::Int64),
            (Encoding::DeltaInt, DataType::Int64),
            (Encoding::PlainFloat, DataType::Float64),
            (Encoding::PlainStr, DataType::Utf8),
            (Encoding::DictStr, DataType::Utf8),
            (Encoding::PackedBool, DataType::Bool),
        ] {
            let mut buf = Vec::new();
            varint::encode_u64(huge, &mut buf);
            buf.extend_from_slice(&[1, 0, 0, 0]);
            assert!(decode_column(enc, dtype, &buf, huge as usize).is_err(), "{enc:?}");
        }
        // A dictionary that claims more entries than it has bytes.
        let mut buf = Vec::new();
        varint::encode_u64(1, &mut buf);
        varint::encode_u64(huge, &mut buf);
        assert!(decode_column(Encoding::DictStr, DataType::Utf8, &buf, 1).is_err());
    }

    #[test]
    fn wrapping_delta_handles_extremes() {
        roundtrip(Column::Int(vec![i64::MIN, i64::MAX, 0, -1, 1]));
    }

    proptest! {
        #[test]
        fn int_roundtrip(vals in proptest::collection::vec(any::<i64>(), 0..256)) {
            roundtrip(Column::Int(vals));
        }

        #[test]
        fn float_roundtrip(vals in proptest::collection::vec(any::<f64>(), 0..256)) {
            let col = Column::Float(vals.clone());
            let (enc, buf) = encode(&col);
            let back = decode_column(enc, DataType::Float64, &buf, col.len()).unwrap();
            // NaN-safe comparison via bit patterns
            let back: Vec<u64> = back.iter().map(|v| v.as_float().unwrap().to_bits()).collect();
            let want: Vec<u64> = vals.iter().map(|f| f.to_bits()).collect();
            prop_assert_eq!(back, want);
        }

        #[test]
        fn str_roundtrip(vals in proptest::collection::vec("[a-f]{0,8}", 0..128)) {
            roundtrip(Column::Str(vals.iter().map(String::as_str).collect()));
        }

        #[test]
        fn bool_roundtrip(vals in proptest::collection::vec(any::<bool>(), 0..512)) {
            roundtrip(Column::Bool(vals));
        }
    }
}
