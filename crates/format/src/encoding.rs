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
use common::varint;
use common::{Error, Result};
use std::collections::BTreeMap;

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

/// Encode a column, choosing the smallest applicable encoding.
pub fn encode_column(col: &Column) -> (Encoding, Vec<u8>) {
    match col {
        Column::Int(vals) => {
            let plain = encode_plain_int(vals);
            let delta = encode_delta_int(vals);
            if delta.len() < plain.len() {
                (Encoding::DeltaInt, delta)
            } else {
                (Encoding::PlainInt, plain)
            }
        }
        Column::Float(vals) => (Encoding::PlainFloat, encode_plain_float(vals)),
        Column::Str(vals) => {
            let distinct: BTreeMap<&str, usize> =
                vals.iter().map(|s| (s.as_str(), 0)).collect();
            if !vals.is_empty() && distinct.len() * 2 <= vals.len() {
                (Encoding::DictStr, encode_dict_str(vals))
            } else {
                (Encoding::PlainStr, encode_plain_str(vals))
            }
        }
        Column::Bool(vals) => (Encoding::PackedBool, encode_packed_bool(vals)),
    }
}

/// Decode a chunk produced by [`encode_column`] that must hold exactly
/// `rows` values, its row group's row count. A chunk whose own count
/// disagrees is corruption; no decoder sizes an allocation from a count
/// before checking that the remaining bytes can hold that many values.
pub fn decode_chunk(enc: Encoding, dtype: DataType, buf: &[u8], rows: usize) -> Result<BatchColumn> {
    let (count, off) = varint::decode_u64(buf)?;
    if count != rows as u64 {
        return Err(Error::Corruption(format!(
            "column chunk holds {count} values, its row group {rows}"
        )));
    }
    let body = &buf[off..];
    match (enc, dtype) {
        (Encoding::PlainInt, DataType::Int64) => {
            Ok(BatchColumn::Int(fixed8(body, rows)?.map(i64::from_le_bytes).collect()))
        }
        (Encoding::DeltaInt, DataType::Int64) => decode_delta_int(body, rows).map(BatchColumn::Int),
        (Encoding::PlainFloat, DataType::Float64) => {
            Ok(BatchColumn::Float(fixed8(body, rows)?.map(f64::from_le_bytes).collect()))
        }
        (Encoding::PlainStr, DataType::Utf8) => {
            let mut off = 0;
            decode_strs(body, &mut off, rows as u64).map(BatchColumn::Str)
        }
        (Encoding::DictStr, DataType::Utf8) => decode_dict_str(body, rows),
        (Encoding::PackedBool, DataType::Bool) => {
            let bytes = take(body, &mut 0, rows.div_ceil(8))?;
            Ok(BatchColumn::Bool((0..rows).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect()))
        }
        (enc, dtype) => Err(Error::Corruption(format!(
            "encoding {enc:?} incompatible with column type {dtype:?}"
        ))),
    }
}

/// The next `len` bytes of `buf` at `*off`, advancing `off`.
fn take<'a>(buf: &'a [u8], off: &mut usize, len: usize) -> Result<&'a [u8]> {
    let bytes = off
        .checked_add(len)
        .and_then(|end| buf.get(*off..end))
        .ok_or_else(|| Error::Corruption("column chunk truncated".into()))?;
    *off += len;
    Ok(bytes)
}

/// Fail unless `buf[off..]` has room for `n` values of at least one byte.
fn room_for(buf: &[u8], off: usize, n: u64) -> Result<usize> {
    if n > buf.len().saturating_sub(off) as u64 {
        return Err(Error::Corruption(format!("column chunk too short for {n} values")));
    }
    Ok(n as usize)
}

/// `rows` little-endian 8-byte words from the front of `body`.
fn fixed8(body: &[u8], rows: usize) -> Result<impl Iterator<Item = [u8; 8]> + '_> {
    let bytes = take(body, &mut 0, rows.checked_mul(8).unwrap_or(usize::MAX))?;
    Ok(bytes.chunks_exact(8).map(|c| {
        let mut w = [0u8; 8];
        w.copy_from_slice(c);
        w
    }))
}

/// `n` length-prefixed strings from `buf` at `*off`.
fn decode_strs(buf: &[u8], off: &mut usize, n: u64) -> Result<Strs> {
    let n = room_for(buf, *off, n)?;
    let mut bytes = Vec::with_capacity(buf.len() - *off);
    let mut ends = Vec::with_capacity(n);
    for _ in 0..n {
        let (len, used) = varint::decode_u64(&buf[*off..])?;
        *off += used;
        bytes.extend_from_slice(take(buf, off, usize::try_from(len).unwrap_or(usize::MAX))?);
        ends.push(bytes.len());
    }
    Strs::new(bytes, ends)
}

fn encode_plain_int(vals: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * vals.len() + 4);
    varint::encode_u64(vals.len() as u64, &mut out);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn encode_delta_int(vals: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * vals.len() + 4);
    varint::encode_u64(vals.len() as u64, &mut out);
    let mut prev = 0i64;
    for &v in vals {
        varint::encode_i64(v.wrapping_sub(prev), &mut out);
        prev = v;
    }
    out
}

fn decode_delta_int(body: &[u8], rows: usize) -> Result<Vec<i64>> {
    let mut out = Vec::with_capacity(room_for(body, 0, rows as u64)?);
    let (mut off, mut prev) = (0, 0i64);
    for _ in 0..rows {
        let (d, n) = varint::decode_i64(&body[off..])?;
        off += n;
        prev = prev.wrapping_add(d);
        out.push(prev);
    }
    Ok(out)
}

fn encode_plain_float(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * vals.len() + 4);
    varint::encode_u64(vals.len() as u64, &mut out);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn encode_plain_str(vals: &[String]) -> Vec<u8> {
    let total: usize = vals.iter().map(|s| s.len() + 2).sum();
    let mut out = Vec::with_capacity(total + 4);
    varint::encode_u64(vals.len() as u64, &mut out);
    for s in vals {
        varint::encode_u64(s.len() as u64, &mut out);
        out.extend_from_slice(s.as_bytes());
    }
    out
}

fn encode_dict_str(vals: &[String]) -> Vec<u8> {
    let mut dict: Vec<&str> = {
        let mut uniq: Vec<&str> = vals.iter().map(|s| s.as_str()).collect();
        uniq.sort_unstable();
        uniq.dedup();
        uniq
    };
    dict.sort_unstable();
    let index: BTreeMap<&str, u64> =
        dict.iter().enumerate().map(|(i, s)| (*s, i as u64)).collect();
    let mut out = Vec::new();
    varint::encode_u64(vals.len() as u64, &mut out);
    varint::encode_u64(dict.len() as u64, &mut out);
    for s in &dict {
        varint::encode_u64(s.len() as u64, &mut out);
        out.extend_from_slice(s.as_bytes());
    }
    for s in vals {
        varint::encode_u64(index[s.as_str()], &mut out);
    }
    out
}

fn decode_dict_str(body: &[u8], rows: usize) -> Result<BatchColumn> {
    let (dict_len, mut off) = varint::decode_u64(body)?;
    let dict = decode_strs(body, &mut off, dict_len)?;
    let mut codes = Vec::with_capacity(room_for(body, off, rows as u64)?);
    for _ in 0..rows {
        let (code, n) = varint::decode_u64(&body[off..])?;
        off += n;
        if code >= dict_len {
            return Err(Error::Corruption(format!("dictionary index {code} out of range")));
        }
        codes.push(u32::try_from(code).map_err(|_| Error::Corruption("dictionary too large".into()))?);
    }
    Ok(BatchColumn::Dict(dict, codes))
}

fn encode_packed_bool(vals: &[bool]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() / 8 + 5);
    varint::encode_u64(vals.len() as u64, &mut out);
    let mut byte = 0u8;
    for (i, &b) in vals.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !vals.len().is_multiple_of(8) {
        out.push(byte);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn decode_column(enc: Encoding, dtype: DataType, buf: &[u8], rows: usize) -> Result<Column> {
        Ok(match decode_chunk(enc, dtype, buf, rows)? {
            BatchColumn::Int(v) => Column::Int(v),
            BatchColumn::Float(v) => Column::Float(v),
            BatchColumn::Bool(v) => Column::Bool(v),
            c @ (BatchColumn::Str(_) | BatchColumn::Dict(..)) => {
                Column::Str((0..c.len()).map(|i| c.str_at(i).unwrap().to_string()).collect())
            }
        })
    }

    fn roundtrip(col: Column) {
        let (enc, buf) = encode_column(&col);
        let back = decode_column(enc, col.dtype(), &buf, col.len()).unwrap();
        assert_eq!(back, col);
    }

    #[test]
    fn sorted_ints_choose_delta_and_shrink() {
        let vals: Vec<i64> = (0..10_000).map(|i| 1_656_806_400 + i).collect();
        let col = Column::Int(vals);
        let (enc, buf) = encode_column(&col);
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
        let (enc, _) = encode_column(&col);
        assert_eq!(enc, Encoding::PlainInt);
        roundtrip(col);
    }

    #[test]
    fn low_cardinality_strings_choose_dictionary() {
        let provinces = ["guangdong", "beijing", "shanghai"];
        let vals: Vec<String> = (0..3000).map(|i| provinces[i % 3].to_string()).collect();
        let col = Column::Str(vals);
        let (enc, buf) = encode_column(&col);
        assert_eq!(enc, Encoding::DictStr);
        assert!(buf.len() < 3200, "dict coding must be ~1 byte per row");
        roundtrip(col);
    }

    #[test]
    fn unique_strings_choose_plain() {
        let vals: Vec<String> = (0..100).map(|i| format!("user-{i}")).collect();
        let col = Column::Str(vals);
        let (enc, _) = encode_column(&col);
        assert_eq!(enc, Encoding::PlainStr);
        roundtrip(col);
    }

    #[test]
    fn bools_pack_to_one_bit() {
        let vals: Vec<bool> = (0..8000).map(|i| i % 3 == 0).collect();
        let col = Column::Bool(vals);
        let (enc, buf) = encode_column(&col);
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
        let (enc, buf) = encode_column(&Column::Int(vec![1, 2, 3]));
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
            let (enc, buf) = encode_column(&col);
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
            let col = Column::Float(vals);
            let (enc, buf) = encode_column(&col);
            let back = decode_column(enc, DataType::Float64, &buf, col.len()).unwrap();
            // NaN-safe comparison via bit patterns
            if let (Column::Float(a), Column::Float(b)) = (&col, &back) {
                let a: Vec<u64> = a.iter().map(|f| f.to_bits()).collect();
                let b: Vec<u64> = b.iter().map(|f| f.to_bits()).collect();
                prop_assert_eq!(a, b);
            } else {
                unreachable!();
            }
        }

        #[test]
        fn str_roundtrip(vals in proptest::collection::vec("[a-f]{0,8}", 0..128)) {
            roundtrip(Column::Str(vals));
        }

        #[test]
        fn bool_roundtrip(vals in proptest::collection::vec(any::<bool>(), 0..512)) {
            roundtrip(Column::Bool(vals));
        }
    }
}
