//! Column batches: what a scan hands out.
//!
//! A [`Batch`] is one row group's projected columns plus a [`Selection`],
//! a bitmap of the rows the scan predicate accepted. The scan evaluates a
//! predicate over whole columns into a selection
//! ([`Expr::select`](crate::predicate::Expr::select)), decodes the
//! projection only for groups with a selected row, and keeps dictionary
//! chunks dictionary-coded ([`BatchColumn::Dict`]): a predicate tests each
//! dictionary entry once, and an aggregation can key on the codes. Rows
//! are built only at the API edge ([`Batch::push_rows`]).

use crate::value::{Row, Value};
use common::{Error, Result};

/// The set of selected rows of a row group, one bit per row in `u64`
/// words. Bits past the group's last row are always clear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    words: Vec<u64>,
}

impl Selection {
    /// Every one of `rows` rows selected.
    pub fn all(rows: usize) -> Self {
        let mut words = vec![!0u64; rows.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            if rows % 64 != 0 {
                *last = (1u64 << (rows % 64)) - 1;
            }
        }
        Selection { words }
    }

    /// Whether no row is selected.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether row `i` is selected.
    pub fn contains(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Indexes of the selected rows, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| Ones(bits).map(move |b| w * 64 + b))
    }

    /// The selected rows for which `keep` holds. `keep` is called once per
    /// selected row, never for an unselected one.
    pub(crate) fn filter(&self, mut keep: impl FnMut(usize) -> bool) -> Selection {
        let words = self
            .words
            .iter()
            .enumerate()
            .map(|(w, &bits)| {
                Ones(bits)
                    .filter(|&b| keep(w * 64 + b))
                    .fold(0u64, |acc, b| acc | 1 << b)
            })
            .collect();
        Selection { words }
    }

    /// Rows selected here and not in `other`.
    pub(crate) fn and_not(&self, other: &Selection) -> Selection {
        let words = self.words.iter().zip(&other.words).map(|(a, b)| a & !b).collect();
        Selection { words }
    }

    /// Rows selected here or in `other`.
    pub(crate) fn or(mut self, other: &Selection) -> Selection {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        self
    }
}

/// The set bit positions of one word, lowest first.
struct Ones(u64);

impl Iterator for Ones {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// A run of strings stored end to end in one buffer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Strs {
    text: String,
    /// End offset in `text` of each string.
    ends: Vec<usize>,
}

impl Strs {
    /// Validate `bytes` split at `ends` as UTF-8 strings, each on its own.
    pub(crate) fn new(bytes: Vec<u8>, ends: Vec<usize>) -> Result<Strs> {
        let text = String::from_utf8(bytes)
            .map_err(|_| Error::Corruption("string chunk not utf-8".into()))?;
        // A whole that is valid UTF-8 splits into valid strings exactly when
        // every split falls on a character boundary.
        if !ends.iter().all(|&e| text.is_char_boundary(e)) {
            return Err(Error::Corruption("string chunk not utf-8".into()));
        }
        Ok(Strs { text, ends })
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The `i`-th string.
    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Every string, in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// One decoded column chunk of a batch: a value per row of its row group.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchColumn {
    /// Integers.
    Int(Vec<i64>),
    /// Floats.
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Plain strings.
    Str(Strs),
    /// Dictionary-coded strings: row `i` is `dict.get(codes[i])`. Every
    /// code is in range.
    Dict(Strs, Vec<u32>),
}

impl BatchColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            BatchColumn::Int(v) => v.len(),
            BatchColumn::Float(v) => v.len(),
            BatchColumn::Bool(v) => v.len(),
            BatchColumn::Str(s) => s.len(),
            BatchColumn::Dict(_, codes) => codes.len(),
        }
    }

    /// The string at row `i` of a string column.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match self {
            BatchColumn::Str(s) => Some(s.get(i)),
            BatchColumn::Dict(dict, codes) => Some(dict.get(codes[i] as usize)),
            _ => None,
        }
    }

    /// The value at row `i`.
    pub fn value(&self, i: usize) -> Value {
        match self {
            BatchColumn::Int(v) => Value::Int(v[i]),
            BatchColumn::Float(v) => Value::Float(v[i]),
            BatchColumn::Bool(v) => Value::Bool(v[i]),
            BatchColumn::Str(_) | BatchColumn::Dict(..) => {
                Value::Str(self.str_at(i).unwrap_or_default().to_string())
            }
        }
    }

    /// Bytes [`Value::encode`] would write for row `i`, without building
    /// the value.
    pub fn encoded_len(&self, i: usize) -> usize {
        match self {
            BatchColumn::Int(v) => 1 + varint_len(common::varint::zigzag(v[i])),
            BatchColumn::Float(_) => 9,
            BatchColumn::Bool(_) => 2,
            BatchColumn::Str(_) | BatchColumn::Dict(..) => {
                let n = self.str_at(i).map_or(0, str::len);
                1 + varint_len(n as u64) + n
            }
        }
    }
}

/// Length of the LEB128 varint encoding of `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// One row group's projected columns and the rows the predicate selected.
/// A scan never yields a batch with an empty selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Index of the row group in its file.
    pub group: usize,
    /// The projected columns, in projection order; each has a value for
    /// every row of the group.
    pub columns: Vec<BatchColumn>,
    /// The selected rows.
    pub selection: Selection,
}

impl Batch {
    /// Row `i` of the group, projected.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Append the selected rows, projected, to `out`.
    pub fn push_rows(&self, out: &mut Vec<Row>) {
        out.extend(self.selection.iter().map(|i| self.row(i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_clears_the_tail_bits() {
        for rows in [0, 1, 63, 64, 65, 130] {
            let s = Selection::all(rows);
            assert_eq!(s.iter().count(), rows);
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..rows).collect::<Vec<_>>());
            assert!(!s.contains(rows));
        }
    }

    #[test]
    fn split_strings_reject_a_boundary_inside_a_character() {
        let bytes = "aé".as_bytes().to_vec(); // 'é' is two bytes
        assert!(Strs::new(bytes.clone(), vec![1, 3]).is_ok());
        assert!(Strs::new(bytes, vec![2, 3]).is_err());
    }

    #[test]
    fn encoded_len_matches_value_encode() {
        let cols = [
            BatchColumn::Int(vec![0, -1, 63, 64, -65, i64::MIN, i64::MAX]),
            BatchColumn::Float(vec![1.5]),
            BatchColumn::Bool(vec![true]),
            BatchColumn::Str(Strs::new(vec![b'x'; 200], vec![0, 5, 200]).unwrap()),
        ];
        for c in &cols {
            for i in 0..c.len() {
                let mut buf = Vec::new();
                c.value(i).encode(&mut buf);
                assert_eq!(c.encoded_len(i), buf.len(), "{c:?} row {i}");
            }
        }
    }

    proptest! {
        #[test]
        fn filter_and_set_ops_match_a_bool_vector(
            bits in proptest::collection::vec(any::<bool>(), 0..200),
            keep in proptest::collection::vec(any::<bool>(), 200..201),
        ) {
            let n = bits.len();
            let a = Selection::all(n).filter(|i| bits[i]);
            prop_assert_eq!(a.iter().count(), bits.iter().filter(|&&b| b).count());
            let b = Selection::all(n).filter(|i| keep[i]);
            let minus = a.and_not(&b);
            let union = a.clone().or(&b);
            for i in 0..n {
                prop_assert_eq!(a.contains(i), bits[i]);
                prop_assert_eq!(minus.contains(i), bits[i] && !keep[i]);
                prop_assert_eq!(union.contains(i), bits[i] || keep[i]);
            }
            prop_assert_eq!(a.is_empty(), !bits.contains(&true));
        }
    }
}
