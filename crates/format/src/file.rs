//! The lake file: row groups of compressed column chunks plus a
//! statistics-bearing footer.
//!
//! Layout (all offsets from the start of the file):
//!
//! ```text
//! "SLKF1"                                  magic header
//! column chunks, row group by row group    (encoded + optionally compressed)
//! footer:  schema, row-group directory     (offsets, lengths, encodings,
//!                                           per-column min/max stats)
//! footer_len: u32 LE
//! footer_crc: u32 LE                       CRC32 of the footer bytes
//! "SLKF1"                                  magic trailer
//! ```
//!
//! Readers locate the footer from the trailer, verify its CRC, and then can
//! read any projection of any row group independently — including skipping
//! whole row groups whose statistics refute a pushdown predicate.
//!
//! The scan is columnar ([`LakeFileReader::scan_batches`]): per row group
//! it decodes the columns the predicate names, evaluates the predicate
//! over them into a selection, and decodes the projection only for a group
//! with a selected row. [`LakeFileReader::scan`] builds rows from those
//! batches for callers that want rows.

use crate::batch::{Batch, BatchColumn, Selection};
use crate::column::rows_to_columns;
use crate::compress::{self, Compressor};
use crate::encoding::{decode_chunk, encode_column, Encoding};
use crate::predicate::Expr;
use crate::schema::Schema;
use crate::stats::ColumnStats;
use crate::value::Row;
use common::checksum::crc32;
use common::varint::{self, Reader};
use common::{Bytes, Error, Result};

const MAGIC: &[u8; 5] = b"SLKF1";

/// Location and coding of one column chunk within the file.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChunkMeta {
    offset: u64,
    len: u64,
    encoding: Encoding,
    compressed: bool,
}

/// Directory entry for one row group.
#[derive(Debug, Clone, PartialEq)]
pub struct RowGroupMeta {
    /// Rows in this group.
    pub n_rows: u64,
    chunks: Vec<ChunkMeta>,
    /// Per-column statistics, in schema order.
    pub stats: Vec<ColumnStats>,
}

/// Writes rows into the lake file format.
#[derive(Debug)]
pub struct LakeFileWriter {
    schema: Schema,
    rows_per_group: usize,
}

impl LakeFileWriter {
    /// A writer for `schema` that cuts a row group every `rows_per_group`
    /// rows (the paper's target-file-size knob, expressed in rows).
    pub fn new(schema: Schema, rows_per_group: usize) -> Result<Self> {
        if rows_per_group == 0 {
            return Err(Error::InvalidArgument("rows_per_group must be positive".into()));
        }
        Ok(LakeFileWriter { schema, rows_per_group })
    }

    /// The writer's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Encode `rows` into a complete file image.
    pub fn encode(&self, rows: &[Row]) -> Result<Vec<u8>> {
        self.encode_rows(&rows.iter().collect::<Vec<_>>())
    }

    /// Encode borrowed `rows` into a complete file image. Each chunk is
    /// encoded straight into the image and replaced by its compressed form
    /// only when that is smaller; one [`Compressor`] serves every chunk.
    pub fn encode_rows(&self, rows: &[&Row]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(64 + rows.len() * 16);
        out.extend_from_slice(MAGIC);
        let mut groups: Vec<RowGroupMeta> = Vec::new();
        let mut compressor = Compressor::new();
        let mut packed = Vec::new();
        for group_rows in rows.chunks(self.rows_per_group) {
            let cols = rows_to_columns(&self.schema, group_rows)?;
            let mut chunks = Vec::with_capacity(cols.len());
            let mut stats = Vec::with_capacity(cols.len());
            for col in &cols {
                let offset = out.len();
                let encoding = encode_column(col, &mut out);
                packed.clear();
                compressor.compress_into(&out[offset..], &mut packed);
                let compressed = packed.len() < out.len() - offset;
                if compressed {
                    out.truncate(offset);
                    out.extend_from_slice(&packed);
                }
                chunks.push(ChunkMeta {
                    offset: offset as u64,
                    len: (out.len() - offset) as u64,
                    encoding,
                    compressed,
                });
                // Row groups come from `chunks()` and are never empty, but a
                // stats failure must not take the writer down.
                stats.push(ColumnStats::from_column(col).ok_or_else(|| {
                    Error::InvalidArgument("empty row group has no statistics".into())
                })?);
            }
            groups.push(RowGroupMeta { n_rows: group_rows.len() as u64, chunks, stats });
        }
        // footer
        let mut footer = Vec::new();
        self.schema.encode(&mut footer);
        varint::encode_u64(groups.len() as u64, &mut footer);
        for g in &groups {
            varint::encode_u64(g.n_rows, &mut footer);
            for (c, s) in g.chunks.iter().zip(&g.stats) {
                varint::encode_u64(c.offset, &mut footer);
                varint::encode_u64(c.len, &mut footer);
                footer.push(c.encoding.tag());
                footer.push(c.compressed as u8);
                s.encode(&mut footer);
            }
        }
        let footer_len = footer.len() as u32;
        let footer_crc = crc32(&footer);
        out.extend_from_slice(&footer);
        out.extend_from_slice(&footer_len.to_le_bytes());
        out.extend_from_slice(&footer_crc.to_le_bytes());
        out.extend_from_slice(MAGIC);
        Ok(out)
    }
}

/// Reads a lake file image.
#[derive(Debug)]
pub struct LakeFileReader {
    schema: Schema,
    groups: Vec<RowGroupMeta>,
    data: Bytes,
}

impl LakeFileReader {
    /// Parse and validate a file image. Accepts any `Into<Bytes>`, so a
    /// caller already holding a [`Bytes`] (e.g. a PLog read) opens the file
    /// without paying a payload copy.
    pub fn open(data: impl Into<Bytes>) -> Result<Self> {
        let data = data.into();
        let n = data.len();
        if n < MAGIC.len() * 2 + 8 || &data[..MAGIC.len()] != MAGIC || &data[n - MAGIC.len()..] != MAGIC
        {
            return Err(Error::Corruption("bad lake file magic".into()));
        }
        let tail = n - MAGIC.len();
        let mut trailer = Reader::new(&data[tail - 8..tail], "lake file trailer");
        let footer_len = trailer.u32_le()? as usize;
        let footer_crc = trailer.u32_le()?;
        let footer = tail
            .checked_sub(8 + footer_len)
            .map(|start| &data[start..tail - 8])
            .ok_or_else(|| Error::Corruption("footer length exceeds file".into()))?;
        if crc32(footer) != footer_crc {
            return Err(Error::Corruption("footer crc mismatch".into()));
        }
        let mut r = Reader::new(footer, "lake file footer");
        let schema = Schema::decode(&mut r)?;
        let width = schema.width();
        let group_count = r.count(1)?;
        let mut groups = Vec::with_capacity(group_count);
        for _ in 0..group_count {
            let n_rows = r.u64()?;
            let mut chunks = Vec::with_capacity(width);
            let mut stats = Vec::with_capacity(width);
            for _ in 0..width {
                chunks.push(ChunkMeta {
                    offset: r.u64()?,
                    len: r.u64()?,
                    encoding: Encoding::from_tag(r.u8()?)?,
                    compressed: r.u8()? != 0,
                });
                stats.push(ColumnStats::decode(&mut r)?);
            }
            groups.push(RowGroupMeta { n_rows, chunks, stats });
        }
        r.finish()?;
        Ok(LakeFileReader { schema, groups, data })
    }

    /// The file's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row-group directory (for external scan planners).
    pub fn row_groups(&self) -> &[RowGroupMeta] {
        &self.groups
    }

    /// Total rows across all row groups.
    pub fn total_rows(&self) -> u64 {
        self.groups.iter().map(|g| g.n_rows).sum()
    }

    /// Merged per-column statistics across all row groups (file-level stats
    /// recorded in commit metadata). `None` for an empty file.
    pub fn file_stats(&self) -> Option<Vec<ColumnStats>> {
        let mut iter = self.groups.iter();
        let first = iter.next()?;
        let mut acc = first.stats.clone();
        for g in iter {
            for (a, s) in acc.iter_mut().zip(&g.stats) {
                *a = a.merge(s);
            }
        }
        Some(acc)
    }

    /// Number of row groups whose statistics refute `expr` (skippable).
    pub fn skippable_groups(&self, expr: &Expr) -> usize {
        self.groups
            .iter()
            .filter(|g| !self.group_may_match(g, expr))
            .count()
    }

    /// The columnar scan: for every row group the statistics do not refute
    /// and `expr` selects a row of, hand `visit` a [`Batch`] of the
    /// `projection` columns (column indices in schema order; every column
    /// when `None`) and the selected rows. Only the columns `expr` needs
    /// are decoded before the selection is known.
    pub fn scan_batches(
        &self,
        expr: &Expr,
        projection: Option<&[usize]>,
        mut visit: impl FnMut(Batch) -> Result<()>,
    ) -> Result<()> {
        let width = self.schema.width();
        let all: Vec<usize>;
        let projection = match projection {
            Some(p) => p,
            None => {
                all = (0..width).collect();
                &all
            }
        };
        if let Some(&bad) = projection.iter().find(|&&i| i >= width) {
            return Err(Error::InvalidArgument(format!("column index {bad}")));
        }
        if width == 0 {
            return Ok(()); // no column to hold a row
        }
        // The first column the scan needs proves each group's row count
        // before a selection is sized from it.
        let anchor = expr
            .predicates()
            .iter()
            .find_map(|p| self.schema.index_of(&p.column).ok())
            .or(projection.first().copied())
            .unwrap_or(0);
        for (gi, g) in self.groups.iter().enumerate() {
            if g.n_rows == 0 || !self.group_may_match(g, expr) {
                continue;
            }
            let mut cols = GroupColumns { reader: self, group: g, decoded: vec![None; width] };
            let rows = cols.column(anchor)?.len();
            let selection = expr.select(&Selection::all(rows), &mut cols)?;
            if selection.is_empty() {
                continue;
            }
            let mut columns = Vec::with_capacity(projection.len());
            for (k, &ci) in projection.iter().enumerate() {
                cols.column(ci)?;
                // The last use of a column takes it; earlier ones copy.
                let slot = &mut cols.decoded[ci];
                let col = if projection[k + 1..].contains(&ci) { slot.clone() } else { slot.take() };
                columns.extend(col);
            }
            visit(Batch { group: gi, columns, selection })?;
        }
        Ok(())
    }

    /// Scan the file with predicate pushdown and projection, skipping row
    /// groups by statistics. Returns matching rows restricted to
    /// `projection` (or full rows when `None`): the row-building edge of
    /// [`LakeFileReader::scan_batches`].
    pub fn scan(&self, expr: &Expr, projection: Option<&[usize]>) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        self.scan_batches(expr, projection, |b| {
            b.push_rows(&mut out);
            Ok(())
        })?;
        Ok(out)
    }

    /// Decode column `ci` of row group `group`, which must hold exactly the
    /// group's row count.
    fn decode(&self, group: &RowGroupMeta, ci: usize) -> Result<BatchColumn> {
        let chunk = group
            .chunks
            .get(ci)
            .ok_or_else(|| Error::InvalidArgument(format!("column index {ci}")))?;
        let raw = usize::try_from(chunk.offset)
            .ok()
            .zip(usize::try_from(chunk.len).ok())
            .and_then(|(off, len)| self.data.as_slice().get(off..off.checked_add(len)?))
            .ok_or_else(|| Error::Corruption("chunk beyond file".into()))?;
        let rows = usize::try_from(group.n_rows)
            .map_err(|_| Error::Corruption("row group too large".into()))?;
        // Uncompressed chunks decode straight out of the shared buffer;
        // only compressed chunks materialize an intermediate allocation.
        let decompressed;
        let encoded: &[u8] = if chunk.compressed {
            decompressed = compress::decompress(raw)?;
            &decompressed
        } else {
            raw
        };
        decode_chunk(chunk.encoding, self.schema.field(ci).dtype, encoded, rows)
    }

    fn group_may_match(&self, g: &RowGroupMeta, expr: &Expr) -> bool {
        expr.may_match(&|name: &str| {
            self.schema
                .index_of(name)
                .ok()
                .and_then(|i| g.stats.get(i))
        })
    }
}

/// One row group's columns, each decoded on first use.
pub(crate) struct GroupColumns<'r> {
    reader: &'r LakeFileReader,
    group: &'r RowGroupMeta,
    decoded: Vec<Option<BatchColumn>>,
}

impl GroupColumns<'_> {
    /// Column `ci` in schema order.
    fn column(&mut self, ci: usize) -> Result<&BatchColumn> {
        match self.decoded.get_mut(ci) {
            Some(Some(col)) => Ok(col),
            Some(slot) => Ok(slot.insert(self.reader.decode(self.group, ci)?)),
            None => Err(Error::InvalidArgument(format!("column index {ci}"))),
        }
    }

    /// The column named `name`; an unknown name is the schema's error.
    pub(crate) fn named(&mut self, name: &str) -> Result<&BatchColumn> {
        let ci = self.reader.schema.index_of(name)?;
        self.column(ci)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Predicate};
    use crate::schema::{DataType, Field};
    use crate::value::Value;
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("ts", DataType::Int64),
            Field::new("province", DataType::Utf8),
            Field::new("bytes", DataType::Float64),
        ])
        .unwrap()
    }

    fn sample_rows(n: usize) -> Vec<Row> {
        let provinces = ["beijing", "guangdong", "shanghai", "sichuan"];
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(1_656_806_400 + i as i64),
                    Value::from(provinces[i % provinces.len()]),
                    Value::Float(i as f64 * 1.5),
                ]
            })
            .collect()
    }

    #[test]
    fn write_read_roundtrip() {
        let rows = sample_rows(1000);
        let w = LakeFileWriter::new(schema(), 256).unwrap();
        let bytes = w.encode(&rows).unwrap();
        let r = LakeFileReader::open(bytes).unwrap();
        assert_eq!(r.total_rows(), 1000);
        assert_eq!(r.row_groups().len(), 4); // 256*3 + 232
        let back = r.scan(&Expr::True, None).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn projection_reads_only_requested_columns() {
        let rows = sample_rows(100);
        let w = LakeFileWriter::new(schema(), 50).unwrap();
        let r = LakeFileReader::open(w.encode(&rows).unwrap()).unwrap();
        let mut batches = Vec::new();
        r.scan_batches(&Expr::True, Some(&[1]), |b| {
            batches.push(b);
            Ok(())
        })
        .unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].columns.len(), 1);
        assert!(batches[0].columns[0].str_at(0).is_some());
        let projected = r.scan(&Expr::True, Some(&[2, 0])).unwrap();
        assert_eq!(projected[0].len(), 2);
        assert_eq!(projected[0][1], rows[0][0]);
    }

    #[test]
    fn stats_skip_row_groups_outside_time_range() {
        // Timestamps are sorted, so a tight WHERE range must skip most groups
        // — the data-skipping behaviour Fig 13's DAU query relies on.
        let rows = sample_rows(1000);
        let w = LakeFileWriter::new(schema(), 100).unwrap();
        let r = LakeFileReader::open(w.encode(&rows).unwrap()).unwrap();
        let expr = Expr::all(vec![
            Predicate::cmp("ts", CmpOp::Ge, 1_656_806_400i64 + 500),
            Predicate::cmp("ts", CmpOp::Lt, 1_656_806_400i64 + 600),
        ]);
        assert_eq!(r.skippable_groups(&expr), 9, "9 of 10 groups must be skipped");
        let hits = r.scan(&expr, None).unwrap();
        assert_eq!(hits.len(), 100);
    }

    #[test]
    fn empty_file_roundtrips() {
        let w = LakeFileWriter::new(schema(), 10).unwrap();
        let r = LakeFileReader::open(w.encode(&[]).unwrap()).unwrap();
        assert_eq!(r.total_rows(), 0);
        assert!(r.file_stats().is_none());
        assert!(r.scan(&Expr::True, None).unwrap().is_empty());
    }

    #[test]
    fn file_stats_merge_groups() {
        let rows = sample_rows(100);
        let w = LakeFileWriter::new(schema(), 10).unwrap();
        let r = LakeFileReader::open(w.encode(&rows).unwrap()).unwrap();
        let stats = r.file_stats().unwrap();
        assert_eq!(stats[0].min, Value::Int(1_656_806_400));
        assert_eq!(stats[0].max, Value::Int(1_656_806_400 + 99));
        assert_eq!(stats[0].row_count, 100);
    }

    #[test]
    fn corrupt_magic_and_footer_rejected() {
        let rows = sample_rows(10);
        let w = LakeFileWriter::new(schema(), 10).unwrap();
        let good = w.encode(&rows).unwrap();
        // bad head magic
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(LakeFileReader::open(bad).is_err());
        // footer bit flip
        let mut bad = good.clone();
        let idx = good.len() - 20;
        bad[idx] ^= 0xFF;
        assert!(LakeFileReader::open(bad).is_err());
        // truncation never panics
        for cut in 0..good.len().min(64) {
            let _ = LakeFileReader::open(good[..cut].to_vec());
        }
    }

    #[test]
    fn columnar_beats_row_storage_on_log_data() {
        // EC+Col-store in Fig 14(d) assumes columnar re-encoding shrinks log
        // data; check the whole-file footprint against naive row storage.
        let rows = sample_rows(5000);
        let row_size: usize = rows
            .iter()
            .map(|r| {
                let mut buf = Vec::new();
                for v in r {
                    v.encode(&mut buf);
                }
                buf.len()
            })
            .sum();
        let w = LakeFileWriter::new(schema(), 1024).unwrap();
        let bytes = w.encode(&rows).unwrap();
        assert!(
            bytes.len() * 2 < row_size,
            "columnar file {} must be <0.5x row encoding {}",
            bytes.len(),
            row_size
        );
    }

    #[test]
    fn opening_and_scanning_a_bytes_image_pays_no_payload_copies() {
        // A reader handed an existing `Bytes` (the PLog read path) must not
        // re-materialize the image, and uncompressed chunks must decode
        // straight out of the shared buffer.
        let rows = sample_rows(512);
        let w = LakeFileWriter::new(schema(), 128).unwrap();
        let image = Bytes::from_vec(w.encode(&rows).unwrap());
        let before = common::bytes::payload_copies();
        let r = LakeFileReader::open(image).unwrap();
        let back = r.scan(&Expr::True, None).unwrap();
        assert_eq!(back.len(), 512);
        assert_eq!(
            common::bytes::payload_copies(),
            before,
            "opening from Bytes and scanning must not copy the file payload"
        );
    }

    #[test]
    fn scan_with_string_predicate() {
        let rows = sample_rows(200);
        let w = LakeFileWriter::new(schema(), 64).unwrap();
        let r = LakeFileReader::open(w.encode(&rows).unwrap()).unwrap();
        let expr = Expr::Pred(Predicate::cmp("province", CmpOp::Eq, "beijing"));
        let hits = r.scan(&expr, None).unwrap();
        assert_eq!(hits.len(), 50);
        assert!(hits.iter().all(|r| r[1] == Value::from("beijing")));
    }

    #[test]
    fn a_chunk_count_other_than_the_groups_is_an_error_never_short_rows() {
        let rows = sample_rows(8);
        let good = LakeFileWriter::new(schema(), 8).unwrap().encode(&rows).unwrap();
        let r = LakeFileReader::open(good.clone()).unwrap();
        let preds = [
            Expr::True,
            Expr::Pred(Predicate::cmp("province", CmpOp::Ne, "nowhere")),
            Expr::Pred(Predicate::cmp("bytes", CmpOp::Ge, 0.0)),
        ];
        for chunk in &r.row_groups()[0].chunks {
            // Every single-byte count (or compressed length) but the true one.
            for b in (0u8..0x80).filter(|&b| b != good[chunk.offset as usize]) {
                let mut bad = good.clone();
                bad[chunk.offset as usize] = b;
                let r = LakeFileReader::open(bad).unwrap();
                assert!(r.scan(&Expr::True, None).is_err(), "byte {b} at {}", chunk.offset);
                for p in &preds {
                    if let Ok(got) = r.scan(p, None) {
                        panic!("byte {b} at {}: {} rows from a corrupt chunk", chunk.offset, got.len());
                    }
                }
            }
        }
    }

    /// The columnar scan against the row-at-a-time reference: the same
    /// groups skipped by statistics, then `Expr::eval_row` on every row of
    /// every other group, erroring on the first row whose evaluation does.
    fn reference_scan(r: &LakeFileReader, expr: &Expr, proj: Option<&[usize]>) -> Result<Vec<Row>> {
        let all = r.scan(&Expr::True, None).unwrap();
        let mut rows = all.iter();
        let mut out = Vec::new();
        for g in r.row_groups() {
            let group: Vec<&Row> = rows.by_ref().take(g.n_rows as usize).collect();
            if !expr.may_match(&|n: &str| r.schema().index_of(n).ok().and_then(|i| g.stats.get(i))) {
                continue;
            }
            for row in group {
                if expr.eval_row(r.schema(), row)? {
                    out.push(match proj {
                        Some(p) => p.iter().map(|&i| row[i].clone()).collect(),
                        None => row.clone(),
                    });
                }
            }
        }
        Ok(out)
    }

    /// A splitmix64 stream, so one sampled seed drives a whole tree.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    const FLOATS: [f64; 5] = [-1.5, -0.0, 0.0, 2.0, f64::INFINITY];
    const WORDS: [&str; 5] = ["", "a", "ab", "b", "ca"];

    fn any_value(m: &mut Mix) -> Value {
        match m.below(4) {
            0 => Value::Int(m.below(9) as i64 - 4),
            1 => Value::Float(FLOATS[m.below(5) as usize]),
            2 => Value::from(WORDS[m.below(5) as usize]),
            _ => Value::Bool(m.below(2) == 0),
        }
    }

    /// A column's typed value most of the time, another type otherwise.
    fn literal(m: &mut Mix, column: &str) -> Value {
        match (column, m.below(5)) {
            (_, 0) | ("missing", _) => any_value(m),
            ("i", _) => Value::Int(m.below(9) as i64 - 4),
            ("f", _) => Value::Float(FLOATS[m.below(5) as usize]),
            ("d" | "p", _) => Value::from(WORDS[m.below(5) as usize]),
            _ => Value::Bool(m.below(2) == 0),
        }
    }

    fn any_expr(m: &mut Mix, depth: u32) -> Expr {
        const OPS: [CmpOp; 8] =
            [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne, CmpOp::In, CmpOp::NotIn];
        match m.below(if depth == 0 { 2 } else { 5 }) {
            0 if m.below(4) == 0 => Expr::True,
            0 | 1 | 2 => {
                let column = ["i", "f", "d", "p", "b", "i", "d", "missing"][m.below(8) as usize];
                let op = OPS[m.below(8) as usize];
                let n = match op {
                    CmpOp::In | CmpOp::NotIn => m.below(4),
                    _ => 1,
                };
                let literals = (0..n).map(|_| literal(m, column)).collect();
                Expr::Pred(Predicate { column: column.into(), op, literals })
            }
            3 => Expr::And(Box::new(any_expr(m, depth - 1)), Box::new(any_expr(m, depth - 1))),
            _ => Expr::Or(Box::new(any_expr(m, depth - 1)), Box::new(any_expr(m, depth - 1))),
        }
    }

    fn check_against_reference(seed: u64, n: usize, group: usize) {
        let mut m = Mix(seed);
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("d", DataType::Utf8),
            Field::new("p", DataType::Utf8),
            Field::new("b", DataType::Bool),
        ])
        .unwrap();
        // `d` has three values (dictionary chunks), `p` mostly unique
        // values (plain chunks) sharing the literal pool's words.
        let rows: Vec<Row> = (0..n)
            .map(|i| vec![
                Value::Int(m.below(9) as i64 - 4),
                Value::Float(FLOATS[m.below(5) as usize]),
                Value::from(WORDS[1 + m.below(3) as usize]),
                Value::from(if m.below(3) == 0 { WORDS[m.below(5) as usize].to_string() } else { format!("u{i}") }),
                Value::Bool(m.below(2) == 0),
            ])
            .collect();
        let r = LakeFileReader::open(LakeFileWriter::new(schema, group).unwrap().encode(&rows).unwrap()).unwrap();
        let expr = any_expr(&mut m, 3);
        let proj: Option<Vec<usize>> = match m.below(3) {
            0 => None,
            _ => Some((0..m.below(4)).map(|_| m.below(5) as usize).collect()),
        };
        let want = reference_scan(&r, &expr, proj.as_deref());
        let got = r.scan(&expr, proj.as_deref());
        assert_eq!(got.is_err(), want.is_err(), "{:?}", expr);
        if let (Ok(got), Ok(want)) = (got, want) {
            assert_eq!(got, want);
        }
        // Each batch's selection is exactly the group's matching rows.
        let all = r.scan(&Expr::True, None).unwrap();
        let starts: Vec<usize> = r.row_groups().iter().scan(0, |s, g| {
            let start = *s;
            *s += g.n_rows as usize;
            Some(start)
        }).collect();
        let visited = r.scan_batches(&expr, proj.as_deref(), |b| {
            let g = &r.row_groups()[b.group];
            for i in 0..g.n_rows as usize {
                let hit = expr.eval_row(r.schema(), &all[starts[b.group] + i]).unwrap_or(false);
                assert_eq!(b.selection.contains(i), hit, "{expr:?} group {} row {i}", b.group);
            }
            assert!(!b.selection.is_empty());
            assert_eq!(b.columns.len(), proj.as_ref().map_or(5, Vec::len));
            Ok(())
        });
        assert_eq!(visited.is_err(), r.scan(&expr, None).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]
        #[test]
        fn batch_scan_matches_the_row_reference(
            seed in any::<u64>(),
            n in 1usize..200,
            group in 1usize..80,
        ) {
            check_against_reference(seed, n, group);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn scan_matches_bruteforce(
            n in 1usize..300,
            group in 1usize..64,
            lo in -100i64..100,
            hi in -100i64..100,
        ) {
            let rows: Vec<Row> = (0..n)
                .map(|i| vec![
                    Value::Int((i as i64 * 37) % 100 - 50),
                    Value::from(["a", "b", "c"][i % 3]),
                    Value::Float(i as f64),
                ])
                .collect();
            let w = LakeFileWriter::new(schema(), group).unwrap();
            let r = LakeFileReader::open(w.encode(&rows).unwrap()).unwrap();
            let expr = Expr::all(vec![
                Predicate::cmp("ts", CmpOp::Ge, lo.min(hi)),
                Predicate::cmp("ts", CmpOp::Lt, lo.max(hi)),
            ]);
            let got = r.scan(&expr, None).unwrap();
            let expected: Vec<Row> = rows
                .into_iter()
                .filter(|row| {
                    let t = row[0].as_int().unwrap();
                    t >= lo.min(hi) && t < lo.max(hi)
                })
                .collect();
            prop_assert_eq!(got, expected);
        }
    }
}
