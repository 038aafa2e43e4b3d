//! The columnar file format for StreamLake table objects.
//!
//! The paper stores table data "in Parquet files … organized as row-groups
//! and stored in a columnar format for efficient analysis. Footers … contain
//! statistics to support data skipping within the file" (§IV-B). This crate
//! implements an equivalent self-describing columnar format from scratch:
//!
//! * [`schema`] — data types, fields, schemas;
//! * [`value`] — dynamically-typed values and rows;
//! * [`mod@column`] — typed column vectors built from rows;
//! * [`batch`] — what a scan yields: a row group's decoded columns
//!   (dictionary chunks kept as codes) plus a selection bitmap;
//! * [`encoding`] — plain, delta-varint, dictionary and bit-packed column
//!   encodings chosen per chunk;
//! * [`compress`] — an LZ77-family byte compressor applied per chunk;
//! * [`stats`] — per-column min/max statistics kept in the footer;
//! * [`predicate`] — a pushdown predicate AST evaluated over whole columns
//!   into a selection, against rows (the reference semantics) *and*
//!   against footer statistics (data skipping);
//! * [`mod@file`] — the writer/reader with row groups, the columnar scan
//!   (late materialization of the projection) and stats-based row-group
//!   skipping.

pub(crate) mod batch;
pub(crate) mod column;
pub mod compress;
pub mod encoding;
pub(crate) mod file;
pub(crate) mod predicate;
pub(crate) mod schema;
pub(crate) mod stats;
pub(crate) mod value;

pub use batch::{Batch, BatchColumn};
pub use column::Column;
pub use file::{LakeFileReader, LakeFileWriter};
pub use predicate::{CmpOp, Expr, Predicate};
pub use schema::{DataType, Field, Schema};
pub use stats::ColumnStats;
pub use value::{Row, Value};
