//! TPC-H `lineitem` generation (§VII-E's test bed).
//!
//! Value distributions follow the TPC-H specification closely enough for
//! layout experiments: quantities uniform in 1..=50, discounts in
//! 0.00..=0.10, dates uniform over the 1992-01-01..1998-12-01 shipping
//! window, flags/status/modes from their categorical domains. Dates are
//! epoch *days* in an `Int64` column, which is what the partitioning
//! experiments bucket on.

use format::{DataType, Field, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Epoch-day of 1992-01-02 (start of the TPC-H shipdate window).
pub(crate) const SHIPDATE_MIN: i64 = 8036;
/// Epoch-day of 1998-12-01 (end of the TPC-H shipdate window).
pub(crate) const SHIPDATE_MAX: i64 = 10_561;

const RETURN_FLAGS: [&str; 3] = ["A", "N", "R"];
const LINE_STATUS: [&str; 2] = ["O", "F"];
const SHIP_MODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];
const SHIP_INSTRUCT: [&str; 4] =
    ["COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"];

/// Rows per scale factor unit. The real dbgen emits ~6M rows/SF; the
/// default here is scaled down 1000× so laptop-scale experiments keep the
/// same *relative* sizes across scale factors.
pub(crate) const ROWS_PER_SF: u64 = 6_000;

/// Deterministic `lineitem` generator.
#[derive(Debug)]
pub struct LineitemGen {
    rng: StdRng,
    next_orderkey: i64,
}

impl LineitemGen {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        LineitemGen { rng: StdRng::seed_from_u64(seed), next_orderkey: 1 }
    }

    /// The `lineitem` schema.
    pub fn schema() -> Schema {
        Schema::new(vec![
            Field::new("l_orderkey", DataType::Int64),
            Field::new("l_partkey", DataType::Int64),
            Field::new("l_suppkey", DataType::Int64),
            Field::new("l_linenumber", DataType::Int64),
            Field::new("l_quantity", DataType::Int64),
            Field::new("l_extendedprice", DataType::Float64),
            Field::new("l_discount", DataType::Float64),
            Field::new("l_tax", DataType::Float64),
            Field::new("l_returnflag", DataType::Utf8),
            Field::new("l_linestatus", DataType::Utf8),
            Field::new("l_shipdate", DataType::Int64),
            Field::new("l_commitdate", DataType::Int64),
            Field::new("l_receiptdate", DataType::Int64),
            Field::new("l_shipinstruct", DataType::Utf8),
            Field::new("l_shipmode", DataType::Utf8),
        ])
        .expect("static schema is valid")
    }

    /// Generate all rows for `scale_factor` (≈ `ROWS_PER_SF × sf` rows).
    pub fn generate_sf(&mut self, scale_factor: f64) -> Vec<Row> {
        let rows = (scale_factor * ROWS_PER_SF as f64) as usize;
        self.generate_rows(rows)
    }

    /// Generate exactly `n` rows.
    pub fn generate_rows(&mut self, n: usize) -> Vec<Row> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            // each order has 1-7 lineitems, like dbgen
            let orderkey = self.next_orderkey;
            self.next_orderkey += 1;
            let lines = self.rng.gen_range(1..=7usize).min(n - out.len());
            for line in 1..=lines {
                out.push(self.one_row(orderkey, line as i64));
            }
        }
        out
    }

    fn one_row(&mut self, orderkey: i64, linenumber: i64) -> Row {
        let quantity = self.rng.gen_range(1..=50i64);
        let price_per_unit = self.rng.gen_range(900.0..=110_000.0) / 100.0;
        let shipdate = self.rng.gen_range(SHIPDATE_MIN..=SHIPDATE_MAX);
        vec![
            Value::Int(orderkey),
            Value::Int(self.rng.gen_range(1..=200_000)),
            Value::Int(self.rng.gen_range(1..=10_000)),
            Value::Int(linenumber),
            Value::Int(quantity),
            Value::Float((quantity as f64 * price_per_unit * 100.0).round() / 100.0),
            Value::Float(self.rng.gen_range(0..=10) as f64 / 100.0),
            Value::Float(self.rng.gen_range(0..=8) as f64 / 100.0),
            Value::from(RETURN_FLAGS[self.rng.gen_range(0..RETURN_FLAGS.len())]),
            Value::from(LINE_STATUS[self.rng.gen_range(0..LINE_STATUS.len())]),
            Value::Int(shipdate),
            Value::Int(shipdate + self.rng.gen_range(-30..=60)),
            Value::Int(shipdate + self.rng.gen_range(1..=30)),
            Value::from(SHIP_INSTRUCT[self.rng.gen_range(0..SHIP_INSTRUCT.len())]),
            Value::from(SHIP_MODES[self.rng.gen_range(0..SHIP_MODES.len())]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let mut a = LineitemGen::new(11);
        let mut b = LineitemGen::new(11);
        assert_eq!(a.generate_rows(100), b.generate_rows(100));
    }

    #[test]
    fn rows_match_schema_and_domains() {
        let schema = LineitemGen::schema();
        let mut g = LineitemGen::new(1);
        let rows = g.generate_rows(500);
        assert_eq!(rows.len(), 500);
        let qty = schema.index_of("l_quantity").unwrap();
        let disc = schema.index_of("l_discount").unwrap();
        let ship = schema.index_of("l_shipdate").unwrap();
        for row in &rows {
            assert_eq!(row.len(), schema.width());
            let q = row[qty].as_int().unwrap();
            assert!((1..=50).contains(&q));
            let d = row[disc].as_float().unwrap();
            assert!((0.0..=0.10).contains(&d));
            let s = row[ship].as_int().unwrap();
            assert!((SHIPDATE_MIN..=SHIPDATE_MAX).contains(&s));
        }
    }

    #[test]
    fn scale_factor_controls_row_count() {
        let mut g = LineitemGen::new(2);
        let sf2 = g.generate_sf(2.0);
        assert_eq!(sf2.len(), 2 * ROWS_PER_SF as usize);
    }

    #[test]
    fn orders_have_multiple_lines() {
        let mut g = LineitemGen::new(3);
        let rows = g.generate_rows(200);
        let schema = LineitemGen::schema();
        let ok = schema.index_of("l_orderkey").unwrap();
        let distinct_orders: std::collections::HashSet<i64> =
            rows.iter().map(|r| r[ok].as_int().unwrap()).collect();
        assert!(distinct_orders.len() < 200, "orders should group lines");
        assert!(distinct_orders.len() > 20);
    }
}
