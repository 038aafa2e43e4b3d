//! DPI log packet generation.
//!
//! §VII-A: "The number of input data packets varies: 10 million, 50
//! million, 100 million, 500 million, and 1 billion packets. Each packet
//! has an average size of 1.2 KB." Packets carry the fields the Fig 13 DAU
//! query touches (`url`, `start_time`, `province`) plus user/session
//! attributes, padded with a payload blob to reach the production average
//! size. URL and province choices are Zipf-skewed, as web traffic is.

use crate::zipf::Zipf;
use format::{DataType, Field, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 31 provinces data flows from in the paper's use case (a subset).
pub(crate) const PROVINCES: [&str; 12] = [
    "guangdong", "beijing", "shanghai", "sichuan", "jiangsu", "zhejiang", "shandong", "henan",
    "hubei", "hunan", "fujian", "anhui",
];

/// One synthetic DPI log packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Visited URL.
    pub url: String,
    /// Epoch seconds of the flow start.
    pub start_time: i64,
    /// Subscriber province.
    pub province: String,
    /// Subscriber id.
    pub user_id: u64,
    /// Uplink bytes.
    pub(crate) bytes_up: i64,
    /// Downlink bytes.
    pub bytes_down: i64,
    /// Whether the flow was TLS.
    pub(crate) is_https: bool,
    /// Opaque payload bringing the packet to its wire size.
    pub(crate) payload: String,
}

impl Packet {
    /// Key used for stream partitioning (the subscriber).
    pub fn key(&self) -> Vec<u8> {
        format!("user-{}", self.user_id).into_bytes()
    }

    /// Pipe-delimited wire form (matches [`PacketGen::schema`] order, with
    /// the payload last).
    pub fn to_wire(&self) -> Vec<u8> {
        format!(
            "{}|{}|{}|{}|{}|{}|{}|{}",
            self.url,
            self.start_time,
            self.province,
            self.user_id,
            self.bytes_up,
            self.bytes_down,
            self.is_https,
            self.payload
        )
        .into_bytes()
    }

    /// Parse the wire form back.
    pub fn from_wire(bytes: &[u8]) -> common::Result<Packet> {
        let s = String::from_utf8(bytes.to_vec())
            .map_err(|_| common::Error::Corruption("packet not utf-8".into()))?;
        let mut it = s.splitn(8, '|');
        let mut next = || {
            it.next()
                .ok_or_else(|| common::Error::Corruption("short packet".into()))
        };
        Ok(Packet {
            url: next()?.to_string(),
            start_time: next()?.parse().map_err(|_| common::Error::Corruption("bad ts".into()))?,
            province: next()?.to_string(),
            user_id: next()?.parse().map_err(|_| common::Error::Corruption("bad uid".into()))?,
            bytes_up: next()?.parse().map_err(|_| common::Error::Corruption("bad up".into()))?,
            bytes_down: next()?
                .parse()
                .map_err(|_| common::Error::Corruption("bad down".into()))?,
            is_https: next()? == "true",
            payload: next()?.to_string(),
        })
    }

    /// Convert to a table row under [`PacketGen::schema`] (payload column
    /// included).
    pub fn to_row(&self) -> Row {
        vec![
            Value::from(self.url.clone()),
            Value::Int(self.start_time),
            Value::from(self.province.clone()),
            Value::Int(self.user_id as i64),
            Value::Int(self.bytes_up),
            Value::Int(self.bytes_down),
            Value::Bool(self.is_https),
            Value::from(self.payload.clone()),
        ]
    }
}

/// Deterministic packet generator.
#[derive(Debug)]
pub struct PacketGen {
    rng: StdRng,
    url_zipf: Zipf,
    province_zipf: Zipf,
    urls: Vec<String>,
    /// Epoch seconds of the first packet.
    pub(crate) t0: i64,
    /// Packets generated per simulated second.
    pub(crate) packets_per_sec: u64,
    generated: u64,
}

impl PacketGen {
    /// A generator seeded with `seed`, starting at epoch `t0`.
    pub fn new(seed: u64, t0: i64, packets_per_sec: u64) -> Self {
        let urls: Vec<String> = (0..200)
            .map(|i| match i % 4 {
                0 => format!("http://streamlake_fin_app.com/api/{i}"),
                1 => format!("http://video.example.com/v/{i}"),
                2 => format!("http://social.example.com/feed/{i}"),
                _ => format!("http://shop.example.com/item/{i}"),
            })
            .collect();
        PacketGen {
            rng: StdRng::seed_from_u64(seed),
            url_zipf: Zipf::new(urls.len(), 1.1),
            province_zipf: Zipf::new(PROVINCES.len(), 0.8),
            urls,
            t0,
            packets_per_sec: packets_per_sec.max(1),
            generated: 0,
        }
    }

    /// The table schema packets convert into (Fig 13's `TB_DPI_LOG_HOURS`).
    pub fn schema() -> Schema {
        Schema::new(vec![
            Field::new("url", DataType::Utf8),
            Field::new("start_time", DataType::Int64),
            Field::new("province", DataType::Utf8),
            Field::new("user_id", DataType::Int64),
            Field::new("bytes_up", DataType::Int64),
            Field::new("bytes_down", DataType::Int64),
            Field::new("is_https", DataType::Bool),
            Field::new("payload", DataType::Utf8),
        ])
        .expect("static schema is valid")
    }

    /// Generate the next packet.
    pub(crate) fn next_packet(&mut self) -> Packet {
        let url = self.urls[self.url_zipf.sample(&mut self.rng)].clone();
        let province = PROVINCES[self.province_zipf.sample(&mut self.rng)].to_string();
        let start_time = self.t0 + (self.generated / self.packets_per_sec) as i64;
        self.generated += 1;
        // Pad to ~1.2 KB average with a high-entropy payload: production DPI
        // payloads carry encrypted/compressed content that does not compress
        // further, and the storage-cost comparisons depend on that.
        const CHARSET: &[u8] =
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let pad_len = self.rng.gen_range(800..1400);
        let payload: String = (0..pad_len)
            .map(|_| CHARSET[self.rng.gen_range(0..CHARSET.len())] as char)
            .collect();
        Packet {
            url,
            start_time,
            province,
            user_id: self.rng.gen_range(0..1_000_000),
            bytes_up: self.rng.gen_range(100..10_000),
            bytes_down: self.rng.gen_range(1_000..1_000_000),
            is_https: self.rng.gen_bool(0.7),
            payload,
        }
    }

    /// Generate a batch of `n` packets.
    pub fn batch(&mut self, n: usize) -> Vec<Packet> {
        (0..n).map(|_| self.next_packet()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let mut a = PacketGen::new(42, 1_656_806_400, 1000);
        let mut b = PacketGen::new(42, 1_656_806_400, 1000);
        assert_eq!(a.batch(50), b.batch(50));
    }

    #[test]
    fn average_size_is_about_1200_bytes() {
        let mut g = PacketGen::new(1, 0, 1000);
        let total: usize = g.batch(500).iter().map(|p| p.to_wire().len()).sum();
        let avg = total / 500;
        assert!(
            (900..1500).contains(&avg),
            "average packet size {avg} outside the 1.2 KB band"
        );
    }

    #[test]
    fn wire_roundtrip() {
        let mut g = PacketGen::new(7, 1_656_806_400, 100);
        for p in g.batch(20) {
            assert_eq!(Packet::from_wire(&p.to_wire()).unwrap(), p);
        }
    }

    #[test]
    fn rows_match_schema() {
        let schema = PacketGen::schema();
        let mut g = PacketGen::new(3, 0, 100);
        let row = g.next_packet().to_row();
        assert_eq!(row.len(), schema.width());
        for (v, f) in row.iter().zip(schema.fields()) {
            assert_eq!(v.dtype(), f.dtype, "column {}", f.name);
        }
    }

    #[test]
    fn timestamps_advance_with_rate() {
        let mut g = PacketGen::new(5, 1000, 10);
        let batch = g.batch(25);
        assert_eq!(batch[0].start_time, 1000);
        assert_eq!(batch[9].start_time, 1000);
        assert_eq!(batch[10].start_time, 1001);
        assert_eq!(batch[24].start_time, 1002);
    }

    #[test]
    fn urls_are_zipf_skewed() {
        let mut g = PacketGen::new(9, 0, 1000);
        let batch = g.batch(5000);
        let mut counts = std::collections::HashMap::new();
        for p in &batch {
            *counts.entry(p.url.clone()).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 200, "head url must dominate under zipf, max={max}");
    }
}
