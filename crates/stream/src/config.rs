//! Per-topic configuration.
//!
//! The dispatcher "sets configurations for the messaging service in the
//! unit of the topic" (§V-A); Fig 8 shows the JSON document. This module
//! mirrors its fields exactly, including the `convert_2_table` and
//! `archive` sub-objects. The dispatcher keeps a topic's config in the
//! metadata store next to its routes, as the binary value
//! [`TopicConfig::encode`] writes, and reads it back from there.

use common::varint::{encode_str, encode_u64, Reader};
use common::{Error, Result};

/// Configuration of the automatic stream→table conversion (Fig 8,
/// `convert_2_table`).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvertToTable {
    /// Columns of the target table, as `name:type` strings (the paper's
    /// `table_schema` object, flattened).
    pub table_schema: Vec<String>,
    /// Table-object directory path for the converted records.
    pub table_path: String,
    /// Convert after this many accumulated messages (paper: 10^7).
    pub split_offset: u64,
    /// Convert after this many seconds (paper: 36000).
    pub split_time: u64,
    /// Whether converted messages are removed from the stream object.
    pub delete_msg: bool,
    /// Whether conversion is active.
    pub enabled: bool,
}

impl Default for ConvertToTable {
    fn default() -> Self {
        ConvertToTable {
            table_schema: Vec::new(),
            table_path: String::new(),
            split_offset: 10_000_000,
            split_time: 36_000,
            delete_msg: false,
            enabled: false,
        }
    }
}

/// Configuration of historical-data archiving (Fig 8, `archive`).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveConfig {
    /// External archive target, or `None` for the built-in archive pool.
    pub external_archive_url: Option<String>,
    /// Data volume in MB that triggers archiving (paper example: 262144).
    pub archive_size: u64,
    /// Whether archived data is converted to columnar format.
    pub row_2_col: bool,
    /// Whether archiving is active.
    pub enabled: bool,
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        ArchiveConfig {
            external_archive_url: None,
            archive_size: 262_144,
            row_2_col: false,
            enabled: false,
        }
    }
}

/// Full topic configuration (Fig 8).
#[derive(Debug, Clone, PartialEq)]
pub struct TopicConfig {
    /// Parallelism of the topic: number of streams.
    pub stream_num: u32,
    /// Maximum messages per second per stream (paper example: 10^6).
    pub quota: u64,
    /// Whether the SCM cache is enabled for this topic.
    pub scm_cache: bool,
    /// Stream→table conversion settings.
    pub convert_2_table: ConvertToTable,
    /// Archiving settings.
    pub archive: ArchiveConfig,
}

impl Default for TopicConfig {
    fn default() -> Self {
        TopicConfig {
            stream_num: 1,
            quota: 1_000_000,
            scm_cache: false,
            convert_2_table: ConvertToTable::default(),
            archive: ArchiveConfig::default(),
        }
    }
}

impl TopicConfig {
    /// A topic with `partitions` partitions and defaults elsewhere.
    ///
    /// The struct field (and the Fig 8 JSON key) stays `stream_num` — the
    /// paper's vocabulary — but the rest of the crate treats each stream
    /// as one **partition**, the unit of parallelism, assignment and
    /// quota.
    pub fn with_partitions(partitions: u32) -> Self {
        TopicConfig { stream_num: partitions, ..Default::default() }
    }

    /// The `topic/<name>/config` value: every Fig 8 field, in document
    /// order.
    pub fn encode(&self) -> Vec<u8> {
        let (c, a) = (&self.convert_2_table, &self.archive);
        let mut out = Vec::new();
        encode_u64(self.stream_num.into(), &mut out);
        encode_u64(self.quota, &mut out);
        out.push(self.scm_cache.into());
        encode_u64(c.table_schema.len() as u64, &mut out);
        for column in &c.table_schema {
            encode_str(column, &mut out);
        }
        encode_str(&c.table_path, &mut out);
        encode_u64(c.split_offset, &mut out);
        encode_u64(c.split_time, &mut out);
        out.extend([u8::from(c.delete_msg), c.enabled.into()]);
        out.push(a.external_archive_url.is_some().into());
        if let Some(url) = &a.external_archive_url {
            encode_str(url, &mut out);
        }
        encode_u64(a.archive_size, &mut out);
        out.extend([u8::from(a.row_2_col), a.enabled.into()]);
        out
    }

    /// Decode a value written by [`encode`](Self::encode).
    pub fn decode(buf: &[u8]) -> Result<TopicConfig> {
        let mut r = Reader::new(buf, "topic config");
        let stream_num = u32::try_from(r.u64()?)
            .map_err(|_| Error::Corruption("topic config stream_num overflows u32".into()))?;
        let (quota, scm_cache) = (r.u64()?, r.bool()?);
        let table_schema = (0..r.count(1)?)
            .map(|_| Ok(r.str()?.to_owned()))
            .collect::<Result<_>>()?;
        let convert_2_table = ConvertToTable {
            table_schema,
            table_path: r.str()?.to_owned(),
            split_offset: r.u64()?,
            split_time: r.u64()?,
            delete_msg: r.bool()?,
            enabled: r.bool()?,
        };
        let archive = ArchiveConfig {
            external_archive_url: if r.bool()? { Some(r.str()?.to_owned()) } else { None },
            archive_size: r.u64()?,
            row_2_col: r.bool()?,
            enabled: r.bool()?,
        };
        r.finish()?;
        Ok(TopicConfig { stream_num, quota, scm_cache, convert_2_table, archive })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_fig8_example() {
        // The values of Fig 8, with table_schema flattened to name:type
        // pairs (the paper elides the object body with "...").
        let mut c = TopicConfig::with_partitions(3);
        c.scm_cache = true;
        c.convert_2_table = ConvertToTable {
            table_schema: vec![
                "url:utf8".into(),
                "start_time:int64".into(),
                "province:utf8".into(),
            ],
            table_path: "/tables/tb_dpi_log_hours".into(),
            enabled: true,
            ..ConvertToTable::default()
        };
        c.archive.row_2_col = true;
        c.archive.enabled = true;
        let decoded = TopicConfig::decode(&c.encode()).unwrap();
        assert_eq!(decoded, c);
        assert_eq!(decoded.quota, 1_000_000);
        assert_eq!(decoded.convert_2_table.split_offset, 10_000_000);
        assert_eq!(decoded.convert_2_table.split_time, 36_000);
        assert!(!decoded.convert_2_table.delete_msg);
        assert_eq!(decoded.archive.external_archive_url, None);
        assert_eq!(decoded.archive.archive_size, 262_144);
    }

    #[test]
    fn defaults_match_paper_values() {
        let c = TopicConfig::default();
        assert_eq!(c.quota, 1_000_000);
        assert_eq!(c.convert_2_table.split_offset, 10_000_000);
        assert_eq!(c.convert_2_table.split_time, 36_000);
        assert_eq!(c.archive.archive_size, 262_144);
        assert!(!c.convert_2_table.enabled);
        assert!(!c.archive.enabled);
    }

    #[test]
    fn codec_roundtrip_keeps_an_external_archive() {
        let mut c = TopicConfig::with_partitions(8);
        c.scm_cache = true;
        c.archive.enabled = true;
        c.archive.external_archive_url = Some("s3://bucket/archive".into());
        let bytes = c.encode();
        assert_eq!(TopicConfig::decode(&bytes).unwrap(), c);
        let mut flag = bytes.clone();
        flag[4] = 2; // scm_cache, after stream_num (1 byte) and quota (3)
        assert!(matches!(TopicConfig::decode(&flag), Err(Error::Corruption(_))));
        assert!(TopicConfig::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(TopicConfig::decode(&[&bytes[..], &[0]].concat()).is_err());
    }
}
