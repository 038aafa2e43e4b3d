//! Per-topic configuration.
//!
//! The dispatcher "sets configurations for the messaging service in the
//! unit of the topic" (§V-A); Fig 8 shows the JSON document. This module
//! mirrors that document exactly, including the `convert_2_table` and
//! `archive` sub-objects, and parses the paper's own example verbatim.
//! Parsing is field-by-field over [`common::json::Json`]; absent fields
//! take the paper's defaults, present fields must have the right type.

use common::json::Json;
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

impl ConvertToTable {
    fn from_json(doc: &Json) -> Result<Self> {
        let d = ConvertToTable::default();
        Ok(ConvertToTable {
            table_schema: string_list_field(doc, "table_schema", d.table_schema)?,
            table_path: string_field(doc, "table_path", d.table_path)?,
            split_offset: u64_field(doc, "split_offset", d.split_offset)?,
            split_time: u64_field(doc, "split_time", d.split_time)?,
            delete_msg: bool_field(doc, "delete_msg", d.delete_msg)?,
            enabled: bool_field(doc, "enabled", d.enabled)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::object([
            (
                "table_schema",
                Json::Array(self.table_schema.iter().cloned().map(Json::Str).collect()),
            ),
            ("table_path", Json::Str(self.table_path.clone())),
            ("split_offset", Json::Num(self.split_offset as f64)),
            ("split_time", Json::Num(self.split_time as f64)),
            ("delete_msg", Json::Bool(self.delete_msg)),
            ("enabled", Json::Bool(self.enabled)),
        ])
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

impl ArchiveConfig {
    fn from_json(doc: &Json) -> Result<Self> {
        let d = ArchiveConfig::default();
        let external_archive_url = match doc.get("external_archive_url") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => {
                return Err(Error::InvalidArgument(
                    "bad topic config: external_archive_url must be a string or null".into(),
                ))
            }
        };
        Ok(ArchiveConfig {
            external_archive_url,
            archive_size: u64_field(doc, "archive_size", d.archive_size)?,
            row_2_col: bool_field(doc, "row_2_col", d.row_2_col)?,
            enabled: bool_field(doc, "enabled", d.enabled)?,
        })
    }

    fn to_json(&self) -> Json {
        let url = match &self.external_archive_url {
            Some(u) => Json::Str(u.clone()),
            None => Json::Null,
        };
        Json::object([
            ("external_archive_url", url),
            ("archive_size", Json::Num(self.archive_size as f64)),
            ("row_2_col", Json::Bool(self.row_2_col)),
            ("enabled", Json::Bool(self.enabled)),
        ])
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

    /// Number of partitions (the Fig 8 `stream_num`).
    pub fn partitions(&self) -> u32 {
        self.stream_num
    }

    /// Parse a Fig 8-style JSON document.
    pub fn from_json(json: &str) -> Result<Self> {
        let doc = Json::parse(json)
            .map_err(|e| Error::InvalidArgument(format!("bad topic config: {e}")))?;
        if doc.as_object().is_none() {
            return Err(Error::InvalidArgument(
                "bad topic config: top level must be an object".into(),
            ));
        }
        let stream_num = doc
            .get("stream_num")
            .and_then(Json::as_u64)
            .ok_or_else(|| {
                Error::InvalidArgument(
                    "bad topic config: missing or non-integer stream_num".into(),
                )
            })?;
        let stream_num = u32::try_from(stream_num).map_err(|_| {
            Error::InvalidArgument("bad topic config: stream_num out of range".into())
        })?;
        let d = TopicConfig::default();
        let convert_2_table = match doc.get("convert_2_table") {
            None => d.convert_2_table,
            Some(sub) => ConvertToTable::from_json(sub)?,
        };
        let archive = match doc.get("archive") {
            None => d.archive,
            Some(sub) => ArchiveConfig::from_json(sub)?,
        };
        Ok(TopicConfig {
            stream_num,
            quota: u64_field(&doc, "quota", d.quota)?,
            scm_cache: bool_field(&doc, "scm_cache", d.scm_cache)?,
            convert_2_table,
            archive,
        })
    }

    /// Serialize to JSON (pretty, for operator inspection).
    pub fn to_json(&self) -> String {
        Json::object([
            ("stream_num", Json::Num(self.stream_num as f64)),
            ("quota", Json::Num(self.quota as f64)),
            ("scm_cache", Json::Bool(self.scm_cache)),
            ("convert_2_table", self.convert_2_table.to_json()),
            ("archive", self.archive.to_json()),
        ])
        .to_pretty()
    }
}

fn u64_field(doc: &Json, key: &str, default: u64) -> Result<u64> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            Error::InvalidArgument(format!("bad topic config: {key} must be a non-negative integer"))
        }),
    }
}

fn bool_field(doc: &Json, key: &str, default: bool) -> Result<bool> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v.as_bool().ok_or_else(|| {
            Error::InvalidArgument(format!("bad topic config: {key} must be a boolean"))
        }),
    }
}

fn string_field(doc: &Json, key: &str, default: String) -> Result<String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::InvalidArgument(format!("bad topic config: {key} must be a string"))),
    }
}

fn string_list_field(doc: &Json, key: &str, default: Vec<String>) -> Result<Vec<String>> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_array()
            .and_then(|items| {
                items
                    .iter()
                    .map(|i| i.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()
            })
            .ok_or_else(|| {
                Error::InvalidArgument(format!("bad topic config: {key} must be a string array"))
            }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_fig8_example() {
        // The example from Fig 8, with table_schema flattened to name:type
        // pairs (the paper elides the object body with "...").
        let json = r#"{
            "stream_num": 3,
            "quota": 1000000,
            "scm_cache": true,
            "convert_2_table": {
                "table_schema": ["url:utf8", "start_time:int64", "province:utf8"],
                "table_path": "/tables/tb_dpi_log_hours",
                "split_offset": 10000000,
                "split_time": 36000,
                "delete_msg": false,
                "enabled": true
            },
            "archive": {
                "external_archive_url": null,
                "archive_size": 262144,
                "row_2_col": true,
                "enabled": true
            }
        }"#;
        let c = TopicConfig::from_json(json).unwrap();
        assert_eq!(c.stream_num, 3);
        assert_eq!(c.quota, 1_000_000);
        assert!(c.scm_cache);
        assert!(c.convert_2_table.enabled);
        assert_eq!(c.convert_2_table.split_offset, 10_000_000);
        assert_eq!(c.convert_2_table.split_time, 36_000);
        assert!(!c.convert_2_table.delete_msg);
        assert!(c.archive.enabled);
        assert!(c.archive.row_2_col);
        assert_eq!(c.archive.archive_size, 262_144);
        assert!(c.archive.external_archive_url.is_none());
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
    fn json_roundtrip() {
        let mut c = TopicConfig::with_partitions(8);
        c.scm_cache = true;
        c.archive.enabled = true;
        c.archive.external_archive_url = Some("s3://bucket/archive".into());
        let back = TopicConfig::from_json(&c.to_json()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn minimal_document_uses_defaults() {
        let c = TopicConfig::from_json(r#"{"stream_num": 2}"#).unwrap();
        assert_eq!(c.stream_num, 2);
        assert_eq!(c.quota, 1_000_000);
    }

    #[test]
    fn malformed_json_is_invalid_argument() {
        assert!(matches!(
            TopicConfig::from_json("{not json"),
            Err(common::Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn wrong_field_types_are_invalid_argument() {
        for bad in [
            r#"{"stream_num": "three"}"#,
            r#"{"stream_num": 2, "quota": true}"#,
            r#"{"stream_num": 2, "archive": {"external_archive_url": 5}}"#,
            r#"{"stream_num": 2, "convert_2_table": {"table_schema": [1]}}"#,
        ] {
            assert!(
                matches!(TopicConfig::from_json(bad), Err(common::Error::InvalidArgument(_))),
                "should reject {bad}"
            );
        }
    }
}
