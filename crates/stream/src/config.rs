//! Per-topic configuration.
//!
//! The dispatcher "sets configurations for the messaging service in the
//! unit of the topic" (§V-A); Fig 8 shows the JSON document. This module
//! mirrors that document exactly, including the `convert_2_table` and
//! `archive` sub-objects; `TopicConfig::to_json` writes it, and the
//! dispatcher persists it next to the topic's topology.

use common::json::Json;

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

    /// Serialize to JSON (pretty, for operator inspection).
    pub(crate) fn to_json(&self) -> String {
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
        assert_eq!(
            Json::parse(&c.to_json()).unwrap(),
            Json::parse(json).unwrap()
        );
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
        let doc = Json::parse(&c.to_json()).unwrap();
        assert_eq!(doc.get("stream_num").and_then(Json::as_u64), Some(8));
        assert_eq!(doc.get("scm_cache"), Some(&Json::Bool(true)));
        let archive = doc.get("archive").unwrap();
        assert_eq!(archive.get("enabled"), Some(&Json::Bool(true)));
        assert_eq!(
            archive.get("external_archive_url").and_then(Json::as_str),
            Some("s3://bucket/archive")
        );
    }
}
