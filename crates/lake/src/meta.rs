//! Commit, snapshot and data-file metadata (§IV-B, "Metadata directory").
//!
//! *Commits* "contain file-level metadata and statistics such as file
//! paths, record counts, and value ranges for the data objects. Each data
//! insert, update, and delete operation will generate a new commit file."
//!
//! *Snapshots* "are index files that index valid commit files … Along with
//! commits, snapshots provide snapshot-level isolation" and time travel.

use common::varint::{self, Reader};
use common::{Error, Result};
use format::ColumnStats;
use std::ops::RangeInclusive;

/// Metadata of one data file, as recorded in a commit.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFileMeta {
    /// Path of the file within the table directory, e.g.
    /// `data/location=beijing/00042.lake`.
    pub path: String,
    /// Partition value the file belongs to (empty for unpartitioned).
    pub partition: String,
    /// Rows in the file.
    pub record_count: u64,
    /// Encoded file size in bytes.
    pub bytes: u64,
    /// Per-column min/max statistics, in schema order.
    pub stats: Vec<ColumnStats>,
}

impl DataFileMeta {
    /// Serialize into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        encode_str(&self.path, out);
        encode_str(&self.partition, out);
        varint::encode_u64(self.record_count, out);
        varint::encode_u64(self.bytes, out);
        varint::encode_u64(self.stats.len() as u64, out);
        for s in &self.stats {
            s.encode(out);
        }
    }

    /// Decode one meta from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<DataFileMeta> {
        let path = r.str()?.to_owned();
        let partition = r.str()?.to_owned();
        let (record_count, bytes) = (r.u64()?, r.u64()?);
        // A stats entry is at least two two-byte values and a row count.
        let stat_count = r.count(5)?;
        let mut stats = Vec::with_capacity(stat_count);
        for _ in 0..stat_count {
            stats.push(ColumnStats::decode(r)?);
        }
        Ok(DataFileMeta { path, partition, record_count, bytes, stats })
    }

    /// Decode a buffer holding exactly one encoded meta (a `lake/live/`
    /// entry).
    pub fn decode_entry(buf: &[u8]) -> Result<DataFileMeta> {
        let mut r = Reader::new(buf, "data file meta");
        let meta = Self::decode(&mut r)?;
        r.finish()?;
        Ok(meta)
    }
}

/// One committed change set.
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    /// Commit id (monotonic per table).
    pub id: u64,
    /// Virtual timestamp (ns) at which the commit became visible.
    pub timestamp: u64,
    /// Files added by this commit.
    pub added: Vec<DataFileMeta>,
    /// Paths removed by this commit.
    pub removed: Vec<String>,
}

impl Commit {
    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        varint::encode_u64(self.id, &mut out);
        varint::encode_u64(self.timestamp, &mut out);
        varint::encode_u64(self.added.len() as u64, &mut out);
        for f in &self.added {
            f.encode(&mut out);
        }
        varint::encode_u64(self.removed.len() as u64, &mut out);
        for r in &self.removed {
            encode_str(r, &mut out);
        }
        out
    }

    /// Decode a buffer produced by [`encode`](Self::encode).
    pub fn decode(buf: &[u8]) -> Result<Commit> {
        let mut r = Reader::new(buf, "commit");
        let (id, timestamp) = (r.u64()?, r.u64()?);
        // A file meta is at least two empty strings and three varints.
        let added_count = r.count(5)?;
        let mut added = Vec::with_capacity(added_count);
        for _ in 0..added_count {
            added.push(DataFileMeta::decode(&mut r)?);
        }
        let removed_count = r.count(1)?;
        let mut removed = Vec::with_capacity(removed_count);
        for _ in 0..removed_count {
            removed.push(r.str()?.to_owned());
        }
        r.finish()?;
        Ok(Commit { id, timestamp, added, removed })
    }
}

/// A snapshot: the index of commits valid at a point in time.
///
/// A table's commit ids are contiguous — commit `n` is the one that
/// published snapshot `n` — so a snapshot names its commits as the range
/// `base..=id` and its parent as `id - 1`, and its encoding stays a few
/// bytes however long the history grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Snapshot id (monotonic per table), also its newest commit's id.
    pub id: u64,
    /// Oldest commit of the snapshot's history: 1, or the synthetic base
    /// commit snapshot expiry squashed the expired prefix into.
    pub base: u64,
    /// Virtual timestamp (ns) of the snapshot.
    pub timestamp: u64,
}

impl Snapshot {
    /// Ids of all commits included, in application order.
    pub fn commit_ids(&self) -> RangeInclusive<u64> {
        self.base..=self.id
    }

    /// The previous snapshot, `None` for the oldest one still kept.
    pub fn parent(&self) -> Option<u64> {
        (self.id > self.base).then(|| self.id - 1)
    }

    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        varint::encode_u64(self.id, &mut out);
        varint::encode_u64(self.base, &mut out);
        varint::encode_u64(self.timestamp, &mut out);
        out
    }

    /// Decode a buffer produced by [`encode`](Self::encode).
    pub fn decode(buf: &[u8]) -> Result<Snapshot> {
        let mut r = Reader::new(buf, "snapshot");
        let (id, base, timestamp) = (r.u64()?, r.u64()?, r.u64()?);
        r.finish()?;
        if base == 0 || base > id {
            return Err(Error::Corruption(format!("snapshot {id} has base commit {base}")));
        }
        Ok(Snapshot { id, base, timestamp })
    }
}

/// Append `s` as a length-prefixed string, the form [`Reader::str`] reads.
pub(crate) fn encode_str(s: &str, out: &mut Vec<u8>) {
    varint::encode_u64(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use format::{Column, Value};

    fn sample_file(path: &str) -> DataFileMeta {
        DataFileMeta {
            path: path.to_string(),
            partition: "hour=12".to_string(),
            record_count: 1000,
            bytes: 4096,
            stats: vec![
                format::ColumnStats::from_column(&Column::Int(vec![1, 100])).unwrap(),
                format::ColumnStats::from_column(&Column::Str(vec!["a".into(), "z".into()]))
                    .unwrap(),
            ],
        }
    }

    #[test]
    fn data_file_meta_roundtrips() {
        let f = sample_file("data/hour=12/00001.lake");
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let back = DataFileMeta::decode_entry(&buf).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.stats[0].min, Value::Int(1));
    }

    #[test]
    fn commit_roundtrips() {
        let c = Commit {
            id: 7,
            timestamp: 123456,
            added: vec![sample_file("a"), sample_file("b")],
            removed: vec!["old/file.lake".to_string()],
        };
        assert_eq!(Commit::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn empty_commit_roundtrips() {
        let c = Commit { id: 0, timestamp: 0, added: vec![], removed: vec![] };
        assert_eq!(Commit::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn snapshot_roundtrips_with_and_without_parent() {
        let s1 = Snapshot { id: 1, base: 1, timestamp: 10 };
        let s3 = Snapshot { id: 3, base: 1, timestamp: 20 };
        let squashed = Snapshot { id: 7, base: 7, timestamp: 30 };
        for s in [s1, s3, squashed] {
            assert_eq!(Snapshot::decode(&s.encode()).unwrap(), s);
        }
        assert_eq!((s1.parent(), s1.commit_ids()), (None, 1..=1));
        assert_eq!((s3.parent(), s3.commit_ids()), (Some(2), 1..=3));
        assert_eq!((squashed.parent(), squashed.commit_ids()), (None, 7..=7));
    }

    #[test]
    fn snapshot_size_does_not_grow_with_history() {
        let s = Snapshot { id: 1_000_000, base: 1, timestamp: u64::MAX };
        assert_eq!(s.commit_ids().count(), 1_000_000);
        assert!(s.encode().len() < 32, "{} bytes", s.encode().len());
    }

    #[test]
    fn snapshot_with_an_impossible_base_is_corruption() {
        for (id, base) in [(5, 0), (5, 6), (0, 0)] {
            let mut enc = Vec::new();
            for v in [id, base, 1] {
                varint::encode_u64(v, &mut enc);
            }
            let err = Snapshot::decode(&enc);
            assert!(matches!(err, Err(Error::Corruption(_))), "id={id} base={base}: {err:?}");
        }
        let mut trailing = Snapshot { id: 2, base: 1, timestamp: 3 }.encode();
        trailing.push(0);
        assert!(matches!(Snapshot::decode(&trailing), Err(Error::Corruption(_))));
    }

    #[test]
    fn truncated_metadata_is_corruption() {
        let c = Commit {
            id: 7,
            timestamp: 1,
            added: vec![sample_file("x")],
            removed: vec![],
        };
        let enc = c.encode();
        for cut in 0..enc.len() {
            assert!(Commit::decode(&enc[..cut]).is_err(), "cut={cut}");
        }
        let enc = Snapshot { id: 300, base: 200, timestamp: 1 << 40 }.encode();
        for cut in 0..enc.len() {
            let err = Snapshot::decode(&enc[..cut]);
            assert!(matches!(err, Err(Error::Corruption(_))), "cut={cut}: {err:?}");
        }
    }
}
