//! A miniature HDFS: namenode namespace + 3× replicated fixed-size blocks.
//!
//! The cost structure matters, not the RPC surface: every file is split
//! into `block_size` blocks, each block is written to `replication`
//! distinct devices (the paper's 33% disk utilization at 3 copies), and
//! the namenode is an in-memory map whose listing cost is linear in the
//! number of entries.

use common::clock::Nanos;
use common::ctx::IoCtx;
use common::{Error, Result};
use parking_lot::Mutex;
use simdisk::pool::{ExtentHandle, StoragePool};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default HDFS block size (128 MiB in production; configurable here so
/// laptop-scale tests still produce multi-block files).
pub const DEFAULT_BLOCK_SIZE: u64 = 128 * 1024 * 1024;

#[derive(Debug)]
struct FileEntry {
    len: u64,
    blocks: Vec<ExtentHandle>,
}

/// The miniature HDFS.
#[derive(Debug)]
pub struct MiniHdfs {
    pool: Arc<StoragePool>,
    namenode: Mutex<BTreeMap<String, FileEntry>>,
    block_size: u64,
    replication: usize,
}

impl MiniHdfs {
    /// An HDFS over `pool` with the given block size and replication.
    pub fn new(pool: Arc<StoragePool>, block_size: u64, replication: usize) -> Self {
        MiniHdfs {
            pool,
            namenode: Mutex::new(BTreeMap::new()),
            block_size: block_size.max(1),
            replication: replication.max(1),
        }
    }

    /// Write a file (replacing any existing one). Blocks are written with
    /// `replication` copies each; returns the completion time.
    pub fn write_file(&self, path: &str, data: &[u8], now: Nanos) -> Result<Nanos> {
        let mut blocks = Vec::new();
        let mut finish = now;
        for chunk in data.chunks(self.block_size as usize).filter(|c| !c.is_empty()) {
            // one materialized copy of the chunk, `replication` handles over it
            let replicas = vec![common::Bytes::copy_from_slice(chunk); self.replication];
            let (handle, t) = self.pool.write_shards_ctx(&replicas, &IoCtx::new(now))?;
            finish = finish.max(t);
            blocks.push(handle);
        }
        if data.is_empty() {
            // zero-length files still get a namenode entry
        }
        let mut nn = self.namenode.lock();
        if let Some(old) = nn.insert(path.to_string(), FileEntry { len: data.len() as u64, blocks })
        {
            for b in &old.blocks {
                self.pool.delete(b);
            }
        }
        Ok(finish)
    }

    /// Read a file back; any surviving replica per block suffices.
    pub fn read_file(&self, path: &str, now: Nanos) -> Result<(Vec<u8>, Nanos)> {
        let nn = self.namenode.lock();
        let entry = nn
            .get(path)
            .ok_or_else(|| Error::NotFound(format!("hdfs file {path}")))?;
        let mut out = Vec::with_capacity(entry.len as usize);
        let mut finish = now;
        for block in &entry.blocks {
            let (replicas, t) = self.pool.read_shards_ctx(block, &IoCtx::new(now))?;
            finish = finish.max(t);
            let data = replicas
                .into_iter()
                .flatten()
                .next()
                .ok_or_else(|| Error::Unrecoverable(format!("all replicas of {path} lost")))?;
            out.extend_from_slice(&data);
        }
        Ok((out, finish))
    }

    /// Delete a file (idempotent).
    pub fn delete_file(&self, path: &str) {
        if let Some(entry) = self.namenode.lock().remove(path) {
            for b in &entry.blocks {
                self.pool.delete(b);
            }
        }
    }

    /// List paths under `prefix`; cost is linear in the namespace size,
    /// like a real namenode scan.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.namenode
            .lock()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Logical bytes across all files.
    pub fn logical_bytes(&self) -> u64 {
        self.namenode.lock().values().map(|e| e.len).sum()
    }

    /// Physical bytes including replication.
    pub fn physical_bytes(&self) -> u64 {
        self.pool.used()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.namenode.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::size::MIB;
    use common::SimClock;
    use simdisk::MediaKind;

    fn hdfs(block: u64) -> MiniHdfs {
        let pool = Arc::new(StoragePool::new(
            "hdfs",
            MediaKind::SasHdd,
            6,
            1024 * MIB,
            SimClock::new(),
        ));
        MiniHdfs::new(pool, block, 3)
    }

    #[test]
    fn write_read_roundtrip_multiblock() {
        let h = hdfs(1024);
        let data: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        let t = h.write_file("/data/raw.bin", &data, 0).unwrap();
        assert!(t > 0);
        let (back, _) = h.read_file("/data/raw.bin", t).unwrap();
        assert_eq!(back, data);
        assert_eq!(h.logical_bytes(), 5000);
    }

    #[test]
    fn replication_triples_physical_bytes() {
        let h = hdfs(4096);
        h.write_file("/f", &vec![7u8; 10_000], 0).unwrap();
        assert_eq!(h.physical_bytes(), 30_000);
    }

    #[test]
    fn overwrite_frees_old_blocks() {
        let h = hdfs(1024);
        h.write_file("/f", &vec![1u8; 8000], 0).unwrap();
        h.write_file("/f", &[2u8; 100], 0).unwrap();
        assert_eq!(h.physical_bytes(), 300);
        let (back, _) = h.read_file("/f", 0).unwrap();
        assert_eq!(back, vec![2u8; 100]);
    }

    #[test]
    fn survives_single_device_failure() {
        let h = hdfs(1024);
        h.write_file("/f", &vec![9u8; 3000], 0).unwrap();
        h.pool.device(0).fail();
        let (back, _) = h.read_file("/f", 0).unwrap();
        assert_eq!(back.len(), 3000);
    }

    #[test]
    fn delete_and_list() {
        let h = hdfs(1024);
        h.write_file("/a/1", b"x", 0).unwrap();
        h.write_file("/a/2", b"y", 0).unwrap();
        h.write_file("/b/3", b"z", 0).unwrap();
        assert_eq!(h.list("/a/").len(), 2);
        h.delete_file("/a/1");
        assert_eq!(h.list("/a/").len(), 1);
        assert_eq!(h.file_count(), 2);
        h.delete_file("/a/1"); // idempotent
        assert!(h.read_file("/a/1", 0).is_err());
    }
}
