//! WAL compaction as a maintenance chore.
//!
//! A deployment keeps all of its metadata in one KV store — the PLog's
//! index — so its WAL is a hot log: every PLog index entry, topic and group
//! update, catalog and metadata-cache write, and every MVCC intent, record
//! update and resolution appends a frame, and most of those frames are
//! superseded soon after. Left alone the log grows without bound;
//! compacted inline it would stall a foreground commit. So compaction runs
//! where all other background work runs — on the maintenance runtime, at
//! Maintenance QoS — rewriting the WAL as one batch of live state once
//! enough dead frames accumulate.

use crate::store::SharedKv;
use common::chore::{Chore, TickReport};
use common::ctx::IoCtx;
use common::metrics::Metrics;
use common::Result;

/// Compact once the WAL holds this many frames more than the live-state
/// rewrite would need (one frame): the "dead frame" trigger.
pub const DEFAULT_FRAME_TRIGGER: u64 = 256;

/// Compact once the WAL exceeds this many bytes regardless of frame count.
pub const DEFAULT_BYTE_TRIGGER: u64 = 4 * 1024 * 1024;

/// Maintenance chore compacting a [`SharedKv`]'s WAL.
///
/// Metrics: `kvstore.wal.frames` / `kvstore.wal.bytes` (observed each
/// tick) and `kvstore.wal.compactions` (incremented per rewrite).
#[derive(Debug)]
pub struct WalCompactionChore {
    kv: SharedKv,
    metrics: Metrics,
}

impl WalCompactionChore {
    /// A chore compacting `kv` once either trigger is reached.
    pub fn new(kv: SharedKv, metrics: Metrics) -> Self {
        WalCompactionChore { kv, metrics }
    }
}

impl Chore for WalCompactionChore {
    fn name(&self) -> &'static str {
        "kv-wal-compaction"
    }

    fn tick(&self, ctx: &IoCtx) -> Result<TickReport> {
        let (frames, bytes) = self.kv.with_read(|kv| (kv.wal_frames(), kv.wal_bytes_len()));
        self.metrics.observe("kvstore.wal.frames", frames);
        self.metrics.observe("kvstore.wal.bytes", bytes);
        if frames < DEFAULT_FRAME_TRIGGER && bytes < DEFAULT_BYTE_TRIGGER {
            return Ok(TickReport::idle(ctx.now));
        }
        self.kv.with_mut(|kv| kv.compact_wal());
        self.metrics.incr("kvstore.wal.compactions", 1);
        let (frames_after, bytes_after) =
            self.kv.with_read(|kv| (kv.wal_frames(), kv.wal_bytes_len()));
        self.metrics.observe("kvstore.wal.frames", frames_after);
        self.metrics.observe("kvstore.wal.bytes", bytes_after);
        Ok(TickReport {
            work_done: frames.saturating_sub(frames_after),
            backlog_hint: 0,
            finished_at: ctx.now,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compacts_when_triggered_and_reports_metrics() -> Result<()> {
        let kv = SharedKv::new();
        let metrics = Metrics::new();
        let chore = WalCompactionChore::new(kv.clone(), metrics.clone());
        // Below trigger: idle.
        for i in 0..4u32 {
            kv.put(b"hot".to_vec(), i.to_le_bytes().to_vec());
        }
        let r = chore.tick(&IoCtx::new(0))?;
        assert_eq!(r.work_done, 0);
        assert_eq!(metrics.counter("kvstore.wal.compactions"), 0);
        // Over trigger: compacts down to one frame.
        for i in 0..DEFAULT_FRAME_TRIGGER {
            kv.put(b"hot".to_vec(), i.to_le_bytes().to_vec());
        }
        let r = chore.tick(&IoCtx::new(1))?;
        assert_eq!(r.work_done, 4 + DEFAULT_FRAME_TRIGGER - 1);
        assert_eq!(kv.wal_frames(), 1);
        assert_eq!(metrics.counter("kvstore.wal.compactions"), 1);
        Ok(())
    }
}
