//! Storage pools: homogeneous groups of devices with redundancy-aware
//! extent placement.
//!
//! The paper's store layer divides physical disks into slices organized as
//! logical units across servers "to ensure data redundancy and load
//! balancing". Here a pool places each shard of a write on a distinct
//! device, choosing the device with the most free space (which converges to
//! balanced utilization), and records the placement in an [`ExtentHandle`]
//! the caller keeps for reads and GC.

use crate::device::{Device, DeviceHealth, MediaKind, OpTiming};
use common::clock::Nanos;
use common::ctx::IoCtx;
use common::{Bytes, Error, Result, SimClock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Placement record for one logical extent: where each shard landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentHandle {
    /// Logical extent id, unique within the pool.
    pub id: u64,
    /// `(device_index, device_extent_id)` per shard, in shard order.
    pub shards: Vec<(usize, u64)>,
}

impl ExtentHandle {
    /// Number of shards in this extent.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// A reserved placement for one stripe: the extent id and per-shard device
/// targets, chosen up front so the per-device writes can be issued
/// independently (e.g. fanned across worker threads) without racing the
/// placement state. Every target is a distinct device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPlan {
    /// Logical extent id, unique within the pool.
    pub extent_id: u64,
    /// `(device_index, device_extent_id)` per shard, in shard order.
    pub targets: Vec<(usize, u64)>,
}

impl PlacementPlan {
    /// The extent handle this plan describes once every shard is written.
    pub fn handle(&self) -> ExtentHandle {
        ExtentHandle { id: self.extent_id, shards: self.targets.clone() }
    }
}

/// Aggregate device-health counts for one pool — the circuit-breaker
/// view: a pool with `failed > 0` cannot place full-width stripes on
/// distinct healthy devices and front doors should stop admitting load
/// that will only queue against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolHealthSummary {
    /// Devices in the pool.
    pub devices: usize,
    /// Devices with the hard-failure flag set.
    pub failed: usize,
    /// Devices the placement heuristics consider suspect (includes failed).
    pub suspect: usize,
}

/// A named pool of same-media devices.
#[derive(Debug)]
pub struct StoragePool {
    name: String,
    kind: MediaKind,
    devices: Vec<Arc<Device>>,
    next_extent: AtomicU64,
    clock: SimClock,
}

impl StoragePool {
    /// Create a pool of `device_count` devices, each with `device_capacity`
    /// bytes, on the deployment timeline `clock`.
    pub fn new(
        name: impl Into<String>,
        kind: MediaKind,
        device_count: usize,
        device_capacity: u64,
        clock: SimClock,
    ) -> Self {
        let devices = (0..device_count)
            .map(|i| Arc::new(Device::new(i as u64, kind, device_capacity)))
            .collect();
        StoragePool { name: name.into(), kind, devices, next_extent: AtomicU64::new(1), clock }
    }

    /// The deployment's shared clock. No pool or device operation reads or
    /// advances it — virtual time travels in each op's [`IoCtx`] — so a
    /// caller that works on the shared timeline mints `IoCtx::new(now())`
    /// and `advance_to`s the returned finish itself.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Pool name (e.g. `"ssd-pool"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Media kind shared by every device in the pool.
    pub fn kind(&self) -> MediaKind {
        self.kind
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Access a device (for fault injection and inspection).
    pub fn device(&self, idx: usize) -> &Arc<Device> {
        &self.devices[idx]
    }

    /// Total pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.devices.iter().map(|d| d.capacity()).sum()
    }

    /// Bytes currently stored across all devices.
    pub fn used(&self) -> u64 {
        self.devices.iter().map(|d| d.used()).sum()
    }

    /// Fraction of capacity in use.
    pub fn utilization(&self) -> f64 {
        let cap = self.capacity();
        if cap == 0 {
            0.0
        } else {
            self.used() as f64 / cap as f64
        }
    }

    /// Placement candidates for a `take`-shard write: every non-failed
    /// device, narrowed to the non-suspect ones (clean error/corruption
    /// record, see [`DeviceHealth::is_suspect`]) whenever enough of those
    /// remain to hold every shard on a distinct device. With a fault-free
    /// pool the candidate set is exactly the old healthy set, so placement
    /// — and every virtual timing downstream — is unchanged.
    fn placement_candidates(&self, take: usize) -> Result<Vec<usize>> {
        let healthy: Vec<usize> = (0..self.devices.len())
            .filter(|&i| !self.devices[i].is_failed())
            .collect();
        if take > healthy.len() {
            return Err(Error::CapacityExhausted(format!(
                "pool {}: {} shards but only {} healthy devices",
                self.name,
                take,
                healthy.len()
            )));
        }
        let clean: Vec<usize> =
            healthy.iter().copied().filter(|&i| !self.devices[i].is_suspect()).collect();
        Ok(if clean.len() >= take { clean } else { healthy })
    }

    /// Per-device health snapshots, in device order.
    pub fn health(&self) -> Vec<DeviceHealth> {
        self.devices.iter().map(|d| d.health()).collect()
    }

    /// Aggregate health for breaker-style consumers: how many devices
    /// exist, how many are hard-failed, and how many the suspect
    /// heuristics would steer placement away from (failed devices are
    /// always suspect, so `suspect >= failed`).
    pub fn health_summary(&self) -> PoolHealthSummary {
        let mut summary =
            PoolHealthSummary { devices: self.devices.len(), failed: 0, suspect: 0 };
        for d in &self.devices {
            let h = d.health();
            if h.failed {
                summary.failed += 1;
            }
            if h.is_suspect() {
                summary.suspect += 1;
            }
        }
        summary
    }

    /// Record a checksum failure against the device that served shard
    /// `shard_idx` of `handle` (no-op for out-of-range handles, which can
    /// come from a corrupt index entry).
    pub fn note_corruption(&self, handle: &ExtentHandle, shard_idx: usize) {
        if let Some(&(dev_idx, _)) = handle.shards.get(shard_idx) {
            if let Some(d) = self.devices.get(dev_idx) {
                d.note_corruption();
            }
        }
    }

    /// Rewrite shard `shard_idx` of an existing extent in place (healing a
    /// corrupt copy on a live device); returns the completion time. Fails if
    /// the placement is unknown or the device rejects the write.
    pub fn rewrite_shard_ctx(
        &self,
        handle: &ExtentHandle,
        shard_idx: usize,
        data: Bytes,
        ctx: &IoCtx,
    ) -> Result<Nanos> {
        let &(dev_idx, dev_extent) = handle
            .shards
            .get(shard_idx)
            .ok_or_else(|| Error::InvalidArgument(format!("no shard {shard_idx} in handle")))?;
        let dev = self
            .devices
            .get(dev_idx)
            .ok_or_else(|| Error::NotFound(format!("device {dev_idx}")))?;
        Ok(dev.write_extent_ctx(dev_extent, data, ctx)?.finish)
    }

    /// Pick the `take` most-free healthy devices. An O(n) selection plus an
    /// O(take log take) sort of just the winners — the rest of the pool is
    /// never ordered. Ties break toward the lower device index, matching the
    /// stable most-free-first sort this replaces, so placement (and thus
    /// every virtual timing downstream) is unchanged.
    fn rank_most_free(&self, mut healthy: Vec<usize>, take: usize) -> Vec<usize> {
        let key = |i: &usize| (std::cmp::Reverse(self.devices[*i].free()), *i);
        if take < healthy.len() {
            healthy.select_nth_unstable_by_key(take, key);
            healthy.truncate(take);
        }
        healthy.sort_unstable_by_key(key);
        healthy
    }

    /// Write a set of shards, each to a distinct healthy device: one
    /// [`plan_shards`](Self::plan_shards) placement, then the shards in
    /// order through [`write_planned_shard`](Self::write_planned_shard).
    ///
    /// Shards are issued concurrently at `ctx.now` (one per device) and
    /// queued per the context's QoS class; the returned completion time is
    /// the latest shard finish. When any shard fails — e.g. with
    /// `Error::DeadlineExceeded` because it cannot finish inside the
    /// deadline — the shards already placed are rolled back.
    pub fn write_shards_ctx(&self, shards: &[Bytes], ctx: &IoCtx) -> Result<(ExtentHandle, Nanos)> {
        let plan = self.plan_shards(shards.len())?;
        let mut finish = ctx.now;
        for (shard_idx, shard) in shards.iter().enumerate() {
            match self.write_planned_shard(&plan, shard_idx, shard.clone(), ctx) {
                Ok(t) => finish = finish.max(t.finish),
                Err(e) => {
                    // The original write error takes precedence; a failed
                    // rollback leaves an orphan the scrub service reclaims.
                    self.delete(&plan.handle());
                    return Err(e);
                }
            }
        }
        Ok((plan.handle(), finish))
    }

    /// Reserve a placement for a `shard_count`-shard stripe without
    /// writing anything — the pool's one placement decision. Placement is
    /// most-free-first, which load-balances the pool, and fails if there
    /// are more shards than healthy devices (redundancy would be
    /// meaningless on co-located shards). The [`PlacementPlan`] lets the
    /// caller issue the per-device writes itself — sequentially or
    /// concurrently, since each target is a distinct device. Abandoned
    /// plans are rolled back with [`delete`](Self::delete) on
    /// [`PlacementPlan::handle`] (deleting a never-written target is a
    /// no-op).
    pub fn plan_shards(&self, shard_count: usize) -> Result<PlacementPlan> {
        if shard_count == 0 {
            return Err(Error::InvalidArgument("no shards to place".into()));
        }
        let healthy = self.placement_candidates(shard_count)?;
        let ranked = self.rank_most_free(healthy, shard_count);
        let extent_id = self.next_extent.fetch_add(1, Ordering::Relaxed);
        let targets = ranked
            .into_iter()
            .enumerate()
            .map(|(shard_idx, dev_idx)| (dev_idx, extent_id * 1024 + shard_idx as u64))
            .collect();
        Ok(PlacementPlan { extent_id, targets })
    }

    /// Write one shard of a planned stripe to its reserved target; returns
    /// the op timing. Per-device timing depends only on the device's prior
    /// state and `ctx.now` — not on host execution order across distinct
    /// devices, so planned shard writes may run on concurrent threads.
    pub fn write_planned_shard(
        &self,
        plan: &PlacementPlan,
        shard_idx: usize,
        data: Bytes,
        ctx: &IoCtx,
    ) -> Result<OpTiming> {
        let &(dev_idx, dev_extent) = plan
            .targets
            .get(shard_idx)
            .ok_or_else(|| Error::InvalidArgument(format!("no shard {shard_idx} in plan")))?;
        self.devices[dev_idx].write_extent_ctx(dev_extent, data, ctx)
    }

    /// Read every shard of an extent, issued concurrently at `ctx.now`;
    /// returns the shards plus the latest finish time across the per-device
    /// reads. Failed or missing shards come back as `None` for the
    /// redundancy layer to reconstruct, but a blown deadline is not
    /// survivable degradation — it propagates as `Error::DeadlineExceeded`.
    pub fn read_shards_ctx(
        &self,
        handle: &ExtentHandle,
        ctx: &IoCtx,
    ) -> Result<(Vec<Option<Bytes>>, Nanos)> {
        let mut finish = ctx.now;
        let mut shards = Vec::with_capacity(handle.shards.len());
        for &(dev_idx, dev_extent) in &handle.shards {
            match self.devices.get(dev_idx) {
                Some(d) => match d.read_extent_ctx(dev_extent, ctx) {
                    Ok((data, t)) => {
                        finish = finish.max(t.finish);
                        shards.push(Some(data));
                    }
                    Err(Error::DeadlineExceeded(m)) => {
                        return Err(Error::DeadlineExceeded(m))
                    }
                    Err(_) => shards.push(None),
                },
                None => shards.push(None),
            }
        }
        Ok((shards, finish))
    }

    /// Delete all shards of an extent (garbage collection). Returns the
    /// physical bytes reclaimed across devices; shards on failed devices
    /// contribute 0 (their space is gone with the device either way).
    pub fn delete(&self, handle: &ExtentHandle) -> u64 {
        let mut freed = 0;
        for &(dev_idx, dev_extent) in &handle.shards {
            if let Some(d) = self.devices.get(dev_idx) {
                freed += d.delete_extent(dev_extent).unwrap_or(0);
            }
        }
        freed
    }

    /// Standard deviation of per-device utilization — the load-balance metric.
    pub fn utilization_stddev(&self) -> f64 {
        let utils: Vec<f64> = self
            .devices
            .iter()
            .map(|d| d.used() as f64 / d.capacity() as f64)
            .collect();
        let mean = utils.iter().sum::<f64>() / utils.len() as f64;
        (utils.iter().map(|u| (u - mean).powi(2)).sum::<f64>() / utils.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::size::MIB;

    fn pool(n: usize) -> StoragePool {
        StoragePool::new("test", MediaKind::NvmeSsd, n, 16 * MIB, SimClock::new())
    }

    fn write_one(p: &StoragePool, data: &[u8]) -> ExtentHandle {
        p.write_shards_ctx(&[Bytes::from_vec(data.to_vec())], &IoCtx::new(0)).unwrap().0
    }

    #[test]
    fn shards_land_on_distinct_devices() {
        let p = pool(4);
        let shards = vec![Bytes::from_vec(vec![1u8; 100]); 3];
        let (h, _) = p.write_shards_ctx(&shards, &IoCtx::new(0)).unwrap();
        let devices: std::collections::HashSet<usize> =
            h.shards.iter().map(|&(d, _)| d).collect();
        assert_eq!(devices.len(), 3);
    }

    #[test]
    fn too_many_or_zero_shards_rejected() {
        let p = pool(2);
        let shards = vec![Bytes::from_vec(vec![0u8; 10]); 3];
        assert!(matches!(
            p.write_shards_ctx(&shards, &IoCtx::new(0)),
            Err(Error::CapacityExhausted(_))
        ));
        assert!(matches!(
            p.write_shards_ctx(&[], &IoCtx::new(0)),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn read_returns_none_for_failed_device() {
        let p = pool(3);
        let shards = vec![Bytes::from_vec(vec![7u8; 64]); 3];
        let (h, finish) = p.write_shards_ctx(&shards, &IoCtx::new(0)).unwrap();
        let victim = h.shards[1].0;
        p.device(victim).fail();
        let (back, _) = p.read_shards_ctx(&h, &IoCtx::new(finish)).unwrap();
        assert!(back[0].is_some());
        assert!(back[1].is_none());
        assert!(back[2].is_some());
        assert_eq!(back[0].as_ref().unwrap(), &shards[0]);
    }

    #[test]
    fn writes_balance_across_devices() {
        let p = pool(4);
        for _ in 0..40 {
            write_one(&p, &[0u8; 1024]);
        }
        assert!(
            p.utilization_stddev() < 0.01,
            "most-free-first placement must balance, stddev={}",
            p.utilization_stddev()
        );
    }

    #[test]
    fn delete_frees_space() {
        let p = pool(2);
        let h = write_one(&p, &[0u8; 4096]);
        assert_eq!(p.used(), 4096);
        p.delete(&h);
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn failed_write_rolls_back_placed_shards() {
        // Device capacity 1 KiB; second shard exceeds free space on its device.
        let p = StoragePool::new("tiny", MediaKind::Scm, 2, 1024, SimClock::new());
        let shards = vec![Bytes::from_vec(vec![0u8; 512]), Bytes::from_vec(vec![0u8; 2048])];
        assert!(p.write_shards_ctx(&shards, &IoCtx::new(0)).is_err());
        assert_eq!(p.used(), 0, "partial write must be rolled back");
    }

    #[test]
    fn shard_io_overlaps_devices_and_never_advances_the_shared_clock() {
        let p = pool(4);
        let shards = vec![Bytes::from_vec(vec![0u8; 1024 * 1024]); 3];
        let (h, finish) = p.write_shards_ctx(&shards, &IoCtx::new(0)).unwrap();
        // All three shards start at t=0 on distinct devices, so completion is
        // one device's service time, not three.
        let one = MediaKind::NvmeSsd.service_time(1024 * 1024);
        assert!(finish < 2 * one, "finish={finish} one={one}");
        let (back, rfinish) = p.read_shards_ctx(&h, &IoCtx::new(finish)).unwrap();
        assert!(back.iter().all(|s| s.is_some()));
        assert!(rfinish > finish);
        assert_eq!(p.clock().now(), 0, "virtual time travels in the ctx, not the clock");
    }

    #[test]
    fn abandoned_plan_rolls_back_with_delete() {
        let p = pool(3);
        let plan = p.plan_shards(3).unwrap();
        // Only the first two shards land before the caller gives up.
        for i in 0..2 {
            p.write_planned_shard(&plan, i, Bytes::from_vec(vec![0u8; 512]), &IoCtx::new(0))
                .unwrap();
        }
        assert_eq!(p.used(), 1024);
        p.delete(&plan.handle()); // never-written third target is a no-op
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn single_shard_roundtrip() {
        let p = pool(2);
        let h = write_one(&p, b"payload");
        let (back, _) = p.read_shards_ctx(&h, &IoCtx::new(0)).unwrap();
        assert_eq!(back[0].as_deref(), Some(b"payload".as_ref()));
    }

    #[test]
    fn utilization_reports_fraction() {
        let p = pool(1);
        assert_eq!(p.utilization(), 0.0);
        write_one(&p, &vec![0u8; (4 * MIB) as usize]);
        assert!((p.utilization() - 0.25).abs() < 1e-9);
    }
}
