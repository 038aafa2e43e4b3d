//! A single simulated storage device.
//!
//! Each device owns a latency model derived from its media kind, a byte
//! store keyed by extent id, a service queue expressed as `busy_until`
//! virtual time, and a fault flag for failure-injection tests.

use common::clock::{micros, millis, Nanos};
use common::ctx::{IoCtx, Phase};
use common::{Bytes, Error, Result};
use std::collections::BTreeMap;
use common::lockwitness::TrackedMutex;

/// The physical media class of a device, which fixes its latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaKind {
    /// Storage-class memory (persistent memory): ~1 µs access, ~10 GiB/s.
    Scm,
    /// NVMe SSD: ~80 µs access, ~2 GiB/s.
    NvmeSsd,
    /// SAS HDD: ~4 ms positioning, ~200 MiB/s streaming.
    SasHdd,
}

impl MediaKind {
    /// Fixed per-operation latency (positioning / protocol overhead).
    pub fn base_latency(self) -> Nanos {
        match self {
            MediaKind::Scm => micros(1),
            MediaKind::NvmeSsd => micros(80),
            MediaKind::SasHdd => millis(4),
        }
    }

    /// Sustained transfer bandwidth in bytes per second.
    pub fn bandwidth_bytes_per_sec(self) -> u64 {
        match self {
            MediaKind::Scm => 10 * 1024 * 1024 * 1024,
            MediaKind::NvmeSsd => 2 * 1024 * 1024 * 1024,
            MediaKind::SasHdd => 200 * 1024 * 1024,
        }
    }

    /// Service time for transferring `bytes` (base latency + streaming time).
    pub fn service_time(self, bytes: u64) -> Nanos {
        let stream = bytes.saturating_mul(1_000_000_000) / self.bandwidth_bytes_per_sec();
        self.base_latency() + stream
    }
}

/// Result of a timed device operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// Virtual time at which the operation started service.
    pub start: Nanos,
    /// Virtual time at which the operation completed.
    pub finish: Nanos,
}

impl OpTiming {
    /// Service latency of the operation (queueing included).
    pub fn latency(&self) -> Nanos {
        self.finish - self.start
    }
}

/// Error/corruption count past which placement treats a device as suspect.
pub const SUSPECT_FAULT_THRESHOLD: u64 = 3;

/// Slow-I/O count past which placement treats a device as suspect (gray
/// failure: the device answers, but consistently late).
pub const SUSPECT_SLOW_IO_THRESHOLD: u64 = 32;

/// Point-in-time health snapshot of one device.
///
/// Counters accumulate from the device's own observations (`io_errors`,
/// `slow_ios`) and from the integrity layer calling
/// [`Device::note_corruption`] when a checksum fails on a shard this device
/// served. [`Device::heal`] resets all of them, as after a disk replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceHealth {
    /// Device id within its pool.
    pub device: u64,
    /// Permanently failed (data lost) until healed.
    pub failed: bool,
    /// I/O attempts rejected by a fault window or permanent failure.
    pub io_errors: u64,
    /// Ops served at degraded (gray-failure) speed.
    pub slow_ios: u64,
    /// Checksum failures attributed to this device by the integrity layer.
    pub corruptions: u64,
    /// Writes silently truncated by an injected torn-write window. The
    /// device never reports these to callers — the counter exists so chaos
    /// harnesses can correlate injected faults with detected ones.
    pub torn_writes: u64,
}

impl DeviceHealth {
    /// Whether placement should avoid this device when it has the choice.
    pub fn is_suspect(&self) -> bool {
        self.failed
            || self.io_errors + self.corruptions >= SUSPECT_FAULT_THRESHOLD
            || self.slow_ios >= SUSPECT_SLOW_IO_THRESHOLD
    }
}

#[derive(Debug, Default)]
struct DeviceState {
    /// Extent id → bytes. A `BTreeMap` so device dumps/iteration never
    /// depend on hash state (determinism sweep, PR 1). Values are [`Bytes`]
    /// handles: writes take ownership of the caller's buffer and reads hand
    /// back refcounted views, so the device itself never copies payload.
    extents: BTreeMap<u64, Bytes>,
    used: u64,
    /// The single service queue: when the device finishes everything
    /// currently accepted (foreground and background).
    busy_until: Nanos,
    /// The foreground lane: when the device finishes its accepted
    /// *foreground* work. Foreground ops queue only behind this, so
    /// background/maintenance traffic cannot delay them (QoS-aware
    /// queueing within the `busy_until` model).
    fg_busy_until: Nanos,
    failed: bool,
    /// Transient fault window: I/O issued before this virtual time fails
    /// with `Error::Io` but stored data survives (unlike [`Device::fail`]).
    failed_until: Nanos,
    /// Torn-write window: writes issued before this virtual time are
    /// acknowledged in full but store only a prefix of the payload.
    torn_until: Nanos,
    /// Gray-failure window: ops *starting* before this virtual time take
    /// `degrade_factor`× their normal service time.
    degraded_until: Nanos,
    degrade_factor: u64,
    reads: u64,
    writes: u64,
    io_errors: u64,
    slow_ios: u64,
    corruptions: u64,
    torn_writes: u64,
}

/// A simulated disk.
///
/// Operations serialize on the device: each op begins at
/// `max(ctx.now, busy_until)` of its QoS lane and advances `busy_until` by
/// its service time, modelling a single-queue disk. Virtual time comes in
/// with each op's [`IoCtx`] and goes out as its [`OpTiming`]; the device
/// never touches a shared clock, so ops on distinct devices issued at the
/// same `ctx.now` overlap and the caller combines their finish times.
#[derive(Debug)]
pub struct Device {
    id: u64,
    kind: MediaKind,
    capacity: u64,
    state: TrackedMutex<DeviceState>,
}

impl Device {
    /// Create a device of `kind` with `capacity` bytes.
    pub fn new(id: u64, kind: MediaKind, capacity: u64) -> Self {
        Device { id, kind, capacity, state: TrackedMutex::new("simdisk.device.state", DeviceState::default()) }
    }

    /// Device identifier (unique within its pool).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Media kind of this device.
    pub fn kind(&self) -> MediaKind {
        self.kind
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently stored.
    pub fn used(&self) -> u64 {
        self.state.lock().used
    }

    /// Bytes still allocatable.
    pub fn free(&self) -> u64 {
        self.capacity - self.used()
    }

    /// Mark the device failed: all subsequent I/O returns `Error::Io` until
    /// [`heal`](Self::heal). Stored bytes are considered lost.
    pub fn fail(&self) {
        let mut st = self.state.lock();
        st.failed = true;
        st.extents.clear();
        st.used = 0;
    }

    /// Inject a transient fault: I/O issued at a virtual time before
    /// `until` fails with `Error::Io`, but stored bytes survive. Models a
    /// slow-to-respond or briefly unreachable device that retry loops can
    /// ride out with virtual-time backoff.
    pub fn fail_until(&self, until: Nanos) {
        self.state.lock().failed_until = until;
    }

    /// Inject a gray failure: ops starting before `until` take `factor`×
    /// their normal service time and count as slow I/Os. An integer
    /// multiplier, so degraded timings stay exact in virtual time.
    pub fn degrade_until(&self, until: Nanos, factor: u64) {
        let mut st = self.state.lock();
        st.degraded_until = until;
        st.degrade_factor = factor.max(1);
    }

    /// Inject torn writes: a write issued before `until` is acknowledged as
    /// complete but stores only a prefix of the payload (power-loss-style
    /// partial write). The device stays silent about it — detection is the
    /// integrity layer's job.
    pub fn tear_writes_until(&self, until: Nanos) {
        self.state.lock().torn_until = until;
    }

    /// Silently flip bits in one stored extent (media decay / bit-rot).
    ///
    /// Picks the `pick % extent_count`-th extent in id order, XORs the byte
    /// at `offset_pick % len` with `mask`, and returns the `(extent_id,
    /// offset)` actually hit — or `None` when the device stores nothing, the
    /// chosen extent is empty, or `mask` is zero. The stored handle may be
    /// aliased by live readers and sibling replicas, so corruption is
    /// applied copy-on-write; the rewrite is simulated media decay, not a
    /// data-path copy, so it deliberately bypasses the payload-copy counter.
    pub fn corrupt_stored_byte(&self, pick: u64, offset_pick: u64, mask: u8) -> Option<(u64, usize)> {
        let mut st = self.state.lock();
        if st.extents.is_empty() || mask == 0 {
            return None;
        }
        let nth = (pick % st.extents.len() as u64) as usize;
        let extent_id = *st.extents.keys().nth(nth)?;
        let data = st.extents.get(&extent_id)?;
        if data.is_empty() {
            return None;
        }
        let offset = (offset_pick % data.len() as u64) as usize;
        let mut rotted = data.as_slice().to_vec();
        rotted[offset] ^= mask;
        st.extents.insert(extent_id, Bytes::from_vec(rotted));
        Some((extent_id, offset))
    }

    /// Record a checksum failure attributed to this device by the integrity
    /// layer (the device itself cannot see silent corruption).
    pub fn note_corruption(&self) {
        self.state.lock().corruptions += 1;
    }

    /// Point-in-time health snapshot.
    pub fn health(&self) -> DeviceHealth {
        let st = self.state.lock();
        DeviceHealth {
            device: self.id,
            failed: st.failed,
            io_errors: st.io_errors,
            slow_ios: st.slow_ios,
            corruptions: st.corruptions,
            torn_writes: st.torn_writes,
        }
    }

    /// Whether placement should avoid this device when it has the choice.
    pub fn is_suspect(&self) -> bool {
        self.health().is_suspect()
    }

    /// Clear the failure flag (the device returns empty, as after replacement).
    /// Also clears injected fault windows and health counters — a replaced
    /// disk starts with a clean record.
    pub fn heal(&self) {
        let mut st = self.state.lock();
        st.failed = false;
        st.failed_until = 0;
        st.torn_until = 0;
        st.degraded_until = 0;
        st.degrade_factor = 1;
        st.io_errors = 0;
        st.slow_ios = 0;
        st.corruptions = 0;
        st.torn_writes = 0;
    }

    /// Whether the device is currently failed.
    pub fn is_failed(&self) -> bool {
        self.state.lock().failed
    }

    /// Delete extent `extent_id`, freeing its space and returning the byte
    /// count reclaimed. Missing extents are a no-op (idempotent GC) that
    /// frees 0 bytes.
    pub fn delete_extent(&self, extent_id: u64) -> Result<u64> {
        let mut st = self.state.lock();
        if st.failed {
            return Err(Error::Io(format!("device {} failed", self.id)));
        }
        let freed = match st.extents.remove(&extent_id) {
            Some(e) => e.len() as u64,
            None => 0,
        };
        st.used -= freed;
        Ok(freed)
    }

    /// Whether the device currently stores `extent_id`.
    pub fn has_extent(&self, extent_id: u64) -> bool {
        self.state.lock().extents.contains_key(&extent_id)
    }

    /// (reads, writes) op counters.
    pub fn op_counts(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.reads, st.writes)
    }

    /// Write `data` as extent `extent_id`, replacing any previous content.
    ///
    /// The context supplies the issue time, the QoS class used for queue
    /// placement, and the optional deadline: an op whose completion would
    /// lie past the deadline returns `Error::DeadlineExceeded` and leaves
    /// the device (queue and contents) untouched.
    pub fn write_extent_ctx(
        &self,
        extent_id: u64,
        data: impl Into<Bytes>,
        ctx: &IoCtx,
    ) -> Result<OpTiming> {
        let data: Bytes = data.into();
        let mut st = self.state.lock();
        self.check_live(&mut st, ctx)?;
        let old = st.extents.get(&extent_id).map_or(0, |e| e.len() as u64);
        if st.used - old + data.len() as u64 > self.capacity {
            return Err(Error::CapacityExhausted(format!(
                "device {}: {} + {} > {}",
                self.id,
                st.used,
                data.len(),
                self.capacity
            )));
        }
        let timing = self.charge_ctx(&mut st, data.len() as u64, ctx)?;
        let data = self.maybe_tear(&mut st, data, ctx.now);
        st.used = st.used - old + data.len() as u64;
        st.extents.insert(extent_id, data);
        st.writes += 1;
        Ok(timing)
    }

    /// Read back extent `extent_id`. Deadline/QoS semantics as
    /// [`write_extent_ctx`](Self::write_extent_ctx).
    pub fn read_extent_ctx(&self, extent_id: u64, ctx: &IoCtx) -> Result<(Bytes, OpTiming)> {
        let mut st = self.state.lock();
        self.check_live(&mut st, ctx)?;
        let data = st
            .extents
            .get(&extent_id)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("extent {extent_id} on device {}", self.id)))?;
        let timing = self.charge_ctx(&mut st, data.len() as u64, ctx)?;
        st.reads += 1;
        Ok((data, timing))
    }

    /// Queue admission: pick the start slot for `ctx.qos` (foreground ops
    /// wait only for the foreground lane; background/maintenance ops wait
    /// for everything already accepted), stretch the media service time by
    /// the gray-failure factor while that window is open, reject with
    /// `Error::DeadlineExceeded` *before* mutating queue state when the op
    /// cannot finish inside the deadline, then charge the queue and close
    /// the `queue`/`device` spans.
    fn charge_ctx(&self, st: &mut DeviceState, bytes: u64, ctx: &IoCtx) -> Result<OpTiming> {
        let foreground = ctx.qos.is_foreground();
        let start = ctx.now.max(if foreground { st.fg_busy_until } else { st.busy_until });
        let degraded = start < st.degraded_until;
        let mut service = self.kind.service_time(bytes);
        if degraded {
            service = service.saturating_mul(st.degrade_factor.max(1));
        }
        let finish = start + service;
        ctx.check_deadline(finish)?;
        if degraded {
            st.slow_ios += 1;
        }
        if foreground {
            st.fg_busy_until = finish;
        }
        st.busy_until = st.busy_until.max(finish);
        ctx.record(Phase::Queue, ctx.now, start - ctx.now);
        ctx.record(Phase::Device, start, service);
        Ok(OpTiming { start, finish })
    }

    /// Apply the torn-write window: a write issued inside it is acknowledged
    /// but only a prefix of the payload reaches the media. The truncation is
    /// simulated media damage, not a data-path copy, so it bypasses the
    /// payload-copy counter (like [`corrupt_stored_byte`](Self::corrupt_stored_byte)).
    fn maybe_tear(&self, st: &mut DeviceState, data: Bytes, now: Nanos) -> Bytes {
        if now >= st.torn_until || data.len() < 2 {
            return data;
        }
        st.torn_writes += 1;
        let keep = data.len() / 2 + 1;
        Bytes::from_vec(data.as_slice()[..keep].to_vec())
    }

    /// Fault/deadline precedence, kept consistent across every op: a budget
    /// already exhausted at issue time (`ctx.now` past the deadline) beats
    /// fault state and returns `Error::DeadlineExceeded`; otherwise an
    /// active fault beats deadline math and returns retryable `Error::Io` —
    /// even when the deadline also lands inside the fault window — so
    /// redundancy fallback and virtual-time retry loops see the fault, and
    /// the retry loop converts it to `DeadlineExceeded` exactly when the
    /// budget runs out.
    fn check_live(&self, st: &mut DeviceState, ctx: &IoCtx) -> Result<()> {
        if let Some(d) = ctx.deadline {
            if ctx.now > d {
                return Err(Error::DeadlineExceeded(format!(
                    "op issued at {} on device {} past deadline {d} (trace {})",
                    ctx.now, self.id, ctx.trace
                )));
            }
        }
        if st.failed {
            st.io_errors += 1;
            return Err(Error::Io(format!("device {} failed", self.id)));
        }
        if ctx.now < st.failed_until {
            st.io_errors += 1;
            return Err(Error::Io(format!(
                "device {} transiently unavailable until {}",
                self.id, st.failed_until
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::ctx::QosClass;
    use common::size::MIB;

    fn dev(kind: MediaKind) -> Device {
        Device::new(0, kind, 64 * MIB)
    }

    fn at(now: Nanos) -> IoCtx {
        IoCtx::new(now)
    }

    #[test]
    fn service_time_orders_media() {
        let b = MIB;
        assert!(MediaKind::Scm.service_time(b) < MediaKind::NvmeSsd.service_time(b));
        assert!(MediaKind::NvmeSsd.service_time(b) < MediaKind::SasHdd.service_time(b));
    }

    #[test]
    fn write_read_roundtrip_charges_time() {
        let d = dev(MediaKind::NvmeSsd);
        let w = d.write_extent_ctx(1, b"hello", &at(0)).unwrap();
        assert!(w.finish > 0, "write must consume virtual time");
        let (data, timing) = d.read_extent_ctx(1, &at(w.finish)).unwrap();
        assert_eq!(data, b"hello");
        assert!(timing.latency() >= MediaKind::NvmeSsd.base_latency());
    }

    #[test]
    fn capacity_enforced_and_overwrite_replaces() {
        let d = Device::new(0, MediaKind::Scm, 10);
        d.write_extent_ctx(1, &[0u8; 8], &at(0)).unwrap();
        assert!(matches!(
            d.write_extent_ctx(2, &[0u8; 4], &at(0)),
            Err(Error::CapacityExhausted(_))
        ));
        // Overwriting extent 1 with a smaller payload frees space.
        d.write_extent_ctx(1, &[0u8; 2], &at(0)).unwrap();
        assert_eq!(d.used(), 2);
        d.write_extent_ctx(2, &[0u8; 8], &at(0)).unwrap();
        assert_eq!(d.used(), 10);
    }

    #[test]
    fn delete_is_idempotent_and_frees_space() {
        let d = dev(MediaKind::Scm);
        d.write_extent_ctx(7, &[1u8; 100], &at(0)).unwrap();
        assert_eq!(d.used(), 100);
        d.delete_extent(7).unwrap();
        assert_eq!(d.used(), 0);
        d.delete_extent(7).unwrap(); // no-op
        assert!(matches!(d.read_extent_ctx(7, &at(0)), Err(Error::NotFound(_))));
    }

    #[test]
    fn failed_device_rejects_io_and_loses_data() {
        let d = dev(MediaKind::NvmeSsd);
        d.write_extent_ctx(1, b"data", &at(0)).unwrap();
        d.fail();
        assert!(matches!(d.read_extent_ctx(1, &at(0)), Err(Error::Io(_))));
        assert!(matches!(d.write_extent_ctx(2, b"x", &at(0)), Err(Error::Io(_))));
        d.heal();
        // Data written before the failure is gone, as on a replaced disk.
        assert!(matches!(d.read_extent_ctx(1, &at(0)), Err(Error::NotFound(_))));
        assert_eq!(d.used(), 0);
    }

    #[test]
    fn queueing_serializes_operations() {
        let d = dev(MediaKind::SasHdd);
        let t1 = d.write_extent_ctx(1, &[0u8; 1024], &at(0)).unwrap();
        // Issued while earlier ops are still in flight: each waits for
        // everything already accepted on the lane.
        let t2 = d.write_extent_ctx(2, &[0u8; 1024], &at(0)).unwrap();
        assert_eq!(t2.start, t1.finish, "second op must wait for the first");
        let (_, t3) = d.read_extent_ctx(1, &at(1000)).unwrap();
        assert_eq!(t3.start, t2.finish);
    }

    #[test]
    fn ops_on_different_devices_overlap() {
        let a = Device::new(0, MediaKind::SasHdd, 64 * MIB);
        let b = Device::new(1, MediaKind::SasHdd, 64 * MIB);
        let ta = a.write_extent_ctx(1, &[0u8; 1024], &at(0)).unwrap();
        let tb = b.write_extent_ctx(1, &[0u8; 1024], &at(0)).unwrap();
        assert_eq!(ta.start, 0);
        assert_eq!(tb.start, 0, "independent devices must serve in parallel");
    }

    #[test]
    fn op_counters_track_reads_and_writes() {
        let d = dev(MediaKind::Scm);
        d.write_extent_ctx(1, b"a", &at(0)).unwrap();
        d.write_extent_ctx(2, b"b", &at(0)).unwrap();
        d.read_extent_ctx(1, &at(0)).unwrap();
        assert_eq!(d.op_counts(), (1, 2));
    }

    #[test]
    fn foreground_bypasses_background_queue() {
        let d = dev(MediaKind::SasHdd);
        let bg = d
            .write_extent_ctx(1, &[0u8; MIB as usize], &IoCtx::new(0).with_qos(QosClass::Background))
            .unwrap();
        // A foreground op issued while the background write is in flight
        // starts immediately — it does not wait out the background queue.
        let fg = d.write_extent_ctx(2, &[0u8; 1024], &IoCtx::new(0)).unwrap();
        assert_eq!(fg.start, 0, "foreground must not queue behind background");
        assert!(fg.finish < bg.finish);
        // But background work queues behind *everything* accepted so far.
        let bg2 = d
            .write_extent_ctx(3, b"x", &IoCtx::new(0).with_qos(QosClass::Maintenance))
            .unwrap();
        assert!(bg2.start >= bg.finish);
    }

    #[test]
    fn deadline_rejects_without_charging_queue() {
        let d = dev(MediaKind::SasHdd);
        // Saturate the foreground lane.
        let t1 = d.write_extent_ctx(1, &[0u8; MIB as usize], &IoCtx::new(0)).unwrap();
        // A queued op that cannot finish by its deadline is rejected …
        let err = d.write_extent_ctx(2, b"tiny", &IoCtx::new(0).with_deadline(millis(1)));
        assert!(matches!(err, Err(Error::DeadlineExceeded(_))), "{err:?}");
        // … and must not have been stored or have moved the queue.
        assert!(!d.has_extent(2));
        let t2 = d.write_extent_ctx(2, b"tiny", &IoCtx::new(0)).unwrap();
        assert_eq!(t2.start, t1.finish, "rejected op must leave the queue untouched");
    }

    #[test]
    fn transient_fault_window_preserves_data() {
        let d = dev(MediaKind::NvmeSsd);
        d.write_extent_ctx(1, b"keep", &IoCtx::new(0)).unwrap();
        d.fail_until(millis(10));
        let before = d.read_extent_ctx(1, &IoCtx::new(millis(5)));
        assert!(matches!(before, Err(Error::Io(_))), "{before:?}");
        // After the window the data is still there (unlike fail()).
        let (data, _) = d.read_extent_ctx(1, &IoCtx::new(millis(10))).unwrap();
        assert_eq!(data, b"keep");
        d.fail_until(millis(20));
        d.heal();
        d.read_extent_ctx(1, &IoCtx::new(millis(15))).unwrap();
    }

    #[test]
    fn open_budget_inside_fault_window_is_io_not_deadline() {
        // Precedence contract: the budget is still open at issue time, so
        // the active fault wins and surfaces as retryable Io — even though
        // the deadline lands inside the fault window. Pool fallback and
        // replication retry loops depend on seeing the fault, not a
        // premature DeadlineExceeded.
        let d = dev(MediaKind::NvmeSsd);
        d.write_extent_ctx(1, b"x", &IoCtx::new(0)).unwrap();
        d.fail_until(millis(10));
        let ctx = IoCtx::new(millis(2)).with_deadline(millis(5));
        let err = d.read_extent_ctx(1, &ctx);
        assert!(matches!(err, Err(Error::Io(_))), "{err:?}");
        let werr = d.write_extent_ctx(2, b"y", &ctx);
        assert!(matches!(werr, Err(Error::Io(_))), "{werr:?}");
    }

    #[test]
    fn exhausted_budget_wins_over_an_active_fault() {
        // The other half of the contract: issued past the deadline, the op
        // is DeadlineExceeded regardless of the device's fault state.
        let d = dev(MediaKind::NvmeSsd);
        d.write_extent_ctx(1, b"x", &IoCtx::new(0)).unwrap();
        d.fail_until(millis(10));
        let ctx = IoCtx::new(millis(6)).with_deadline(millis(5));
        let err = d.read_extent_ctx(1, &ctx);
        assert!(matches!(err, Err(Error::DeadlineExceeded(_))), "{err:?}");
        // And once the fault window closes, the same late ctx still loses.
        let late = IoCtx::new(millis(12)).with_deadline(millis(5));
        let err2 = d.read_extent_ctx(1, &late);
        assert!(matches!(err2, Err(Error::DeadlineExceeded(_))), "{err2:?}");
        // A fresh budget after the window succeeds.
        let ok = d.read_extent_ctx(1, &IoCtx::new(millis(12)).with_deadline(millis(30)));
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn health_counts_faulted_io_and_suspect_trips() {
        let d = dev(MediaKind::NvmeSsd);
        d.write_extent_ctx(1, b"x", &at(0)).unwrap();
        d.fail_until(millis(10));
        assert!(!d.is_suspect());
        for t in 0..SUSPECT_FAULT_THRESHOLD {
            let _ = d.read_extent_ctx(1, &IoCtx::new(millis(t)));
        }
        let h = d.health();
        assert_eq!(h.io_errors, SUSPECT_FAULT_THRESHOLD);
        assert!(d.is_suspect());
        d.heal();
        assert_eq!(d.health().io_errors, 0, "heal resets the counters");
        assert!(!d.is_suspect());
    }

    #[test]
    fn bit_rot_flips_exactly_one_stored_byte() {
        let d = dev(MediaKind::NvmeSsd);
        d.write_extent_ctx(5, vec![0u8; 64], &at(0)).unwrap();
        let (ext, off) = d.corrupt_stored_byte(0, 9, 0x04).unwrap();
        assert_eq!((ext, off), (5, 9));
        let (data, _) = d.read_extent_ctx(5, &at(0)).unwrap();
        let flipped: Vec<usize> =
            data.as_slice().iter().enumerate().filter(|(_, &b)| b != 0).map(|(i, _)| i).collect();
        assert_eq!(flipped, vec![9 % 64]);
        assert_eq!(data.as_slice()[9], 0x04);
        assert_eq!(d.health().corruptions, 0, "rot is silent until detected");
        // Rot on an empty device is a no-op, not an error.
        assert_eq!(dev(MediaKind::NvmeSsd).corrupt_stored_byte(0, 0, 0xff), None);
    }

    #[test]
    fn torn_window_stores_a_prefix_but_acks_and_charges_fully() {
        let d = dev(MediaKind::NvmeSsd);
        d.tear_writes_until(millis(10));
        let t = d.write_extent_ctx(1, vec![7u8; 1000], &at(millis(1))).unwrap();
        let full = MediaKind::NvmeSsd.service_time(1000);
        assert_eq!(t.finish - t.start, full, "torn write still charges full length");
        let (data, _) = d.read_extent_ctx(1, &at(t.finish)).unwrap();
        assert_eq!(data.len(), 501, "only the prefix hit the media");
        assert_eq!(d.health().torn_writes, 1);
        // Outside the window writes are whole again.
        let t2 = d.write_extent_ctx(2, vec![7u8; 1000], &at(millis(10))).unwrap();
        let (data2, _) = d.read_extent_ctx(2, &at(t2.finish)).unwrap();
        assert_eq!(data2.len(), 1000);
    }

    #[test]
    fn gray_degradation_multiplies_service_time_and_counts_slow_ios() {
        let d = dev(MediaKind::SasHdd);
        let base = d.write_extent_ctx(1, vec![0u8; 4096], &at(0)).unwrap();
        d.degrade_until(millis(100), 4);
        let slow = d.write_extent_ctx(2, vec![0u8; 4096], &at(base.finish)).unwrap();
        assert_eq!(
            slow.finish - slow.start,
            (base.finish - base.start) * 4,
            "gray window must multiply service time"
        );
        assert_eq!(d.health().slow_ios, 1);
        let after =
            d.write_extent_ctx(3, vec![0u8; 4096], &at(millis(100) + slow.finish)).unwrap();
        assert_eq!(after.finish - after.start, base.finish - base.start);
    }

    #[test]
    fn ctx_ops_record_queue_and_device_phases() {
        use common::ctx::SpanSink;
        use common::metrics::Metrics;
        use std::sync::Arc;
        let d = dev(MediaKind::NvmeSsd);
        let sink = Arc::new(SpanSink::new(Metrics::new()));
        let ctx = IoCtx::new(0).with_sink(sink.clone());
        d.write_extent_ctx(1, &[0u8; 4096], &ctx).unwrap();
        d.read_extent_ctx(1, &ctx).unwrap();
        let view = sink.phase_view();
        let get = |n: &str| view.iter().find(|(k, _)| k == n).map(|(_, s)| s.clone());
        assert_eq!(get("queue").unwrap().count, 2);
        let device = get("device").unwrap();
        assert_eq!(device.count, 2);
        assert!(device.max >= MediaKind::NvmeSsd.base_latency());
    }
}
