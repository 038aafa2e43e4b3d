//! Per-request I/O context: QoS, trace spans (§III).
//!
//! The paper's data-service layer multiplexes stream appends, table
//! commits, metadata operations and background jobs (archive, compaction,
//! WAN replication) over shared SSD/HDD pools. Every request entering that
//! stack carries an [`IoCtx`] instead of a bare `now: Nanos`, so each layer
//! can classify the request for device queueing and attribute its virtual
//! time to the right phase.
//!
//! Field ↔ paper mapping:
//!
//! * [`IoCtx::now`] — the request's virtual-time origin; the same
//!   simulated timeline every §III service (stream, table, metadata) is
//!   charged against.
//! * [`IoCtx::qos`] — which §III service class issued the request:
//!   [`QosClass::Foreground`] for producer/consumer/query traffic,
//!   [`QosClass::Background`] for archive + WAN replication shipping, and
//!   [`QosClass::Maintenance`] for compaction / snapshot expiry. Devices
//!   let foreground ops bypass the background queue (Fig 14's tail-latency
//!   behaviour depends on this separation).
//! * [`IoCtx::trace`] — a deterministic identity for the request, so a
//!   span sink can stitch the per-layer trail back together.
//! * span sink — the observability channel: each layer closes its work
//!   with a named [`Phase`] (`queue`, `device`, `wan`, `meta`) recorded
//!   into shared [`Metrics`] histograms (`phase.queue`, …) that `bench`
//!   renders as a per-figure latency breakdown table.

use crate::clock::Nanos;
use crate::metrics::Metrics;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use crate::lockwitness::TrackedMutex;

/// Histogram-name prefix under which span phases are recorded.
pub(crate) const PHASE_PREFIX: &str = "phase.";

/// Histogram-name prefix for the QoS-split phase view: each span is also
/// recorded under `qos.<class>.<phase>`, so the maintenance runtime can
/// watch *foreground* queue/device latency in isolation from its own
/// Maintenance-class traffic.
pub const QOS_PREFIX: &str = "qos.";

/// How many closed spans the sink retains for trail inspection. Phase
/// histograms are unaffected by this bound; only the replayable trail is.
pub(crate) const TRAIL_CAPACITY: usize = 4096;

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Service class of a request, used for device queue ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QosClass {
    /// Latency-sensitive client traffic (produce, fetch, query, commit).
    Foreground,
    /// Asynchronous data movement (archive, WAN replication).
    Background,
    /// Housekeeping (compaction, snapshot expiry, repair).
    Maintenance,
}

impl QosClass {
    /// Whether this class gets the foreground device lane.
    pub fn is_foreground(self) -> bool {
        matches!(self, QosClass::Foreground)
    }

    /// Stable lower-case name (metrics labels, reports).
    pub fn name(self) -> &'static str {
        match self {
            QosClass::Foreground => "foreground",
            QosClass::Background => "background",
            QosClass::Maintenance => "maintenance",
        }
    }
}

/// The latency phase a layer attributes its virtual time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Waiting for the device queue (and retry backoff waits).
    Queue,
    /// Device service time (media latency + streaming).
    Device,
    /// Network transfer: data-bus fabric and cross-region WAN shipping.
    Wan,
    /// Metadata operations (KV lookups, catalog/commit bookkeeping).
    Meta,
}

impl Phase {
    /// Stable lower-case name; `phase.<name>` is the histogram key.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::Device => "device",
            Phase::Wan => "wan",
            Phase::Meta => "meta",
        }
    }

    /// The metrics histogram this phase records into.
    pub(crate) fn histogram(self) -> String {
        format!("{PHASE_PREFIX}{}", self.name())
    }
}

/// One closed span: a layer's contribution to a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace id of the owning request.
    pub trace: u64,
    /// Phase the time is attributed to.
    pub phase: Phase,
    /// Service class of the owning request.
    pub(crate) qos: QosClass,
    /// Virtual start of the phase.
    pub start: Nanos,
    /// Virtual duration of the phase.
    pub duration: Nanos,
}

/// Destination for closed spans: feeds the per-phase histograms and keeps
/// a bounded trail of recent records for debugging and tests.
#[derive(Debug)]
pub struct SpanSink {
    metrics: Metrics,
    trail: TrackedMutex<VecDeque<SpanRecord>>,
}

impl Default for SpanSink {
    fn default() -> Self {
        SpanSink::new(Metrics::default())
    }
}

impl SpanSink {
    /// A sink recording into `metrics`.
    pub fn new(metrics: Metrics) -> Self {
        SpanSink { metrics, trail: TrackedMutex::new("common.span.trail", VecDeque::new()) }
    }

    /// The metrics registry phases are recorded into.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Record one closed span.
    pub(crate) fn record(&self, rec: SpanRecord) {
        self.metrics.observe(&rec.phase.histogram(), rec.duration);
        self.metrics.observe(
            &format!("{QOS_PREFIX}{}.{}", rec.qos.name(), rec.phase.name()),
            rec.duration,
        );
        let mut trail = self.trail.lock();
        if trail.len() == TRAIL_CAPACITY {
            trail.pop_front();
        }
        trail.push_back(rec);
    }

    /// The retained trail, oldest first.
    pub fn trail(&self) -> Vec<SpanRecord> {
        self.trail.lock().iter().cloned().collect()
    }

    /// Per-phase `(phase, summary)` rows for every phase with samples.
    pub fn phase_view(&self) -> Vec<(String, crate::metrics::HistogramSummary)> {
        self.metrics.histograms_with_prefix(PHASE_PREFIX)
    }
}

/// A cheaply-clonable per-request context threaded through every layer of
/// the storage stack in place of a raw `now: Nanos`.
#[derive(Debug, Clone)]
pub struct IoCtx {
    /// Virtual-time origin of this (stage of the) request.
    pub now: Nanos,
    /// Service class for device queueing.
    pub qos: QosClass,
    /// Deterministic trace id of the request.
    pub trace: u64,
    sink: Option<Arc<SpanSink>>,
}

impl IoCtx {
    /// A fresh foreground context at `now`, with no sink.
    pub fn new(now: Nanos) -> Self {
        IoCtx {
            now,
            qos: QosClass::Foreground,
            trace: NEXT_TRACE.fetch_add(1, Ordering::Relaxed),
            sink: None,
        }
    }

    /// The same request rebased to a later virtual time (used when a layer
    /// chains sub-operations through returned finish times).
    pub fn at(&self, now: Nanos) -> Self {
        IoCtx { now, ..self.clone() }
    }

    /// Same request, reclassified.
    pub fn with_qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }

    /// Same request, recording spans into `sink`.
    pub fn with_sink(mut self, sink: Arc<SpanSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Same request, with span recording detached. Used when work is fanned
    /// across helper threads: the fan-out site replays the spans in a
    /// deterministic order afterwards, so concurrent recording must not
    /// race the sink's (windowed) histograms.
    pub fn without_sink(mut self) -> Self {
        self.sink = None;
        self
    }

    /// Close a span: attribute `duration` starting at `start` to `phase`.
    /// A no-op without a sink; zero durations are recorded so lightly
    /// loaded phases still produce samples.
    pub fn record(&self, phase: Phase, start: Nanos, duration: Nanos) {
        if let Some(sink) = &self.sink {
            sink.record(SpanRecord {
                trace: self.trace,
                phase,
                qos: self.qos,
                start,
                duration,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebasing_preserves_identity_and_budget() {
        let ctx = IoCtx::new(0).with_qos(QosClass::Background);
        let later = ctx.at(400);
        assert_eq!(later.trace, ctx.trace);
        assert_eq!(later.qos, QosClass::Background);
        assert_eq!(later.now, 400);
    }

    #[test]
    fn sink_feeds_phase_histograms_and_trail() {
        let sink = Arc::new(SpanSink::new(Metrics::new()));
        let ctx = IoCtx::new(0).with_sink(sink.clone());
        ctx.record(Phase::Queue, 0, 0);
        ctx.record(Phase::Device, 0, 80_000);
        ctx.record(Phase::Device, 80_000, 120_000);
        let view = sink.phase_view();
        assert_eq!(view.len(), 2);
        assert_eq!(view[0].0, "device");
        assert_eq!(view[0].1.count, 2);
        assert_eq!(view[1].0, "queue");
        assert_eq!(view[1].1.count, 1, "zero durations still count as samples");
        let trail = sink.trail();
        assert_eq!(trail.len(), 3);
        assert!(trail.iter().all(|r| r.trace == ctx.trace));
    }

    #[test]
    fn spans_split_by_qos_class() {
        let sink = Arc::new(SpanSink::new(Metrics::new()));
        let fg = IoCtx::new(0).with_sink(sink.clone());
        let mx = IoCtx::new(0).with_qos(QosClass::Maintenance).with_sink(sink.clone());
        fg.record(Phase::Queue, 0, 10);
        fg.record(Phase::Queue, 10, 30);
        mx.record(Phase::Queue, 0, 9_000);
        let fg_q = sink.metrics().histogram("qos.foreground.queue").unwrap();
        assert_eq!(fg_q.count, 2);
        assert_eq!(fg_q.max, 30, "maintenance latency must not leak into the foreground view");
        let mx_q = sink.metrics().histogram("qos.maintenance.queue").unwrap();
        assert_eq!(mx_q.count, 1);
        // The combined phase histogram still sees everything.
        assert_eq!(sink.metrics().histogram("phase.queue").unwrap().count, 3);
    }

    #[test]
    fn trail_is_bounded() {
        let sink = SpanSink::new(Metrics::new());
        for i in 0..(TRAIL_CAPACITY as u64 + 10) {
            sink.record(SpanRecord {
                trace: 1,
                phase: Phase::Meta,
                qos: QosClass::Foreground,
                start: i,
                duration: 1,
            });
        }
        let trail = sink.trail();
        assert_eq!(trail.len(), TRAIL_CAPACITY);
        assert_eq!(trail[0].start, 10, "oldest records evicted first");
    }
}
