//! A minimal metrics registry.
//!
//! The benchmark harness records counters (bytes written, commits, conflicts)
//! and latency histograms (produce latency, metadata-op latency) against a
//! shared [`Metrics`] handle. Histograms store raw samples because the
//! experiment scales here are small enough that exact percentiles are cheaper
//! than maintaining sketch datastructures.

use std::collections::BTreeMap;
use std::sync::Arc;
use crate::lockwitness::TrackedMutex;

/// Shared registry of named counters and histograms.
#[derive(Debug, Clone)]
pub struct Metrics {
    inner: Arc<TrackedMutex<Inner>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics { inner: Arc::new(TrackedMutex::new("common.metrics", Inner::default())) }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Vec<u64>>,
}

/// Summary statistics of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: usize,
    /// Arithmetic mean of the samples.
    pub mean: f64,
    /// 50th percentile (nearest-rank).
    pub p50: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl Metrics {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the counter `name`, creating it at zero if absent.
    pub fn incr(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock();
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Record one histogram sample.
    pub fn observe(&self, name: &str, sample: u64) {
        let mut inner = self.inner.lock();
        inner.histograms.entry(name.to_string()).or_default().push(sample);
    }

    /// Summarize histogram `name`; `None` if it has no samples.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        let inner = self.inner.lock();
        let samples = inner.histograms.get(name)?;
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let count = sorted.len();
        let nearest = |q: f64| -> u64 {
            let rank = ((q * count as f64).ceil() as usize).clamp(1, count);
            sorted[rank - 1]
        };
        Some(HistogramSummary {
            count,
            mean: sorted.iter().sum::<u64>() as f64 / count as f64,
            p50: nearest(0.50),
            p99: nearest(0.99),
            max: *sorted.last().unwrap(),
        })
    }

    /// Summarize only the most recent `window` samples of histogram `name`;
    /// `None` if it has no samples. Histograms accumulate forever, so the
    /// full-history summary can never "recover" once a burst has inflated
    /// its tail — the maintenance runtime's backpressure sampling uses this
    /// windowed view so pressure clears when recent latency does.
    pub fn histogram_tail(&self, name: &str, window: usize) -> Option<HistogramSummary> {
        let inner = self.inner.lock();
        let samples = inner.histograms.get(name)?;
        if samples.is_empty() || window == 0 {
            return None;
        }
        let tail = &samples[samples.len().saturating_sub(window)..];
        let mut sorted = tail.to_vec();
        drop(inner);
        sorted.sort_unstable();
        let count = sorted.len();
        let nearest = |q: f64| -> u64 {
            let rank = ((q * count as f64).ceil() as usize).clamp(1, count);
            sorted[rank - 1]
        };
        Some(HistogramSummary {
            count,
            mean: sorted.iter().sum::<u64>() as f64 / count as f64,
            p50: nearest(0.50),
            p99: nearest(0.99),
            max: *sorted.last().unwrap(),
        })
    }

    /// Summaries of every histogram whose name starts with `prefix`, keyed
    /// by the name with the prefix stripped, sorted by that key. This is
    /// the per-phase view: `histograms_with_prefix("phase.")` yields one
    /// `(phase, summary)` row per span phase that recorded samples.
    pub fn histograms_with_prefix(&self, prefix: &str) -> Vec<(String, HistogramSummary)> {
        let names: Vec<String> = {
            let inner = self.inner.lock();
            inner
                .histograms
                .keys()
                .filter(|k| k.starts_with(prefix))
                .cloned()
                .collect()
        };
        names
            .into_iter()
            .filter_map(|name| {
                let summary = self.histogram(&name)?;
                Some((name[prefix.len()..].to_string(), summary))
            })
            .collect()
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .lock()
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x", 2);
        m.incr("x", 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank() {
        let m = Metrics::new();
        for v in 1..=100u64 {
            m.observe("lat", v);
        }
        let s = m.histogram("lat").unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn tail_view_forgets_old_bursts() {
        let m = Metrics::new();
        for _ in 0..50 {
            m.observe("lat", 1_000_000); // the burst
        }
        for _ in 0..50 {
            m.observe("lat", 10); // calm again
        }
        // Full history still remembers the burst at p99…
        assert_eq!(m.histogram("lat").unwrap().p99, 1_000_000);
        // …but the recent window has recovered.
        let tail = m.histogram_tail("lat", 32).unwrap();
        assert_eq!(tail.count, 32);
        assert_eq!(tail.p99, 10);
        // A window larger than the history is just the full history.
        assert_eq!(m.histogram_tail("lat", 1_000).unwrap().count, 100);
        assert!(m.histogram_tail("lat", 0).is_none());
        assert!(m.histogram_tail("nope", 8).is_none());
    }

    #[test]
    fn missing_histogram_is_none() {
        assert!(Metrics::new().histogram("nope").is_none());
    }

    #[test]
    fn prefix_view_strips_and_sorts() {
        let m = Metrics::new();
        m.observe("phase.queue", 5);
        m.observe("phase.device", 7);
        m.observe("phase.device", 9);
        m.observe("other", 1);
        let view = m.histograms_with_prefix("phase.");
        assert_eq!(view.len(), 2);
        assert_eq!(view[0].0, "device");
        assert_eq!(view[0].1.count, 2);
        assert_eq!(view[1].0, "queue");
    }

    #[test]
    fn clones_share_state() {
        let a = Metrics::new();
        let b = a.clone();
        a.incr("shared", 1);
        assert_eq!(b.counter("shared"), 1);
    }
}
