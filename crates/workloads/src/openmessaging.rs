//! OpenMessaging-style load generation (§VII-C).
//!
//! "We select OpenMessaging as our benchmark … Messages are sent from
//! producers to consumers in a fixed size of 1 KB." A [`LoadSpec`] emits an
//! open-loop, constant-rate arrival schedule in virtual time; the
//! [`LatencyRecorder`] aggregates produce latencies into the percentiles
//! Fig 14(a) plots.

use common::clock::Nanos;

/// Fixed OpenMessaging message size.
pub(crate) const MESSAGE_BYTES: usize = 1024;

/// An open-loop constant-rate load.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Target messages per second.
    pub(crate) rate_per_sec: u64,
    /// Total messages to send.
    pub total_messages: u64,
    /// Message payload bytes (default [`MESSAGE_BYTES`]).
    pub message_bytes: usize,
}

impl LoadSpec {
    /// A spec sending `total` messages at `rate` messages per second.
    pub fn new(rate_per_sec: u64, total_messages: u64) -> Self {
        LoadSpec { rate_per_sec: rate_per_sec.max(1), total_messages, message_bytes: MESSAGE_BYTES }
    }

    /// Virtual arrival time of message `i` (uniform spacing).
    pub fn arrival(&self, i: u64) -> Nanos {
        i * 1_000_000_000 / self.rate_per_sec
    }

    /// Duration of the full run at the target rate.
    pub fn duration(&self) -> Nanos {
        self.arrival(self.total_messages)
    }
}

/// Collects latency samples and reports percentiles.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    samples: Vec<Nanos>,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample.
    pub fn record(&mut self, latency: Nanos) {
        self.samples.push(latency);
    }

    /// Nearest-rank percentile (`q` in 0..=1). `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<Nanos> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Arithmetic mean. `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_evenly_spaced() {
        let spec = LoadSpec::new(1000, 10);
        assert_eq!(spec.arrival(0), 0);
        assert_eq!(spec.arrival(1), 1_000_000); // 1 ms apart at 1k/s
        assert_eq!(spec.duration(), 10_000_000);
    }

    #[test]
    fn higher_rate_means_denser_arrivals() {
        let slow = LoadSpec::new(100, 100);
        let fast = LoadSpec::new(10_000, 100);
        assert!(fast.duration() < slow.duration());
    }

    #[test]
    fn percentiles_ordered() {
        let mut r = LatencyRecorder::new();
        for v in [5u64, 1, 9, 3, 7] {
            r.record(v);
        }
        assert_eq!(r.percentile(0.5), Some(5));
        assert_eq!(r.percentile(1.0), Some(9));
        assert_eq!(r.percentile(0.01), Some(1));
        assert_eq!(r.mean(), Some(5.0));
        assert_eq!(r.samples.len(), 5);
    }

    #[test]
    fn empty_recorder_returns_none() {
        let r = LatencyRecorder::new();
        assert!(r.percentile(0.5).is_none());
        assert!(r.mean().is_none());
        assert!(r.samples.is_empty());
    }
}
