//! The one place the benchmark reads the host: wall clock and `/proc`.
//!
//! Everything below `benchmark/` that needs real time goes through
//! [`now`], so the repository's determinism lint (slint R1) sees exactly
//! two waived lines instead of a scattering of them.

// slint:allow(R1): the benchmark measures the real host, like crates/bench
use std::time::Instant;

/// A point on the host clock.
pub type Stamp = Instant;

/// The current host instant.
pub fn now() -> Stamp {
    // slint:allow(R1): the benchmark measures the real host, like crates/bench
    Instant::now()
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Stamp) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Stamp) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`) in MB, or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
