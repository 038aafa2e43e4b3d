//! The data exchange and interworking bus.
//!
//! The paper's bus supports RDMA, "which bypasses the CPU and L1 cache to
//! accelerate data transfer speeds" (§III). We model a transfer as a fixed
//! per-message software overhead plus link streaming time; RDMA's advantage
//! is a much smaller per-message cost and slightly higher achievable
//! bandwidth on the same link.

use common::clock::{micros, Nanos};

/// Transport used for a bus transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Remote Direct Memory Access: ~2 µs per message, near-line-rate.
    Rdma,
    /// Kernel TCP/IP: ~30 µs per message (syscalls, copies), reduced goodput.
    Tcp,
}

impl Transport {
    /// Fixed per-message software overhead.
    pub fn per_message_overhead(self) -> Nanos {
        match self {
            Transport::Rdma => micros(2),
            Transport::Tcp => micros(30),
        }
    }

    /// Achievable goodput on a 10 GbE link, bytes per second.
    pub fn goodput_bytes_per_sec(self) -> u64 {
        match self {
            Transport::Rdma => 1_200_000_000, // ~9.6 Gb/s
            Transport::Tcp => 900_000_000,    // protocol + copy overhead
        }
    }

    /// End-to-end transfer time for one message of `bytes`.
    pub fn transfer_time(self, bytes: u64) -> Nanos {
        self.per_message_overhead()
            + bytes.saturating_mul(1_000_000_000) / self.goodput_bytes_per_sec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdma_beats_tcp_for_small_messages() {
        // Small-message latency is dominated by per-message overhead, where
        // RDMA's CPU bypass shows up (paper: "reduces the switching overhead
        // in the TCP/IP protocol stack").
        let rdma = Transport::Rdma.transfer_time(1024);
        let tcp = Transport::Tcp.transfer_time(1024);
        assert!(tcp > 5 * rdma, "rdma={rdma} tcp={tcp}");
    }

    #[test]
    fn aggregation_amortizes_overhead() {
        // One 64 KiB transfer must be much cheaper than 64 × 1 KiB transfers:
        // this is why the stream service aggregates small I/O.
        let aggregated = Transport::Tcp.transfer_time(64 * 1024);
        let separate = 64 * Transport::Tcp.transfer_time(1024);
        assert!(separate > 2 * aggregated);
    }

    #[test]
    fn transfer_time_monotone_in_size() {
        for t in [Transport::Rdma, Transport::Tcp] {
            assert!(t.transfer_time(1) <= t.transfer_time(1_000_000));
        }
    }
}
