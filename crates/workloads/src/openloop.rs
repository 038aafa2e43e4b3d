//! Open-loop multi-tenant arrival schedules with Zipf tenant skew.
//!
//! The front door's "millions of clients" axis: a large client population
//! is mapped onto a much smaller tenant set by a seeded Zipf draw (a few
//! tenants dominate, the tail is long), and requests arrive open-loop — at
//! a constant aggregate rate in virtual time, regardless of how fast the
//! system absorbs them. The schedule is a pure function of the spec, so
//! the same seed drives byte-identical admission decisions downstream.

use crate::zipf::Zipf;
use common::clock::Nanos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An open-loop, Zipf-skewed multi-tenant arrival schedule.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopSpec {
    /// Modeled client population (client ids are drawn from `0..clients`).
    pub clients: u64,
    /// Number of tenants the population maps onto.
    pub tenants: usize,
    /// Zipf exponent of the tenant skew (0 = uniform, ~1 = web-like).
    pub theta: f64,
    /// Aggregate arrival rate, requests per virtual second.
    pub rate_per_sec: u64,
    /// Total arrivals to schedule.
    pub total: u64,
    /// Seed for the tenant/client draws.
    pub seed: u64,
}

/// One scheduled request arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival time.
    pub at: Nanos,
    /// Tenant index in `0..tenants` (rank 0 is the hottest).
    pub tenant: usize,
    /// Client id in `0..clients`.
    pub client: u64,
}

impl OpenLoopSpec {
    /// The full deterministic schedule, in arrival order.
    pub fn schedule(&self) -> Vec<Arrival> {
        let zipf = Zipf::new(self.tenants.max(1), self.theta);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let rate = self.rate_per_sec.max(1);
        (0..self.total)
            .map(|i| Arrival {
                at: i * 1_000_000_000 / rate,
                tenant: zipf.sample(&mut rng),
                client: rng.gen_range(0..self.clients.max(1)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> OpenLoopSpec {
        OpenLoopSpec {
            clients: 1_000_000,
            tenants: 20,
            theta: 1.1,
            rate_per_sec: 1000,
            total: 5000,
            seed: 9,
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        assert_eq!(spec().schedule(), spec().schedule());
        let other = OpenLoopSpec { seed: 10, ..spec() };
        assert_ne!(spec().schedule(), other.schedule(), "seed must matter");
    }

    #[test]
    fn arrivals_are_open_loop_spaced() {
        let s = spec().schedule();
        assert_eq!(s[0].at, 0);
        assert_eq!(s[1].at, 1_000_000, "1 ms apart at 1k/s");
        assert_eq!(s.last().unwrap().at, 4999 * 1_000_000);
    }

    #[test]
    fn tenant_skew_concentrates_on_the_head() {
        let s = spec().schedule();
        let head = s.iter().filter(|a| a.tenant == 0).count();
        let tail = s.iter().filter(|a| a.tenant == 19).count();
        assert!(head > 10 * tail.max(1), "rank 0 must dominate: {head} vs {tail}");
        assert!(s.iter().all(|a| a.tenant < 20));
    }

    #[test]
    fn clients_span_the_modeled_population() {
        let s = spec().schedule();
        assert!(s.iter().all(|a| a.client < 1_000_000));
        let mut ids: Vec<u64> = s.iter().map(|a| a.client).collect();
        ids.sort_unstable();
        ids.dedup();
        // 5000 draws from a million ids collide rarely.
        assert!(ids.len() > 4900, "distinct clients: {}", ids.len());
    }
}
