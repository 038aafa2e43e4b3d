//! Zipf-distributed sampling, used for skewed key/url/province choices.

use rand::Rng;

/// A Zipf(θ) sampler over `{0, …, n-1}` using the inverse-CDF method with a
/// precomputed cumulative table.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` items with exponent `theta` (0 = uniform; 1 ≈
    /// classic web skew). Panics if `n == 0`.
    pub(crate) fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf over empty domain");
        let mut weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        *weights.last_mut().unwrap() = 1.0; // guard against fp drift
        Zipf { cdf: weights }
    }

    /// Draw one index.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "{counts:?}");
        }
    }

    #[test]
    fn high_theta_concentrates_on_head() {
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(3);
        let head = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        assert!(head > 2_000, "rank 0 should dominate, got {head}");
    }

    #[test]
    fn singleton_domain_always_zero() {
        let z = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(z.sample(&mut rng), 0);
    }
}
