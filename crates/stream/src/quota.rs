//! Per-partition rate limiting.
//!
//! "The quota configuration sets the maximum processing rate for each
//! stream" (§V-A): a [`NanoBucket`] over virtual time with a burst of one
//! second's worth of tokens. The bucket's integer nano-token arithmetic
//! makes the same admission schedule produce the same decisions byte for
//! byte on every run and every platform (a unit test below pins this).

use common::bucket::NanoBucket;
use common::clock::secs;
use common::ctx::IoCtx;
use common::{Error, Result};

/// Token-bucket limiter: at most `rate` messages per virtual second, with a
/// burst of one second's allowance.
#[derive(Debug)]
pub struct QuotaLimiter {
    bucket: NanoBucket,
}

impl QuotaLimiter {
    /// A limiter admitting `rate_per_sec` messages per second.
    pub fn new(rate_per_sec: u64) -> Self {
        QuotaLimiter { bucket: NanoBucket::new(rate_per_sec, secs(1)) }
    }

    /// Configured rate.
    pub fn rate(&self) -> u64 {
        self.bucket.rate()
    }

    /// Try to admit `n` messages at `ctx`'s virtual time; returns
    /// `QuotaExceeded` when the bucket is empty.
    pub fn try_acquire(&mut self, n: u64, ctx: &IoCtx) -> Result<()> {
        self.bucket.try_acquire(n, ctx.now).map_err(|_wait| {
            Error::QuotaExceeded(format!(
                "requested {n}, {} tokens available at rate {}/s",
                self.bucket.available(),
                self.bucket.rate()
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::clock::{millis, Nanos};

    #[test]
    fn admits_up_to_burst_then_rejects() {
        let mut q = QuotaLimiter::new(100);
        assert!(q.try_acquire(100, &IoCtx::new(0)).is_ok());
        assert!(matches!(q.try_acquire(1, &IoCtx::new(0)), Err(Error::QuotaExceeded(_))));
    }

    #[test]
    fn refills_with_time() {
        let mut q = QuotaLimiter::new(1000);
        q.try_acquire(1000, &IoCtx::new(0)).unwrap();
        assert!(q.try_acquire(1, &IoCtx::new(0)).is_err());
        // 100 ms later: 100 tokens refilled
        assert!(q.try_acquire(100, &IoCtx::new(millis(100))).is_ok());
        assert!(q.try_acquire(1, &IoCtx::new(millis(100))).is_err());
    }

    #[test]
    fn bucket_caps_at_one_second_of_tokens() {
        let mut q = QuotaLimiter::new(10);
        // A long idle period must not bank more than `rate` tokens.
        assert!(q.try_acquire(10, &IoCtx::new(secs(100))).is_ok());
        assert!(q.try_acquire(1, &IoCtx::new(secs(100))).is_err());
    }

    #[test]
    fn time_going_backwards_is_harmless() {
        let mut q = QuotaLimiter::new(10);
        q.try_acquire(5, &IoCtx::new(secs(1))).unwrap();
        // an earlier timestamp neither refills nor panics
        assert!(q.try_acquire(5, &IoCtx::new(millis(500))).is_ok());
        assert!(q.try_acquire(1, &IoCtx::new(millis(500))).is_err());
    }

    #[test]
    fn sustained_rate_matches_configuration() {
        let mut q = QuotaLimiter::new(500);
        let mut admitted = 0u64;
        // Offer 100 msgs every 100 ms for 10 virtual seconds at t >= 1s.
        for step in 0..100u64 {
            let now = secs(1) + step * millis(100);
            if q.try_acquire(100, &IoCtx::new(now)).is_ok() {
                admitted += 100;
            }
        }
        // 10 s at 500/s plus the initial burst: within [5000, 5600].
        assert!((5000..=5600).contains(&admitted), "admitted={admitted}");
    }

    #[test]
    fn sub_token_refills_are_exact_not_rounded() {
        // 3 tokens/s: one token takes 333,333,333.3 ns. Integer nano-token
        // math accumulates the fractional thirds exactly: after draining
        // the burst, 333 ms is one ns short of a token, 334 ms is over.
        let mut q = QuotaLimiter::new(3);
        q.try_acquire(3, &IoCtx::new(0)).unwrap();
        assert!(q.try_acquire(1, &IoCtx::new(millis(333))).is_err());
        assert!(q.try_acquire(1, &IoCtx::new(millis(334))).is_ok());
    }

    #[test]
    fn admission_decisions_are_pinned_for_a_fixed_schedule() {
        // The determinism contract: this exact (time, n) schedule admits
        // exactly this decision string, byte for byte, on every run and
        // every platform. f64 token math could drift per target; integer
        // nano-tokens cannot.
        let schedule: &[(Nanos, u64)] = &[
            (0, 7),
            (0, 4),
            (millis(50), 1),
            (millis(300), 2),
            (millis(300), 1),
            (millis(999), 4),
            (secs(1), 1),
            (secs(1) + millis(100), 1),
            (secs(1) + millis(100), 1),
            (secs(2), 9),
            (secs(2), 1),
            (millis(1500), 1), // time going backwards: no refill
            (secs(3), 10),
            (secs(3), 1),
        ];
        let decide = || {
            let mut q = QuotaLimiter::new(10);
            let mut out = String::new();
            for &(t, n) in schedule {
                out.push(if q.try_acquire(n, &IoCtx::new(t)).is_ok() { 'A' } else { 'R' });
            }
            out
        };
        let got = decide();
        assert_eq!(got, "ARAAAAAAAAARAR", "admission schedule drifted");
        // And byte-identical across limiter instances.
        assert_eq!(got, decide());
    }
}
