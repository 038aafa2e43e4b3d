//! An integer nano-token bucket over virtual time.
//!
//! The one rate limiter in the workspace: per-partition stream quotas
//! ("the quota configuration sets the maximum processing rate for each
//! stream", §V-A) and the front door's per-tenant admission both refill
//! through it.
//!
//! Arithmetic is exact: the bucket holds **nano-tokens** (one token =
//! 10⁹ nano-tokens) in integers, and an elapsed span of `e` nanoseconds at
//! `rate` tokens/second refills exactly `e × rate` nano-tokens — no
//! floating point anywhere, so the same admission schedule produces the
//! same decisions byte for byte on every run and every platform.

use crate::clock::Nanos;

/// Nano-tokens per token: refill math stays in integers because
/// `tokens/sec × elapsed_ns` *is* the nano-token count.
const NANO: u128 = 1_000_000_000;

/// Token bucket admitting `rate` tokens per virtual second, holding at
/// most `burst_window` worth of them.
#[derive(Debug)]
pub struct NanoBucket {
    rate: u64,
    /// `rate × burst_window` nano-tokens, floored at one whole token so any
    /// nonzero rate can make progress. Rate 0 holds nothing.
    capacity: u128,
    nano: u128,
    last: Nanos,
}

impl NanoBucket {
    /// A full bucket refilling at `rate` tokens/second with a depth of
    /// `burst_window` nanoseconds of refill.
    pub fn new(rate: u64, burst_window: Nanos) -> Self {
        let capacity =
            if rate == 0 { 0 } else { (rate as u128 * burst_window as u128).max(NANO) };
        NanoBucket { rate, capacity, nano: capacity, last: 0 }
    }

    /// Configured refill rate in tokens per second.
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Whole tokens currently held (as of the last refill).
    pub fn available(&self) -> u64 {
        (self.nano / NANO) as u64
    }

    /// Admit `n` tokens at `now`, or the exact virtual-time wait until the
    /// bucket will have refilled enough (`Nanos::MAX` at rate 0). Time
    /// going backwards neither refills nor panics.
    pub fn try_acquire(&mut self, n: u64, now: Nanos) -> Result<(), Nanos> {
        if now > self.last {
            let elapsed = (now - self.last) as u128;
            // Exact: elapsed ns × (rate tokens/s) = elapsed × rate nano-tokens.
            self.nano = (self.nano + elapsed * self.rate as u128).min(self.capacity);
            self.last = now;
        }
        let need = n as u128 * NANO;
        if self.nano >= need {
            self.nano -= need;
            Ok(())
        } else if self.rate == 0 {
            Err(Nanos::MAX)
        } else {
            let wait = (need - self.nano).div_ceil(self.rate as u128);
            Err(wait.min(Nanos::MAX as u128) as Nanos)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{millis, secs};

    #[test]
    fn refusal_reports_the_exact_wait() {
        let mut b = NanoBucket::new(10, secs(1));
        assert_eq!(b.try_acquire(10, 0), Ok(()));
        // One token at 10/s is exactly 100 ms away; after 40 ms, 60 ms.
        assert_eq!(b.try_acquire(1, 0), Err(millis(100)));
        assert_eq!(b.try_acquire(1, millis(40)), Err(millis(60)));
        assert_eq!(b.try_acquire(1, millis(100)), Ok(()));
    }

    #[test]
    fn depth_follows_the_burst_window_with_a_one_token_floor() {
        // 100/s over a 100 ms window holds 10 tokens, however long it idles.
        let mut b = NanoBucket::new(100, millis(100));
        assert_eq!(b.available(), 10);
        assert!(b.try_acquire(11, secs(50)).is_err());
        assert_eq!(b.try_acquire(10, secs(50)), Ok(()));
        // 1/s over 1 ms would hold a thousandth of a token: floored at one.
        assert_eq!(NanoBucket::new(1, millis(1)).try_acquire(1, 0), Ok(()));
        // Rate 0 holds nothing and never will.
        assert_eq!(NanoBucket::new(0, secs(1)).try_acquire(1, secs(9)), Err(Nanos::MAX));
    }

    #[test]
    fn time_going_backwards_is_harmless() {
        let mut b = NanoBucket::new(10, secs(1));
        b.try_acquire(5, secs(1)).unwrap();
        // an earlier timestamp neither refills nor panics
        assert!(b.try_acquire(5, millis(500)).is_ok());
        assert!(b.try_acquire(1, millis(500)).is_err());
    }

    #[test]
    fn sub_token_refills_are_exact_not_rounded() {
        // 3 tokens/s: one token takes 333,333,333.3 ns. Integer nano-token
        // math accumulates the fractional thirds exactly: after draining
        // the burst, 333 ms is one ns short of a token, 334 ms is over.
        let mut b = NanoBucket::new(3, secs(1));
        b.try_acquire(3, 0).unwrap();
        assert!(b.try_acquire(1, millis(333)).is_err());
        assert!(b.try_acquire(1, millis(334)).is_ok());
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
            let mut b = NanoBucket::new(10, secs(1));
            let mut out = String::new();
            for &(t, n) in schedule {
                out.push(if b.try_acquire(n, t).is_ok() { 'A' } else { 'R' });
            }
            out
        };
        let got = decide();
        assert_eq!(got, "ARAAAAAAAAARAR", "admission schedule drifted");
        // And byte-identical across bucket instances.
        assert_eq!(got, decide());
    }
}
