//! std-only stand-in for the `rand` crate (0.8 API subset).
//!
//! The build container has no registry access, so this crate satisfies the
//! workspace's `rand` dependency with exactly the surface the workspace
//! uses: `rngs::StdRng`, `SeedableRng::seed_from_u64`, and the `Rng`
//! methods `gen`, `gen_range`, `gen_bool`.
//!
//! Two deliberate differences from the real crate, both in service of the
//! determinism invariants this workspace enforces (DESIGN.md):
//!
//! * **No `thread_rng`, no `random`, no `from_entropy`, no `OsRng`.** Every
//!   generator must be explicitly seeded, so unseeded entropy is a
//!   *compile* error (rule R2).
//! * `StdRng` is a fixed xoshiro256++ — its stream never changes under
//!   rebuilds, so seeded workloads reproduce bit-for-bit forever.

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a source of uniform `u64`s.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Construction of a generator from an explicit seed.
pub trait SeedableRng: Sized {
    /// Derive the full generator state from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types producible by [`Rng::gen`] (rand's `Standard` distribution).
pub trait Standard: Sized {
    /// Sample one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Sample one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// User-facing generator methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value of type `T` (uniform bits; floats in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Sample uniformly from `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Bernoulli trial with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self.next_u64()) < p
    }

    /// Fill `dest` with random bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// `u64` bits → `f64` uniform in `[0, 1)`, using the top 53 bits.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64()) as f32
    }
}

/// Primitives samplable from a uniform range. The [`SampleRange`] impls
/// below are generic over this trait (one impl per range shape, not per
/// numeric type) so that literal ranges like `900.0..=110_000.0` resolve
/// through default float/integer fallback exactly as with the real crate.
pub trait UniformSample: Copy + PartialOrd {
    /// Uniform sample in `[start, end)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self;
    /// Uniform sample in `[start, end]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self {
                assert!(start < end, "gen_range called with empty range");
                let span = (end as i128 - start as i128) as u128;
                (start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self {
                assert!(start <= end, "gen_range called with empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_uniform_float {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self {
                assert!(start < end, "gen_range called with empty range");
                start + (end - start) * unit_f64(rng.next_u64()) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self {
                assert!(start <= end, "gen_range called with empty range");
                start + (end - start) * unit_f64(rng.next_u64()) as $t
            }
        }
    )*};
}
impl_uniform_float!(f32, f64);

impl<T: UniformSample> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: UniformSample> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = self.into_inner();
        T::sample_inclusive(rng, start, end)
    }
}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ seeded via
    /// SplitMix64. Fixed algorithm — seeded streams never change.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut state);
            }
            // xoshiro256++ requires a nonzero state; splitmix64 only yields
            // all-zero output from a measure-zero seed set, but guard anyway.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(10i64..20);
            assert!((10..20).contains(&v));
            let u = rng.gen_range(0usize..=5);
            assert!(u <= 5);
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let neg = rng.gen_range(-50i64..50);
            assert!((-50..50).contains(&neg));
        }
    }

    #[test]
    fn unit_floats_are_half_open() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let f = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        assert_ne!(buf, [0u8; 13]);
    }
}
