//! CRC32 (IEEE 802.3 polynomial) and FNV-1a, implemented from scratch.
//!
//! [`fnv1a`] is the workspace's one key hash: PLog shard placement, stream
//! partition routing, the baseline Kafka's partitioner and the
//! determinism journals' digests all go through it.
//!
//! CRC32 frames WAL records in `kvstore`, PLog entries, and the footer of
//! the columnar lake file format. Two kernels compute the same values:
//!
//! * on x86-64 CPUs with PCLMULQDQ (detected at run time), inputs of 64
//!   bytes or more fold 64 bytes per iteration with carry-less multiplies
//!   and finish with a Barrett reduction ([`clmul`]), the scheme of Intel's
//!   "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ";
//! * everywhere else, and for the tail under 16 bytes, a slice-by-8 table
//!   kernel: the running state is folded into the first word of each 8-byte
//!   chunk and the new state is assembled from eight precomputed tables.
//!
//! The scalar byte-at-a-time implementation is kept as the reference the
//! tables are derived from; proptests pin both kernels to it.
//!
//! Callers that budget hashing work (the PLog coalesced verify pass) can
//! audit how many bytes were actually digested on the current thread via
//! [`crc_hashed_bytes`].

#![expect(unsafe_code, reason = "R6: the workspace's only unsafe code, the PCLMULQDQ kernel and its feature-checked calls")]

use std::cell::Cell;
use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320; // reflected IEEE polynomial

/// How many bytes per iteration the table kernel consumes.
const LANES: usize = 8;

fn tables() -> &'static [[u32; 256]; LANES] {
    static TABLES: OnceLock<[[u32; 256]; LANES]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; LANES];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *e = crc;
        }
        // T[k][i] is the CRC contribution of byte `i` appearing `k` bytes
        // before the end of the chunk: one more zero byte folded through T[0].
        for k in 1..LANES {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

thread_local! {
    static HASHED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Total bytes digested by CRC updates on this thread so far. Monotonic;
/// take a delta around an operation to bound its hashing work in tests.
pub fn crc_hashed_bytes() -> u64 {
    HASHED_BYTES.with(|c| c.get())
}

/// Compute the CRC32 of `data` in one shot.
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Reference byte-at-a-time CRC32 (single table). The wide kernel in
/// [`Crc32::update`] must agree with this on every input; a proptest pins
/// the two together. Does not count toward [`crc_hashed_bytes`].
#[cfg(test)]
fn crc32_scalar(data: &[u8]) -> u32 {
    let t = &tables()[0];
    let mut s = 0xFFFF_FFFFu32;
    for &b in data {
        s = (s >> 8) ^ t[((s ^ b as u32) & 0xFF) as usize];
    }
    !s
}

/// Incremental CRC32 hasher for multi-part records.
#[derive(Debug, Clone)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh checksum.
    pub(crate) fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes into the checksum. Inlined across crates: without
    /// it, short inputs (WAL frames, index entries) measured a few ns per
    /// call slower than the table kernel alone.
    #[inline]
    pub(crate) fn update(&mut self, data: &[u8]) {
        HASHED_BYTES.with(|c| c.set(c.get() + data.len() as u64));
        let (mut s, mut rest) = (self.state, data);
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN && clmul::available() {
            // SAFETY: `available` just checked that this CPU has every
            // target feature `fold` is compiled for.
            (s, rest) = unsafe { clmul::fold(s, data) };
        }
        self.state = table_update(s, rest);
    }

    /// Finalize and return the checksum value.
    pub(crate) fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// The slice-by-8 kernel: fold `data` into the register state `s`.
fn table_update(mut s: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = data.chunks_exact(LANES);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ s;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        s = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        s = (s >> 8) ^ t[0][((s ^ b as u32) & 0xFF) as usize];
    }
    s
}

/// The carry-less-multiply kernel. Every fold multiplies 128 bits of
/// remainder by `x^k mod P` for the distance `k` it moves them, so the
/// constants below are those residues of the reflected IEEE polynomial
/// (bit-reflected and shifted left by one, as the reflected scheme needs).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the kernel takes: the four blocks of its first fold.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^(4·128+32)` and `x^(4·128-32)` mod P: fold 512 bits forward.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32)` and `x^(128-32)` mod P: fold 128 bits forward.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64` mod P: reduce 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// P itself and `μ = floor(x^64 / P)`, for the Barrett reduction.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU runs [`fold`].
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Fold the longest multiple of 16 bytes at the front of `data` (at
    /// least [`MIN_LEN`] long) into the register state `state`. Returns
    /// the new state and the unconsumed tail (under 16 bytes).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(state: u32, mut data: &[u8]) -> (u32, &[u8]) {
        let (Some(mut x3), Some(mut x2), Some(mut x1), Some(mut x0)) =
            (load(&mut data), load(&mut data), load(&mut data), load(&mut data))
        else {
            return (state, data);
        };
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            let (Some(a), Some(b), Some(c), Some(d)) =
                (load(&mut data), load(&mut data), load(&mut data), load(&mut data))
            else {
                break;
            };
            x3 = fold_into(x3, a, k1k2);
            x2 = fold_into(x2, b, k1k2);
            x1 = fold_into(x1, c, k1k2);
            x0 = fold_into(x0, d, k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(fold_into(fold_into(x3, x2, k3k4), x1, k3k4), x0, k3k4);
        while let Some(block) = load(&mut data) {
            x = fold_into(x, block, k3k4);
        }
        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction of the reflected 64-bit remainder to 32 bits.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        (_mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32, data)
    }

    /// The next 16 bytes of `data` as a vector, consuming them.
    fn load(data: &mut &[u8]) -> Option<__m128i> {
        let (block, rest) = data.split_first_chunk::<16>()?;
        *data = rest;
        // SAFETY: an unaligned load of exactly the 16 bytes of `block`.
        Some(unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) })
    }

    /// `acc · k` folded forward onto `block`: the low half of `acc`
    /// multiplied by the low key, the high half by the high key.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, block: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(block, lo), hi)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `data` in one shot.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(data);
    h.finish()
}

/// Incremental FNV-1a for multi-part digests: feeding the parts in order
/// equals [`fnv1a`] over their concatenation.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// Start at the offset basis.
    pub fn new() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Feed more bytes into the hash.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Standard CRC32 ("check" value) test vectors.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn scalar_reference_matches_known_vectors() {
        assert_eq!(crc32_scalar(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_scalar(b""), 0);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"hello streamlake world";
        let mut h = Crc32::new();
        h.update(&data[..5]);
        h.update(&data[5..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn hashed_byte_counter_tracks_updates() {
        let before = crc_hashed_bytes();
        crc32(&[0u8; 1000]);
        assert_eq!(crc_hashed_bytes() - before, 1000);
        crc32_scalar(&[0u8; 1000]); // reference impl is not counted
        assert_eq!(crc_hashed_bytes() - before, 1000);
        // Either side of the wide kernel's threshold, every byte counts.
        for n in [15, 16, 63, 64, 65, 4096] {
            let before = crc_hashed_bytes();
            crc32(&vec![7u8; n]);
            assert_eq!(crc_hashed_bytes() - before, n as u64);
        }
    }

    /// Each kernel on its own, as the one-shot CRC of `data`: the table
    /// kernel always, the carry-less kernel where this CPU has it (and the
    /// input is long enough for it).
    fn kernels(data: &[u8]) -> Vec<u32> {
        let mut out = vec![!table_update(!0, data)];
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN && clmul::available() {
            // SAFETY: `available` checked the CPU features `fold` needs.
            let (s, rest) = unsafe { clmul::fold(!0, data) };
            assert!(rest.len() < 16);
            out.push(!table_update(s, rest));
        }
        out
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn the_carry_less_kernel_runs_on_this_host() {
        // Every x86-64 server CPU of the last decade has PCLMULQDQ; the
        // portable fallback must not be what the suite quietly tests.
        assert!(clmul::available());
        assert_eq!(kernels(&[0xA5; 64]).len(), 2);
    }

    #[test]
    fn split_points_across_fold_boundaries() {
        let data: Vec<u8> = (0..600u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let whole = crc32_scalar(&data);
        for split in (0..=data.len()).filter(|s| [0, 1, 15].contains(&(s % 16)) || s % 64 == 63) {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is a published vector.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    proptest! {
        #[test]
        fn fnv_parts_equal_the_whole(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Fnv1a::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finish(), fnv1a(&data));
        }

        #[test]
        fn wide_kernel_matches_scalar_reference(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            prop_assert_eq!(crc32(&data), crc32_scalar(&data));
        }

        #[test]
        fn both_kernels_match_the_scalar_reference(
            data in proptest::collection::vec(any::<u8>(), 0..4112),
            start in 0usize..16,
        ) {
            // An unaligned start, then every length the buffer allows.
            let data = &data[start.min(data.len())..];
            let want = crc32_scalar(data);
            for got in kernels(data) {
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(crc32(data), want);
        }

        #[test]
        fn split_points_do_not_matter(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finish(), crc32(&data));
        }

        #[test]
        fn single_bit_flip_changes_crc(data in proptest::collection::vec(any::<u8>(), 1..256), idx in 0usize..256, bit in 0u8..8) {
            let idx = idx % data.len();
            let mut mutated = data.clone();
            mutated[idx] ^= 1 << bit;
            prop_assert_ne!(crc32(&mutated), crc32(&data));
        }
    }
}
