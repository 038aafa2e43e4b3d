//! CRC32 (IEEE 802.3 polynomial) and FNV-1a, implemented from scratch.
//!
//! [`fnv1a`] is the workspace's one key hash: PLog shard placement, stream
//! partition routing, the baseline Kafka's partitioner and the
//! determinism journals' digests all go through it.
//!
//! CRC32 frames WAL records in `kvstore`, PLog entries, and the footer of
//! the columnar lake file format. The hot path is a slice-by-8 kernel: the
//! running state is folded into the first word of each 8-byte chunk and the
//! new state is assembled from eight precomputed tables, so the inner loop
//! retires 8 input bytes per iteration instead of 1. The scalar
//! byte-at-a-time implementation is kept as the reference the tables are
//! derived from (and pinned against under proptest).
//!
//! Callers that budget hashing work (the PLog coalesced verify pass) can
//! audit how many bytes were actually digested on the current thread via
//! [`crc_hashed_bytes`].

use std::cell::Cell;
use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320; // reflected IEEE polynomial

/// How many bytes per iteration the wide kernel consumes.
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
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        HASHED_BYTES.with(|c| c.set(c.get() + data.len() as u64));
        let t = tables();
        let mut s = self.state;
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
        self.state = s;
    }

    /// Finalize and return the checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
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
