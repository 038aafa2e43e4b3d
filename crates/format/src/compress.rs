//! Byte-level LZ77-family compression.
//!
//! Applied per column chunk after encoding. Log-message data is highly
//! repetitive (URLs, provinces, flag columns), which is where the paper's
//! "EC+Col-store" space savings in Fig 14(d) come from — so the compressor
//! needs to be real, not a stub.
//!
//! Token stream: a sequence of
//! `0x00 [len varint] [len literal bytes]` literal runs and
//! `0x01 [distance varint] [length varint]` back-references
//! (distance counts back from the current output position; `length >= 4`).
//!
//! The parse is greedy over a one-entry-per-bucket hash of 4-byte
//! prefixes: every position is hashed, a candidate within `WINDOW` whose
//! first 4 bytes match becomes a back-reference as long as the bytes keep
//! matching (up to `MAX_MATCH`), and the 15 positions after a match's start
//! are indexed before the parse skips past it. A [`Compressor`] emits the
//! same tokens as the byte-at-a-time reference kept in the tests; its head
//! table is reused for every chunk it compresses (one per file), never
//! re-zeroed between them.

use common::varint::{self, Reader};
use common::{Error, Result};
use std::hint;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1 << 16;
const WINDOW_BITS: u32 = 15;
const WINDOW: usize = 1 << WINDOW_BITS;
const HASH_BITS: u32 = 15;
/// How many positions of a match are indexed before the parse skips it.
const INDEX_IN_MATCH: usize = 16;

const TOK_LITERAL: u8 = 0;
const TOK_MATCH: u8 = 1;

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn load32(data: &[u8], at: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&data[at..at + 4]);
    u32::from_le_bytes(w)
}

#[inline]
fn load64(data: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(w)
}

/// Compresses a sequence of inputs (a file's chunks) through one head
/// table. An entry is `base + pos + 1` for the last position hashed into
/// its bucket, so an all-zero table is empty. Each call's `base` is at
/// least `WINDOW` past every entry an earlier call left, so those read as
/// out of window (as does an empty entry) and nothing is cleared between
/// calls.
#[derive(Debug)]
pub struct Compressor {
    heads: Vec<usize>,
    base: usize,
}

impl Default for Compressor {
    fn default() -> Self {
        Compressor { heads: vec![0; 1 << HASH_BITS], base: WINDOW }
    }
}

impl Compressor {
    /// A compressor with an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the compressed form of `input` to `out`; it always
    /// decompresses to exactly `input`.
    pub fn compress_into(&mut self, input: &[u8], out: &mut Vec<u8>) {
        lz(&mut self.heads, self.base, input, out);
        self.base += input.len() + WINDOW;
    }
}

/// Compress `input` on its own; the output always decompresses to exactly
/// `input`. A caller compressing many inputs keeps one [`Compressor`].
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    Compressor::new().compress_into(input, &mut out);
    out
}

/// The parse, with `heads` holding entries of earlier calls at most
/// `base - WINDOW`.
fn lz(heads: &mut [usize], base: usize, input: &[u8], out: &mut Vec<u8>) {
    varint::encode_u64(input.len() as u64, out);
    let n = input.len();
    let mut pos = 0usize;
    let mut literal_start = 0usize;
    while pos + MIN_MATCH <= n {
        let cur = load32(input, pos);
        let slot = &mut heads[hash4(cur)];
        // `pos` minus the candidate for an entry of this call; past WINDOW
        // for an empty entry or an earlier call's.
        let dist = base + pos + 1 - *slot;
        *slot = base + pos + 1;
        // Whether the candidate is in the window and its first 4 bytes
        // match, as one value: a candidate before the input (out of window
        // by construction) is read at `pos` instead, and nothing branches
        // until the answer is known.
        let cand = hint::select_unpredictable(dist <= pos, pos.wrapping_sub(dist), pos);
        let miss = (load32(input, cand) ^ cur) as usize | (dist - 1) >> WINDOW_BITS;
        if miss != 0 {
            pos += 1;
            continue;
        }
        let len = match_len(input, cand, pos, (n - pos).min(MAX_MATCH));
        flush_literals(input, literal_start, pos, out);
        out.push(TOK_MATCH);
        varint::encode_u64(dist as u64, out);
        varint::encode_u64(len as u64, out);
        // Index a few positions inside the match so later matches can
        // anchor there, then skip past it.
        let end = pos + len;
        for p in pos + 1..end.min(pos + INDEX_IN_MATCH).min(n - MIN_MATCH + 1) {
            heads[hash4(load32(input, p))] = base + p + 1;
        }
        pos = end;
        literal_start = pos;
    }
    flush_literals(input, literal_start, n, out);
}

/// How far `input[cand..]` and `input[pos..]` agree, at most `max`; their
/// first [`MIN_MATCH`] bytes are known to.
#[inline]
fn match_len(input: &[u8], cand: usize, pos: usize, max: usize) -> usize {
    let mut len = MIN_MATCH;
    while len + 8 <= max {
        let diff = load64(input, cand + len) ^ load64(input, pos + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max && input[cand + len] == input[pos + len] {
        len += 1;
    }
    len
}

fn flush_literals(input: &[u8], from: usize, to: usize, out: &mut Vec<u8>) {
    if to > from {
        out.push(TOK_LITERAL);
        varint::encode_u64((to - from) as u64, out);
        out.extend_from_slice(&input[from..to]);
    }
}

/// Decompress a buffer produced by [`compress`]. Hostile input is an
/// error, never a panic or an allocation its bytes cannot back: no token
/// expands past [`MAX_MATCH`] bytes, so a header claiming more than that
/// per input byte is refused up front, and no token may overrun the header.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>> {
    let mut r = Reader::new(input, "compressed chunk");
    let expected_len = r.u64()?;
    let expected = usize::try_from(expected_len)
        .ok()
        .filter(|&n| n <= input.len().saturating_mul(MAX_MATCH))
        .ok_or_else(|| Error::Corruption(format!("implausible decompressed length {expected_len}")))?;
    let mut out: Vec<u8> = Vec::with_capacity(expected);
    while !r.is_empty() {
        let tok = r.u8()?;
        let a = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
        match tok {
            TOK_LITERAL => {
                if a > expected - out.len() {
                    return Err(Error::Corruption(format!("literal of {a} overruns the chunk")));
                }
                out.extend_from_slice(r.bytes(a)?);
            }
            TOK_MATCH => {
                let dist = a;
                let len = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
                if dist == 0 || dist > out.len() {
                    return Err(Error::Corruption(format!(
                        "match distance {dist} out of range (have {})",
                        out.len()
                    )));
                }
                if len > MAX_MATCH || len > expected - out.len() {
                    return Err(Error::Corruption(format!("match length {len} overruns the chunk")));
                }
                // Overlapping copies are legal (dist < len repeats a
                // pattern): copy what is there, which doubles each round.
                let start = out.len() - dist;
                let end = out.len() + len;
                while out.len() < end {
                    let run = (out.len() - start).min(end - out.len());
                    out.extend_from_within(start..start + run);
                }
            }
            other => return Err(Error::Corruption(format!("unknown token {other}"))),
        }
    }
    if out.len() != expected {
        return Err(Error::Corruption(format!(
            "decompressed {} bytes, header said {expected_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time compressor [`Compressor`] replaced: a fresh
    /// `usize` table per call and a branch on every candidate. Its tokens
    /// define the format's compressed bytes.
    fn reference(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        varint::encode_u64(input.len() as u64, &mut out);
        let mut heads = vec![usize::MAX; 1 << HASH_BITS];
        let mut pos = 0usize;
        let mut literal_start = 0usize;
        while pos + MIN_MATCH <= input.len() {
            let h = hash4(load32(input, pos));
            let candidate = heads[h];
            heads[h] = pos;
            let mut match_len = 0usize;
            if candidate != usize::MAX && pos - candidate <= WINDOW {
                let max = (input.len() - pos).min(MAX_MATCH);
                while match_len < max && input[candidate + match_len] == input[pos + match_len] {
                    match_len += 1;
                }
            }
            if match_len >= MIN_MATCH {
                flush_literals(input, literal_start, pos, &mut out);
                out.push(TOK_MATCH);
                varint::encode_u64((pos - candidate) as u64, &mut out);
                varint::encode_u64(match_len as u64, &mut out);
                let end = pos + match_len;
                let mut p = pos + 1;
                while p + MIN_MATCH <= input.len() && p < end && p < pos + 16 {
                    heads[hash4(load32(input, p))] = p;
                    p += 1;
                }
                pos = end;
                literal_start = pos;
            } else {
                pos += 1;
            }
        }
        flush_literals(input, literal_start, input.len(), &mut out);
        out
    }

    fn compress_with(c: &mut Compressor, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        c.compress_into(data, &mut out);
        out
    }

    /// `compress` and a long-lived `Compressor` both emit the reference's
    /// bytes, and those decompress to the input.
    fn same_as_reference(c: &mut Compressor, data: &[u8]) {
        let want = reference(data);
        assert_eq!(compress(data), want, "one-shot, {} bytes", data.len());
        assert_eq!(compress_with(c, data), want, "reused table, {} bytes", data.len());
        assert_eq!(decompress(&want).unwrap(), data);
    }

    fn xorshift_bytes(n: usize, mut x: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    /// The compressed form of 16 bytes, zeros up to offset `gap` (one long
    /// match) and the same 16 bytes again, `gap` after the first copy.
    fn tail_after_gap(gap: usize) -> Vec<u8> {
        let head = b"ABCDEFGHIJKLMNOP";
        let mut data = head.to_vec();
        data.resize(gap, 0);
        data.extend_from_slice(head);
        same_as_reference(&mut Compressor::new(), &data);
        compress(&data)
    }

    #[test]
    fn a_match_at_exactly_the_window_is_taken_one_past_it_is_not() {
        let mut want = vec![TOK_MATCH];
        varint::encode_u64(WINDOW as u64, &mut want);
        want.push(16);
        assert!(tail_after_gap(WINDOW).ends_with(&want));
        let mut want = vec![TOK_LITERAL, 16];
        want.extend_from_slice(b"ABCDEFGHIJKLMNOP");
        assert!(tail_after_gap(WINDOW + 1).ends_with(&want));
    }

    #[test]
    fn runs_longer_than_max_match_split_like_the_reference() {
        let mut c = Compressor::new();
        for n in [MAX_MATCH + 1, MAX_MATCH + 5, 3 * MAX_MATCH + 7] {
            same_as_reference(&mut c, &vec![7u8; n]);
            let mut data = b"xy".repeat(n / 2);
            data.push(b'z');
            same_as_reference(&mut c, &data);
        }
    }

    #[test]
    fn inputs_of_zero_to_eight_bytes_match_the_reference() {
        let mut c = Compressor::new();
        for n in 0..=8 {
            for data in [vec![0u8; n], b"abababab"[..n].to_vec(), b"abcdabcd"[..n].to_vec(), xorshift_bytes(n, 9)] {
                same_as_reference(&mut c, &data);
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(decompress(&compress(b"")).unwrap(), b"");
        assert_eq!(decompress(&compress(b"abc")).unwrap(), b"abc");
    }

    #[test]
    fn repetitive_data_shrinks_substantially() {
        let line = b"2022-07-03 GET http://streamlake_fin_app.com/api/v1 province=guangdong 200\n";
        let mut data = Vec::new();
        for _ in 0..500 {
            data.extend_from_slice(line);
        }
        let c = compress(&data);
        assert!(
            c.len() * 10 < data.len(),
            "log-like data must compress >10x, got {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn overlapping_match_rle_case() {
        let data = vec![7u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 64);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // pseudo-random bytes: little to match, but must still roundtrip
        let mut x = 0x243F6A8885A308D3u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let c = compress(b"hello hello hello hello hello");
        // bogus token type
        let mut bad = c.clone();
        let idx = bad.len() - 3;
        bad[idx] = 0x77;
        let _ = decompress(&bad); // may error or not depending on position, must not panic
        // truncations
        for cut in 1..c.len() {
            let _ = decompress(&c[..cut]);
        }
        // zero-distance match is always corruption
        let mut crafted = Vec::new();
        common::varint::encode_u64(4, &mut crafted);
        crafted.push(TOK_MATCH);
        common::varint::encode_u64(0, &mut crafted);
        common::varint::encode_u64(4, &mut crafted);
        assert!(decompress(&crafted).is_err());
    }

    #[test]
    fn hostile_lengths_are_refused_before_they_allocate() {
        // A header claiming far more output than the tokens could make.
        let mut crafted = Vec::new();
        common::varint::encode_u64(u64::MAX >> 1, &mut crafted);
        crafted.extend_from_slice(&[TOK_LITERAL, 1, b'a']);
        assert!(decompress(&crafted).is_err());
        // A match longer than the header leaves room for, or than any match
        // the compressor writes.
        for (header, len) in [(8u64, 1u64 << 40), (70_000, 65_537), (6, 6)] {
            let mut crafted = Vec::new();
            common::varint::encode_u64(header, &mut crafted);
            crafted.extend_from_slice(&[TOK_LITERAL, 1, b'a', TOK_MATCH, 1]);
            common::varint::encode_u64(len, &mut crafted);
            assert!(decompress(&crafted).is_err(), "header {header}, match {len}");
        }
        // A literal run longer than its input.
        let mut crafted = Vec::new();
        common::varint::encode_u64(3, &mut crafted);
        crafted.push(TOK_LITERAL);
        common::varint::encode_u64(u64::MAX, &mut crafted);
        assert!(decompress(&crafted).is_err());
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }

        #[test]
        fn compressor_matches_the_reference(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            low in proptest::collection::vec(0u8..4, 0..4096),
        ) {
            let mut c = Compressor::new();
            same_as_reference(&mut c, &data);
            same_as_reference(&mut c, &low);
        }

        #[test]
        fn compressor_matches_the_reference_on_repeats(
            word in "[a-d]{1,9}",
            reps in 1usize..3000,
            noise in proptest::collection::vec(any::<u8>(), 0..64),
            at in 0usize..4096,
        ) {
            let mut data = word.as_bytes().repeat(reps);
            let at = at.min(data.len());
            data.splice(at..at, noise);
            same_as_reference(&mut Compressor::new(), &data);
        }

        #[test]
        fn one_compressor_over_a_file_of_chunks_matches_the_reference(
            chunks in proptest::collection::vec(
                (proptest::collection::vec(0u8..6, 0..3000), 1usize..40),
                1..8,
            ),
        ) {
            // Each chunk repeats earlier chunks' content, so a stale entry
            // that read as live would produce a different (wrong) match.
            let mut c = Compressor::new();
            for (chunk, reps) in &chunks {
                let data = chunk.repeat(*reps % 3 + 1);
                prop_assert_eq!(compress_with(&mut c, &data), reference(&data));
            }
        }

        #[test]
        fn roundtrip_structured(
            word in "[a-d]{2,6}",
            reps in 1usize..200,
            tail in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut data = word.as_bytes().repeat(reps);
            data.extend_from_slice(&tail);
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }
    }
}
