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

use common::varint;
use common::{Error, Result};

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1 << 16;
const WINDOW: usize = 1 << 15;
const HASH_BITS: u32 = 15;

const TOK_LITERAL: u8 = 0;
const TOK_MATCH: u8 = 1;

#[inline]
fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Compress `input`; the output always decompresses to exactly `input`.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    varint::encode_u64(input.len() as u64, &mut out);
    let mut heads = vec![usize::MAX; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut literal_start = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        if to > from {
            out.push(TOK_LITERAL);
            varint::encode_u64((to - from) as u64, out);
            out.extend_from_slice(&input[from..to]);
        }
    };

    while pos + MIN_MATCH <= input.len() {
        let h = hash4(&input[pos..]);
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
            flush_literals(&mut out, literal_start, pos);
            out.push(TOK_MATCH);
            varint::encode_u64((pos - candidate) as u64, &mut out);
            varint::encode_u64(match_len as u64, &mut out);
            // Index a few positions inside the match so later matches can
            // anchor there, then skip past it.
            let end = pos + match_len;
            let mut p = pos + 1;
            while p + MIN_MATCH <= input.len() && p < end && p < pos + 16 {
                heads[hash4(&input[p..])] = p;
                p += 1;
            }
            pos = end;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    flush_literals(&mut out, literal_start, input.len());
    out
}

/// Decompress a buffer produced by [`compress`]. Hostile input is an
/// error, never a panic or an allocation its bytes cannot back: no token
/// expands past [`MAX_MATCH`] bytes, so a header claiming more than that
/// per input byte is refused up front, and no token may overrun the header.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>> {
    let (expected_len, mut off) = varint::decode_u64(input)?;
    let expected = usize::try_from(expected_len)
        .ok()
        .filter(|&n| n <= input.len().saturating_mul(MAX_MATCH))
        .ok_or_else(|| Error::Corruption(format!("implausible decompressed length {expected_len}")))?;
    let mut out: Vec<u8> = Vec::with_capacity(expected);
    while off < input.len() {
        let tok = input[off];
        off += 1;
        let (a, n) = varint::decode_u64(&input[off..])?;
        off += n;
        let a = usize::try_from(a).unwrap_or(usize::MAX);
        match tok {
            TOK_LITERAL => {
                let bytes = off
                    .checked_add(a)
                    .and_then(|end| input.get(off..end))
                    .filter(|_| a <= expected - out.len())
                    .ok_or_else(|| Error::Corruption("truncated literal run".into()))?;
                out.extend_from_slice(bytes);
                off += a;
            }
            TOK_MATCH => {
                let (len, n) = varint::decode_u64(&input[off..])?;
                off += n;
                let dist = a;
                let len = usize::try_from(len).unwrap_or(usize::MAX);
                if dist == 0 || dist > out.len() {
                    return Err(Error::Corruption(format!(
                        "match distance {dist} out of range (have {})",
                        out.len()
                    )));
                }
                if len > MAX_MATCH || len > expected - out.len() {
                    return Err(Error::Corruption(format!("match length {len} overruns the chunk")));
                }
                // Overlapping copies are legal (dist < len repeats a pattern).
                let start = out.len() - dist;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
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
