//! LEB128 variable-length integer codecs, and the [`Reader`] every binary
//! decoder reads its input through.
//!
//! The columnar file format and the KV write-ahead log store lengths and
//! deltas as varints; zig-zag encoding maps signed deltas onto the unsigned
//! codec.

use crate::{Error, Result};

/// Append `v` to `out` as an unsigned LEB128 varint.
pub fn encode_u64(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append `s` as a length-prefixed string, the form [`Reader::str`] reads.
pub fn encode_str(s: &str, out: &mut Vec<u8>) {
    encode_u64(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

/// Zig-zag map a signed integer onto an unsigned one.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a signed integer as a zig-zag varint.
pub fn encode_i64(v: i64, out: &mut Vec<u8>) {
    encode_u64(zigzag(v), out);
}

/// A bounds-checked cursor over one encoded record: the one way the
/// workspace's binary decoders read their input.
///
/// It holds the bytes still unread and advances by re-slicing. Every
/// length is checked against the bytes that remain before anything is
/// sliced, every count before anything is sized from it, and
/// [`finish`](Reader::finish) refuses bytes left over; each failure is an
/// [`Error::Corruption`] naming the record kind the reader was made for.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, which holds a `what` (named in errors).
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { rest: buf, what }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Whether every byte has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// An unsigned LEB128 varint.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        // Most lengths, deltas and tags take one byte.
        if let [b @ 0..0x80, rest @ ..] = self.rest {
            self.rest = rest;
            return Ok(u64::from(*b));
        }
        self.u64_multi()
    }

    fn u64_multi(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for (i, &byte) in self.rest.iter().enumerate().take(10) {
            if i == 9 && byte > 1 {
                return Err(self.corrupt("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                self.rest = &self.rest[i + 1..];
                return Ok(v);
            }
        }
        Err(self.corrupt("truncated varint"))
    }

    /// A zig-zag varint.
    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        self.u64().map(unzigzag)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// One byte holding 0 or 1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format_args!("flag byte {b}"))),
        }
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32_le(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next `N` bytes, for fixed-width fields.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let Some((head, rest)) = self.rest.split_first_chunk::<N>() else {
            return Err(self.truncated(N as u64));
        };
        self.rest = rest;
        Ok(*head)
    }

    /// The next `len` bytes.
    #[inline]
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        let Some((head, rest)) = self.rest.split_at_checked(len) else {
            return Err(self.truncated(len as u64));
        };
        self.rest = rest;
        Ok(head)
    }

    /// A varint length, then that many bytes.
    #[inline]
    pub fn len_prefixed(&mut self) -> Result<&'a [u8]> {
        let len = self.u64()?;
        match usize::try_from(len) {
            Ok(len) => self.bytes(len),
            Err(_) => Err(self.truncated(len)),
        }
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str> {
        let bytes = self.len_prefixed()?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("string not utf-8"))
    }

    /// A varint count of elements that each take at least
    /// `min_bytes_each` bytes; see [`check_count`](Reader::check_count).
    #[inline]
    pub fn count(&mut self, min_bytes_each: usize) -> Result<usize> {
        let n = self.u64()?;
        self.check_count(n, min_bytes_each)
    }

    /// `n` as a `usize`, refused when the remaining bytes cannot hold `n`
    /// elements of at least `min_bytes_each` bytes, so a count read from
    /// the input can size an allocation. With `min_bytes_each == 0` (an
    /// element may take no bytes of its own, like a bit-packed boolean)
    /// only the conversion is checked, and the caller reads the elements'
    /// bytes before it allocates for them.
    #[inline]
    pub fn check_count(&self, n: u64, min_bytes_each: usize) -> Result<usize> {
        let len = self.rest.len();
        match usize::try_from(n) {
            Ok(n) if n <= len.checked_div(min_bytes_each).unwrap_or(usize::MAX) => Ok(n),
            _ => Err(self.corrupt(format_args!("{n} elements cannot fit in {len} bytes"))),
        }
    }

    /// Succeed only when every byte has been read.
    pub fn finish(self) -> Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(self.corrupt(format_args!("{} trailing bytes", self.rest.len())))
        }
    }

    #[cold]
    fn truncated(&self, want: u64) -> Error {
        self.corrupt(format_args!("truncated: {want} bytes wanted, {} remain", self.rest.len()))
    }

    #[cold]
    fn corrupt(&self, msg: impl std::fmt::Display) -> Error {
        Error::Corruption(format!("{}: {msg}", self.what))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A varint from the front of `buf`, and the bytes it took.
    fn decode_u64(buf: &[u8]) -> Result<(u64, usize)> {
        let mut r = Reader::new(buf, "varint");
        Ok((r.u64()?, buf.len() - r.remaining()))
    }

    fn decode_i64(buf: &[u8]) -> Result<(i64, usize)> {
        let mut r = Reader::new(buf, "varint");
        Ok((r.i64()?, buf.len() - r.remaining()))
    }

    #[test]
    fn small_values_take_one_byte() {
        let mut out = Vec::new();
        encode_u64(0, &mut out);
        encode_u64(127, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(decode_u64(&out).unwrap(), (0, 1));
        assert_eq!(decode_u64(&out[1..]).unwrap(), (127, 1));
    }

    #[test]
    fn max_value_roundtrips() {
        let mut out = Vec::new();
        encode_u64(u64::MAX, &mut out);
        assert_eq!(out.len(), 10);
        assert_eq!(decode_u64(&out).unwrap(), (u64::MAX, 10));
    }

    #[test]
    fn truncated_input_is_corruption() {
        let mut out = Vec::new();
        encode_u64(1 << 40, &mut out);
        out.pop();
        assert!(matches!(decode_u64(&out), Err(Error::Corruption(_))));
        assert!(matches!(decode_u64(&[]), Err(Error::Corruption(_))));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Ten continuation bytes whose final byte pushes past 64 bits.
        let buf = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(matches!(decode_u64(&buf), Err(Error::Corruption(_))));
    }

    #[test]
    fn zigzag_known_values() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
        assert_eq!(unzigzag(zigzag(i64::MAX)), i64::MAX);
    }

    #[test]
    fn reader_refuses_lengths_and_counts_the_bytes_cannot_back() {
        let mut buf = Vec::new();
        encode_u64(u64::MAX, &mut buf);
        buf.extend_from_slice(b"abc");
        assert!(matches!(Reader::new(&buf, "t").len_prefixed(), Err(Error::Corruption(_))));
        assert!(matches!(Reader::new(&buf, "t").count(1), Err(Error::Corruption(_))));
        let mut r = Reader::new(b"abc", "t");
        assert_eq!(r.check_count(3, 1).unwrap(), 3);
        assert!(r.check_count(2, 2).is_err());
        assert!(r.bytes(4).is_err());
        assert!(r.array::<4>().is_err());
        assert_eq!(r.bytes(2).unwrap(), b"ab");
        assert_eq!(r.remaining(), 1);
    }

    #[test]
    fn finish_refuses_trailing_bytes() {
        let mut r = Reader::new(&[7, 1, 0, 0, 0, 9], "t");
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.u32_le().unwrap(), 1);
        let err = r.clone().finish().unwrap_err();
        assert_eq!(err, Error::Corruption("t: 1 trailing bytes".into()));
        assert_eq!(r.u8().unwrap(), 9);
        assert!(r.finish().is_ok());
    }

    proptest! {
        #[test]
        fn u64_roundtrip(v in any::<u64>()) {
            let mut out = Vec::new();
            encode_u64(v, &mut out);
            let (back, n) = decode_u64(&out).unwrap();
            prop_assert_eq!(back, v);
            prop_assert_eq!(n, out.len());
        }

        #[test]
        fn i64_roundtrip(v in any::<i64>()) {
            let mut out = Vec::new();
            encode_i64(v, &mut out);
            let (back, n) = decode_i64(&out).unwrap();
            prop_assert_eq!(back, v);
            prop_assert_eq!(n, out.len());
        }

        #[test]
        fn concatenated_varints_decode_in_order(vs in proptest::collection::vec(any::<u64>(), 0..64)) {
            let mut out = Vec::new();
            for &v in &vs {
                encode_u64(v, &mut out);
            }
            let mut r = Reader::new(&out, "varints");
            for &v in &vs {
                prop_assert_eq!(r.u64().unwrap(), v);
            }
            prop_assert!(r.finish().is_ok());
        }
    }
}
