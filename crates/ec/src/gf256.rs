//! Arithmetic in GF(2^8) with the AES polynomial `x^8 + x^4 + x^3 + x + 1`.
//!
//! Multiplication and division go through log/exp tables generated from the
//! generator element 3, which is primitive for this polynomial. Addition and
//! subtraction are both XOR.

use std::sync::OnceLock;

const POLY: u16 = 0x11B; // x^8 + x^4 + x^3 + x + 1
const GENERATOR: u8 = 3;

struct Tables {
    exp: [u8; 512], // doubled so mul can skip a modulo
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        #[expect(clippy::needless_range_loop, reason = "i is also the log value being recorded")]
        for i in 0..255 {
            exp[i] = x as u8;
            log[x as usize] = i as u8;
            // multiply x by the generator without tables
            let mut next = 0u16;
            let mut a = x;
            let mut b = GENERATOR as u16;
            while b != 0 {
                if b & 1 != 0 {
                    next ^= a;
                }
                a <<= 1;
                if a & 0x100 != 0 {
                    a ^= POLY;
                }
                b >>= 1;
            }
            x = next;
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Add two field elements (XOR).
#[inline]
pub(crate) fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiply two field elements.
#[inline]
pub(crate) fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Divide `a` by `b`. Panics if `b == 0`.
#[inline]
pub(crate) fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    let diff = t.log[a as usize] as i32 - t.log[b as usize] as i32;
    let idx = if diff < 0 { diff + 255 } else { diff } as usize;
    t.exp[idx]
}

/// Multiplicative inverse. Panics if `a == 0`.
#[inline]
pub(crate) fn inv(a: u8) -> u8 {
    div(1, a)
}

/// Raise `a` to the power `n`.
pub(crate) fn pow(a: u8, n: u32) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let t = tables();
    let l = (t.log[a as usize] as u64 * n as u64) % 255;
    t.exp[l as usize]
}

/// Coefficient `c` with its row of the GF(256) multiplication table:
/// `products[s] = c · s` for every byte `s`. Building one costs 255
/// exp/log lookups; after that a multiply-accumulate is one indexed load
/// and one XOR per byte, with no zero test and no log lookup. The kernel
/// never reads the table of `c = 0` or `c = 1`, so those skip the build.
#[derive(Debug)]
pub(crate) struct ProductRow {
    c: u8,
    products: [u8; 256],
}

impl ProductRow {
    /// The product row of `c`.
    pub(crate) fn new(c: u8) -> Self {
        let mut products = [0u8; 256];
        if c > 1 {
            let t = tables();
            let log_c = t.log[c as usize] as usize;
            for (s, p) in products.iter_mut().enumerate().skip(1) {
                *p = t.exp[log_c + t.log[s] as usize];
            }
        }
        ProductRow { c, products }
    }

    /// `dst[i] ^= c · src[i]`: the hot loop of Reed–Solomon encoding and
    /// reconstruction. `c == 0` does nothing and `c == 1` is a plain XOR
    /// eight bytes at a time; every other coefficient goes through the
    /// table.
    pub(crate) fn mul_acc(&self, dst: &mut [u8], src: &[u8]) {
        debug_assert_eq!(dst.len(), src.len());
        match self.c {
            0 => {}
            1 => xor_slice(dst, src),
            _ => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d ^= self.products[*s as usize];
                }
            }
        }
    }
}

/// In-place fused multiply-add over byte slices: `dst[i] ^= c * src[i]`.
///
/// Builds the [`ProductRow`] of `c` and runs its kernel. Callers that
/// multiply by the same coefficient again (Reed–Solomon parity) keep the
/// row instead. The `mul_acc_slice_matches_scalar` proptest pins the
/// kernel against the scalar [`mul`] reference.
pub fn mul_acc_slice(dst: &mut [u8], src: &[u8], c: u8) {
    ProductRow::new(c).mul_acc(dst, src);
}

/// `dst[i] ^= src[i]`, eight bytes per step. GF(256) addition is XOR, so
/// this is both the `c == 1` multiply-accumulate and plain field addition.
fn xor_slice(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d_words = dst.chunks_exact_mut(8);
    let mut s_words = src.chunks_exact(8);
    for (d, s) in d_words.by_ref().zip(s_words.by_ref()) {
        let mut dw = [0u8; 8];
        dw.copy_from_slice(d);
        let mut sw = [0u8; 8];
        sw.copy_from_slice(s);
        let x = u64::from_ne_bytes(dw) ^ u64::from_ne_bytes(sw);
        d.copy_from_slice(&x.to_ne_bytes());
    }
    for (d, s) in d_words.into_remainder().iter_mut().zip(s_words.remainder()) {
        *d ^= *s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identities() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(add(a, a), 0);
        }
    }

    #[test]
    fn known_products() {
        // 0x53 * 0xCA = 0x01 under the AES polynomial (classic example).
        assert_eq!(mul(0x53, 0xCA), 0x01);
        assert_eq!(inv(0x53), 0xCA);
    }

    #[test]
    fn inverse_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for a in [0u8, 1, 2, 3, 0x1D, 0xFF] {
            let mut acc = 1u8;
            for n in 0..10u32 {
                assert_eq!(pow(a, n), acc, "a={a} n={n}");
                acc = mul(acc, a);
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        div(1, 0);
    }

    #[test]
    fn generator_is_primitive() {
        // The powers of the generator must enumerate all 255 nonzero elements.
        let mut seen = [false; 256];
        for n in 0..255 {
            let v = pow(GENERATOR, n);
            assert!(!seen[v as usize], "generator order < 255");
            seen[v as usize] = true;
        }
    }

    proptest! {
        #[test]
        fn mul_is_commutative_and_associative(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
            prop_assert_eq!(mul(a, b), mul(b, a));
            prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        }

        #[test]
        fn distributive_law(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
            prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }

        #[test]
        fn div_inverts_mul(a in any::<u8>(), b in 1u8..=255) {
            prop_assert_eq!(div(mul(a, b), b), a);
        }

        #[test]
        fn mul_acc_slice_matches_scalar(
            src in proptest::collection::vec(any::<u8>(), 0..128),
            c in any::<u8>(),
        ) {
            let mut dst = vec![0xA5u8; src.len()];
            let expected: Vec<u8> = dst.iter().zip(&src).map(|(d, s)| d ^ mul(c, *s)).collect();
            mul_acc_slice(&mut dst, &src, c);
            prop_assert_eq!(dst, expected);
        }
    }
}
