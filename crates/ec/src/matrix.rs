//! Dense matrices over GF(256) with the operations Reed–Solomon needs:
//! multiplication, submatrix extraction, and Gauss–Jordan inversion.

use crate::gf256;
use common::{Error, Result};

/// A row-major dense matrix over GF(256).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// All-zero matrix of the given shape.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0; rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// Vandermonde matrix: element `(i, j) = (i+1)^j`. Rows built from
    /// distinct evaluation points are linearly independent, which is the
    /// property Reed–Solomon relies on.
    pub(crate) fn vandermonde(rows: usize, cols: usize) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, gf256::pow((i + 1) as u8, j as u32));
            }
        }
        m
    }

    /// Element at `(r, c)`.
    #[inline]
    pub(crate) fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    pub(crate) fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`. Panics if the shapes do not line up.
    pub(crate) fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matrix shape mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let v = gf256::add(out.get(i, j), gf256::mul(a, rhs.get(k, j)));
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    /// Keep only the rows whose indices appear in `indices`, in order.
    pub(crate) fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.data[dst * self.cols..(dst + 1) * self.cols].copy_from_slice(self.row(src));
        }
        out
    }

    /// Invert a square matrix with Gauss–Jordan elimination.
    ///
    /// Returns `Error::Unrecoverable` if the matrix is singular, which in the
    /// erasure-coding context means the surviving shards cannot reconstruct
    /// the data.
    pub(crate) fn inverse(&self) -> Result<Matrix> {
        if self.rows != self.cols {
            return Err(Error::InvalidArgument("inverse of non-square matrix".into()));
        }
        let n = self.rows;
        let mut work = self.clone();
        let mut out = Matrix::identity(n);
        for col in 0..n {
            // find pivot
            let pivot = (col..n)
                .find(|&r| work.get(r, col) != 0)
                .ok_or_else(|| Error::Unrecoverable("singular matrix".into()))?;
            if pivot != col {
                work.swap_rows(pivot, col);
                out.swap_rows(pivot, col);
            }
            // scale pivot row to 1
            let p = work.get(col, col);
            let p_inv = gf256::inv(p);
            work.scale_row(col, p_inv);
            out.scale_row(col, p_inv);
            // eliminate other rows
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = work.get(r, col);
                if factor != 0 {
                    work.add_scaled_row(r, col, factor);
                    out.add_scaled_row(r, col, factor);
                }
            }
        }
        Ok(out)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            let tmp = self.get(a, c);
            self.set(a, c, self.get(b, c));
            self.set(b, c, tmp);
        }
    }

    fn scale_row(&mut self, r: usize, factor: u8) {
        for c in 0..self.cols {
            self.set(r, c, gf256::mul(self.get(r, c), factor));
        }
    }

    /// row[dst] ^= factor * row[src]
    fn add_scaled_row(&mut self, dst: usize, src: usize, factor: u8) {
        for c in 0..self.cols {
            let v = gf256::add(self.get(dst, c), gf256::mul(factor, self.get(src, c)));
            self.set(dst, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_is_multiplicative_unit() {
        let m = Matrix {
            rows: 2,
            cols: 3,
            data: vec![1, 2, 3, 4, 5, 6],
        };
        let i3 = Matrix::identity(3);
        assert_eq!(m.mul(&i3), m);
    }

    #[test]
    fn inverse_of_identity_is_identity() {
        let i = Matrix::identity(4);
        assert_eq!(i.inverse().unwrap(), i);
    }

    #[test]
    fn vandermonde_rows_are_invertible() {
        // Any k rows of a Vandermonde matrix with distinct points are
        // independent: select arbitrary row subsets and invert.
        let v = Matrix::vandermonde(6, 3);
        for rows in [[0, 1, 2], [3, 4, 5], [0, 2, 4], [1, 3, 5]] {
            let sub = v.select_rows(&rows);
            let inv = sub.inverse().expect("vandermonde subset must invert");
            assert_eq!(sub.mul(&inv), Matrix::identity(3));
        }
    }

    #[test]
    fn singular_matrix_reported_as_unrecoverable() {
        let m = Matrix {
            rows: 2,
            cols: 2,
            data: vec![1, 2, 1, 2],
        };
        assert!(matches!(m.inverse(), Err(common::Error::Unrecoverable(_))));
    }

    #[test]
    fn non_square_inverse_rejected() {
        let m = Matrix::zeros(2, 3);
        assert!(matches!(m.inverse(), Err(common::Error::InvalidArgument(_))));
    }

    #[test]
    fn select_rows_preserves_content() {
        let v = Matrix::vandermonde(4, 2);
        let s = v.select_rows(&[2, 0]);
        assert_eq!(s.row(0), v.row(2));
        assert_eq!(s.row(1), v.row(0));
    }

    fn arb_invertible(n: usize) -> impl Strategy<Value = Matrix> {
        // Random matrices over GF(256) are invertible with probability
        // ~0.996 for small n; retry via prop_filter on a seeded generation.
        proptest::collection::vec(any::<u8>(), n * n).prop_filter_map("singular", move |data| {
            let m = Matrix { rows: n, cols: n, data };
            m.inverse().ok().map(|_| m)
        })
    }

    proptest! {
        #[test]
        fn inverse_times_self_is_identity(m in arb_invertible(4)) {
            let inv = m.inverse().unwrap();
            prop_assert_eq!(m.mul(&inv), Matrix::identity(4));
            prop_assert_eq!(inv.mul(&m), Matrix::identity(4));
        }

        #[test]
        fn mul_is_associative(
            a in proptest::collection::vec(any::<u8>(), 9),
            b in proptest::collection::vec(any::<u8>(), 9),
            c in proptest::collection::vec(any::<u8>(), 9),
        ) {
            let a = Matrix { rows: 3, cols: 3, data: a };
            let b = Matrix { rows: 3, cols: 3, data: b };
            let c = Matrix { rows: 3, cols: 3, data: c };
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        }
    }
}
