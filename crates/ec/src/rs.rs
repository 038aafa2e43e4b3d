//! Systematic Reed–Solomon encoder/decoder.
//!
//! The encoding matrix is a Vandermonde matrix row-reduced so that its top
//! `k×k` block is the identity: the first `k` output shards are the data
//! itself (systematic), and the remaining `m` shards are parity. Any `k` of
//! the `k+m` shards reconstruct the original data by inverting the
//! corresponding rows.
//!
//! A code depends only on `(k, m)`, so [`ReedSolomon::shared`] builds each
//! one once per process and hands out the same instance afterwards.

use crate::gf256::{self, ProductRow};
use crate::matrix::Matrix;
use common::{Error, Result};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Reject shapes no code exists for: `k` and `m` must be nonzero and
/// `k + m` must not exceed 255 (the number of distinct nonzero evaluation
/// points in GF(256)).
pub(crate) fn check_params(k: usize, m: usize) -> Result<()> {
    if k == 0 || m == 0 {
        return Err(Error::InvalidArgument("k and m must be nonzero".into()));
    }
    if k + m > 255 {
        return Err(Error::InvalidArgument(format!(
            "k+m = {} exceeds GF(256) limit of 255",
            k + m
        )));
    }
    Ok(())
}

/// A Reed–Solomon code with `k` data shards and `m` parity shards.
#[derive(Debug)]
pub(crate) struct ReedSolomon {
    k: usize,
    m: usize,
    /// (k+m) × k encoding matrix; top k rows are the identity.
    encode_matrix: Matrix,
    /// The parity rows' coefficients with their product tables, `m × k`
    /// row-major: entry `p * k + j` multiplies data shard `j` into parity
    /// shard `p`.
    parity_rows: Vec<ProductRow>,
}

impl ReedSolomon {
    /// Create a code with `k` data and `m` parity shards (see
    /// [`check_params`] for the shapes that exist). Production code takes
    /// the memoised instance from [`shared`](Self::shared).
    fn new(k: usize, m: usize) -> Result<Self> {
        check_params(k, m)?;
        // Build a (k+m) x k Vandermonde matrix, then normalize its top k x k
        // block to the identity by multiplying with that block's inverse.
        let vand = Matrix::vandermonde(k + m, k);
        let top: Vec<usize> = (0..k).collect();
        let top_inv = vand.select_rows(&top).inverse()?;
        let encode_matrix = vand.mul(&top_inv);
        let parity_rows = (k..k + m)
            .flat_map(|r| encode_matrix.row(r).iter().map(|&c| ProductRow::new(c)))
            .collect();
        Ok(ReedSolomon { k, m, encode_matrix, parity_rows })
    }

    /// The process-wide code for `(k, m)`, built on first use. A code is a
    /// pure function of its shape, so every stripe of one shape shares it.
    pub(crate) fn shared(k: usize, m: usize) -> Result<Arc<ReedSolomon>> {
        type Codes = BTreeMap<(usize, usize), Arc<ReedSolomon>>;
        static CODES: OnceLock<RwLock<Codes>> = OnceLock::new();
        let codes = CODES.get_or_init(Default::default);
        // A code enters the map only once fully built, so a guard poisoned
        // by a panicking reader or writer still guards a valid map.
        if let Some(rs) = codes.read().unwrap_or_else(PoisonError::into_inner).get(&(k, m)) {
            return Ok(rs.clone());
        }
        let rs = Arc::new(ReedSolomon::new(k, m)?);
        let mut codes = codes.write().unwrap_or_else(PoisonError::into_inner);
        Ok(codes.entry((k, m)).or_insert(rs).clone())
    }

    /// Total shards of a stripe: `k` data then `m` parity.
    pub(crate) fn total_shards(&self) -> usize {
        self.k + self.m
    }

    /// Compute the `m` parity shards for `k` equal-length data shards. The
    /// code is systematic: the data shards are stripe shards `0..k` as they
    /// are, so the caller keeps its handles and only parity is materialized
    /// here.
    pub(crate) fn parity<S: AsRef<[u8]>>(&self, data: &[S]) -> Result<Vec<Vec<u8>>> {
        self.check_shards(data)?;
        let shard_len = data[0].as_ref().len();
        let parity = self
            .parity_rows
            .chunks_exact(self.k)
            .map(|row| {
                let mut parity = vec![0u8; shard_len];
                for (product, shard) in row.iter().zip(data) {
                    product.mul_acc(&mut parity, shard.as_ref());
                }
                parity
            })
            .collect();
        Ok(parity)
    }

    /// Reconstruct the original `k` data shards from any `k` survivors.
    ///
    /// `shards[i]` is `Some` if shard `i` survived (indices `0..k` are data,
    /// `k..k+m` parity). Fails with `Unrecoverable` when fewer than `k`
    /// shards survive.
    pub(crate) fn reconstruct<S: AsRef<[u8]>>(&self, shards: &[Option<S>]) -> Result<Vec<Vec<u8>>> {
        if shards.len() != self.total_shards() {
            return Err(Error::InvalidArgument(format!(
                "expected {} shard slots, got {}",
                self.total_shards(),
                shards.len()
            )));
        }
        let present: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect();
        if present.len() < self.k {
            return Err(Error::Unrecoverable(format!(
                "only {} of {} shards survive; need {}",
                present.len(),
                self.total_shards(),
                self.k
            )));
        }
        let shard_len = match shards[present[0]].as_ref() {
            Some(s) => s.as_ref().len(),
            None => return Err(Error::InvalidArgument("present shard missing".into())),
        };
        for &i in &present {
            if shards[i].as_ref().map(|s| s.as_ref().len()) != Some(shard_len) {
                return Err(Error::InvalidArgument("surviving shards differ in length".into()));
            }
        }
        // Pick the first k survivors and invert their encoding rows.
        let use_rows: Vec<usize> = present.iter().copied().take(self.k).collect();
        let decode = self.encode_matrix.select_rows(&use_rows).inverse()?;
        let mut data = Vec::with_capacity(self.k);
        for r in 0..self.k {
            let mut shard = vec![0u8; shard_len];
            for (j, &src_row) in use_rows.iter().enumerate() {
                let coeff = decode.get(r, j);
                if let Some(src) = shards[src_row].as_ref() {
                    gf256::mul_acc_slice(&mut shard, src.as_ref(), coeff);
                }
            }
            data.push(shard);
        }
        Ok(data)
    }

    fn check_shards<S: AsRef<[u8]>>(&self, data: &[S]) -> Result<()> {
        if data.len() != self.k {
            return Err(Error::InvalidArgument(format!(
                "expected {} data shards, got {}",
                self.k,
                data.len()
            )));
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|s| s.as_ref().len() != len) {
            return Err(Error::InvalidArgument("data shards differ in length".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The `k + m` shards of a stripe: the data, then its parity.
    fn stripe(rs: &ReedSolomon, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        data.iter().cloned().chain(rs.parity(data).unwrap()).collect()
    }

    fn sample_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen::<u8>()).collect())
            .collect()
    }

    #[test]
    fn survives_any_m_erasures() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 128, 2);
        let shards = stripe(&rs, &data);
        // try every pair of losses
        for a in 0..6 {
            for b in (a + 1)..6 {
                let mut survivors: Vec<Option<Vec<u8>>> =
                    shards.iter().cloned().map(Some).collect();
                survivors[a] = None;
                survivors[b] = None;
                let rec = rs.reconstruct(&survivors).unwrap();
                assert_eq!(rec, data, "losing shards {a},{b}");
            }
        }
    }

    #[test]
    fn too_many_losses_is_unrecoverable() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = sample_data(3, 32, 3);
        let shards = stripe(&rs, &data);
        let mut survivors: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        survivors[0] = None;
        survivors[1] = None;
        survivors[2] = None;
        assert!(matches!(
            rs.reconstruct(&survivors),
            Err(common::Error::Unrecoverable(_))
        ));
    }

    #[test]
    fn parameter_validation() {
        assert!(ReedSolomon::new(0, 1).is_err());
        assert!(ReedSolomon::new(1, 0).is_err());
        assert!(ReedSolomon::new(200, 56).is_err());
        assert!(ReedSolomon::new(22, 2).is_ok()); // the 91%-utilization config
    }

    #[test]
    fn mismatched_shard_lengths_rejected() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let data = vec![vec![1, 2, 3], vec![4, 5]];
        assert!(rs.parity(&data).is_err());
    }

    #[test]
    fn wide_code_roundtrips() {
        // The paper's high-utilization configuration: 22 data + 2 parity.
        let rs = ReedSolomon::new(22, 2).unwrap();
        let data = sample_data(22, 256, 4);
        let shards = stripe(&rs, &data);
        let mut survivors: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        survivors[0] = None;
        survivors[23] = None;
        assert_eq!(rs.reconstruct(&survivors).unwrap(), data);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn reconstruct_inverts_encode(
            k in 1usize..8,
            m in 1usize..5,
            len in 1usize..64,
            seed in any::<u64>(),
            losses in proptest::collection::vec(any::<usize>(), 0..5),
        ) {
            let rs = ReedSolomon::new(k, m).unwrap();
            let data = sample_data(k, len, seed);
            let shards = stripe(&rs, &data);
            let mut survivors: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
            for &l in losses.iter().take(m) {
                survivors[l % (k + m)] = None;
            }
            let rec = rs.reconstruct(&survivors).unwrap();
            prop_assert_eq!(rec, data);
        }

        #[test]
        fn table_parity_matches_scalar_reference(
            k in 1usize..=16,
            m in 1usize..=4,
            seed in any::<u64>(),
        ) {
            let rs = ReedSolomon::shared(k, m).unwrap();
            for len in [63, 64, 104, 1000] {
                let data = sample_data(k, len, seed);
                let expected: Vec<Vec<u8>> = (k..k + m)
                    .map(|r| {
                        (0..len)
                            .map(|i| {
                                (0..k).fold(0u8, |acc, j| {
                                    gf256::add(acc, gf256::mul(rs.encode_matrix.get(r, j), data[j][i]))
                                })
                            })
                            .collect()
                    })
                    .collect();
                prop_assert_eq!(rs.parity(&data).unwrap(), expected, "k={} m={} len={}", k, m, len);
            }
        }
    }
}
