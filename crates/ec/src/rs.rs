//! Systematic Reed–Solomon encoder/decoder.
//!
//! The encoding matrix is a Vandermonde matrix row-reduced so that its top
//! `k×k` block is the identity: the first `k` output shards are the data
//! itself (systematic), and the remaining `m` shards are parity. Any `k` of
//! the `k+m` shards reconstruct the original data by inverting the
//! corresponding rows.

use crate::gf256;
use crate::matrix::Matrix;
use common::{Error, Result};

/// A Reed–Solomon code with `k` data shards and `m` parity shards.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// (k+m) × k encoding matrix; top k rows are the identity.
    encode_matrix: Matrix,
}

impl ReedSolomon {
    /// Create a code with `k` data and `m` parity shards.
    ///
    /// `k + m` must not exceed 255 (the number of distinct nonzero
    /// evaluation points in GF(256)); `k` and `m` must be nonzero.
    pub fn new(k: usize, m: usize) -> Result<Self> {
        if k == 0 || m == 0 {
            return Err(Error::InvalidArgument("k and m must be nonzero".into()));
        }
        if k + m > 255 {
            return Err(Error::InvalidArgument(format!(
                "k+m = {} exceeds GF(256) limit of 255",
                k + m
            )));
        }
        // Build a (k+m) x k Vandermonde matrix, then normalize its top k x k
        // block to the identity by multiplying with that block's inverse.
        let vand = Matrix::vandermonde(k + m, k);
        let top: Vec<usize> = (0..k).collect();
        let top_inv = vand.select_rows(&top).inverse()?;
        let encode_matrix = vand.mul(&top_inv);
        Ok(ReedSolomon { k, m, encode_matrix })
    }

    /// Total shards produced by [`encode`](Self::encode).
    pub fn total_shards(&self) -> usize {
        self.k + self.m
    }

    /// Encode `k` equal-length data shards into `k + m` shards.
    ///
    /// The first `k` returned shards are (copies of) the inputs; the final
    /// `m` are parity. Zero-copy callers that already hold the data shards
    /// should call [`parity`](Self::parity) instead and keep their handles.
    pub fn encode<S: AsRef<[u8]>>(&self, data: &[S]) -> Result<Vec<Vec<u8>>> {
        let parity = self.parity(data)?;
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(self.total_shards());
        out.extend(data.iter().map(|s| s.as_ref().to_vec()));
        out.extend(parity);
        Ok(out)
    }

    /// Compute only the `m` parity shards for `k` equal-length data shards.
    ///
    /// This is the allocation-minimal half of [`encode`](Self::encode): the
    /// data shards pass through untouched at the caller, and only parity is
    /// materialized here.
    pub fn parity<S: AsRef<[u8]>>(&self, data: &[S]) -> Result<Vec<Vec<u8>>> {
        self.check_shards(data)?;
        let shard_len = data[0].as_ref().len();
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(self.m);
        for p in 0..self.m {
            let row = self.encode_matrix.row(self.k + p);
            let mut parity = vec![0u8; shard_len];
            for (j, &coeff) in row.iter().enumerate() {
                gf256::mul_acc_slice(&mut parity, data[j].as_ref(), coeff);
            }
            out.push(parity);
        }
        Ok(out)
    }

    /// Reconstruct the original `k` data shards from any `k` survivors.
    ///
    /// `shards[i]` is `Some` if shard `i` survived (indices `0..k` are data,
    /// `k..k+m` parity). Fails with `Unrecoverable` when fewer than `k`
    /// shards survive.
    pub fn reconstruct<S: AsRef<[u8]>>(&self, shards: &[Option<S>]) -> Result<Vec<Vec<u8>>> {
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
        // Fast path: all data shards intact.
        if (0..self.k).all(|i| shards[i].is_some()) {
            return Ok(shards[..self.k]
                .iter()
                .flatten()
                .map(|s| s.as_ref().to_vec())
                .collect());
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

    fn sample_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen::<u8>()).collect())
            .collect()
    }

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 64, 1);
        let shards = rs.encode(&data).unwrap();
        assert_eq!(shards.len(), 6);
        assert_eq!(&shards[..4], &data[..]);
    }

    #[test]
    fn survives_any_m_erasures() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 128, 2);
        let shards = rs.encode(&data).unwrap();
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
        let shards = rs.encode(&data).unwrap();
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
        assert!(rs.encode(&data).is_err());
    }

    #[test]
    fn wide_code_roundtrips() {
        // The paper's high-utilization configuration: 22 data + 2 parity.
        let rs = ReedSolomon::new(22, 2).unwrap();
        let data = sample_data(22, 256, 4);
        let shards = rs.encode(&data).unwrap();
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
            let shards = rs.encode(&data).unwrap();
            let mut survivors: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
            for &l in losses.iter().take(m) {
                survivors[l % (k + m)] = None;
            }
            let rec = rs.reconstruct(&survivors).unwrap();
            prop_assert_eq!(rec, data);
        }
    }
}
