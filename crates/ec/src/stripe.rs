//! Striping arbitrary-length buffers into redundancy shards.
//!
//! PLogs store each write either as `n` full replicas or as a Reed–Solomon
//! stripe. [`Redundancy`] captures the strategy, [`Stripe`] carries encoded
//! shards plus the original length (needed to strip padding on decode), and
//! `Redundancy::stored_bytes` implements the Fig 14(d) space accounting.

use crate::rs::{check_params, ReedSolomon};
use common::size::div_ceil;
use common::{Bytes, Error, Result};

/// Data-redundancy strategy for a PLog write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// Store `copies` identical replicas (paper: HDFS-style, 33% utilization
    /// at 3 copies). `copies` includes the primary, so `copies = 2` tolerates
    /// one loss.
    Replicate {
        /// Total number of stored copies (primary included).
        copies: usize,
    },
    /// Reed–Solomon with `k` data + `m` parity shards; tolerates `m` losses
    /// at `(k+m)/k` space overhead.
    ErasureCode {
        /// Data shards per stripe.
        k: usize,
        /// Parity shards per stripe.
        m: usize,
    },
}

impl Redundancy {
    /// Replication with fault tolerance `ft` (i.e. `ft + 1` copies).
    pub fn replication_for_ft(ft: usize) -> Redundancy {
        Redundancy::Replicate { copies: ft + 1 }
    }

    /// Erasure coding with `k` data shards and fault tolerance `ft`.
    pub fn ec_for_ft(k: usize, ft: usize) -> Redundancy {
        Redundancy::ErasureCode { k, m: ft }
    }

    /// Ratio of stored bytes to logical bytes (the Fig 14(d) Y-axis).
    pub(crate) fn space_multiplier(&self) -> f64 {
        match *self {
            Redundancy::Replicate { copies } => copies as f64,
            Redundancy::ErasureCode { k, m } => (k + m) as f64 / k as f64,
        }
    }

    /// Physical bytes consumed to store `logical` bytes, including stripe
    /// padding for erasure coding.
    pub fn stored_bytes(&self, logical: u64) -> u64 {
        match *self {
            Redundancy::Replicate { copies } => logical * copies as u64,
            Redundancy::ErasureCode { k, m } => {
                let shard = div_ceil(logical, k as u64);
                shard * (k + m) as u64
            }
        }
    }

    /// Disk utilization rate: logical bytes / stored bytes. The paper quotes
    /// 33% for 3-way replication vs 91% for its EC layout.
    pub fn utilization(&self) -> f64 {
        1.0 / self.space_multiplier()
    }
}

/// Encoded shards of one buffer.
#[derive(Debug, Clone)]
pub struct Stripe {
    /// Shard payloads; index order is data shards then parity (EC), or the
    /// replicas (replication). Replication shards are `copies` handles over
    /// ONE buffer; EC data shards are zero-copy slices of the input (only
    /// the padded tail shard and the parity shards are fresh allocations).
    pub shards: Vec<Bytes>,
}

impl Stripe {
    /// Encode `data` under `redundancy`.
    ///
    /// Takes the payload by handle (anything `Into<Bytes>`): replication
    /// produces `copies` refcounted clones of it with zero payload copies,
    /// and erasure coding slices the data shards straight out of it.
    pub fn encode(data: impl Into<Bytes>, redundancy: Redundancy) -> Result<Stripe> {
        let data: Bytes = data.into();
        let shards = match redundancy {
            Redundancy::Replicate { copies } => {
                if copies == 0 {
                    return Err(Error::InvalidArgument("zero replicas".into()));
                }
                vec![data.clone(); copies]
            }
            Redundancy::ErasureCode { k, m } => {
                let rs = ReedSolomon::shared(k, m)?;
                let shard_len = div_ceil(data.len().max(1) as u64, k as u64) as usize;
                let mut shards: Vec<Bytes> = Vec::with_capacity(k + m);
                for i in 0..k {
                    let start = (i * shard_len).min(data.len());
                    let end = ((i + 1) * shard_len).min(data.len());
                    if end - start == shard_len {
                        shards.push(data.slice(start..end));
                    } else {
                        // Only the final, short shard materializes: it must
                        // be zero-padded out to `shard_len`.
                        let mut tail = data.as_slice()[start..end].to_vec();
                        tail.resize(shard_len, 0);
                        shards.push(Bytes::from_vec(tail));
                    }
                }
                let parity = rs.parity(&shards)?;
                shards.extend(parity.into_iter().map(Bytes::from_vec));
                shards
            }
        };
        Ok(Stripe { shards })
    }

    /// Decode the original buffer from surviving shards.
    ///
    /// `survivors[i]` is `Some` when shard `i` is readable. Replication needs
    /// any one survivor and returns that handle itself (no payload copy); EC
    /// needs any `k` and materializes one contiguous buffer.
    pub fn decode(
        redundancy: Redundancy,
        original_len: usize,
        survivors: &[Option<Bytes>],
    ) -> Result<Bytes> {
        match redundancy {
            Redundancy::Replicate { copies } => {
                if survivors.len() != copies {
                    return Err(Error::InvalidArgument("wrong replica slot count".into()));
                }
                survivors
                    .iter()
                    .flatten()
                    .next()
                    .cloned()
                    .ok_or_else(|| Error::Unrecoverable("all replicas lost".into()))
            }
            Redundancy::ErasureCode { k, m } => {
                check_params(k, m)?;
                let mut out = Vec::with_capacity(original_len);
                if survivors.len() == k + m && survivors[..k].iter().all(Option::is_some) {
                    // All data shards intact: concatenate them directly;
                    // the code itself is never needed.
                    for shard in survivors[..k].iter().flatten() {
                        out.extend_from_slice(shard);
                    }
                } else {
                    for shard in ReedSolomon::shared(k, m)?.reconstruct(survivors)? {
                        out.extend_from_slice(&shard);
                    }
                }
                out.truncate(original_len);
                Ok(Bytes::from_vec(out))
            }
        }
    }

    /// Total bytes across all shards (physical footprint of this stripe).
    pub fn stored_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const GOLDEN_RS_10_2_CRCS: [u32; 12] = [
        0xa0d0_4048, 0xa795_3845, 0xc842_f065, 0x10b6_4f7a, 0x1369_2c84, 0xf9af_1f5c,
        0x6791_61c1, 0xe730_bd88, 0xeffa_246d, 0xf3ee_a88c, 0x2f18_488f, 0x5235_3008,
    ];

    #[test]
    fn replication_space_accounting() {
        let r = Redundancy::replication_for_ft(2); // 3 copies
        assert_eq!(r, Redundancy::Replicate { copies: 3 });
        assert_eq!(r.space_multiplier(), 3.0);
        assert_eq!(r.stored_bytes(1000), 3000);
        assert!((r.utilization() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ec_space_accounting_matches_paper_utilization() {
        // Paper: EC lifts disk utilization from 33% to 91%; 22+2 gives 91.7%.
        let r = Redundancy::ec_for_ft(22, 2);
        assert_eq!(r, Redundancy::ErasureCode { k: 22, m: 2 });
        assert!((r.utilization() - 22.0 / 24.0).abs() < 1e-12);
        assert!(r.utilization() > 0.91);
    }

    #[test]
    fn replicate_roundtrip_with_losses() {
        let data = b"hello plog".to_vec();
        let s = Stripe::encode(&data, Redundancy::Replicate { copies: 3 }).unwrap();
        assert_eq!(s.shards.len(), 3);
        let mut survivors: Vec<Option<Bytes>> = s.shards.iter().cloned().map(Some).collect();
        survivors[0] = None;
        survivors[1] = None;
        let out =
            Stripe::decode(Redundancy::Replicate { copies: 3 }, data.len(), &survivors).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn replication_shards_alias_one_buffer() {
        let data = Bytes::from_vec(vec![5u8; 4096]);
        let before = common::bytes::payload_copies();
        let s = Stripe::encode(&data, Redundancy::Replicate { copies: 3 }).unwrap();
        assert_eq!(common::bytes::payload_copies(), before, "replication must not copy");
        assert!(s.shards.iter().all(|sh| sh.aliases(&data)));
        // EC data shards are zero-copy views too; only tail + parity allocate.
        let before = common::bytes::payload_copies();
        let ec = Stripe::encode(&data, Redundancy::ErasureCode { k: 4, m: 2 }).unwrap();
        assert_eq!(common::bytes::payload_copies(), before, "EC data shards must be slices");
        assert!(ec.shards[..4].iter().all(|sh| sh.aliases(&data)));
    }

    #[test]
    fn all_replicas_lost_is_unrecoverable() {
        let data = b"x".to_vec();
        let s = Stripe::encode(&data, Redundancy::Replicate { copies: 2 }).unwrap();
        let survivors = vec![None; s.shards.len()];
        assert!(matches!(
            Stripe::decode(Redundancy::Replicate { copies: 2 }, 1, &survivors),
            Err(common::Error::Unrecoverable(_))
        ));
    }

    #[test]
    fn ec_roundtrip_with_padding() {
        // length 10 over k=4 shards: shard_len 3, 2 bytes padding.
        let data: Vec<u8> = (0..10).collect();
        let red = Redundancy::ErasureCode { k: 4, m: 2 };
        let s = Stripe::encode(&data, red).unwrap();
        assert_eq!(s.shards.len(), 6);
        let mut survivors: Vec<Option<Bytes>> = s.shards.iter().cloned().map(Some).collect();
        survivors[1] = None;
        survivors[4] = None;
        let out = Stripe::decode(red, data.len(), &survivors).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn empty_buffer_roundtrips() {
        let red = Redundancy::ErasureCode { k: 3, m: 1 };
        let s = Stripe::encode(Bytes::new(), red).unwrap();
        let survivors: Vec<Option<Bytes>> = s.shards.iter().cloned().map(Some).collect();
        assert_eq!(Stripe::decode(red, 0, &survivors).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn ec_saves_three_to_five_x_versus_replication() {
        // Fig 14(d): at equal fault tolerance EC stores 3-5x less.
        for ft in 1..=3usize {
            let rep = Redundancy::replication_for_ft(ft);
            let ec = Redundancy::ec_for_ft(10, ft);
            let ratio = rep.space_multiplier() / ec.space_multiplier();
            assert!(ratio > 1.5, "ft={ft}: EC must beat replication");
        }
    }

    #[test]
    fn invalid_code_shapes_are_rejected_with_every_shard_present() {
        // The healthy decode never builds a code, so it must check the
        // shape itself: every slot is `Some` here, which is the path that
        // concatenates data shards without touching the code.
        for (k, m) in [(0, 2), (10, 0), (250, 10)] {
            let red = Redundancy::ErasureCode { k, m };
            let survivors = vec![Some(Bytes::from_vec(vec![7u8; 4])); k + m];
            assert!(
                matches!(Stripe::decode(red, 4 * k, &survivors), Err(Error::InvalidArgument(_))),
                "decode accepted k={k} m={m}"
            );
            assert!(
                matches!(Stripe::encode(vec![7u8; 40], red), Err(Error::InvalidArgument(_))),
                "encode accepted k={k} m={m}"
            );
        }
    }

    #[test]
    fn ec_shards_are_byte_identical_to_the_recorded_code() {
        // CRC32 of each of the 12 shards of a fixed 1 041-byte payload
        // under RS 10+2, recorded before the code was memoised with
        // product rows. Any change to the encoding matrix or the kernel
        // that moves a parity byte fails here.
        let data: Vec<u8> =
            (0..1041u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let s = Stripe::encode(data, Redundancy::ErasureCode { k: 10, m: 2 }).unwrap();
        let crcs: Vec<u32> = s.shards.iter().map(|sh| common::checksum::crc32(sh)).collect();
        assert_eq!(crcs, GOLDEN_RS_10_2_CRCS);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn ec_roundtrip_arbitrary(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            k in 1usize..8,
            m in 1usize..4,
            loss_seed in any::<u64>(),
        ) {
            let red = Redundancy::ErasureCode { k, m };
            let s = Stripe::encode(&data, red).unwrap();
            let mut survivors: Vec<Option<Bytes>> = s.shards.iter().cloned().map(Some).collect();
            // lose up to m shards deterministically from the seed
            let mut x = loss_seed;
            for _ in 0..m {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let idx = (x >> 33) as usize % survivors.len();
                survivors[idx] = None;
            }
            let out = Stripe::decode(red, data.len(), &survivors).unwrap();
            prop_assert_eq!(out, data);
        }

        #[test]
        fn stored_bytes_at_least_logical(logical in 0u64..1_000_000, k in 1usize..24, m in 1usize..4) {
            let red = Redundancy::ErasureCode { k, m };
            prop_assert!(red.stored_bytes(logical) >= logical);
        }
    }
}
