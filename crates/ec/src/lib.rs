//! Erasure coding for StreamLake's PLog redundancy.
//!
//! The paper stores PLog data with either replication or erasure coding
//! (§I "Low TCO": disk utilization 33% → 91%; Fig 14(d) compares replication,
//! EC, and EC over columnar data). This crate implements systematic
//! Reed–Solomon codes over GF(2^8) from scratch:
//!
//! * [`gf256`] — table-driven field arithmetic;
//! * [`matrix`] — dense matrices with Gaussian-elimination inversion;
//! * [`rs`] — the `ReedSolomon` encoder/decoder (`k` data + `m` parity
//!   shards, any `m` losses recoverable);
//! * [`stripe`] — byte-level striping of arbitrary-length buffers into
//!   shards, plus the space-overhead accounting used in Fig 14(d).

pub mod gf256;
pub(crate) mod matrix;
pub(crate) mod rs;
pub(crate) mod stripe;

pub use stripe::{Redundancy, Stripe};
