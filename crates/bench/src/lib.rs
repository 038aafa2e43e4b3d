//! The experiment harness: one module per table/figure of the paper's §VII.
//!
//! Each module exposes a `run…` function returning structured rows and a
//! `print…` helper producing the paper-style table. The `repro_*` binaries
//! call these at full (laptop) scale to regenerate every number recorded in
//! `EXPERIMENTS.md`.
//!
//! Scale note: the paper's workloads (10M–1B packets, 100 TB–1 PB message
//! volumes, TPC-H SF 2–100) are scaled down ~1000× so every experiment
//! runs in minutes on one core. All comparisons are *relative* — both
//! systems always run on identical simulated hardware — so the shapes
//! (who wins, by what factor, where crossovers fall) carry over.

pub mod fig1;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod table1;
