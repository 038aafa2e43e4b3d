//! The four workloads and what they share.
//!
//! Every workload follows one shape, which [`crate::drive`] runs: generate
//! all inputs from the seed, bring a deployment up and preload it, run a
//! fixed number of operations through public functions only, then check
//! every output against a reference the generator computed.

pub mod ingest_convert;
pub mod lake_query;
pub mod stream_rt;
pub mod txn_mixed;

use crate::drive::PASSES;
use crate::layers::{Counters, Evidence, Layers};
use crate::trace::{Open, Recorder};
use common::clock::Nanos;
use common::ctx::{IoCtx, QosClass};
use streamlake::StreamLake;

/// Epoch second every packet generator starts at (hour-aligned).
pub const T0: i64 = 1_656_806_400;

/// How a pass mints request contexts: the end-to-end run uses sink-less
/// contexts, the traced run attaches the deployment's `SpanSink` through
/// `StreamLake::root_ctx`.
pub fn ctx_at(sl: &StreamLake, traced: bool, now: Nanos) -> IoCtx {
    if traced {
        sl.root_ctx(QosClass::Foreground).at(now)
    } else {
        IoCtx::new(now)
    }
}

/// Run every maintenance tick due by `now`, timed as one chore call. With
/// `split_io` the public counters are read around the call, so the I/O
/// chores did can be told apart from the foreground's.
pub fn maintain(sl: &StreamLake, now: Nanos, pass: Open, req: u64, rec: &mut Recorder) {
    let before = rec.split_io.then(|| Counters::take(sl));
    let op = rec.open("core.chore.run_maintenance_until", pass, req);
    std::hint::black_box(sl.run_maintenance_until(now));
    let ns = rec.close(op);
    rec.chore_ns.push(ns);
    if let Some(before) = before {
        rec.chore_io.add(&Counters::take(sl).since(&before));
    }
}

/// What the checks found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Verified primary operations (the numerator of `ops_per_s`).
    pub primary_ops: u64,
    /// Wrong or missing outputs found by the reference check.
    pub wrong: u64,
    /// Digest of the outputs; same seed ⇒ same digest.
    pub digest: u64,
    /// Logical user bytes held by the deployment (the denominator of
    /// `space_amp`).
    pub logical_bytes: u64,
    /// Stream records delivered twice or never (part of `wrong`).
    pub dup_or_lost: u64,
    /// Human-readable reasons for every wrong output class.
    pub notes: Vec<String>,
}

impl Verdict {
    /// Record `n` wrong outputs with a reason.
    pub fn wrong(&mut self, n: u64, why: impl Into<String>) {
        if n > 0 {
            self.wrong += n;
            self.notes.push(why.into());
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Name in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Generated inputs (everything the timed phase consumes).
    type Inputs;
    /// A live deployment plus the handles the pass needs.
    type Dep;
    /// What a pass hands to the checks.
    type Outputs;

    /// Operations of one timed pass for a `--seconds` budget. The count
    /// is fixed (not time-boxed) so counts, digests and virtual times
    /// repeat exactly; the per-second rates were calibrated once on the
    /// 2-core sandbox so the timed passes together last about `seconds`.
    fn ops(seconds: u64, quick: bool) -> usize;

    /// Generate every input from `seed`.
    fn generate(seed: u64, ops: usize) -> Self::Inputs;

    /// Bring a deployment up and preload it. Preload writes that count as
    /// the workload's write op are recorded into `rec`.
    fn setup(inputs: &Self::Inputs, rec: &mut Recorder) -> Self::Dep;

    /// Run the `ops` operations of `inputs` against `dep`. The first `warm`
    /// of them are the warm-up: the timed phase ([`Recorder::start`])
    /// begins at operation `warm`, on the same deployment.
    fn run(
        dep: &mut Self::Dep,
        inputs: &Self::Inputs,
        ops: usize,
        warm: usize,
        rec: &mut Recorder,
    ) -> Self::Outputs;

    /// Check `out` against the reference; the pass covered `ops` operations.
    fn verify(dep: &Self::Dep, inputs: &Self::Inputs, ops: usize, out: &Self::Outputs) -> Verdict;

    /// The deployment under test.
    fn lake(dep: &Self::Dep) -> &StreamLake;

    /// Workload-specific per-layer metrics, drill-down replays and ledger
    /// credits, after the traced pass.
    fn layers(
        dep: &mut Self::Dep,
        inputs: &Self::Inputs,
        ops: usize,
        out: &Self::Outputs,
        ev: &Evidence,
        layers: &mut Layers,
    );
}

/// Scale a per-second rate (operations per second of `--seconds` budget,
/// over all passes) to the op count of one pass, with the `--quick`
/// divisor.
pub fn scaled(per_second: usize, seconds: u64, quick: bool, floor: usize) -> usize {
    let full = per_second * seconds as usize / PASSES;
    if quick {
        (full / 50).max(floor)
    } else {
        full.max(floor)
    }
}
