#!/usr/bin/env bash
# Full local gate: build everything, run tier-1 tests (debug, so every lock
# acquisition is checked by the lock-order witness; `tests/lint_gate.rs`
# runs clippy's determinism/error-hygiene passes). Mirrors what CI would run.
#
# For a refactor that must not move behaviour, also run
# `scripts/oracle.sh [<ref>=HEAD~1]`: it builds <ref> in a git worktree under
# target/oracle/ and fails if any of the six virtual-time smoke bins
# (repro_all, phase_smoke, chore_soak, stream_scale, tenant_isolation,
# txn_atomic) prints different bytes on this tree than on <ref>.
set -euo pipefail
cd "$(dirname "$0")/.."

# The gate must leave the tree as it found it: snapshot the working-tree
# status (uncommitted work included) and fail at the end if any step wrote
# into a tracked file.
status_before="$(git status --porcelain)"

cargo build --release
cargo test -q
# Hostile bytes against every binary decoder, again in release: debug
# builds panic on an overflowing `offset + length`, release builds wrap it
# silently, so a decoder must pass under both profiles.
cargo test -q --release --test hostile_bytes
# The EC kernel (product rows, memoised codes) and the stream object's
# borrowed, binary-searched read, again in release: tier-1 runs their
# proptests and the linear-reference read test only in debug, where
# arithmetic overflow panics and the optimiser has not reordered anything.
cargo test -q --release -p ec -p stream
# Examples are outside tier-1: type-check every target so a stale one fails
# this gate. Any compiler warning fails it too, so an import or private
# helper a deletion left behind cannot linger (cargo replays cached
# warnings, so a no-op re-check still reports them).
check_out="$(cargo check --all-targets 2>&1)"
echo "$check_out"
if grep -q '^warning' <<<"$check_out"; then
    echo "check.sh: FAILED — cargo check --all-targets printed warnings" >&2
    exit 1
fi
# The end-to-end benchmark is a package of its own (outside the workspace)
# built against this repo's public API: build it so API drift fails here,
# not in the benchmark driver.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# The benchmark's own tests: its schema-drift gate against BENCHMARK.json,
# and every workload run with `--quick` plus its reference checks, so a
# workload that would report `correct: false` fails here. Output lands in
# the gitignored benchmark/out/.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
# Chaos suite: seeded fault schedules (bit-rot, deaths, torn writes, gray
# failure) against the PLog stack — detection, scrub convergence, replay
# determinism and the zero-copy healed-read guard. Includes the 8-seed sweep
# (`seed_sweep_never_returns_corrupt_bytes`). Already part of `cargo test -q`
# above; re-run explicitly so a chaos regression is named in the gate output.
cargo test -q --test chaos
# Latency-attribution smoke: a tiny Fig 14-style run; fails if any span
# phase (queue/device/wan/meta) records zero samples.
cargo run --release -p bench --bin phase_smoke
# Maintenance-runtime soak: four virtual hours with every chore registered;
# fails if any chore never ticks, is stuck in backoff, or starves.
cargo run --release -p bench --bin chore_soak
# Consumer-group convergence smoke: a 64-partition topic under member
# churn; fails on unassigned partitions, a non-converging rebalance, or
# any lost/duplicated delivery.
cargo run --release -p bench --bin stream_scale
# Tenant-isolation SLO smoke: a noisy tenant at 10x its fair share through
# the multi-tenant front door; fails if the quiet tenant's foreground p99
# degrades beyond 1.5x the quiesced baseline, the rate limiter leaks, or a
# same-seed replay diverges from its admission/breaker journal.
cargo run --release -p bench --bin tenant_isolation
# Stream⇄table atomicity smoke: seeded cross-subsystem transactions with
# coordinator crashes at both crash points; fails on any partial-visibility
# window, surviving intents, or a same-seed replay divergence.
cargo run --release -p bench --bin txn_atomic
# Wall-clock perf baseline for the paths slbench does not run: measure
# them and fail if any sits below its floor in the committed
# BENCH_PERF.json. Read-only; a bare `perf_baseline` run re-records the file.
cargo run --release -p bench --bin perf_baseline -- --check
if [ "$(git status --porcelain)" != "$status_before" ]; then
    echo "check.sh: FAILED — the gate modified the working tree:" >&2
    diff <(echo "$status_before") <(git status --porcelain) >&2 || true
    exit 1
fi
