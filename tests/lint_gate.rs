//! Tier-1 gate for the determinism and error-hygiene rules (DESIGN.md,
//! "Determinism invariants"). Each test runs a nested `cargo clippy` into
//! its own directory under `CARGO_TARGET_TMPDIR`, so reruns are
//! incremental and the passes never invalidate one another.
//!
//! The levels live in the root `Cargo.toml`'s `[workspace.lints]` and in
//! crate roots; the ban lists in the `clippy.toml` nearest each crate. Test
//! code is linted against `lint/tests/clippy.toml`, which lacks the
//! non-test rules (R5, R7, R10). That pass also recompiles non-test code,
//! where those rules' waivers then have nothing to fulfil, so it allows
//! unfulfilled expectations; the non-test pass checks every waiver.
//!
//! There is no skip: without clippy every test here fails.

use std::path::Path;
use std::process::Command;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// A path under the repository root.
fn repo(rel: &str) -> String {
    Path::new(ROOT).join(rel).display().to_string()
}

/// Run `cargo clippy <args> -- <lint_flags>` with the ban lists read from
/// `conf_dir` (the nearest `clippy.toml` when `None`), building into
/// `CARGO_TARGET_TMPDIR/lint-gate/<target>`. Panics, with clippy's output,
/// unless it succeeds and every ban entry resolves. Returns that output.
fn clippy(target: &str, conf_dir: Option<&str>, args: &[&str], lint_flags: &[&str]) -> String {
    let target_dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("lint-gate")
        .join(target);
    let mut cmd = Command::new(env!("CARGO"));
    cmd.current_dir(ROOT)
        .args(["clippy", "--offline", "--locked", "--message-format=short"])
        .args(args)
        .arg("--target-dir")
        .arg(&target_dir)
        .arg("--")
        .args(lint_flags)
        .env_remove("CLIPPY_CONF_DIR");
    if let Some(dir) = conf_dir {
        cmd.env("CLIPPY_CONF_DIR", repo(dir));
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("cannot run cargo clippy: {e}"));
    let text = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "lint gate: `cargo clippy {}` failed:\n{text}",
        args.join(" ")
    );
    // Clippy only warns when a ban entry names nothing; an entry like that
    // bans nothing, so it fails the gate.
    assert!(
        !text.contains("does not refer to"),
        "lint gate: a ban entry resolves to nothing:\n{text}"
    );
    text
}

#[test]
fn non_test_code_keeps_every_rule() {
    clippy(
        "non-test",
        None,
        &["--workspace", "--lib", "--bins", "--examples"],
        &[],
    );
}

#[test]
fn test_code_keeps_the_test_rules() {
    clippy(
        "test",
        Some("lint/tests"),
        &["--workspace", "--tests"],
        &["-A", "unfulfilled_lint_expectations"],
    );
}

/// `benchmark/` is a package of its own, so it inherits none of the
/// workspace's levels: R1 (the wall clock only in `src/wall.rs`), R6 and W1
/// are passed here.
#[test]
fn benchmark_reads_the_wall_clock_only_in_wall_rs() {
    let text = clippy(
        "benchmark",
        Some("lint/benchmark"),
        &[
            "--manifest-path",
            &repo("benchmark/Cargo.toml"),
            "--all-targets",
        ],
        &[
            "-W",
            "clippy::disallowed_types",
            "-D",
            "clippy::undocumented_unsafe_blocks",
            "-D",
            "clippy::allow_attributes",
            "-D",
            "clippy::allow_attributes_without_reason",
            "-D",
            "unfulfilled_lint_expectations",
        ],
    );
    let findings: Vec<&str> = text.lines().filter(|l| l.contains("disallowed")).collect();
    assert!(
        !findings.is_empty(),
        "the benchmark ban list found no wall clock at all:\n{text}"
    );
    let stray: Vec<&&str> = findings
        .iter()
        .filter(|l| !l.starts_with("src/wall.rs:"))
        .collect();
    assert!(
        stray.is_empty(),
        "wall-clock or entropy use outside benchmark/src/wall.rs:\n{stray:#?}"
    );
}

/// The fixture holds one violation of each rule under the `#[expect]` its
/// lint must fulfil: a list or lint that stops firing fails here.
#[test]
fn fixture_fires_every_rule() {
    let manifest = repo("lint/fixture/Cargo.toml");
    let deny = ["-D", "unfulfilled_lint_expectations"];
    clippy(
        "fixture",
        Some("crates"),
        &["--manifest-path", &manifest, "--lib"],
        &deny,
    );
    clippy(
        "fixture",
        Some("lint/tests"),
        &["--manifest-path", &manifest, "--tests"],
        &deny,
    );
}
