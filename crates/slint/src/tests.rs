//! Unit tests for every rule and the waiver syntax.
//!
//! Fixtures are inline source strings scanned under fake workspace paths,
//! so each test controls exactly which rule scopes apply.

use super::*;

fn rules_fired(path: &str, source: &str) -> Vec<Rule> {
    scan_source(path, source).into_iter().map(|f| f.rule).collect()
}

// ---- R1: wall-clock time ------------------------------------------------

#[test]
fn r1_flags_instant_outside_bench() {
    let src = "pub fn now() { let _t = std::time::Instant::now(); }\n";
    assert_eq!(rules_fired("crates/lake/src/x.rs", src), vec![Rule::R1]);
    assert_eq!(rules_fired("src/lib.rs", src), vec![Rule::R1]);
}

#[test]
fn r1_allows_bench_and_duration() {
    let src = "pub fn now() { let _t = std::time::Instant::now(); }\n";
    assert!(rules_fired("crates/bench/benches/x.rs", src).is_empty());
    // Duration is deterministic data, not a clock read.
    let dur = "use std::time::Duration;\npub fn f(_d: Duration) {}\n";
    assert!(rules_fired("crates/lake/src/x.rs", dur).is_empty());
}

#[test]
fn r1_flags_systemtime_via_use_then_call() {
    let src = "use std::time::SystemTime;\npub fn f() -> u64 { let _t = SystemTime::now(); 0 }\n";
    let fired = rules_fired("crates/stream/src/x.rs", src);
    assert!(fired.iter().all(|r| *r == Rule::R1));
    assert_eq!(fired.len(), 2, "the use and the call site both flag");
}

// ---- R2: ambient entropy ------------------------------------------------

#[test]
fn r2_flags_entropy_in_sim_crates_only() {
    let src = "pub fn f() -> u64 { rand::thread_rng().gen() }\n";
    assert_eq!(rules_fired("crates/simdisk/src/x.rs", src), vec![Rule::R2]);
    assert_eq!(rules_fired("crates/workloads/src/gen.rs", src), vec![Rule::R2]);
    // ec is pure math over explicit inputs; out of R2 scope.
    assert!(rules_fired("crates/ec/src/x.rs", src).is_empty());
}

#[test]
fn r2_flags_osrng_and_from_entropy() {
    let src = "use rand::rngs::OsRng;\nlet r = StdRng::from_entropy();\n";
    let fired = rules_fired("crates/plog/src/x.rs", src);
    assert_eq!(fired, vec![Rule::R2, Rule::R2]);
}

// ---- R3: real sleeping / file I/O --------------------------------------

#[test]
fn r3_flags_sleep_and_fs_in_sim_crates() {
    let src = "pub fn f() { std::thread::sleep(d); let _ = std::fs::read(\"x\"); }\n";
    let fired = rules_fired("crates/lakebrain/src/x.rs", src);
    assert_eq!(fired, vec![Rule::R3, Rule::R3]);
}

#[test]
fn r3_exempts_the_kvstore_wal() {
    let src = "pub fn persist() { let _r = std::fs::write(\"wal\", b\"x\"); }\n";
    assert!(rules_fired("crates/kvstore/src/wal.rs", src).is_empty());
    assert_eq!(rules_fired("crates/kvstore/src/store.rs", src), vec![Rule::R3]);
}

// ---- R4: panicking operators in library code ---------------------------

#[test]
fn r4_flags_unwrap_expect_panic_in_lib_code() {
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    let a = v.unwrap();\n    let b = v.expect(\"x\");\n    if a == b { panic!(\"boom\"); }\n    unreachable!()\n}\n";
    let fired = rules_fired("crates/lake/src/x.rs", src);
    assert_eq!(fired, vec![Rule::R4; 4]);
}

#[test]
fn r4_skips_cfg_test_modules() {
    let src = "pub fn ok() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   #[test]\n\
                   fn t() { Some(1).unwrap(); }\n\
               }\n";
    assert!(rules_fired("crates/stream/src/x.rs", src).is_empty());
}

#[test]
fn r4_resumes_after_cfg_test_module_closes() {
    let src = "#[cfg(test)]\n\
               mod tests {\n\
                   fn t() { Some(1).unwrap(); }\n\
               }\n\
               pub fn bad() { Some(1).unwrap(); }\n";
    let findings = scan_source("crates/format/src/x.rs", src);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].line, 5);
}

#[test]
fn r4_out_of_scope_crates_are_untouched() {
    let src = "pub fn f() { Some(1).unwrap(); }\n";
    assert!(rules_fired("crates/common/src/x.rs", src).is_empty());
    assert!(rules_fired("crates/ec/src/x.rs", src).is_empty());
}

#[test]
fn r4_ignores_tokens_in_strings_and_comments() {
    let src = "pub fn f() -> String {\n    // the docs say .unwrap() is bad\n    format!(\"never .unwrap() here\")\n}\n";
    assert!(rules_fired("crates/lake/src/x.rs", src).is_empty());
}

#[test]
fn r4_does_not_match_expect_err() {
    let src = "pub fn f(r: Result<u8, u8>) -> u8 { r.expect_err(\"want err\") }\n";
    // expect_err panics too, but the lint targets the common operators;
    // this test pins the word-boundary behaviour either way.
    assert!(rules_fired("crates/lake/src/x.rs", src).is_empty());
}

// ---- R5: hash containers in deterministic crates ------------------------

#[test]
fn r5_flags_iterated_hashmap() {
    let src = "use std::collections::HashMap;\n\
               pub fn f(m: &HashMap<u64, u64>) -> u64 {\n\
                   m.values().sum()\n\
               }\n";
    let fired = rules_fired("crates/simdisk/src/x.rs", src);
    assert_eq!(fired, vec![Rule::R5, Rule::R5], "use + type position");
}

#[test]
fn r5_ignores_uniterated_hashmap_and_foreign_crates() {
    // No iteration tokens anywhere in the file: point lookups are fine.
    let src = "use std::collections::HashMap;\n\
               pub fn f(m: &HashMap<u64, u64>) -> Option<&u64> { m.get(&1) }\n";
    assert!(rules_fired("crates/simdisk/src/x.rs", src).is_empty());
    // workloads is R2-scoped but not R5-scoped.
    let iterating = "use std::collections::HashMap;\npub fn f(m: &HashMap<u64,u64>) -> u64 { m.values().sum() }\n";
    assert!(rules_fired("crates/workloads/src/x.rs", iterating).is_empty());
}

#[test]
fn r5_skips_test_code() {
    let src = "pub fn ok() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   use std::collections::HashMap;\n\
                   fn t(m: &HashMap<u64,u64>) -> u64 { m.values().sum() }\n\
               }\n";
    assert!(rules_fired("crates/lake/src/x.rs", src).is_empty());
}

// ---- R6: unsafe needs SAFETY --------------------------------------------

#[test]
fn r6_flags_undocumented_unsafe_everywhere() {
    let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    assert_eq!(rules_fired("crates/ec/src/x.rs", src), vec![Rule::R6]);
    assert_eq!(rules_fired("crates/common/src/x.rs", src), vec![Rule::R6]);
}

#[test]
fn r6_accepts_safety_comment_within_three_lines() {
    let src = "// SAFETY: p is non-null and points into the arena, whose\n\
               // lifetime outlives this call.\n\
               pub fn f(p: *const u8) -> u8 {\n\
                   unsafe { *p }\n\
               }\n";
    assert!(rules_fired("crates/ec/src/x.rs", src).is_empty());
}

#[test]
fn r6_safety_comment_too_far_away_does_not_count() {
    let src = "// SAFETY: stale note\n\nfn a() {}\nfn b() {}\n\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    assert_eq!(rules_fired("crates/ec/src/x.rs", src), vec![Rule::R6]);
}

// ---- R7: clock advancement outside the clock owner ------------------------

#[test]
fn r7_flags_clock_advance_in_upper_layers() {
    let src = "pub fn f(c: &common::SimClock) { c.advance(10); c.advance(50); }\n";
    let fired = rules_fired("crates/lake/src/x.rs", src);
    assert_eq!(fired, vec![Rule::R7, Rule::R7]);
    assert_eq!(rules_fired("crates/stream/src/x.rs", src), vec![Rule::R7, Rule::R7]);
    // A fault schedule's `advance_to` applies due faults; it moves no clock.
    let inj = "pub fn f(i: &FaultInjector) { i.advance_to(50); }\n";
    assert!(rules_fired("crates/simdisk/src/x.rs", inj).is_empty());
}

#[test]
fn r7_exempts_only_the_clock_owner() {
    let src = "pub fn f(c: &SimClock) { c.advance(t); }\n";
    assert!(rules_fired("crates/common/src/clock.rs", src).is_empty());
    assert_eq!(rules_fired("crates/simdisk/src/device.rs", src), vec![Rule::R7]);
    // Root integration tests and examples drive scenarios; out of scope.
    assert!(rules_fired("tests/operations.rs", src).is_empty());
    assert!(rules_fired("examples/quickstart.rs", src).is_empty());
}

#[test]
fn r7_skips_test_code() {
    let src = "pub fn ok() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn t(c: &common::SimClock) { c.advance(5); }\n\
               }\n";
    assert!(rules_fired("crates/lake/src/x.rs", src).is_empty());
}

// ---- R8: ad-hoc background-service calls ---------------------------------

#[test]
fn r8_flags_service_entry_points_outside_the_owner_crate() {
    let src = "pub fn f(s: &ScrubService) { let _r = s.run_cycle(&ctx, 4); }\n";
    assert_eq!(rules_fired("crates/core/src/system.rs", src), vec![Rule::R8]);
    // root integration tests are not exempt: they drive deployments and
    // must use the runtime (or carry an explicit waiver).
    assert_eq!(rules_fired("tests/chaos.rs", src), vec![Rule::R8]);
}

#[test]
fn r8_exempts_each_entry_point_in_its_own_crate_only() {
    let scrub = "pub fn f(s: &ScrubService) { let _r = s.run_cycle(&ctx, 4); }\n";
    assert!(rules_fired("crates/plog/src/scrub.rs", scrub).is_empty());
    let archive = "pub fn f(a: &ArchiveService) { let _r = a.maybe_archive(&o, &c, &ctx); }\n";
    assert!(rules_fired("crates/stream/src/archive.rs", archive).is_empty());
    // the exemption is per token, not blanket: plog calling the archive
    // entry point still flags.
    assert_eq!(rules_fired("crates/plog/src/x.rs", archive), vec![Rule::R8]);
}

#[test]
fn r8_applies_even_inside_test_modules() {
    // Unlike R4/R5/R7, test code is in scope: tests are exactly where
    // ad-hoc service loops accumulate, so they need an explicit waiver.
    let src = "pub fn ok() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn t(c: &Compactor) { let _ = c.compact_all(&s, &ctx); }\n\
               }\n";
    assert_eq!(rules_fired("crates/stream/src/x.rs", src), vec![Rule::R8]);
}

#[test]
fn r8_waiver_suppresses_with_a_reason() {
    let src = "// slint:allow(R8): this test asserts run-to-convergence semantics directly\n\
               fn t(s: &ScrubService) { let _ = s.run_to_convergence(&ctx, 8); }\n";
    assert!(rules_fired("tests/chaos.rs", src).is_empty());
}

// ---- waivers -------------------------------------------------------------

#[test]
fn waiver_on_same_line_suppresses() {
    let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() } // slint:allow(R4): invariant: caller checked is_some\n";
    assert!(rules_fired("crates/lake/src/x.rs", src).is_empty());
}

#[test]
fn waiver_on_line_above_suppresses() {
    let src = "// slint:allow(R4): the constructor guarantees the key exists\npub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert!(rules_fired("crates/lake/src/x.rs", src).is_empty());
}

#[test]
fn waiver_only_covers_its_rule() {
    let src = "// slint:allow(R1): timing debug\npub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert_eq!(rules_fired("crates/lake/src/x.rs", src), vec![Rule::R4]);
}

#[test]
fn waiver_without_reason_is_its_own_finding() {
    let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() } // slint:allow(R4)\n";
    let fired = rules_fired("crates/lake/src/x.rs", src);
    // The waiver is rejected (W1) and therefore does not suppress R4.
    assert_eq!(fired, vec![Rule::R4, Rule::W1]);
}

#[test]
fn waiver_with_unknown_rule_is_malformed() {
    let src = "// slint:allow(R99): whatever\npub fn ok() {}\n";
    assert_eq!(rules_fired("crates/lake/src/x.rs", src), vec![Rule::W1]);
}

// ---- scanner edge cases --------------------------------------------------

#[test]
fn scanner_strips_raw_strings_and_block_comments() {
    let src = "pub fn f() -> &'static str {\n\
               /* block comment with .unwrap() and unsafe */\n\
               r#\"raw with .unwrap() and std::time::Instant\"#\n\
               }\n";
    assert!(rules_fired("crates/lake/src/x.rs", src).is_empty());
}

#[test]
fn scanner_handles_char_literals_and_lifetimes() {
    let src = "pub fn f<'a>(s: &'a str) -> usize {\n\
               let q = '\"';\n\
               s.chars().filter(|&c| c == q).count()\n\
               }\n\
               pub fn g(v: Option<u32>) -> u32 { v.unwrap() }\n";
    let findings = scan_source("crates/lake/src/x.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].line, 5);
}

#[test]
fn word_boundaries_prevent_identifier_false_positives() {
    let src = "struct InstantLike;\nfn do_not_unwrap_me() {}\npub fn f() { do_not_unwrap_me(); }\n";
    assert!(rules_fired("crates/lake/src/x.rs", src).is_empty());
}

// ---- R10: fresh root contexts on the data path ---------------------------

#[test]
fn r10_flags_ioctx_new_in_data_path_crates() {
    let src = "pub fn f(d: &Device) { d.read_extent_ctx(1, &IoCtx::new(0)); }\n";
    for path in [
        "crates/simdisk/src/x.rs",
        "crates/plog/src/x.rs",
        "crates/stream/src/x.rs",
        "crates/lake/src/x.rs",
        "crates/core/src/x.rs",
    ] {
        assert_eq!(rules_fired(path, src), vec![Rule::R10], "{path}");
    }
}

#[test]
fn r10_exempts_the_root_files_and_other_crates() {
    let src = "pub fn f(now: u64) -> IoCtx { IoCtx::new(now) }\n";
    assert!(rules_fired("crates/core/src/system.rs", src).is_empty());
    assert!(rules_fired("crates/core/src/chore.rs", src).is_empty());
    assert!(rules_fired("crates/kvstore/src/x.rs", src).is_empty());
    assert!(rules_fired("crates/bench/src/x.rs", src).is_empty());
    assert!(rules_fired("tests/chaos.rs", src).is_empty());
    // A constructor of another type ending in `IoCtx` is not the token.
    let other = "pub fn f() -> MyIoCtx { MyIoCtx::new(0) }\n";
    assert!(rules_fired("crates/plog/src/x.rs", other).is_empty());
}

#[test]
fn r10_skips_test_code() {
    let src = "pub fn ok() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn t(d: &Device) { d.read_extent_ctx(1, &IoCtx::new(0)); }\n\
               }\n";
    assert!(rules_fired("crates/plog/src/x.rs", src).is_empty());
}

#[test]
fn r10_honours_a_reasoned_waiver() {
    let src = "// slint:allow(R10): Drop has no caller ctx\n\
               pub fn f() -> IoCtx { IoCtx::new(0) }\n";
    assert!(rules_fired("crates/stream/src/x.rs", src).is_empty());
    let bare = "// slint:allow(R10)\npub fn f() -> IoCtx { IoCtx::new(0) }\n";
    assert_eq!(rules_fired("crates/stream/src/x.rs", bare), vec![Rule::W1, Rule::R10]);
}

// ---- counting ------------------------------------------------------------

#[test]
fn findings_count_multiple_hits_per_line() {
    let src = "pub fn f(a: Option<u8>, b: Option<u8>) -> u8 { a.unwrap() + b.unwrap() }\n";
    let findings = scan_source("crates/lake/src/x.rs", src);
    assert_eq!(findings.len(), 2, "both unwraps on one line count");
}
