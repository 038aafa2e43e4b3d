//! `slint` — StreamLake lint: a workspace-wide determinism and
//! error-hygiene checker.
//!
//! The repo's validity claim is that every simulated experiment is a pure
//! function of its seed: virtual time comes from `common::clock::SimClock`,
//! randomness from explicitly seeded generators, and library layers report
//! failures through `common::error::Error` instead of panicking. This crate
//! enforces those invariants mechanically with a dependency-free line/token
//! scanner:
//!
//! * **R1** — no `std::time::Instant` / `std::time::SystemTime` (wall-clock
//!   time) outside `crates/bench`, which measures the real host.
//! * **R2** — no ambient entropy (`thread_rng`, `rand::random`,
//!   `from_entropy`, `OsRng`, `getrandom`) in the simulation crates.
//! * **R3** — no `std::thread::sleep` and no real file I/O (`std::fs`,
//!   `File::open`, …) in the simulation crates; `kvstore/src/wal.rs` is
//!   exempt because the WAL deliberately owns durable-storage modelling.
//! * **R4** — no `.unwrap()` / `.expect(` / `panic!` / `unreachable!` /
//!   `todo!` / `unimplemented!` in non-test library code of the layered
//!   crates (`lake`, `stream`, `format`, `plog`, `core`); failures must
//!   propagate as `common::error::Error`.
//! * **R5** — flag `HashMap` / `HashSet` in deterministic-output crates
//!   when the same file iterates a map, since `RandomState` iteration
//!   order varies per process; prefer `BTreeMap` / `BTreeSet`.
//! * **R6** — every `unsafe` block needs a `// SAFETY:` comment on the
//!   same line or within the three lines above.
//! * **R7** — outside `crates/common`, library code (the device model
//!   included) must not call `SimClock::advance` directly: every layer
//!   receives time through `common::ctx::IoCtx` and returns finish times;
//!   no storage operation moves the shared clock.
//! * **R8** — background-service entry points (`run_cycle`,
//!   `run_to_convergence`, `maybe_archive`, `compact_all`) may only be
//!   called from the owning service's own crate; everywhere else the work
//!   must be driven through the `core::chore` maintenance runtime, so one
//!   scheduler owns backpressure and deterministic retry.
//! * **R10** — no `IoCtx::new(` in non-test code of the data-path crates
//!   outside `core::system` and `core::chore`, the rim where requests and
//!   chore ticks start: a fresh root minted anywhere else silently
//!   drops the caller's QoS class and trace, so every other function takes
//!   `&IoCtx` from its caller.
//! * **R11** — swallowed `Result`s (`let _ = ..;` and trailing-statement
//!   `.ok();`) in library code of the layered crates; failures must
//!   propagate or carry a reasoned waiver.
//!
//! Lock order is not a lint rule: `common::lockwitness` checks every
//! acquisition against the canonical hierarchy where it happens, in every
//! debug build.
//!
//! Findings can be waived inline with `// slint:allow(R4): reason`; the
//! reason is mandatory, and a reasonless waiver is itself a finding (rule
//! W1). Any other finding fails the gate.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

pub mod scanner;

use scanner::CleanedSource;

/// Lint rules. `W1` covers malformed waiver comments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Wall-clock time outside `crates/bench`.
    R1,
    /// Ambient entropy in simulation crates.
    R2,
    /// Real sleeping or file I/O in simulation crates.
    R3,
    /// Panicking operators in library code of layered crates.
    R4,
    /// Hash containers iterated in deterministic-output crates.
    R5,
    /// `unsafe` without a `// SAFETY:` comment.
    R6,
    /// Direct clock advancement outside the clock owner.
    R7,
    /// Ad-hoc background-service calls outside the chore runtime.
    R8,
    /// A fresh root `IoCtx` minted below the rim of the data path.
    R10,
    /// Swallowed `Result` in library code.
    R11,
    /// Waiver comment without a reason.
    W1,
}

impl Rule {
    /// All enforceable rules, in order.
    pub const ALL: [Rule; 11] = [
        Rule::R1,
        Rule::R2,
        Rule::R3,
        Rule::R4,
        Rule::R5,
        Rule::R6,
        Rule::R7,
        Rule::R8,
        Rule::R10,
        Rule::R11,
        Rule::W1,
    ];

    /// Code as written in waivers.
    pub fn code(self) -> &'static str {
        match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::R8 => "R8",
            Rule::R10 => "R10",
            Rule::R11 => "R11",
            Rule::W1 => "W1",
        }
    }

    /// Parse a rule code (case-sensitive).
    pub fn parse(code: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.code() == code)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One violation at a specific line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Crates whose run-to-run output must be a pure function of the seed.
const SIM_CRATES: [&str; 7] =
    ["simdisk", "plog", "stream", "lake", "lakebrain", "workloads", "kvstore"];

/// Crates whose library layers must propagate `common::error::Error`.
const NO_PANIC_CRATES: [&str; 5] = ["lake", "stream", "format", "plog", "core"];

/// Crates where hash-container iteration order can leak into output.
const ORDERED_ITER_CRATES: [&str; 6] = ["simdisk", "plog", "stream", "lake", "lakebrain", "format"];

/// Crates where swallowed `Result`s (R11) are findings: the no-panic
/// layers plus the storage substrate and the KV index.
const NO_SWALLOW_CRATES: [&str; 7] =
    ["lake", "stream", "format", "plog", "core", "simdisk", "kvstore"];

/// Crates whose functions form the timed data path for R10.
const DATA_PATH_CRATES: [&str; 5] = ["simdisk", "plog", "stream", "lake", "core"];

/// Files allowed to mint fresh root `IoCtx` values on the data path: the
/// system facade (request entry points) and the chore runtime (background
/// tick roots). Everything else receives the context from its caller.
const ROOT_CTX_FILES: [&str; 2] = ["crates/core/src/system.rs", "crates/core/src/chore.rs"];

fn in_crate_src(path: &str, names: &[&str]) -> bool {
    names.iter().any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

fn rule_applies(rule: Rule, path: &str) -> bool {
    match rule {
        // bench measures the real host; everything else runs on virtual time.
        Rule::R1 => !path.starts_with("crates/bench/"),
        Rule::R2 => in_crate_src(path, &SIM_CRATES),
        // The WAL module deliberately models durable storage.
        Rule::R3 => in_crate_src(path, &SIM_CRATES) && path != "crates/kvstore/src/wal.rs",
        Rule::R4 => in_crate_src(path, &NO_PANIC_CRATES),
        Rule::R5 => in_crate_src(path, &ORDERED_ITER_CRATES),
        // common hosts the clock itself. Everything else, the device layer
        // included, threads time via IoCtx.
        Rule::R7 => {
            path.starts_with("crates/") && path.contains("/src/") && !path.starts_with("crates/common/")
        }
        Rule::R10 => in_crate_src(path, &DATA_PATH_CRATES) && !ROOT_CTX_FILES.contains(&path),
        Rule::R11 => in_crate_src(path, &NO_SWALLOW_CRATES),
        // R8's per-token owner-crate exemptions live in
        // `check_chore_entry_points`; the rule itself applies everywhere.
        Rule::R6 | Rule::R8 | Rule::W1 => true,
    }
}

/// Whether non-test code in `cleaned` iterates some map/set (the R5
/// trigger: a `HashMap` that is never iterated cannot leak ordering).
fn file_iterates_a_map(cleaned: &CleanedSource) -> bool {
    const ITER_TOKENS: [&str; 6] =
        [".values()", ".values_mut()", ".keys()", ".iter()", ".iter_mut()", ".into_iter()"];
    cleaned
        .lines
        .iter()
        .filter(|l| !l.in_test_code)
        .any(|l| ITER_TOKENS.iter().any(|t| l.code.contains(t)))
}

/// Tokens that are findings when present in code text, per rule.
/// `(token, message)` — token matching is substring with word-ish
/// boundaries handled by the caller where needed.
struct TokenRule {
    rule: Rule,
    tokens: &'static [(&'static str, &'static str)],
    /// Whether `#[cfg(test)]` code is exempt.
    skip_test_code: bool,
}

const TOKEN_RULES: [TokenRule; 7] = [
    TokenRule {
        rule: Rule::R1,
        tokens: &[
            ("std::time::Instant", "wall-clock Instant; use common::clock::SimClock"),
            ("std::time::SystemTime", "wall-clock SystemTime; use common::clock::SimClock"),
            ("Instant::now", "wall-clock Instant::now(); use common::clock::SimClock"),
            ("SystemTime::now", "wall-clock SystemTime::now(); use common::clock::SimClock"),
            ("time::Instant", "wall-clock Instant; use common::clock::SimClock"),
            ("time::SystemTime", "wall-clock SystemTime; use common::clock::SimClock"),
        ],
        skip_test_code: false,
    },
    TokenRule {
        rule: Rule::R2,
        tokens: &[
            ("thread_rng", "ambient entropy; seed an explicit StdRng"),
            ("rand::random", "ambient entropy; seed an explicit StdRng"),
            ("from_entropy", "ambient entropy; seed an explicit StdRng"),
            ("OsRng", "OS entropy; seed an explicit StdRng"),
            ("getrandom", "OS entropy; seed an explicit StdRng"),
        ],
        skip_test_code: false,
    },
    TokenRule {
        rule: Rule::R3,
        tokens: &[
            ("thread::sleep", "real sleeping; advance the SimClock instead"),
            ("std::fs", "real file I/O; route through the simulated disk"),
            ("File::open", "real file I/O; route through the simulated disk"),
            ("File::create", "real file I/O; route through the simulated disk"),
            ("OpenOptions", "real file I/O; route through the simulated disk"),
        ],
        skip_test_code: false,
    },
    TokenRule {
        rule: Rule::R4,
        tokens: &[
            (".unwrap()", "panicking operator in library code; return common::error::Error"),
            (".expect(", "panicking operator in library code; return common::error::Error"),
            ("panic!(", "panicking operator in library code; return common::error::Error"),
            ("unreachable!(", "panicking operator in library code; return common::error::Error"),
            ("todo!(", "unfinished code path in library code"),
            ("unimplemented!(", "unfinished code path in library code"),
        ],
        skip_test_code: true,
    },
    TokenRule {
        rule: Rule::R5,
        tokens: &[
            ("HashMap", "hash iteration order is per-process; prefer BTreeMap"),
            ("HashSet", "hash iteration order is per-process; prefer BTreeSet"),
        ],
        skip_test_code: true,
    },
    TokenRule {
        rule: Rule::R7,
        tokens: &[
            (".advance(", "direct clock advance outside the clock owner; thread time via IoCtx"),
        ],
        skip_test_code: true,
    },
    TokenRule {
        rule: Rule::R10,
        tokens: &[(
            "IoCtx::new(",
            "fresh root context below the rim; accept `&IoCtx` from the caller so its \
             QoS class and trace propagate",
        )],
        skip_test_code: true,
    },
];

/// Scan one file's source text. `rel_path` must be workspace-relative
/// with forward slashes; it selects which rules apply.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let cleaned = scanner::clean(source);
    let waivers = collect_waivers(&cleaned);
    let mut findings = Vec::new();

    // Malformed waivers are findings themselves, never waivable.
    for w in &waivers.malformed {
        findings.push(Finding {
            file: rel_path.to_string(),
            line: w.line,
            rule: Rule::W1,
            message: w.message.clone(),
        });
    }

    let iterates = file_iterates_a_map(&cleaned);
    for token_rule in &TOKEN_RULES {
        if !rule_applies(token_rule.rule, rel_path) {
            continue;
        }
        if token_rule.rule == Rule::R5 && !iterates {
            continue;
        }
        for (idx, line) in cleaned.lines.iter().enumerate() {
            let lineno = idx + 1;
            if token_rule.skip_test_code && line.in_test_code {
                continue;
            }
            // Tokens overlap (`std::time::Instant` contains `time::Instant`);
            // earlier, longer tokens claim their span so one occurrence
            // yields one finding.
            let mut claimed: Vec<(usize, usize)> = Vec::new();
            for (token, message) in token_rule.tokens {
                for start in find_token(&line.code, token) {
                    let end = start + token.len();
                    if claimed.iter().any(|&(s, e)| start < e && s < end) {
                        continue;
                    }
                    claimed.push((start, end));
                    if waivers.allows(lineno, token_rule.rule) {
                        continue;
                    }
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: lineno,
                        rule: token_rule.rule,
                        message: format!("`{token}`: {message}"),
                    });
                }
            }
        }
    }

    if rule_applies(Rule::R6, rel_path) {
        findings.extend(check_unsafe_blocks(rel_path, &cleaned, &waivers));
    }

    if rule_applies(Rule::R8, rel_path) {
        findings.extend(check_chore_entry_points(rel_path, &cleaned, &waivers));
    }

    if rule_applies(Rule::R11, rel_path) {
        findings.extend(check_swallowed_results(rel_path, &cleaned, &waivers));
    }

    findings.sort();
    findings
}

/// R11: a discarded `Result` hides the failure from every layer above.
/// Flags `let _ = ..;` and *statement-position* `.ok();` (an `.ok()` that
/// feeds an assignment or a `return` is a legitimate Option conversion).
fn check_swallowed_results(
    rel_path: &str,
    cleaned: &CleanedSource,
    waivers: &Waivers,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in cleaned.lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.in_test_code || waivers.allows(lineno, Rule::R11) {
            continue;
        }
        let code = &line.code;
        if !find_token(code, "let _ =").is_empty() {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: lineno,
                rule: Rule::R11,
                message: "`let _ =`: discards a Result in library code; propagate the \
                          error or waive with the reason the failure is tolerable"
                    .to_string(),
            });
        }
        for start in find_token(code, ".ok();") {
            // Assignment / return / match-arm positions use the Option.
            let before = &code[..start];
            if before.contains('=') || before.contains("return ") {
                continue;
            }
            findings.push(Finding {
                file: rel_path.to_string(),
                line: lineno,
                rule: Rule::R11,
                message: "`.ok();`: swallows a Result in statement position; propagate \
                          the error or waive with the reason the failure is tolerable"
                    .to_string(),
            });
        }
    }
    findings
}

/// Occurrences of `token` in `code` at word-ish boundaries: the character
/// before/after the match must not be alphanumeric or `_` when the token
/// itself starts/ends with an identifier character. This keeps `Instant`
/// from matching `InstantLike` and `HashMap` from matching `HashMapLike`.
fn find_token(code: &str, token: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let token_starts_ident = token.as_bytes().first().is_some_and(|&b| is_ident(b));
    let token_ends_ident = token.as_bytes().last().is_some_and(|&b| is_ident(b));
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        let ok_before =
            !token_starts_ident || start == 0 || !is_ident(bytes[start - 1]);
        let ok_after = !token_ends_ident || end >= bytes.len() || !is_ident(bytes[end]);
        // `::std::time::Instant` and `std::time::Instant` both match the
        // shorter token once; overlapping prefixed forms are deduped by
        // only recording the first token per position.
        if ok_before && ok_after {
            hits.push(start);
        }
        from = start + 1;
    }
    hits
}

struct MalformedWaiver {
    line: usize,
    message: String,
}

struct Waivers {
    /// Lines covered by a valid waiver, per rule. A waiver on line `n`
    /// covers line `n` and line `n + 1`, so it can sit on the offending
    /// line or the line above it.
    allowed: BTreeMap<Rule, BTreeSet<usize>>,
    malformed: Vec<MalformedWaiver>,
}

impl Waivers {
    fn allows(&self, line: usize, rule: Rule) -> bool {
        self.allowed.get(&rule).is_some_and(|lines| lines.contains(&line))
    }
}

/// Parse waiver comments out of comment text. A waiver must *start* the
/// comment (`// slint:allow(R4): reason`); mid-sentence prose mentioning
/// the marker does not arm or malform anything.
fn collect_waivers(cleaned: &CleanedSource) -> Waivers {
    let mut waivers =
        Waivers { allowed: BTreeMap::new(), malformed: Vec::new() };
    for (idx, line) in cleaned.lines.iter().enumerate() {
        let lineno = idx + 1;
        let comment = line.comment.trim_start();
        let Some(rest) = comment.strip_prefix("slint:allow") else { continue };
        let parsed = parse_waiver_args(rest);
        match parsed {
            Ok((rule, reason)) if reason.is_empty() => {
                waivers.malformed.push(MalformedWaiver {
                    line: lineno,
                    message: format!(
                        "waiver for {rule} is missing a reason; write `slint:allow({rule}): <why>`"
                    ),
                });
            }
            Ok((rule, _reason)) => {
                let lines = waivers.allowed.entry(rule).or_default();
                lines.insert(lineno);
                lines.insert(lineno + 1);
            }
            Err(msg) => {
                waivers
                    .malformed
                    .push(MalformedWaiver { line: lineno, message: msg });
            }
        }
    }
    waivers
}

/// Parse the `(<RULE>): reason` tail of a waiver comment.
fn parse_waiver_args(rest: &str) -> Result<(Rule, String), String> {
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("malformed waiver; write `slint:allow(<rule>): <reason>`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("malformed waiver; missing `)` after rule code".to_string());
    };
    let code = rest[..close].trim();
    let Some(rule) = Rule::parse(code) else {
        return Err(format!("waiver names unknown rule `{code}`"));
    };
    let mut reason = rest[close + 1..].trim_start();
    reason = reason.strip_prefix(':').unwrap_or(reason).trim();
    Ok((rule, reason.to_string()))
}

/// R6: each `unsafe` keyword needs `SAFETY:` in a comment on the same
/// line or within the three lines above.
fn check_unsafe_blocks(
    rel_path: &str,
    cleaned: &CleanedSource,
    waivers: &Waivers,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in cleaned.lines.iter().enumerate() {
        let lineno = idx + 1;
        if find_token(&line.code, "unsafe").is_empty() {
            continue;
        }
        let documented = (idx.saturating_sub(3)..=idx)
            .any(|i| cleaned.lines[i].comment.contains("SAFETY:"));
        if documented || waivers.allows(lineno, Rule::R6) {
            continue;
        }
        findings.push(Finding {
            file: rel_path.to_string(),
            line: lineno,
            rule: Rule::R6,
            message: "`unsafe` without a `// SAFETY:` comment".to_string(),
        });
    }
    findings
}

/// R8: `(method-call token, owning crate prefix)`. Calling one of these
/// outside the owner means bypassing the maintenance runtime's
/// backpressure and deterministic scheduling.
const CHORE_ENTRY_POINTS: [(&str, &str); 4] = [
    (".run_cycle(", "crates/plog/"),
    (".run_to_convergence(", "crates/plog/"),
    (".maybe_archive(", "crates/stream/"),
    (".compact_all(", "crates/lake/"),
];

/// R8: background-service entry points may only be driven through the
/// chore runtime outside the owning service's crate (the owner's own
/// code, tests and benches drive itself freely).
fn check_chore_entry_points(
    rel_path: &str,
    cleaned: &CleanedSource,
    waivers: &Waivers,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (token, owner) in CHORE_ENTRY_POINTS {
        if rel_path.starts_with(owner) {
            continue;
        }
        for (idx, line) in cleaned.lines.iter().enumerate() {
            let lineno = idx + 1;
            for _ in find_token(&line.code, token) {
                if waivers.allows(lineno, Rule::R8) {
                    continue;
                }
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: lineno,
                    rule: Rule::R8,
                    message: format!(
                        "`{token}`: ad-hoc background-service call; drive it through the \
                         core::chore maintenance runtime"
                    ),
                });
            }
        }
    }
    findings
}

/// Walk every workspace `.rs` file under `root` and scan it, in stable
/// order. `target/`, `.git/` and `shims/` are skipped: the shims are
/// offline stand-ins for third-party crates.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        findings.extend(scan_source(&rel, &source));
    }
    Ok(findings)
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "shims" | "node_modules") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
