//! `aa` and `selfcheck`: the benchmark checking itself.
//!
//! Both re-run this same executable once per workload and pass, so every
//! pass has a process of its own (its own `VmHWM`, its own thread-local
//! counters), exactly as the single-run command does.

use crate::drive::RunArgs;
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use common::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// What a child run reported.
struct Child {
    ok: bool,
    correct: bool,
    digest: String,
    values: BTreeMap<String, f64>,
}

fn run_child(workload: &str, seed: u64, args: &RunArgs, trace: bool) -> Child {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().expect("spawn slbench child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut child = Child {
        ok: out.status.success(),
        correct: false,
        digest: String::new(),
        values: BTreeMap::new(),
    };
    if let Some(doc) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) {
        child.correct = doc.get("correct").and_then(Json::as_bool).unwrap_or(false);
        if let Some(metrics) = doc.get("metrics").and_then(Json::as_object) {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    child.values.insert(name.clone(), v);
                }
            }
        }
    }
    if let Some(pos) = stderr.find("digest ") {
        child.digest = stderr[pos + 7..]
            .chars()
            .take_while(char::is_ascii_hexdigit)
            .collect();
    }
    if !child.ok || !child.correct {
        eprintln!(
            "--- {workload} seed {seed} trace {} failed; its stderr:\n{stderr}",
            trace as u8
        );
    }
    child
}

/// Relative change of `b` against `a`, signed so that positive is worse.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Two full sets of the same build, back to back: per workload ×
/// end-to-end metric both values, the relative difference and PASS/FAIL
/// against the metric's bound (bit-equality for the deterministic ones).
pub fn aa(args: &RunArgs) -> bool {
    let mut all_ok = true;
    println!(
        "{:<15} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "set A", "set B", "diff", "bound"
    );
    for (workload, _) in WORKLOADS {
        let a = run_child(workload, args.seed, args, false);
        let b = run_child(workload, args.seed, args, false);
        let mut ok = a.ok && b.ok && a.correct && b.correct && a.digest == b.digest;
        for m in &END_TO_END {
            let (va, vb) = (a.values.get(m.name).copied(), b.values.get(m.name).copied());
            let (Some(va), Some(vb)) = (va, vb) else {
                println!("{workload:<15} {:<14} missing", m.name);
                ok = false;
                continue;
            };
            // Either direction counts: A and B are the same build.
            let diff = worse_by(va, vb, m.better).abs();
            let pass = if m.deterministic {
                va == vb
            } else {
                diff <= m.bound
            };
            ok &= pass;
            println!(
                "{workload:<15} {:<14} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}%  {}",
                m.name,
                diff * 100.0,
                if m.deterministic {
                    0.0
                } else {
                    m.bound * 100.0
                },
                if pass { "PASS" } else { "FAIL" }
            );
        }
        println!(
            "{workload:<15} {:<14} {:>14} {:>14} {:>9} {:>7}  {}",
            "digest",
            a.digest,
            b.digest,
            "",
            "",
            if a.digest == b.digest && !a.digest.is_empty() {
                "PASS"
            } else {
                "FAIL"
            }
        );
        all_ok &= ok;
    }
    println!("aa: {}", if all_ok { "PASS" } else { "FAIL" });
    all_ok
}

/// Ten runs per workload, each with another seed: per end-to-end metric
/// the median and the interquartile range as a share of the median (the
/// acceptance measure of the benchmark contract), against the bound.
pub fn spread(args: &RunArgs) -> bool {
    const RUNS: u64 = 10;
    let mut all_ok = true;
    println!(
        "{:<15} {:<14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for (workload, _) in WORKLOADS {
        let runs: Vec<Child> = (0..RUNS)
            .map(|i| run_child(workload, args.seed + i, args, false))
            .collect();
        if runs.iter().any(|r| !(r.ok && r.correct)) {
            println!("{workload:<15} a run failed its checks");
            all_ok = false;
            continue;
        }
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.values.get(m.name).copied())
                .collect();
            let spread = stats::spread(&values);
            // setup_s is judged on its medians only, never on its spread.
            let verdict = if m.name == "setup_s" {
                "-"
            } else if spread * 3.0 <= m.bound {
                "PASS"
            } else if spread <= m.bound {
                "PASS (over a third of the bound)"
            } else {
                all_ok = false;
                "FAIL"
            };
            println!(
                "{workload:<15} {:<14} {:>14.4} {:>8.2}% {:>6.1}%  {verdict}",
                m.name,
                stats::median(&values),
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    println!("spread: {}", if all_ok { "PASS" } else { "FAIL" });
    all_ok
}

/// Determinism: the same seed twice gives identical digests, identical
/// deterministic end-to-end metrics and identical count-type layer
/// metrics; a second seed passes the output checks too.
pub fn selfcheck(args: &RunArgs) -> bool {
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        let mut problems: Vec<String> = Vec::new();
        let a = run_child(workload, args.seed, args, false);
        let b = run_child(workload, args.seed, args, false);
        if !(a.ok && b.ok && a.correct && b.correct) {
            problems.push("an end-to-end run failed its checks".into());
        }
        if a.digest != b.digest || a.digest.is_empty() {
            problems.push(format!("digest {} != {}", a.digest, b.digest));
        }
        for m in END_TO_END.iter().filter(|m| m.deterministic) {
            if a.values.get(m.name) != b.values.get(m.name) {
                problems.push(format!(
                    "{} {:?} != {:?}",
                    m.name,
                    a.values.get(m.name),
                    b.values.get(m.name)
                ));
            }
        }
        let ta = run_child(workload, args.seed, args, true);
        let tb = run_child(workload, args.seed, args, true);
        if !(ta.ok && tb.ok && ta.correct && tb.correct) {
            problems.push("a traced run failed its checks".into());
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            if ta.values.get(m.name) != tb.values.get(m.name) {
                problems.push(format!(
                    "{} {:?} != {:?}",
                    m.name,
                    ta.values.get(m.name),
                    tb.values.get(m.name)
                ));
            }
        }
        if ta.values.len() != PER_LAYER.len() {
            problems.push(format!(
                "traced run reported {} of {} layer metrics",
                ta.values.len(),
                PER_LAYER.len()
            ));
        }
        let other = run_child(workload, args.seed.wrapping_add(1), args, false);
        if !(other.ok && other.correct) {
            problems.push(format!(
                "seed {} failed its checks",
                args.seed.wrapping_add(1)
            ));
        }
        if other.digest == a.digest {
            problems.push("a different seed produced the same digest".into());
        }
        if problems.is_empty() {
            println!(
                "{workload:<15} deterministic: digest {} repeats, second seed passes",
                a.digest
            );
        } else {
            all_ok = false;
            for p in problems {
                println!("{workload:<15} FAIL: {p}");
            }
        }
    }
    println!("selfcheck: {}", if all_ok { "PASS" } else { "FAIL" });
    all_ok
}
