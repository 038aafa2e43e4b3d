//! Schema drift gate: what `slbench` emits must be what `BENCHMARK.json`
//! (repository root) promises — workload names, end-to-end metric names,
//! units, directions and bounds, per-layer metric names and units.
//!
//! Every workload runs in `--quick` mode (1/50 of the op counts, same code
//! paths), untraced and traced, so a renamed or missing metric fails
//! `cd benchmark && cargo test`.

use common::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// `name -> unit` of the `section` array of `BENCHMARK.json`.
fn declared(doc: &Json, section: &str) -> BTreeMap<String, String> {
    doc.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} array"))
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string();
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("metric unit")
                .to_string();
            assert!(name_ok(&name), "bad metric name {name:?}");
            (name, unit)
        })
        .collect()
}

/// Run `slbench --quick` and return `name -> unit` of the result line.
fn emitted(workload: &str, trace: &str) -> BTreeMap<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_slbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            trace,
            "--quick",
        ])
        .output()
        .expect("run slbench");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    let doc = Json::parse(line).expect("result line is JSON");
    let keys: Vec<&String> = doc.as_object().expect("result object").keys().collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "result keys"
    );
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}: checks pass"
    );
    assert_eq!(
        doc.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}: nothing failed"
    );
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    doc.get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name} is not finite");
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn workloads(doc: &Json) -> Vec<String> {
    doc.get("workloads")
        .and_then(Json::as_array)
        .expect("workloads array")
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string();
            assert!(name_ok(&name), "bad workload name {name:?}");
            assert!(w
                .get("why")
                .and_then(Json::as_str)
                .is_some_and(|s| !s.is_empty() && s.len() <= 200));
            name
        })
        .collect()
}

#[test]
fn benchmark_json_names_the_four_workloads() {
    let doc = benchmark_json();
    assert_eq!(
        workloads(&doc),
        ["stream_rt", "lake_query", "ingest_convert", "txn_mixed"]
    );
    assert!(
        declared(&doc, "end_to_end").contains_key("setup_s"),
        "setup_s is mandatory"
    );
    let paths = doc.get("paths").and_then(Json::as_array).expect("paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
}

#[test]
fn benchmark_json_is_what_slbench_spec_prints() {
    // Units, directions, bounds, whys, command and run_seconds all live in
    // src/spec.rs; BENCHMARK.json is `slbench spec` saved to a file.
    let out = Command::new(env!("CARGO_BIN_EXE_slbench"))
        .arg("spec")
        .output()
        .expect("run slbench spec");
    assert!(out.status.success());
    let printed = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("spec output parses");
    assert_eq!(
        printed,
        benchmark_json(),
        "regenerate with `slbench spec > BENCHMARK.json`"
    );
}

#[test]
fn untraced_runs_emit_exactly_the_end_to_end_metrics() {
    let doc = benchmark_json();
    let want = declared(&doc, "end_to_end");
    for workload in workloads(&doc) {
        let got = emitted(&workload, "0");
        assert_eq!(
            got, want,
            "{workload}: end-to-end metric names/units drifted from BENCHMARK.json"
        );
    }
}

#[test]
fn traced_runs_emit_exactly_the_per_layer_metrics() {
    let doc = benchmark_json();
    let want = declared(&doc, "per_layer");
    for workload in workloads(&doc) {
        let got = emitted(&workload, "1");
        assert_eq!(
            got, want,
            "{workload}: per-layer metric names/units drifted from BENCHMARK.json"
        );
    }
}

#[test]
fn unknown_workloads_and_missing_arguments_are_refused() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_slbench"))
            .args(args)
            .output()
            .expect("run slbench");
        assert!(!out.status.success());
        assert!(
            out.stdout.is_empty(),
            "no result line on a refused invocation"
        );
    }
}
