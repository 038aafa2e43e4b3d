//! `slbench` — the repository's benchmark: four end-to-end workloads, nine
//! bounded end-to-end metrics and a traced per-layer run.
//!
//! ```text
//! slbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! slbench aa        [--seed <n>] [--seconds <s>] [--quick]   # two sets, same build
//! slbench selfcheck [--seed <n>] [--seconds <s>] [--quick]   # determinism
//! slbench spread    [--seed <n>] [--seconds <s>] [--quick]   # ten seeds, IQR/median
//! slbench spec                                               # prints BENCHMARK.json
//! ```
//!
//! The last line of standard output of a plain run is one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`; the
//! human-readable table goes to standard error. See `README.md` beside
//! this package and `BENCHMARK.json` at the repository root.

mod alloc;
mod drive;
mod layers;
mod modes;
mod rng;
mod spec;
mod stats;
mod trace;
mod wall;
mod workloads;

use drive::{RunArgs, RunResult};
use workloads::{
    ingest_convert::IngestConvert, lake_query::LakeQuery, stream_rt::StreamRt, txn_mixed::TxnMixed,
    Workload,
};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

fn usage() -> ! {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
    eprintln!(
        "usage: slbench [aa|selfcheck|spread|spec] --workload <{}> --seed <n> --seconds <1..60> --trace <0|1> [--quick]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse() -> (String, RunArgs) {
    let mut argv = std::env::args().skip(1).peekable();
    let mode = match argv.peek().map(String::as_str) {
        Some("aa" | "selfcheck" | "spread" | "spec") => argv.next().unwrap_or_default(),
        _ => "run".to_string(),
    };
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        quick: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => args.quick = true,
            _ => usage(),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        usage();
    }
    (mode, args)
}

/// Run one workload by name; `None` for a name the benchmark does not have.
fn run_workload(args: &RunArgs) -> Option<RunResult> {
    fn go<W: Workload>(args: &RunArgs) -> RunResult {
        if args.trace {
            drive::traced::<W>(args)
        } else {
            drive::end_to_end::<W>(args)
        }
    }
    Some(match args.workload.as_str() {
        StreamRt::NAME => go::<StreamRt>(args),
        LakeQuery::NAME => go::<LakeQuery>(args),
        IngestConvert::NAME => go::<IngestConvert>(args),
        TxnMixed::NAME => go::<TxnMixed>(args),
        _ => return None,
    })
}

/// The human-readable table: every metric by name with value, unit,
/// sample count, direction and bound.
fn print_table(r: &RunResult) {
    eprintln!(
        "{:<36} {:>16} {:<8} {:>9}  {:<6} bound",
        "metric", "value", "unit", "n", "better"
    );
    for m in &r.metrics {
        let (better, bound) = match spec::end_to_end(m.name) {
            Some(e) => (e.better.name(), format!("{:.1}%", e.bound * 100.0)),
            None => (
                spec::PER_LAYER
                    .iter()
                    .find(|p| p.name == m.name)
                    .map_or("", |p| p.better.name()),
                "-".to_string(),
            ),
        };
        eprintln!(
            "{:<36} {:>16.4} {:<8} {:>9}  {:<6} {}",
            m.name, m.value, m.unit, m.n, better, bound
        );
    }
    for note in &r.notes {
        eprintln!("{note}");
    }
}

fn main() {
    let (mode, args) = parse();
    let ok = match mode.as_str() {
        "aa" => modes::aa(&args),
        "selfcheck" => modes::selfcheck(&args),
        "spread" => modes::spread(&args),
        "spec" => {
            print!("{}", spec::benchmark_json());
            true
        }
        _ => {
            let Some(result) = run_workload(&args) else {
                usage()
            };
            print_table(&result);
            if !result.correct {
                eprintln!(
                    "{}: output check FAILED ({} of {} operations)",
                    result.workload, result.failed, result.attempted
                );
            }
            // The result line always says whether the outputs were right; a
            // run that got them wrong also exits non-zero.
            println!("{}", result.json_line());
            result.correct
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}
