//! `slint` CLI: scan the workspace and fail on any finding.
//!
//! ```text
//! cargo run -p slint                 # gate: exit 0 iff no findings (printed to stderr)
//! cargo run -p slint -- --list       # findings and their count on stdout
//! cargo run -p slint -- --root DIR   # scan another checkout
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    list: bool,
}

fn usage() -> ExitCode {
    eprintln!("usage: slint [--root DIR] [--list]");
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    // Default root: the workspace directory two levels above this crate's
    // manifest (cargo sets CARGO_MANIFEST_DIR when running via cargo),
    // falling back to the current directory.
    let manifest_root = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .and_then(|p| p.parent().and_then(|p| p.parent()).map(PathBuf::from));
    let mut opts =
        Options { root: manifest_root.unwrap_or_else(|| PathBuf::from(".")), list: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--root" => match args.next() {
                Some(dir) => opts.root = PathBuf::from(dir),
                None => return Err(usage()),
            },
            _ => return Err(usage()),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    let findings = match slint::scan_workspace(&opts.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("slint: failed to scan {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };

    if opts.list {
        for f in &findings {
            println!("{f}");
        }
        println!("{} finding(s) total", findings.len());
    }
    if findings.is_empty() {
        println!("slint: ok — 0 findings");
        return ExitCode::SUCCESS;
    }
    if !opts.list {
        for f in &findings {
            eprintln!("{f}");
        }
    }
    eprintln!(
        "slint: {} finding(s); fix each or add a `// slint:allow(<rule>): <reason>` waiver",
        findings.len()
    );
    ExitCode::FAILURE
}
