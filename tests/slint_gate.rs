//! Tier-1 gate: the workspace has no slint finding. Every exception is an
//! inline `// slint:allow(<rule>): reason` waiver; rules and the waiver
//! syntax are documented in `crates/slint/README.md`.

use std::path::Path;

#[test]
fn workspace_has_no_slint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = slint::scan_workspace(root).expect("workspace scan");
    if !findings.is_empty() {
        let mut msg = String::from("slint gate failed:\n");
        for f in &findings {
            msg.push_str(&format!("    {f}\n"));
        }
        msg.push_str("fix each finding or add a `// slint:allow(<rule>): reason` waiver.\n");
        panic!("{msg}");
    }
}
