//! Tier-1: the live workspace — the whole repository root — carries zero
//! invariant violations and zero stale suppressions.  This is the test the
//! CI `--deny-all` step mirrors; a PR that breaks a contract fails here
//! with the exact file:line:rule.

use std::path::Path;
use wi_lint::{lint_files, load_workspace, LintConfig};

#[test]
fn workspace_has_no_violations_and_no_stale_pragmas() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = LintConfig {
        check_unused_allows: true,
    };
    let files = load_workspace(&root).expect("workspace readable");
    assert!(
        files.len() > 50,
        "scan looks truncated: only {} files",
        files.len()
    );
    // The repository root includes the standalone `servebench/` package:
    // R6 allows its OS access, every other rule still reads it.
    assert!(
        files.iter().any(|f| f.rel.starts_with("servebench/src/")),
        "the scan must cover servebench/src"
    );
    let rendered: Vec<String> = lint_files(&files, &cfg)
        .iter()
        .map(|d| format!("{}:{}:{} {}", d.file, d.line, d.rule, d.message))
        .collect();
    assert!(
        rendered.is_empty(),
        "wi-lint found {} violation(s) in the live workspace:\n{}",
        rendered.len(),
        rendered.join("\n")
    );
}
