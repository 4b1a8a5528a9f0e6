//! The fixture battery: every rule fires on its violating fixture at
//! exactly the `//~ RULE`-marked lines, and stays silent on the clean
//! twin.  The markers live on the lines the diagnostics anchor to, so the
//! assertions are exact `file:line:rule-id` comparisons, not presence
//! checks.

use std::path::{Path, PathBuf};
use wi_lint::{lint_files, load_fixture, LintConfig};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Expected `(line, rule)` pairs from `//~ RULE` markers; repeat the
/// marker on a line to expect multiple diagnostics there.
fn markers(name: &str) -> Vec<(u32, String)> {
    let text = std::fs::read_to_string(fixture(name)).unwrap();
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(at) = rest.find("//~") {
            let tail = rest[at + 3..].trim_start();
            let rule: String = tail
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            assert!(!rule.is_empty(), "{name}:{}: empty //~ marker", i + 1);
            out.push((i as u32 + 1, rule));
            rest = &rest[at + 3..];
        }
    }
    out.sort();
    out
}

/// Lints one fixture as if it sat at workspace path `rel` and returns the
/// surviving `(line, rule)` pairs.
fn lint(name: &str, rel: &str, cfg: &LintConfig) -> Vec<(u32, String)> {
    let file = load_fixture(&fixture(name), rel, false).unwrap();
    let diags = lint_files(&[file], cfg);
    let mut got = Vec::new();
    for d in diags {
        assert_eq!(d.file, rel, "diagnostic escaped its file");
        assert!(d.line > 0 && d.col > 0, "one-indexed positions");
        got.push((d.line, d.rule.to_string()));
    }
    got.sort();
    got
}

/// The clean twins run with unused-pragma checking on: a clean fixture may
/// carry pragmas, but only ones that suppress something.
fn strict() -> LintConfig {
    LintConfig {
        check_unused_allows: true,
        ..LintConfig::default()
    }
}

#[test]
fn r2_interner_ownership_fires_and_clean_twin_passes() {
    let rel = "crates/dom/src/merge.rs";
    assert_eq!(
        lint("r2_violate.rs", rel, &LintConfig::default()),
        markers("r2_violate.rs")
    );
    assert_eq!(lint("r2_clean.rs", rel, &strict()), vec![]);
}

#[test]
fn r3_pooled_context_fires_and_clean_twin_passes() {
    let rel = "crates/core/src/score.rs";
    assert_eq!(
        lint("r3_violate.rs", rel, &LintConfig::default()),
        markers("r3_violate.rs")
    );
    assert_eq!(lint("r3_clean.rs", rel, &strict()), vec![]);
}

#[test]
fn r3_is_scoped_to_paths_outside_the_defining_crate() {
    // The same violating source is fine when it sits in `crates/xpath/src/`.
    assert_eq!(
        lint(
            "r3_violate.rs",
            "crates/xpath/src/score.rs",
            &LintConfig::default()
        ),
        vec![]
    );
}

#[test]
fn r4_panic_freedom_fires_and_clean_twin_passes() {
    let rel = "crates/serve/src/dispatch.rs";
    assert_eq!(
        lint("r4_violate.rs", rel, &LintConfig::default()),
        markers("r4_violate.rs")
    );
    assert_eq!(lint("r4_clean.rs", rel, &strict()), vec![]);
}

#[test]
fn r5_lock_across_io_fires_and_clean_twin_passes() {
    let rel = "crates/serve/src/respond.rs";
    assert_eq!(
        lint("r5_violate.rs", rel, &LintConfig::default()),
        markers("r5_violate.rs")
    );
    assert_eq!(lint("r5_clean.rs", rel, &strict()), vec![]);
}

#[test]
fn r6_drift_fires_and_clean_twin_passes() {
    let rel = "crates/maintain/src/registry/log.rs";
    assert_eq!(
        lint("r6_violate.rs", rel, &LintConfig::default()),
        markers("r6_violate.rs")
    );
    assert_eq!(lint("r6_clean.rs", rel, &strict()), vec![]);
}

#[test]
fn r6_lets_the_serve_benchmark_use_the_os_but_keeps_the_time_ban() {
    // `servebench/` drives the daemon over sockets and names its scratch
    // directory by pid, so `std::net`/`std::process` are its job; the
    // ambient `SystemTime::now()` on line 14 stays banned there.
    assert_eq!(
        lint(
            "r6_violate.rs",
            "servebench/src/workload.rs",
            &LintConfig::default()
        ),
        vec![(14, "R6".to_string())]
    );
}

#[test]
fn r7_obs_discipline_fires_and_clean_twin_passes() {
    let rel = "crates/serve/src/metrics.rs";
    assert_eq!(
        lint("r7_violate.rs", rel, &LintConfig::default()),
        markers("r7_violate.rs")
    );
    assert_eq!(lint("r7_clean.rs", rel, &strict()), vec![]);
}

#[test]
fn r7_is_scoped_to_the_endpoint_file_and_serve_prefix() {
    // Outside both the endpoint file and the serve prefix the same source
    // produces nothing.
    assert_eq!(
        lint(
            "r7_violate.rs",
            "crates/maintain/src/telemetry.rs",
            &LintConfig::default()
        ),
        vec![]
    );
}

#[test]
fn r9_durability_pairing_fires_and_clean_twin_passes() {
    let rel = "crates/maintain/src/registry/shard.rs";
    assert_eq!(
        lint("r9_violate.rs", rel, &LintConfig::default()),
        markers("r9_violate.rs")
    );
    assert_eq!(lint("r9_clean.rs", rel, &strict()), vec![]);
}

#[test]
fn r9_is_scoped_to_the_registry_tree() {
    // The same directory-entry commits are fine outside the registry's
    // durable-layout tree.
    assert_eq!(
        lint(
            "r9_violate.rs",
            "crates/maintain/src/verify.rs",
            &LintConfig::default()
        ),
        vec![]
    );
}

#[test]
fn pragmas_without_reasons_and_stale_pragmas_are_diagnostics() {
    let rel = "crates/core/src/pragmas.rs";
    assert_eq!(
        lint("pragma_violate.rs", rel, &strict()),
        markers("pragma_violate.rs")
    );
    assert_eq!(lint("pragma_clean.rs", rel, &strict()), vec![]);
}

#[test]
fn test_files_are_exempt_from_every_rule() {
    // The same violating sources, marked as test files, produce nothing.
    for (name, rel) in [
        ("r3_violate.rs", "crates/core/src/score.rs"),
        ("r4_violate.rs", "crates/serve/src/dispatch.rs"),
        ("r5_violate.rs", "crates/serve/src/respond.rs"),
    ] {
        let file = load_fixture(&fixture(name), rel, true).unwrap();
        let diags = lint_files(&[file], &LintConfig::default());
        assert!(diags.is_empty(), "{name} as a test file: {diags:?}");
    }
}

#[test]
fn json_rendering_is_machine_readable() {
    let file = load_fixture(&fixture("r3_violate.rs"), "crates/core/src/score.rs", false).unwrap();
    let diags = lint_files(&[file], &LintConfig::default());
    assert_eq!(diags.len(), 1);
    let json = diags[0].to_json();
    assert!(json.contains("\"rule\":\"R3\""), "{json}");
    assert!(
        json.contains("\"file\":\"crates/core/src/score.rs\""),
        "{json}"
    );
}
