//! `wi-lint` CLI.
//!
//! ```text
//! wi-lint --workspace [--root <dir>] [--json] [--deny-all]
//! ```
//!
//! Exit codes: 0 — clean; 1 — violations found; 2 — usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use wi_lint::{diag::render_report, run_with_config, LintConfig};

fn main() -> ExitCode {
    let mut json = false;
    let mut deny_all = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // --workspace is the only scanning mode; accepted for
            // self-documenting invocations.
            "--workspace" => {}
            "--json" => json = true,
            "--deny-all" => deny_all = true,
            "--root" => match args.next() {
                Some(r) => root = Some(PathBuf::from(r)),
                None => {
                    eprintln!("wi-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "wi-lint: workspace invariant analyzer\n\n\
                     USAGE: wi-lint [--workspace] [--root <dir>] [--json] [--deny-all]\n\n\
                     --root <dir>  workspace root (default: nearest ancestor with a\n\
                  \x20               [workspace] Cargo.toml)\n\
                     --json        machine-readable diagnostics\n\
                     --deny-all    also fail on lint:allow pragmas that suppress nothing\n\n\
                     RULES\n\
                     R2  interner ownership        R3  pooled eval contexts\n\
                     R4  panic-free serve paths    R5  no registry lock across I/O\n\
                     R6  forbidden drift           R7  endpoint observability\n\
                     R9  registry durability pairing\n\n\
                     Each rule is documented in crates/lint/src/lib.rs and the\n\
                     README section \"Enforced invariants\"."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("wi-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("wi-lint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };
    let cfg = LintConfig {
        check_unused_allows: deny_all,
        ..LintConfig::default()
    };
    match run_with_config(&root, &cfg) {
        Ok(report) => {
            // A scan that finds nothing to scan is a misconfiguration, not
            // a clean bill: a wrong --root in CI must not silently pass.
            if report.files_scanned == 0 {
                eprintln!(
                    "wi-lint: no .rs files found under {} (wrong --root?)",
                    root.display()
                );
                return ExitCode::from(2);
            }
            print!("{}", render_report(&report.diagnostics, json));
            if !json {
                eprintln!(
                    "wi-lint: scanned {} files under {}",
                    report.files_scanned,
                    root.display()
                );
            }
            if report.diagnostics.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("wi-lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// Nearest ancestor of the current directory whose `Cargo.toml` declares a
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
