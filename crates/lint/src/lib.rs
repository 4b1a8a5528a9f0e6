//! `wi-lint` — the workspace invariant analyzer.
//!
//! PRs 2–6 built this system's speed and durability on contracts that,
//! until this crate, lived only in module prose: forget one of them during
//! a refactor and nothing fails until an index serves stale nodes or a
//! daemon wedges under load.  `wi-lint` turns those contracts into
//! machine-checked rules.  It is a hand-rolled static-analysis pass — a
//! total token [`lexer`] plus a lightweight item/function/call extractor
//! ([`syntax`]) — because the build environment is offline and `syn` is
//! not available; the extractor recovers exactly what the rules need and
//! over-approximates in the safe direction everywhere else.
//!
//! # The rules
//!
//! | Rule | Contract | Introduced |
//! |------|----------|------------|
//! | R2 | **Interner ownership**: no fn takes `Sym` params alongside more than one `Document` source. See `crates/dom/src/intern.rs` module docs. | PR 4 |
//! | R3 | **Pooled contexts**: bare `evaluate(` (one fresh `EvalContext` per call) is forbidden outside `crates/xpath/src/`; hot paths use `evaluate_with`/`extract_with`. | PR 2, hot since PR 4 |
//! | R5 | **No lock across I/O**: a registry `RwLock` guard may not be live across a blocking socket call (`write_all`, `flush`, …) within a function body. | PR 6 |
//! | R6 | **Forbidden drift**: `SystemTime::now()` outside designated modules; `std::process`/`std::net` outside the serve/eval layer. | PR 5/6 |
//! | R9 | **Registry durability pairing**: in `crates/maintain/src/registry/`, every `fs::rename` / `File::create` / `create_new` call commits a directory entry and must share its function body with a `sync_dir` of the parent directory. See the durability note in `crates/maintain/src/registry/shard.rs`. | PR 10 |
//!
//! Two former rules are enforced by the compiler instead.  Panic-freedom
//! in `wi-serve` (once R4) is a crate-wide clippy `deny` of
//! `unwrap_used`, `expect_used`, `panic`, `indexing_slicing`,
//! `unreachable`, `todo` and `unimplemented` in non-test code, and the
//! lossy-cast ban in the registry's checksum/log code (once part of R6)
//! is `clippy::cast_possible_truncation`; a proven-safe site carries an
//! `#[expect(clippy::…, reason = "…")]`, which fails `-D warnings` once it
//! suppresses nothing.  The serve `Endpoint` enum and its `ALL` list come
//! from one macro list, so the check R7 made cannot fail.
//!
//! # Suppressing a finding
//!
//! Every suppression carries a mandatory reason:
//!
//! ```text
//! // lint:allow(R3, one-shot CLI path that scores a single query)
//! let hits = evaluate(&query, &doc, root);
//! ```
//!
//! A pragma applies to its own line, the next line, or — when placed on
//! the line of (or directly above) a `fn` header — the whole function.
//! `// lint:allow-file(R6, reason)` suppresses a rule for the entire file.
//! A pragma without a reason is itself a diagnostic (`PRAGMA`), and with
//! [`LintConfig::check_unused_allows`] (the CI `--deny-all` mode) a pragma
//! that suppresses nothing is too — so stale exemptions cannot accumulate.
//!
//! # Scope
//!
//! The analyzer walks `crates/*/src` and `src/` of the workspace.  Test
//! code — `tests/`/`benches/`/`examples/` trees, `#[cfg(test)]` modules,
//! `#[test]` functions — is exempt from every rule: clarity beats defensive
//! style in assertions.  `compat/` (the offline stand-ins for external
//! crates) and `crates/lint/tests/fixtures/` (deliberately violating
//! inputs) are not scanned.

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod syntax;

use diag::Diagnostic;
use std::io;
use std::path::Path;
use syntax::SourceFile;

/// Analyzer settings.  The rules' scopes are constants in their modules;
/// the one switch is the CI `--deny-all` mode.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Report `lint:allow` pragmas that suppress nothing (`--deny-all`).
    pub check_unused_allows: bool,
}

/// The result of one analyzer run.
pub struct LintReport {
    /// Surviving (non-suppressed) diagnostics, ordered by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Runs the analyzer over the workspace rooted at `root` with the default
/// (contract) configuration.
pub fn run(root: &Path) -> io::Result<LintReport> {
    run_with_config(root, &LintConfig::default())
}

/// Runs the analyzer over the workspace rooted at `root`.
pub fn run_with_config(root: &Path, cfg: &LintConfig) -> io::Result<LintReport> {
    let files = load_workspace(root)?;
    let n = files.len();
    Ok(LintReport {
        diagnostics: lint_files(&files, cfg),
        files_scanned: n,
    })
}

/// Runs every rule over an already-loaded file set and applies pragma
/// suppression.  Exposed for the fixture battery.
pub fn lint_files(files: &[SourceFile], cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut raw: Vec<Diagnostic> = Vec::new();
    rules::r2_interner::check(files, &mut raw);
    rules::r3_context::check(files, &mut raw);
    rules::r5_lock::check(files, &mut raw);
    rules::r6_drift::check(files, &mut raw);
    rules::r9_durability::check(files, &mut raw);

    let mut out: Vec<Diagnostic> = Vec::new();
    for file in files {
        if file.is_test_file {
            continue;
        }
        for bad in &file.bad_pragmas {
            out.push(Diagnostic {
                rule: "PRAGMA",
                file: file.rel.clone(),
                line: bad.line,
                col: 1,
                message: bad.message.clone(),
                source_line: file
                    .line_text(
                        file.line_starts
                            .get(bad.line as usize - 1)
                            .copied()
                            .unwrap_or(0),
                    )
                    .to_string(),
            });
        }
    }

    // Pragma suppression + used-pragma accounting.
    let mut used: Vec<Vec<bool>> = files.iter().map(|f| vec![false; f.allows.len()]).collect();
    'diags: for d in raw {
        if let Some(fi) = files.iter().position(|f| f.rel == d.file) {
            let file = &files[fi];
            for (ai, allow) in file.allows.iter().enumerate() {
                if allow.rule != d.rule {
                    continue;
                }
                let hits = allow.file_scope
                    || allow.line == d.line
                    || allow.line + 1 == d.line
                    || fn_scope_covers(file, allow.line, d.line);
                if hits {
                    used[fi][ai] = true;
                    continue 'diags;
                }
            }
        }
        out.push(d);
    }
    if cfg.check_unused_allows {
        for (fi, file) in files.iter().enumerate() {
            if file.is_test_file {
                continue;
            }
            for (ai, allow) in file.allows.iter().enumerate() {
                if !used[fi][ai] {
                    out.push(Diagnostic {
                        rule: "PRAGMA",
                        file: file.rel.clone(),
                        line: allow.line,
                        col: 1,
                        message: format!(
                            "lint:allow({}) suppresses nothing; remove the stale pragma",
                            allow.rule
                        ),
                        source_line: file
                            .line_text(
                                file.line_starts
                                    .get(allow.line as usize - 1)
                                    .copied()
                                    .unwrap_or(0),
                            )
                            .to_string(),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.col.cmp(&b.col))
    });
    out
}

/// Is `diag_line` inside the function whose header sits at (or directly
/// below) `allow_line`?
fn fn_scope_covers(file: &SourceFile, allow_line: u32, diag_line: u32) -> bool {
    for f in &file.functions {
        if f.line != allow_line && f.line != allow_line + 1 {
            continue;
        }
        let end = match f.body {
            Some((_, close)) => file.sig_line(close),
            None => f.line,
        };
        if diag_line >= f.line && diag_line <= end {
            return true;
        }
    }
    false
}

/// Loads every non-generated `.rs` file under the workspace root.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(
                    name.as_ref(),
                    "target" | ".git" | "compat" | "fixtures" | "node_modules"
                ) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                let is_test_file = ["tests/", "benches/", "examples/"]
                    .iter()
                    .any(|d| rel.starts_with(d) || rel.contains(&format!("/{d}")));
                let text = std::fs::read_to_string(&path)?;
                files.push(SourceFile::parse(path, rel, text, is_test_file));
            }
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

/// Parses a single file into a one-file "workspace" with a caller-chosen
/// relative name — the fixture battery uses this to aim rules at fixture
/// files as if they sat at contract paths.
pub fn load_fixture(path: &Path, rel: &str, is_test_file: bool) -> io::Result<SourceFile> {
    let text = std::fs::read_to_string(path)?;
    Ok(SourceFile::parse(
        path.to_path_buf(),
        rel.to_string(),
        text,
        is_test_file,
    ))
}
