//! The invariant rules (R2, R3, R5, R6, R9).
//!
//! Each rule is a pure function from loaded [`SourceFile`]s to
//! diagnostics; its scope is a set of constants in its own module, and
//! pragma suppression happens centrally in [`crate::lint_files`].

pub mod r2_interner;
pub mod r3_context;
pub mod r5_lock;
pub mod r6_drift;
pub mod r9_durability;

use crate::diag::Diagnostic;
use crate::syntax::{Function, SourceFile};

/// Builds a diagnostic pointing at significant token `sig_index` of `file`.
pub fn diag_at(
    file: &SourceFile,
    rule: &'static str,
    sig_index: usize,
    message: String,
) -> Diagnostic {
    let byte = file.sig_start(sig_index);
    diag_at_byte(file, rule, byte, message)
}

/// Builds a diagnostic pointing at a byte offset of `file`.
pub fn diag_at_byte(
    file: &SourceFile,
    rule: &'static str,
    byte: usize,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        file: file.rel.clone(),
        line: file.line_of(byte),
        col: file.col_of(byte),
        message,
        source_line: file.line_text(byte).to_string(),
    }
}

/// Builds a diagnostic pointing at the `fn` line of `f`.
pub fn diag_at_fn(
    file: &SourceFile,
    rule: &'static str,
    f: &Function,
    message: String,
) -> Diagnostic {
    let byte = file
        .line_starts
        .get(f.line as usize - 1)
        .copied()
        .unwrap_or(0);
    let source_line = file.line_text(byte).to_string();
    let col = source_line.len() - source_line.trim_start().len() + 1;
    Diagnostic {
        rule,
        file: file.rel.clone(),
        line: f.line,
        col: col as u32,
        message,
        source_line,
    }
}

/// `rel` starts with any of the given prefixes.
pub fn matches_prefix(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}
