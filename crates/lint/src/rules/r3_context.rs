//! R3 — pooled-context discipline (introduced by PR 2, hot path since PR 4).
//!
//! `wi_xpath::evaluate()` allocates a fresh `EvalContext` (four working
//! vectors) per call; `evaluate_with(&mut cx, …)` reuses pooled buffers and
//! is the only form allowed on paths that evaluate more than one query.
//! Direct `evaluate(` calls are therefore forbidden outside the defining
//! crate (`crates/xpath/src/`, which includes the reference evaluator and
//! the canonicalizer); a cold path elsewhere carries a reasoned pragma.  Test code is
//! exempt: clarity beats buffer reuse in assertions.

use super::{diag_at, matches_prefix};
use crate::diag::Diagnostic;
use crate::syntax::SourceFile;

/// Path prefixes where bare `evaluate(` is allowed: the defining crate.
const ALLOW_PREFIXES: &[&str] = &["crates/xpath/src/"];
/// Banned bare call names.
const BANNED: &[&str] = &["evaluate"];

pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for file in files {
        if matches_prefix(&file.rel, ALLOW_PREFIXES) {
            continue;
        }
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            for call in file.calls_in(f) {
                if call.is_method || call.is_macro {
                    continue; // `prefix.evaluate(…)` is a different API
                }
                if BANNED.contains(&call.name.as_str()) {
                    out.push(diag_at(
                        file,
                        "R3",
                        call.sig_index,
                        format!(
                            "bare `{}(` allocates a fresh EvalContext per call; use \
                             `{}_with(&mut cx, …)` with a pooled context on this path",
                            call.name, call.name
                        ),
                    ));
                }
            }
        }
    }
}
