//! The invariant rules (R2–R7, R9) and the call-graph machinery R4 uses.
//!
//! Each rule is a pure function from loaded [`SourceFile`]s to
//! diagnostics; pragma suppression happens centrally in
//! [`crate::lint_files`].

pub mod r2_interner;
pub mod r3_context;
pub mod r4_panic;
pub mod r5_lock;
pub mod r6_drift;
pub mod r7_obs;
pub mod r9_durability;

use crate::diag::Diagnostic;
use crate::syntax::{Function, SourceFile};
use std::collections::{HashMap, HashSet};

/// A function located in a file group: `(file index, function index)`.
pub type FnId = (usize, usize);

/// Name-based call graph over a group of files (one crate).  Calls are resolved by name plus call shape (see
/// `CallGraph::binds`): method calls bind to `self` functions,
/// `Type::f` calls bind inside `impl Type`, bare calls bind to free
/// functions.  Within a shape the match is name-only — an
/// over-approximation, which is the safe direction for every rule here.
pub struct CallGraph<'a> {
    pub files: Vec<&'a SourceFile>,
    pub fns: Vec<(FnId, &'a Function)>,
    by_name: HashMap<&'a str, Vec<usize>>,
    /// Callee `(name, is_method, path head)` per function (index parallel
    /// to `fns`).
    callees: Vec<Vec<(String, bool, Option<String>)>>,
}

impl<'a> CallGraph<'a> {
    pub fn build(files: Vec<&'a SourceFile>) -> CallGraph<'a> {
        let mut fns = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                fns.push(((fi, gi), f));
            }
        }
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, (_, f)) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        let callees = fns
            .iter()
            .map(|((fi, _), f)| {
                files[*fi]
                    .calls_in(f)
                    .into_iter()
                    .map(|c| (c.name, c.is_method, c.path_head))
                    .collect()
            })
            .collect();
        CallGraph {
            files,
            fns,
            by_name,
            callees,
        }
    }

    /// Can a call of this shape, made from `caller`, resolve to local
    /// function `idx`?  Method calls only bind to `self` functions; a
    /// qualified call `Type::f(…)` only binds inside `impl Type` (with
    /// `Self::` resolved through the caller's own impl block); a bare call
    /// only binds to free functions.  This keeps `map.get(…)` from
    /// resolving to a free `fn get(…)` and `ChunkedWriter::start` from
    /// resolving to `ServerHandle::start`.
    fn binds(
        &self,
        caller: usize,
        is_method: bool,
        path_head: &Option<String>,
        idx: usize,
    ) -> bool {
        let callee = self.fns[idx].1;
        if is_method {
            return callee.has_self;
        }
        match path_head.as_deref() {
            Some("Self") => callee.impl_type == self.fns[caller].1.impl_type,
            // Uppercase head: a type's associated fn.  Lowercase head: a
            // module path to a free fn (`router::route`).
            Some(head) if head.starts_with(char::is_uppercase) => {
                callee.impl_type.as_deref() == Some(head)
            }
            _ => !callee.has_self && callee.impl_type.is_none(),
        }
    }

    /// Functions reachable *from* the named roots (forward closure),
    /// following calls whose name matches a locally-defined function.
    /// Returns indexes into `fns`.
    pub fn reachable_from(&self, roots: &[&str]) -> Vec<usize> {
        let mut seen: HashSet<usize> = HashSet::new();
        let mut queue: Vec<usize> = Vec::new();
        for root in roots {
            if let Some(ids) = self.by_name.get(*root) {
                for &i in ids {
                    if seen.insert(i) {
                        queue.push(i);
                    }
                }
            }
        }
        while let Some(i) = queue.pop() {
            for (callee, is_method, head) in &self.callees[i] {
                if let Some(ids) = self.by_name.get(callee.as_str()) {
                    for &j in ids {
                        if self.binds(i, *is_method, head, j) && seen.insert(j) {
                            queue.push(j);
                        }
                    }
                }
            }
        }
        let mut out: Vec<usize> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }
}

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

/// `rel` ends with any of the given suffixes (all `/`-separated).
pub fn matches_suffix(rel: &str, suffixes: &[String]) -> bool {
    suffixes.iter().any(|s| rel.ends_with(s.as_str()))
}

/// `rel` starts with any of the given prefixes.
pub fn matches_prefix(rel: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p.as_str()))
}
