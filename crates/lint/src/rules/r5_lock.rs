//! R5 — no registry lock across socket I/O (introduced by PR 6).
//!
//! `wi-serve` shares one `RwLock<PersistentRegistry>` between workers.  A
//! guard held across a blocking socket write lets one slow client stall
//! every other request (and a panic mid-write poisons the lock).  The
//! serve design therefore computes the response *under* the guard, drops
//! it, and only then touches the stream.
//!
//! The check tracks `let` bindings whose initializer acquires the guard
//! (`….read()` / `….write()` mentioning a configured source ident such as
//! `registry`) and flags any blocking-I/O call (`write_all`, `flush`,
//! `read_exact`, …) between the acquisition and the end of the function
//! body or an explicit `drop(guard)` — an over-approximation of guard
//! liveness that errs on the safe side.

use super::{diag_at, matches_prefix};
use crate::diag::Diagnostic;
use crate::syntax::{Function, SourceFile};

/// Path prefixes scanned for guard-across-I/O.
const PREFIXES: &[&str] = &["crates/serve/src/", "crates/maintain/src/"];
/// Idents that mark a lock acquisition as the shared registry.
const GUARD_SOURCES: &[&str] = &["registry"];
/// Blocking I/O call names.
const IO_CALLS: &[&str] = &[
    "write_all",
    "write_fmt",
    "flush",
    "sync_all",
    "sync_data",
    "read_exact",
    "read_to_end",
    "write_reply",
    "shutdown",
    "connect",
    "accept",
];

pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for file in files {
        if !matches_prefix(&file.rel, PREFIXES) {
            continue;
        }
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            check_fn(file, f, out);
        }
    }
}

fn check_fn(file: &SourceFile, f: &Function, out: &mut Vec<Diagnostic>) {
    let Some((open, close)) = f.body else {
        return;
    };
    let mut k = open + 1;
    while k < close {
        if file.sig_text(k) != "let" {
            k += 1;
            continue;
        }
        // Find the initializer `=` (not `==`).
        let mut assign = None;
        let mut j = k + 1;
        while j < close && j < k + 32 {
            let t = file.sig_text(j);
            if t == "=" && file.sig_text(j + 1) != "=" && file.sig_text(j + 1) != ">" {
                assign = Some(j);
                break;
            }
            if t == ";" {
                break;
            }
            j += 1;
        }
        let Some(assign) = assign else {
            k += 1;
            continue;
        };
        // Binding ident: last pattern ident that is not a wrapper.
        let binding = (k + 1..assign)
            .rev()
            .map(|i| file.sig_text(i))
            .find(|t| {
                !matches!(*t, "Ok" | "Some" | "Err" | "mut" | "ref" | "_")
                    && t.chars()
                        .next()
                        .is_some_and(|c| c.is_lowercase() || c == '_')
            })
            .map(|t| t.to_string());
        // Initializer span: up to `;` or `else` at this level.
        let mut init_end = assign + 1;
        while init_end < close {
            match file.sig_text(init_end) {
                "(" | "[" | "{" => {
                    init_end = file
                        .close_of(init_end)
                        .map(|c| c + 1)
                        .unwrap_or(init_end + 1);
                    continue;
                }
                ";" | "else" => break,
                _ => {}
            }
            init_end += 1;
        }
        let acquires = {
            let mut read_write = false;
            let mut source = false;
            for i in assign + 1..init_end {
                let t = file.sig_text(i);
                if (t == "read" || t == "write")
                    && file.sig_text(i.wrapping_sub(1)) == "."
                    && file.sig_text(i + 1) == "("
                {
                    read_write = true;
                }
                if GUARD_SOURCES.contains(&t) {
                    source = true;
                }
            }
            read_write && source
        };
        if !acquires {
            k = init_end;
            continue;
        }
        let guard = binding.unwrap_or_else(|| "_guard".to_string());
        // Liveness: from the initializer to `drop(guard)` or body end.
        let mut live_end = close;
        let mut i = init_end;
        while i < close {
            if file.sig_text(i) == "drop"
                && file.sig_text(i + 1) == "("
                && file.sig_text(i + 2) == guard
            {
                live_end = i;
                break;
            }
            i += 1;
        }
        for call in file.calls_in(f) {
            if call.sig_index <= init_end || call.sig_index >= live_end {
                continue;
            }
            if !IO_CALLS.contains(&call.name.as_str()) {
                continue;
            }
            if call.receiver.as_deref() == Some(guard.as_str()) {
                continue;
            }
            out.push(diag_at(
                file,
                "R5",
                call.sig_index,
                format!(
                    "blocking I/O call `{}` while registry guard `{}` is live \
                     (acquired line {}); drop the guard before touching the socket",
                    call.name,
                    guard,
                    file.sig_line(k)
                ),
            ));
        }
        k = init_end;
    }
}
