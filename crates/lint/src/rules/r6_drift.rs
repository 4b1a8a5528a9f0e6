//! R6 — forbidden drift: ambient time, ambient OS access.
//!
//! Two drift modes that past PRs deliberately engineered out and that
//! creep back silently through refactors:
//!
//! 1. **Ambient time** (PR 5/6): `SystemTime::now()` makes replay and
//!    crash/recovery tests non-deterministic; clocks are injected.  Only
//!    designated modules may read the wall clock.
//! 2. **OS surface** (PR 6): `std::process` / `std::net` stay confined to
//!    the serve/eval layers (and the CLI binaries) so the core library
//!    crates remain embeddable and deterministic.
//!
//! The third drift mode, lossy casts in the registry's checksum/log code,
//! is `clippy::cast_possible_truncation`, denied in those files.

use super::{diag_at, matches_prefix};
use crate::diag::Diagnostic;
use crate::syntax::SourceFile;

/// Path prefixes where `SystemTime::now()` is designated.
const TIME_ALLOW: &[&str] = &["crates/serve/src/"];
/// Path prefixes where `std::process`/`std::net` are allowed.
/// `servebench/` drives the daemon over loopback, like `crates/eval/`.
const OS_ALLOW: &[&str] = &[
    "crates/serve/",
    "crates/eval/",
    "crates/lint/",
    "src/bin/",
    "servebench/",
];

pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for file in files {
        let time_allowed = matches_prefix(&file.rel, TIME_ALLOW);
        let os_allowed = matches_prefix(&file.rel, OS_ALLOW);
        if !time_allowed || !os_allowed {
            scan(file, time_allowed, os_allowed, out);
        }
    }
}

fn scan(file: &SourceFile, time_allowed: bool, os_allowed: bool, out: &mut Vec<Diagnostic>) {
    let n = file.sig.len();
    for k in 0..n {
        let byte = file.sig_start(k);
        if file.in_test_region(byte) {
            continue;
        }
        let t = file.sig_text(k);
        if !time_allowed
            && t == "SystemTime"
            && file.sig_text(k + 1) == ":"
            && file.sig_text(k + 2) == ":"
            && file.sig_text(k + 3) == "now"
        {
            out.push(diag_at(
                file,
                "R6",
                k,
                "ambient `SystemTime::now()` outside a designated clock module; \
                 inject the clock so replay stays deterministic"
                    .to_string(),
            ));
        }
        if !os_allowed && t == "std" && file.sig_text(k + 1) == ":" && file.sig_text(k + 2) == ":" {
            let seg = file.sig_text(k + 3);
            if seg == "process" || seg == "net" {
                out.push(diag_at(
                    file,
                    "R6",
                    k,
                    format!(
                        "`std::{seg}` use outside the serve/eval layer; core crates \
                         stay free of ambient OS access"
                    ),
                ));
            }
        }
    }
}
