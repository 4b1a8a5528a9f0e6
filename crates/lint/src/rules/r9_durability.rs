//! R9 — registry renames and file creations must fsync the parent
//! directory (introduced by PR 10).
//!
//! `write_atomic`'s rename and `create_segment`'s `File::create` commit a
//! *directory entry*, and directory entries have their own durability: a
//! file fsync alone leaves the rename/creation un-journaled, so a crash can
//! resurrect the old manifest or lose a freshly rotated segment that the
//! in-memory state already counts on.  Every such site in the registry tree
//! therefore pairs with a `sync_dir` of the parent directory (see the
//! durability note in `crates/maintain/src/registry/shard.rs`).
//!
//! The check is per-function: in files under the configured registry
//! prefixes, a call named `rename` / `create` / `create_new` is flagged
//! unless the same function body also calls `sync_dir`.  Same-function is
//! an over-approximation of "paired with" that errs on the safe side —
//! helpers like `write_atomic` keep both halves together, which is exactly
//! the shape the contract wants.

use super::{diag_at, matches_prefix};
use crate::diag::Diagnostic;
use crate::syntax::SourceFile;

/// Path prefixes of the registry's durable-layout tree.
const PREFIXES: &[&str] = &["crates/maintain/src/registry/"];
/// Call names that commit a directory entry.
const CALLS: &[&str] = &["rename", "create", "create_new"];

pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for file in files {
        if !matches_prefix(&file.rel, PREFIXES) {
            continue;
        }
        for f in &file.functions {
            // `sync_dir` itself is the designated pairing point; its body
            // is exempt by name so the rule cannot demand recursion.
            if f.is_test || f.name == "sync_dir" {
                continue;
            }
            let calls = file.calls_in(f);
            if calls.iter().any(|c| c.name == "sync_dir") {
                continue;
            }
            for call in &calls {
                if !CALLS.contains(&call.name.as_str()) {
                    continue;
                }
                out.push(diag_at(
                    file,
                    "R9",
                    call.sig_index,
                    format!(
                        "`{}` commits a directory entry but `{}` never calls \
                         `sync_dir`; fsync the parent directory or the \
                         rename/creation may not survive a crash",
                        call.name, f.name
                    ),
                ));
            }
        }
    }
}
