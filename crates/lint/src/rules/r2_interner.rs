//! R2 — interner ownership (introduced by PR 4).
//!
//! A `Sym` is an index into *one* document's interner (`intern.rs`): the
//! same u32 resolves to different strings in different documents.  A
//! function that takes `Sym` parameters alongside more than one `Document`
//! source (two `Document` params, or a `Document` param on a `self` dom
//! method) cannot know which interner the syms belong to.  Pass `&str`
//! across document boundaries instead.

use super::diag_at_fn;
use crate::diag::Diagnostic;
use crate::syntax::SourceFile;

/// Path prefix of the dom crate, where a `self` method's receiver counts
/// as a `Document` source.
const DOM_PREFIX: &str = "crates/dom/";

pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for file in files {
        let in_dom = file.rel.starts_with(DOM_PREFIX);
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            let doc_params = f
                .params
                .iter()
                .filter(|p| p.type_idents.iter().any(|t| t == "Document"))
                .count();
            let doc_sources = doc_params + usize::from(in_dom && f.has_self);
            let sym_params = f
                .params
                .iter()
                .filter(|p| p.type_idents.iter().any(|t| t == "Sym"))
                .count();
            if doc_sources >= 2 && sym_params >= 1 {
                out.push(diag_at_fn(
                    file,
                    "R2",
                    f,
                    format!(
                        "fn `{}` takes Sym parameters alongside {} Document sources; \
                         a Sym only resolves in its owning document's interner — pass \
                         &str across the boundary",
                        f.name, doc_sources
                    ),
                ));
            }
        }
    }
}
