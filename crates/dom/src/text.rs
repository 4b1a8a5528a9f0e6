//! Lazily built normalized-text index.
//!
//! # Why
//!
//! Wrapper induction compares text on every candidate step it evaluates
//! (`[.="Director:"]`, `[contains(.,"Next")]`), and XPath defines those
//! comparisons on `normalize-space(.)`: the node's string value (all
//! descendant text, concatenated) with whitespace runs collapsed and the
//! ends trimmed.  Computed naively that is a subtree walk plus two `String`
//! allocations per candidate and per evaluation.
//!
//! # How
//!
//! Ids are pre-order ranks (see [`crate::order`]), so the text nodes of a
//! subtree are a contiguous run of the arena, and their concatenation is a
//! contiguous run of the document's text.  The [`TextIndex`] holds that
//! text once, with every whitespace run (`char::is_whitespace`, the test
//! `split_whitespace` uses) collapsed to a single `' '`, plus one `u32`
//! offset per node: where the node's text starts.  `normalize-space` of
//! `n` is then
//!
//! ```text
//! text[pos[n] .. pos[n + subtree_size(n)]].trim_matches(' ')
//! ```
//!
//! a borrowed `&str` with no walk and no allocation.  A whitespace run that
//! crosses a node boundary is collapsed where it starts, so a slice can
//! only gain or lose a leading or trailing `' '` — which the trim removes.
//!
//! Memory is bounded by the page: one collapsed copy of its text plus 4 B
//! per node, owned by the [`Document`] and freed with it.  Like the other
//! indexes it is built on first use by one pass over the arena and cached
//! behind a `OnceLock`; a document never changes once built, so the index
//! never goes stale.

use crate::document::Document;
use crate::node::NodeData;
use std::ops::Range;

/// The whitespace-collapsed text of a [`Document`] and each node's offset
/// into it.
///
/// Built lazily by [`Document::text_index`]; see the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct TextIndex {
    /// Every text node's data in document order, each whitespace run
    /// collapsed to one `' '`.
    text: String,
    /// `pos[i]`: byte offset in `text` where node `i`'s text starts; one
    /// extra entry at the end holds `text.len()`.
    pos: Vec<u32>,
}

impl TextIndex {
    /// One pass over the arena, which is document order.
    ///
    /// # Panics
    ///
    /// If the collapsed text exceeds `u32::MAX` bytes (a document over
    /// 4 GiB of text).
    pub(crate) fn build(doc: &Document) -> TextIndex {
        // Collapsing only shrinks text, so the raw length is room enough.
        let raw: usize = doc
            .nodes
            .iter()
            .filter_map(|n| n.data.text())
            .map(str::len)
            .sum();
        let mut text = String::with_capacity(raw);
        let mut pos = Vec::with_capacity(doc.len() + 1);
        let offset =
            |text: &String| u32::try_from(text.len()).expect("document text exceeds 4 GiB");
        for node in &doc.nodes {
            pos.push(offset(&text));
            if let NodeData::Text(data) = &node.data {
                push_collapsed(&mut text, data);
            }
        }
        pos.push(offset(&text));
        TextIndex { text, pos }
    }

    /// `normalize-space` of the nodes in the id range `ids`: a subtree's
    /// range gives its node's normalized string value.
    pub fn normalized(&self, ids: Range<usize>) -> &str {
        let (start, end) = (self.pos[ids.start], self.pos[ids.end]);
        self.text[start as usize..end as usize].trim_matches(' ')
    }
}

/// Appends `data` to `out` with each whitespace run collapsed to one `' '`,
/// continuing a run that `out` already ends in.
fn push_collapsed(out: &mut String, data: &str) {
    let mut rest = data;
    while let Some(ws) = rest.find(char::is_whitespace) {
        out.push_str(&rest[..ws]);
        if !out.ends_with(' ') {
            out.push(' ');
        }
        // `trim_start` skips exactly the `char::is_whitespace` run.
        rest = rest[ws..].trim_start();
    }
    out.push_str(rest);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collapsed(parts: &[&str]) -> String {
        let mut out = String::new();
        for p in parts {
            push_collapsed(&mut out, p);
        }
        out
    }

    #[test]
    fn runs_collapse_across_pushes() {
        assert_eq!(collapsed(&["a ", " b"]), "a b");
        assert_eq!(collapsed(&["a", " b"]), "a b");
        assert_eq!(collapsed(&["a\t\n", "\u{a0}\u{3000}b"]), "a b");
        assert_eq!(collapsed(&["", "  ", ""]), " ");
        assert_eq!(collapsed(&["x"]), "x");
    }
}
