//! Node-id-free structural equality and hashing of subtrees.
//!
//! The paper defines robustness of a wrapper `q` between two document versions
//! `D` and `D'` via a bijection π between `q(D)` and `q(D')` such that
//! `D/v = D'/π(v)` where `D/v` is the *abstract, nodeId-free* subtree rooted
//! at `v`.  This module provides exactly that notion of equality, plus a
//! structural hash so sets of result subtrees can be compared as multisets in
//! `O(n log n)`.
//!
//! # The hash index
//!
//! Subtree hashes are served by a lazily built per-document [`HashIndex`]:
//! one reverse pass over the arena computes the hash of **every** subtree.
//! Ids are pre-order ranks (see [`crate::order`]), so every child comes
//! after its parent and each node's hash recombines children hashed
//! earlier in the pass.  After the first build a [`structural_hash`] call
//! is a single array lookup, and since a document is immutable once built
//! the index never goes stale.
//!
//! Hashing goes through [`crate::fx`] (FxHash) and the interner: every
//! interned string is hashed once per index build, and per-node hashing
//! recombines those 64-bit words instead of re-hashing strings.  Symbols
//! are document-local, so the per-symbol table hashes the *string
//! contents* — equal subtrees of different documents (different interner
//! numberings) still hash equal, which the robustness check relies on.

use crate::document::Document;
use crate::fx::FxHasher;
use crate::node::{NodeData, NodeId};
use std::hash::Hasher;

/// Hash of one string's contents (length-prefixed: `FxHasher::write`
/// zero-pads its trailing chunk, so without the prefix `"a"` and `"a\0"`
/// would collide structurally).
#[inline]
fn str_hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(s.len());
    h.write(s.as_bytes());
    h.finish()
}

/// Combine function for a text node.
#[inline]
fn text_hash(content: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(1);
    h.write_u64(content);
    h.finish()
}

/// Combine function for an element node: tag, attribute pairs (order
/// matters), then child subtree hashes (order matters).
fn element_hash<A, C>(tag: u64, attrs: A, children: C) -> u64
where
    A: Iterator<Item = (u64, u64)>,
    C: Iterator<Item = u64>,
{
    let mut h = FxHasher::default();
    h.write_u8(2);
    h.write_u64(tag);
    let mut attr_count = 0usize;
    for (name, value) in attrs {
        h.write_u64(name);
        h.write_u64(value);
        attr_count += 1;
    }
    h.write_usize(attr_count);
    let mut child_count = 0usize;
    for child in children {
        h.write_u64(child);
        child_count += 1;
    }
    h.write_usize(child_count);
    h.finish()
}

/// Per-document structural-hash index: the hash of every subtree, by node
/// id.
///
/// Built bottom-up in one pass over the arena from the last id to the
/// first (children follow their parent, so the pass visits every child
/// before the element that recombines it).  See the [module docs](self)
/// for the cross-document contract.
#[derive(Debug, Clone)]
pub struct HashIndex {
    /// Subtree hash by node id.
    hashes: Vec<u64>,
    /// Number of element nodes in the tree (including the synthetic root).
    elements: usize,
}

impl HashIndex {
    /// Builds the index for `doc`.
    pub fn build(doc: &Document) -> HashIndex {
        // One content hash per interned string; symbols index this table.
        let sym_hashes: Vec<u64> = doc.interner().strings().map(str_hash).collect();
        let mut hashes = vec![0u64; doc.len()];
        let mut elements = 0usize;
        for i in (0..hashes.len()).rev() {
            let id = NodeId::from_index(i);
            hashes[i] = match doc.data(id) {
                NodeData::Text(t) => text_hash(str_hash(t)),
                NodeData::Element { .. } => {
                    elements += 1;
                    let tag = doc
                        .tag_sym(id)
                        .map(|s| sym_hashes[s.index()])
                        .unwrap_or_default();
                    element_hash(
                        tag,
                        doc.attr_syms(id)
                            .iter()
                            .map(|&(n, v)| (sym_hashes[n.index()], sym_hashes[v.index()])),
                        // Children come after `id` — already hashed.
                        doc.children(id).map(|c| hashes[c.index()]),
                    )
                }
            };
        }
        HashIndex { hashes, elements }
    }

    /// The subtree hash of the node `id`.
    pub fn hash(&self, id: NodeId) -> u64 {
        self.hashes[id.index()]
    }

    /// Number of element nodes in the tree, including the synthetic root.
    pub fn element_count(&self) -> usize {
        self.elements
    }
}

/// Computes a structural hash of the subtree rooted at `id`.
///
/// Two subtrees that are structurally equal (same tags, attributes with the
/// same names/values in the same order, same text, same child order) hash to
/// the same value regardless of which document or arena slot they live in.
///
/// Served by the per-document [`HashIndex`]: O(1) per call once the index
/// is built.
pub fn structural_hash(doc: &Document, id: NodeId) -> u64 {
    doc.subtree_hash(id)
}

/// Structural (node-id free) equality of two subtrees, possibly from
/// different documents.
pub fn subtree_equal(doc_a: &Document, a: NodeId, doc_b: &Document, b: NodeId) -> bool {
    match (doc_a.data(a), doc_b.data(b)) {
        (NodeData::Text(ta), NodeData::Text(tb)) => ta == tb,
        (
            NodeData::Element {
                tag: tag_a,
                attributes: attrs_a,
            },
            NodeData::Element {
                tag: tag_b,
                attributes: attrs_b,
            },
        ) => {
            if tag_a != tag_b || attrs_a != attrs_b {
                return false;
            }
            let mut ca = doc_a.children(a);
            let mut cb = doc_b.children(b);
            loop {
                match (ca.next(), cb.next()) {
                    (Some(x), Some(y)) => {
                        if !subtree_equal(doc_a, x, doc_b, y) {
                            return false;
                        }
                    }
                    (None, None) => return true,
                    _ => return false,
                }
            }
        }
        _ => false,
    }
}

/// Checks whether a bijection π exists between `nodes_a` (in `doc_a`) and
/// `nodes_b` (in `doc_b`) such that corresponding subtrees are structurally
/// equal — i.e. the two result sets are equal as multisets of abstract
/// subtrees.  This is the paper's robustness condition for a query across two
/// page versions.
pub fn result_sets_equivalent(
    doc_a: &Document,
    nodes_a: &[NodeId],
    doc_b: &Document,
    nodes_b: &[NodeId],
) -> bool {
    if nodes_a.len() != nodes_b.len() {
        return false;
    }
    let mut hashes_a: Vec<u64> = nodes_a.iter().map(|&n| structural_hash(doc_a, n)).collect();
    let mut hashes_b: Vec<u64> = nodes_b.iter().map(|&n| structural_hash(doc_b, n)).collect();
    hashes_a.sort_unstable();
    hashes_b.sort_unstable();
    if hashes_a != hashes_b {
        return false;
    }
    // Hash collisions are astronomically unlikely, but verify greedily with
    // real structural equality to keep the function exact.
    let mut used = vec![false; nodes_b.len()];
    for &a in nodes_a {
        let mut matched = false;
        for (j, &b) in nodes_b.iter().enumerate() {
            if !used[j] && subtree_equal(doc_a, a, doc_b, b) {
                used[j] = true;
                matched = true;
                break;
            }
        }
        if !matched {
            return false;
        }
    }
    true
}

/// A compact structural fingerprint of an entire document: its root hash plus
/// element count.  Used by the archive simulator to detect "no change"
/// snapshots cheaply and by the maintenance layer's incremental caches as
/// the content identity of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DocumentFingerprint {
    /// Structural hash of the document root.
    pub hash: u64,
    /// Number of element nodes.
    pub elements: usize,
}

/// Computes the [`DocumentFingerprint`] of a document.  O(1) once the hash
/// index is built.
pub fn fingerprint(doc: &Document) -> DocumentFingerprint {
    DocumentFingerprint {
        hash: structural_hash(doc, doc.root()),
        elements: doc.element_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::el;

    fn tree_a() -> Document {
        el("div")
            .attr("class", "x")
            .child(el("span").text_child("hello"))
            .child(el("span").text_child("world"))
            .into_document()
    }

    #[test]
    fn identical_trees_hash_equal() {
        let a = tree_a();
        let b = tree_a();
        let ra = a.elements_by_tag("div")[0];
        let rb = b.elements_by_tag("div")[0];
        assert_eq!(structural_hash(&a, ra), structural_hash(&b, rb));
        assert!(subtree_equal(&a, ra, &b, rb));
    }

    #[test]
    fn different_text_changes_hash() {
        let a = tree_a();
        let b = el("div")
            .attr("class", "x")
            .child(el("span").text_child("hello"))
            .child(el("span").text_child("mars"))
            .into_document();
        let ra = a.elements_by_tag("div")[0];
        let rb = b.elements_by_tag("div")[0];
        assert_ne!(structural_hash(&a, ra), structural_hash(&b, rb));
        assert!(!subtree_equal(&a, ra, &b, rb));
    }

    #[test]
    fn attribute_order_matters_value_matters() {
        let a = el("div").attr("a", "1").attr("b", "2").into_document();
        let b = el("div").attr("b", "2").attr("a", "1").into_document();
        let c = el("div").attr("a", "1").attr("b", "3").into_document();
        let (ra, rb, rc) = (
            a.elements_by_tag("div")[0],
            b.elements_by_tag("div")[0],
            c.elements_by_tag("div")[0],
        );
        assert!(!subtree_equal(&a, ra, &b, rb));
        assert!(!subtree_equal(&a, ra, &c, rc));
        assert_ne!(structural_hash(&a, ra), structural_hash(&b, rb));
        assert_ne!(structural_hash(&a, ra), structural_hash(&c, rc));
    }

    #[test]
    fn child_order_matters() {
        let a = el("ul")
            .child(el("li").text_child("1"))
            .child(el("li").text_child("2"))
            .into_document();
        let b = el("ul")
            .child(el("li").text_child("2"))
            .child(el("li").text_child("1"))
            .into_document();
        let ra = a.elements_by_tag("ul")[0];
        let rb = b.elements_by_tag("ul")[0];
        assert!(!subtree_equal(&a, ra, &b, rb));
        assert_ne!(structural_hash(&a, ra), structural_hash(&b, rb));
    }

    #[test]
    fn element_vs_text_not_equal() {
        let a = el("div").text_child("x").into_document();
        let div = a.elements_by_tag("div")[0];
        let t = a.children(div).next().unwrap();
        assert!(!subtree_equal(&a, div, &a, t));
        assert_ne!(structural_hash(&a, div), structural_hash(&a, t));
    }

    #[test]
    fn result_set_equivalence_is_order_independent() {
        let a = tree_a();
        let b = tree_a();
        let sa = a.elements_by_tag("span");
        let sb_rev: Vec<_> = b.elements_by_tag("span").into_iter().rev().collect();
        assert!(result_sets_equivalent(&a, &sa, &b, &sb_rev));
    }

    #[test]
    fn result_set_equivalence_detects_mismatch() {
        let a = tree_a();
        let b = el("div")
            .attr("class", "x")
            .child(el("span").text_child("hello"))
            .child(el("span").text_child("changed"))
            .into_document();
        let sa = a.elements_by_tag("span");
        let sb = b.elements_by_tag("span");
        assert!(!result_sets_equivalent(&a, &sa, &b, &sb));
        // size mismatch
        assert!(!result_sets_equivalent(&a, &sa, &b, &sb[..1]));
    }

    #[test]
    fn duplicate_subtrees_need_matching_multiplicity() {
        let a = el("ul")
            .child(el("li").text_child("x"))
            .child(el("li").text_child("x"))
            .into_document();
        let b = el("ul")
            .child(el("li").text_child("x"))
            .child(el("li").text_child("y"))
            .into_document();
        let la = a.elements_by_tag("li");
        let lb = b.elements_by_tag("li");
        assert!(!result_sets_equivalent(&a, &la, &b, &lb));
    }

    #[test]
    fn fingerprint_changes_with_structure() {
        let a = tree_a();
        let f1 = fingerprint(&a);
        assert_eq!(f1, fingerprint(&tree_a()));
        let b = el("div")
            .attr("class", "x")
            .child(el("span").attr("class", "new").text_child("hello"))
            .child(el("span").text_child("world"))
            .into_document();
        assert_ne!(f1, fingerprint(&b));
    }

    #[test]
    fn equal_subtrees_hash_equal_within_and_across_pages() {
        // Two copies of one structure in one parsed page, and a third in a
        // page built another way: all three hash equal.
        let copy = r#"<div class="x"><span>hello</span></div>"#;
        let page = Document::parse(&format!("<body>{copy}<p>between</p>{copy}</body>")).unwrap();
        let divs = page.elements_by_tag("div");
        assert_eq!(divs.len(), 2);
        assert_ne!(divs[0], divs[1]);
        assert_eq!(
            structural_hash(&page, divs[0]),
            structural_hash(&page, divs[1])
        );
        assert!(subtree_equal(&page, divs[0], &page, divs[1]));

        let built = el("div")
            .attr("class", "x")
            .child(el("span").text_child("hello"))
            .into_document();
        let d = built.elements_by_tag("div")[0];
        assert_eq!(structural_hash(&page, divs[0]), structural_hash(&built, d));
        assert!(subtree_equal(&page, divs[0], &built, d));
    }

    #[test]
    fn equal_subtrees_hash_equal_across_interner_numberings() {
        // Property behind the incremental caches: equal subtrees of
        // documents with *different* interner numberings hash equal, because
        // the per-symbol table hashes string contents.  Skew document B's
        // interner by interning unrelated strings first.
        let a = Document::parse(r#"<div class="x"><span id="s">hello</span><b>world</b></div>"#)
            .unwrap();
        let b = Document::parse(
            r#"<p data-k="v">skew the symbol table</p>
               <div class="x"><span id="s">hello</span><b>world</b></div>"#,
        )
        .unwrap();
        let da = a.elements_by_tag("div")[0];
        let db = b.elements_by_tag("div")[0];
        assert_ne!(
            a.tag_sym(da),
            b.tag_sym(db),
            "interner numberings actually differ"
        );
        assert!(subtree_equal(&a, da, &b, db));
        assert_eq!(structural_hash(&a, da), structural_hash(&b, db));
        // And sibling-level: the span subtrees agree too.
        let sa = a.elements_by_tag("span")[0];
        let sb = b.elements_by_tag("span")[0];
        assert_eq!(structural_hash(&a, sa), structural_hash(&b, sb));
    }
}
