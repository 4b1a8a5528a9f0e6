//! Lazily built document-order and tag indexes.
//!
//! # Arena order is document order
//!
//! A [`Document`] is immutable once built.  Its only constructors —
//! [`Document::new`], [`crate::DocumentBuilder`] (which the HTML parser
//! drives) and [`crate::TreeSpec::into_document`] — append every node as
//! the last child of a node on the open rightmost path.  So each node's
//! arena slot is its pre-order rank: [`NodeId`] order *is* document order,
//! and the subtree of `id` occupies the contiguous id range
//! `id .. id + subtree_size(id)`.
//!
//! Wrapper induction evaluates thousands of candidate XPath queries per
//! page, and every step of every evaluation sorts its node set into
//! document order, so this fact does the heavy lifting:
//!
//! * [`Document::document_order`](crate::Document::document_order) is an
//!   id comparison, and sorting is `sort_unstable` on ids;
//! * [`Document::is_ancestor_of`](crate::Document::is_ancestor_of) is the
//!   range test `a < n < a + size(a)`;
//! * the `following` axis is the id range after the subtree, and
//!   `preceding` is the ids before the node whose subtree ends at or
//!   before it.
//!
//! The [`OrderIndex`] therefore stores only what ids do not: each node's
//! subtree size and depth, filled by one forward pass (depth: a parent
//! always precedes its children) and one reverse pass (size: children
//! always follow their parent).  The [`TagIndex`] maps each tag name to its
//! elements in document order, so `descendant::tag` steps binary-search an
//! id range instead of walking every subtree node.
//!
//! Both indexes are built on first use and cached in the [`Document`]
//! behind `OnceLock`s; a built document never changes, so a built index is
//! never stale.

use crate::document::Document;
use crate::intern::Sym;
use crate::node::NodeId;
use std::collections::HashMap;

/// Per-node numbering the ids do not carry.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Depth below the synthetic root (root itself has depth 0).
    depth: u32,
    /// Number of nodes in the subtree rooted here, including the node.
    size: u32,
}

/// Subtree size and depth of every node of a [`Document`].
///
/// Built in O(n) by [`Document::order_index`]; see the
/// [module documentation](self) for why ids already give document order.
#[derive(Debug, Clone)]
pub struct OrderIndex {
    slots: Vec<Slot>,
}

impl OrderIndex {
    /// Fills depths front to back and sizes back to front over the arena.
    pub(crate) fn build(doc: &Document) -> OrderIndex {
        let mut slots = vec![Slot { depth: 0, size: 1 }; doc.len()];
        for i in 1..slots.len() {
            if let Some(p) = doc.parent(NodeId::from_index(i)) {
                slots[i].depth = slots[p.index()].depth + 1;
            }
        }
        for i in (1..slots.len()).rev() {
            if let Some(p) = doc.parent(NodeId::from_index(i)) {
                slots[p.index()].size += slots[i].size;
            }
        }
        OrderIndex { slots }
    }

    /// Number of nodes covered by the index: every node of the document.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the index covers no nodes (never the case for a
    /// well-formed document, which always has a root).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The depth of `id` below the root.
    pub fn depth(&self, id: NodeId) -> u32 {
        self.slots[id.index()].depth
    }

    /// The subtree size of `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> u32 {
        self.slots[id.index()].size
    }

    /// The ids of the subtree of `id`, `id` itself first, as an index range.
    pub fn subtree_range(&self, id: NodeId) -> std::ops::Range<usize> {
        id.index()..id.index() + self.slots[id.index()].size as usize
    }

    /// O(1) proper-ancestor test: `node` lies inside `ancestor`'s id range.
    pub fn is_ancestor_of(&self, ancestor: NodeId, node: NodeId) -> bool {
        ancestor < node && self.subtree_range(ancestor).contains(&node.index())
    }
}

/// Tag-name → elements (in document order) lookup for a [`Document`].
///
/// Keyed by interned tag [`Sym`]s (see [`crate::intern`]), so building it
/// allocates no strings and a lookup by symbol is one integer-keyed hash
/// probe.  Built lazily by one pass over the arena, which is document
/// order (see the [module documentation](self)).
#[derive(Debug, Clone)]
pub struct TagIndex {
    by_tag: HashMap<Sym, Vec<NodeId>>,
}

impl TagIndex {
    pub(crate) fn build(doc: &Document) -> TagIndex {
        let mut by_tag: HashMap<Sym, Vec<NodeId>> = HashMap::new();
        // Skip the synthetic root: `elements_by_tag` has never reported it.
        for id in (1..doc.len()).map(NodeId::from_index) {
            if let Some(sym) = doc.tag_sym(id) {
                by_tag.entry(sym).or_default().push(id);
            }
        }
        TagIndex { by_tag }
    }

    /// All elements with the given interned tag, in document order.
    ///
    /// The symbol must come from the document this index was built for
    /// (see `wi_dom::intern` — symbols are per document).  String lookups
    /// go through
    /// [`Document::elements_by_tag_slice`](crate::Document::elements_by_tag_slice),
    /// which guarantees that pairing; `TagIndex` deliberately offers no
    /// `&str` entry point that could be fed a foreign document's interner.
    pub fn nodes_sym(&self, tag: Sym) -> &[NodeId] {
        self.by_tag.get(&tag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct tag names in the document.
    pub fn tag_count(&self) -> usize {
        self.by_tag.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::el;
    use crate::Document;

    fn sample() -> Document {
        el("html")
            .child(
                el("body")
                    .child(el("div").child(el("span").text_child("a")))
                    .child(el("div").text_child("b")),
            )
            .into_document()
    }

    #[test]
    fn preorder_matches_descendants_iterator() {
        let doc = sample();
        let idx = doc.order_index();
        let walked: Vec<_> = doc.descendants_or_self(doc.root()).collect();
        assert_eq!(idx.len(), walked.len());
        for (i, &n) in walked.iter().enumerate() {
            assert_eq!(n.index(), i);
            let range: Vec<usize> = doc.descendants_or_self(n).map(|d| d.index()).collect();
            assert_eq!(range, idx.subtree_range(n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn interval_containment_is_proper_ancestorship() {
        let doc = sample();
        let idx = doc.order_index();
        let body = doc.elements_by_tag("body")[0];
        let span = doc.elements_by_tag("span")[0];
        assert!(idx.is_ancestor_of(body, span));
        assert!(!idx.is_ancestor_of(span, body));
        assert!(!idx.is_ancestor_of(span, span));
        assert!(idx.is_ancestor_of(doc.root(), span));
    }

    #[test]
    fn depths_and_sizes() {
        let doc = sample();
        let idx = doc.order_index();
        assert_eq!(idx.depth(doc.root()), 0);
        let span = doc.elements_by_tag("span")[0];
        assert_eq!(idx.depth(span), 4);
        assert_eq!(idx.subtree_size(span), 2); // span + text
        assert_eq!(idx.subtree_size(doc.root()), doc.len() as u32);
    }

    #[test]
    fn tag_index_matches_linear_scan() {
        let doc = sample();
        let tags = doc.tag_index();
        assert_eq!(
            doc.elements_by_tag_slice("div"),
            &doc.elements_by_tag("div")[..]
        );
        assert_eq!(
            doc.elements_by_tag_slice("span"),
            &doc.elements_by_tag("span")[..]
        );
        assert!(doc.elements_by_tag_slice("table").is_empty());
        assert!(doc
            .elements_by_tag_slice(crate::document::DOCUMENT_ROOT_TAG)
            .is_empty());
        assert!(tags.tag_count() >= 4);
        // Symbol-keyed lookup agrees with the string path.
        let div_sym = doc.sym("div").unwrap();
        assert_eq!(tags.nodes_sym(div_sym), doc.elements_by_tag_slice("div"));
        assert_eq!(
            doc.elements_by_tag_sym(div_sym),
            &doc.elements_by_tag("div")[..]
        );
    }
}
