//! The arena-based [`Document`] type and its navigation API.

use crate::attrs::AttrIndex;
use crate::error::Result;
use crate::hash::HashIndex;
use crate::intern::{Interner, Sym};
use crate::iter::{
    Ancestors, Children, Descendants, DescendantsOrSelf, FollowingSiblings, PrecedingSiblings,
};
use crate::node::{Attribute, Node, NodeData, NodeId, NodeKind};
use crate::order::{OrderIndex, TagIndex};
use crate::text::TextIndex;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// An HTML/XML document: a tree of element and text nodes stored in an arena.
///
/// The root of every document is a synthetic *document root* element with the
/// reserved tag name `#document`.  It mirrors XPath's root node `/`: it is the
/// parent of the top-level element(s) and is the context node wrappers are
/// evaluated from.
///
/// A document is immutable once built, and every node's [`NodeId`] is its
/// document-order (pre-order) rank; see [`crate::order`].  Ordered queries
/// (`is_ancestor_of`, `depth`, `subtree_size`, the `following`/`preceding`
/// axes, the tag lookups and `normalize-space`) are served by lazily built
/// indexes that, like the document, never change once built.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Document {
    pub(crate) nodes: Vec<Node>,
    root: NodeId,
    /// Per-document string interner for tag names, attribute names and
    /// attribute values; see [`crate::intern`] for the ownership contract.
    interner: Interner,
    /// Lazily built subtree sizes and depths (see [`crate::order`]).
    order: OnceLock<OrderIndex>,
    /// Lazily built tag-name → elements lookup (see [`crate::order`]).
    tags: OnceLock<TagIndex>,
    /// Lazily built per-subtree structural hashes (see [`crate::hash`]).
    hashes: OnceLock<HashIndex>,
    /// Lazily built attribute censuses (see [`crate::attrs`]).
    attrs: OnceLock<AttrIndex>,
    /// Lazily built whitespace-collapsed text (see [`crate::text`](mod@crate::text)).
    text: OnceLock<TextIndex>,
}

/// Reserved tag name of the synthetic document root.
pub const DOCUMENT_ROOT_TAG: &str = "#document";

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates an empty document containing only the synthetic root node.
    pub fn new() -> Self {
        Self::with_capacity(1)
    }

    /// [`new`](Self::new) with arena room for `nodes` nodes (the root
    /// included) reserved up front.
    pub(crate) fn with_capacity(nodes: usize) -> Self {
        let mut interner = Interner::new();
        let mut root_node = Node::new(NodeData::Element {
            tag: DOCUMENT_ROOT_TAG.to_string(),
            attributes: Vec::new(),
        });
        root_node.tag_sym = interner.intern(DOCUMENT_ROOT_TAG);
        let mut arena = Vec::with_capacity(nodes.max(1));
        arena.push(root_node);
        Document {
            nodes: arena,
            root: NodeId(0),
            interner,
            order: OnceLock::new(),
            tags: OnceLock::new(),
            hashes: OnceLock::new(),
            attrs: OnceLock::new(),
            text: OnceLock::new(),
        }
    }

    // ------------------------------------------------------------------
    // Lazily built indexes (see the `order` module).
    // ------------------------------------------------------------------

    /// The subtree-size and depth index, built on first use.
    pub fn order_index(&self) -> &OrderIndex {
        self.order.get_or_init(|| OrderIndex::build(self))
    }

    /// The tag-name index, built on first use.
    pub fn tag_index(&self) -> &TagIndex {
        self.tags.get_or_init(|| TagIndex::build(self))
    }

    /// The normalized-text index, built on first use.
    pub fn text_index(&self) -> &TextIndex {
        self.text.get_or_init(|| TextIndex::build(self))
    }

    /// The structural-hash index, built on first use.
    pub fn hash_index(&self) -> &HashIndex {
        self.hashes.get_or_init(|| HashIndex::build(self))
    }

    /// The structural hash of the subtree rooted at `id` — O(1) via the hash
    /// index.  Same value as [`crate::structural_hash`].
    pub fn subtree_hash(&self, id: NodeId) -> u64 {
        self.hash_index().hash(id)
    }

    /// The structural hash of the whole document (the root's subtree hash).
    /// This is the content identity the maintenance layer's incremental
    /// caches key on.
    pub fn content_hash(&self) -> u64 {
        self.subtree_hash(self.root)
    }

    /// The attribute-census index, built on first use.
    pub fn attr_index(&self) -> &AttrIndex {
        self.attrs.get_or_init(|| AttrIndex::build(self))
    }

    /// Number of nodes whose visible attribute `name` equals
    /// `value` (the synthetic root included, should it ever carry
    /// attributes).  O(1) via the attribute index after its one-time build;
    /// needles absent from the interner can match nothing and return 0
    /// without touching the index.
    pub fn carrier_count(&self, name: &str, value: &str) -> usize {
        match (self.sym(name), self.sym(value)) {
            (Some(n), Some(v)) => self.attr_index().carrier_count_syms(n, v),
            _ => 0,
        }
    }

    /// The shared census of every distinct attribute value in the document,
    /// sorted.  Callers clone the `Arc`, not the set.
    pub fn attribute_value_census(&self) -> &std::sync::Arc<std::collections::BTreeSet<String>> {
        self.attr_index().values()
    }

    /// Parses HTML text into a document with default [`crate::ParseOptions`].
    ///
    /// Convenience constructor equivalent to [`crate::parse_html`]; callers
    /// no longer need to thread a [`crate::DocumentBuilder`] (or reach for
    /// the free function) to get from markup to a `Document`.
    pub fn parse(html: &str) -> Result<Document> {
        crate::parser::parse_html(html)
    }

    /// Parses HTML text with explicit [`crate::ParseOptions`].
    pub fn parse_with(html: &str, options: crate::parser::ParseOptions) -> Result<Document> {
        crate::parser::parse_html_with(html, options)
    }

    /// Returns the synthetic document root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Returns the first element child of the document root (`<html>` for a
    /// typical page), if any.
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(self.root)
            .find(|&c| self.kind(c) == NodeKind::Element)
    }

    /// Number of nodes, including the synthetic root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the document contains only the synthetic root.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Returns `true` if `id` refers to a node of this document.
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len()
    }

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    // ------------------------------------------------------------------
    // Node creation (used by the builders and the parser).
    // ------------------------------------------------------------------

    /// Allocates a node as the last child of `parent`: the builders' and
    /// the parser's one append primitive.  `parent` must be on the open
    /// rightmost path (the root, the last node, or one of its ancestors),
    /// which every constructor guarantees; that is what keeps arena order
    /// equal to document order (see [`crate::order`]).  No index has been
    /// built yet while a document is under construction.
    pub(crate) fn append_new(&mut self, parent: NodeId, data: NodeData) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let prev = self.nodes[parent.index()].last_child;
        let mut node = Node::new(data);
        node.parent = Some(parent);
        node.prev_sibling = prev;
        self.nodes.push(node);
        match prev {
            Some(p) => self.nodes[p.index()].next_sibling = Some(id),
            None => self.nodes[parent.index()].first_child = Some(id),
        }
        self.nodes[parent.index()].last_child = Some(id);
        self.sync_syms(id);
        id
    }

    /// Derives the interned symbols of a freshly appended node from its
    /// string payload.
    fn sync_syms(&mut self, id: NodeId) {
        // Split borrow: the arena slot and the interner are disjoint fields.
        let Document {
            nodes, interner, ..
        } = self;
        let node = &mut nodes[id.index()];
        match &node.data {
            NodeData::Element { tag, attributes } => {
                node.tag_sym = interner.intern(tag);
                node.attr_syms.clear();
                node.attr_syms.extend(
                    attributes
                        .iter()
                        .map(|a| (interner.intern(&a.name), interner.intern(&a.value))),
                );
            }
            NodeData::Text(_) => {
                node.tag_sym = Sym::UNSET;
                node.attr_syms.clear();
            }
        }
    }

    // ------------------------------------------------------------------
    // Payload accessors.
    // ------------------------------------------------------------------

    /// Returns the payload of a node.
    pub fn data(&self, id: NodeId) -> &NodeData {
        &self.node(id).data
    }

    /// Returns the kind (element or text) of a node.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.node(id).data.kind()
    }

    /// Returns `true` if the node is an element.
    pub fn is_element(&self, id: NodeId) -> bool {
        self.kind(id) == NodeKind::Element
    }

    /// Returns `true` if the node is a text node.
    pub fn is_text(&self, id: NodeId) -> bool {
        self.kind(id) == NodeKind::Text
    }

    /// Returns the tag name of an element node (`None` for text nodes).
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        self.node(id).data.tag()
    }

    /// Returns the character data of a text node (`None` for elements).
    pub fn text_content(&self, id: NodeId) -> Option<&str> {
        self.node(id).data.text()
    }

    /// Returns the attributes of an element (empty for text nodes).
    pub fn attributes(&self, id: NodeId) -> &[Attribute] {
        self.node(id).data.attributes()
    }

    /// Looks up an attribute value by name.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.node(id).data.attribute(name)
    }

    /// Returns `true` if the element carries the given attribute.
    pub fn has_attribute(&self, id: NodeId, name: &str) -> bool {
        self.attribute(id, name).is_some()
    }

    // ------------------------------------------------------------------
    // Symbol-based accessors (see `crate::intern` for the contract).
    // ------------------------------------------------------------------

    /// The document's string interner (read access; interning happens when
    /// a node is appended).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Looks up the symbol of a string **without interning it**.  `None`
    /// means the string occurs nowhere in this document's tags, attribute
    /// names or attribute values — a query needle resolving to `None` can
    /// match nothing.
    pub fn sym(&self, s: &str) -> Option<Sym> {
        self.interner.get(s)
    }

    /// Resolves a symbol of this document back to its string.
    pub fn resolve_sym(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// The interned tag name of an element (`None` for text nodes).
    pub fn tag_sym(&self, id: NodeId) -> Option<Sym> {
        let node = self.node(id);
        (node.tag_sym != Sym::UNSET).then_some(node.tag_sym)
    }

    /// The interned `(name, value)` pairs of an element's attributes, in
    /// insertion order (empty for text nodes).
    pub fn attr_syms(&self, id: NodeId) -> &[(Sym, Sym)] {
        &self.node(id).attr_syms
    }

    /// The interned value of the attribute with interned name `name`, if the
    /// element carries it.
    pub fn attribute_value_sym(&self, id: NodeId, name: Sym) -> Option<Sym> {
        self.node(id)
            .attr_syms
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Attribute lookup by interned name, resolving the value string.
    pub fn attribute_by_sym(&self, id: NodeId, name: Sym) -> Option<&str> {
        self.attribute_value_sym(id, name)
            .map(|v| self.interner.resolve(v))
    }

    /// Returns `true` if the element carries an attribute with interned name
    /// `name`.
    pub fn has_attribute_sym(&self, id: NodeId, name: Sym) -> bool {
        self.node(id).attr_syms.iter().any(|&(n, _)| n == name)
    }

    // ------------------------------------------------------------------
    // Structural navigation.
    // ------------------------------------------------------------------

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// First child of a node.
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).first_child
    }

    /// Last child of a node.
    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).last_child
    }

    /// Next sibling of a node.
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).next_sibling
    }

    /// Previous sibling of a node.
    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).prev_sibling
    }

    /// Iterator over the children of a node, in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children::new(self, id)
    }

    /// Iterator over the element children of a node, in document order.
    pub fn element_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(move |&c| self.is_element(c))
    }

    /// Iterator over the proper descendants of a node in document (pre-)order.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants::new(self, id)
    }

    /// Iterator over the node itself followed by its descendants.
    pub fn descendants_or_self(&self, id: NodeId) -> DescendantsOrSelf<'_> {
        DescendantsOrSelf::new(self, id)
    }

    /// Iterator over the proper ancestors of a node, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors::new(self, id)
    }

    /// Iterator over the node itself followed by its ancestors.
    pub fn ancestors_or_self(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(id).chain(self.ancestors(id))
    }

    /// Iterator over following siblings in document order.
    pub fn following_siblings(&self, id: NodeId) -> FollowingSiblings<'_> {
        FollowingSiblings::new(self, id)
    }

    /// Iterator over preceding siblings in reverse document order.
    pub fn preceding_siblings(&self, id: NodeId) -> PrecedingSiblings<'_> {
        PrecedingSiblings::new(self, id)
    }

    /// All siblings of a node (both directions), excluding the node itself,
    /// in document order.
    pub fn siblings(&self, id: NodeId) -> Vec<NodeId> {
        let mut before: Vec<NodeId> = self.preceding_siblings(id).collect();
        before.reverse();
        before.extend(self.following_siblings(id));
        before
    }

    /// Nodes strictly after `id` in document order that are not descendants
    /// of `id` (the XPath `following` axis), in document order: the id
    /// range after `id`'s subtree.
    pub fn following(&self, id: NodeId) -> impl DoubleEndedIterator<Item = NodeId> {
        let end = self.order_index().subtree_range(id).end;
        (end..self.len()).map(NodeId::from_index)
    }

    /// Nodes strictly before `id` in document order that are not ancestors of
    /// `id` (the XPath `preceding` axis), in document order: the ids before
    /// `id` whose subtree ends at or before `id`.
    pub fn preceding(&self, id: NodeId) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        let index = self.order_index();
        (0..id.index())
            .filter(move |&n| index.subtree_range(NodeId::from_index(n)).end <= id.index())
            .map(NodeId::from_index)
    }

    /// Returns `true` if `ancestor` is a proper ancestor of `node`.  O(1)
    /// via the order index.
    pub fn is_ancestor_of(&self, ancestor: NodeId, node: NodeId) -> bool {
        self.order_index().is_ancestor_of(ancestor, node)
    }

    /// Depth of a node: the root has depth 0.  O(1) via the order index.
    pub fn depth(&self, id: NodeId) -> usize {
        self.order_index().depth(id) as usize
    }

    /// 1-based position of the node among *all* children of its parent
    /// (element and text nodes alike); the root has position 1.
    pub fn child_position(&self, id: NodeId) -> usize {
        let Some(parent) = self.parent(id) else {
            return 1;
        };
        self.children(parent)
            .position(|c| c == id)
            .map(|p| p + 1)
            .unwrap_or(1)
    }

    /// 1-based position of the node among the children of its parent that
    /// share its node test (same tag for elements, text nodes counted
    /// together).  This is the index used by canonical paths.
    pub fn sibling_index(&self, id: NodeId) -> usize {
        let Some(parent) = self.parent(id) else {
            return 1;
        };
        // Interned tags make the per-sibling comparison one integer compare;
        // text nodes all carry the UNSET sentinel, which preserves "text
        // nodes are counted together" (elements always have a real symbol).
        let id_sym = self.node(id).tag_sym;
        let mut index = 0;
        for c in self.children(parent) {
            let same = self.node(c).tag_sym == id_sym;
            if same {
                index += 1;
            }
            if c == id {
                return index;
            }
        }
        1
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    /// O(1) via the order index.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.order_index().subtree_size(id) as usize
    }

    /// The least common ancestor of a non-empty set of nodes.
    ///
    /// Returns `None` if `nodes` is empty.  For a single node the node itself
    /// is returned.
    pub fn least_common_ancestor(&self, nodes: &[NodeId]) -> Option<NodeId> {
        let mut iter = nodes.iter();
        let first = *iter.next()?;
        let mut path: Vec<NodeId> = self.ancestors_or_self(first).collect();
        path.reverse(); // root .. node
        for &n in iter {
            let mut other: Vec<NodeId> = self.ancestors_or_self(n).collect();
            other.reverse();
            let common = path
                .iter()
                .zip(other.iter())
                .take_while(|(a, b)| a == b)
                .count();
            path.truncate(common);
            if path.is_empty() {
                return None;
            }
        }
        path.last().copied()
    }

    /// Compares two nodes by document order (pre-order of the tree): ids
    /// are pre-order ranks, so this is the id comparison.
    pub fn document_order(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        a.cmp(&b)
    }

    /// The structural comparator: compares two nodes by rebuilding both
    /// root paths (two allocations, O(depth) time per comparison).
    ///
    /// The reference implementation for the order property tests and the
    /// `order_index` benchmark; production code uses
    /// [`document_order`](Self::document_order).
    pub fn document_order_unindexed(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        let path_a = self.path_from_root(a);
        let path_b = self.path_from_root(b);
        path_a.cmp(&path_b)
    }

    /// Sorts and deduplicates a vector of nodes into document order, which
    /// is id order.
    pub fn sort_document_order(&self, nodes: &mut Vec<NodeId>) {
        nodes.sort_unstable();
        nodes.dedup();
    }

    fn path_from_root(&self, id: NodeId) -> Vec<usize> {
        let mut path: Vec<usize> = self
            .ancestors_or_self(id)
            .map(|n| self.child_position(n))
            .collect();
        path.reverse();
        path
    }

    // ------------------------------------------------------------------
    // Text values.
    // ------------------------------------------------------------------

    /// The XPath string-value of a node: for text nodes their character data,
    /// for elements the concatenation of all descendant text nodes in
    /// document order.
    pub fn text_value(&self, id: NodeId) -> String {
        match self.data(id) {
            NodeData::Text(t) => t.clone(),
            NodeData::Element { .. } => {
                let mut out = String::new();
                for d in self.descendants(id) {
                    if let NodeData::Text(t) = self.data(d) {
                        out.push_str(t);
                    }
                }
                out
            }
        }
    }

    /// `normalize-space(.)` applied to the node's string-value: leading and
    /// trailing whitespace removed and internal whitespace runs collapsed to
    /// single spaces.
    ///
    /// A slice of the text index: O(1) and allocation-free after the
    /// index's one O(n) build (see [`crate::text`](mod@crate::text)).  Equal to
    /// `normalize_space(&self.text_value(id))`, which stays the independent
    /// oracle the tests check it against.
    pub fn normalized_str(&self, id: NodeId) -> &str {
        self.text_index()
            .normalized(self.order_index().subtree_range(id))
    }

    /// [`normalized_str`](Self::normalized_str) as an owned `String`.
    pub fn normalized_text(&self, id: NodeId) -> String {
        self.normalized_str(id).to_owned()
    }

    /// The set of whitespace-separated words occurring in the document's
    /// entire text value and in all attribute values.  Used to check the
    /// *plausibility* of dsXPath string constants.
    pub fn vocabulary(&self) -> std::collections::BTreeSet<String> {
        let mut words = std::collections::BTreeSet::new();
        for id in self.descendants_or_self(self.root) {
            match self.data(id) {
                NodeData::Text(t) => {
                    for w in t.split_whitespace() {
                        words.insert(w.to_string());
                    }
                }
                NodeData::Element { attributes, .. } => {
                    for a in attributes {
                        for w in a.value.split_whitespace() {
                            words.insert(w.to_string());
                        }
                        words.insert(a.value.clone());
                    }
                }
            }
        }
        words
    }

    /// Returns `true` if `needle` occurs as a substring of the document's
    /// text value or of any attribute value.  This is the paper's
    /// plausibility condition for string constants.
    pub fn contains_string(&self, needle: &str) -> bool {
        if needle.is_empty() {
            return true;
        }
        for id in self.descendants_or_self(self.root) {
            match self.data(id) {
                NodeData::Text(t) => {
                    if t.contains(needle) {
                        return true;
                    }
                }
                NodeData::Element { attributes, .. } => {
                    if attributes.iter().any(|a| a.value.contains(needle)) {
                        return true;
                    }
                }
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Convenience queries used across the workspace.
    // ------------------------------------------------------------------

    /// All element nodes with the given tag name, in document order.
    /// Served by the tag index: no tree walk after the first lookup.
    pub fn elements_by_tag(&self, tag: &str) -> Vec<NodeId> {
        self.elements_by_tag_slice(tag).to_vec()
    }

    /// [`elements_by_tag`](Self::elements_by_tag) as a slice into the tag
    /// index, resolving the tag name through *this* document's interner (an
    /// unknown name is the empty slice).  This is the only string entry
    /// point to the tag index — it guarantees the interner and the index
    /// belong to the same document.
    pub fn elements_by_tag_slice(&self, tag: &str) -> &[NodeId] {
        match self.sym(tag) {
            Some(sym) => self.tag_index().nodes_sym(sym),
            None => &[],
        }
    }

    /// [`elements_by_tag`](Self::elements_by_tag) by interned tag name, as a
    /// slice into the tag index.
    pub fn elements_by_tag_sym(&self, tag: Sym) -> &[NodeId] {
        self.tag_index().nodes_sym(tag)
    }

    /// The elements with the given tag inside the subtree of `context`
    /// (excluding `context` itself), in document order, as a slice into the
    /// tag index.
    ///
    /// This is the fast path for `descendant::tag` steps: two binary
    /// searches over the tag's id-ordered node list select exactly the
    /// subtree's id range, skipping non-matching subtrees entirely.
    pub fn descendants_by_tag_slice(&self, context: NodeId, tag: &str) -> &[NodeId] {
        // An unknown needle matches nothing — the interner miss is the
        // instant answer.
        let Some(sym) = self.sym(tag) else {
            return &[];
        };
        let list = self.tag_index().nodes_sym(sym);
        let range = self.order_index().subtree_range(context);
        let lo = list.partition_point(|&n| n.index() <= range.start);
        let hi = list.partition_point(|&n| n.index() < range.end);
        &list[lo..hi]
    }

    /// The elements with the given tag inside the subtree of `context`
    /// (excluding `context` itself), in document order.
    pub fn descendants_by_tag(&self, context: NodeId, tag: &str) -> Vec<NodeId> {
        self.descendants_by_tag_slice(context, tag).to_vec()
    }

    /// First element with a matching `id` attribute, if any.
    pub fn element_by_id(&self, id_value: &str) -> Option<NodeId> {
        self.descendants(self.root)
            .find(|&n| self.attribute(n, "id") == Some(id_value))
    }

    /// All element nodes whose `class` attribute contains the given
    /// class (whitespace separated), in document order.
    pub fn elements_by_class(&self, class: &str) -> Vec<NodeId> {
        self.descendants(self.root)
            .filter(|&n| {
                self.attribute(n, "class")
                    .map(|c| c.split_whitespace().any(|w| w == class))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Total number of element nodes in the document.  O(1) via the hash
    /// index (which counts elements during its bottom-up build).
    pub fn element_count(&self) -> usize {
        self.hash_index().element_count()
    }
}

/// XPath `normalize-space` on an arbitrary string.
pub fn normalize_space(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut first = true;
    for w in s.split_whitespace() {
        if !first {
            out.push(' ');
        }
        out.push_str(w);
        first = false;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{el, text};

    fn sample() -> Document {
        // <html><body><div id="main"><h4>Director:</h4>
        //   <a href="x"><span itemprop="name">Martin Scorsese</span></a>
        // </div><div class="other">noise</div></body></html>
        el("html")
            .child(
                el("body")
                    .child(
                        el("div")
                            .attr("id", "main")
                            .child(el("h4").child(text("Director:")))
                            .child(
                                el("a").attr("href", "x").child(
                                    el("span")
                                        .attr("itemprop", "name")
                                        .child(text("Martin Scorsese")),
                                ),
                            ),
                    )
                    .child(el("div").attr("class", "other").child(text("noise"))),
            )
            .into_document()
    }

    #[test]
    fn root_and_root_element() {
        let doc = sample();
        assert_eq!(doc.tag_name(doc.root()), Some(DOCUMENT_ROOT_TAG));
        let html = doc.root_element().unwrap();
        assert_eq!(doc.tag_name(html), Some("html"));
        assert_eq!(doc.parent(html), Some(doc.root()));
        assert_eq!(doc.parent(doc.root()), None);
    }

    #[test]
    fn navigation_links_are_consistent() {
        let doc = sample();
        let body = doc.elements_by_tag("body")[0];
        let divs = doc.elements_by_tag("div");
        assert_eq!(divs.len(), 2);
        assert_eq!(doc.first_child(body), Some(divs[0]));
        assert_eq!(doc.last_child(body), Some(divs[1]));
        assert_eq!(doc.next_sibling(divs[0]), Some(divs[1]));
        assert_eq!(doc.prev_sibling(divs[1]), Some(divs[0]));
        assert_eq!(doc.parent(divs[0]), Some(body));
        assert_eq!(doc.children(body).count(), 2);
    }

    #[test]
    fn descendants_in_document_order() {
        let doc = sample();
        let tags: Vec<_> = doc
            .descendants(doc.root())
            .filter_map(|n| doc.tag_name(n).map(|s| s.to_string()))
            .collect();
        assert_eq!(tags, vec!["html", "body", "div", "h4", "a", "span", "div"]);
    }

    #[test]
    fn ancestors_nearest_first() {
        let doc = sample();
        let span = doc.elements_by_tag("span")[0];
        let tags: Vec<_> = doc
            .ancestors(span)
            .filter_map(|n| doc.tag_name(n).map(|s| s.to_string()))
            .collect();
        assert_eq!(tags, vec!["a", "div", "body", "html", DOCUMENT_ROOT_TAG]);
    }

    #[test]
    fn text_value_concatenates_descendant_text() {
        let doc = sample();
        let main = doc.element_by_id("main").unwrap();
        assert_eq!(doc.text_value(main), "Director:Martin Scorsese");
        assert_eq!(doc.normalized_text(main), "Director:Martin Scorsese");
        let span = doc.elements_by_tag("span")[0];
        assert_eq!(doc.normalized_text(span), "Martin Scorsese");
    }

    /// The text index agrees with the oracle on every node of `doc`.
    fn assert_index_matches_oracle(doc: &Document) {
        for id in (0..doc.len()).map(NodeId::from_index) {
            assert_eq!(
                doc.normalized_str(id),
                normalize_space(&doc.text_value(id)),
                "{id:?}"
            );
        }
    }

    #[test]
    fn normalized_text_across_text_node_boundaries() {
        let doc = el("div")
            .child(el("p").text_child("a ").text_child(" b"))
            .child(el("p").text_child("a").text_child(" b"))
            .child(
                el("p")
                    .text_child("x")
                    .child(el("i").text_child(" "))
                    .text_child("y"),
            )
            .into_document();
        let ps = doc.elements_by_tag("p");
        assert_eq!(doc.normalized_str(ps[0]), "a b");
        assert_eq!(doc.normalized_str(ps[1]), "a b");
        assert_eq!(doc.normalized_str(ps[2]), "x y");
        let halves: Vec<&str> = doc.children(ps[0]).map(|t| doc.normalized_str(t)).collect();
        assert_eq!(halves, ["a", "b"]);
        // No separator between the paragraphs: "a " + " b" + "a" + " b" + …
        assert_eq!(doc.normalized_str(doc.root()), "a ba bx y");
        assert_index_matches_oracle(&doc);
    }

    #[test]
    fn normalized_text_collapses_unicode_whitespace() {
        // NBSP and U+3000 are whitespace to `split_whitespace` too.
        let doc = el("p")
            .text_child("\u{a0}Dir\u{3000}\u{a0}ector:\t\n")
            .text_child("\u{3000}Scorsese\u{a0}")
            .into_document();
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.normalized_str(p), "Dir ector: Scorsese");
        assert_index_matches_oracle(&doc);
    }

    #[test]
    fn normalized_text_of_empty_and_blank_text_nodes() {
        let doc = el("ul")
            .child(el("li").text_child(""))
            .child(el("li").text_child(" \t "))
            .child(el("li"))
            .child(el("li").text_child("").text_child("x").text_child(""))
            .child(el("li").text_child(" ").text_child("").text_child(" y "))
            .into_document();
        let texts: Vec<&str> = doc
            .elements_by_tag("li")
            .into_iter()
            .map(|li| doc.normalized_str(li))
            .collect();
        assert_eq!(texts, ["", "", "", "x", "y"]);
        assert_index_matches_oracle(&doc);
    }

    #[test]
    fn normalized_text_with_a_text_node_as_context() {
        let doc = el("p").text_child("  two \n words ").into_document();
        let p = doc.elements_by_tag("p")[0];
        let t = doc.first_child(p).unwrap();
        assert!(doc.is_text(t));
        assert_eq!(doc.normalized_str(t), "two words");
        assert_eq!(doc.normalized_text(t), "two words");
        assert_index_matches_oracle(&doc);
    }

    #[test]
    fn normalize_space_behaviour() {
        assert_eq!(normalize_space("  a  b\t\nc "), "a b c");
        assert_eq!(normalize_space(""), "");
        assert_eq!(normalize_space("   "), "");
    }

    #[test]
    fn sibling_index_counts_same_test_only() {
        let doc = sample();
        let divs = doc.elements_by_tag("div");
        assert_eq!(doc.sibling_index(divs[0]), 1);
        assert_eq!(doc.sibling_index(divs[1]), 2);
        let h4 = doc.elements_by_tag("h4")[0];
        assert_eq!(doc.sibling_index(h4), 1);
        let a = doc.elements_by_tag("a")[0];
        // `a` is the second child of the main div but the first `a`.
        assert_eq!(doc.child_position(a), 2);
        assert_eq!(doc.sibling_index(a), 1);
    }

    #[test]
    fn lca_of_nodes() {
        let doc = sample();
        let span = doc.elements_by_tag("span")[0];
        let h4 = doc.elements_by_tag("h4")[0];
        let main = doc.element_by_id("main").unwrap();
        assert_eq!(doc.least_common_ancestor(&[span, h4]), Some(main));
        assert_eq!(doc.least_common_ancestor(&[span]), Some(span));
        assert_eq!(doc.least_common_ancestor(&[]), None);
        let other = doc.elements_by_class("other")[0];
        let body = doc.elements_by_tag("body")[0];
        assert_eq!(doc.least_common_ancestor(&[span, other]), Some(body));
    }

    #[test]
    fn following_and_preceding_axes() {
        let doc = sample();
        let h4 = doc.elements_by_tag("h4")[0];
        let following: Vec<NodeId> = doc.following(h4).collect();
        // The a, span, their text, the second div and its text follow h4.
        assert!(following.contains(&doc.elements_by_tag("a")[0]));
        assert!(following.contains(&doc.elements_by_tag("span")[0]));
        assert!(following.contains(&doc.elements_by_class("other")[0]));
        assert!(!following.contains(&doc.elements_by_tag("body")[0]));

        let other = doc.elements_by_class("other")[0];
        let preceding: Vec<NodeId> = doc.preceding(other).collect();
        assert!(preceding.contains(&h4));
        assert!(preceding.contains(&doc.element_by_id("main").unwrap()));
        assert!(!preceding.contains(&doc.elements_by_tag("body")[0]));
    }

    #[test]
    fn document_order_comparison() {
        let doc = sample();
        let h4 = doc.elements_by_tag("h4")[0];
        let span = doc.elements_by_tag("span")[0];
        assert_eq!(doc.document_order(h4, span), std::cmp::Ordering::Less);
        assert_eq!(doc.document_order(span, h4), std::cmp::Ordering::Greater);
        assert_eq!(doc.document_order(h4, h4), std::cmp::Ordering::Equal);
        let mut v = vec![span, h4, span];
        doc.sort_document_order(&mut v);
        assert_eq!(v, vec![h4, span]);
    }

    #[test]
    fn vocabulary_and_plausibility() {
        let doc = sample();
        assert!(doc.contains_string("Martin"));
        assert!(doc.contains_string("Director:"));
        assert!(doc.contains_string("main"));
        assert!(!doc.contains_string("not-present-anywhere"));
        let vocab = doc.vocabulary();
        assert!(vocab.contains("Martin"));
        assert!(vocab.contains("name"));
    }

    #[test]
    fn counts_and_depth() {
        let doc = sample();
        let span = doc.elements_by_tag("span")[0];
        assert_eq!(doc.depth(doc.root()), 0);
        assert_eq!(doc.depth(span), 5);
        assert_eq!(doc.element_count(), 8); // root + 7 elements
        assert!(doc.len() > 8); // plus text nodes
        assert!(!doc.is_empty());
        assert!(Document::new().is_empty());
    }
}
