//! The arena-based [`Document`] type and its navigation API.

use crate::attrs::AttrIndex;
use crate::error::{DomError, Result};
use crate::hash::HashIndex;
use crate::intern::{Interner, Sym};
use crate::iter::{
    Ancestors, Children, Descendants, DescendantsOrSelf, FollowingSiblings, PrecedingSiblings,
};
use crate::node::{Attribute, Node, NodeData, NodeId, NodeKind};
use crate::order::{OrderIndex, TagIndex};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// An HTML/XML document: a tree of element and text nodes stored in an arena.
///
/// The root of every document is a synthetic *document root* element with the
/// reserved tag name `#document`.  It mirrors XPath's root node `/`: it is the
/// parent of the top-level element(s) and is the context node wrappers are
/// evaluated from.
///
/// Node ids remain stable across mutations; removed nodes are only detached,
/// never reused.
///
/// Ordered queries (`document_order`, `is_ancestor_of`, `sort_document_order`,
/// the `following`/`preceding` axes and the tag lookups) are served by lazily
/// built indexes; see [`crate::order`] for the invalidation contract.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Document {
    pub(crate) nodes: Vec<Node>,
    root: NodeId,
    /// Bumped by every mutation; cached indexes are valid only while their
    /// recorded epoch equals this counter.
    epoch: u64,
    /// Per-document string interner for tag names, attribute names and
    /// attribute values.  Append-only — never invalidated; see
    /// [`crate::intern`] for the ownership contract.
    interner: Interner,
    /// Lazily built pre/post-order numbering (see [`crate::order`]).
    order: OnceLock<OrderIndex>,
    /// Lazily built tag-name → elements lookup (see [`crate::order`]).
    tags: OnceLock<TagIndex>,
    /// Lazily built per-subtree structural hashes (see [`crate::hash`]).
    hashes: OnceLock<HashIndex>,
    /// Lazily built attribute censuses (see [`crate::attrs`]).
    attrs: OnceLock<AttrIndex>,
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
            epoch: 0,
            interner,
            order: OnceLock::new(),
            tags: OnceLock::new(),
            hashes: OnceLock::new(),
            attrs: OnceLock::new(),
        }
    }

    // ------------------------------------------------------------------
    // Order / tag indexes (see the `order` module for the contract).
    // ------------------------------------------------------------------

    /// The document's mutation epoch.  Every mutating operation increments
    /// it; a cached [`OrderIndex`]/[`TagIndex`] is valid iff its recorded
    /// epoch equals this value.
    pub fn order_epoch(&self) -> u64 {
        self.epoch
    }

    /// The document-order index, built on first use after a mutation.
    pub fn order_index(&self) -> &OrderIndex {
        self.order
            .get_or_init(|| OrderIndex::build(self, self.epoch))
    }

    /// The tag-name index, built on first use after a mutation.
    pub fn tag_index(&self) -> &TagIndex {
        self.tags
            .get_or_init(|| TagIndex::build(self, self.order_index()))
    }

    /// The structural-hash index, built on first use after a mutation.
    pub fn hash_index(&self) -> &HashIndex {
        self.hashes
            .get_or_init(|| HashIndex::build(self, self.order_index(), self.epoch))
    }

    /// The structural hash of the subtree rooted at `id` — O(1) via the hash
    /// index for nodes in the tree; detached nodes hash recursively.  Same
    /// value as [`crate::structural_hash`].
    pub fn subtree_hash(&self, id: NodeId) -> u64 {
        match self.order_index().position(id) {
            Some(pos) => self.hash_index().hash_at(pos as usize),
            None => crate::hash::hash_detached(self, id),
        }
    }

    /// The structural hash of the whole document (the root's subtree hash).
    /// This is the content identity the maintenance layer's incremental
    /// caches key on.
    pub fn content_hash(&self) -> u64 {
        self.subtree_hash(self.root)
    }

    /// The attribute-census index, built on first use after a mutation.
    pub fn attr_index(&self) -> &AttrIndex {
        self.attrs
            .get_or_init(|| AttrIndex::build(self, self.order_index()))
    }

    /// Number of in-tree nodes whose visible attribute `name` equals
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

    /// Drops the cached indexes and bumps the epoch.  Called by every
    /// mutation primitive; call it from any new mutation operation that does
    /// not go through the existing ones.
    pub(crate) fn invalidate_indexes(&mut self) {
        self.epoch += 1;
        self.order.take();
        self.tags.take();
        self.hashes.take();
        self.attrs.take();
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

    /// Number of live (non-detached) nodes, including the synthetic root.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| !n.detached).count()
    }

    /// Returns `true` if the document contains only the synthetic root.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Total number of arena slots ever allocated (live + detached).
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if `id` refers to a live node of this document.
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes
            .get(id.index())
            .map(|n| !n.detached)
            .unwrap_or(false)
    }

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Checks that `id` is a valid, live node of this document.
    pub fn check(&self, id: NodeId) -> Result<()> {
        if self.contains(id) {
            Ok(())
        } else {
            Err(DomError::InvalidNodeId(id.0))
        }
    }

    // ------------------------------------------------------------------
    // Node creation (used by builder, parser, and mutation).
    // ------------------------------------------------------------------

    pub(crate) fn alloc(&mut self, data: NodeData) -> NodeId {
        // Growing the arena does not reorder live nodes, but the index arrays
        // are sized to the arena, so allocation participates in the same
        // epoch contract as the structural mutations.
        self.invalidate_indexes();
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(data));
        // Admission re-interns the payload from its strings, so imported
        // subtrees can never smuggle a foreign document's symbols in.
        self.sync_syms(id);
        id
    }

    /// Allocates a node and links it as the last child of `parent` in one
    /// step: the builders' and the parser's append primitive.
    ///
    /// Equivalent to [`alloc`](Self::alloc) followed by
    /// [`append_child`](Self::append_child), minus what a fresh node makes
    /// unnecessary: it cannot be an ancestor of `parent`, so there is no
    /// cycle walk (which costs the depth of `parent`, quadratic over a
    /// deeply nested page), and the indexes are invalidated once, not
    /// twice.
    /// `parent` must be a node of this document.
    pub(crate) fn append_new(&mut self, parent: NodeId, data: NodeData) -> NodeId {
        self.invalidate_indexes();
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

    /// Re-derives the interned symbols of a node from its string payload.
    ///
    /// Called by [`alloc`](Self::alloc), [`append_new`](Self::append_new)
    /// and by every payload-mutating operation (`rename_element`,
    /// `set_attribute`, `remove_attribute`); any new operation that rewrites
    /// `NodeData` strings must call it too, or symbol-based lookups will
    /// silently miss the node.
    pub(crate) fn sync_syms(&mut self, id: NodeId) {
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

    /// Creates a new, detached element node owned by this document.
    pub fn create_element(&mut self, tag: impl Into<String>, attributes: Vec<Attribute>) -> NodeId {
        self.alloc(NodeData::Element {
            tag: tag.into(),
            attributes,
        })
    }

    /// Creates a new, detached text node owned by this document.
    pub fn create_text(&mut self, text: impl Into<String>) -> NodeId {
        self.alloc(NodeData::Text(text.into()))
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

    /// The document's string interner (read access; interning happens through
    /// the arena allocator and the mutation primitives).
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
    /// of `id` (the XPath `following` axis), returned in document order.
    ///
    /// With the order index this is a contiguous range scan: everything
    /// pre-numbered after `id`'s subtree follows `id`.
    pub fn following(&self, id: NodeId) -> Vec<NodeId> {
        let index = self.order_index();
        match index.subtree_range(id) {
            Some(range) => index.nodes_in_order()[range.end..].to_vec(),
            None => {
                // Detached node: fall back to the structural walk.  Sort
                // structurally too — inside a detached subtree, raw id order
                // need not coincide with document order.
                let mut out = Vec::new();
                for anc in self.ancestors_or_self(id) {
                    for sib in self.following_siblings(anc) {
                        out.extend(self.descendants_or_self(sib));
                    }
                }
                out.sort_by(|&a, &b| self.document_order_unindexed(a, b));
                out
            }
        }
    }

    /// Nodes strictly before `id` in document order that are not ancestors of
    /// `id` (the XPath `preceding` axis), returned in document order.
    ///
    /// With the order index this scans the pre-order prefix before `id` and
    /// drops ancestors with an O(1) post-number test per candidate.
    pub fn preceding(&self, id: NodeId) -> Vec<NodeId> {
        let index = self.order_index();
        match (index.subtree_range(id), index.post(id)) {
            (Some(range), Some(post)) => index.nodes_in_order()[..range.start]
                .iter()
                .copied()
                // Ancestors are the prefix nodes whose interval contains
                // `id`, i.e. those with a larger post number.
                .filter(|&n| index.post(n).is_some_and(|p| p < post))
                .collect(),
            _ => {
                let mut out = Vec::new();
                for anc in self.ancestors_or_self(id) {
                    for sib in self.preceding_siblings(anc) {
                        out.extend(self.descendants_or_self(sib));
                    }
                }
                out.sort_by(|&a, &b| self.document_order_unindexed(a, b));
                out
            }
        }
    }

    /// Returns `true` if `ancestor` is a proper ancestor of `node`.
    ///
    /// O(1) via the order index once built; nodes outside the tree (freshly
    /// created or detached) fall back to walking the parent chain.
    pub fn is_ancestor_of(&self, ancestor: NodeId, node: NodeId) -> bool {
        match self.order_index().is_ancestor_of(ancestor, node) {
            Some(answer) => answer,
            None => self.is_ancestor_walking(ancestor, node),
        }
    }

    /// Ancestor test by walking the parent chain, without touching (or
    /// building) the order index.  Mutation primitives use this for their
    /// cycle checks so that a burst of edits never pays an index rebuild per
    /// edit.
    pub(crate) fn is_ancestor_walking(&self, ancestor: NodeId, node: NodeId) -> bool {
        self.ancestors(node).any(|a| a == ancestor)
    }

    /// Depth of a node: the root has depth 0.  O(1) via the order index for
    /// nodes in the tree.
    pub fn depth(&self, id: NodeId) -> usize {
        match self.order_index().depth(id) {
            Some(d) => d as usize,
            None => self.ancestors(id).count(),
        }
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
    /// O(1) via the order index for nodes in the tree.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        match self.order_index().subtree_size(id) {
            Some(s) => s as usize,
            None => self.descendants_or_self(id).count(),
        }
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

    /// Compares two nodes by document order (pre-order of the tree).
    ///
    /// O(1) per comparison via the order index: one array lookup per node.
    /// Nodes outside the tree (detached) sort after all tree nodes; two
    /// detached nodes are compared structurally (their order within the
    /// detached subtree), as the pre-index comparator did.
    pub fn document_order(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        let index = self.order_index();
        match (index.position(a), index.position(b)) {
            (Some(pa), Some(pb)) => pa.cmp(&pb),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => self.document_order_unindexed(a, b),
        }
    }

    /// The pre-index comparator: compares two nodes by rebuilding both root
    /// paths (two allocations, O(depth) time per comparison).
    ///
    /// Kept as the reference implementation for the order-index property
    /// tests and the `order_index` benchmark; production code should use
    /// [`document_order`](Self::document_order).
    pub fn document_order_unindexed(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        let path_a = self.path_from_root(a);
        let path_b = self.path_from_root(b);
        path_a.cmp(&path_b)
    }

    /// Sorts and deduplicates a vector of nodes into document order.
    ///
    /// When every node is in the tree (the overwhelmingly common case) the
    /// order index is fetched once and each comparison is one array lookup —
    /// no allocation inside the sort.  A set containing detached nodes falls
    /// back to the structural comparator so their relative order stays
    /// correct.
    pub fn sort_document_order(&self, nodes: &mut Vec<NodeId>) {
        if nodes.len() <= 1 {
            return;
        }
        let index = self.order_index();
        if nodes.iter().all(|&n| index.position(n).is_some()) {
            nodes.sort_unstable_by_key(|&n| index.position(n).unwrap_or(u32::MAX));
        } else {
            nodes.sort_by(|&a, &b| self.document_order(a, b));
        }
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
    pub fn normalized_text(&self, id: NodeId) -> String {
        normalize_space(&self.text_value(id))
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

    /// All live element nodes with the given tag name, in document order.
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
    /// searches over the tag's pre-ordered node list select exactly the
    /// subtree range, skipping non-matching subtrees entirely.  Returns
    /// `None` when `context` is not in the tree (detached), in which case
    /// callers should walk [`descendants`](Self::descendants).
    pub fn descendants_by_tag_slice(&self, context: NodeId, tag: &str) -> Option<&[NodeId]> {
        let index = self.order_index();
        let range = index.subtree_range(context)?;
        // An unknown needle matches nothing — the interner miss is the
        // instant answer (the subtree range was still needed to tell a
        // detached context apart).
        let list = match self.sym(tag) {
            Some(sym) => self.tag_index().nodes_sym(sym),
            None => return Some(&[]),
        };
        // Every indexed tag node has a position; compare by pre number.
        let pos = |n: NodeId| index.position(n).unwrap_or(u32::MAX) as usize;
        let lo = list.partition_point(|&n| pos(n) <= range.start);
        let hi = list.partition_point(|&n| pos(n) < range.end);
        Some(&list[lo..hi])
    }

    /// The elements with the given tag inside the subtree of `context`
    /// (excluding `context` itself), in document order.  Works for detached
    /// contexts too, via a subtree walk.
    pub fn descendants_by_tag(&self, context: NodeId, tag: &str) -> Vec<NodeId> {
        match self.descendants_by_tag_slice(context, tag) {
            Some(slice) => slice.to_vec(),
            None => self
                .descendants(context)
                .filter(|&n| self.tag_name(n) == Some(tag))
                .collect(),
        }
    }

    /// First element with a matching `id` attribute, if any.
    pub fn element_by_id(&self, id_value: &str) -> Option<NodeId> {
        self.descendants(self.root)
            .find(|&n| self.attribute(n, "id") == Some(id_value))
    }

    /// All live element nodes whose `class` attribute contains the given
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
        let following = doc.following(h4);
        // The a, span, their text, the second div and its text follow h4.
        assert!(following.contains(&doc.elements_by_tag("a")[0]));
        assert!(following.contains(&doc.elements_by_tag("span")[0]));
        assert!(following.contains(&doc.elements_by_class("other")[0]));
        assert!(!following.contains(&doc.elements_by_tag("body")[0]));

        let other = doc.elements_by_class("other")[0];
        let preceding = doc.preceding(other);
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
    fn detached_subtree_order_is_structural_not_id_based() {
        // Inside a detached subtree, children attached in reverse allocation
        // order must still compare structurally (the (None, None) fallback),
        // not by raw node id.
        let mut doc = sample();
        let d = doc.create_element("div", vec![]);
        let first_alloc = doc.create_element("span", vec![]);
        let second_alloc = doc.create_element("span", vec![]);
        doc.append_child(d, second_alloc).unwrap();
        doc.append_child(d, first_alloc).unwrap();
        assert!(second_alloc > first_alloc);

        assert_eq!(
            doc.document_order(second_alloc, first_alloc),
            std::cmp::Ordering::Less
        );
        let mut v = vec![first_alloc, second_alloc];
        doc.sort_document_order(&mut v);
        assert_eq!(v, vec![second_alloc, first_alloc]);
        // The walking fallbacks of following/preceding sort structurally too.
        assert_eq!(doc.following(second_alloc), vec![first_alloc]);
        assert_eq!(doc.preceding(first_alloc), vec![second_alloc]);
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
