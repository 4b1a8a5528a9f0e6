//! Document construction APIs.
//!
//! Two styles are provided:
//!
//! * [`TreeSpec`] — a declarative, nested specification built with the [`el`]
//!   and [`text`] helpers; handy in tests and in the synthetic page templates
//!   of `wi-webgen`.
//! * [`DocumentBuilder`] — an imperative open/close builder used by the HTML
//!   parser and by code that generates documents on the fly.

use crate::document::Document;
use crate::error::{DomError, Result};
use crate::intern::Sym;
use crate::node::{Attribute, NodeData, NodeId};

/// Declarative specification of a subtree: either an element with attributes
/// and children, or a text node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeSpec {
    /// An element with a tag name, attributes and child specifications.
    Element {
        /// Tag name.
        tag: String,
        /// Attributes in order.
        attributes: Vec<Attribute>,
        /// Child subtrees in order.
        children: Vec<TreeSpec>,
    },
    /// A text node.
    Text(
        /// Character data.
        String,
    ),
}

/// Creates an element specification with the given tag name.
pub fn el(tag: impl Into<String>) -> TreeSpec {
    TreeSpec::Element {
        tag: tag.into(),
        attributes: Vec::new(),
        children: Vec::new(),
    }
}

/// Creates a text node specification.
pub fn text(content: impl Into<String>) -> TreeSpec {
    TreeSpec::Text(content.into())
}

impl TreeSpec {
    /// Adds an attribute (builder style); panics on text nodes.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        match &mut self {
            TreeSpec::Element { attributes, .. } => {
                attributes.push(Attribute::new(name, value));
            }
            TreeSpec::Text(_) => panic!("cannot set an attribute on a text node"),
        }
        self
    }

    /// Adds a child subtree (builder style); panics on text nodes.
    pub fn child(mut self, child: TreeSpec) -> Self {
        match &mut self {
            TreeSpec::Element { children, .. } => children.push(child),
            TreeSpec::Text(_) => panic!("cannot add a child to a text node"),
        }
        self
    }

    /// Adds several children at once (builder style).
    pub fn children(mut self, new_children: impl IntoIterator<Item = TreeSpec>) -> Self {
        match &mut self {
            TreeSpec::Element { children, .. } => children.extend(new_children),
            TreeSpec::Text(_) => panic!("cannot add children to a text node"),
        }
        self
    }

    /// Shorthand for adding a single text child.
    pub fn text_child(self, content: impl Into<String>) -> Self {
        self.child(text(content))
    }

    /// Returns the tag name for element specs.
    pub fn tag(&self) -> Option<&str> {
        match self {
            TreeSpec::Element { tag, .. } => Some(tag),
            TreeSpec::Text(_) => None,
        }
    }

    /// Number of nodes in this specification (elements and text nodes).
    pub fn node_count(&self) -> usize {
        match self {
            TreeSpec::Element { children, .. } => {
                1 + children.iter().map(TreeSpec::node_count).sum::<usize>()
            }
            TreeSpec::Text(_) => 1,
        }
    }

    /// Materialises the specification as a [`Document`], with this spec as the
    /// single child of the synthetic document root.
    pub fn into_document(self) -> Document {
        let mut doc = Document::new();
        let root = doc.root();
        build_into(&mut doc, root, &self);
        doc
    }

    /// Materialises the specification under an existing parent node of `doc`.
    ///
    /// Returns the id of the created top node of the subtree.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a live node of `doc`.
    pub fn build_under(&self, doc: &mut Document, parent: NodeId) -> NodeId {
        assert!(
            doc.contains(parent),
            "build_under: {parent} is not a live node"
        );
        build_into(doc, parent, self)
    }
}

fn build_into(doc: &mut Document, parent: NodeId, spec: &TreeSpec) -> NodeId {
    match spec {
        TreeSpec::Element {
            tag,
            attributes,
            children,
        } => {
            let data = NodeData::Element {
                tag: tag.clone(),
                attributes: attributes.clone(),
            };
            let id = doc.append_new(parent, data);
            for c in children {
                build_into(doc, id, c);
            }
            id
        }
        TreeSpec::Text(t) => doc.append_new(parent, NodeData::Text(t.clone())),
    }
}

/// Imperative document builder with an explicit open/close element stack.
///
/// Every node goes straight into the arena as the last child of the current
/// element, so building is linear in the number of nodes.  The stack keeps
/// each open element's interned tag, and a per-tag count of open elements
/// makes [`has_open`](Self::has_open) O(1); [`close_until`](Self::close_until)
/// returns at once for a tag with no open element and otherwise scans only
/// the elements it closes.
///
/// ```
/// use wi_dom::DocumentBuilder;
///
/// let mut b = DocumentBuilder::new();
/// b.open_element("html", &[]);
/// b.open_element("body", &[("class", "page")]);
/// b.text("hello");
/// b.close_element().unwrap();
/// b.close_element().unwrap();
/// let doc = b.finish().unwrap();
/// assert_eq!(doc.elements_by_tag("body").len(), 1);
/// ```
#[derive(Debug)]
pub struct DocumentBuilder {
    doc: Document,
    /// Open elements with their tag symbols, innermost last; the document
    /// root sits at the bottom, is never popped and matches no tag.
    stack: Vec<(NodeId, Sym)>,
    /// Number of open elements per tag, indexed by [`Sym::index`] (the root
    /// not counted).
    open: Vec<u32>,
}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentBuilder {
    /// Creates a builder positioned at the document root.
    pub fn new() -> Self {
        Self::from_document(Document::new())
    }

    /// [`new`](Self::new) with arena room for `nodes` nodes reserved.
    pub(crate) fn with_capacity(nodes: usize) -> Self {
        Self::from_document(Document::with_capacity(nodes))
    }

    fn from_document(doc: Document) -> Self {
        DocumentBuilder {
            stack: vec![(doc.root(), Sym::UNSET)],
            doc,
            open: Vec::new(),
        }
    }

    /// The node new children are currently appended to.
    pub fn current(&self) -> NodeId {
        self.stack.last().expect("stack always holds the root").0
    }

    /// Current depth of open elements (0 = at document root).
    pub fn depth(&self) -> usize {
        self.stack.len() - 1
    }

    /// Opens a new element as child of the current node and descends into it.
    pub fn open_element(&mut self, tag: &str, attributes: &[(&str, &str)]) -> NodeId {
        self.open_element_with(tag, owned_attributes(attributes))
    }

    /// Opens an element with already-constructed attributes.
    pub fn open_element_with(&mut self, tag: &str, attributes: Vec<Attribute>) -> NodeId {
        let id = self.void_element_with(tag, attributes);
        let sym = self.doc.tag_sym(id).expect("elements carry a tag symbol");
        if self.open.len() <= sym.index() {
            self.open.resize(sym.index() + 1, 0);
        }
        self.open[sym.index()] += 1;
        self.stack.push((id, sym));
        id
    }

    /// Appends a self-contained (void) element without descending into it.
    pub fn void_element(&mut self, tag: &str, attributes: &[(&str, &str)]) -> NodeId {
        self.void_element_with(tag, owned_attributes(attributes))
    }

    /// [`void_element`](Self::void_element) with already-constructed
    /// attributes.
    pub(crate) fn void_element_with(&mut self, tag: &str, attributes: Vec<Attribute>) -> NodeId {
        let data = NodeData::Element {
            tag: tag.to_string(),
            attributes,
        };
        self.doc.append_new(self.current(), data)
    }

    /// Appends a text node to the current element.
    pub fn text(&mut self, content: &str) -> NodeId {
        self.text_owned(content.to_string())
    }

    /// [`text`](Self::text) for content the caller already owns.
    pub(crate) fn text_owned(&mut self, content: String) -> NodeId {
        self.doc.append_new(self.current(), NodeData::Text(content))
    }

    /// Closes the most recently opened element.
    pub fn close_element(&mut self) -> Result<()> {
        if self.stack.len() <= 1 {
            return Err(DomError::BuilderUnderflow);
        }
        self.pop_to(self.stack.len() - 1);
        Ok(())
    }

    /// Closes open elements until (and including) the first one with the given
    /// tag name; returns `false` if no such element is open.
    pub fn close_until(&mut self, tag: &str) -> bool {
        let Some(sym) = self.open_sym(tag) else {
            return false;
        };
        let pos = self
            .stack
            .iter()
            .rposition(|&(_, s)| s == sym)
            .expect("an open count implies a stack entry");
        self.pop_to(pos);
        true
    }

    /// Returns `true` if an element with the given tag is currently open.
    pub fn has_open(&self, tag: &str) -> bool {
        self.open_sym(tag).is_some()
    }

    /// The symbol of `tag` if at least one element with that tag is open.
    fn open_sym(&self, tag: &str) -> Option<Sym> {
        let sym = self.doc.sym(tag)?;
        (self.open.get(sym.index()).copied().unwrap_or(0) > 0).then_some(sym)
    }

    /// Pops the stack down to `len` entries (`len >= 1`: the root stays).
    fn pop_to(&mut self, len: usize) {
        for (_, sym) in self.stack.drain(len..) {
            self.open[sym.index()] -= 1;
        }
    }

    /// Finishes the build, requiring all elements to be closed.
    pub fn finish(self) -> Result<Document> {
        if self.stack.len() != 1 {
            return Err(DomError::BuilderUnclosed(self.stack.len() - 1));
        }
        Ok(self.doc)
    }

    /// Finishes the build, implicitly closing any elements left open (the
    /// behaviour of a tolerant HTML parser at end of input).
    pub fn finish_lenient(self) -> Document {
        self.doc
    }
}

fn owned_attributes(attributes: &[(&str, &str)]) -> Vec<Attribute> {
    attributes
        .iter()
        .map(|(n, v)| Attribute::new(*n, *v))
        .collect()
}

/// Builds an `<html><head/><body>…</body></html>` page around body children.
///
/// Convenience used heavily by the synthetic site templates.
pub fn page(title: &str, body_children: Vec<TreeSpec>) -> Document {
    el("html")
        .child(el("head").child(el("title").child(text(title))))
        .child(el("body").children(body_children))
        .into_document()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn treespec_builds_expected_tree() {
        let doc = el("div")
            .attr("id", "a")
            .child(el("span").text_child("x"))
            .child(text("tail"))
            .into_document();
        let div = doc.elements_by_tag("div")[0];
        assert_eq!(doc.attribute(div, "id"), Some("a"));
        assert_eq!(doc.children(div).count(), 2);
        assert_eq!(doc.text_value(div), "xtail");
    }

    #[test]
    fn treespec_node_count() {
        let spec = el("a").child(el("b").text_child("t")).child(el("c"));
        assert_eq!(spec.node_count(), 4);
        assert_eq!(spec.tag(), Some("a"));
        assert_eq!(text("x").node_count(), 1);
    }

    #[test]
    #[should_panic(expected = "attribute on a text node")]
    fn attr_on_text_panics() {
        let _ = text("x").attr("id", "y");
    }

    #[test]
    fn builder_nesting_and_finish() {
        let mut b = DocumentBuilder::new();
        b.open_element("html", &[]);
        b.open_element("body", &[]);
        assert_eq!(b.depth(), 2);
        b.void_element("img", &[("src", "a.png")]);
        b.text("hi");
        b.close_element().unwrap();
        b.close_element().unwrap();
        let doc = b.finish().unwrap();
        assert_eq!(doc.elements_by_tag("img").len(), 1);
        let body = doc.elements_by_tag("body")[0];
        assert_eq!(doc.normalized_text(body), "hi");
    }

    #[test]
    fn builder_underflow_and_unclosed() {
        let mut b = DocumentBuilder::new();
        assert_eq!(b.close_element(), Err(DomError::BuilderUnderflow));
        b.open_element("div", &[]);
        let err = b.finish().unwrap_err();
        assert_eq!(err, DomError::BuilderUnclosed(1));
    }

    #[test]
    fn builder_finish_lenient_closes_open_elements() {
        let mut b = DocumentBuilder::new();
        b.open_element("html", &[]);
        b.open_element("body", &[]);
        b.open_element("div", &[]);
        let doc = b.finish_lenient();
        assert_eq!(doc.elements_by_tag("div").len(), 1);
    }

    #[test]
    fn builder_close_until() {
        let mut b = DocumentBuilder::new();
        b.open_element("html", &[]);
        b.open_element("body", &[]);
        b.open_element("ul", &[]);
        b.open_element("li", &[]);
        assert!(b.has_open("ul"));
        assert!(b.close_until("ul"));
        assert_eq!(b.depth(), 2);
        assert!(!b.close_until("table"));
    }

    #[test]
    fn page_helper() {
        let doc = page("Hello", vec![el("div").text_child("content")]);
        assert_eq!(doc.elements_by_tag("title").len(), 1);
        let title = doc.elements_by_tag("title")[0];
        assert_eq!(doc.normalized_text(title), "Hello");
        assert_eq!(doc.elements_by_tag("body").len(), 1);
    }

    #[test]
    fn build_under_existing_document() {
        let mut doc = el("html").child(el("body")).into_document();
        let body = doc.elements_by_tag("body")[0];
        let added = el("div").attr("class", "late").build_under(&mut doc, body);
        assert_eq!(doc.parent(added), Some(body));
        assert_eq!(doc.elements_by_class("late").len(), 1);
    }
}
