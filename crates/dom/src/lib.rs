//! # wi-dom — DOM tree substrate for wrapper induction
//!
//! This crate provides the document model on which every other crate of the
//! workspace operates.  It is a deliberately small, self-contained re-creation
//! of the parts of the HTML/XML data model that the SIGMOD 2016 paper
//! *Robust and Noise Resistant Wrapper Induction* relies on:
//!
//! * an **arena-based tree** of element and text nodes with attributes
//!   ([`Document`], [`NodeId`]), **immutable once built**: the parser, the
//!   [`DocumentBuilder`] and [`TreeSpec`] append every node in document
//!   order, so a node's id is its pre-order rank (see [`order`]); a new
//!   page version is a new document,
//! * O(1) structural navigation (parent, first/last child, previous/next
//!   sibling) and iterator-based **axes** (ancestors, descendants, siblings,
//!   following/preceding) used by the XPath evaluator,
//! * lazily built **subtree-size and depth** numbering ([`order`]) that,
//!   with ids in document order, makes document-order comparison, ancestor
//!   tests and the `following`/`preceding` axes id arithmetic after one
//!   O(n) build,
//! * a per-document **string interner** ([`intern`]) — tag names, attribute
//!   names and attribute values resolve to dense [`Sym`] handles so the
//!   query evaluator's inner loops are integer compares (see the [`intern`]
//!   module docs for the ownership contract),
//! * the `text-value` / `normalize-space` semantics of XPath 1.0, with
//!   `normalize-space` of any node an O(1) borrowed slice of the **text
//!   index** ([`text`](mod@text)),
//! * **structural subtree equality and hashing** (node-id free), which is the
//!   basis of the paper's robustness definition ("there exists a bijection π
//!   between q(D) and q(D') with D/v = D'/π(v)"),
//! * a tolerant **HTML parser** and a **serializer** so documents can round
//!   trip through markup.
//!
//! A [`Document`] carries five lazily built indexes, each behind a
//! `OnceLock`, built by one pass over the arena on first use and freed with
//! the document: [`OrderIndex`] (subtree sizes and depths), [`TagIndex`]
//! (tag → elements), [`HashIndex`] (structural subtree hashes),
//! [`AttrIndex`] (attribute censuses) and [`TextIndex`] (collapsed text
//! plus per-node offsets; one copy of the page's text plus 4 B per node).
//!
//! The crate has no dependency on the rest of the workspace and can be used on
//! its own as a tiny DOM library.
//!
//! ## Example
//!
//! ```
//! use wi_dom::parse_html;
//!
//! let doc = parse_html(r#"<html><body>
//!     <div id="main"><span class="name">Martin Scorsese</span></div>
//! </body></html>"#).unwrap();
//!
//! let span = doc
//!     .descendants(doc.root())
//!     .find(|&n| doc.tag_name(n) == Some("span"))
//!     .unwrap();
//! assert_eq!(doc.attribute(span, "class"), Some("name"));
//! assert_eq!(doc.normalized_text(span), "Martin Scorsese");
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
// The workspace contracts listed in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod attrs;
pub mod builder;
pub mod document;
pub mod error;
pub mod fx;
pub mod hash;
pub mod intern;
pub mod iter;
pub mod node;
pub mod order;
pub mod parser;
pub mod serializer;
pub mod text;

pub use attrs::AttrIndex;
pub use builder::{el, text, DocumentBuilder, TreeSpec};
pub use document::Document;
pub use error::DomError;
pub use fx::{FxHasher, FxMap, FxSet};
pub use hash::{structural_hash, subtree_equal, HashIndex};
pub use intern::{Interner, Sym};
pub use node::{Attribute, NodeData, NodeId, NodeKind};
pub use order::{OrderIndex, TagIndex};
pub use parser::{parse_html, parse_html_with, ParseOptions};
pub use serializer::{to_html, SerializeOptions};
pub use text::TextIndex;
