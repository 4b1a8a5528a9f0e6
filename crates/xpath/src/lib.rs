//! # wi-xpath — XPath engine for wrapper induction
//!
//! This crate implements the query language layer of the reproduction of
//! *Robust and Noise Resistant Wrapper Induction* (SIGMOD 2016):
//!
//! * an **AST** ([`Query`], [`Step`], [`Axis`], [`NodeTest`], [`Predicate`])
//!   covering the paper's dsXPath fragment (Figure 2) *plus* the extra
//!   constructs that the paper's hand-written ("human") wrappers use —
//!   the `following`/`preceding` axes and nested relative-path predicates,
//! * a **parser** for the textual syntax and a pretty-printer that
//!   round-trips it,
//! * an **evaluator** over [`wi_dom::Document`] trees with XPath 1.0
//!   semantics for axis direction, positional predicates and string
//!   functions, optionally recording the **anchor nodes** (intermediately
//!   selected nodes) that the paper uses to explain robustness,
//! * **canonical paths** (`/html[1]/body[1]/…/span[1]`) and the *c-change*
//!   measure defined in Section 2 of the paper,
//! * the **dsXPath well-formedness** checks: one-/two-directional queries
//!   with sideways checks, and the *plausibility* restriction on string and
//!   integer constants.
//!
//! ## Example
//!
//! ```
//! use wi_dom::parse_html;
//! use wi_xpath::{parse_query, evaluate};
//!
//! let doc = parse_html(r#"<html><body>
//!   <div>Director: <span itemprop="name">Martin Scorsese</span></div>
//! </body></html>"#).unwrap();
//!
//! let q = parse_query(
//!     r#"descendant::div[starts-with(.,"Director:")]/descendant::span[@itemprop="name"]"#,
//! ).unwrap();
//! let result = evaluate(&q, &doc, doc.root());
//! assert_eq!(result.len(), 1);
//! assert_eq!(doc.normalized_text(result[0]), "Martin Scorsese");
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
// The workspace contracts listed in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod ast;
pub mod canonical;
pub mod eval;
pub mod eval_reference;
pub mod fragment;
pub mod parser;
pub mod prefix;

pub use ast::{Axis, NodeTest, Predicate, Query, Step, StringFunction, TextSource};
pub use canonical::{c_changes, canonical_path, canonical_step};
pub use eval::{evaluate, evaluate_with, evaluate_with_anchors, EvalContext, EvalOutput};
pub use eval_reference::evaluate_reference;
pub use fragment::{is_ds_xpath, is_one_directional, is_plausible, Direction};
pub use parser::{parse_query, ParseError};
pub use prefix::{PrefixEvaluator, PrefixHandle, TrieStats};
