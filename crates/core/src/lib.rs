//! # wi-induction — robust and noise resistant wrapper induction
//!
//! This crate is the reproduction of the core contribution of
//! *Robust and Noise Resistant Wrapper Induction* (Furche, Guo, Maneth,
//! Schallhart — SIGMOD 2016): inducing dsXPath wrapper expressions from
//! (possibly noisy) annotated samples, ranked by accuracy (F0.5) and a
//! compositional robustness score.
//!
//! The module layout follows the paper's Section 5:
//!
//! | paper | module |
//! |---|---|
//! | `nodePattern(u)` | [`node_pattern`] |
//! | `stepPattern(n, t, axis, K)` (Algorithm 1) | [`step_pattern`] |
//! | best-K tables | [`best_k`] |
//! | `inducePath(u, V, K, axis, best, tar)` (Algorithm 2) | [`induce_path`](mod@induce_path) |
//! | `induce(S, K)` (Algorithm 3) | [`induce`](mod@induce) |
//! | Theorem 1 (NP-hardness gadget) | [`complexity`] |
//!
//! Beyond the paper's core algorithm, [`ensemble`] implements the conclusion's
//! future work (4): inducing several wrappers that select the target through
//! independent means and extracting by majority vote.
//!
//! The easiest entry point is [`WrapperInducer`]:
//!
//! ```
//! use wi_dom::parse_html;
//! use wi_induction::WrapperInducer;
//!
//! let doc = parse_html(r#"<html><body>
//!   <div class="txt-block"><h4>Director:</h4>
//!     <a href="/n1"><span class="itemprop" itemprop="name">Martin Scorsese</span></a>
//!   </div>
//!   <div class="txt-block"><h4>Stars:</h4>
//!     <a href="/n2"><span class="itemprop" itemprop="name">Robert De Niro</span></a>
//!   </div>
//! </body></html>"#).unwrap();
//!
//! // Annotate the director span and induce a wrapper for it.
//! let director = doc
//!     .descendants(doc.root())
//!     .find(|&n| doc.normalized_text(n) == "Martin Scorsese" && doc.tag_name(n) == Some("span"))
//!     .unwrap();
//!
//! let inducer = WrapperInducer::default();
//! let wrappers = inducer.induce_single(&doc, &[director]);
//! assert!(!wrappers.is_empty());
//! // The top-ranked wrapper selects exactly the annotated node again.
//! let top = &wrappers[0];
//! assert_eq!(wi_xpath::evaluate(&top.query, &doc, doc.root()), vec![director]);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
// The workspace contracts listed in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod api;
pub mod best_k;
pub mod bundle;
pub mod complexity;
pub mod config;
pub mod ensemble;
pub mod error;
pub mod extract;
pub mod induce;
pub mod induce_path;
pub mod json;
pub mod node_pattern;
pub mod reference;
pub mod sample;
pub mod spine;
pub mod step_pattern;
pub(crate) mod telemetry;

pub use api::{Wrapper, WrapperInducer};
pub use best_k::BestK;
pub use bundle::{BundleEntry, WrapperBundle, BUNDLE_FORMAT_VERSION};
pub use config::InductionConfig;
pub use ensemble::{QueryFeatures, WrapperEnsemble};
pub use error::{BundleError, ExtractError, InduceError};
pub use extract::Extractor;
pub use induce::induce;
pub use induce_path::{induce_path, induce_path_with};
pub use node_pattern::node_patterns;
pub use reference::induce_reference;
pub use sample::{harvest_targets_by_text, Sample};
pub use step_pattern::{step_patterns, step_patterns_with};
