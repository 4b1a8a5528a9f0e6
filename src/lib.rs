//! # wrapper-induction
//!
//! A complete, from-scratch reproduction of
//! **"Robust and Noise Resistant Wrapper Induction"**
//! (Furche, Guo, Maneth, Schallhart — SIGMOD 2016) as a Rust workspace.
//!
//! This facade crate re-exports the public API of the individual crates so a
//! downstream user can depend on a single package:
//!
//! * [`dom`] — the arena DOM substrate (`wi-dom`),
//! * [`xpath`] — the dsXPath engine: AST, parser, evaluator, canonical paths
//!   (`wi-xpath`),
//! * [`scoring`] — the robustness scoring and ranking (`wi-scoring`),
//! * [`induction`] — the wrapper induction algorithms (`wi-induction`),
//! * [`webgen`] — the synthetic web substrate used by the evaluation
//!   (`wi-webgen`),
//! * [`baselines`] — canonical / devtools / tree-edit / WEIR comparators
//!   (`wi-baselines`),
//! * [`maintain`] — the wrapper lifecycle subsystem: verification, drift
//!   classification and automatic repair over archive timelines
//!   (`wi-maintain`),
//! * [`serve`] — the extraction-as-a-service daemon over the persistent
//!   registry (`wi-serve`; see the `wi-serve` binary),
//! * [`eval`] — the experiment harness reproducing the paper's tables and
//!   figures (`wi-eval`).
//!
//! ## Quick start
//!
//! ```
//! use wrapper_induction::prelude::*;
//!
//! // 1. Load (or build) a page.
//! let doc = parse_html(r#"<html><body>
//!     <div class="txt-block"><h4 class="inline">Director:</h4>
//!       <a href="/n"><span class="itemprop" itemprop="name">Martin Scorsese</span></a>
//!     </div>
//! </body></html>"#).unwrap();
//!
//! // 2. Annotate the node(s) to extract (here: the director's span).
//! let director = doc.descendants(doc.root())
//!     .find(|&n| doc.tag_name(n) == Some("span"))
//!     .unwrap();
//!
//! // 3. Induce a ranked list of robust dsXPath wrappers.
//! let inducer = WrapperInducer::default();
//! let wrapper = inducer.try_induce_best(&doc, &[director]).unwrap();
//!
//! // 4. Apply the wrapper (to this page, or to future versions of it)
//! //    through the workspace-wide `Extractor` interface.
//! assert_eq!(wrapper.extract(&doc, doc.root()).unwrap(), vec![director]);
//!
//! // 5. Persist it as a versioned JSON artifact and reload it later.
//! let bundle = WrapperBundle::from_wrapper(&wrapper, Default::default());
//! let reloaded = WrapperBundle::from_json_str(&bundle.to_json_string()).unwrap();
//! assert_eq!(reloaded.extract(&doc, doc.root()).unwrap(), vec![director]);
//! ```
//!
//! ## The extraction-service surface
//!
//! * [`prelude::Extractor`] — one interface over induced wrappers,
//!   ensembles, raw queries, bundles and all four baseline inducers, with a
//!   parallel [`extract_batch`](prelude::Extractor::extract_batch) for
//!   archive-scale workloads,
//! * [`prelude::WrapperBundle`] — induced wrappers as storable, versioned
//!   JSON artifacts (`save_json` / `load_json`),
//! * typed errors ([`prelude::InduceError`], [`prelude::ExtractError`],
//!   [`induction::BundleError`]) instead of `Option`s and panics.

#![deny(missing_docs)]
// The workspace contracts listed in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

/// Baseline inducers (`wi-baselines`).
pub use wi_baselines as baselines;
/// The DOM substrate (`wi-dom`).
pub use wi_dom as dom;
/// The experiment harness (`wi-eval`).
pub use wi_eval as eval;
/// The wrapper induction algorithms (`wi-induction`).
pub use wi_induction as induction;
/// The wrapper lifecycle subsystem: verification, drift classification and
/// repair over archive timelines (`wi-maintain`).
pub use wi_maintain as maintain;
/// The observability layer: tracing, metrics and the slow log (`wi-obs`).
pub use wi_obs as obs;
/// Robustness scoring and ranking (`wi-scoring`).
pub use wi_scoring as scoring;
/// The extraction-as-a-service daemon (`wi-serve`).
pub use wi_serve as serve;
/// The synthetic web substrate (`wi-webgen`).
pub use wi_webgen as webgen;
/// The XPath engine (`wi-xpath`).
pub use wi_xpath as xpath;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use wi_dom::{parse_html, to_html, Document, NodeId};
    pub use wi_induction::{
        BundleError, ExtractError, Extractor, InduceError, InductionConfig, Sample, Wrapper,
        WrapperBundle, WrapperEnsemble, WrapperInducer,
    };
    pub use wi_maintain::{
        DriftClass, DriftClassifier, LastKnownGood, Maintainer, MaintenanceJob, PageVersion,
        Registry, Repairer, Verifier,
    };
    pub use wi_scoring::{QueryInstance, ScoringParams};
    pub use wi_xpath::{evaluate, parse_query, Query};
}
