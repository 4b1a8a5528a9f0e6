//! # wi-baselines — comparator wrapper inducers
//!
//! The paper compares its induction against three kinds of baselines:
//!
//! * **canonical wrappers** — the absolute root-to-target paths that browser
//!   developer tools emit ([`canonical`], [`devtools`]),
//! * the probabilistic **tree-edit robustness** approach of Dalvi,
//!   Bohannon & Sha (SIGMOD 2009, reference \[6\]) — re-implemented here as a
//!   candidate enumerator over a weaker XPath fragment ranked by survival
//!   probability under a learned change model ([`treeedit`]),
//! * **WEIR** (Bronzi et al., PVLDB 2013, reference \[2\]) — a redundancy-based
//!   automatic inducer that needs several same-template pages and emits an
//!   unranked set of absolute and template-text-relative expressions
//!   ([`weir`]).
//!
//! None of the original systems is available; these are faithful-behaviour
//! re-implementations of the descriptions in the respective papers, at the
//! level of detail needed to reproduce the comparison experiments of
//! Section 6.1.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
// The workspace contracts listed in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod canonical;
pub mod devtools;
pub mod treeedit;
pub mod weir;

pub use canonical::CanonicalWrapper;
pub use devtools::{devtools_wrapper, DevtoolsWrapper};
pub use treeedit::{ChangeModel, TreeEditInducer, TreeEditWrapper};
pub use weir::{WeirInducer, WeirWrapper};

// The unified extraction interface every baseline implements.
pub use wi_induction::{ExtractError, Extractor};
