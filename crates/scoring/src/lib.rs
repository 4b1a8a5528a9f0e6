//! # wi-scoring — robustness scoring and ranking
//!
//! Implementation of Section 4 of *Robust and Noise Resistant Wrapper
//! Induction* (SIGMOD 2016):
//!
//! * the **plus-compositional robustness score** of a dsXPath expression —
//!   the sum of per-step scores, each the sum of an axis score, a node-test
//!   score and predicate scores, weighted by a decay factor `δ^(i-1)`
//!   ([`score_query`]),
//! * the **parameters** of the scoring function with the default values the
//!   paper reports in Section 6.3 ([`ScoringParams`]),
//! * **precision / recall / Fβ** with the paper's choice of β = 0.5
//!   ([`fscore`]),
//! * [`QueryInstance`] — a query together with its true/false positive and
//!   false negative counts on the samples — and the paper's **ranking
//!   order**: higher F0.5 first, ties broken by lower robustness score
//!   ([`rank_order`]).
//!
//! The score is "the smaller the better": short, selective expressions with
//! semantic attribute predicates receive low scores, long positional
//! expressions receive high scores.
//!
//! Beyond the paper's fixed parameter table, [`learn`] implements the
//! conclusion's future work (2): calibrating the scoring constants against a
//! corpus of wrapper-survival observations.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
// The workspace contracts listed in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod fscore;
pub mod instance;
pub mod learn;
pub mod params;
pub mod score;

pub use fscore::{f_beta, f_score_05, precision, recall, Counts};
pub use instance::{rank_order, rank_order_lazy, strictly_better, QueryInstance};
pub use learn::{
    calibrate, rank_agreement, CalibrationConfig, CalibrationResult, SurvivalObservation,
};
pub use params::ScoringParams;
pub use score::{score_predicate, score_query, score_query_partial, score_step};
