//! # wi-eval — the evaluation harness
//!
//! Re-creates every table and figure of the paper's evaluation (Section 6)
//! on top of the synthetic web substrate:
//!
//! | paper | module | binary / bench |
//! |---|---|---|
//! | running time (§6) | [`experiments::timing`] | `run_experiments timing` |
//! | comparison with Dalvi et al. \[6\] (§6.1) | [`experiments::sota_dalvi`] | `run_experiments sota-dalvi` |
//! | comparison with WEIR \[2\] (§6.1) | [`experiments::sota_weir`] | `run_experiments sota-weir` |
//! | Table 1 (single-node examples) | [`experiments::table1`] | `run_experiments table1` |
//! | Table 2 (multi-node examples) | [`experiments::table2`] | `run_experiments table2` |
//! | Figure 3 (robustness, single node) | [`experiments::fig3`] | `run_experiments fig3` |
//! | Figure 4 (robustness, multiple nodes) | [`experiments::fig4`] | `run_experiments fig4` |
//! | break groups + change rate (§6.2) | [`robustness`], [`experiments::change_rate`] | `run_experiments change-rate` |
//! | Figure 5 (single-target characteristics) | [`experiments::fig5`] | `run_experiments fig5` |
//! | Figure 6 (multi-target characteristics) | [`experiments::fig6`] | `run_experiments fig6` |
//! | parameters + decay ablation (§6.3) | [`experiments::params_report`] | `run_experiments params` |
//! | Figure 7 (synthetic noise) | [`experiments::fig7`] | `run_experiments fig7` |
//! | real-life NER noise (§6.4) | [`experiments::noise_real`] | `run_experiments noise-real` |
//! | wrapper lifecycle (verify/classify/repair) | [`experiments::maintenance`] | `run_experiments maintenance` |
//! | extraction as a service (`wi-serve` smoke) | [`experiments::serve`] | `run_experiments serve` |
//!
//! All experiments take a [`Scale`] so the full paper-sized runs and quick
//! smoke runs (used by the Criterion benches and integration tests) share the
//! same code path.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
// The clippy.toml contracts minus its type bans: this crate drives the
// daemon over sockets.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod experiments;
pub mod report;
pub mod robustness;
pub mod scale;

pub use robustness::{BreakReason, RobustnessOutcome};
pub use scale::Scale;
