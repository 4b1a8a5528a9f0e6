//! # wi-bench — benchmark support crate
//!
//! The Criterion benchmark targets live under `benches/`; one target per
//! table / figure of the paper (see DESIGN.md for the index), plus
//! micro-benchmarks of the substrates and ablations of the design choices.
//! This library only re-exports the pieces the benches share.

#![deny(missing_docs)]
// The workspace contracts listed in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub use wi_eval::Scale;

/// The scale used by the Criterion benches: tiny, so a full `cargo bench`
/// terminates in minutes while still exercising every experiment end-to-end
/// (the full-scale numbers are produced by `run_experiments`, not by the
/// benches).
pub fn bench_scale() -> Scale {
    Scale::tiny()
}

/// The median, minimum and maximum of a set of timed runs: the spread every
/// `BENCH_*.json` figure is recorded with (an odd run count keeps the
/// median a measured value; an even one takes the upper middle).
///
/// # Panics
///
/// Panics on an empty or NaN-holding sample set.
pub fn spread(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
    (
        sorted[sorted.len() / 2],
        sorted[0],
        sorted[sorted.len() - 1],
    )
}
