//! Integration tests of the two future-work extensions on top of the full
//! stack: wrapper ensembles (majority extraction over archive snapshots) and
//! scoring calibration from survival observations gathered by the robustness
//! runner.

use wrapper_induction::baselines::CanonicalWrapper;
use wrapper_induction::eval::robustness::{run_robustness, Extractor};
use wrapper_induction::induction::WrapperEnsemble;
use wrapper_induction::prelude::*;
use wrapper_induction::scoring::{
    calibrate, rank_agreement, CalibrationConfig, SurvivalObservation,
};
use wrapper_induction::webgen::{Day, PageKind, Site, TargetRole, Vertical, WrapperTask};

fn tasks() -> Vec<WrapperTask> {
    let verticals = [
        Vertical::Movies,
        Vertical::News,
        Vertical::Travel,
        Vertical::Shopping,
    ];
    verticals
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            WrapperTask::new(
                Site::new(v, 300 + i as u64),
                0,
                PageKind::Detail,
                TargetRole::PrimaryValue,
            )
        })
        .collect()
}

#[test]
fn ensembles_extract_exactly_on_the_induction_snapshot() {
    for task in tasks() {
        let (doc, targets) = task.page_with_targets(Day(0));
        assert!(!targets.is_empty(), "{} has no targets", task.id());
        let ensemble = WrapperEnsemble::induce_single(&doc, &targets);
        assert!(
            ensemble.len() >= 2,
            "{} produced only {:?}",
            task.id(),
            ensemble.expressions()
        );
        assert_eq!(ensemble.extract_majority(&doc), targets, "{}", task.id());
        assert_eq!(ensemble.agreement(&doc), 1.0, "{}", task.id());
    }
}

#[test]
fn ensemble_majority_is_at_least_as_robust_as_the_canonical_baseline() {
    let mut ensemble_days = 0i64;
    let mut canonical_days = 0i64;
    for task in tasks() {
        let (doc, targets) = task.page_with_targets(Day(0));
        let ensemble = WrapperEnsemble::induce_single(&doc, &targets);
        let canonical = CanonicalWrapper::induce(&doc, &targets);
        // The ensemble is replayed directly: it implements `Extractor`.
        ensemble_days += run_robustness(&task, &ensemble, Day(0), Day(1200), 60).valid_days;
        canonical_days += run_robustness(&task, &canonical, Day(0), Day(1200), 60).valid_days;
    }
    assert!(
        ensemble_days >= canonical_days,
        "ensemble {ensemble_days} days vs canonical {canonical_days} days"
    );
}

#[test]
fn agreement_degrades_no_earlier_than_the_majority_breaks() {
    // The agreement signal is meant as an early warning: as long as the
    // majority still extracts the right nodes, agreement may dip (a minority
    // of members broke), but full agreement must imply a correct majority on
    // the induction page.
    let task = tasks().remove(0);
    let (doc, targets) = task.page_with_targets(Day(0));
    let ensemble = WrapperEnsemble::induce_single(&doc, &targets);
    for step in 0..8 {
        let day = Day(step * 120);
        let (snapshot, truth) = task.page_with_targets(day);
        if truth.is_empty() {
            break;
        }
        let agreement = ensemble.agreement(&snapshot);
        let majority = ensemble.extract_majority(&snapshot);
        if (agreement - 1.0).abs() < 1e-12 && !majority.is_empty() {
            // All members agree: they all select the same set, so the
            // majority equals every member's selection.
            for member in &ensemble.members {
                assert_eq!(
                    evaluate(&member.query, &snapshot, snapshot.root()),
                    majority,
                    "full agreement but members disagree on day {day:?}"
                );
            }
        }
        assert!((0.0..=1.0).contains(&agreement));
    }
}

#[test]
fn calibration_from_robustness_outcomes_never_hurts() {
    // Gather (wrapper, survived days) observations by replaying the top-3
    // induced wrappers of each task over a shortened archive window, then
    // calibrate the scoring on that corpus.
    let mut corpus = Vec::new();
    for task in tasks() {
        let (doc, targets) = task.page_with_targets(Day(0));
        let inducer = WrapperInducer::with_k(3);
        for instance in inducer.induce_single(&doc, &targets) {
            let outcome = run_robustness(&task, &instance.query, Day(0), Day(800), 80);
            corpus.push(SurvivalObservation::new(
                instance.query.clone(),
                outcome.valid_days as f64,
            ));
        }
    }
    assert!(
        corpus.len() >= 8,
        "expected a reasonable corpus, got {}",
        corpus.len()
    );
    let base = ScoringParams::paper_defaults();
    let initial = rank_agreement(&corpus, &base);
    let result = calibrate(
        &corpus,
        base,
        &CalibrationConfig {
            multipliers: vec![0.2, 0.5, 2.0, 5.0],
            passes: 1,
        },
    );
    assert!((0.0..=1.0).contains(&initial));
    assert!(result.final_agreement >= result.initial_agreement);
    // The calibrated parameters are usable by a fresh inducer.
    let task = tasks().remove(0);
    let (doc, targets) = task.page_with_targets(Day(0));
    let inducer = WrapperInducer::new(InductionConfig::default().with_params(result.params));
    let wrapper = inducer.try_induce_best(&doc, &targets).expect("a wrapper");
    assert_eq!(wrapper.extract_root(&doc).unwrap(), targets);
}
