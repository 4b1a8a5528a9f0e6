//! Wrapper ensembles and scoring calibration — the two future-work
//! extensions from the paper's conclusion, demonstrated end to end on the
//! synthetic web substrate.
//!
//! 1. Induce an ensemble of wrappers that select the same target through
//!    *independent means* (different attributes, template texts, positions).
//! 2. Replay the ensemble over later snapshots of the page: individual
//!    members break as the site evolves, the majority vote keeps extracting,
//!    and the agreement signal flags the change for wrapper maintenance.
//! 3. Use the survival data gathered along the way to calibrate the scoring
//!    constants for this corpus of pages.
//!
//! ```text
//! cargo run --release --example ensemble_wrappers
//! ```

use wrapper_induction::induction::WrapperEnsemble;
use wrapper_induction::prelude::*;
use wrapper_induction::scoring::{calibrate, CalibrationConfig, SurvivalObservation};
use wrapper_induction::webgen::{Day, PageKind, Site, TargetRole, Vertical, WrapperTask};
use wrapper_induction::xpath::evaluate;

fn main() {
    // One task per vertical: extract the primary labelled value (the
    // "Director:"-style field) from a detail page.
    let tasks: Vec<WrapperTask> = [Vertical::Movies, Vertical::News, Vertical::Travel]
        .iter()
        .enumerate()
        .map(|(i, &vertical)| {
            WrapperTask::new(
                Site::new(vertical, 500 + i as u64),
                0,
                PageKind::Detail,
                TargetRole::PrimaryValue,
            )
        })
        .collect();

    let mut survival_corpus: Vec<SurvivalObservation> = Vec::new();

    for task in &tasks {
        println!("== {} ==", task.id());
        let (page, targets) = task.page_with_targets(Day(0));
        let ensemble = WrapperEnsemble::induce_single(&page, &targets);

        println!("ensemble members (independent selection means):");
        for (i, member) in ensemble.members.iter().enumerate() {
            println!(
                "  #{:<2} score {:>8.1}  {}",
                i + 1,
                member.score,
                member.query
            );
        }

        // Replay the ensemble over archive snapshots at 120-day intervals.
        println!("replay over later snapshots:");
        let mut member_alive_until = vec![0i64; ensemble.len()];
        for step in 0..10 {
            let day = Day(step * 120);
            let (snapshot, truth) = task.page_with_targets(day);
            if truth.is_empty() {
                println!(
                    "  day {:>4}: targets removed from the page — stopping",
                    day.0
                );
                break;
            }
            // The ensemble is itself an `Extractor`: majority vote from the
            // snapshot root.
            let majority = ensemble
                .extract(&snapshot, snapshot.root())
                .expect("ensemble has members");
            let agreement = ensemble.agreement(&snapshot);
            let majority_ok = majority == truth;
            for (i, member) in ensemble.members.iter().enumerate() {
                if evaluate(&member.query, &snapshot, snapshot.root()) == truth {
                    member_alive_until[i] = day.0;
                }
            }
            println!(
                "  day {:>4}: agreement {:.2}  majority {}",
                day.0,
                agreement,
                if majority_ok { "correct" } else { "BROKEN" }
            );
        }

        for (i, member) in ensemble.members.iter().enumerate() {
            survival_corpus.push(SurvivalObservation::new(
                member.query.clone(),
                member_alive_until[i] as f64,
            ));
        }
        println!();
    }

    // Calibrate the scoring constants on the gathered survival corpus
    // (future work (2): learning an effective scoring from a corpus).
    let result = calibrate(
        &survival_corpus,
        ScoringParams::paper_defaults(),
        &CalibrationConfig::default(),
    );
    println!(
        "== scoring calibration on {} observations ==",
        survival_corpus.len()
    );
    println!(
        "rank agreement: {:.3} (paper defaults) -> {:.3} (calibrated)",
        result.initial_agreement, result.final_agreement
    );
    for (coordinate, old, new, agreement) in result.history.iter().take(8) {
        println!("  adjusted {coordinate:?}: {old} -> {new} (agreement {agreement:.3})");
    }
    if result.history.is_empty() {
        println!("  the paper's default constants already explain this corpus best");
    }
}
