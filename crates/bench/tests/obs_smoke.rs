//! CI gate for the wi-obs disabled-path contract: with tracing off, the
//! trace calls instrumented into the maintenance lifecycle must cost
//! less than 2% of the maintain workload.
//!
//! Raw enabled-vs-disabled wall-clock deltas on a shared CI box are noise
//! at the scale that matters (a relaxed load is sub-nanosecond), so the
//! gate is computed deterministically instead: count the trace records
//! the workload actually emits (tracing on), measure the per-call cost of
//! the disabled path in isolation, and bound their product against the
//! workload wall clock.  The same run proves the instrumentation is live
//! (records > 0) and lossless at this scale (no journal evictions).

use std::hint::black_box;
use std::time::Instant;
use wi_induction::{WrapperBundle, WrapperInducer};
use wi_maintain::{LastKnownGood, Maintainer, MaintenanceJob, PageVersion, Registry};
use wi_scoring::ScoringParams;
use wi_webgen::archive::ArchiveSimulator;
use wi_webgen::date::Day;
use wi_webgen::site::{PageKind, Site};
use wi_webgen::style::Vertical;
use wi_webgen::tasks::{TargetRole, WrapperTask};

/// A small slice of the maintain bench workload (6 sites x 12 epochs).
fn build_workload(sites: u64, epochs: i64) -> (Registry, Vec<MaintenanceJob>, usize) {
    let mut registry = Registry::new();
    let mut jobs = Vec::new();
    let mut pages_total = 0usize;
    for index in 0..sites {
        let vertical = Vertical::ALL[index as usize % Vertical::ALL.len()];
        let task = WrapperTask::new(
            Site::new(vertical, index),
            0,
            PageKind::Detail,
            TargetRole::ListTitles,
        );
        let (doc, targets) = task.page_with_targets(Day(0));
        let Ok(wrapper) = WrapperInducer::with_k(3).try_induce_best(&doc, &targets) else {
            continue;
        };
        let bundle = WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults())
            .with_label(task.id());
        registry.install(task.id(), bundle.clone(), 0);
        let archive = ArchiveSimulator::new(task.site.clone(), task.page_index, task.kind);
        let pages: Vec<PageVersion> = (0..epochs)
            .map(|i| {
                let day = Day(i * 20);
                PageVersion {
                    day: day.offset(),
                    doc: archive.snapshot(day).doc,
                }
            })
            .collect();
        pages_total += pages.len();
        jobs.push(MaintenanceJob {
            site: task.id(),
            pages,
            seed_lkg: Some(LastKnownGood::capture_for(&bundle, &doc, 0, &targets)),
            inducer: None,
        });
    }
    (registry, jobs, pages_total)
}

#[test]
fn disabled_tracing_costs_under_two_percent_of_the_maintain_workload() {
    let (registry, jobs, pages) = build_workload(6, 12);
    let maintainer = Maintainer::default();
    assert!(pages > 0, "workload built");

    // Count the trace records one workload pass emits (and prove the
    // lifecycle instrumentation is actually wired up).
    wi_obs::set_mode(wi_obs::Mode::On);
    wi_obs::trace::clear();
    {
        let mut r = registry.clone();
        black_box(r.maintain_batch_sequential(&jobs, &maintainer));
    }
    let traced = wi_obs::recent(usize::MAX).len() as u64;
    let stats = wi_obs::journal_stats();
    wi_obs::set_mode(wi_obs::Mode::Off);
    assert!(traced > 0, "the maintenance lifecycle emits spans");
    assert_eq!(
        stats.overwritten, 0,
        "a {pages}-page sequential workload stays under the journal capacity"
    );

    // The workload wall clock with tracing off, best of 3.
    let mut work_s = f64::MAX;
    for _ in 0..3 {
        let mut r = registry.clone();
        let t = Instant::now();
        black_box(r.maintain_batch_sequential(&jobs, &maintainer));
        work_s = work_s.min(t.elapsed().as_secs_f64());
    }

    // The disabled path in isolation: one relaxed load per call.
    let started = Instant::now();
    let calls = 10_000_000u64;
    let t = Instant::now();
    for _ in 0..calls {
        wi_obs::record_span(black_box("obs.smoke"), black_box(started), &[]);
    }
    let per_call_s = t.elapsed().as_secs_f64() / calls as f64;

    let overhead = traced as f64 * per_call_s / work_s;
    assert!(
        overhead < 0.02,
        "disabled tracing must stay under 2% of the maintain workload: \
         {traced} calls x {:.2} ns / {:.3} ms = {:.4}%",
        per_call_s * 1e9,
        work_s * 1e3,
        overhead * 100.0
    );
}
