//! CI gate for the incremental-maintenance fast path: on a small low-churn
//! timeline, replaying through the incremental caches must not be slower
//! than maintaining from scratch.
//!
//! The workload deliberately repeats each archive snapshot so consecutive
//! epochs are content-identical — the regime the epoch echo is built for.  Wall-clock comparisons on a shared CI box
//! are noisy, so the gate takes the best of several runs of each mode and
//! allows a generous slack factor; the real regime (incremental several
//! times faster) passes with a wide margin, while a regression that makes
//! the cached path pay for its bookkeeping without ever hitting trips it.

use std::hint::black_box;
use std::time::Instant;
use wi_induction::{WrapperBundle, WrapperInducer};
use wi_maintain::{
    LastKnownGood, MaintainConfig, Maintainer, MaintenanceJob, PageVersion, Registry,
};
use wi_scoring::ScoringParams;
use wi_webgen::archive::ArchiveSimulator;
use wi_webgen::date::Day;
use wi_webgen::site::{PageKind, Site};
use wi_webgen::style::Vertical;
use wi_webgen::tasks::{TargetRole, WrapperTask};

/// A tiny low-churn workload: `sites` timelines of `epochs` snapshots where
/// every snapshot is sampled twice in a row (guaranteed consecutive-identical
/// pairs on top of whatever churn the archive itself produces).
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
                // Integer halving re-samples each day twice: epochs 2k and
                // 2k+1 carry content-identical documents.
                let day = Day((i / 2) * 20);
                PageVersion {
                    day: day.offset() + (i % 2),
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

fn best_of(runs: usize, registry: &Registry, jobs: &[MaintenanceJob], m: &Maintainer) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let mut r = registry.clone();
        let t = Instant::now();
        black_box(r.maintain_batch_sequential(jobs, m));
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

#[test]
fn incremental_replay_is_not_slower_than_from_scratch() {
    let (registry, jobs, pages) = build_workload(4, 10);
    assert!(pages > 0, "workload induced no jobs");
    let incremental = Maintainer::default();
    let full = Maintainer::new(
        MaintainConfig { incremental: false },
        WrapperInducer::default(),
    );

    // Warm both paths (allocator, lazy DOM indexes) before timing.
    let mut r = registry.clone();
    r.maintain_batch_sequential(&jobs, &incremental);
    let mut r = registry.clone();
    r.maintain_batch_sequential(&jobs, &full);

    let incremental_s = best_of(5, &registry, &jobs, &incremental);
    let full_s = best_of(5, &registry, &jobs, &full);

    // 1.2x slack absorbs scheduler noise; the expected regime is the
    // incremental path winning outright on this half-identical timeline.
    assert!(
        incremental_s <= full_s * 1.2,
        "incremental replay slower than from-scratch: {:.3}ms vs {:.3}ms over {pages} pages",
        incremental_s * 1e3,
        full_s * 1e3,
    );
}
