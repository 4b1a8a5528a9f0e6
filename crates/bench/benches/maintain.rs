//! Throughput of the maintenance batch driver: whole site timelines through
//! verify → classify → repair, sequential vs. fanned out over all cores.
//!
//! The headline numbers — pages/second through `Registry::maintain_batch`
//! with 1 worker vs. N workers — are also measured with a plain wall-clock
//! loop and recorded in `BENCH_maintain.json` at the workspace root, so the
//! subsystem's perf trajectory stays reproducible.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
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

/// Builds `sites` maintenance jobs of `epochs` snapshots each, plus a
/// registry with their induced bundles installed.
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

/// A maintainer with the incremental-replay caches disabled (the
/// from-scratch baseline the equivalence battery compares against).
fn full_maintainer() -> Maintainer {
    Maintainer::new(
        MaintainConfig { incremental: false },
        WrapperInducer::default(),
    )
}

fn bench_maintain_batch(c: &mut Criterion) {
    let (registry, jobs, _) = build_workload(12, 24);
    let maintainer = Maintainer::default();
    let full = full_maintainer();

    c.bench_function("maintain_batch_sequential_12x24", |b| {
        b.iter(|| {
            let mut r = registry.clone();
            black_box(r.maintain_batch_sequential(black_box(&jobs), &maintainer))
        })
    });
    c.bench_function("maintain_batch_full_12x24", |b| {
        b.iter(|| {
            let mut r = registry.clone();
            black_box(r.maintain_batch_sequential(black_box(&jobs), &full))
        })
    });
    c.bench_function("maintain_batch_parallel_12x24", |b| {
        b.iter(|| {
            let mut r = registry.clone();
            black_box(r.maintain_batch(black_box(&jobs), &maintainer))
        })
    });
}

/// Wall-clock pages/second, recorded into BENCH_maintain.json by hand.
fn record_throughput() {
    let (registry, jobs, pages) = build_workload(12, 24);
    let maintainer = Maintainer::default();
    let full = full_maintainer();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let runs = 5;
    let mut sequential_s = f64::MAX;
    let mut full_s = f64::MAX;
    let mut parallel_s = f64::MAX;
    for _ in 0..runs {
        let mut r = registry.clone();
        let t = Instant::now();
        black_box(r.maintain_batch_with_workers(&jobs, &maintainer, 1));
        sequential_s = sequential_s.min(t.elapsed().as_secs_f64());

        let mut r = registry.clone();
        let t = Instant::now();
        black_box(r.maintain_batch_with_workers(&jobs, &full, 1));
        full_s = full_s.min(t.elapsed().as_secs_f64());

        let mut r = registry.clone();
        let t = Instant::now();
        black_box(r.maintain_batch_with_workers(&jobs, &maintainer, workers));
        parallel_s = parallel_s.min(t.elapsed().as_secs_f64());
    }
    println!(
        "maintain_batch throughput: {} jobs, {} pages; incremental 1 worker {:.0} pages/s, \
         from-scratch 1 worker {:.0} pages/s ({:.2}x), {} workers {:.0} pages/s ({:.1}x)",
        jobs.len(),
        pages,
        pages as f64 / sequential_s,
        pages as f64 / full_s,
        full_s / sequential_s,
        workers,
        pages as f64 / parallel_s,
        sequential_s / parallel_s
    );
}

fn bench_all(c: &mut Criterion) {
    record_throughput();
    bench_maintain_batch(c);
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
