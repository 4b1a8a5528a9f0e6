//! Overhead of the `wi-obs` tracing layer, measured against the same
//! maintenance workload as the `maintain` bench.
//!
//! The headline numbers — ns per disabled/enabled trace call (one thread,
//! and two threads emitting at once), journal emit+read throughput, and
//! the maintain workload wall clock with tracing off vs. on — are also
//! measured with a plain wall-clock loop and recorded in `BENCH_obs.json`
//! at the workspace root.  The disabled path is the contract that
//! matters: every entry point must stay a single relaxed atomic load, and
//! the smoke test `crates/bench/tests/obs_smoke.rs` gates its estimated
//! share of the workload at < 2% in CI.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;
use wi_induction::{WrapperBundle, WrapperInducer};
use wi_maintain::{LastKnownGood, Maintainer, MaintenanceJob, PageVersion, Registry};
use wi_obs::{event, journal_stats, recent, record_span, set_mode, Mode};
use wi_scoring::ScoringParams;
use wi_webgen::archive::ArchiveSimulator;
use wi_webgen::date::Day;
use wi_webgen::site::{PageKind, Site};
use wi_webgen::style::Vertical;
use wi_webgen::tasks::{TargetRole, WrapperTask};

/// Builds `sites` maintenance jobs of `epochs` snapshots each, plus a
/// registry with their induced bundles installed (the `maintain` bench
/// workload, reused so the overhead numbers compare like for like).
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

fn bench_trace_calls(c: &mut Criterion) {
    let started = Instant::now();

    set_mode(Mode::Off);
    c.bench_function("record_span_disabled", |b| {
        b.iter(|| record_span(black_box("bench.obs.off"), black_box(started), &[]))
    });

    set_mode(Mode::On);
    c.bench_function("record_span_enabled", |b| {
        b.iter(|| record_span(black_box("bench.obs.on"), Instant::now(), &[("k", 1)]))
    });
    set_mode(Mode::Off);
}

fn bench_maintain_with_tracing(c: &mut Criterion) {
    let (registry, jobs, _) = build_workload(12, 24);
    let maintainer = Maintainer::default();

    set_mode(Mode::Off);
    c.bench_function("maintain_12x24_trace_off", |b| {
        b.iter(|| {
            let mut r = registry.clone();
            black_box(r.maintain_batch_sequential(black_box(&jobs), &maintainer))
        })
    });
    set_mode(Mode::On);
    c.bench_function("maintain_12x24_trace_on", |b| {
        b.iter(|| {
            let mut r = registry.clone();
            black_box(r.maintain_batch_sequential(black_box(&jobs), &maintainer))
        })
    });
    set_mode(Mode::Off);
}

/// Wall-clock numbers, recorded into BENCH_obs.json by hand.
fn record_numbers() {
    let started = Instant::now();

    // Per-call cost with tracing off: the single-relaxed-load path.
    set_mode(Mode::Off);
    let calls = 20_000_000u64;
    let t = Instant::now();
    for _ in 0..calls {
        record_span(black_box("bench.obs.off"), black_box(started), &[]);
    }
    let disabled_ns = t.elapsed().as_nanos() as f64 / calls as f64;

    // Per-call cost with tracing on: timestamp, record build and journal
    // push.  The journal is full after the first 4096 calls, so this is
    // steady-state emission: every push also evicts the oldest record.
    // Each span starts just before its call, as a real one does; spans
    // measured from `started` would all cross the slow-log threshold after
    // the first millisecond and time the slow log instead.
    set_mode(Mode::On);
    let calls_on = 2_000_000u64;
    let pushed_before = journal_stats().pushed;
    let t = Instant::now();
    for _ in 0..calls_on {
        record_span(black_box("bench.obs.on"), Instant::now(), &[("k", 1)]);
    }
    let enabled_ns = t.elapsed().as_nanos() as f64 / calls_on as f64;
    assert_eq!(
        journal_stats().pushed - pushed_before,
        calls_on,
        "every enabled call stores a record"
    );

    // The same loop on two threads at once (they share the journal lock):
    // wall clock per call as each thread sees it.
    let calls_each = 1_000_000u64;
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..calls_each {
                    record_span(black_box("bench.obs.on2"), Instant::now(), &[("k", 1)]);
                }
            });
        }
    });
    let enabled_2threads_ns = t.elapsed().as_nanos() as f64 / calls_each as f64;

    // Journal throughput: emit 1,000 records, read the whole journal,
    // repeat.
    let rounds = 400u64;
    let per_round = 1_000u64;
    let t = Instant::now();
    for _ in 0..rounds {
        for _ in 0..per_round {
            event(black_box("bench.obs.journal"), &[]);
        }
        black_box(recent(usize::MAX));
    }
    let journal_per_s = (rounds * per_round) as f64 / t.elapsed().as_secs_f64();
    let stats = journal_stats();
    set_mode(Mode::Off);

    // The maintain workload with tracing off vs. on, best of 5.
    let (registry, jobs, pages) = build_workload(12, 24);
    let maintainer = Maintainer::default();
    let mut off_s = f64::MAX;
    let mut on_s = f64::MAX;
    for _ in 0..5 {
        set_mode(Mode::Off);
        let mut r = registry.clone();
        let t = Instant::now();
        black_box(r.maintain_batch_sequential(&jobs, &maintainer));
        off_s = off_s.min(t.elapsed().as_secs_f64());

        set_mode(Mode::On);
        let mut r = registry.clone();
        let t = Instant::now();
        black_box(r.maintain_batch_sequential(&jobs, &maintainer));
        on_s = on_s.min(t.elapsed().as_secs_f64());
    }
    set_mode(Mode::Off);

    println!(
        "obs overhead: disabled {disabled_ns:.2} ns/call, enabled {enabled_ns:.0} ns/call, \
         enabled on 2 threads {enabled_2threads_ns:.0} ns/call, \
         journal {journal_per_s:.0} records/s (pushed {}, overwritten {})",
        stats.pushed, stats.overwritten
    );
    println!(
        "maintain {pages} pages: trace off {:.3} ms, trace on {:.3} ms ({:+.2}% enabled overhead)",
        off_s * 1e3,
        on_s * 1e3,
        (on_s / off_s - 1.0) * 100.0
    );
}

fn bench_all(c: &mut Criterion) {
    record_numbers();
    bench_trace_calls(c);
    bench_maintain_with_tracing(c);
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
