//! End-to-end induction throughput: the shared-prefix (trie) engine over the
//! symbol-interned DOM versus the retained naive reference path, on the
//! standard webgen robustness dataset.
//!
//! The headline numbers — tasks/second through `induce` for both engines and
//! their ratio — are also measured with a plain wall-clock loop and recorded
//! in `BENCH_induction.json` at the workspace root (with the machine's core
//! count, per the perf-record policy), so the induction perf trajectory stays
//! reproducible.  The equivalence of the two engines' *results* is pinned by
//! `wi-induction/tests/induction_equivalence.rs`; this bench only measures
//! speed.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;
use wi_bench::spread;
use wi_dom::{Document, NodeId};
use wi_induction::{induce, induce_reference, InductionConfig, Sample};
use wi_webgen::datasets::{multi_node_tasks, single_node_tasks};
use wi_webgen::date::Day;

/// The standard webgen robustness workload: single- and multi-node wrapper
/// tasks, one annotated sample page each (the induction input of the paper's
/// Figures 3/4 runs).
fn build_workload() -> Vec<(Document, Vec<NodeId>)> {
    single_node_tasks(8)
        .into_iter()
        .chain(multi_node_tasks(8))
        .filter_map(|task| {
            let (doc, targets) = task.page_with_targets(Day(0));
            // Pre-build the lazy order/tag indexes: extraction workloads pay
            // them once per page anyway (recorded in BENCH_order_index.json);
            // this bench measures induction on top of them.
            let _ = doc.order_index();
            let _ = doc.tag_index();
            (!targets.is_empty()).then_some((doc, targets))
        })
        .collect()
}

fn run_all(
    pages: &[(Document, Vec<NodeId>)],
    config: &InductionConfig,
    engine: fn(&[Sample<'_>], &InductionConfig) -> Vec<wi_scoring::QueryInstance>,
) -> usize {
    let mut produced = 0;
    for (doc, targets) in pages {
        let sample = Sample::from_root(doc, targets);
        produced += engine(&[sample], config).len();
    }
    produced
}

fn bench_induction(c: &mut Criterion) {
    let pages = build_workload();
    let config = InductionConfig::default();

    c.bench_function("induce_trie_16_tasks", |b| {
        b.iter(|| black_box(run_all(black_box(&pages), &config, induce)))
    });
    c.bench_function("induce_naive_16_tasks", |b| {
        b.iter(|| black_box(run_all(black_box(&pages), &config, induce_reference)))
    });
}

/// Wall-clock time for both engines over 5 runs, printed as median and
/// min–max and recorded into BENCH_induction.json by hand.
fn record_throughput() {
    let pages = build_workload();
    let config = InductionConfig::default();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let runs = 5;
    let mut naive_s = Vec::with_capacity(runs);
    let mut trie_s = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        black_box(run_all(&pages, &config, induce_reference));
        naive_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        black_box(run_all(&pages, &config, induce));
        trie_s.push(t.elapsed().as_secs_f64());
    }
    let speedup: Vec<f64> = naive_s.iter().zip(&trie_s).map(|(n, t)| n / t).collect();
    let ms = |samples: &[f64]| {
        let (median, min, max) = spread(samples);
        format!("{:.1} ms [{:.1}-{:.1}]", median * 1e3, min * 1e3, max * 1e3)
    };
    let (speedup, speedup_min, speedup_max) = spread(&speedup);
    println!(
        "induction throughput: {} tasks, {cores} cores, {runs} runs, median [min-max]; \
         naive {}, trie {}, speedup {speedup:.2}x [{speedup_min:.2}-{speedup_max:.2}]",
        pages.len(),
        ms(&naive_s),
        ms(&trie_s),
    );
}

fn bench_all(c: &mut Criterion) {
    record_throughput();
    bench_induction(c);
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
