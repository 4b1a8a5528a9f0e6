//! Micro-benchmarks of the document-order index against the structural
//! (path-rebuilding) reference implementations it replaced.
//!
//! The headline numbers — indexed vs. unindexed `sort_document_order` on a
//! ≥1k-node webgen page — are also measured with a plain wall-clock loop and
//! recorded in `BENCH_order_index.json` at the workspace root, so the
//! speedup claimed in the README stays reproducible.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;
use wi_bench::spread;
use wi_dom::serializer::subtree_to_html;
use wi_dom::{to_html, Document, NodeId, SerializeOptions};
use wi_webgen::date::Day;
use wi_webgen::site::{PageKind, Site};
use wi_webgen::style::Vertical;
use wi_xpath::{evaluate, parse_query};

/// The markup of a webgen detail page grown to at least `min_nodes` nodes:
/// the page's own body content followed by copies of a second page's body
/// markup, all inside one `<body>` (keeps a realistic tag/depth
/// distribution while hitting the target size).
fn webgen_html(min_nodes: usize) -> String {
    let site = Site::new(Vertical::Movies, 7);
    let page = to_html(&site.render(0, Day(0), PageKind::Detail));
    let donor = site.render(1, Day(0), PageKind::Detail);
    let donor_body = donor.elements_by_tag("body")[0];
    let options = SerializeOptions::default();
    let copy: String = donor
        .children(donor_body)
        .map(|c| subtree_to_html(&donor, c, &options))
        .collect();
    let close = page.rfind("</body>").expect("a rendered page has a body");
    let mut copies = String::new();
    loop {
        let html = format!("{}{copies}{}", &page[..close], &page[close..]);
        if Document::parse(&html).unwrap().len() >= min_nodes {
            return html;
        }
        copies.push_str(&copy);
    }
}

/// [`webgen_html`] parsed.
fn webgen_page(min_nodes: usize) -> Document {
    Document::parse(&webgen_html(min_nodes)).unwrap()
}

/// Deterministic Fisher–Yates (the workspace has no real `rand`).
fn shuffled(nodes: &[NodeId], seed: u64) -> Vec<NodeId> {
    let mut v = nodes.to_vec();
    let mut state = seed | 1;
    for i in (1..v.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
    v
}

fn all_nodes(doc: &Document) -> Vec<NodeId> {
    doc.descendants_or_self(doc.root()).collect()
}

fn sort_unindexed(doc: &Document, nodes: &mut Vec<NodeId>) {
    nodes.sort_by(|&a, &b| doc.document_order_unindexed(a, b));
    nodes.dedup();
}

fn bench_sort_document_order(c: &mut Criterion) {
    let doc = webgen_page(1000);
    let input = shuffled(&all_nodes(&doc), 42);
    let _ = doc.order_index(); // build outside the timed region
    c.bench_function("order_sort_indexed_1k_nodes", |b| {
        b.iter(|| {
            let mut v = input.clone();
            doc.sort_document_order(&mut v);
            v
        })
    });
    c.bench_function("order_sort_unindexed_1k_nodes", |b| {
        b.iter(|| {
            let mut v = input.clone();
            sort_unindexed(&doc, &mut v);
            v
        })
    });
}

fn bench_ancestor_tests(c: &mut Criterion) {
    let doc = webgen_page(1000);
    let nodes = all_nodes(&doc);
    let pairs: Vec<(NodeId, NodeId)> = (0..nodes.len())
        .map(|i| (nodes[i], nodes[(i * 17 + 11) % nodes.len()]))
        .collect();
    let _ = doc.order_index();
    c.bench_function("is_ancestor_indexed_1k_pairs", |b| {
        b.iter(|| {
            pairs
                .iter()
                .filter(|&&(a, n)| doc.is_ancestor_of(a, n))
                .count()
        })
    });
    c.bench_function("is_ancestor_walking_1k_pairs", |b| {
        b.iter(|| {
            pairs
                .iter()
                .filter(|&&(a, n)| doc.ancestors(n).any(|x| x == a))
                .count()
        })
    });
}

fn bench_following_axis(c: &mut Criterion) {
    let doc = webgen_page(1000);
    let nodes = all_nodes(&doc);
    let probes: Vec<NodeId> = nodes.iter().copied().step_by(37).collect();
    let _ = doc.order_index();
    c.bench_function("following_axis_range_scan", |b| {
        b.iter(|| {
            probes
                .iter()
                .map(|&n| doc.following(n).len())
                .sum::<usize>()
        })
    });
}

fn bench_descendant_tag_step(c: &mut Criterion) {
    let doc = webgen_page(1000);
    let q = parse_query("descendant::span").unwrap();
    let _ = doc.tag_index();
    c.bench_function("eval_descendant_span_tag_index", |b| {
        b.iter(|| evaluate(&q, &doc, doc.root()))
    });
    c.bench_function("walk_descendant_span_no_index", |b| {
        b.iter(|| {
            doc.descendants(doc.root())
                .filter(|&n| doc.tag_name(n) == Some("span"))
                .collect::<Vec<_>>()
        })
    });
}

/// Times a routine over `iters` iterations and returns mean seconds per
/// iteration.
fn time_per_iter<T>(iters: u32, mut routine: impl FnMut() -> T) -> f64 {
    black_box(routine()); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        black_box(routine());
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Mean seconds to build the order index of a freshly parsed `html`, over
/// `iters` parses (the parse itself is not timed).
fn build_per_iter(iters: u32, html: &str) -> f64 {
    let mut total = 0.0;
    for _ in 0..iters {
        let doc = Document::parse(html).unwrap();
        let start = Instant::now();
        black_box(doc.order_index().len());
        total += start.elapsed().as_secs_f64();
    }
    total / iters as f64
}

/// Measures the headline indexed-vs-unindexed sort over 5 runs and prints
/// median and min–max per figure (recorded into `BENCH_order_index.json`
/// by hand).
fn record_json(_c: &mut Criterion) {
    let html = webgen_html(1000);
    let doc = Document::parse(&html).unwrap();
    let nodes = all_nodes(&doc);
    let input = shuffled(&nodes, 42);
    let _ = doc.order_index();
    let runs = 5;
    let (mut indexed, mut unindexed, mut build) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..runs {
        indexed.push(time_per_iter(200, || {
            let mut v = input.clone();
            doc.sort_document_order(&mut v);
            v
        }));
        unindexed.push(time_per_iter(20, || {
            let mut v = input.clone();
            sort_unindexed(&doc, &mut v);
            v
        }));
        build.push(build_per_iter(200, &html));
    }
    let speedups: Vec<f64> = unindexed.iter().zip(&indexed).map(|(u, i)| u / i).collect();
    let us = |samples: &[f64]| {
        let (median, min, max) = spread(samples);
        format!("{:.2} us [{:.2}-{:.2}]", median * 1e6, min * 1e6, max * 1e6)
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (speedup, speedup_min, speedup_max) = spread(&speedups);
    println!(
        "order index: {} page nodes, {cores} cores, {runs} runs, median [min-max]; \
         sort indexed {} (200 iters), sort unindexed {} (20 iters), \
         index build on a fresh parse {} (200 iters), speedup {speedup:.1}x [{speedup_min:.1}-{speedup_max:.1}]",
        nodes.len(),
        us(&indexed),
        us(&unindexed),
        us(&build),
    );
    assert!(
        speedup >= 5.0,
        "order index must be at least 5x faster than the path-based sort, got {speedup:.1}x"
    );
}

criterion_group! {
    name = order_index;
    config = Criterion::default().sample_size(50);
    targets = bench_sort_document_order, bench_ancestor_tests,
              bench_following_axis, bench_descendant_tag_step, record_json
}
criterion_main!(order_index);
