//! Induction equivalence: the shared-prefix (trie) engine must return the
//! same `QueryInstance` list — expressions, counts, scores, and order — as
//! the retained naive reference on the standard webgen robustness datasets.
//!
//! This is the contract the whole perf layer rests on: prefix memoization is
//! an evaluation-strategy change, never a semantics change.  The companion
//! smoke floor (`trie_is_not_slower_than_naive_on_the_tiny_dataset`) keeps
//! the speedup itself under test so a regression that silently disables
//! sharing fails the gate, not just the benchmark.

use wi_dom::{to_html, Document};
use wi_induction::{harvest_targets_by_text, induce, induce_reference, InductionConfig, Sample};
use wi_webgen::datasets::{multi_node_tasks, single_node_tasks};
use wi_webgen::date::Day;
use wi_webgen::site::{PageKind, Site};
use wi_webgen::style::Vertical;
use wi_webgen::tasks::{TargetRole, WrapperTask};
use wi_xpath::Query;

/// Renders an instance list into a comparable form (expression, counts,
/// score bits — `f64` compared exactly: both engines must do the *same*
/// arithmetic).
fn fingerprint(instances: &[wi_scoring::QueryInstance]) -> Vec<(String, (u32, u32, u32), u64)> {
    instances
        .iter()
        .map(|i| {
            (
                i.query.to_string(),
                (i.counts.tp, i.counts.fp, i.counts.fne),
                i.score.to_bits(),
            )
        })
        .collect()
}

#[test]
fn trie_equals_naive_on_single_node_tasks() {
    let config = InductionConfig::default();
    for task in single_node_tasks(6) {
        let (doc, targets) = task.page_with_targets(Day(0));
        if targets.is_empty() {
            continue;
        }
        let sample = Sample::from_root(&doc, &targets);
        let trie = induce(&[sample], &config);
        let naive = induce_reference(&[sample], &config);
        assert_eq!(
            fingerprint(&trie),
            fingerprint(&naive),
            "divergence on task {}",
            task.id()
        );
        assert!(!trie.is_empty(), "no wrapper induced for {}", task.id());
    }
}

#[test]
fn trie_equals_naive_on_multi_node_tasks() {
    let config = InductionConfig::default();
    for task in multi_node_tasks(4) {
        let (doc, targets) = task.page_with_targets(Day(0));
        if targets.is_empty() {
            continue;
        }
        let sample = Sample::from_root(&doc, &targets);
        assert_eq!(
            fingerprint(&induce(&[sample], &config)),
            fingerprint(&induce_reference(&[sample], &config)),
            "divergence on task {}",
            task.id()
        );
    }
}

/// The shape of a `POST /induce` onboarding in the serve benchmark: detail
/// page 0 of a site at day 0, serialized and parsed back, targets found by
/// their text, one sample from the root, the default configuration.  Every
/// single-node role on two sites per vertical, the verticals split over up
/// to four threads (the naive engine is slow in debug builds).
#[test]
fn trie_equals_naive_on_the_serve_induce_shape() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let checked: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = Vertical::ALL
            .chunks(Vertical::ALL.len().div_ceil(threads))
            .map(|verticals| scope.spawn(move || check_serve_induce_shape(verticals)))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert!(checked >= 100, "only {checked} tasks had targets");
}

/// Checks the serve `/induce` shape on `verticals`; returns the number of
/// tasks checked.
fn check_serve_induce_shape(verticals: &[Vertical]) -> usize {
    let config = InductionConfig::default();
    let mut checked = 0;
    for &vertical in verticals {
        for index in 0..2 {
            for &role in TargetRole::SINGLE {
                let task = WrapperTask::new(Site::new(vertical, index), 0, PageKind::Detail, role);
                let (rendered, targets) = task.page_with_targets(Day(0));
                let texts: Vec<String> = targets
                    .iter()
                    .map(|&n| rendered.normalized_text(n))
                    .collect();
                let doc = Document::parse(&to_html(&rendered)).expect("rendered pages parse");
                let targets = harvest_targets_by_text(&doc, &texts);
                if targets.is_empty() {
                    continue;
                }
                let sample = Sample::from_root(&doc, &targets);
                assert_eq!(
                    fingerprint(&induce(&[sample], &config)),
                    fingerprint(&induce_reference(&[sample], &config)),
                    "divergence on task {}",
                    task.id()
                );
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn trie_equals_naive_on_multi_sample_aggregation() {
    // Multiple samples exercise the aggregation path (per-sample tries plus
    // the cross-sample re-scoring loop) and the parallel per-sample fan-out,
    // whose results must be ordered exactly like the sequential reference.
    let config = InductionConfig::default();
    let task = single_node_tasks(1).remove(0);
    let pages: Vec<_> = [0i64, 40, 80]
        .iter()
        .map(|&d| task.page_with_targets(Day(d)))
        .filter(|(_, t)| !t.is_empty())
        .collect();
    let samples: Vec<Sample<'_>> = pages
        .iter()
        .map(|(doc, targets)| Sample::from_root(doc, targets))
        .collect();
    assert!(samples.len() >= 2, "need a multi-sample workload");
    let trie = induce(&samples, &config);
    let naive = induce_reference(&samples, &config);
    assert_eq!(fingerprint(&trie), fingerprint(&naive));
    assert!(!trie.is_empty());
}

#[test]
fn trie_equals_naive_under_inner_context_two_directional_induction() {
    // Two-directional induction (context inside the page) goes through the
    // seeded tail/head tables; both engines must agree there too.
    let doc = wi_dom::parse_html(
        r#"<body>
          <div class="product">
             <div class="photo"><img src="p.png"></div>
             <div class="details"><span class="price">9.99</span></div>
          </div>
        </body>"#,
    )
    .unwrap();
    let img = doc.elements_by_tag("img")[0];
    let price = doc.elements_by_class("price");
    let sample = Sample::new(&doc, img, &price);
    let config = InductionConfig::default();
    assert_eq!(
        fingerprint(&induce(&[sample], &config)),
        fingerprint(&induce_reference(&[sample], &config)),
    );
}

/// The perf smoke floor for CI: on the tiny webgen dataset the trie path
/// must not be slower than the retained naive path.  Both engines run the
/// identical workload back to back, best-of-3, so scheduler noise cannot
/// flip the comparison; a 10% tolerance absorbs the rest.  If prefix
/// sharing silently degrades to per-candidate evaluation, this fails long
/// before anyone reads `BENCH_induction.json`.
#[test]
fn trie_is_not_slower_than_naive_on_the_tiny_dataset() {
    let config = InductionConfig::default();
    let tasks = single_node_tasks(2);
    let pages: Vec<_> = tasks
        .iter()
        .map(|t| t.page_with_targets(Day(0)))
        .filter(|(_, t)| !t.is_empty())
        .collect();
    let samples: Vec<Vec<Sample<'_>>> = pages
        .iter()
        .map(|(doc, targets)| vec![Sample::from_root(doc, targets)])
        .collect();

    let time = |f: &dyn Fn(&[Sample<'_>]) -> Vec<wi_scoring::QueryInstance>| {
        let mut best = std::time::Duration::MAX;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            for s in &samples {
                std::hint::black_box(f(s));
            }
            best = best.min(start.elapsed());
        }
        best
    };

    let naive = time(&|s| induce_reference(s, &config));
    let trie = time(&|s| induce(s, &config));
    assert!(
        trie.as_secs_f64() <= naive.as_secs_f64() * 1.1,
        "trie induction ({trie:?}) slower than naive ({naive:?})"
    );
}

#[test]
fn reference_engine_is_exposed_and_distinct() {
    // Guard against the reference silently aliasing the production path: a
    // plain behavioural probe that both exist and both induce.
    let doc =
        wi_dom::parse_html(r#"<body><ul><li class="x">a</li><li class="x">b</li></ul></body>"#)
            .unwrap();
    let targets = doc.elements_by_class("x");
    let sample = Sample::from_root(&doc, &targets);
    let config = InductionConfig::default();
    let a = induce(&[sample], &config);
    let b = induce_reference(&[sample], &config);
    assert!(!a.is_empty() && !b.is_empty());
    assert_eq!(wi_xpath::evaluate(&a[0].query, &doc, doc.root()), targets);
    let _: &Query = &b[0].query;
}
