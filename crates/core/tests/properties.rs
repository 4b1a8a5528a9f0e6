//! Property-based tests of the induction algorithms: structural guarantees
//! of the returned ranking, fragment membership of the induced expressions,
//! and the noise-resistance behaviour the fragment is designed to enforce.

use proptest::prelude::*;
use wi_dom::{Document, DocumentBuilder, NodeId};
use wi_induction::{Extractor, InductionConfig, WrapperEnsemble, WrapperInducer};
use wi_scoring::rank_order;
use wi_xpath::{evaluate, is_ds_xpath, is_plausible};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A random page with semantic markup, similar in shape to the documents the
/// paper's samples come from.
fn arb_document() -> impl Strategy<Value = Document> {
    prop::collection::vec((0usize..4, 0usize..6, 0usize..3, any::<bool>()), 1..30).prop_map(
        |rows| {
            let tags = ["div", "span", "ul", "li", "a", "h2"];
            let mut builder = DocumentBuilder::new();
            builder.open_element("html", &[]);
            builder.open_element("body", &[]);
            let base = builder.depth();
            for (i, (depth, tag, attr_choice, with_text)) in rows.iter().enumerate() {
                while builder.depth() > base + depth {
                    let _ = builder.close_element();
                }
                let id_value = format!("id{i}");
                let class_value = format!("cls{}", i % 5);
                let attrs: Vec<(&str, &str)> = match attr_choice {
                    0 => vec![],
                    1 => vec![("id", id_value.as_str())],
                    _ => vec![("class", class_value.as_str())],
                };
                builder.open_element(tags[*tag], &attrs);
                if *with_text {
                    builder.text(&format!("content {i}"));
                }
            }
            builder.finish_lenient()
        },
    )
}

/// A page containing one "main" list of `n` identically marked-up items plus
/// surrounding boilerplate (navigation, a sidebar list of a different shape,
/// and a footer).  Returns the document and the list-item target nodes.
fn list_page(n: usize) -> (Document, Vec<NodeId>) {
    let mut builder = DocumentBuilder::new();
    builder.open_element("html", &[]);
    builder.open_element("body", &[]);
    builder.open_element("div", &[("id", "nav"), ("class", "navigation")]);
    for i in 0..3 {
        let href = format!("/section{i}");
        builder.open_element("a", &[("href", href.as_str()), ("class", "nav-entry")]);
        builder.text(&format!("Section {i}"));
        let _ = builder.close_element();
    }
    let _ = builder.close_element();

    builder.open_element("div", &[("id", "results"), ("class", "main-results")]);
    builder.open_element("ul", &[("class", "result-list")]);
    for i in 0..n {
        builder.open_element("li", &[("class", "result-item")]);
        builder.open_element("span", &[("class", "result-title")]);
        builder.text(&format!("Result {i}"));
        let _ = builder.close_element();
        let _ = builder.close_element();
    }
    let _ = builder.close_element();
    let _ = builder.close_element();

    builder.open_element("div", &[("id", "sidebar"), ("class", "related")]);
    builder.open_element("p", &[("class", "promo")]);
    builder.text("Sponsored result");
    let _ = builder.close_element();
    let _ = builder.close_element();

    let doc = builder.finish_lenient();
    let targets = doc.elements_by_class("result-item");
    assert_eq!(targets.len(), n);
    (doc, targets)
}

fn element_targets(doc: &Document) -> Vec<NodeId> {
    doc.descendants(doc.root())
        .filter(|&n| doc.is_element(n))
        .collect()
}

// ---------------------------------------------------------------------------
// Structural guarantees of the returned ranking
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The induction returns at most K instances, sorted by the paper's
    /// ranking order, with distinct expressions, and every returned
    /// expression is plausible dsXPath for the sample document.
    #[test]
    fn rankings_are_sorted_bounded_and_within_the_fragment(
        doc in arb_document(),
        pick in any::<prop::sample::Index>(),
        k in 1usize..8,
    ) {
        let elements = element_targets(&doc);
        if elements.is_empty() {
            return Ok(());
        }
        let target = elements[pick.index(elements.len())];
        let inducer = WrapperInducer::with_k(k);
        let ranked = inducer.induce_single(&doc, &[target]);
        prop_assert!(!ranked.is_empty());
        prop_assert!(ranked.len() <= k, "returned {} > K = {k}", ranked.len());
        for pair in ranked.windows(2) {
            prop_assert_ne!(
                rank_order(&pair[0], &pair[1]),
                std::cmp::Ordering::Greater,
                "ranking not sorted: {} before {}",
                pair[0].query,
                pair[1].query
            );
        }
        let mut seen = std::collections::HashSet::new();
        for instance in &ranked {
            prop_assert!(seen.insert(instance.query.to_string()), "duplicate expression");
            prop_assert!(is_ds_xpath(&instance.query), "{} not dsXPath", instance.query);
            prop_assert!(is_plausible(&instance.query, &[&doc]), "{} not plausible", instance.query);
            // The reported counts match a re-evaluation of the expression.
            let result = evaluate(&instance.query, &doc, doc.root());
            let tp = result.iter().filter(|n| **n == target).count() as u32;
            prop_assert_eq!(instance.tp(), tp);
            prop_assert_eq!(instance.fp(), result.len() as u32 - tp);
        }
    }

    /// Induction with K = 1 returns exactly the top-ranked instance of a
    /// wider induction (the ranking prefix property).
    #[test]
    fn best_1_is_the_prefix_of_best_k(
        doc in arb_document(),
        pick in any::<prop::sample::Index>(),
    ) {
        let elements = element_targets(&doc);
        if elements.is_empty() {
            return Ok(());
        }
        let target = elements[pick.index(elements.len())];
        let top1 = WrapperInducer::with_k(1).induce_single(&doc, &[target]);
        let top5 = WrapperInducer::with_k(5).induce_single(&doc, &[target]);
        prop_assert_eq!(top1.len(), 1);
        prop_assert_eq!(
            top1[0].query.to_string(),
            top5[0].query.to_string(),
            "K=1 and K=5 disagree on the best instance"
        );
    }
}

// ---------------------------------------------------------------------------
// Accuracy and noise resistance on list pages
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On a clean multi-target sample over a realistic list page the induced
    /// top wrapper selects exactly the annotated items.
    #[test]
    fn multi_target_induction_is_exact_on_clean_lists(n in 2usize..9) {
        let (doc, targets) = list_page(n);
        let inducer = WrapperInducer::with_k(5);
        let top = inducer.try_induce_best(&doc, &targets).expect("a wrapper");
        prop_assert_eq!(top.extract_root(&doc).unwrap(), targets);
        prop_assert!(top.instance.is_exact());
    }

    /// Negative noise resistance: dropping one *middle* annotation from a
    /// list sample does not change what the induced wrapper selects — the
    /// fragment cannot express "all but the i-th item", so the wrapper
    /// generalises back to the full list (Section 6.4, N2 noise).
    #[test]
    fn missing_middle_annotations_are_generalised_away(n in 4usize..9, drop in 1usize..3) {
        let (doc, targets) = list_page(n);
        let drop_index = drop.min(n - 2); // never the first or last item
        let noisy: Vec<NodeId> = targets
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop_index)
            .map(|(_, &t)| t)
            .collect();
        let inducer = WrapperInducer::with_k(5);
        let clean_top = inducer.try_induce_best(&doc, &targets).expect("clean wrapper");
        let noisy_top = inducer.try_induce_best(&doc, &noisy).expect("noisy wrapper");
        prop_assert_eq!(
            noisy_top.extract_root(&doc).unwrap(),
            targets.clone(),
            "noisy induction no longer selects the full list"
        );
        prop_assert_eq!(noisy_top.expression(), clean_top.expression());
    }

    /// Positive noise resistance: adding one unrelated boilerplate node to
    /// the annotations does not drag it into the induced selection — the
    /// wrapper keeps selecting exactly the real list items (Section 6.4, N4
    /// noise).
    #[test]
    fn spurious_annotations_are_ignored(n in 4usize..9) {
        let (doc, targets) = list_page(n);
        let promo = doc.elements_by_class("promo")[0];
        let mut noisy = targets.clone();
        noisy.push(promo);
        doc.clone().sort_document_order(&mut noisy);
        let inducer = WrapperInducer::with_k(5);
        let top = inducer.try_induce_best(&doc, &noisy).expect("a wrapper");
        prop_assert_eq!(top.extract_root(&doc).unwrap(), targets);
    }

    /// Ensembles induced on list pages agree with the single-wrapper result
    /// under majority voting.
    #[test]
    fn ensembles_agree_with_single_wrappers_on_clean_lists(n in 2usize..7) {
        let (doc, targets) = list_page(n);
        let ensemble = WrapperEnsemble::induce_single(&doc, &targets);
        prop_assert!(!ensemble.is_empty());
        prop_assert_eq!(ensemble.extract_majority(&doc), targets);
        prop_assert_eq!(ensemble.agreement(&doc), 1.0);
    }

    /// Disabling sideways checks (the ablation discussed in Section 6.3)
    /// never improves the F-score of the top-ranked instance.
    #[test]
    fn sideways_ablation_never_improves_accuracy(n in 2usize..7) {
        let (doc, targets) = list_page(n);
        let with = WrapperInducer::new(InductionConfig::default().with_k(5))
            .induce_single(&doc, &targets);
        let without = WrapperInducer::new(InductionConfig::default().with_k(5).with_sideways(false))
            .induce_single(&doc, &targets);
        prop_assert!(!with.is_empty() && !without.is_empty());
        prop_assert!(without[0].f05() <= with[0].f05() + 1e-12);
    }
}
