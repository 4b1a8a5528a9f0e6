//! Integration tests of the unified extraction-service surface: the
//! `Extractor` trait over every wrapper kind, `WrapperBundle` persistence,
//! expression-text round-tripping and the parallel batch engine.

use proptest::prelude::*;
use wrapper_induction::baselines::weir::WeirPage;
use wrapper_induction::baselines::{
    CanonicalWrapper, ChangeModel, DevtoolsWrapper, TreeEditInducer, WeirInducer,
};
use wrapper_induction::induction::config::TextPolicy;
use wrapper_induction::prelude::*;
use wrapper_induction::webgen::{datasets, Day, PageKind, Site, TargetRole, Vertical, WrapperTask};

fn template_config(task: &WrapperTask, k: usize) -> InductionConfig {
    InductionConfig::default()
        .with_k(k)
        .with_text_policy(TextPolicy::TemplateOnly(task.template_labels(Day(0))))
}

/// Every wrapper kind — ours, the ensemble and all four baselines — drives
/// through the same `Extractor` interface and selects exactly the annotated
/// targets on its induction page.
#[test]
fn every_wrapper_kind_extracts_through_the_unified_interface() {
    let task = &datasets::single_node_tasks(1)[0];
    let (doc, targets) = task.page_with_targets(Day(0));
    assert_eq!(targets.len(), 1);

    let induced = WrapperInducer::new(template_config(task, 5))
        .try_induce_best(&doc, &targets)
        .expect("induction succeeds");
    let ensemble = WrapperEnsemble::induce_single(&doc, &targets);
    let canonical = CanonicalWrapper::induce(&doc, &targets);
    let devtools = DevtoolsWrapper::induce(&doc, &targets);
    let treeedit = TreeEditInducer::new(ChangeModel::default(), 5).induce_wrapper(&doc, &targets);

    let group = &datasets::hotel_corpus(1, 5)[0];
    let day = Day::from_ymd(2012, 1, 1);
    let pages: Vec<(Document, Vec<NodeId>)> =
        group.iter().map(|t| t.page_with_targets(day)).collect();
    let weir_input: Vec<WeirPage<'_>> = pages
        .iter()
        .map(|(doc, targets)| WeirPage {
            doc,
            target: targets[0],
        })
        .collect();
    let weir = WeirInducer::default().induce_wrapper(&weir_input);

    let extractors: Vec<(&str, &dyn Extractor)> = vec![
        ("induced", &induced),
        ("ensemble", &ensemble),
        ("canonical", &canonical),
        ("devtools", &devtools),
        ("treeedit", &treeedit),
    ];
    for (name, extractor) in extractors {
        assert_eq!(
            extractor.extract(&doc, doc.root()).unwrap(),
            targets,
            "{name} missed the targets"
        );
        assert!(
            !extractor.describe().is_empty(),
            "{name} has no description"
        );
    }
    // WEIR extracts on its own (same-template) corpus.
    assert_eq!(
        weir.extract(&pages[0].0, pages[0].0.root()).unwrap(),
        pages[0].1,
        "weir missed its target"
    );
}

/// The batch engine, over well more than 100 webgen documents: the parallel
/// default must return exactly what the sequential reference path returns,
/// in input order.
#[test]
fn batch_extraction_matches_sequential_over_many_documents() {
    let task = &datasets::single_node_tasks(1)[0];
    let (doc, targets) = task.page_with_targets(Day(0));
    let wrapper = WrapperInducer::new(template_config(task, 5))
        .try_induce_best(&doc, &targets)
        .expect("induction succeeds");

    // 120 distinct page versions: 40 snapshot days across 3 pages of the site.
    let mut docs: Vec<Document> = Vec::new();
    for page in 0..3 {
        for step in 0..40 {
            docs.push(task.site.render(page, Day(step * 50), task.kind));
        }
    }
    assert!(docs.len() >= 100);

    let parallel = wrapper.extract_batch(&docs);
    let sequential = wrapper.extract_batch_sequential(&docs);
    assert_eq!(parallel.len(), docs.len());
    assert_eq!(parallel, sequential);
    // The wrapper keeps extracting on at least the induction-day versions.
    assert!(
        parallel
            .iter()
            .filter(|r| r.as_ref().is_ok_and(|n| !n.is_empty()))
            .count()
            > 0
    );

    // The same batch driven through a trait object (the service shape).
    let dynamic: &dyn Extractor = &wrapper;
    assert_eq!(dynamic.extract_batch(&docs), sequential);
}

/// Induce → save JSON → load → extract: the bundle artifact round-trips and
/// the reloaded wrapper behaves identically across page versions.
#[test]
fn bundle_save_load_extracts_identically() {
    let task = &datasets::single_node_tasks(2)[1];
    let (doc, targets) = task.page_with_targets(Day(0));
    let config = template_config(task, 5);
    let wrapper = WrapperInducer::new(config.clone())
        .try_induce_best(&doc, &targets)
        .expect("induction succeeds");
    let bundle = WrapperBundle::from_wrapper(&wrapper, config.params.clone()).with_label(task.id());

    let path = std::env::temp_dir().join(format!(
        "wi-extractor-api-{}-{}.json",
        std::process::id(),
        task.site.seed
    ));
    bundle.save_json(&path).expect("bundle saves");
    let reloaded = WrapperBundle::load_json(&path).expect("bundle loads");
    std::fs::remove_file(&path).ok();

    assert_eq!(reloaded.label.as_deref(), Some(task.id().as_str()));
    // Identical extraction on the induction page and on later versions.
    for step in 0..8 {
        let snapshot = task
            .site
            .render(task.page_index, Day(step * 150), task.kind);
        assert_eq!(
            reloaded.extract(&snapshot, snapshot.root()),
            wrapper.extract(&snapshot, snapshot.root()),
            "bundle diverged on day {}",
            step * 150
        );
    }
}

/// An ensemble bundle reloads with the same members, votes and agreement.
#[test]
fn ensemble_bundle_round_trips() {
    let task = &datasets::multi_node_tasks(1)[0];
    let (doc, targets) = task.page_with_targets(Day(0));
    let ensemble = WrapperEnsemble::induce_single(&doc, &targets);
    assert!(!ensemble.is_empty());
    let bundle = WrapperBundle::from_ensemble(&ensemble, ScoringParams::paper_defaults());
    let reloaded = WrapperBundle::from_json_str(&bundle.to_json_string())
        .expect("bundle parses")
        .to_ensemble();
    assert_eq!(reloaded.expressions(), ensemble.expressions());
    assert_eq!(reloaded.votes(&doc), ensemble.votes(&doc));
    assert_eq!(reloaded.extract_majority(&doc), targets);
    assert_eq!(reloaded.agreement(&doc), ensemble.agreement(&doc));
}

/// A page generator mirroring the webgen sites, small enough for a
/// property-test inner loop: one labelled list with `n` items plus chrome.
fn arb_task() -> impl Strategy<Value = (u64, usize)> {
    (0u64..400, 2usize..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The wrapper round trip demanded by production storage: rendering the
    /// induced wrapper to its textual expression, re-parsing it with
    /// `parse_query` and extracting selects exactly the same nodes as the
    /// original wrapper object, on generated webgen pages.
    #[test]
    fn expression_text_round_trips_on_webgen_pages((seed, page) in arb_task()) {
        let vertical = Vertical::ALL[(seed % Vertical::ALL.len() as u64) as usize];
        let task = WrapperTask::new(
            Site::new(vertical, 9000 + seed),
            page as u64,
            PageKind::Detail,
            if seed % 2 == 0 { TargetRole::PrimaryValue } else { TargetRole::ListTitles },
        );
        let (doc, targets) = task.page_with_targets(Day(0));
        if targets.is_empty() {
            return Ok(());
        }
        let ranked = WrapperInducer::new(template_config(&task, 3))
            .try_induce_single(&doc, &targets);
        let Ok(ranked) = ranked else { return Ok(()); };
        for instance in &ranked {
            let wrapper = Wrapper::new(instance.clone());
            let original = wrapper.extract(&doc, doc.root()).unwrap();
            // expression() → parse_query → extract
            let reparsed = parse_query(&wrapper.expression())
                .expect("induced expression re-parses");
            let roundtripped = reparsed.extract(&doc, doc.root()).unwrap();
            prop_assert_eq!(
                &roundtripped,
                &original,
                "round trip changed the selection of {}",
                wrapper.expression()
            );
        }
    }
}

/// Typed error paths surface through the whole stack.
#[test]
fn typed_errors_replace_silent_failures() {
    let doc = Document::parse("<body><p>x</p></body>").unwrap();
    let inducer = WrapperInducer::default();
    assert_eq!(
        inducer.try_induce_best(&doc, &[]).unwrap_err(),
        InduceError::NoTargets
    );
    let stale = NodeId::from_index(99_999);
    assert_eq!(
        inducer.try_induce_best(&doc, &[stale]).unwrap_err(),
        InduceError::MissingTarget(stale)
    );
    let empty = WrapperEnsemble::default();
    assert_eq!(
        empty.extract(&doc, doc.root()).unwrap_err(),
        ExtractError::EmptyWrapper
    );
    let q = parse_query("descendant::p").unwrap();
    assert_eq!(
        q.extract(&doc, stale).unwrap_err(),
        ExtractError::InvalidContext(stale)
    );
    // Errors are boxable as std errors.
    let boxed: Box<dyn std::error::Error> = Box::new(InduceError::NoTargets);
    assert!(boxed.to_string().contains("target"));
}
