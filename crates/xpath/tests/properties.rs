//! Property-based tests of the XPath engine: textual round-trips of randomly
//! generated queries, axis semantics on random documents, anchor tracking,
//! canonical paths and fragment classification.

use proptest::prelude::*;
use wi_dom::{Document, DocumentBuilder, NodeId};
use wi_xpath::{
    c_changes, canonical_path, canonical_step, evaluate, evaluate_with_anchors, is_ds_xpath,
    is_one_directional, is_plausible, parse_query, Axis, NodeTest, Predicate, Query, Step,
    StringFunction, TextSource,
};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A random document built from a pre-order row description.
fn arb_document() -> impl Strategy<Value = Document> {
    prop::collection::vec((0usize..4, 0usize..6, any::<bool>(), 0usize..3), 1..40).prop_map(
        |rows| {
            let tags = ["div", "span", "ul", "li", "a", "h2"];
            let mut builder = DocumentBuilder::new();
            builder.open_element("html", &[]);
            builder.open_element("body", &[]);
            let base = builder.depth();
            for (i, (depth, tag, has_id, text_choice)) in rows.iter().enumerate() {
                while builder.depth() > base + depth {
                    let _ = builder.close_element();
                }
                let id_value = format!("n{i}");
                let class_value = format!("c{}", i % 4);
                let attrs: Vec<(&str, &str)> = if *has_id {
                    vec![("id", id_value.as_str()), ("class", class_value.as_str())]
                } else {
                    vec![("class", class_value.as_str())]
                };
                builder.open_element(tags[*tag], &attrs);
                if *text_choice > 0 {
                    builder.text(&format!("text {i}"));
                }
            }
            builder.finish_lenient()
        },
    )
}

fn arb_tag() -> impl Strategy<Value = NodeTest> {
    prop_oneof![
        Just(NodeTest::AnyElement),
        Just(NodeTest::AnyNode),
        Just(NodeTest::Text),
        prop::sample::select(vec!["div", "span", "li", "a", "input", "h1"]).prop_map(NodeTest::tag),
    ]
}

fn arb_axis() -> impl Strategy<Value = Axis> {
    prop::sample::select(vec![
        Axis::Child,
        Axis::Descendant,
        Axis::Parent,
        Axis::Ancestor,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
    ])
}

fn arb_value() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,6}( [a-z]{1,5})?".prop_map(|s| s)
}

fn arb_attr_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["id", "class", "itemprop", "href", "title", "rel"])
        .prop_map(String::from)
}

fn arb_source() -> impl Strategy<Value = TextSource> {
    prop_oneof![
        arb_attr_name().prop_map(TextSource::Attribute),
        Just(TextSource::NormalizedText),
    ]
}

fn arb_function() -> impl Strategy<Value = StringFunction> {
    prop::sample::select(StringFunction::ALL.to_vec())
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (1u32..20).prop_map(Predicate::Position),
        (0u32..5).prop_map(Predicate::LastOffset),
        arb_attr_name().prop_map(Predicate::HasAttribute),
        (arb_function(), arb_source(), arb_value()).prop_map(|(func, source, value)| {
            Predicate::StringCompare {
                func,
                source,
                value,
            }
        }),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        arb_axis(),
        arb_tag(),
        prop::collection::vec(arb_predicate(), 0..3),
    )
        .prop_map(|(axis, test, predicates)| Step {
            axis,
            test,
            predicates,
        })
}

fn arb_query() -> impl Strategy<Value = Query> {
    (any::<bool>(), prop::collection::vec(arb_step(), 1..4))
        .prop_map(|(absolute, steps)| Query { absolute, steps })
}

fn elements(doc: &Document, context: NodeId) -> Vec<NodeId> {
    doc.descendants(context)
        .filter(|&n| doc.is_element(n))
        .collect()
}

/// Copies `doc` through a [`DocumentBuilder`], with an extra empty `div` as
/// the first child of every `body`.  Returns the copy and, per node id of
/// `doc`, the id of its counterpart in the copy.
fn rebuild_with_leading_div(doc: &Document) -> (Document, Vec<NodeId>) {
    fn copy(doc: &Document, n: NodeId, b: &mut DocumentBuilder, moved: &mut [NodeId]) {
        match doc.tag_name(n) {
            Some(tag) => {
                moved[n.index()] = b.open_element_with(tag, doc.attributes(n).to_vec());
                if tag == "body" {
                    b.void_element("div", &[]);
                }
                for c in doc.children(n) {
                    copy(doc, c, b, moved);
                }
                b.close_element().unwrap();
            }
            None => moved[n.index()] = b.text(doc.text_content(n).unwrap_or_default()),
        }
    }
    let mut b = DocumentBuilder::new();
    let mut moved = vec![doc.root(); doc.len()];
    for c in doc.children(doc.root()) {
        copy(doc, c, &mut b, &mut moved);
    }
    (b.finish().unwrap(), moved)
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Parsing the printed form of an arbitrary query reproduces the query.
    #[test]
    fn printed_queries_parse_back_to_themselves(q in arb_query()) {
        let text = q.to_string();
        let reparsed = parse_query(&text)
            .unwrap_or_else(|e| panic!("failed to reparse {text:?}: {e}"));
        prop_assert_eq!(q, reparsed);
    }

    /// `descendant::*` from the root selects exactly the element descendants,
    /// in document order, and equals the one-step closure of `child`.
    #[test]
    fn descendant_axis_is_the_closure_of_child(doc in arb_document()) {
        let root = doc.root();
        let by_descendant = evaluate(&parse_query("descendant::*").unwrap(), &doc, root);
        prop_assert_eq!(&by_descendant, &elements(&doc, root));

        let direct = evaluate(&parse_query("child::*").unwrap(), &doc, root);
        let nested = evaluate(&parse_query("child::*/descendant::*").unwrap(), &doc, root);
        let mut union: Vec<NodeId> = direct.into_iter().chain(nested).collect();
        doc.sort_document_order(&mut union);
        union.dedup();
        prop_assert_eq!(by_descendant, union);
    }

    /// `parent::node()` inverts `child::*`.
    #[test]
    fn parent_inverts_child(doc in arb_document()) {
        let parent_query = parse_query("parent::node()").unwrap();
        for node in elements(&doc, doc.root()).into_iter().take(30) {
            let parents = evaluate(&parent_query, &doc, node);
            prop_assert_eq!(parents, vec![doc.parent(node).unwrap()]);
            for child in evaluate(&parse_query("child::node()").unwrap(), &doc, node) {
                prop_assert_eq!(doc.parent(child), Some(node));
            }
        }
    }

    /// The ancestor axis returns exactly the parent chain.
    #[test]
    fn ancestor_axis_matches_the_parent_chain(doc in arb_document()) {
        let ancestor_query = parse_query("ancestor::node()").unwrap();
        for node in elements(&doc, doc.root()).into_iter().take(30) {
            let mut expected: Vec<NodeId> = doc.ancestors(node).collect();
            doc.sort_document_order(&mut expected);
            prop_assert_eq!(evaluate(&ancestor_query, &doc, node), expected);
        }
    }

    /// The sibling axes select disjoint node sets that together with the
    /// context node reconstruct the parent's children.
    #[test]
    fn sibling_axes_partition_the_parents_children(doc in arb_document()) {
        let following = parse_query("following-sibling::node()").unwrap();
        let preceding = parse_query("preceding-sibling::node()").unwrap();
        for node in elements(&doc, doc.root()).into_iter().take(30) {
            let Some(parent) = doc.parent(node) else { continue };
            let after = evaluate(&following, &doc, node);
            let before = evaluate(&preceding, &doc, node);
            prop_assert!(after.iter().all(|n| !before.contains(n)));
            let mut all: Vec<NodeId> = before.into_iter().chain([node]).chain(after).collect();
            doc.sort_document_order(&mut all);
            let children: Vec<NodeId> = doc.children(parent).collect();
            prop_assert_eq!(all, children);
        }
    }

    /// A positional predicate `[1]` on the child axis selects the first
    /// matching child, and `[last()]` the last one.
    #[test]
    fn positional_predicates_select_the_expected_children(doc in arb_document()) {
        let first = parse_query("child::*[1]").unwrap();
        let last = parse_query("child::*[last()]").unwrap();
        for node in elements(&doc, doc.root()).into_iter().take(30) {
            let children: Vec<NodeId> = doc.element_children(node).collect();
            let expected_first: Vec<NodeId> = children.first().copied().into_iter().collect();
            let expected_last: Vec<NodeId> = children.last().copied().into_iter().collect();
            prop_assert_eq!(evaluate(&first, &doc, node), expected_first);
            prop_assert_eq!(evaluate(&last, &doc, node), expected_last);
        }
    }

    /// Attribute predicates agree with the DOM's attribute accessors.
    #[test]
    fn attribute_predicates_agree_with_the_dom(doc in arb_document()) {
        let with_id = evaluate(&parse_query("descendant::*[@id]").unwrap(), &doc, doc.root());
        let expected: Vec<NodeId> = elements(&doc, doc.root())
            .into_iter()
            .filter(|&n| doc.has_attribute(n, "id"))
            .collect();
        prop_assert_eq!(with_id, expected);
    }

    /// `evaluate_with_anchors` is consistent with `evaluate`: same final
    /// result, one intermediate node set per step, anchors drawn from the
    /// intermediate sets.
    #[test]
    fn anchor_tracking_is_consistent_with_plain_evaluation(doc in arb_document(), q in arb_query()) {
        let root = doc.root();
        let output = evaluate_with_anchors(&q, &doc, root);
        prop_assert_eq!(&output.result, &evaluate(&q, &doc, root));
        prop_assert_eq!(output.after_step.len(), q.steps.len());
        if let Some(last) = output.after_step.last() {
            prop_assert_eq!(last, &output.result);
        }
        let anchors = output.anchors(&doc);
        for anchor in &anchors {
            prop_assert!(
                output.after_step.iter().any(|set| set.contains(anchor)),
                "anchor not drawn from an intermediate step"
            );
        }
    }

    /// Queries evaluated from the root select only nodes of the document and
    /// never contain duplicates.
    #[test]
    fn evaluation_results_are_live_and_deduplicated(doc in arb_document(), q in arb_query()) {
        let result = evaluate(&q, &doc, doc.root());
        let mut seen = std::collections::HashSet::new();
        for node in &result {
            prop_assert!(doc.contains(*node));
            prop_assert!(seen.insert(*node), "duplicate node in result");
        }
    }

    /// Canonical paths: the canonical step selects exactly the node from its
    /// parent, and the canonical path is absolute, positional dsXPath.
    #[test]
    fn canonical_steps_and_paths_are_exact(doc in arb_document()) {
        for node in elements(&doc, doc.root()).into_iter().take(25) {
            let parent = doc.parent(node).unwrap();
            let step = canonical_step(&doc, node);
            let one_step = Query::new(vec![step]);
            prop_assert_eq!(evaluate(&one_step, &doc, parent), vec![node]);

            let path = canonical_path(&doc, node);
            prop_assert!(path.absolute);
            prop_assert!(is_ds_xpath(&path), "canonical path {} not dsXPath", path);
            prop_assert!(is_one_directional(&path));
            prop_assert_eq!(evaluate(&path, &doc, doc.root()), vec![node]);
        }
    }

    /// A sequence of identical snapshots has zero c-changes; prepending a
    /// version in which the node sits elsewhere yields at least one.
    #[test]
    fn c_changes_count_canonical_path_breaks(doc in arb_document()) {
        let Some(node) = elements(&doc, doc.root()).pop() else { return Ok(()) };
        let same = vec![(&doc, node), (&doc, node), (&doc, node)];
        prop_assert_eq!(c_changes(&same), 0);

        // Rebuild the page with a new first child of the body: the
        // canonical path of a first-generation child changes position.
        let (changed, moved) = rebuild_with_leading_div(&doc);
        let node_changed = moved[node.index()];
        let canon = canonical_path(&doc, node);
        let still_same = evaluate(&canon, &changed, changed.root()) == vec![node_changed];
        let pair = vec![(&doc, node), (&changed, node_changed)];
        if still_same {
            prop_assert_eq!(c_changes(&pair), 0);
        } else {
            prop_assert_eq!(c_changes(&pair), 1);
        }
    }

    /// Plausibility: string constants that do not occur in the document make
    /// a query implausible, constants harvested from the document keep it
    /// plausible.
    #[test]
    fn plausibility_tracks_document_content(doc in arb_document()) {
        let bogus = parse_query(r#"descendant::div[@id="zzz-not-in-any-document"]"#).unwrap();
        prop_assert!(!is_plausible(&bogus, &[&doc]));
        if let Some(node) = elements(&doc, doc.root())
            .into_iter()
            .find(|&n| doc.attribute(n, "id").is_some())
        {
            let id = doc.attribute(node, "id").unwrap();
            let q = parse_query(&format!(r#"descendant::*[@id="{id}"]"#)).unwrap();
            prop_assert!(is_plausible(&q, &[&doc]));
        }
    }

    /// Fragment classification: queries built only from downward axes are
    /// one-directional dsXPath; adding an upward step after a downward step
    /// leaves the dsXPath fragment.
    #[test]
    fn downward_queries_are_one_directional(steps in prop::collection::vec(
        (prop::sample::select(vec![Axis::Child, Axis::Descendant]), arb_tag()),
        1..4,
    )) {
        let query = Query::new(
            steps
                .into_iter()
                .map(|(axis, test)| Step::new(axis, test))
                .collect(),
        );
        prop_assert!(is_one_directional(&query));
        prop_assert!(is_ds_xpath(&query));

        let mut mixed = query.clone();
        mixed.steps.push(Step::new(Axis::Parent, NodeTest::AnyNode));
        mixed.steps.push(Step::new(Axis::Child, NodeTest::AnyNode));
        prop_assert!(!is_one_directional(&mixed));
    }

    /// The short-circuited `reachable_via` agrees with materializing the
    /// transitive axis and testing membership, for every axis and a sample
    /// of node pairs.
    #[test]
    fn reachability_short_circuit_agrees_with_materialization(doc in arb_document()) {
        use wi_xpath::eval::{axis_nodes, reachable_via};
        let nodes: Vec<NodeId> = doc.descendants_or_self(doc.root()).collect();
        let axes = [
            Axis::Child, Axis::Parent, Axis::FollowingSibling, Axis::PrecedingSibling,
            Axis::Descendant, Axis::Ancestor, Axis::DescendantOrSelf, Axis::AncestorOrSelf,
            Axis::Following, Axis::Preceding, Axis::SelfAxis, Axis::Attribute,
        ];
        for (i, &context) in nodes.iter().enumerate().step_by(3) {
            let target = nodes[(i * 11 + 5) % nodes.len()];
            for axis in axes {
                let expected = axis_nodes(axis.transitive(), &doc, context).contains(&target);
                prop_assert_eq!(
                    reachable_via(axis, &doc, context, target),
                    expected,
                    "axis {} from {} to {}", axis, context, target
                );
            }
        }
    }

    /// `evaluate_with` (buffer reuse across many queries) returns exactly
    /// what a fresh `evaluate` returns.
    #[test]
    fn buffer_reuse_matches_fresh_evaluation(doc in arb_document(), queries in prop::collection::vec(arb_query(), 1..6)) {
        let mut cx = wi_xpath::EvalContext::new();
        for q in &queries {
            prop_assert_eq!(
                wi_xpath::evaluate_with(&mut cx, q, &doc, doc.root()),
                evaluate(q, &doc, doc.root())
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Interning semantics: the evaluator resolves tag and attribute needles to
// document symbols; these properties pin down that symbol resolution is
// unobservable — including for needles that are absent from the document's
// interner, which must behave exactly like present-but-unmatched needles.
// ---------------------------------------------------------------------------

/// Pure string-comparison reference for one non-positional predicate.
fn string_pred_matches(doc: &Document, node: NodeId, pred: &Predicate) -> bool {
    match pred {
        Predicate::HasAttribute(name) => {
            doc.attributes(node).iter().any(|a| a.name == name.as_str())
        }
        Predicate::StringCompare {
            func,
            source,
            value,
        } => match source {
            TextSource::Attribute(name) => doc
                .attributes(node)
                .iter()
                .find(|a| a.name == name.as_str())
                .is_some_and(|a| func.apply(&a.value, value)),
            TextSource::NormalizedText => func.apply(&doc.normalized_text(node), value),
        },
        _ => unreachable!("reference covers filter predicates only"),
    }
}

/// Pure string-comparison reference for a node test on the descendant axis.
fn string_test_matches(doc: &Document, node: NodeId, test: &NodeTest) -> bool {
    match test {
        NodeTest::AnyElement => doc.is_element(node),
        NodeTest::AnyNode => true,
        NodeTest::Text => doc.is_text(node),
        NodeTest::Tag(tag) => doc.tag_name(node) == Some(tag.as_str()),
    }
}

fn arb_filter_predicate() -> impl Strategy<Value = Predicate> {
    let needle = prop_oneof![
        arb_value(),
        // Values guaranteed to be absent from every generated document: the
        // interner miss path must be indistinguishable from a non-match.
        Just("zz-absent-needle".to_string()),
        Just(String::new()),
    ];
    prop_oneof![
        arb_attr_name().prop_map(Predicate::HasAttribute),
        Just(Predicate::HasAttribute("data-absent".into())),
        (arb_function(), arb_source(), needle).prop_map(|(func, source, value)| {
            Predicate::StringCompare {
                func,
                source,
                value,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `descendant::<test>[preds…]` through the symbol-resolving evaluator
    /// selects exactly the nodes a pure string-comparison reference keeps —
    /// for present tags, absent tags, and needles the interner has never
    /// seen.
    #[test]
    fn symbol_resolution_matches_string_reference(
        doc in arb_document(),
        test in prop_oneof![
            arb_tag(),
            Just(NodeTest::tag("table")), // never generated: absent from the interner
        ],
        preds in prop::collection::vec(arb_filter_predicate(), 0..3),
    ) {
        let step = Step { axis: Axis::Descendant, test: test.clone(), predicates: preds.clone() };
        let selected = evaluate(&Query::new(vec![step]), &doc, doc.root());
        let expected: Vec<NodeId> = doc
            .descendants(doc.root())
            .filter(|&n| string_test_matches(&doc, n, &test))
            .filter(|&n| preds.iter().all(|p| string_pred_matches(&doc, n, p)))
            .collect();
        prop_assert_eq!(selected, expected);
    }

    /// The shared-prefix (trie) evaluator returns byte-identical node sets
    /// to the naive evaluator for every query of a random batch, and every
    /// prefix set equals evaluating the truncated query.
    #[test]
    fn prefix_evaluator_matches_fresh_evaluation(
        doc in arb_document(),
        queries in prop::collection::vec(arb_query(), 1..8),
    ) {
        let mut shared = wi_xpath::PrefixEvaluator::new(&doc);
        for q in &queries {
            prop_assert_eq!(
                shared.evaluate(doc.root(), q),
                &evaluate(q, &doc, doc.root())[..],
                "{}", q
            );
            for len in 0..=q.steps.len() {
                let truncated = Query { absolute: q.absolute, steps: q.steps[..len].to_vec() };
                prop_assert_eq!(
                    shared.evaluate_prefix(doc.root(), q, len),
                    &evaluate(&truncated, &doc, doc.root())[..],
                    "{} at prefix {}", q, len
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The manual renderer used by induction's hot paths is byte-identical
    /// to the `Display` implementation for every expressible query.
    #[test]
    fn rendering_matches_display(q in arb_query()) {
        prop_assert_eq!(q.render(), q.to_string());
        // And steps render identically inside larger queries (nested paths).
        let nested = Query::new(vec![Step {
            axis: Axis::Descendant,
            test: NodeTest::tag("div"),
            predicates: vec![Predicate::Path(q.clone())],
        }]);
        prop_assert_eq!(nested.render(), nested.to_string());
    }
}
