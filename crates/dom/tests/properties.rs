//! Property-based tests of the DOM substrate: structural invariants of the
//! arena tree, navigation, document order, hashing and serialization.

use proptest::prelude::*;
use wi_dom::document::normalize_space;
use wi_dom::{
    parse_html, structural_hash, subtree_equal, to_html, Document, DocumentBuilder, NodeId,
    ParseOptions,
};

/// A compact description of a random tree: rows of
/// `(depth, tag index, attribute choice, text choice)` interpreted in
/// pre-order by a [`DocumentBuilder`].
fn arb_document() -> impl Strategy<Value = Document> {
    prop::collection::vec((0usize..5, 0usize..7, 0usize..4, 0usize..4), 1..60).prop_map(|rows| {
        // Only tags without HTML implied-end-tag rules: nesting any of these
        // inside itself survives a serialize → parse round trip unchanged.
        let tags = ["div", "span", "section", "ul", "article", "a", "h2"];
        let mut builder = DocumentBuilder::new();
        builder.open_element("html", &[]);
        builder.open_element("body", &[]);
        let base = builder.depth();
        for (i, (depth, tag, attr_choice, text_choice)) in rows.iter().enumerate() {
            while builder.depth() > base + depth {
                let _ = builder.close_element();
            }
            let id_value = format!("n{i}");
            let class_value = format!("c{}", attr_choice);
            let attrs: Vec<(&str, &str)> = match attr_choice {
                0 => vec![],
                1 => vec![("id", id_value.as_str())],
                2 => vec![("class", class_value.as_str())],
                _ => vec![("id", id_value.as_str()), ("class", class_value.as_str())],
            };
            builder.open_element(tags[*tag], &attrs);
            if *text_choice > 0 {
                builder.text(&format!("text {i} {text_choice}"));
            }
        }
        builder.finish_lenient()
    })
}

/// A random tree whose text nodes are drawn from whitespace-heavy pieces
/// (ASCII runs, NBSP, U+3000, empty and blank strings), several per
/// element, so whitespace runs cross text-node and element boundaries.
fn arb_spaced_document() -> impl Strategy<Value = Document> {
    const PIECES: [&str; 10] = [
        "",
        " ",
        "a",
        "b c",
        " d ",
        "\t\n",
        "e\u{a0}",
        "\u{3000}f",
        "  g  h",
        "i\r\n ",
    ];
    prop::collection::vec(
        (0usize..4, prop::collection::vec(0..PIECES.len(), 0..4)),
        1..40,
    )
    .prop_map(|rows| {
        let mut builder = DocumentBuilder::new();
        builder.open_element("body", &[]);
        let base = builder.depth();
        for (depth, pieces) in rows {
            while builder.depth() > base + depth {
                let _ = builder.close_element();
            }
            builder.open_element("div", &[]);
            for p in pieces {
                builder.text(PIECES[p]);
            }
        }
        builder.finish_lenient()
    })
}

/// Asserts that the text index agrees with the independent oracle
/// `normalize_space(&text_value(n))` on every node.
fn check_index_against_oracle(doc: &Document) -> Result<(), TestCaseError> {
    for node in all_nodes(doc) {
        let oracle = normalize_space(&doc.text_value(node));
        prop_assert_eq!(doc.normalized_str(node), oracle.as_str(), "node {:?}", node);
    }
    Ok(())
}

/// All nodes of a document in document order.
fn all_nodes(doc: &Document) -> Vec<NodeId> {
    doc.descendants_or_self(doc.root()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every non-root node's parent lists it among its children, and every
    /// child's parent is the node it was listed under.
    #[test]
    fn parent_child_links_are_consistent(doc in arb_document()) {
        for node in all_nodes(&doc) {
            for child in doc.children(node) {
                prop_assert_eq!(doc.parent(child), Some(node));
            }
            if let Some(parent) = doc.parent(node) {
                let children: Vec<NodeId> = doc.children(parent).collect();
                prop_assert!(children.contains(&node));
            } else {
                prop_assert_eq!(node, doc.root());
            }
        }
    }

    /// first_child / last_child / next_sibling / prev_sibling agree with the
    /// children iterator.
    #[test]
    fn sibling_links_agree_with_children_iterator(doc in arb_document()) {
        for node in all_nodes(&doc) {
            let children: Vec<NodeId> = doc.children(node).collect();
            prop_assert_eq!(doc.first_child(node), children.first().copied());
            prop_assert_eq!(doc.last_child(node), children.last().copied());
            for pair in children.windows(2) {
                prop_assert_eq!(doc.next_sibling(pair[0]), Some(pair[1]));
                prop_assert_eq!(doc.prev_sibling(pair[1]), Some(pair[0]));
            }
            if let Some(&first) = children.first() {
                prop_assert_eq!(doc.prev_sibling(first), None);
            }
            if let Some(&last) = children.last() {
                prop_assert_eq!(doc.next_sibling(last), None);
            }
        }
    }

    /// The descendants of a node are exactly the node's children plus their
    /// descendants (and the count matches).
    #[test]
    fn descendant_counts_decompose_over_children(doc in arb_document()) {
        for node in all_nodes(&doc) {
            let direct: usize = doc.children(node).count();
            let nested: usize = doc
                .children(node)
                .map(|c| doc.descendants(c).count())
                .sum();
            prop_assert_eq!(doc.descendants(node).count(), direct + nested);
        }
    }

    /// Following and preceding siblings partition the parent's other
    /// children.
    #[test]
    fn sibling_axes_partition_the_parents_children(doc in arb_document()) {
        for node in all_nodes(&doc) {
            let Some(parent) = doc.parent(node) else { continue };
            let mut preceding: Vec<NodeId> = doc.preceding_siblings(node).collect();
            preceding.reverse();
            let following: Vec<NodeId> = doc.following_siblings(node).collect();
            let mut reconstructed = preceding;
            reconstructed.push(node);
            reconstructed.extend(following);
            let children: Vec<NodeId> = doc.children(parent).collect();
            prop_assert_eq!(reconstructed, children);
        }
    }

    /// Ancestors of every node end at the document root and are consistent
    /// with repeated `parent` calls.
    #[test]
    fn ancestors_chain_to_the_root(doc in arb_document()) {
        for node in all_nodes(&doc) {
            let ancestors: Vec<NodeId> = doc.ancestors(node).collect();
            let mut walked = Vec::new();
            let mut current = node;
            while let Some(p) = doc.parent(current) {
                walked.push(p);
                current = p;
            }
            prop_assert_eq!(&ancestors, &walked);
            if node != doc.root() {
                prop_assert_eq!(ancestors.last().copied(), Some(doc.root()));
            }
        }
    }

    /// `sort_document_order` sorts pre-order traversal positions: sorting a
    /// shuffled copy of the descendants reproduces the iterator order, and
    /// sorting is idempotent.
    #[test]
    fn document_order_sorting_matches_preorder(doc in arb_document(), seed in any::<u64>()) {
        let order: Vec<NodeId> = all_nodes(&doc);
        let mut shuffled = order.clone();
        // Deterministic Fisher–Yates driven by the seed.
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut sorted = shuffled;
        doc.sort_document_order(&mut sorted);
        prop_assert_eq!(&sorted, &order);
        let mut again = sorted.clone();
        doc.sort_document_order(&mut again);
        prop_assert_eq!(again, sorted);
    }

    /// Serialize → parse preserves the structural hash of the root element
    /// and subtree equality.
    #[test]
    fn serialization_roundtrip_preserves_structure(doc in arb_document()) {
        let html = to_html(&doc);
        let reparsed = parse_html(&html).unwrap();
        let a = doc.root_element().unwrap();
        let b = reparsed.root_element().unwrap();
        prop_assert_eq!(structural_hash(&doc, a), structural_hash(&reparsed, b));
        prop_assert!(subtree_equal(&doc, a, &reparsed, b));
    }

    /// Parser → serializer → parser is a fixpoint that preserves document
    /// order, the tag index and all text content, for every [`ParseOptions`]
    /// variation.  This is the invariant the maintenance replay loop relies
    /// on: a wrapper verified against a re-parsed snapshot must see exactly
    /// the tree the original snapshot had.
    #[test]
    fn parse_serialize_parse_preserves_order_tags_and_text(doc in arb_document()) {
        let html = to_html(&doc);
        let variations = [
            ParseOptions::default(),
            ParseOptions { skip_whitespace_text: false, ..Default::default() },
            ParseOptions { lowercase_names: false, ..Default::default() },
            ParseOptions { decode_entities: false, ..Default::default() },
        ];
        // The generated documents use lowercase tags and entity-free text, so
        // every option variation must converge to the same tree (compact
        // serialization emits no inter-element whitespace for
        // `skip_whitespace_text` to disagree on).
        for options in variations {
            let reparsed = Document::parse_with(&html, options).unwrap();

            // Document order: the pre-order signature (tag names and text
            // payloads, in index order) is identical.
            let signature = |d: &Document| -> Vec<String> {
                d.descendants(d.root())
                    .map(|n| match d.tag_name(n) {
                        Some(t) => format!("<{t}>"),
                        None => d.text_content(n).unwrap_or_default().to_string(),
                    })
                    .collect()
            };
            prop_assert_eq!(signature(&doc), signature(&reparsed));

            // Tag index: same tags, same per-tag counts, and each tag list in
            // the same relative document order (checked via the pre-order
            // positions of the order index).
            for tag in ["html", "body", "div", "span", "section", "ul", "article", "a", "h2"] {
                let original = doc.elements_by_tag(tag);
                let round_tripped = reparsed.elements_by_tag(tag);
                prop_assert_eq!(original.len(), round_tripped.len(), "tag {} count", tag);
                let walked: Vec<NodeId> = all_nodes(&reparsed);
                let positions: Vec<usize> = round_tripped
                    .iter()
                    .map(|n| walked.iter().position(|w| w == n).expect("in the tree"))
                    .collect();
                prop_assert!(positions.windows(2).all(|w| w[0] < w[1]));
            }

            // Text content survives (string-value of the whole tree).
            prop_assert_eq!(
                doc.normalized_text(doc.root()),
                reparsed.normalized_text(reparsed.root())
            );

            // And the round trip is a fixpoint: serializing the re-parsed
            // tree reproduces the markup byte for byte.
            prop_assert_eq!(&to_html(&reparsed), &html);
        }

        // A pretty-printed serialization parses back to the same element
        // structure under the default (whitespace-skipping) options.
        let pretty = wi_dom::serializer::to_html_with(
            &doc,
            &wi_dom::SerializeOptions { pretty: true, indent: 2 },
        );
        let from_pretty = Document::parse(&pretty).unwrap();
        let tags = |d: &Document| -> Vec<String> {
            d.descendants(d.root())
                .filter_map(|n| d.tag_name(n).map(str::to_string))
                .collect()
        };
        prop_assert_eq!(tags(&doc), tags(&from_pretty));
    }

    /// Structural hashing is insensitive to node identity: a subtree
    /// repeated in one parsed page hashes equal to each of its copies, and
    /// to the original in another document; `subtree_equal` agrees.
    #[test]
    fn cloned_subtrees_hash_equal(doc in arb_document()) {
        let body = doc.elements_by_tag("body")[0];
        let Some(subject) = doc.descendants(body).find(|&n| doc.is_element(n)) else {
            return Ok(());
        };
        let markup = wi_dom::serializer::subtree_to_html(
            &doc,
            subject,
            &wi_dom::SerializeOptions::default(),
        );
        let page = parse_html(&format!("<html><body>{markup}{markup}</body></html>")).unwrap();
        let page_body = page.elements_by_tag("body")[0];
        let copies: Vec<NodeId> = page.children(page_body).collect();
        prop_assert_eq!(copies.len(), 2);
        prop_assert_ne!(copies[0], copies[1]);
        prop_assert_eq!(structural_hash(&page, copies[0]), structural_hash(&page, copies[1]));
        prop_assert!(subtree_equal(&page, copies[0], &page, copies[1]));
        for &copy in &copies {
            prop_assert_eq!(structural_hash(&doc, subject), structural_hash(&page, copy));
            prop_assert!(subtree_equal(&doc, subject, &page, copy));
        }
    }

    /// Every constructor appends in document order: the order index covers
    /// every arena slot, and slot `i` is the `i`-th node of the pre-order
    /// walk.
    #[test]
    fn arena_order_is_document_order(doc in arb_document()) {
        let walked = all_nodes(&doc);
        prop_assert_eq!(walked.len(), doc.len());
        prop_assert_eq!(doc.order_index().len(), doc.len());
        for (i, &n) in walked.iter().enumerate() {
            prop_assert_eq!(n, NodeId::from_index(i));
        }
    }

    /// The text index reads `normalize-space` of every node exactly as the
    /// subtree-walking oracle computes it.
    #[test]
    fn text_index_matches_the_oracle(doc in arb_document()) {
        check_index_against_oracle(&doc)?;
    }

    /// The same on whitespace-heavy text: runs spanning text nodes and
    /// elements, Unicode whitespace, empty and blank text nodes.
    #[test]
    fn text_index_matches_the_oracle_on_spaced_text(doc in arb_spaced_document()) {
        check_index_against_oracle(&doc)?;
    }

    /// `normalized_text` never contains leading/trailing or doubled
    /// whitespace.
    #[test]
    fn normalized_text_is_normalized(doc in arb_document()) {
        for node in all_nodes(&doc) {
            let text = doc.normalized_text(node);
            prop_assert_eq!(text.trim(), text.as_str());
            prop_assert!(!text.contains("  "), "doubled whitespace in {text:?}");
        }
    }

    /// Every element reachable by `elements_by_tag` / `elements_by_class` /
    /// `element_by_id` really carries the requested property.
    #[test]
    fn lookup_helpers_agree_with_node_payloads(doc in arb_document()) {
        for tag in ["div", "li", "a"] {
            for node in doc.elements_by_tag(tag) {
                prop_assert_eq!(doc.tag_name(node), Some(tag));
            }
        }
        for node in all_nodes(&doc) {
            if let Some(id) = doc.attribute(node, "id") {
                let found = doc.element_by_id(id);
                prop_assert_eq!(found, Some(node), "id {} not resolved to its node", id);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Order-index properties: the indexed document-order operations must agree
// with the structural (path-walking) reference implementations.
// ---------------------------------------------------------------------------

/// Reference `following` axis: structural walk, as implemented before the
/// order index existed.
fn following_reference(doc: &Document, id: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    for anc in std::iter::once(id).chain(doc.ancestors(id)) {
        for sib in doc.following_siblings(anc) {
            out.extend(doc.descendants_or_self(sib));
        }
    }
    out.sort_by(|&a, &b| doc.document_order_unindexed(a, b));
    out
}

/// Reference `preceding` axis: structural walk.
fn preceding_reference(doc: &Document, id: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    for anc in std::iter::once(id).chain(doc.ancestors(id)) {
        for sib in doc.preceding_siblings(anc) {
            out.extend(doc.descendants_or_self(sib));
        }
    }
    out.sort_by(|&a, &b| doc.document_order_unindexed(a, b));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The indexed `document_order` / `sort_document_order` /
    /// `is_ancestor_of` / `depth` / `subtree_size`, the `following` /
    /// `preceding` range scans and the tag index agree with the structural
    /// reference implementations on all nodes.
    #[test]
    fn indexed_order_agrees_with_reference(doc in arb_document()) {
        let live = all_nodes(&doc);
        // document_order agrees with the path-based comparator.
        for (k, &a) in live.iter().enumerate() {
            let b = live[(k * 7 + 3) % live.len()];
            prop_assert_eq!(
                doc.document_order(a, b),
                doc.document_order_unindexed(a, b),
                "order mismatch for {} vs {}", a, b
            );
        }
        // Sorting a reversed copy reproduces pre-order.
        let mut shuffled: Vec<NodeId> = live.iter().rev().copied().collect();
        doc.sort_document_order(&mut shuffled);
        prop_assert_eq!(&shuffled, &live);
        // Ancestor tests, depth and subtree size agree with walks.
        for (k, &n) in live.iter().enumerate() {
            let m = live[(k * 5 + 1) % live.len()];
            let walked = doc.ancestors(n).any(|a| a == m);
            prop_assert_eq!(doc.is_ancestor_of(m, n), walked);
            prop_assert_eq!(doc.depth(n), doc.ancestors(n).count());
            prop_assert_eq!(doc.subtree_size(n), doc.descendants_or_self(n).count());
        }
        // following / preceding range scans agree with the tree walks.
        for &n in live.iter().take(8) {
            prop_assert_eq!(doc.following(n).collect::<Vec<_>>(), following_reference(&doc, n));
            prop_assert_eq!(doc.preceding(n).collect::<Vec<_>>(), preceding_reference(&doc, n));
        }
        // Tag index agrees with a linear scan.
        for tag in ["div", "span", "section", "a"] {
            let scan: Vec<NodeId> = doc
                .descendants(doc.root())
                .filter(|&n| doc.tag_name(n) == Some(tag))
                .collect();
            prop_assert_eq!(doc.elements_by_tag(tag), scan);
        }
    }

    /// Interning is unobservable: every symbol-based accessor agrees with
    /// its string-based counterpart, needles the document has never seen
    /// resolve to `None`, and a serialize → parse round trip into a
    /// document whose interner numbers the same strings differently is
    /// structurally identical — symbols never leak into equality.
    #[test]
    fn interning_is_observably_identical(doc in arb_document()) {
        for node in all_nodes(&doc) {
            // Tag symbols resolve to the tag string (and only elements
            // carry one).
            match doc.tag_name(node) {
                Some(tag) => {
                    let sym = doc.tag_sym(node).expect("element has a tag symbol");
                    prop_assert_eq!(doc.resolve_sym(sym), tag);
                    prop_assert_eq!(doc.sym(tag), Some(sym));
                }
                None => prop_assert_eq!(doc.tag_sym(node), None),
            }
            // Attribute symbols are parallel to the attribute list and
            // resolve to the same strings.
            let attrs = doc.attributes(node);
            let syms = doc.attr_syms(node);
            prop_assert_eq!(attrs.len(), syms.len());
            for (a, &(name_sym, value_sym)) in attrs.iter().zip(syms) {
                prop_assert_eq!(doc.resolve_sym(name_sym), a.name.as_str());
                prop_assert_eq!(doc.resolve_sym(value_sym), a.value.as_str());
            }
            // Symbol-based lookups agree with the string-based ones.
            for name in ["id", "class", "href"] {
                let by_string = doc.attribute(node, name);
                let by_sym = doc.sym(name).and_then(|s| doc.attribute_by_sym(node, s));
                prop_assert_eq!(by_string, by_sym);
                prop_assert_eq!(
                    doc.has_attribute(node, name),
                    doc.sym(name).is_some_and(|s| doc.has_attribute_sym(node, s))
                );
            }
        }

        // A needle the document has never seen misses the interner — the
        // instant "no match" the evaluator relies on.
        prop_assert_eq!(doc.sym("never-present-needle"), None);
        prop_assert!(doc.elements_by_tag("never-present-needle").is_empty());

        // Re-parse the markup behind a prefix that interns unrelated strings
        // first: the fresh document numbers the same strings differently,
        // yet the copy is structurally identical and its own symbols
        // resolve to the same strings.
        let html = to_html(&doc);
        let skewed = parse_html(&format!(r#"<p data-skew="v">skew</p>{html}"#)).unwrap();
        let a = doc.root_element().expect("html element");
        let b = skewed.elements_by_tag("html")[0];
        prop_assert_ne!(doc.tag_sym(a), skewed.tag_sym(b));
        prop_assert_eq!(structural_hash(&doc, a), structural_hash(&skewed, b));
        prop_assert!(subtree_equal(&doc, a, &skewed, b));
        for (x, y) in doc.descendants_or_self(a).zip(skewed.descendants_or_self(b)) {
            prop_assert_eq!(doc.tag_sym(x).map(|s| doc.resolve_sym(s)), skewed.tag_sym(y).map(|s| skewed.resolve_sym(s)));
            let class = |d: &Document, n: NodeId| d.sym("class").and_then(|s| d.attribute_by_sym(n, s)).map(str::to_string);
            prop_assert_eq!(class(&doc, x), class(&skewed, y));
        }
    }
}
