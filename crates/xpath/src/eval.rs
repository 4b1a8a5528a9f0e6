//! Evaluation of queries over [`wi_dom::Document`] trees.
//!
//! Semantics follow XPath 1.0 for the constructs of the fragment:
//!
//! * a query is evaluated step by step; each step maps a set of context nodes
//!   to the union of the nodes it selects from each context node,
//! * within one context node, the candidate nodes of a step are ordered along
//!   the axis (document order for forward axes, reverse document order for
//!   reverse axes) and predicates are applied **left to right**, each
//!   filtering the list produced by the previous one; positional predicates
//!   refer to positions in that filtered list,
//! * `normalize-space(.)` reads the whitespace-normalised string value of the
//!   candidate node, `@name` reads an attribute,
//! * a nested path predicate holds iff its relative query selects at least
//!   one node from the candidate.
//!
//! One deliberate deviation: attribute nodes are not materialised in
//! `wi-dom`, so a final `attribute::name` step selects the *owning element*
//! provided it carries the attribute.  The induction algorithms never rely on
//! attribute nodes being distinct from their elements, and the evaluation
//! harness only ever compares element/text targets.

use crate::ast::{Axis, NodeTest, Predicate, Query, Step, TextSource};
use wi_dom::{Document, NodeId, NodeKind};

/// Result of [`evaluate_with_anchors`]: the final node set plus the
/// intermediate node sets after each step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOutput {
    /// Nodes selected by the full query, in document order, deduplicated.
    pub result: Vec<NodeId>,
    /// `after_step[i]` is the node set selected after evaluating step `i`.
    /// The last entry equals `result`.
    pub after_step: Vec<Vec<NodeId>>,
}

impl EvalOutput {
    /// The paper's *anchor nodes*: every node selected during evaluation
    /// except the final targets, in document order, deduplicated.
    ///
    /// Document order is determined by `doc` (see
    /// [`Document::sort_document_order`]).
    pub fn anchors(&self, doc: &Document) -> Vec<NodeId> {
        let mut anchors: Vec<NodeId> = self
            .after_step
            .iter()
            .take(self.after_step.len().saturating_sub(1))
            .flatten()
            .copied()
            .collect();
        doc.sort_document_order(&mut anchors);
        anchors
    }
}

/// Reusable scratch buffers for query evaluation.
///
/// Evaluating a query needs three working vectors (current context set, next
/// context set, per-context candidate list).  Allocating them per evaluation
/// is measurable when induction evaluates thousands of candidate queries per
/// page, so callers that evaluate in a loop — the induction search, batch
/// extraction, the baselines — create one `EvalContext` and pass it to
/// [`evaluate_with`]; the buffers' capacity is retained across calls.
#[derive(Debug, Default)]
pub struct EvalContext {
    current: Vec<NodeId>,
    next: Vec<NodeId>,
    candidates: Vec<NodeId>,
    /// Lazily created context for nested path-predicate evaluations, so
    /// `div[descendant::span]` reuses buffers per candidate instead of
    /// allocating three vectors each time.
    nested: Option<Box<EvalContext>>,
}

impl EvalContext {
    /// Creates a context with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Evaluates a query relative to `context`, returning the selected nodes in
/// document order without duplicates.
pub fn evaluate(query: &Query, doc: &Document, context: NodeId) -> Vec<NodeId> {
    let mut cx = EvalContext::new();
    evaluate_with(&mut cx, query, doc, context)
}

/// Like [`evaluate`], but reusing the buffers of `cx` across calls.
///
/// This is the hot path: no intermediate node set is cloned, the working
/// vectors are ping-ponged between steps, and evaluation stops as soon as a
/// step selects nothing.
pub fn evaluate_with(
    cx: &mut EvalContext,
    query: &Query,
    doc: &Document,
    context: NodeId,
) -> Vec<NodeId> {
    evaluate_core(cx, query, doc, context);
    // The result vector leaves the pool; the (typically larger) intermediate
    // buffers stay for the next call.
    std::mem::take(&mut cx.current)
}

/// Runs the step loop, leaving the final node set in `cx.current`.
fn evaluate_core(cx: &mut EvalContext, query: &Query, doc: &Document, context: NodeId) {
    let start = if query.absolute { doc.root() } else { context };
    let mut current = std::mem::take(&mut cx.current);
    let mut next = std::mem::take(&mut cx.next);
    let mut candidates = std::mem::take(&mut cx.candidates);
    current.clear();
    current.push(start);
    for step in &query.steps {
        next.clear();
        if let [ctx] = current[..] {
            // Single context: select straight into `next`, no scratch copy.
            evaluate_step_into(step, doc, ctx, &mut next, &mut cx.nested);
            // A forward-axis step from a single context emits candidates in
            // document order with no duplicates (and predicates only
            // filter), so the sort+dedup pass would be a no-op; skip it.
            if !step_preserves_doc_order(step.axis) {
                doc.sort_document_order(&mut next);
            }
        } else {
            for &ctx in &current {
                evaluate_step_into(step, doc, ctx, &mut candidates, &mut cx.nested);
                next.extend_from_slice(&candidates);
            }
            doc.sort_document_order(&mut next);
        }
        std::mem::swap(&mut current, &mut next);
        if current.is_empty() {
            break;
        }
    }
    cx.current = current;
    cx.next = next;
    cx.candidates = candidates;
}

/// Whether a step along this axis, from one context node, yields candidates
/// already in document order and free of duplicates (making the per-step
/// sort+dedup a no-op).  Reverse axes emit nearest-first; the others emit in
/// document order.
pub(crate) fn step_preserves_doc_order(axis: Axis) -> bool {
    matches!(
        axis,
        Axis::Child
            | Axis::Descendant
            | Axis::DescendantOrSelf
            | Axis::FollowingSibling
            | Axis::Following
            | Axis::SelfAxis
            | Axis::Attribute
    )
}

/// Evaluates a query and records the intermediate ("anchor") node sets.
pub fn evaluate_with_anchors(query: &Query, doc: &Document, context: NodeId) -> EvalOutput {
    let start = if query.absolute { doc.root() } else { context };
    let mut after_step: Vec<Vec<NodeId>> = Vec::with_capacity(query.steps.len());
    let mut candidates = Vec::new();
    let mut nested = None;
    for step in &query.steps {
        let mut next: Vec<NodeId> = Vec::new();
        let current: &[NodeId] = match after_step.last() {
            Some(prev) => prev,
            None => std::slice::from_ref(&start),
        };
        for &ctx in current {
            evaluate_step_into(step, doc, ctx, &mut candidates, &mut nested);
            next.extend_from_slice(&candidates);
        }
        doc.sort_document_order(&mut next);
        // The set is moved into `after_step`, not cloned: the next iteration
        // reads it back as `current`, and a failed step simply leaves every
        // later set empty.
        after_step.push(next);
    }
    let result = after_step.last().cloned().unwrap_or_else(|| vec![start]);
    EvalOutput { result, after_step }
}

/// Evaluates a single step from one context node.  Candidates are returned in
/// axis order (the order positional predicates refer to).
pub fn evaluate_step(step: &Step, doc: &Document, context: NodeId) -> Vec<NodeId> {
    let mut candidates = Vec::new();
    evaluate_step_into(step, doc, context, &mut candidates, &mut None);
    candidates
}

/// Core of [`evaluate_step`]: fills `candidates` (cleared first) with the
/// step's selection from one context node, reusing the vector's capacity.
/// `nested` holds the scratch context for path predicates.
///
/// Node-test and predicate needles are resolved to document [`Sym`]bols once
/// per call (i.e. once per step application, never per candidate), so the
/// retain loops below are integer compares; a needle that is absent from the
/// document's interner cannot match anything and clears the candidate set
/// outright.
pub(crate) fn evaluate_step_into(
    step: &Step,
    doc: &Document,
    context: NodeId,
    candidates: &mut Vec<NodeId>,
    nested: &mut Option<Box<EvalContext>>,
) {
    candidates.clear();
    // Fast path: `descendant::tag` (and `descendant-or-self::tag`) steps are
    // answered from the tag index as an id range — subtrees without the
    // tag are never visited.
    match (step.axis, &step.test) {
        (Axis::Descendant, NodeTest::Tag(tag)) => {
            candidates.extend_from_slice(doc.descendants_by_tag_slice(context, tag));
        }
        (Axis::DescendantOrSelf, NodeTest::Tag(tag)) => {
            if doc.tag_name(context) == Some(tag.as_str()) {
                candidates.push(context);
            }
            candidates.extend_from_slice(doc.descendants_by_tag_slice(context, tag));
        }
        _ => {
            axis_nodes_into(step.axis, doc, context, candidates);
            retain_node_test(&step.test, step.axis, doc, candidates);
        }
    }
    for pred in &step.predicates {
        apply_predicate(pred, doc, candidates, nested);
    }
}

/// Filters `candidates` in place by the step's node test, resolving tag and
/// attribute needles to symbols once for the whole candidate list.
fn retain_node_test(test: &NodeTest, axis: Axis, doc: &Document, candidates: &mut Vec<NodeId>) {
    if axis == Axis::Attribute {
        // The node test names the attribute that must be present.
        match test {
            NodeTest::Tag(attr) => match doc.sym(attr) {
                Some(sym) => candidates.retain(|&n| doc.has_attribute_sym(n, sym)),
                None => candidates.clear(),
            },
            NodeTest::AnyElement | NodeTest::AnyNode => {
                candidates.retain(|&n| doc.is_element(n) && !doc.attributes(n).is_empty());
            }
            NodeTest::Text => candidates.clear(),
        }
        return;
    }
    match test {
        NodeTest::AnyElement => candidates.retain(|&n| doc.kind(n) == NodeKind::Element),
        NodeTest::AnyNode => {}
        NodeTest::Text => candidates.retain(|&n| doc.kind(n) == NodeKind::Text),
        NodeTest::Tag(tag) => match doc.sym(tag) {
            Some(sym) => candidates.retain(|&n| doc.tag_sym(n) == Some(sym)),
            None => candidates.clear(),
        },
    }
}

/// Returns the nodes reachable from `context` along `axis`, in axis order.
pub fn axis_nodes(axis: Axis, doc: &Document, context: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    axis_nodes_into(axis, doc, context, &mut out);
    out
}

/// Appends the nodes reachable from `context` along `axis` to `out`, in axis
/// order, reusing `out`'s capacity.
fn axis_nodes_into(axis: Axis, doc: &Document, context: NodeId, out: &mut Vec<NodeId>) {
    match axis {
        Axis::Child => out.extend(doc.children(context)),
        Axis::Descendant => out.extend(doc.descendants(context)),
        Axis::DescendantOrSelf => out.extend(doc.descendants_or_self(context)),
        Axis::Parent => out.extend(doc.parent(context)),
        Axis::Ancestor => out.extend(doc.ancestors(context)),
        Axis::AncestorOrSelf => out.extend(doc.ancestors_or_self(context)),
        Axis::FollowingSibling => out.extend(doc.following_siblings(context)),
        Axis::PrecedingSibling => out.extend(doc.preceding_siblings(context)),
        // `following`/`preceding` are contiguous range scans over the
        // document-order index.
        Axis::Following => out.extend(doc.following(context)),
        Axis::Preceding => {
            // preceding is a reverse axis: nearest node first.
            let start = out.len();
            out.extend(doc.preceding(context));
            out[start..].reverse();
        }
        Axis::SelfAxis => out.push(context),
        // Attribute axis: stay on the element (see module documentation).
        Axis::Attribute => out.push(context),
    }
}

/// Filters `candidates` in place by one predicate.  Positional predicates
/// keep (at most) the addressed element; the filter predicates `retain`.
/// Path predicates evaluate through the `nested` scratch context.
///
/// Attribute needles resolve to symbols once per call; `[@a="v"]` equality
/// compares two interned symbols per candidate (attribute *values* are
/// interned too), and only the substring functions (`contains`,
/// `starts-with`, `ends-with`) still read the value string.
fn apply_predicate(
    pred: &Predicate,
    doc: &Document,
    candidates: &mut Vec<NodeId>,
    nested: &mut Option<Box<EvalContext>>,
) {
    match pred {
        Predicate::Position(n) => {
            let idx = *n as usize;
            let kept = (idx >= 1)
                .then(|| candidates.get(idx - 1).copied())
                .flatten();
            candidates.clear();
            candidates.extend(kept);
        }
        Predicate::LastOffset(offset) => {
            let len = candidates.len();
            let offset = *offset as usize;
            let kept = (offset < len).then(|| candidates[len - 1 - offset]);
            candidates.clear();
            candidates.extend(kept);
        }
        Predicate::HasAttribute(name) => match doc.sym(name) {
            Some(sym) => candidates.retain(|&c| doc.has_attribute_sym(c, sym)),
            None => candidates.clear(),
        },
        Predicate::StringCompare {
            func,
            source,
            value,
        } => match source {
            TextSource::Attribute(a) => {
                let Some(name) = doc.sym(a) else {
                    candidates.clear();
                    return;
                };
                if *func == crate::ast::StringFunction::Equals {
                    // Equality is a pure symbol compare: a value absent from
                    // the interner occurs on no element.
                    match doc.sym(value) {
                        Some(want) => {
                            candidates.retain(|&c| doc.attribute_value_sym(c, name) == Some(want))
                        }
                        None => candidates.clear(),
                    }
                } else {
                    candidates.retain(|&c| {
                        doc.attribute_by_sym(c, name)
                            .is_some_and(|v| func.apply(v, value))
                    });
                }
            }
            TextSource::NormalizedText => {
                candidates.retain(|&c| func.apply(&doc.normalized_text(c), value));
            }
        },
        Predicate::Path(q) => {
            let cx = nested.get_or_insert_with(Default::default);
            candidates.retain(|&c| {
                // Existence test only: run the step loop and read the final
                // set in place, keeping every buffer in the nested pool.
                evaluate_core(cx, q, doc, c);
                !cx.current.is_empty()
            });
        }
    }
}

/// Returns `true` if `query` evaluated from `context` selects exactly the
/// node set `expected` (order-insensitive).
pub fn selects_exactly(
    query: &Query,
    doc: &Document,
    context: NodeId,
    expected: &[NodeId],
) -> bool {
    let mut result = evaluate(query, doc, context);
    let mut expected: Vec<NodeId> = expected.to_vec();
    result.sort_unstable();
    result.dedup();
    expected.sort_unstable();
    expected.dedup();
    result == expected
}

/// Returns `true` if node `target` is reachable from `context` along the
/// transitive closure of the given base axis (`v ∈ (β::*)(u)` in the paper's
/// notation, with β the transitive axis).
///
/// The traversal is short-circuited instead of materializing the full axis
/// node list: ancestor/descendant reachability is the document order index's
/// O(1) interval test, sibling reachability is a same-parent check plus one
/// O(1) order comparison, and `following`/`preceding` combine the two.
pub fn reachable_via(axis: Axis, doc: &Document, context: NodeId, target: NodeId) -> bool {
    use std::cmp::Ordering;
    let same_parent = || doc.parent(context).is_some() && doc.parent(context) == doc.parent(target);
    match axis.transitive() {
        Axis::Descendant => doc.is_ancestor_of(context, target),
        Axis::Ancestor => doc.is_ancestor_of(target, context),
        Axis::DescendantOrSelf => context == target || doc.is_ancestor_of(context, target),
        Axis::AncestorOrSelf => context == target || doc.is_ancestor_of(target, context),
        Axis::FollowingSibling => {
            same_parent() && doc.document_order(context, target) == Ordering::Less
        }
        Axis::PrecedingSibling => {
            same_parent() && doc.document_order(context, target) == Ordering::Greater
        }
        Axis::Following => {
            doc.document_order(context, target) == Ordering::Less
                && !doc.is_ancestor_of(context, target)
        }
        Axis::Preceding => {
            doc.document_order(context, target) == Ordering::Greater
                && !doc.is_ancestor_of(target, context)
        }
        Axis::SelfAxis | Axis::Attribute => context == target,
        // Non-transitive axes cannot come out of `Axis::transitive`, but fall
        // back to the materializing check rather than panicking.
        other => axis_nodes(other, doc, context).contains(&target),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use wi_dom::parse_html;

    fn imdb_like() -> Document {
        parse_html(
            r#"<html><head><title>Movie</title></head><body>
              <div class="header"><input name="q" type="text"></div>
              <div class="txt-block">
                <h4 class="inline">Director:</h4>
                <a href="/name/nm0000217" itemprop="url">
                  <span class="itemprop" itemprop="name">Martin Scorsese</span>
                </a>
              </div>
              <div class="txt-block">
                <h4 class="inline">Writers:</h4>
                <a href="/name/nm1"><span class="itemprop" itemprop="name">Nicholas Pileggi</span></a>
                <a href="/name/nm2"><span class="itemprop" itemprop="name">Martin Scorsese</span></a>
              </div>
            </body></html>"#,
        )
        .unwrap()
    }

    #[test]
    fn paper_wrapper_selects_director_only() {
        let doc = imdb_like();
        let q = parse_query(
            r#"descendant::div[starts-with(.,"Director:")]/descendant::span[@itemprop="name"]"#,
        )
        .unwrap();
        let result = evaluate(&q, &doc, doc.root());
        assert_eq!(result.len(), 1);
        assert_eq!(doc.normalized_text(result[0]), "Martin Scorsese");
        // sanity: the writers' spans are not selected even though one has the
        // same text.
        let all_spans = doc.elements_by_tag("span");
        assert_eq!(all_spans.len(), 3);
    }

    #[test]
    fn descendant_vs_child() {
        let doc = imdb_like();
        let body = doc.elements_by_tag("body")[0];
        let q = parse_query("child::div").unwrap();
        assert_eq!(evaluate(&q, &doc, body).len(), 3);
        let q = parse_query("child::span").unwrap();
        assert!(evaluate(&q, &doc, body).is_empty());
        let q = parse_query("descendant::span").unwrap();
        assert_eq!(evaluate(&q, &doc, body).len(), 3);
    }

    #[test]
    fn positional_predicates() {
        let doc = imdb_like();
        let q = parse_query("descendant::div[starts-with(.,\"Director:\")][1]/descendant::span")
            .unwrap();
        assert_eq!(evaluate(&q, &doc, doc.root()).len(), 1);

        let q = parse_query("descendant::div[3]").unwrap();
        let r = evaluate(&q, &doc, doc.root());
        assert_eq!(r.len(), 1);
        assert!(doc.normalized_text(r[0]).starts_with("Writers:"));

        let q = parse_query("descendant::div[last()]").unwrap();
        let r2 = evaluate(&q, &doc, doc.root());
        assert_eq!(r, r2);

        let q = parse_query("descendant::div[last()-2]").unwrap();
        let r3 = evaluate(&q, &doc, doc.root());
        assert_eq!(doc.attribute(r3[0], "class"), Some("header"));

        // out of range
        let q = parse_query("descendant::div[9]").unwrap();
        assert!(evaluate(&q, &doc, doc.root()).is_empty());
        let q = parse_query("descendant::div[last()-9]").unwrap();
        assert!(evaluate(&q, &doc, doc.root()).is_empty());
    }

    #[test]
    fn positions_are_per_context_node() {
        let doc =
            parse_html("<body><ul><li>a</li><li>b</li></ul><ul><li>c</li><li>d</li></ul></body>")
                .unwrap();
        let q = parse_query("descendant::ul/child::li[1]").unwrap();
        let r = evaluate(&q, &doc, doc.root());
        assert_eq!(r.len(), 2);
        let texts: Vec<_> = r.iter().map(|&n| doc.normalized_text(n)).collect();
        assert_eq!(texts, vec!["a", "c"]);
    }

    #[test]
    fn reverse_axis_positions() {
        let doc = parse_html("<body><div><p>x</p></div></body>").unwrap();
        let p = doc.elements_by_tag("p")[0];
        // ancestor[1] is the nearest ancestor (div), ancestor[2] the body.
        let q = parse_query("ancestor::*[1]").unwrap();
        let r = evaluate(&q, &doc, p);
        assert_eq!(doc.tag_name(r[0]), Some("div"));
        let q = parse_query("ancestor::*[2]").unwrap();
        let r = evaluate(&q, &doc, p);
        assert_eq!(doc.tag_name(r[0]), Some("body"));
    }

    #[test]
    fn sibling_axes() {
        let doc = parse_html(
            r#"<body><table>
              <tr class="head"><td>News</td></tr>
              <tr><td>item 1</td></tr>
              <tr><td>item 2</td></tr>
            </table></body>"#,
        )
        .unwrap();
        let q = parse_query(r#"descendant::tr[contains(.,"News")]/following-sibling::tr"#).unwrap();
        let r = evaluate(&q, &doc, doc.root());
        assert_eq!(r.len(), 2);

        let q = parse_query(r#"descendant::tr[3]/preceding-sibling::tr[1]"#).unwrap();
        let r = evaluate(&q, &doc, doc.root());
        assert_eq!(r.len(), 1);
        assert_eq!(doc.normalized_text(r[0]), "item 1");

        let q = parse_query(r#"descendant::tr[3]/preceding-sibling::tr[last()]"#).unwrap();
        let r = evaluate(&q, &doc, doc.root());
        assert_eq!(doc.normalized_text(r[0]), "News");
    }

    #[test]
    fn following_axis_and_nested_predicate() {
        let doc = parse_html(
            r#"<body><div><p class="lead">Hit list</p></div>
               <ul><li>one</li><li>two</li></ul>
               <div class="contentSmLeft"><img class="adv"></div></body>"#,
        )
        .unwrap();
        let q = parse_query(r#"descendant::p[contains(., "Hit")]/following::ul[1]/descendant::li"#)
            .unwrap();
        let r = evaluate(&q, &doc, doc.root());
        assert_eq!(r.len(), 2);

        let q =
            parse_query(r#"descendant::img[ancestor::div[1][@class="contentSmLeft"]]"#).unwrap();
        let r = evaluate(&q, &doc, doc.root());
        assert_eq!(r.len(), 1);
        assert_eq!(doc.tag_name(r[0]), Some("img"));
    }

    #[test]
    fn attribute_step_selects_owning_element() {
        let doc = imdb_like();
        let q = parse_query("descendant::a/@href").unwrap();
        let r = evaluate(&q, &doc, doc.root());
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|&n| doc.tag_name(n) == Some("a")));
        // Elements without the attribute are not selected.
        let q = parse_query("descendant::span/@href").unwrap();
        assert!(evaluate(&q, &doc, doc.root()).is_empty());
    }

    #[test]
    fn has_attribute_and_equality_predicates() {
        let doc = imdb_like();
        let q = parse_query("descendant::input[@name=\"q\"]").unwrap();
        assert_eq!(evaluate(&q, &doc, doc.root()).len(), 1);
        let q = parse_query("descendant::*[@itemprop]").unwrap();
        assert_eq!(evaluate(&q, &doc, doc.root()).len(), 4);
        let q = parse_query("descendant::input[@name=\"nope\"]").unwrap();
        assert!(evaluate(&q, &doc, doc.root()).is_empty());
    }

    #[test]
    fn text_node_test() {
        let doc = parse_html("<body><p>hello <b>world</b></p></body>").unwrap();
        let q = parse_query("descendant::text()").unwrap();
        let r = evaluate(&q, &doc, doc.root());
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|&n| doc.is_text(n)));
        let q = parse_query("descendant::node()").unwrap();
        let r = evaluate(&q, &doc, doc.root());
        assert_eq!(r.len(), 5); // html? no: body, p, text, b, text
    }

    #[test]
    fn absolute_queries_ignore_context() {
        let doc = imdb_like();
        let span = doc.elements_by_tag("span")[0];
        let q = parse_query("/descendant::h4").unwrap();
        let from_span = evaluate(&q, &doc, span);
        let from_root = evaluate(&q, &doc, doc.root());
        assert_eq!(from_span, from_root);
        assert_eq!(from_root.len(), 2);
    }

    #[test]
    fn empty_query_selects_context() {
        let doc = imdb_like();
        let span = doc.elements_by_tag("span")[0];
        let q = Query::empty();
        assert_eq!(evaluate(&q, &doc, span), vec![span]);
    }

    #[test]
    fn anchors_are_intermediate_nodes() {
        let doc = imdb_like();
        let q = parse_query(
            r#"descendant::div[starts-with(.,"Director:")]/descendant::span[@itemprop="name"]"#,
        )
        .unwrap();
        let out = evaluate_with_anchors(&q, &doc, doc.root());
        assert_eq!(out.result.len(), 1);
        assert_eq!(out.after_step.len(), 2);
        let anchors = out.anchors(&doc);
        assert_eq!(anchors.len(), 1);
        assert_eq!(doc.attribute(anchors[0], "class"), Some("txt-block"));
    }

    #[test]
    fn results_are_document_ordered_and_deduped() {
        let doc =
            parse_html("<body><div><span>a</span></div><div><span>b</span></div></body>").unwrap();
        // Both div contexts can reach both spans through ancestor/descendant
        // detours; the result must still be deduplicated.
        let q = parse_query("descendant::div/ancestor::body/descendant::span").unwrap();
        let r = evaluate(&q, &doc, doc.root());
        assert_eq!(r.len(), 2);
        let texts: Vec<_> = r.iter().map(|&n| doc.normalized_text(n)).collect();
        assert_eq!(texts, vec!["a", "b"]);
    }

    #[test]
    fn selects_exactly_helper() {
        let doc = imdb_like();
        let q = parse_query("descendant::h4").unwrap();
        let h4s = doc.elements_by_tag("h4");
        assert!(selects_exactly(&q, &doc, doc.root(), &h4s));
        assert!(!selects_exactly(&q, &doc, doc.root(), &h4s[..1]));
    }

    #[test]
    fn reachable_via_base_axes() {
        let doc = imdb_like();
        let body = doc.elements_by_tag("body")[0];
        let span = doc.elements_by_tag("span")[0];
        assert!(reachable_via(Axis::Child, &doc, body, span));
        assert!(reachable_via(Axis::Parent, &doc, span, body));
        assert!(!reachable_via(Axis::Child, &doc, span, body));
        let h4s = doc.elements_by_tag("h4");
        let a = doc.elements_by_tag("a")[0];
        assert!(reachable_via(Axis::FollowingSibling, &doc, h4s[0], a));
        assert!(reachable_via(Axis::PrecedingSibling, &doc, a, h4s[0]));
    }

    #[test]
    fn descendant_tag_fast_path_matches_walk() {
        let doc = imdb_like();
        let body = doc.elements_by_tag("body")[0];
        let first_span = doc.elements_by_tag("span")[0];

        for q in ["descendant::span", "descendant-or-self::span"] {
            let q = parse_query(q).unwrap();
            for ctx in [doc.root(), body, doc.elements_by_tag("a")[0], first_span] {
                let fast = evaluate(&q, &doc, ctx);
                let mut walk: Vec<_> = doc
                    .descendants_or_self(ctx)
                    .filter(|&n| doc.tag_name(n) == Some("span"))
                    .collect();
                if !q.steps[0].axis.name().contains("or-self") && doc.tag_name(ctx) == Some("span")
                {
                    walk.retain(|&n| n != ctx);
                }
                assert_eq!(fast, walk, "{} from {}", q, ctx);
            }
        }
    }

    #[test]
    fn evaluate_with_reuses_buffers_consistently() {
        let doc = imdb_like();
        let queries = [
            r#"descendant::div[starts-with(.,"Director:")]/descendant::span[@itemprop="name"]"#,
            "descendant::table/descendant::td",
            "descendant::a/@href",
            "child::html/child::body/child::div",
        ];
        let mut cx = EvalContext::new();
        for expr in queries {
            let q = parse_query(expr).unwrap();
            assert_eq!(
                evaluate_with(&mut cx, &q, &doc, doc.root()),
                evaluate(&q, &doc, doc.root()),
                "{expr}"
            );
        }
    }

    #[test]
    fn failing_intermediate_step_yields_empty() {
        let doc = imdb_like();
        let q = parse_query("descendant::table/descendant::td").unwrap();
        let out = evaluate_with_anchors(&q, &doc, doc.root());
        assert!(out.result.is_empty());
        assert_eq!(out.after_step.len(), 2);
        assert!(out.after_step.iter().all(|s| s.is_empty()));
    }
}
