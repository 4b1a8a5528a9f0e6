//! The **retained pre-interning evaluator** — the frozen baseline for the
//! induction benchmarks and equivalence tests.
//!
//! This module preserves, verbatim in structure and cost profile, the
//! evaluator as it existed before the document interner landed: node tests
//! and predicates compare raw strings **per candidate node** (tag names via
//! `tag_name`, attributes via a linear name scan), `normalize-space(.)`
//! walks the candidate's subtree (`normalize_space(&text_value(c))`, never
//! the document's text index), and every call allocates fresh working
//! buffers (the pre-pooling behavior of `evaluate`).  It must
//! produce byte-identical node sets to [`crate::evaluate`] — the symbol
//! resolution in the production evaluator is an evaluation-strategy change,
//! never a semantics change — which the property tests assert.
//!
//! Do not "optimize" this module: its entire purpose is to stay the fixed
//! reference point that `BENCH_induction.json` measures the production
//! engine against.  Production code paths must never call it.

use crate::ast::{Axis, NodeTest, Predicate, Query, Step, TextSource};
use crate::eval::axis_nodes;
use wi_dom::document::normalize_space;
use wi_dom::{Document, NodeId, NodeKind};

/// Evaluates `query` from `context` with the retained string-comparing
/// evaluator.  Returns the selected nodes in document order, deduplicated —
/// byte-identical to [`crate::evaluate`].
pub fn evaluate_reference(query: &Query, doc: &Document, context: NodeId) -> Vec<NodeId> {
    let start = if query.absolute { doc.root() } else { context };
    let mut current = vec![start];
    for step in &query.steps {
        let mut next: Vec<NodeId> = Vec::new();
        for &ctx in &current {
            next.extend(evaluate_step_reference(step, doc, ctx));
        }
        doc.sort_document_order(&mut next);
        current = next;
        if current.is_empty() {
            break;
        }
    }
    current
}

/// One step of the retained evaluator: candidates in axis order, filtered by
/// per-node string comparisons (the pre-interning `evaluate_step`).
pub fn evaluate_step_reference(step: &Step, doc: &Document, context: NodeId) -> Vec<NodeId> {
    let mut candidates = match (step.axis, &step.test) {
        // The tag-index fast path predates the interner (the index was
        // string-keyed then); keep it so the baseline measures the
        // interning + prefix-sharing delta, not the loss of an index.
        (Axis::Descendant, NodeTest::Tag(tag)) => doc.descendants_by_tag(context, tag),
        (Axis::DescendantOrSelf, NodeTest::Tag(tag)) => {
            let mut out = Vec::new();
            if doc.tag_name(context) == Some(tag.as_str()) {
                out.push(context);
            }
            out.extend(doc.descendants_by_tag(context, tag));
            out
        }
        _ => {
            let mut out = axis_nodes(step.axis, doc, context);
            out.retain(|&n| node_test_matches_reference(&step.test, step.axis, doc, n));
            out
        }
    };
    for pred in &step.predicates {
        apply_predicate_reference(pred, doc, &mut candidates);
    }
    candidates
}

/// Per-candidate node test by string comparison (the pre-interning shape).
fn node_test_matches_reference(test: &NodeTest, axis: Axis, doc: &Document, node: NodeId) -> bool {
    if axis == Axis::Attribute {
        return match test {
            NodeTest::Tag(attr) => doc.has_attribute(node, attr),
            NodeTest::AnyElement | NodeTest::AnyNode => {
                doc.is_element(node) && !doc.attributes(node).is_empty()
            }
            NodeTest::Text => false,
        };
    }
    match test {
        NodeTest::AnyElement => doc.kind(node) == NodeKind::Element,
        NodeTest::AnyNode => true,
        NodeTest::Text => doc.kind(node) == NodeKind::Text,
        NodeTest::Tag(tag) => doc.tag_name(node) == Some(tag.as_str()),
    }
}

/// Per-candidate predicate application by string comparison.
fn apply_predicate_reference(pred: &Predicate, doc: &Document, candidates: &mut Vec<NodeId>) {
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
        Predicate::HasAttribute(name) => {
            candidates.retain(|&c| doc.has_attribute(c, name));
        }
        Predicate::StringCompare {
            func,
            source,
            value,
        } => {
            candidates.retain(|&c| match source {
                TextSource::Attribute(a) => {
                    doc.attribute(c, a).is_some_and(|v| func.apply(v, value))
                }
                TextSource::NormalizedText => {
                    func.apply(&normalize_space(&doc.text_value(c)), value)
                }
            });
        }
        Predicate::Path(q) => {
            candidates.retain(|&c| !evaluate_reference(q, doc, c).is_empty());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::parser::parse_query;
    use wi_dom::parse_html;

    #[test]
    fn reference_matches_production_evaluator() {
        let doc = parse_html(
            r#"<html><body>
              <div class="txt-block"><h4 class="inline">Director:</h4>
                <a href="/n"><span class="itemprop" itemprop="name">Martin Scorsese</span></a>
              </div>
              <ul><li>a</li><li>b</li><li>c</li></ul>
            </body></html>"#,
        )
        .unwrap();
        for expr in [
            r#"descendant::div[starts-with(.,"Director:")]/descendant::span[@itemprop="name"]"#,
            "descendant::ul/child::li[last()-1]",
            "descendant::a/@href",
            "descendant::*[@itemprop]",
            "descendant::li[1]/parent::ul",
            r#"descendant::span[@class="absent-needle"]"#,
            "descendant::table/child::tr",
            "/descendant::h4",
            r#"descendant::img[ancestor::div[1][@class="c"]]"#,
        ] {
            let q = parse_query(expr).unwrap();
            assert_eq!(
                evaluate_reference(&q, &doc, doc.root()),
                evaluate(&q, &doc, doc.root()),
                "{expr}"
            );
        }
    }
}
