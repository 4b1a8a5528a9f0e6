//! Canonical paths and the *c-change* measure (Section 2 of the paper).
//!
//! The canonical path of a node `u` is the absolute XPath expression
//! `/t1[k1]/t2[k2]/…/tn[kn]` obtained by walking from the document root down
//! to `u`, where each step uses the child axis, the node's tag (or `text()`)
//! as node test and the node's 1-based index among same-test siblings as
//! positional predicate.  Canonical paths are the paper's model of the
//! "simple" wrappers emitted by browser developer tools, and serve as the
//! baseline wrapper in the evaluation.

use crate::ast::{Axis, NodeTest, Predicate, Query, Step};
use crate::eval::evaluate;
use wi_dom::{Document, NodeId, NodeKind};

/// Computes the canonical step for a single node: node test plus positional
/// predicate relative to its parent.
pub fn canonical_step(doc: &Document, node: NodeId) -> Step {
    let test = match doc.kind(node) {
        NodeKind::Element => NodeTest::Tag(
            doc.tag_name(node)
                .expect("element node has a tag")
                .to_string(),
        ),
        NodeKind::Text => NodeTest::Text,
    };
    let index = doc.sibling_index(node) as u32;
    Step::new(Axis::Child, test).with_predicate(Predicate::Position(index))
}

/// Computes the canonical path `canon(u)` of a node, an absolute query.
///
/// For the document root itself the canonical path is the absolute empty
/// query `/`.
pub fn canonical_path(doc: &Document, node: NodeId) -> Query {
    let mut steps = Vec::new();
    let mut chain: Vec<NodeId> = doc.ancestors_or_self(node).collect();
    chain.pop(); // drop the synthetic document root
    chain.reverse();
    for n in chain {
        steps.push(canonical_step(doc, n));
    }
    Query::absolute(steps)
}

/// Counts the number of *c-changes* across a sequence of snapshots.
///
/// `snapshots[i]` is a pair of a document version and the target node the
/// wrapper is supposed to select in that version (re-identified by the
/// evaluation harness, e.g. via the reference wrapper).  Following
/// Section 6.2 of the paper, the canonical path is computed on the current
/// reference snapshot; whenever it no longer selects exactly the target in
/// the next snapshot the change counter is incremented and the canonical
/// path is re-induced from that snapshot.
pub fn c_changes(snapshots: &[(&Document, NodeId)]) -> usize {
    if snapshots.len() < 2 {
        return 0;
    }
    let mut changes = 0;
    let (mut ref_doc, mut ref_node) = snapshots[0];
    let mut canon = canonical_path(ref_doc, ref_node);
    let _ = ref_doc;
    for &(doc, target) in &snapshots[1..] {
        #[expect(
            clippy::disallowed_methods,
            reason = "the c-change metric evaluates one canonical path per snapshot, off any serving path"
        )]
        let selected = evaluate(&canon, doc, doc.root());
        if selected != vec![target] {
            changes += 1;
            ref_doc = doc;
            ref_node = target;
            canon = canonical_path(ref_doc, ref_node);
        }
    }
    changes
}

/// Counts c-changes for a *set* of target nodes per snapshot (multi-node
/// wrappers): a change is counted when the canonical path of **any** tracked
/// target stops selecting exactly that target.
#[expect(
    clippy::disallowed_methods,
    reason = "the c-change metric evaluates one canonical path per target and snapshot, off any serving path"
)]
pub fn c_changes_multi(snapshots: &[(&Document, Vec<NodeId>)]) -> usize {
    if snapshots.len() < 2 {
        return 0;
    }
    let mut changes = 0;
    let mut canons: Vec<Query> = snapshots[0]
        .1
        .iter()
        .map(|&n| canonical_path(snapshots[0].0, n))
        .collect();
    for window in snapshots.windows(2) {
        let (doc, targets) = (&window[1].0, &window[1].1);
        let mut changed = false;
        for (canon, &target) in canons.iter().zip(targets.iter()) {
            if evaluate(canon, doc, doc.root()) != vec![target] {
                changed = true;
                break;
            }
        }
        if changed {
            changes += 1;
            canons = targets.iter().map(|&n| canonical_path(doc, n)).collect();
        }
        // If the number of targets changed, re-induce as well.
        if canons.len() != targets.len() {
            canons = targets.iter().map(|&n| canonical_path(doc, n)).collect();
        }
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_dom::parse_html;

    fn doc() -> Document {
        parse_html(
            r#"<html><body>
              <div class="a"><p>one</p></div>
              <div class="b"><p>two</p><p>three</p></div>
            </body></html>"#,
        )
        .unwrap()
    }

    #[test]
    fn canonical_path_shape() {
        let d = doc();
        let ps = d.elements_by_tag("p");
        let third = ps[2];
        let q = canonical_path(&d, third);
        assert_eq!(
            q.to_string(),
            "/child::html[1]/child::body[1]/child::div[2]/child::p[2]"
        );
        assert!(q.absolute);
    }

    #[test]
    fn canonical_path_selects_exactly_its_node() {
        let d = doc();
        for n in d.descendants(d.root()) {
            let q = canonical_path(&d, n);
            let r = evaluate(&q, &d, d.root());
            assert_eq!(r, vec![n], "canonical path must uniquely select {n}");
        }
    }

    #[test]
    fn canonical_path_of_root_is_slash() {
        let d = doc();
        let q = canonical_path(&d, d.root());
        assert!(q.absolute);
        assert!(q.is_empty());
        assert_eq!(q.to_string(), "/");
    }

    #[test]
    fn canonical_path_uses_text_test_for_text_nodes() {
        let d = doc();
        let p = d.elements_by_tag("p")[0];
        let t = d.children(p).next().unwrap();
        let q = canonical_path(&d, t);
        assert!(q.to_string().ends_with("/child::text()[1]"));
        assert_eq!(evaluate(&q, &d, d.root()), vec![t]);
    }

    #[test]
    fn c_changes_counts_breaks_and_recovers() {
        // v1: target is the second div's first p.
        let v1 = doc();
        let t1 = v1.elements_by_tag("p")[1];
        // v2: an extra div is inserted before, shifting the positional index.
        let v2 = parse_html(
            r#"<html><body>
              <div class="ad">ad</div>
              <div class="a"><p>one</p></div>
              <div class="b"><p>two</p><p>three</p></div>
            </body></html>"#,
        )
        .unwrap();
        let t2 = v2.elements_by_tag("p")[1];
        // v3: same structure as v2 — no further change.
        let v3 = parse_html(
            r#"<html><body>
              <div class="ad">ad</div>
              <div class="a"><p>one</p></div>
              <div class="b"><p>two</p><p>three</p></div>
            </body></html>"#,
        )
        .unwrap();
        let t3 = v3.elements_by_tag("p")[1];
        assert_eq!(c_changes(&[(&v1, t1), (&v2, t2), (&v3, t3)]), 1);
        // No change at all:
        assert_eq!(c_changes(&[(&v2, t2), (&v3, t3)]), 0);
        assert_eq!(c_changes(&[(&v1, t1)]), 0);
    }

    #[test]
    fn c_changes_multi_counts_any_target_break() {
        let v1 = doc();
        let p1 = v1.elements_by_tag("p");
        let v2 = parse_html(
            r#"<html><body>
              <div class="a"><p>one</p></div>
              <div class="b"><span>new</span><p>two</p><p>three</p></div>
            </body></html>"#,
        )
        .unwrap();
        let p2 = v2.elements_by_tag("p");
        // Positional indices of p[2]/p[3] under div.b are unchanged (span has
        // a different tag), so no c-change is recorded.
        assert_eq!(c_changes_multi(&[(&v1, p1.clone()), (&v2, p2.clone())]), 0);
        // Inserting another p at the start of div.b shifts the indices.
        let v3 = parse_html(
            r#"<html><body>
              <div class="a"><p>one</p></div>
              <div class="b"><p>zero</p><p>two</p><p>three</p></div>
            </body></html>"#,
        )
        .unwrap();
        let p3v = v3.elements_by_tag("p");
        let targets3 = vec![p3v[0], p3v[2], p3v[3]];
        // tracked targets: in v1 all three p's; in v3 "one", "two", "three".
        let targets1 = p1;
        assert_eq!(c_changes_multi(&[(&v1, targets1), (&v3, targets3)]), 1);
    }
}
