//! Query samples — the input to wrapper induction.

use wi_dom::{Document, NodeId};
use wi_scoring::Counts;

/// A query sample `⟨u, V⟩` over a document: a context node `u` and a
/// non-empty set of annotated target nodes `V`.
///
/// In the typical wrapper-induction setting the context node is the document
/// root and the targets are the annotated data nodes (possibly produced by a
/// noisy annotator).
#[derive(Debug, Clone, Copy)]
pub struct Sample<'a> {
    /// The document the sample refers to.
    pub doc: &'a Document,
    /// The context node `u` the induced expression will be evaluated from.
    pub context: NodeId,
    /// The annotated target nodes `V`.
    pub targets: &'a [NodeId],
}

impl<'a> Sample<'a> {
    /// Creates a sample with the document root as context node.
    pub fn from_root(doc: &'a Document, targets: &'a [NodeId]) -> Self {
        Sample {
            doc,
            context: doc.root(),
            targets,
        }
    }

    /// Creates a sample with an explicit context node.
    pub fn new(doc: &'a Document, context: NodeId, targets: &'a [NodeId]) -> Self {
        Sample {
            doc,
            context,
            targets,
        }
    }

    /// Returns `true` if every target is a live node of the document.
    pub fn is_well_formed(&self) -> bool {
        !self.targets.is_empty() && self.targets.iter().all(|&t| self.doc.contains(t))
    }
}

/// Finds annotation targets on a page by *value*: the innermost elements
/// whose normalized text equals one of `values`, in document order.
///
/// This is how a maintenance pipeline turns the last-known-good extraction
/// of a broken wrapper into fresh annotations on a new page version (and how
/// the paper's automated annotators locate known instances on a page): the
/// extracted *values* survive a template change even when the node identities
/// and the wrapper's anchors do not.  Outer elements whose text merely
/// contains a match (because they wrap a matching descendant) are dropped.
pub fn harvest_targets_by_text(doc: &Document, values: &[String]) -> Vec<NodeId> {
    // Empty values carry no identity: matching them would "find" every
    // text-less element on the page (images, inputs, separators).
    let value_set: std::collections::HashSet<&str> = values
        .iter()
        .map(|s| s.as_str())
        .filter(|s| !s.is_empty())
        .collect();
    if value_set.is_empty() {
        return Vec::new();
    }
    let mut matches: Vec<NodeId> = doc
        .descendants(doc.root())
        .filter(|&n| doc.is_element(n))
        .filter(|&n| value_set.contains(doc.normalized_str(n)))
        .collect();
    // Keep only innermost matches.  The match set is small, so a pairwise
    // O(1) interval test (the document-order index) beats walking each
    // match's subtree.
    let all = matches.clone();
    matches.retain(|&n| !all.iter().any(|&d| doc.is_ancestor_of(n, d)));
    matches
}

/// Computes `⟨t+, f+, f−⟩` of a result node set against a target node set.
///
/// Set semantics (duplicates on either side count once).  The typical inputs
/// — an evaluator result and a handful of annotated targets — are small, so
/// the counts are computed by linear scans below a size threshold and by
/// fast-hashed sets above it; both branches produce identical counts.
pub fn counts_against(result: &[NodeId], targets: &[NodeId]) -> Counts {
    const SCAN_LIMIT: usize = 48;
    if result.len() <= SCAN_LIMIT && targets.len() <= SCAN_LIMIT {
        let mut tp = 0u32;
        let mut fne = 0u32;
        for (i, &t) in targets.iter().enumerate() {
            if targets[..i].contains(&t) {
                continue; // duplicate target
            }
            if result.contains(&t) {
                tp += 1;
            } else {
                fne += 1;
            }
        }
        let mut fp = 0u32;
        for (i, &r) in result.iter().enumerate() {
            if result[..i].contains(&r) {
                continue; // duplicate result entry
            }
            if !targets.contains(&r) {
                fp += 1;
            }
        }
        return Counts::new(tp, fp, fne);
    }
    let result_set: wi_dom::fx::FxSet<NodeId> = result.iter().copied().collect();
    let target_set: wi_dom::fx::FxSet<NodeId> = targets.iter().copied().collect();
    let tp = result_set.intersection(&target_set).count() as u32;
    let fp = result_set.difference(&target_set).count() as u32;
    let fne = target_set.difference(&result_set).count() as u32;
    Counts::new(tp, fp, fne)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_dom::parse_html;
    use wi_xpath::{evaluate, parse_query};

    #[test]
    fn counts_computation() {
        let doc = parse_html("<body><ul><li>a</li><li>b</li><li>c</li></ul></body>").unwrap();
        let lis = doc.elements_by_tag("li");
        let sample_targets = vec![lis[0], lis[1]];
        let sample = Sample::from_root(&doc, &sample_targets);
        assert!(sample.is_well_formed());

        let counts = |xpath: &str| {
            let query = parse_query(xpath).unwrap();
            counts_against(
                &evaluate(&query, sample.doc, sample.context),
                sample.targets,
            )
        };
        assert_eq!(counts("descendant::li"), Counts::new(2, 1, 0));
        assert_eq!(counts("descendant::li[1]"), Counts::new(1, 0, 1));
        assert_eq!(counts("descendant::table"), Counts::new(0, 0, 2));
    }

    #[test]
    fn counts_against_handles_duplicates() {
        let doc = parse_html("<body><p>x</p></body>").unwrap();
        let p = doc.elements_by_tag("p");
        let c = counts_against(&[p[0], p[0]], &[p[0]]);
        assert_eq!(c, Counts::new(1, 0, 0));
    }

    #[test]
    fn harvest_picks_innermost_matches_in_document_order() {
        let doc = parse_html(
            r#"<body>
                <div><a href="/x"><span>Scorsese</span></a></div>
                <p>De Niro</p>
                <div>Scorsese</div>
            </body>"#,
        )
        .unwrap();
        let values = vec!["Scorsese".to_string(), "De Niro".to_string()];
        let found = harvest_targets_by_text(&doc, &values);
        // The wrapping <a> and <div> also have text "Scorsese"; only the
        // innermost span (and the later leaf div) qualify.
        let span = doc.elements_by_tag("span")[0];
        let p = doc.elements_by_tag("p")[0];
        let leaf_div = doc.elements_by_tag("div")[1];
        assert_eq!(found, vec![span, p, leaf_div]);
        assert!(harvest_targets_by_text(&doc, &[]).is_empty());
        assert!(harvest_targets_by_text(&doc, &["missing".into()]).is_empty());
    }

    #[test]
    fn malformed_sample_detected() {
        let doc = parse_html("<body><p>x</p></body>").unwrap();
        let empty: Vec<NodeId> = vec![];
        assert!(!Sample::from_root(&doc, &empty).is_well_formed());
    }
}
