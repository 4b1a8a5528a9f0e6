//! A re-implementation of the WEIR-style redundancy-based inducer (Bronzi,
//! Crescenzi, Merialdo, Papotti — "Extraction and integration of partially
//! overlapping web sources", PVLDB 2013; reference \[2\] of the paper).
//!
//! As described in Section 6.1 of the paper, WEIR:
//!
//! * requires **multiple pages following the same template** for each source,
//! * each induced expression matches **at most one node per page**,
//! * exploits the availability of several pages to decide which text nodes
//!   are *static template text* ("Country") and which carry variable values,
//! * returns an **unranked set** of expressions (about 30 on average) of two
//!   types: *absolute* expressions — similar to canonical paths, but starting
//!   from the closest ancestor with a unique `id` — and *relative*
//!   expressions anchored on a close-by template text node.

use std::collections::{BTreeMap, HashMap, HashSet};
use wi_dom::{Document, NodeId};
use wi_induction::{ExtractError, Extractor};
use wi_xpath::{
    canonical_step, evaluate_with, Axis, NodeTest, Predicate, Query, Step, StringFunction,
};

/// One same-template page with the annotated target node (the value WEIR is
/// supposed to extract on that page).
#[derive(Debug, Clone, Copy)]
pub struct WeirPage<'a> {
    /// The page.
    pub doc: &'a Document,
    /// The target node on this page.
    pub target: NodeId,
}

/// The WEIR-style inducer.
#[derive(Debug, Clone)]
pub struct WeirInducer {
    /// Fraction of pages a text value must appear on to count as template
    /// (static) text.
    pub static_threshold: f64,
    /// How many ancestor levels around the target are searched for template
    /// text anchors.
    pub anchor_radius: usize,
}

impl Default for WeirInducer {
    fn default() -> Self {
        WeirInducer {
            static_threshold: 0.8,
            anchor_radius: 3,
        }
    }
}

impl WeirInducer {
    /// Induces a [`WeirWrapper`] from a group of same-template pages.
    pub fn induce_wrapper(&self, pages: &[WeirPage<'_>]) -> WeirWrapper {
        WeirWrapper {
            expressions: self.induce(pages),
        }
    }

    /// Induces the (unranked) expression set from a group of same-template
    /// pages.  Expressions are kept only if they select exactly the annotated
    /// node on every input page.
    pub fn induce(&self, pages: &[WeirPage<'_>]) -> Vec<Query> {
        if pages.is_empty() {
            return Vec::new();
        }
        let static_texts = self.static_texts(pages);
        let mut candidates: Vec<Query> = Vec::new();
        let first = &pages[0];

        candidates.extend(self.absolute_candidates(first));
        candidates.extend(self.relative_candidates(first, &static_texts));

        // Keep candidates that are single-valued and correct on all pages.
        // One pooled context serves every candidate × page evaluation.
        let mut cx = wi_xpath::EvalContext::new();
        let mut seen = HashSet::new();
        candidates
            .into_iter()
            .filter(|q| seen.insert(q.to_string()))
            .filter(|q| {
                pages
                    .iter()
                    .all(|p| evaluate_with(&mut cx, q, p.doc, p.doc.root()) == vec![p.target])
            })
            .collect()
    }

    /// Text values (of element nodes) that occur on a large fraction of the
    /// pages — WEIR's notion of static template content.
    pub fn static_texts(&self, pages: &[WeirPage<'_>]) -> HashSet<String> {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for page in pages {
            let mut page_texts: HashSet<String> = HashSet::new();
            for n in page.doc.descendants(page.doc.root()) {
                if page.doc.is_element(n) {
                    let t = page.doc.normalized_text(n);
                    if !t.is_empty() && t.len() <= 40 {
                        page_texts.insert(t);
                    }
                }
            }
            for t in page_texts {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let needed = (pages.len() as f64 * self.static_threshold).ceil() as usize;
        counts
            .into_iter()
            .filter(|(_, c)| *c >= needed)
            .map(|(t, _)| t)
            .collect()
    }

    /// Absolute expressions: canonical child steps starting from the closest
    /// ancestor with a unique id (several truncation depths are emitted, so
    /// the set contains a handful of variants).
    fn absolute_candidates(&self, page: &WeirPage<'_>) -> Vec<Query> {
        let doc = page.doc;
        let mut out = Vec::new();
        let anchors: Vec<NodeId> = doc
            .ancestors_or_self(page.target)
            .filter(|&n| {
                doc.attribute(n, "id").is_some_and(|id| {
                    doc.descendants(doc.root())
                        .filter(|&m| doc.attribute(m, "id") == Some(id))
                        .count()
                        == 1
                })
            })
            .collect();
        for anchor in anchors {
            let id_value = doc.attribute(anchor, "id").unwrap().to_string();
            let tag = doc.tag_name(anchor).unwrap_or("*").to_string();
            let mut steps = vec![Step::new(Axis::Descendant, NodeTest::Tag(tag))
                .with_predicate(Predicate::attr_equals("id", id_value))];
            let mut chain: Vec<NodeId> = doc
                .ancestors_or_self(page.target)
                .take_while(|&n| n != anchor)
                .collect();
            chain.reverse();
            for n in chain {
                steps.push(canonical_step(doc, n));
            }
            out.push(Query::new(steps));
        }
        // Plus the plain canonical path (WEIR's fallback when no id exists).
        out.push(wi_xpath::canonical_path(doc, page.target));
        out
    }

    /// Relative expressions: anchored on a nearby static ("template") text
    /// node, then a positional path to the target.
    fn relative_candidates(
        &self,
        page: &WeirPage<'_>,
        static_texts: &HashSet<String>,
    ) -> Vec<Query> {
        let doc = page.doc;
        let mut out = Vec::new();

        // Candidate anchors: elements with static text near the target (the
        // label of the same template row, a nearby header, …).
        let mut anchor_pool: Vec<NodeId> = Vec::new();
        for ancestor in doc.ancestors(page.target).take(self.anchor_radius) {
            for d in doc.descendants(ancestor) {
                if d != page.target
                    && doc.is_element(d)
                    && static_texts.contains(&doc.normalized_text(d))
                {
                    anchor_pool.push(d);
                }
            }
        }
        anchor_pool.truncate(12);

        for anchor in anchor_pool {
            let anchor_text = doc.normalized_text(anchor);
            let anchor_tag = doc.tag_name(anchor).unwrap_or("*").to_string();
            let lca = match doc.least_common_ancestor(&[anchor, page.target]) {
                Some(l) => l,
                None => continue,
            };
            let up = doc.ancestors(anchor).take_while(|&n| n != lca).count() + 1;
            // anchor step
            let mut steps = vec![Step::new(Axis::Descendant, NodeTest::Tag(anchor_tag))
                .with_predicate(Predicate::StringCompare {
                    func: StringFunction::Equals,
                    source: wi_xpath::TextSource::NormalizedText,
                    value: anchor_text,
                })];
            // go up to the LCA
            steps.push(
                Step::new(Axis::Ancestor, NodeTest::AnyElement)
                    .with_predicate(Predicate::Position(up as u32)),
            );
            // canonical steps down from the LCA to the target
            let mut chain: Vec<NodeId> = doc
                .ancestors_or_self(page.target)
                .take_while(|&n| n != lca)
                .collect();
            chain.reverse();
            for n in chain {
                steps.push(canonical_step(doc, n));
            }
            out.push(Query::new(steps));
        }
        out
    }
}

/// The applied form of WEIR's unranked expression set.
///
/// Every WEIR expression selects (at most) the same single value node on a
/// page, so extraction is a plurality vote: the node(s) selected by the
/// largest number of expressions win.  As the page evolves and individual
/// expressions break, the vote degrades gracefully instead of flipping to
/// whichever expression happens to be listed first.
#[derive(Debug, Clone)]
pub struct WeirWrapper {
    /// The induced expressions (unranked, as WEIR emits them).
    pub expressions: Vec<Query>,
}

impl WeirWrapper {
    /// The textual form of the wrapper (expressions joined by ` | `).
    pub fn expression(&self) -> String {
        self.expressions
            .iter()
            .map(|q| q.to_string())
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

impl Extractor for WeirWrapper {
    fn extract_with(
        &self,
        cx: &mut wi_xpath::EvalContext,
        doc: &Document,
        context: NodeId,
    ) -> Result<Vec<NodeId>, ExtractError> {
        if self.expressions.is_empty() {
            return Err(ExtractError::EmptyWrapper);
        }
        if !doc.contains(context) {
            return Err(ExtractError::InvalidContext(context));
        }
        let mut votes: BTreeMap<NodeId, usize> = BTreeMap::new();
        for q in &self.expressions {
            for node in evaluate_with(cx, q, doc, context) {
                *votes.entry(node).or_insert(0) += 1;
            }
        }
        let Some(&max_votes) = votes.values().max() else {
            return Ok(Vec::new());
        };
        let mut out: Vec<NodeId> = votes
            .into_iter()
            .filter(|&(_, v)| v == max_votes)
            .map(|(n, _)| n)
            .collect();
        doc.sort_document_order(&mut out);
        Ok(out)
    }

    fn describe(&self) -> String {
        self.expression()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_dom::parse_html;
    use wi_xpath::evaluate;

    fn hotel_page(name: &str, country: &str, with_promo: bool) -> Document {
        let promo = if with_promo {
            "<div class=\"promo\">deal of the day</div>"
        } else {
            ""
        };
        parse_html(&format!(
            r#"<html><body>
              {promo}
              <div id="info">
                <h1>{name}</h1>
                <div class="row"><span class="label">Country</span><span class="val">{country}</span></div>
                <div class="row"><span class="label">Price</span><span class="val">$100</span></div>
              </div>
            </body></html>"#
        ))
        .unwrap()
    }

    fn target(doc: &Document, value: &str) -> NodeId {
        doc.descendants(doc.root())
            .find(|&n| {
                doc.is_element(n)
                    && doc.normalized_text(n) == value
                    && doc.tag_name(n) == Some("span")
            })
            .unwrap()
    }

    #[test]
    fn detects_static_template_text() {
        let pages: Vec<Document> = (0..5)
            .map(|i| hotel_page(&format!("Hotel {i}"), &format!("Country {i}"), i % 2 == 0))
            .collect();
        // Only static_texts is under test here, so the target is irrelevant.
        let weir_pages: Vec<WeirPage<'_>> = pages
            .iter()
            .map(|doc| WeirPage {
                doc,
                target: doc.root(),
            })
            .collect();
        let inducer = WeirInducer::default();
        let statics = inducer.static_texts(&weir_pages);
        assert!(statics.contains("Country"));
        assert!(statics.contains("Price"));
        assert!(!statics.iter().any(|t| t.starts_with("Hotel ")));
    }

    #[test]
    fn induces_expressions_correct_on_all_pages() {
        let pages: Vec<Document> = (0..6)
            .map(|i| hotel_page(&format!("Hotel {i}"), &format!("Republic {i}"), false))
            .collect();
        let weir_pages: Vec<WeirPage<'_>> = pages
            .iter()
            .enumerate()
            .map(|(i, doc)| WeirPage {
                doc,
                target: target(doc, &format!("Republic {i}")),
            })
            .collect();
        let inducer = WeirInducer::default();
        let expressions = inducer.induce(&weir_pages);
        assert!(!expressions.is_empty());
        for q in &expressions {
            for p in &weir_pages {
                assert_eq!(evaluate(q, p.doc, p.doc.root()), vec![p.target], "{q}");
            }
        }
        // Both families of expressions should be present: at least one
        // id-anchored absolute and one template-text-relative.
        assert!(expressions.iter().any(|q| q.to_string().contains("@id")));
        assert!(expressions
            .iter()
            .any(|q| q.to_string().contains("Country")));
    }

    #[test]
    fn positional_absolute_candidates_break_on_promo_insertion() {
        // Train on pages without promo, apply to a page with a promo div:
        // the plain canonical candidate breaks while the id-anchored one
        // survives — the behaviour difference the comparison experiment
        // measures.
        let pages: Vec<Document> = (0..5)
            .map(|i| hotel_page(&format!("Hotel {i}"), &format!("Land {i}"), false))
            .collect();
        let weir_pages: Vec<WeirPage<'_>> = pages
            .iter()
            .enumerate()
            .map(|(i, doc)| WeirPage {
                doc,
                target: target(doc, &format!("Land {i}")),
            })
            .collect();
        let inducer = WeirInducer::default();
        let expressions = inducer.induce(&weir_pages);
        let changed = hotel_page("Hotel 0", "Land 0", true);
        let expected = target(&changed, "Land 0");
        let surviving = expressions
            .iter()
            .filter(|q| evaluate(q, &changed, changed.root()) == vec![expected])
            .count();
        assert!(surviving >= 1);
        assert!(surviving <= expressions.len());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(WeirInducer::default().induce(&[]).is_empty());
        let empty = WeirWrapper {
            expressions: vec![],
        };
        let doc = hotel_page("H", "C", false);
        assert_eq!(
            empty.extract_root(&doc).unwrap_err(),
            ExtractError::EmptyWrapper
        );
    }

    #[test]
    fn wrapper_votes_across_its_expressions() {
        let pages: Vec<Document> = (0..5)
            .map(|i| hotel_page(&format!("Hotel {i}"), &format!("Nation {i}"), false))
            .collect();
        let weir_pages: Vec<WeirPage<'_>> = pages
            .iter()
            .enumerate()
            .map(|(i, doc)| WeirPage {
                doc,
                target: target(doc, &format!("Nation {i}")),
            })
            .collect();
        let wrapper = WeirInducer::default().induce_wrapper(&weir_pages);
        assert!(!wrapper.expressions.is_empty());
        // On a training page the plurality vote is exactly the target.
        let expected = target(&pages[0], "Nation 0");
        assert_eq!(wrapper.extract_root(&pages[0]).unwrap(), vec![expected]);
        // On a changed page some expressions break but the vote still
        // singles out one node.
        let changed = hotel_page("Hotel 0", "Nation 0", true);
        let selected = wrapper.extract_root(&changed).unwrap();
        assert_eq!(selected, vec![target(&changed, "Nation 0")]);
    }
}
