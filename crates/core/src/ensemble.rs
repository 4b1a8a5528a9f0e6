//! Ensembles of independently induced wrappers.
//!
//! The paper's conclusion (future work (4)) observes that *"no matter how
//! sophisticated the wrapper language or scoring, without constraints on the
//! shape of future versions of a page, the robustness of a single wrapper
//! will always be limited"* and proposes *"inducing multiple wrappers that
//! use a variety of independent means for selecting a target node"*.
//!
//! This module implements that extension on top of the best-K induction of
//! [`crate::induce()`]:
//!
//! 1. a candidate pool of ranked instances is induced as usual,
//! 2. members are picked greedily so that each new member relies on
//!    selection *means* (attributes, string constants, tags, axes, positions)
//!    that overlap as little as possible with the members picked so far
//!    ([`QueryFeatures`] / [`EnsembleConfig::max_overlap`]),
//! 3. the resulting [`WrapperEnsemble`] extracts nodes by majority vote
//!    (or union / intersection) and exposes an [`agreement`] signal that a
//!    wrapper-maintenance pipeline can monitor: full agreement on the
//!    training page, decaying agreement as individual members break on later
//!    page versions.
//!
//! [`agreement`]: WrapperEnsemble::agreement

use std::collections::{BTreeMap, BTreeSet};

use crate::config::InductionConfig;
use crate::induce::induce;
use crate::sample::Sample;
use wi_dom::{Document, NodeId};
use wi_scoring::QueryInstance;
use wi_xpath::{evaluate_with, EvalContext, Predicate, Query, TextSource};

/// The structural "means of selection" a query relies on.
///
/// Two queries with disjoint features break independently under most page
/// changes: a class rename cannot break a wrapper that never mentions that
/// class, a removed positional index cannot break a wrapper anchored on an
/// `id` attribute, and so on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryFeatures {
    /// Attribute names used in predicates (including existence tests).
    pub attributes: BTreeSet<String>,
    /// String constants compared against attribute values or text.
    pub constants: BTreeSet<String>,
    /// Element tag names used as node tests.
    pub tags: BTreeSet<String>,
    /// Axis names used by the steps.
    pub axes: BTreeSet<&'static str>,
    /// Whether any positional predicate (`[n]`, `[last()-n]`) is used.
    pub uses_position: bool,
    /// Whether any predicate reads the normalized text value.
    pub uses_text: bool,
}

impl QueryFeatures {
    /// Extracts the features of a query (recursing into nested path
    /// predicates).
    pub fn of(query: &Query) -> Self {
        let mut features = QueryFeatures::default();
        features.collect(query);
        features
    }

    fn collect(&mut self, query: &Query) {
        for step in &query.steps {
            self.axes.insert(step.axis.name());
            if let wi_xpath::NodeTest::Tag(tag) = &step.test {
                self.tags.insert(tag.clone());
            }
            for predicate in &step.predicates {
                match predicate {
                    Predicate::Position(_) | Predicate::LastOffset(_) => {
                        self.uses_position = true;
                    }
                    Predicate::HasAttribute(name) => {
                        self.attributes.insert(name.clone());
                    }
                    Predicate::StringCompare { source, value, .. } => {
                        match source {
                            TextSource::Attribute(name) => {
                                self.attributes.insert(name.clone());
                            }
                            TextSource::NormalizedText => self.uses_text = true,
                        }
                        self.constants.insert(value.clone());
                    }
                    Predicate::Path(nested) => self.collect(nested),
                }
            }
        }
    }

    /// The features as a flat, prefixed string set (used for the Jaccard
    /// overlap so that an attribute name and an equal tag name do not
    /// collide).
    fn flat(&self) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        set.extend(self.attributes.iter().map(|a| format!("attr:{a}")));
        set.extend(self.constants.iter().map(|c| format!("const:{c}")));
        set.extend(self.tags.iter().map(|t| format!("tag:{t}")));
        set.extend(self.axes.iter().map(|a| format!("axis:{a}")));
        if self.uses_position {
            set.insert("positional".to_string());
        }
        if self.uses_text {
            set.insert("text".to_string());
        }
        set
    }

    /// Jaccard overlap between the *discriminative* features of two queries.
    ///
    /// Tag names and axes are shared by almost every pair of wrappers for the
    /// same target, so only attributes, string constants, positional use and
    /// text use count towards the overlap; two wrappers that differ in none
    /// of those break together and overlap `1.0`.
    pub fn overlap(&self, other: &Self) -> f64 {
        let a: BTreeSet<String> = self
            .flat()
            .into_iter()
            .filter(|f| !f.starts_with("tag:") && !f.starts_with("axis:"))
            .collect();
        let b: BTreeSet<String> = other
            .flat()
            .into_iter()
            .filter(|f| !f.starts_with("tag:") && !f.starts_with("axis:"))
            .collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let intersection = a.intersection(&b).count() as f64;
        let union = a.union(&b).count() as f64;
        intersection / union
    }
}

/// Configuration of [`WrapperEnsemble::induce`].
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    /// Desired number of member wrappers.
    pub size: usize,
    /// Maximum pairwise feature overlap tolerated between members while
    /// diverse candidates are available (members above this threshold are
    /// only used to fill up the ensemble when nothing better exists).
    pub max_overlap: f64,
    /// How many ranked instances are induced as the candidate pool.
    pub candidate_pool: usize,
    /// Minimum F0.5 (relative to the top-ranked instance) a candidate must
    /// achieve to be eligible; guards against trading accuracy for diversity.
    pub min_relative_f05: f64,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            size: 3,
            max_overlap: 0.34,
            candidate_pool: 30,
            min_relative_f05: 1.0,
        }
    }
}

impl EnsembleConfig {
    /// Returns a config with a different ensemble size.
    pub fn with_size(mut self, size: usize) -> Self {
        self.size = size.max(1);
        self
    }

    /// Returns a config with a different overlap threshold.
    pub fn with_max_overlap(mut self, max_overlap: f64) -> Self {
        self.max_overlap = max_overlap.clamp(0.0, 1.0);
        self
    }
}

/// An ensemble of wrappers that select the same target through independent
/// means.
#[derive(Debug, Clone, Default)]
pub struct WrapperEnsemble {
    /// The member wrappers, best ranked first.
    pub members: Vec<QueryInstance>,
}

impl WrapperEnsemble {
    /// Builds an ensemble from explicit members (useful for tests and for
    /// combining wrappers induced on different samples).
    pub fn from_members(members: Vec<QueryInstance>) -> Self {
        WrapperEnsemble { members }
    }

    /// Induces an ensemble from arbitrary samples.
    ///
    /// The induction runs once with a widened best-K bound (the candidate
    /// pool); members are then selected greedily by feature diversity.
    pub fn induce(
        samples: &[Sample<'_>],
        induction: &InductionConfig,
        config: &EnsembleConfig,
    ) -> Self {
        let pool_k = induction.k.max(config.candidate_pool);
        let pool_config = induction.clone().with_k(pool_k);
        let pool = induce(samples, &pool_config);
        Self::select_members(pool, config)
    }

    /// Induces an ensemble from a single annotated page (context = root).
    pub fn induce_single(doc: &Document, targets: &[NodeId], config: &EnsembleConfig) -> Self {
        let sample = Sample::from_root(doc, targets);
        Self::induce(&[sample], &InductionConfig::default(), config)
    }

    /// Greedy diverse-member selection from a ranked candidate pool.
    fn select_members(pool: Vec<QueryInstance>, config: &EnsembleConfig) -> Self {
        let Some(best) = pool.first() else {
            return WrapperEnsemble::default();
        };
        let f05_floor = best.f05() * config.min_relative_f05 - 1e-9;
        let eligible: Vec<&QueryInstance> = pool.iter().filter(|q| q.f05() >= f05_floor).collect();

        let mut members: Vec<QueryInstance> = Vec::with_capacity(config.size);
        let mut member_features: Vec<QueryFeatures> = Vec::with_capacity(config.size);
        // Pass 1: enforce the overlap threshold.
        for candidate in &eligible {
            if members.len() >= config.size {
                break;
            }
            let features = QueryFeatures::of(&candidate.query);
            let diverse = member_features
                .iter()
                .all(|existing| existing.overlap(&features) <= config.max_overlap);
            if diverse {
                members.push((*candidate).clone());
                member_features.push(features);
            }
        }
        // Pass 2: fill up with the best remaining candidates (distinct
        // expressions only) if the pool did not contain enough diversity.
        if members.len() < config.size {
            let taken: BTreeSet<String> = members.iter().map(|m| m.query.to_string()).collect();
            for candidate in &eligible {
                if members.len() >= config.size {
                    break;
                }
                if !taken.contains(&candidate.query.to_string()) {
                    members.push((*candidate).clone());
                }
            }
        }
        WrapperEnsemble { members }
    }

    /// Number of member wrappers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the ensemble has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member expressions in ranked order.
    pub fn expressions(&self) -> Vec<String> {
        self.members.iter().map(|m| m.query.to_string()).collect()
    }

    /// Evaluates every member on a document and returns the per-node vote
    /// counts, in document order.
    pub fn votes(&self, doc: &Document) -> Vec<(NodeId, usize)> {
        self.votes_from(doc, doc.root())
    }

    /// Like [`votes`](Self::votes), evaluated from an explicit context node.
    pub fn votes_from(&self, doc: &Document, context: NodeId) -> Vec<(NodeId, usize)> {
        self.votes_from_with(&mut EvalContext::new(), doc, context)
    }

    /// Like [`votes_from`](Self::votes_from), reusing the evaluation buffers
    /// of `cx` across the members (and across calls).
    pub fn votes_from_with(
        &self,
        cx: &mut EvalContext,
        doc: &Document,
        context: NodeId,
    ) -> Vec<(NodeId, usize)> {
        votes(cx, self.queries(), doc, context)
    }

    /// Nodes selected by a strict majority of the members.
    pub fn extract_majority(&self, doc: &Document) -> Vec<NodeId> {
        self.extract_majority_from(doc, doc.root())
    }

    /// Like [`extract_majority`](Self::extract_majority), evaluated from an
    /// explicit context node.
    pub fn extract_majority_from(&self, doc: &Document, context: NodeId) -> Vec<NodeId> {
        self.extract_majority_from_with(&mut EvalContext::new(), doc, context)
    }

    /// Like [`extract_majority_from`](Self::extract_majority_from), reusing
    /// the evaluation buffers of `cx`.
    pub fn extract_majority_from_with(
        &self,
        cx: &mut EvalContext,
        doc: &Document,
        context: NodeId,
    ) -> Vec<NodeId> {
        majority(cx, self.queries(), doc, context)
    }

    fn queries(&self) -> impl ExactSizeIterator<Item = &Query> {
        self.members.iter().map(|m| &m.query)
    }

    /// Nodes selected by at least one member.
    pub fn extract_union(&self, doc: &Document) -> Vec<NodeId> {
        self.votes(doc).into_iter().map(|(node, _)| node).collect()
    }

    /// Nodes selected by every member.
    pub fn extract_intersection(&self, doc: &Document) -> Vec<NodeId> {
        let total = self.members.len();
        self.votes(doc)
            .into_iter()
            .filter(|(_, votes)| *votes == total)
            .map(|(node, _)| node)
            .collect()
    }

    /// Mean pairwise Jaccard agreement of the member result sets on a
    /// document.
    ///
    /// `1.0` means every member selects exactly the same node set (the
    /// expected state on the training page); a drop below `1.0` on a later
    /// snapshot signals that some members broke and the page likely changed —
    /// the wrapper-maintenance trigger the paper's future work aims at.
    pub fn agreement(&self, doc: &Document) -> f64 {
        if self.members.len() < 2 {
            return 1.0;
        }
        let mut cx = EvalContext::new();
        let results: Vec<BTreeSet<NodeId>> = self
            .members
            .iter()
            .map(|m| {
                evaluate_with(&mut cx, &m.query, doc, doc.root())
                    .into_iter()
                    .collect()
            })
            .collect();
        let mut total = 0.0;
        let mut pairs = 0usize;
        for i in 0..results.len() {
            for j in (i + 1)..results.len() {
                total += jaccard(&results[i], &results[j]);
                pairs += 1;
            }
        }
        total / pairs as f64
    }
}

/// Evaluates every query from `context` and returns the per-node vote
/// counts, in document order.
fn votes<'q>(
    cx: &mut EvalContext,
    queries: impl Iterator<Item = &'q Query>,
    doc: &Document,
    context: NodeId,
) -> Vec<(NodeId, usize)> {
    let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
    for query in queries {
        for node in evaluate_with(cx, query, doc, context) {
            *counts.entry(node).or_insert(0) += 1;
        }
    }
    let mut nodes: Vec<NodeId> = counts.keys().copied().collect();
    doc.sort_document_order(&mut nodes);
    nodes.into_iter().map(|n| (n, counts[&n])).collect()
}

/// Nodes selected by a strict majority of `queries` — the one majority
/// vote behind ensembles and multi-entry bundles.
pub(crate) fn majority<'q>(
    cx: &mut EvalContext,
    queries: impl ExactSizeIterator<Item = &'q Query>,
    doc: &Document,
    context: NodeId,
) -> Vec<NodeId> {
    let threshold = queries.len() / 2 + 1;
    votes(cx, queries, doc, context)
        .into_iter()
        .filter(|(_, votes)| *votes >= threshold)
        .map(|(node, _)| node)
        .collect()
}

fn jaccard(a: &BTreeSet<NodeId>, b: &BTreeSet<NodeId>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let intersection = a.intersection(b).count() as f64;
    let union = a.union(b).count() as f64;
    intersection / union
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_dom::parse_html;
    use wi_scoring::{Counts, ScoringParams};
    use wi_xpath::parse_query;

    const MOVIE_PAGE: &str = r#"<html><body>
        <div id="content" class="page">
          <div class="txt-block" itemprop="director">
            <h4 class="inline">Director:</h4>
            <a href="/name/nm1"><span class="itemprop" itemprop="name">Martin Scorsese</span></a>
          </div>
          <div class="txt-block">
            <h4 class="inline">Writer:</h4>
            <a href="/name/nm2"><em>Nicholas Pileggi</em></a>
          </div>
        </div>
        <div id="sidebar"><a href="/ads"><span>Advert</span></a></div>
    </body></html>"#;

    fn director_span(doc: &Document) -> NodeId {
        doc.descendants(doc.root())
            .find(|&n| {
                doc.tag_name(n) == Some("span") && doc.normalized_text(n) == "Martin Scorsese"
            })
            .unwrap()
    }

    fn instance(expr: &str) -> QueryInstance {
        QueryInstance::new(
            parse_query(expr).unwrap(),
            Counts::new(1, 0, 0),
            &ScoringParams::paper_defaults(),
        )
    }

    #[test]
    fn features_capture_selection_means() {
        let q = parse_query(
            r#"descendant::div[starts-with(.,"Director:")]/descendant::span[@itemprop="name"][2]"#,
        )
        .unwrap();
        let features = QueryFeatures::of(&q);
        assert!(features.attributes.contains("itemprop"));
        assert!(features.constants.contains("Director:"));
        assert!(features.constants.contains("name"));
        assert!(features.tags.contains("div") && features.tags.contains("span"));
        assert!(features.axes.contains("descendant"));
        assert!(features.uses_position);
        assert!(features.uses_text);
    }

    #[test]
    fn features_recurse_into_nested_path_predicates() {
        let q =
            parse_query(r#"descendant::img[ancestor::div[1][@class="contentSmLeft"]]"#).unwrap();
        let features = QueryFeatures::of(&q);
        assert!(features.attributes.contains("class"));
        assert!(features.constants.contains("contentSmLeft"));
        assert!(features.uses_position);
    }

    #[test]
    fn overlap_is_one_for_identical_and_zero_for_disjoint_means() {
        let a = QueryFeatures::of(&parse_query(r#"descendant::span[@itemprop="name"]"#).unwrap());
        let b = QueryFeatures::of(&parse_query(r#"descendant::span[@itemprop="name"]"#).unwrap());
        let c = QueryFeatures::of(
            &parse_query(r#"descendant::div[@id="content"]/child::span"#).unwrap(),
        );
        assert_eq!(a.overlap(&b), 1.0);
        assert_eq!(a.overlap(&c), 0.0);
        // Overlap is symmetric.
        assert_eq!(a.overlap(&c), c.overlap(&a));
    }

    #[test]
    fn predicate_free_queries_overlap_fully() {
        let a = QueryFeatures::of(&parse_query("descendant::span").unwrap());
        let b = QueryFeatures::of(&parse_query("child::div/child::span").unwrap());
        assert_eq!(a.overlap(&b), 1.0);
    }

    #[test]
    fn induced_ensemble_members_are_exact_and_distinct() {
        let doc = parse_html(MOVIE_PAGE).unwrap();
        let target = director_span(&doc);
        let ensemble = WrapperEnsemble::induce_single(&doc, &[target], &EnsembleConfig::default());
        assert!(
            ensemble.len() >= 2,
            "expected ≥2 members, got {:?}",
            ensemble.expressions()
        );
        let expressions = ensemble.expressions();
        let distinct: BTreeSet<&String> = expressions.iter().collect();
        assert_eq!(distinct.len(), expressions.len(), "duplicate members");
        for member in &ensemble.members {
            assert!(member.is_exact(), "member {} not exact", member.query);
            assert_eq!(
                wi_xpath::evaluate(&member.query, &doc, doc.root()),
                vec![target]
            );
        }
        // Full agreement and exact majority extraction on the training page.
        assert_eq!(ensemble.agreement(&doc), 1.0);
        assert_eq!(ensemble.extract_majority(&doc), vec![target]);
        assert_eq!(ensemble.extract_intersection(&doc), vec![target]);
        assert_eq!(ensemble.extract_union(&doc), vec![target]);
    }

    #[test]
    fn induced_members_use_diverse_features_when_available() {
        let doc = parse_html(MOVIE_PAGE).unwrap();
        let target = director_span(&doc);
        let config = EnsembleConfig::default().with_size(3);
        let ensemble = WrapperEnsemble::induce_single(&doc, &[target], &config);
        assert!(ensemble.len() >= 2);
        let features: Vec<QueryFeatures> = ensemble
            .members
            .iter()
            .map(|m| QueryFeatures::of(&m.query))
            .collect();
        // At least the first two members must respect the diversity
        // threshold (pass 1 always places them when any diverse pair exists).
        assert!(
            features[0].overlap(&features[1]) <= config.max_overlap,
            "first two members overlap too much: {:?}",
            ensemble.expressions()
        );
    }

    #[test]
    fn majority_survives_a_change_that_breaks_one_member() {
        // Three handcrafted members relying on independent means: itemprop
        // attribute, template text, and the content id.
        let ensemble = WrapperEnsemble::from_members(vec![
            instance(r#"descendant::span[@itemprop="name"]"#),
            instance(r#"descendant::div[starts-with(.,"Director:")]/descendant::span"#),
            instance(r#"descendant::div[@id="content"]/descendant::a/child::span"#),
        ]);
        let doc = parse_html(MOVIE_PAGE).unwrap();
        let target = director_span(&doc);
        assert_eq!(ensemble.extract_majority(&doc), vec![target]);
        assert_eq!(ensemble.agreement(&doc), 1.0);

        // A later snapshot renames the content id ("site-wide redesign"),
        // breaking the third member only.
        let changed = MOVIE_PAGE.replace(r#"id="content""#, r#"id="main-content""#);
        let doc2 = parse_html(&changed).unwrap();
        let target2 = director_span(&doc2);
        assert_eq!(ensemble.extract_majority(&doc2), vec![target2]);
        assert!(ensemble.agreement(&doc2) < 1.0);
        // The union still contains the target; the intersection is empty
        // because the broken member selects nothing.
        assert!(ensemble.extract_union(&doc2).contains(&target2));
        assert!(ensemble.extract_intersection(&doc2).is_empty());
    }

    #[test]
    fn votes_count_every_member() {
        let ensemble = WrapperEnsemble::from_members(vec![
            instance("descendant::span"),
            instance(r#"descendant::span[@itemprop="name"]"#),
        ]);
        let doc = parse_html(MOVIE_PAGE).unwrap();
        let votes = ensemble.votes(&doc);
        let director = director_span(&doc);
        let director_votes = votes.iter().find(|(n, _)| *n == director).unwrap().1;
        assert_eq!(director_votes, 2);
        // The advert span is selected by the unpredicated member only.
        let advert = doc
            .descendants(doc.root())
            .find(|&n| doc.tag_name(n) == Some("span") && doc.normalized_text(n) == "Advert")
            .unwrap();
        let advert_votes = votes.iter().find(|(n, _)| *n == advert).unwrap().1;
        assert_eq!(advert_votes, 1);
    }

    #[test]
    fn empty_and_singleton_ensembles_are_well_behaved() {
        let doc = parse_html(MOVIE_PAGE).unwrap();
        let empty = WrapperEnsemble::default();
        assert!(empty.is_empty());
        assert!(empty.extract_majority(&doc).is_empty());
        assert!(empty.extract_union(&doc).is_empty());
        assert_eq!(empty.agreement(&doc), 1.0);

        let single =
            WrapperEnsemble::from_members(vec![instance(r#"descendant::span[@itemprop="name"]"#)]);
        assert_eq!(single.len(), 1);
        assert_eq!(single.agreement(&doc), 1.0);
        assert_eq!(single.extract_majority(&doc), vec![director_span(&doc)]);
    }

    #[test]
    fn ensemble_induction_for_multi_target_lists() {
        let doc = parse_html(
            r#"<html><body>
              <div id="listing" class="results">
                <ul class="items">
                  <li class="item"><span class="title">A</span></li>
                  <li class="item"><span class="title">B</span></li>
                  <li class="item"><span class="title">C</span></li>
                </ul>
              </div>
              <div id="sidebar"><ul><li>ad</li></ul></div>
            </body></html>"#,
        )
        .unwrap();
        let targets = doc.elements_by_class("title");
        assert_eq!(targets.len(), 3);
        let ensemble = WrapperEnsemble::induce_single(&doc, &targets, &EnsembleConfig::default());
        assert!(!ensemble.is_empty());
        assert_eq!(ensemble.extract_majority(&doc), targets);
    }

    #[test]
    fn config_builders_clamp_inputs() {
        let config = EnsembleConfig::default().with_size(0).with_max_overlap(7.0);
        assert_eq!(config.size, 1);
        assert_eq!(config.max_overlap, 1.0);
    }
}
