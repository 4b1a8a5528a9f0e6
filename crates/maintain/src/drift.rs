//! Drift classification: mapping a flagged wrapper onto the paper's
//! Section 6.2 break groups by diffing the failing step against the evolved
//! DOM.
//!
//! The classifier never sees ground truth.  Its tools are
//!
//! * **prefix evaluation** — walking the expression step by step to find the
//!   first step that selects nothing (or selects the wrong neighborhood),
//! * **anchor relaxation** — dropping one predicate of the failing step and
//!   collecting the candidate nodes the relaxed step reaches (a tag-index
//!   neighborhood search: `div[@class="gone"]` relaxes to the `div`s of the
//!   subtree, served by the document's tag index),
//! * **re-validation** — substituting each candidate's attribute value (or
//!   sibling position, read off the document-order index) back into
//!   the expression and accepting the substitution only if the *whole*
//!   expression then extracts a result whose cardinality is consistent with
//!   the last-known-good state.
//!
//! A successful substitution is simultaneously the classification (rename /
//! redesign / positional) and the repair ([`crate::Repairer`] installs the
//! fixed expression).  When no substitution survives re-validation, the
//! classifier distinguishes a diminishing target (the anchors themselves —
//! template label texts or attribute values — vanished from the page) from
//! an unknown break.

use crate::verify::{HealthReport, HealthSignal, LastKnownGood};
use serde::{Deserialize, Serialize};
use wi_dom::{Document, NodeId};
use wi_induction::WrapperBundle;
use wi_xpath::eval::evaluate_step;
use wi_xpath::{Predicate, PrefixEvaluator, Query, Step, StringFunction, TextSource};

/// The break groups of the paper's Section 6.2, as a drift classifier
/// reports them (compare `wi_webgen::ChangeClass`, the generated ground
/// truth the classifier is scored against).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DriftClass {
    /// Positional churn: the expression's positional anchors point at the
    /// wrong sibling after inserts/removals (groups (b)/(c)).
    Positional,
    /// An anchor attribute value was renamed in place (groups (b)/(d)).
    AttributeRename,
    /// A site-wide redesign re-namespaced the anchors (group (d)).
    Redesign,
    /// The wrapper's target (and its anchors) disappeared from the page
    /// (group (f), diminishing targets).
    TargetRemoved,
    /// The snapshot is a broken archive capture (group (e)).
    PageBroken,
    /// The break resists classification.
    Unknown,
}

impl DriftClass {
    /// A short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DriftClass::Positional => "positional",
            DriftClass::AttributeRename => "attribute-rename",
            DriftClass::Redesign => "redesign",
            DriftClass::TargetRemoved => "target-removed",
            DriftClass::PageBroken => "page-broken",
            DriftClass::Unknown => "unknown",
        }
    }
}

/// One validated substitution inside an expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryFix {
    /// Step index inside the expression.
    pub step: usize,
    /// Predicate index inside the step.
    pub predicate: usize,
    /// What was substituted.
    pub kind: FixKind,
}

/// The kinds of in-place substitution the classifier can validate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FixKind {
    /// An attribute anchor re-anchored onto a new value.
    Reanchor {
        /// The anchored attribute.
        attribute: String,
        /// The value the expression anchored on.
        from: String,
        /// The value found in the evolved neighborhood.
        to: String,
    },
    /// A positional predicate shifted to a new index.
    Reposition {
        /// The old 1-based position (or last()-offset).
        from: u32,
        /// The new 1-based position (or last()-offset).
        to: u32,
    },
}

impl FixKind {
    /// Whether this fix looks like a redesign re-namespacing rather than an
    /// individual rename: the new value is the old value with a short
    /// version-marker suffix (`content` → `content-r1`, `hp-price` →
    /// `hp-price-v2`).  An individual semantic rename replaces the value
    /// wholesale and shares no such prefix.
    pub fn is_redesign_style(&self) -> bool {
        match self {
            FixKind::Reanchor { from, to, .. } => to
                .strip_prefix(from.as_str())
                .and_then(|rest| rest.strip_prefix('-'))
                .is_some_and(|marker| {
                    let digits = marker.trim_start_matches(|c: char| c.is_ascii_alphabetic());
                    marker.len() <= 4
                        && marker.starts_with(|c: char| c.is_ascii_alphabetic())
                        && !digits.is_empty()
                        && digits.bytes().all(|b| b.is_ascii_digit())
                }),
            FixKind::Reposition { .. } => false,
        }
    }
}

/// The diagnosis of one bundle entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EntryDiagnosis {
    /// Index of the entry inside the bundle.
    pub entry: usize,
    /// The fully fixed expression, when the fix search succeeded.
    pub fixed: Option<Query>,
    /// The substitutions that produced `fixed` (empty when the entry still
    /// evaluated acceptably on its own).
    pub fixes: Vec<QueryFix>,
    /// A template-text anchor of this entry no longer occurs on the page.
    pub text_anchor_gone: bool,
    /// An attribute anchor value of this entry no longer occurs on the page.
    pub attr_anchor_gone: bool,
    /// An attribute anchor still occurs, but the last-known-good
    /// **neighborhood fingerprint** recorded for it (see
    /// [`AnchorCarrier::neighborhood`](crate::verify::AnchorCarrier)) is
    /// gone from every surviving carrier — the sibling context the
    /// expression used to descend through was removed with its block, and
    /// only an unrelated carrier of the same value survives.
    #[serde(default)]
    pub neighborhood_gone: bool,
}

/// The classifier's verdict for one flagged snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftReport {
    /// The snapshot day.
    pub day: i64,
    /// The inferred break group.
    pub class: DriftClass,
    /// Per-entry diagnoses (empty for broken captures).
    pub entries: Vec<EntryDiagnosis>,
}

impl DriftReport {
    /// Whether at least one entry has a validated fixed expression.
    pub fn repairable_in_place(&self) -> bool {
        self.entries.iter().any(|e| e.fixed.is_some())
    }
}

/// Maximum substitutions per expression (a redesign renames several anchors
/// at once).
const MAX_FIXES: usize = 4;

/// Maximum candidate values tried per relaxed predicate.
const MAX_CANDIDATES: usize = 6;

/// Total evaluation budget of one entry's fix search.
const SEARCH_BUDGET: usize = 96;

/// Classifies flagged wrappers onto break groups.
#[derive(Debug, Clone, Default)]
pub struct DriftClassifier;

impl DriftClassifier {
    /// Classifies one flagged snapshot.
    ///
    /// All full-expression probes and prefix walks of the fix search run
    /// through one per-call [`PrefixEvaluator`]: the prefix node sets are
    /// memoized across the bundle's entries (ensemble members share
    /// anchors) and across the relaxation/backtracking attempts, which used
    /// to re-run every prefix per attempt.
    pub fn classify(
        &self,
        bundle: &WrapperBundle,
        doc: &Document,
        day: i64,
        lkg: Option<&LastKnownGood>,
        health: &HealthReport,
    ) -> DriftReport {
        if health.page_broken() {
            return DriftReport {
                day,
                class: DriftClass::PageBroken,
                entries: Vec::new(),
            };
        }

        let mut prefix = PrefixEvaluator::new(doc);
        let mut entries = Vec::new();
        for (entry_idx, query) in bundle.entries.iter().map(|e| &e.query).enumerate() {
            let search = Search { doc, lkg };
            let acceptable = {
                let initial = prefix.evaluate(doc.root(), query);
                search.acceptable(initial)
            };
            let (fixed, fixes) = if acceptable {
                (None, Vec::new())
            } else {
                let mut candidate = query.clone();
                let mut fixes = Vec::new();
                let mut budget = SEARCH_BUDGET;
                if search.run(&mut prefix, &mut candidate, &mut fixes, &mut budget, 0) {
                    (Some(candidate), fixes)
                } else {
                    (None, Vec::new())
                }
            };
            entries.push(EntryDiagnosis {
                entry: entry_idx,
                fixed,
                text_anchor_gone: text_anchor_gone(query, doc),
                attr_anchor_gone: attr_anchor_gone(query, doc),
                neighborhood_gone: neighborhood_gone(query, doc, lkg),
                fixes,
            });
        }

        let class = derive_class(&entries);
        DriftReport {
            day,
            class,
            entries,
        }
    }
}

/// Derives the break group from the per-entry diagnoses.
fn derive_class(entries: &[EntryDiagnosis]) -> DriftClass {
    // A validated substitution is the strongest evidence.
    if let Some(e) = entries
        .iter()
        .find(|e| e.fixed.is_some() && !e.fixes.is_empty())
    {
        if e.fixes.iter().any(|f| f.kind.is_redesign_style()) {
            return DriftClass::Redesign;
        }
        if e.fixes
            .iter()
            .any(|f| matches!(f.kind, FixKind::Reanchor { .. }))
        {
            return DriftClass::AttributeRename;
        }
        return DriftClass::Positional;
    }
    // No fix: the anchors themselves vanished ⇒ diminishing target.
    let broken: Vec<&EntryDiagnosis> = entries.iter().filter(|e| e.fixed.is_none()).collect();
    if !broken.is_empty()
        && broken
            .iter()
            .all(|e| e.text_anchor_gone || e.attr_anchor_gone || e.neighborhood_gone)
    {
        return DriftClass::TargetRemoved;
    }
    DriftClass::Unknown
}

/// Whether any template-text anchor of the query no longer occurs on the
/// page: no element's normalized text satisfies the anchor's comparison.
fn text_anchor_gone(query: &Query, doc: &Document) -> bool {
    query.steps.iter().any(|s| {
        s.predicates.iter().any(|p| match p {
            Predicate::StringCompare {
                source: TextSource::NormalizedText,
                func,
                value,
            } => !crate::verify::text_anchor_occurs(doc, value, *func),
            _ => false,
        })
    })
}

/// Whether any attribute anchor value of the query no longer occurs on the
/// page: no element matching the step's node test carries it.
fn attr_anchor_gone(query: &Query, doc: &Document) -> bool {
    query.steps.iter().any(|s| {
        s.predicates.iter().any(|p| match p {
            Predicate::StringCompare {
                source: TextSource::Attribute(name),
                func: func @ StringFunction::Equals,
                value,
            } => !crate::verify::attribute_value_occurs(doc, &s.test, name, value, *func),
            _ => false,
        })
    })
}

/// Whether an attribute anchor of the query *survives positionally masked*:
/// its value still occurs on the page, but the evidenced neighborhood
/// fingerprint the last-known-good state recorded for that anchor appears
/// in no surviving carrier.
///
/// This is the `target-removed → unknown` confusion fix: when a repeated
/// anchor value (`div[@class="blk"]` × N) loses the block the expression
/// descended through, a positional predicate silently re-binds to a
/// surviving sibling carrier.  `attr_anchor_gone` stays false — the value
/// is still on the page — and the break used to land in
/// [`DriftClass::Unknown`].  The fingerprint (the removed block's stable
/// labels, e.g. `"Director:"`) distinguishes the two: present ⇒ genuinely
/// ambiguous, gone ⇒ the target's block was removed.  The fingerprint only
/// counts once evidenced (`neighborhood_stable >= 2`), so list churn
/// inside a carrier never triggers a removal verdict.
fn neighborhood_gone(query: &Query, doc: &Document, lkg: Option<&LastKnownGood>) -> bool {
    let Some(lkg) = lkg else {
        return false;
    };
    query.steps.iter().any(|s| {
        s.predicates.iter().any(|p| match p {
            Predicate::StringCompare {
                source: TextSource::Attribute(name),
                func: StringFunction::Equals,
                value,
            } => lkg.anchor_census(name, value).is_some_and(|carrier| {
                !carrier.neighborhood.is_empty()
                    && carrier.neighborhood_stable >= 2
                    && !crate::verify::neighborhood_present(doc, name, value, &carrier.neighborhood)
            }),
            _ => false,
        })
    })
}

/// The bounded backtracking fix search.
struct Search<'a> {
    doc: &'a Document,
    lkg: Option<&'a LastKnownGood>,
}

impl Search<'_> {
    /// Whether a full-expression result is consistent with the last-known
    /// -good state: cardinality within tolerance *and* the same node shape
    /// (a substitution that lands on one `img` when the wrapper used to
    /// select one `span` is a wrong unique match, not a repair).
    fn acceptable(&self, result: &[NodeId]) -> bool {
        if result.is_empty() {
            return false;
        }
        let Some(lkg) = self.lkg else {
            return true;
        };
        let drifted = lkg
            .structural_drift(self.doc, result)
            .iter()
            .any(|signal| match signal {
                // The one place the two judgments differ: against a state
                // that recorded zero nodes the verifier flags every
                // extraction, while a fix landing on a single node is
                // accepted here.  The loop never captures such a state (it
                // captures healthy, hence non-empty, extractions), but a
                // caller-supplied seed or a hand-built state can hold one.
                HealthSignal::CardinalityDrift {
                    expected: 0,
                    got: 1,
                } => false,
                _ => true,
            });
        if drifted {
            return false;
        }
        // Evidently template-stable targets must be reproduced *verbatim*: a
        // substitution landing on a different unique node of the same shape
        // (the logo link instead of the "Next" link) is a wrong match, not a
        // repair.
        if lkg.texts_evidently_stable() {
            let mut texts: Vec<String> = result
                .iter()
                .map(|&n| self.doc.normalized_text(n))
                .collect();
            texts.sort();
            let mut expected = lkg.texts.clone();
            expected.sort();
            if texts != expected {
                return false;
            }
        }
        true
    }

    /// Tries to make `query` acceptable by substituting anchors, recursing
    /// over multiple broken steps (redesigns rename several at once).
    /// Returns `true` on success, with `query` mutated into the fixed
    /// expression and `fixes` describing every substitution.
    fn run(
        &self,
        prefix: &mut PrefixEvaluator<'_>,
        query: &mut Query,
        fixes: &mut Vec<QueryFix>,
        budget: &mut usize,
        depth: usize,
    ) -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        let acceptable = {
            let result = prefix.evaluate(self.doc.root(), query);
            self.acceptable(result)
        };
        if acceptable {
            return true;
        }
        if depth >= MAX_FIXES {
            return false;
        }

        // Walk the prefix to the first step that selects nothing.  Fix sites
        // are tried from that step backwards: an earlier positional anchor
        // picking the wrong sibling surfaces as a later step coming up empty.
        let (failing, contexts_by_step) = self.prefix_contexts(prefix, query);
        for step_idx in (0..=failing.min(query.steps.len().saturating_sub(1))).rev() {
            let contexts = &contexts_by_step[step_idx];
            if contexts.is_empty() {
                continue;
            }
            for pred_idx in 0..query.steps[step_idx].predicates.len() {
                // One substitution per site and chain: re-fixing an anchor
                // this chain already rewrote would only undo or thrash it.
                if fixes
                    .iter()
                    .any(|f| f.step == step_idx && f.predicate == pred_idx)
                {
                    continue;
                }
                match query.steps[step_idx].predicates[pred_idx].clone() {
                    Predicate::StringCompare {
                        func: StringFunction::Equals,
                        source: TextSource::Attribute(name),
                        value: from,
                    } => {
                        for to in
                            self.candidate_values(query, step_idx, pred_idx, contexts, &name, &from)
                        {
                            set_compare_value(query, step_idx, pred_idx, &to);
                            fixes.push(QueryFix {
                                step: step_idx,
                                predicate: pred_idx,
                                kind: FixKind::Reanchor {
                                    attribute: name.clone(),
                                    from: from.clone(),
                                    to,
                                },
                            });
                            if self.run(prefix, query, fixes, budget, depth + 1) {
                                return true;
                            }
                            fixes.pop();
                            set_compare_value(query, step_idx, pred_idx, &from);
                        }
                    }
                    Predicate::Position(from) => {
                        for to in
                            self.candidate_positions(query, step_idx, pred_idx, contexts, from)
                        {
                            query.steps[step_idx].predicates[pred_idx] = Predicate::Position(to);
                            fixes.push(QueryFix {
                                step: step_idx,
                                predicate: pred_idx,
                                kind: FixKind::Reposition { from, to },
                            });
                            if self.run(prefix, query, fixes, budget, depth + 1) {
                                return true;
                            }
                            fixes.pop();
                            query.steps[step_idx].predicates[pred_idx] = Predicate::Position(from);
                        }
                    }
                    // Text anchors are template labels: a label does not get
                    // "renamed", it disappears with its block — that is a
                    // diminishing target, not something to re-anchor.
                    // `last()-n` anchors already track list-length churn.
                    _ => {}
                }
            }
        }
        false
    }

    /// Evaluates every prefix of the query, returning the index of the first
    /// empty step (or the last step when none is empty but the result is
    /// unacceptable) plus the context set *before* each step.
    ///
    /// Every prefix set comes out of the shared trie, so re-walking the same
    /// expression across relaxation attempts (which the backtracking search
    /// does constantly) costs one trie lookup per step instead of a fresh
    /// evaluation per attempt.
    fn prefix_contexts(
        &self,
        prefix: &mut PrefixEvaluator<'_>,
        query: &Query,
    ) -> (usize, Vec<Vec<NodeId>>) {
        let root = self.doc.root();
        let mut contexts_by_step: Vec<Vec<NodeId>> = Vec::with_capacity(query.steps.len());
        for k in 0..query.steps.len() {
            contexts_by_step.push(prefix.evaluate_prefix(root, query, k).to_vec());
            if prefix.evaluate_prefix(root, query, k + 1).is_empty() {
                // Later steps have no contexts at all.
                for _ in k + 1..query.steps.len() {
                    contexts_by_step.push(Vec::new());
                }
                return (k, contexts_by_step);
            }
        }
        (query.steps.len().saturating_sub(1), contexts_by_step)
    }

    /// The candidate replacement values for a relaxed attribute anchor: the
    /// values of `name` on the nodes the relaxed step reaches from the live
    /// contexts, deduplicated, ranked redesign-suffix first and then by
    /// token overlap with the old value.
    ///
    /// The relaxation drops the anchor *and* every positional predicate of
    /// the step — `[@class="gone"][1]` must offer the values of all
    /// candidates, not just of whatever node happens to be first once the
    /// anchor is gone.  On the final step, candidates whose tag the wrapper
    /// never extracted (per the last-known-good shape) are skipped: a
    /// unique `img` class is not a plausible re-anchor for a `span` wrapper.
    fn candidate_values(
        &self,
        query: &Query,
        step_idx: usize,
        pred_idx: usize,
        contexts: &[NodeId],
        name: &str,
        from: &str,
    ) -> Vec<String> {
        let mut relaxed: Step = query.steps[step_idx].clone();
        relaxed.predicates = query.steps[step_idx]
            .predicates
            .iter()
            .enumerate()
            .filter(|(i, p)| *i != pred_idx && !p.is_positional())
            .map(|(_, p)| p.clone())
            .collect();
        let last_step = step_idx + 1 == query.steps.len();
        let shape_filter = self.lkg.filter(|_| last_step).map(|l| &l.tags);
        let mut values: Vec<String> = Vec::new();
        for &c in contexts {
            for node in evaluate_step(&relaxed, self.doc, c) {
                if let Some(tags) = shape_filter {
                    let plausible = self
                        .doc
                        .tag_name(node)
                        .is_some_and(|t| tags.iter().any(|known| known == t));
                    if !plausible {
                        continue;
                    }
                }
                if let Some(v) = self.doc.attribute(node, name) {
                    if v != from && !values.iter().any(|seen| seen == v) {
                        values.push(v.to_string());
                    }
                }
            }
        }

        // How many elements of the evolved page carry each candidate value
        // under this attribute: a rename moves the anchor's whole carrier
        // set to the new value, so the census recorded at the last healthy
        // snapshot is the expected carrier count.
        let mut carriers: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for n in self.doc.descendants(self.doc.root()) {
            if let Some(v) = self.doc.attribute(n, name) {
                *carriers.entry(v).or_insert(0) += 1;
            }
        }
        let census = self
            .lkg
            .and_then(|l| l.anchor_census(name, from))
            .map(|c| c.count);

        let redesign = |v: &str| {
            FixKind::Reanchor {
                attribute: name.to_string(),
                from: from.to_string(),
                to: v.to_string(),
            }
            .is_redesign_style()
        };
        // A renamed value is *new*: it did not exist anywhere on the last
        // healthy snapshot.  Candidates that were already present back then
        // are old neighbors (the rating class, the logo class), not renames
        // — re-anchoring onto one would silently hijack another element's
        // role, so novelty (or a redesign-style suffix) is a hard
        // requirement, not just a ranking signal.
        let novel = |v: &str| {
            self.lkg
                .map(|l| !l.attribute_values.contains(v))
                .unwrap_or(false)
        };
        if self.lkg.is_some() {
            values.retain(|v| novel(v) || redesign(v));
        }
        let census_distance = |v: &str| -> usize {
            let Some(expected) = census else {
                return 0;
            };
            carriers.get(v).copied().unwrap_or(0).abs_diff(expected)
        };
        let overlap = |v: &str| -> usize {
            let tokens: Vec<&str> = from.split(['-', '_', ' ']).collect();
            v.split(['-', '_', ' '])
                .filter(|t| tokens.contains(t))
                .count()
        };
        // Stable sort keeps document order among equally ranked candidates.
        values.sort_by_key(|v| {
            (
                !redesign(v),
                !novel(v),
                census_distance(v),
                usize::MAX - overlap(v),
            )
        });
        values.truncate(MAX_CANDIDATES);
        values
    }

    /// The candidate replacement indices for a relaxed positional anchor,
    /// ranked by distance from the old index.
    fn candidate_positions(
        &self,
        query: &Query,
        step_idx: usize,
        pred_idx: usize,
        contexts: &[NodeId],
        from: u32,
    ) -> Vec<u32> {
        let mut relaxed: Step = query.steps[step_idx].clone();
        relaxed.predicates.remove(pred_idx);
        let max_len = contexts
            .iter()
            .map(|&c| evaluate_step(&relaxed, self.doc, c).len())
            .max()
            .unwrap_or(0) as u32;
        let mut positions: Vec<u32> = (1..=max_len).filter(|&p| p != from).collect();
        positions.sort_by_key(|&p| (p.abs_diff(from), p));
        positions.truncate(MAX_CANDIDATES);
        positions
    }
}

/// Rewrites the string constant of a `StringCompare` predicate in place.
fn set_compare_value(query: &mut Query, step_idx: usize, pred_idx: usize, to: &str) {
    if let Predicate::StringCompare { value, .. } = &mut query.steps[step_idx].predicates[pred_idx]
    {
        *value = to.to_string();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::Verifier;
    use wi_dom::Document;
    use wi_induction::WrapperInducer;
    use wi_scoring::ScoringParams;
    use wi_xpath::parse_query;

    fn bundle_for(doc: &Document, targets: &[NodeId]) -> WrapperBundle {
        let wrapper = WrapperInducer::default()
            .try_induce_best(doc, targets)
            .unwrap();
        WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults())
    }

    fn flag_and_classify(
        bundle: &WrapperBundle,
        healthy_doc: &Document,
        healthy_targets: &[NodeId],
        evolved: &Document,
    ) -> DriftReport {
        let lkg = LastKnownGood::capture(healthy_doc, 0, healthy_targets);
        let verifier = Verifier;
        let health = verifier.check(bundle, evolved, 20, Some(&lkg));
        assert!(!health.healthy(), "evolved page should break the wrapper");
        DriftClassifier.classify(bundle, evolved, 20, Some(&lkg), &health)
    }

    #[test]
    fn semantic_rename_is_classified_and_fixed() {
        let v1 = Document::parse(
            r#"<body><div id="nav"><ul><li>a</li><li>b</li><li>c</li></ul></div>
               <div id="main"><h4>Director:</h4>
               <span class="itemprop">Scorsese</span></div>
               <div id="side"><span class="other">x</span></div></body>"#,
        )
        .unwrap();
        let target = v1.elements_by_class("itemprop");
        let bundle = bundle_for(&v1, &target);
        // The class is renamed to something with no lexical overlap.
        let v2 = Document::parse(
            r#"<body><div id="nav"><ul><li>a</li><li>b</li><li>c</li></ul></div>
               <div id="main"><h4>Director:</h4>
               <span class="renamed-41-812">Coppola</span></div>
               <div id="side"><span class="other">x</span></div></body>"#,
        )
        .unwrap();
        let report = flag_and_classify(&bundle, &v1, &target, &v2);
        assert_eq!(report.class, DriftClass::AttributeRename);
        assert!(report.repairable_in_place());
        let fixed = report.entries[0].fixed.as_ref().unwrap();
        assert_eq!(
            wi_xpath::evaluate(fixed, &v2, v2.root()),
            v2.elements_by_class("renamed-41-812")
        );
    }

    #[test]
    fn redesign_suffix_is_classified_as_redesign() {
        let v1 = Document::parse(
            r#"<body><div id="header"><span>logo</span><span>search</span></div>
               <div id="content"><ul class="items">
               <li class="row">a</li><li class="row">b</li><li class="row">c</li>
               </ul></div></body>"#,
        )
        .unwrap();
        let targets = v1.elements_by_class("row");
        let bundle = bundle_for(&v1, &targets);
        let v2 = Document::parse(
            r#"<body><div id="header"><span>logo</span><span>search</span></div>
               <div id="content-r1"><ul class="items-r1">
               <li class="row-r1">a</li><li class="row-r1">b</li><li class="row-r1">c</li>
               </ul></div></body>"#,
        )
        .unwrap();
        let report = flag_and_classify(&bundle, &v1, &targets, &v2);
        assert_eq!(report.class, DriftClass::Redesign);
        let fixed = report.entries[0].fixed.as_ref().unwrap();
        assert_eq!(
            wi_xpath::evaluate(fixed, &v2, v2.root()).len(),
            3,
            "fixed: {fixed}"
        );
    }

    #[test]
    fn positional_shift_is_classified_via_the_order_index() {
        // A canonical, position-anchored wrapper: /html/body/div[2]/h1.
        let v1 = Document::parse(
            r#"<html><body><div>nav</div><div><h1>Title</h1><p>intro</p><p>more</p></div></body></html>"#,
        )
        .unwrap();
        let query = "child::html[1]/child::body[1]/child::div[2]/child::h1[1]";
        let mut bundle = bundle_for(&v1, &v1.elements_by_tag("h1"));
        bundle.entries[0].query = parse_query(query).unwrap();
        // A promo block shifts the content div from position 2 to 3.
        let v2 = Document::parse(
            r#"<html><body><div>nav</div><div>promo!</div><div><h1>Title</h1><p>intro</p><p>more</p></div></body></html>"#,
        )
        .unwrap();
        let report = flag_and_classify(&bundle, &v1, &v1.elements_by_tag("h1"), &v2);
        assert_eq!(report.class, DriftClass::Positional);
        let fixed = report.entries[0].fixed.as_ref().unwrap();
        assert_eq!(
            wi_xpath::evaluate(fixed, &v2, v2.root()),
            v2.elements_by_tag("h1")
        );
        assert!(report.entries[0]
            .fixes
            .iter()
            .any(|f| matches!(f.kind, FixKind::Reposition { from: 2, to: 3 })));
    }

    #[test]
    fn removed_target_is_classified_as_target_removed() {
        let v1 = Document::parse(
            r#"<body><div class="blk"><h4>Director:</h4><span class="itemprop">S</span></div>
               <div class="blk"><h4>Stars:</h4><span class="itemprop">A</span>
               <span class="itemprop">B</span></div>
               <ul><li>1</li><li>2</li><li>3</li><li>4</li></ul></body>"#,
        )
        .unwrap();
        // The director span: anchored through the "Director:" label.
        let director = vec![v1.elements_by_class("itemprop")[0]];
        let bundle = bundle_for(&v1, &director);
        // The whole director block disappears.
        let v2 = Document::parse(
            r#"<body><div class="blk"><h4>Stars:</h4><span class="itemprop">A</span>
               <span class="itemprop">B</span></div>
               <ul><li>1</li><li>2</li><li>3</li><li>4</li></ul></body>"#,
        )
        .unwrap();
        let report = flag_and_classify(&bundle, &v1, &director, &v2);
        assert_eq!(
            report.class,
            DriftClass::TargetRemoved,
            "report: {report:?}"
        );
        assert!(!report.repairable_in_place());
    }

    #[test]
    fn verifier_and_fix_search_share_the_cardinality_slack_edge() {
        let page = |n: usize| {
            let items: String = (0..n)
                .map(|i| format!(r#"<span class="p">{i}</span>"#))
                .collect();
            Document::parse(&format!(
                r#"<html><body><div id="main"><h4>Prices:</h4>{items}</div>
                   <div id="side"><ul><li>a</li><li>b</li><li>c</li><li>d</li></ul></div>
                   </body></html>"#
            ))
            .unwrap()
        };
        let v1 = page(4);
        let targets = v1.elements_by_class("p");
        let bundle = bundle_for(&v1, &targets);
        // Four nodes: the slack is max(4 × 0.5, 1) = 2.
        let lkg = LastKnownGood::capture(&v1, 0, &targets);
        assert_eq!(lkg.count, 4);

        let six = page(6);
        let seven = page(7);
        let health = |doc: &Document| Verifier.check(&bundle, doc, 20, Some(&lkg));
        assert!(health(&six).healthy(), "{:?}", health(&six).signals);
        assert!(health(&seven)
            .signals
            .contains(&HealthSignal::CardinalityDrift {
                expected: 4,
                got: 7
            }));

        let accepts = |doc: &Document| {
            let search = Search {
                doc,
                lkg: Some(&lkg),
            };
            search.acceptable(&doc.elements_by_class("p"))
        };
        assert!(accepts(&six));
        assert!(!accepts(&seven));
    }

    #[test]
    fn broken_capture_is_classified_as_page_broken() {
        let v1 = Document::parse(
            r#"<body><div id="main"><h4>Label:</h4><span class="v">x</span></div>
               <ul><li>1</li><li>2</li><li>3</li><li>4</li><li>5</li></ul></body>"#,
        )
        .unwrap();
        let targets = v1.elements_by_class("v");
        let bundle = bundle_for(&v1, &targets);
        let lkg = LastKnownGood::capture(&v1, 0, &targets);
        let broken = Document::parse("<html><body><p>gone</p></body></html>").unwrap();
        let health = Verifier.check(&bundle, &broken, 20, Some(&lkg));
        let report = DriftClassifier.classify(&bundle, &broken, 20, Some(&lkg), &health);
        assert_eq!(report.class, DriftClass::PageBroken);
        assert!(report.entries.is_empty());
    }
}
