//! Extraction-health verification: replaying a bundle against a snapshot and
//! scoring the result **without ground truth**.
//!
//! The verifier's only reference point is the *last-known-good* state
//! ([`LastKnownGood`]): what the wrapper extracted the last time it was
//! healthy.  Page data rotates naturally (a movie page shows a new rating
//! without the template changing), so raw text equality is deliberately a
//! diagnostic signal only; the *hard* health conditions are structural:
//!
//! * the page itself looks like a broken archive capture,
//! * extraction errors or comes back empty,
//! * the result cardinality drifts from the last-known-good count,
//! * the extracted nodes' tag shape diverges (a wrapper that used to select
//!   `span`s suddenly selects `div`s),
//! * an anchor attribute value named by the expression no longer occurs on
//!   any element of the page (checked through the tag index).

use serde::{Deserialize, Serialize};
use wi_dom::{Document, NodeId};
use wi_induction::{Extractor, WrapperBundle};
use wi_xpath::{EvalContext, NodeTest, Predicate, StringFunction, TextSource};

/// What the wrapper extracted the last time it was healthy — the reference
/// state all verification signals are computed against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LastKnownGood {
    /// The day of the healthy snapshot.
    pub day: i64,
    /// Number of nodes extracted.
    pub count: usize,
    /// Normalized text of each extracted node, in document order.
    pub texts: Vec<String>,
    /// Sorted, deduplicated tag names of the extracted nodes.
    pub tags: Vec<String>,
    /// Element count of the healthy document (broken-capture baseline).
    pub doc_elements: usize,
    /// Whether the extracted texts have ever been observed to change between
    /// healthy snapshots.  `false` means the target is template-stable (a
    /// "Next" link, a nav entry): any repair must reproduce the texts
    /// exactly.  `true` means the target carries rotating page data.
    /// Maintained by [`advance`](LastKnownGood::advance).
    pub rotates: bool,
    /// How many consecutive healthy captures have reproduced the same texts.
    /// Text-based repair vetoes only engage once stability is *evidenced*
    /// (two or more confirmations), not merely unrefuted.
    pub stable_observations: u32,
    /// Every attribute value present on the healthy document.  A renamed or
    /// redesigned anchor value is by definition *not* in here; candidate
    /// re-anchors that were already present are old neighbors, not renames.
    /// Shared behind an [`Arc`](std::sync::Arc): the set is captured once per
    /// healthy document and never mutated afterwards, so advancing the state
    /// every epoch bumps a refcount instead of cloning the whole census.
    pub attribute_values: std::sync::Arc<std::collections::BTreeSet<String>>,
    /// Carrier census of the bundle's attribute anchors: how many elements
    /// of the healthy document carried each anchored `(attribute, value)`.
    /// A rename moves the census to the new value; a wrong unique match
    /// does not (captured by [`capture_for`](LastKnownGood::capture_for)).
    pub anchor_carriers: Vec<AnchorCarrier>,
}

/// The carrier census of one attribute anchor at the last healthy snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnchorCarrier {
    /// The anchored attribute name.
    pub attribute: String,
    /// The anchored value.
    pub value: String,
    /// Elements carrying the value on the healthy document.
    pub count: usize,
    /// Consecutive healthy captures with an unchanged count (evidence that
    /// the carrier set is template-stable, not list churn).
    pub stable_observations: u32,
    /// The **neighborhood fingerprint**: normalized texts of the leaf
    /// elements that shared this anchor's carrier with the extracted nodes
    /// at capture time, extracted nodes excluded, sorted and deduplicated.
    /// For a labeled details row this is the label ("Director:") — the
    /// context that identifies *which* carrier of a repeated anchor value
    /// the expression actually went through, so a positionally-masked
    /// anchor surviving its block's removal can still be recognized as a
    /// removed target (see `DriftClassifier`).
    #[serde(default)]
    pub neighborhood: Vec<String>,
    /// Consecutive healthy captures with an unchanged neighborhood.  Like
    /// text stability, the fingerprint is only *evidence* once reproduced
    /// (two or more confirmations) — list churn inside a carrier must not
    /// trigger removal verdicts.
    #[serde(default)]
    pub neighborhood_stable: u32,
}

impl LastKnownGood {
    /// Captures the last-known-good state from a healthy extraction.
    pub fn capture(doc: &Document, day: i64, nodes: &[NodeId]) -> LastKnownGood {
        LastKnownGood {
            day,
            count: nodes.len(),
            texts: nodes.iter().map(|&n| doc.normalized_text(n)).collect(),
            tags: sorted_tags(doc, nodes),
            doc_elements: doc.element_count(),
            rotates: false,
            stable_observations: 0,
            // The document's shared census (see `wi_dom::attrs`): a refcount
            // bump here instead of a per-capture set rebuild.
            attribute_values: doc.attribute_value_census().clone(),
            anchor_carriers: Vec::new(),
        }
    }

    /// Like [`capture`](LastKnownGood::capture), additionally recording the
    /// carrier census of every attribute anchor of `bundle`: one entry per
    /// distinct equality `(attribute, value)` anchor, in first-occurrence
    /// order.  Both censuses come from the document's attribute index (see
    /// `wi_dom::attrs`): the value census is a shared `Arc` clone and each
    /// carrier count one integer-keyed probe.
    pub fn capture_for(
        bundle: &WrapperBundle,
        doc: &Document,
        day: i64,
        nodes: &[NodeId],
    ) -> LastKnownGood {
        let mut lkg = LastKnownGood::capture(doc, day, nodes);
        for probe in anchor_probes(bundle) {
            let (StringFunction::Equals, TextSource::Attribute(attribute)) =
                (probe.func, probe.source)
            else {
                continue;
            };
            if lkg.anchor_census(attribute, probe.value).is_none() {
                lkg.anchor_carriers.push(AnchorCarrier {
                    attribute: attribute.clone(),
                    value: probe.value.to_string(),
                    count: doc.carrier_count(attribute, probe.value),
                    stable_observations: 0,
                    neighborhood: capture_neighborhood(doc, attribute, probe.value, nodes),
                    neighborhood_stable: 0,
                });
            }
        }
        lkg
    }

    /// Rolls the state forward to a newer healthy capture, preserving what
    /// the history has taught: once texts have been seen to rotate, the
    /// target is known to carry rotating data forever; identical texts add
    /// one stability confirmation.
    pub fn advance(previous: &LastKnownGood, mut next: LastKnownGood) -> LastKnownGood {
        if previous.rotates || previous.texts != next.texts {
            next.rotates = true;
            next.stable_observations = 0;
        } else {
            next.stable_observations = previous.stable_observations + 1;
        }
        for carrier in &mut next.anchor_carriers {
            if let Some(prev) = previous
                .anchor_carriers
                .iter()
                .find(|p| p.attribute == carrier.attribute && p.value == carrier.value)
            {
                if prev.count == carrier.count {
                    carrier.stable_observations = prev.stable_observations + 1;
                }
                if prev.neighborhood == carrier.neighborhood {
                    carrier.neighborhood_stable = prev.neighborhood_stable + 1;
                }
            }
        }
        next
    }

    /// Rolls the state forward across a snapshot whose document is
    /// content-identical to the one this state was captured from, under the
    /// same bundle revision.  In that situation a fresh
    /// [`capture_for`](LastKnownGood::capture_for) reproduces every field of
    /// `self` (texts, tags, counts, censuses — all pure functions of the
    /// document and the bundle), so
    /// `advance(self, capture_for(bundle, doc, day, nodes))` reduces to:
    /// the day moves, the stability counters tick, nothing else changes.
    /// This method computes that result without re-walking the document;
    /// callers must guard on the fingerprint precondition (see
    /// `IncrementalState::lkg_unchanged`).
    pub fn advance_identical(&self, day: i64) -> LastKnownGood {
        let mut next = self.clone();
        next.day = day;
        if self.rotates {
            next.stable_observations = 0;
        } else {
            next.stable_observations = self.stable_observations + 1;
        }
        for carrier in &mut next.anchor_carriers {
            // Identical document ⇒ identical carrier census and identical
            // neighborhood ⇒ every carrier confirms once, exactly as
            // `advance` would decide.
            carrier.stable_observations += 1;
            carrier.neighborhood_stable += 1;
        }
        next
    }

    /// Whether the target's texts are *evidenced* to be template-stable:
    /// never seen rotating, and reproduced across at least two healthy
    /// captures.
    pub fn texts_evidently_stable(&self) -> bool {
        !self.rotates && self.stable_observations >= 2
    }

    /// The recorded carrier census of an anchor, if the census has it.
    pub fn anchor_census(&self, attribute: &str, value: &str) -> Option<&AnchorCarrier> {
        self.anchor_carriers
            .iter()
            .find(|c| c.attribute == attribute && c.value == value)
    }

    /// The cardinality and shape signals a non-empty extraction raises
    /// against this state, in that order: [`HealthSignal::CardinalityDrift`]
    /// when the node count left its tolerance, and
    /// [`HealthSignal::ShapeDivergence`] when the sorted tag set differs.
    ///
    /// A state of at most one node must be reproduced with exactly `count`
    /// nodes.  A multi-node state tolerates a drift of half its count (at
    /// least one node): lists legitimately gain and lose entries, but one
    /// collapsing to a single node has almost certainly latched onto the
    /// wrong neighborhood.  The verifier and the drift classifier's fix
    /// search both judge extractions by this rule.
    pub(crate) fn structural_drift(&self, doc: &Document, nodes: &[NodeId]) -> Vec<HealthSignal> {
        let mut signals = Vec::new();
        let got = nodes.len();
        let drifted = if self.count <= 1 {
            got != self.count
        } else {
            let slack = (self.count as f64 * CARDINALITY_SLACK).max(1.0);
            (got as f64 - self.count as f64).abs() > slack || got < 2
        };
        if drifted {
            signals.push(HealthSignal::CardinalityDrift {
                expected: self.count,
                got,
            });
        }
        let tags = sorted_tags(doc, nodes);
        if tags != self.tags {
            signals.push(HealthSignal::ShapeDivergence {
                expected: self.tags.clone(),
                got: tags,
            });
        }
        signals
    }
}

/// The sorted, deduplicated tag names of `nodes`.
fn sorted_tags(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
    let mut tags: Vec<String> = nodes
        .iter()
        .filter_map(|&n| doc.tag_name(n).map(str::to_string))
        .collect();
    tags.sort();
    tags.dedup();
    tags
}

/// How many elements of `doc` carry `value` under attribute `attribute`.
/// One attribute-index probe (see `wi_dom::attrs`) minus the synthetic root,
/// which this census has never included.
pub(crate) fn count_carriers(doc: &Document, attribute: &str, value: &str) -> usize {
    let total = doc.carrier_count(attribute, value);
    total - usize::from(doc.attribute(doc.root(), attribute) == Some(value))
}

/// The neighborhood fingerprint of one attribute anchor: the normalized
/// texts of the *leaf* elements that share a carrier of `(attribute,
/// value)` with the extracted nodes, the extracted subtrees themselves
/// excluded, sorted and deduplicated.
///
/// Carriers are taken from the extracted nodes' own ancestor-or-self
/// chains, not from the whole document: of a repeated anchor value
/// (`div[@class="blk"]` appearing five times) only the carrier the
/// expression actually descended through contributes context.  A leaf is
/// an element with no element children; leaves inside an extracted
/// subtree — including an extracted node that is itself a carrier — are
/// skipped, because the target's own text rotates and must never anchor
/// the fingerprint.
pub(crate) fn capture_neighborhood(
    doc: &Document,
    attribute: &str,
    value: &str,
    nodes: &[NodeId],
) -> Vec<String> {
    let extracted: std::collections::BTreeSet<NodeId> = nodes.iter().copied().collect();
    let mut carriers: Vec<NodeId> = Vec::new();
    for &node in nodes {
        let mut cursor = Some(node);
        while let Some(n) = cursor {
            if doc.is_element(n) && doc.attribute(n, attribute) == Some(value) {
                carriers.push(n);
            }
            cursor = doc.parent(n);
        }
    }
    carriers.sort();
    carriers.dedup();

    let mut texts: Vec<String> = Vec::new();
    for &carrier in &carriers {
        'leaves: for leaf in doc.descendants_or_self(carrier) {
            if !doc.is_element(leaf) || doc.children(leaf).any(|c| doc.is_element(c)) {
                continue;
            }
            // Walk back up to the carrier: a hop through an extracted node
            // (the carrier itself included) disqualifies the leaf.
            let mut cursor = Some(leaf);
            while let Some(n) = cursor {
                if extracted.contains(&n) {
                    continue 'leaves;
                }
                if n == carrier {
                    break;
                }
                cursor = doc.parent(n);
            }
            let text = doc.normalized_text(leaf);
            if !text.is_empty() {
                texts.push(text);
            }
        }
    }
    texts.sort();
    texts.dedup();
    texts
}

/// Whether a recorded neighborhood fingerprint is still present: every
/// recorded text must reappear as the normalized text of some element
/// inside *some* carrier of `(attribute, value)` on this document (the
/// carrier itself included).  An empty fingerprint is vacuously present —
/// it carries no evidence either way.
pub(crate) fn neighborhood_present(
    doc: &Document,
    attribute: &str,
    value: &str,
    texts: &[String],
) -> bool {
    if texts.is_empty() {
        return true;
    }
    let carriers: Vec<NodeId> = doc
        .descendants(doc.root())
        .filter(|&n| doc.is_element(n) && doc.attribute(n, attribute) == Some(value))
        .collect();
    texts.iter().all(|text| {
        carriers.iter().any(|&carrier| {
            doc.descendants_or_self(carrier)
                .any(|n| doc.is_element(n) && doc.normalized_str(n) == text)
        })
    })
}

/// One observation about a replayed extraction.  Severe signals make the
/// report unhealthy; diagnostic ones sharpen classification and repair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HealthSignal {
    /// The extractor itself failed (corrupt artifact, empty bundle, …).
    ExtractionFailed(
        /// Display form of the underlying `ExtractError`.
        String,
    ),
    /// The snapshot looks like a broken archive capture: far fewer elements
    /// than the last healthy snapshot (or fewer than the absolute floor).
    BrokenPage {
        /// Elements on this snapshot.
        elements: usize,
        /// Elements on the last healthy snapshot (0 when unknown).
        baseline: usize,
    },
    /// The wrapper selected nothing.
    EmptyResult,
    /// The result count drifted beyond tolerance from the last-known-good
    /// count.
    CardinalityDrift {
        /// Last-known-good count.
        expected: usize,
        /// Count on this snapshot.
        got: usize,
    },
    /// The extracted nodes' tag set differs from the last-known-good one.
    ShapeDivergence {
        /// Last-known-good sorted tag set.
        expected: Vec<String>,
        /// Sorted tag set on this snapshot.
        got: Vec<String>,
    },
    /// A positionally-masked anchor's carrier count moved away from its
    /// historically stable census: `div[@class="person"][1]` keeps
    /// extracting *one* node even when the carrier it used to select
    /// disappears, so the extraction silently shifts to a neighbor.  Only
    /// raised when the census was stable for at least two healthy captures
    /// (list churn legitimately moves carrier counts around).
    AnchorCensusDrift {
        /// The anchored attribute name.
        attribute: String,
        /// The anchored value.
        value: String,
        /// The historically stable carrier count.
        expected: usize,
        /// The carrier count on this snapshot.
        got: usize,
    },
    /// An anchor value used by an expression no longer occurs anywhere on
    /// the page (diagnostic: points the classifier at the broken step).
    AnchorMissing {
        /// Index of the bundle entry.
        entry: usize,
        /// Index of the step inside the entry's expression.
        step: usize,
        /// The anchored attribute name, or `"."` for a text anchor.
        attribute: String,
        /// The value that disappeared.
        value: String,
    },
    /// Jaccard similarity of extracted texts against the last-known-good
    /// texts (diagnostic: rotating page data legitimately drives this to 0).
    TextDivergence {
        /// `|old ∩ new| / |old ∪ new|` over exact normalized texts.
        similarity: f64,
    },
}

impl HealthSignal {
    /// Whether this signal alone makes the snapshot unhealthy.
    pub fn is_severe(&self) -> bool {
        !matches!(
            self,
            HealthSignal::AnchorMissing { .. } | HealthSignal::TextDivergence { .. }
        )
    }
}

/// The verifier's verdict for one snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthReport {
    /// The snapshot day.
    pub day: i64,
    /// What the wrapper extracted (empty on extraction failure).
    pub extracted: Vec<NodeId>,
    /// All observations, severe first.
    pub signals: Vec<HealthSignal>,
}

impl HealthReport {
    /// `true` when no severe signal fired: the wrapper still works.
    pub fn healthy(&self) -> bool {
        !self.signals.iter().any(HealthSignal::is_severe)
    }

    /// `true` when the snapshot itself is a broken capture — the wrapper is
    /// not at fault and must not be repaired against this page.
    pub fn page_broken(&self) -> bool {
        self.signals
            .iter()
            .any(|s| matches!(s, HealthSignal::BrokenPage { .. }))
    }
}

/// A snapshot with fewer elements than this is a broken capture even without
/// a baseline.
const MIN_PAGE_ELEMENTS: usize = 8;

/// A snapshot with fewer than this fraction of the last healthy snapshot's
/// elements is a broken capture.
const BROKEN_PAGE_RATIO: f64 = 0.1;

/// Allowed relative count drift for multi-node wrappers (single-node
/// wrappers must keep extracting exactly one node).
const CARDINALITY_SLACK: f64 = 0.5;

/// Replays bundles against snapshots and reports extraction health.
#[derive(Debug, Clone, Default)]
pub struct Verifier;

impl Verifier {
    /// Checks one snapshot, allocating a fresh evaluation context.
    pub fn check(
        &self,
        bundle: &WrapperBundle,
        doc: &Document,
        day: i64,
        lkg: Option<&LastKnownGood>,
    ) -> HealthReport {
        self.check_with(&mut EvalContext::new(), bundle, doc, day, lkg)
    }

    /// Checks one snapshot, reusing the caller's evaluation context (the
    /// batch driver passes one per worker).
    pub fn check_with(
        &self,
        cx: &mut EvalContext,
        bundle: &WrapperBundle,
        doc: &Document,
        day: i64,
        lkg: Option<&LastKnownGood>,
    ) -> HealthReport {
        let mut signals = Vec::new();

        // Broken capture first: nothing below is meaningful on one.
        let elements = doc.element_count();
        let baseline = lkg.map(|l| l.doc_elements).unwrap_or(0);
        let floor = (baseline as f64 * BROKEN_PAGE_RATIO).ceil() as usize;
        if elements < MIN_PAGE_ELEMENTS || (baseline > 0 && elements < floor) {
            signals.push(HealthSignal::BrokenPage { elements, baseline });
            return HealthReport {
                day,
                extracted: Vec::new(),
                signals,
            };
        }

        let extracted = match bundle.extract_with(cx, doc, doc.root()) {
            Ok(nodes) => nodes,
            Err(e) => {
                signals.push(HealthSignal::ExtractionFailed(e.to_string()));
                return HealthReport {
                    day,
                    extracted: Vec::new(),
                    signals,
                };
            }
        };

        if extracted.is_empty() {
            signals.push(HealthSignal::EmptyResult);
        } else if let Some(lkg) = lkg {
            signals.extend(lkg.structural_drift(doc, &extracted));
            signals.push(HealthSignal::TextDivergence {
                similarity: text_similarity(
                    &lkg.texts,
                    &extracted
                        .iter()
                        .map(|&n| doc.normalized_text(n))
                        .collect::<Vec<_>>(),
                ),
            });
        }

        let already_unhealthy = signals.iter().any(HealthSignal::is_severe);
        probe_anchors(bundle, doc, lkg, already_unhealthy, &mut signals);

        signals.sort_by_key(|s| !s.is_severe());
        HealthReport {
            day,
            extracted,
            signals,
        }
    }
}

/// Jaccard similarity over exact normalized texts.
fn text_similarity(old: &[String], new: &[String]) -> f64 {
    use std::collections::HashSet;
    let a: HashSet<&str> = old.iter().map(String::as_str).collect();
    let b: HashSet<&str> = new.iter().map(String::as_str).collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(&b).count();
    let union = a.union(&b).count();
    inter as f64 / union.max(1) as f64
}

/// One deduplicated anchor of a bundle, borrowed from its entries' queries.
struct AnchorProbe<'b> {
    /// First occurrence, for the emitted signal's coordinates.
    entry: usize,
    /// First occurrence's step index.
    step: usize,
    /// The node test of the (first) step carrying the anchor.
    test: &'b NodeTest,
    func: StringFunction,
    source: &'b TextSource,
    value: &'b str,
    /// Whether any occurrence sits in a positionally-filtered step.
    positional: bool,
}

/// The equality/prefix anchors of all of `bundle`'s entries, deduplicated on
/// (function, source, value, node test) in first-occurrence order.
fn anchor_probes(bundle: &WrapperBundle) -> Vec<AnchorProbe<'_>> {
    let mut probes: Vec<AnchorProbe<'_>> = Vec::new();
    for (entry_idx, entry) in bundle.entries.iter().enumerate() {
        for (step_idx, step) in entry.query.steps.iter().enumerate() {
            let positional = step.predicates.iter().any(Predicate::is_positional);
            for predicate in &step.predicates {
                let Predicate::StringCompare {
                    func,
                    source,
                    value,
                } = predicate
                else {
                    continue;
                };
                if let Some(existing) = probes.iter_mut().find(|p| {
                    p.func == *func
                        && p.source == source
                        && p.value == value
                        && *p.test == step.test
                }) {
                    existing.positional |= positional;
                } else {
                    probes.push(AnchorProbe {
                        entry: entry_idx,
                        step: step_idx,
                        test: &step.test,
                        func: *func,
                        source,
                        value,
                        positional,
                    });
                }
            }
        }
    }
    probes
}

/// Emits an [`HealthSignal::AnchorMissing`] for every equality/prefix anchor
/// of every stored expression whose value no longer occurs on the page, and
/// an [`HealthSignal::AnchorCensusDrift`] for every positionally-masked
/// anchor whose carrier count left its historically stable census.
///
/// Anchors are deduplicated across entries and steps (ensemble members
/// typically share anchors; see `anchor_probes`), so each distinct anchor
/// is scanned — and signalled — at most once.  Attribute anchors are
/// probed through the tag index (`div[@class="x"]` only scans `div`
/// elements); text anchors need a per-element normalized-text scan, which is
/// the one expensive probe, so it only runs on snapshots some other signal
/// already marked unhealthy (it is diagnostic, never the deciding signal).
fn probe_anchors(
    bundle: &WrapperBundle,
    doc: &Document,
    lkg: Option<&LastKnownGood>,
    already_unhealthy: bool,
    signals: &mut Vec<HealthSignal>,
) {
    for probe in anchor_probes(bundle) {
        // Census drift: only meaningful for attribute anchors inside
        // positionally-filtered steps, where the extraction count cannot
        // reflect a carrier change.
        if probe.positional {
            if let (Some(lkg), StringFunction::Equals, TextSource::Attribute(name)) =
                (lkg, probe.func, probe.source)
            {
                if let Some(census) = lkg.anchor_census(name, probe.value) {
                    if census.stable_observations >= 2 {
                        let got = count_carriers(doc, name, probe.value);
                        if got != census.count {
                            signals.push(HealthSignal::AnchorCensusDrift {
                                attribute: name.clone(),
                                value: probe.value.to_string(),
                                expected: census.count,
                                got,
                            });
                        }
                    }
                }
            }
        }
        let present = match probe.source {
            TextSource::Attribute(name) => {
                attribute_value_occurs(doc, probe.test, name, probe.value, probe.func)
            }
            TextSource::NormalizedText => {
                if !already_unhealthy {
                    continue; // diagnostic only; skip the expensive scan
                }
                text_anchor_occurs(doc, probe.value, probe.func)
            }
        };
        if !present {
            signals.push(HealthSignal::AnchorMissing {
                entry: probe.entry,
                step: probe.step,
                attribute: match probe.source {
                    TextSource::Attribute(name) => name.clone(),
                    TextSource::NormalizedText => ".".to_string(),
                },
                value: probe.value.to_string(),
            });
        }
    }
}

/// Whether any element's normalized text satisfies the comparison against
/// `value` — the semantic presence test for a template-label anchor
/// (`doc.contains_string` would also match substrings of unrelated text).
pub(crate) fn text_anchor_occurs(doc: &Document, value: &str, func: StringFunction) -> bool {
    doc.descendants(doc.root())
        .filter(|&n| doc.is_element(n))
        .any(|n| func.apply(doc.normalized_str(n), value))
}

/// Whether any element matching the step's node test carries `value` under
/// attribute `name` (per the comparison function).
pub(crate) fn attribute_value_occurs(
    doc: &Document,
    test: &NodeTest,
    name: &str,
    value: &str,
    func: StringFunction,
) -> bool {
    let matches = |n: NodeId| {
        doc.attribute(n, name)
            .map(|v| func.apply(v, value))
            .unwrap_or(false)
    };
    match test {
        NodeTest::Tag(tag) => doc.elements_by_tag_slice(tag).iter().copied().any(matches),
        _ => doc
            .descendants(doc.root())
            .filter(|&n| doc.is_element(n))
            .any(matches),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_induction::WrapperInducer;
    use wi_scoring::ScoringParams;

    fn page(class: &str, values: &[&str]) -> Document {
        let items: String = values
            .iter()
            .map(|v| format!(r#"<span class="{class}">{v}</span>"#))
            .collect();
        Document::parse(&format!(
            r#"<html><body><div id="main"><h4>Prices:</h4>{items}</div>
               <div id="side"><ul><li>a</li><li>b</li><li>c</li><li>d</li></ul></div>
               </body></html>"#
        ))
        .unwrap()
    }

    fn induce_bundle(doc: &Document, targets: &[NodeId]) -> WrapperBundle {
        let wrapper = WrapperInducer::default()
            .try_induce_best(doc, targets)
            .unwrap();
        WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults())
    }

    #[test]
    fn healthy_extraction_reports_healthy_and_captures_lkg() {
        let doc = page("p", &["10", "20"]);
        let targets = doc.elements_by_class("p");
        let bundle = induce_bundle(&doc, &targets);
        let verifier = Verifier;
        let report = verifier.check(&bundle, &doc, 0, None);
        assert!(report.healthy());
        assert_eq!(report.extracted, targets);

        let lkg = LastKnownGood::capture(&doc, 0, &report.extracted);
        assert_eq!(lkg.count, 2);
        assert_eq!(lkg.tags, vec!["span".to_string()]);
        assert_eq!(lkg.texts, vec!["10", "20"]);

        // Rotated content on the same template stays healthy.
        let rotated = page("p", &["30", "40"]);
        let report2 = verifier.check(&bundle, &rotated, 20, Some(&lkg));
        assert!(report2.healthy(), "signals: {:?}", report2.signals);
        assert!(report2.signals.iter().any(
            |s| matches!(s, HealthSignal::TextDivergence { similarity } if *similarity == 0.0)
        ));
    }

    #[test]
    fn renamed_anchor_is_flagged_empty_and_anchor_missing() {
        let doc = page("p", &["10", "20"]);
        let targets = doc.elements_by_class("p");
        let bundle = induce_bundle(&doc, &targets);
        let lkg = LastKnownGood::capture(&doc, 0, &targets);

        let renamed = page("price", &["10", "20"]);
        let report = Verifier.check(&bundle, &renamed, 20, Some(&lkg));
        assert!(!report.healthy());
        assert!(report.signals.contains(&HealthSignal::EmptyResult));
        assert!(report
            .signals
            .iter()
            .any(|s| matches!(s, HealthSignal::AnchorMissing { .. })));
        assert!(!report.page_broken());
    }

    #[test]
    fn broken_capture_is_flagged_as_page_broken() {
        let doc = page("p", &["10"]);
        let targets = doc.elements_by_class("p");
        let bundle = induce_bundle(&doc, &targets);
        let lkg = LastKnownGood::capture(&doc, 0, &targets);

        let broken =
            Document::parse("<html><body><p>Page cannot be crawled or displayed</p></body></html>")
                .unwrap();
        let report = Verifier.check(&bundle, &broken, 40, Some(&lkg));
        assert!(!report.healthy());
        assert!(report.page_broken());
    }

    #[test]
    fn cardinality_and_shape_drift_are_severe() {
        let doc = page("p", &["10", "20", "30", "40"]);
        let targets = doc.elements_by_class("p");
        let bundle = induce_bundle(&doc, &targets);
        let lkg = LastKnownGood::capture(&doc, 0, &targets);
        let verifier = Verifier;

        // Dropping one of four items stays within the multi-node slack …
        let fewer = page("p", &["10", "20", "30"]);
        assert!(verifier.check(&bundle, &fewer, 20, Some(&lkg)).healthy());

        // … losing three of four does not.
        let collapsed = page("p", &["10"]);
        let report = verifier.check(&bundle, &collapsed, 40, Some(&lkg));
        assert!(!report.healthy());
        assert!(report.signals.iter().any(|s| matches!(
            s,
            HealthSignal::CardinalityDrift {
                expected: 4,
                got: 1
            }
        )));

        // A single-node wrapper must keep extracting exactly one node.
        let single = page("p", &["10"]);
        let single_targets = single.elements_by_class("p");
        let single_bundle = induce_bundle(&single, &single_targets);
        let single_lkg = LastKnownGood::capture(&single, 0, &single_targets);
        let doubled = page("p", &["10", "20"]);
        let report = verifier.check(&single_bundle, &doubled, 20, Some(&single_lkg));
        assert!(!report.healthy());
    }

    #[test]
    fn text_similarity_is_jaccard() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["y".to_string(), "z".to_string()];
        assert!((text_similarity(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(text_similarity(&[], &[]), 1.0);
        assert_eq!(text_similarity(&a, &a), 1.0);
    }
}
