//! Repair policies: re-anchoring in place, or re-inducing from harvested
//! last-known-good values.
//!
//! See the crate docs for the repair-policy contract.  In short: re-anchor
//! first (it preserves the expression's structure), re-induce as fallback,
//! validate every candidate against the snapshot that exposed the break, and
//! never install a repair that does not restore a healthy extraction.

use crate::drift::{DriftReport, FixKind};
use crate::verify::{LastKnownGood, Verifier};
use serde::{Deserialize, Serialize};
use wi_dom::{Document, NodeId};
use wi_induction::{BundleEntry, WrapperBundle, WrapperInducer};
use wi_xpath::EvalContext;

/// How a repaired bundle came to be.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RepairAction {
    /// Anchors were substituted in place; the edit descriptions are
    /// human-readable (`@class "a" -> "b"`).
    Reanchored(
        /// One description per substitution.
        Vec<String>,
    ),
    /// The bundle was re-induced from values harvested on the evolved page.
    Reinduced {
        /// How many target nodes the value harvest annotated.
        harvested: usize,
    },
}

impl RepairAction {
    /// A short provenance string for the bundle's metadata.
    pub fn provenance(&self, day: i64) -> String {
        match self {
            RepairAction::Reanchored(edits) => {
                format!("day {day}: re-anchored {}", edits.join(", "))
            }
            RepairAction::Reinduced { harvested } => {
                format!("day {day}: re-induced from {harvested} harvested value(s)")
            }
        }
    }
}

/// A successfully validated repair.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// What was done.
    pub action: RepairAction,
    /// The replacement bundle (same label, `revision + 1`).
    pub bundle: WrapperBundle,
    /// What the replacement extracts on the snapshot that exposed the break.
    pub extracted: Vec<NodeId>,
}

/// Repairs flagged bundles: re-anchoring first, then re-induction.  Every
/// candidate is validated by a [`Verifier`] against the breaking snapshot.
#[derive(Debug, Clone, Default)]
pub struct Repairer;

impl Repairer {
    /// Attempts to repair `bundle` against the snapshot that exposed the
    /// break, allocating a fresh evaluation context.
    pub fn repair(
        &self,
        bundle: &WrapperBundle,
        doc: &Document,
        day: i64,
        lkg: Option<&LastKnownGood>,
        drift: &DriftReport,
        inducer: &WrapperInducer,
    ) -> Option<RepairOutcome> {
        self.repair_with(
            &mut EvalContext::new(),
            bundle,
            doc,
            day,
            lkg,
            drift,
            inducer,
        )
    }

    /// Like [`repair`](Repairer::repair), reusing the caller's evaluation
    /// context.
    #[allow(clippy::too_many_arguments)]
    pub fn repair_with(
        &self,
        cx: &mut EvalContext,
        bundle: &WrapperBundle,
        doc: &Document,
        day: i64,
        lkg: Option<&LastKnownGood>,
        drift: &DriftReport,
        inducer: &WrapperInducer,
    ) -> Option<RepairOutcome> {
        self.try_reanchor(cx, bundle, doc, day, lkg, drift)
            .or_else(|| self.try_reinduce(cx, bundle, doc, day, lkg, inducer))
    }

    /// Installs the classifier's validated substitutions: every entry with a
    /// fixed expression is rewritten, the rest keep their expression (an
    /// ensemble member that still works stays untouched).
    fn try_reanchor(
        &self,
        cx: &mut EvalContext,
        bundle: &WrapperBundle,
        doc: &Document,
        day: i64,
        lkg: Option<&LastKnownGood>,
        drift: &DriftReport,
    ) -> Option<RepairOutcome> {
        if !drift.repairable_in_place() {
            return None;
        }
        let mut entries: Vec<BundleEntry> = bundle.entries.clone();
        let mut edits: Vec<String> = Vec::new();
        for diagnosis in &drift.entries {
            let Some(fixed) = &diagnosis.fixed else {
                continue;
            };
            if diagnosis.fixes.is_empty() {
                continue; // the entry was acceptable as-is
            }
            entries[diagnosis.entry].query = fixed.clone();
            for fix in &diagnosis.fixes {
                edits.push(match &fix.kind {
                    FixKind::Reanchor {
                        attribute,
                        from,
                        to,
                    } => format!("@{attribute} {from:?} -> {to:?}"),
                    FixKind::Reposition { from, to } => {
                        format!("position [{from}] -> [{to}]")
                    }
                });
            }
        }
        let action = RepairAction::Reanchored(edits);
        let candidate = bundle.revised(entries, action.provenance(day));
        self.validate(cx, candidate, doc, day, lkg, action)
    }

    /// Harvests the last-known-good extraction values on the evolved page
    /// and re-runs induction over them.
    fn try_reinduce(
        &self,
        cx: &mut EvalContext,
        bundle: &WrapperBundle,
        doc: &Document,
        day: i64,
        lkg: Option<&LastKnownGood>,
        inducer: &WrapperInducer,
    ) -> Option<RepairOutcome> {
        let lkg = lkg?;
        let (wrapper, targets) = inducer.try_induce_from_texts(doc, &lkg.texts).ok()?;
        // The harvest must re-identify the *bulk* of the last-known-good
        // extraction.  A single coincidental text match elsewhere on the
        // page (a nav entry that happens to equal one extracted value) is
        // not evidence the target survived — installing a wrapper over it
        // would hijack an unrelated element and block retirement.
        if targets.len() * 2 < lkg.count.max(1) || targets.len() > lkg.count * 2 {
            return None;
        }
        let action = RepairAction::Reinduced {
            harvested: targets.len(),
        };
        let entries = vec![BundleEntry {
            query: wrapper.instance.query,
            counts: wrapper.instance.counts,
            score: wrapper.instance.score,
        }];
        let candidate = bundle.revised(entries, action.provenance(day));
        // Validate without the stale last-known-good: a legitimate
        // re-induction may land on different tags (and the page's values
        // rotated), so shape/text comparisons against the old state would
        // veto every structural repair.  The page/extraction checks still
        // apply, and the harvested targets anchor the cardinality.
        self.validate(cx, candidate, doc, day, None, action)
    }

    /// The contract's validation step: a candidate repair is only installed
    /// if it restores a healthy extraction on the breaking snapshot.
    fn validate(
        &self,
        cx: &mut EvalContext,
        candidate: WrapperBundle,
        doc: &Document,
        day: i64,
        lkg: Option<&LastKnownGood>,
        action: RepairAction,
    ) -> Option<RepairOutcome> {
        let report = Verifier.check_with(cx, &candidate, doc, day, lkg);
        if !report.healthy() {
            return None;
        }
        Some(RepairOutcome {
            action,
            bundle: candidate,
            extracted: report.extracted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::DriftClassifier;
    use wi_dom::Document;
    use wi_induction::Extractor;
    use wi_scoring::ScoringParams;

    fn induce(doc: &Document, targets: &[NodeId]) -> WrapperBundle {
        let wrapper = WrapperInducer::default()
            .try_induce_best(doc, targets)
            .unwrap();
        WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults()).with_label("t")
    }

    fn break_and_repair(
        v1: &Document,
        targets: &[NodeId],
        v2: &Document,
    ) -> Option<(WrapperBundle, RepairOutcome)> {
        let bundle = induce(v1, targets);
        let lkg = LastKnownGood::capture(v1, 0, targets);
        let verifier = Verifier;
        let health = verifier.check(&bundle, v2, 20, Some(&lkg));
        assert!(!health.healthy());
        let drift = DriftClassifier.classify(&bundle, v2, 20, Some(&lkg), &health);
        Repairer
            .repair(
                &bundle,
                v2,
                20,
                Some(&lkg),
                &drift,
                &WrapperInducer::default(),
            )
            .map(|o| (bundle, o))
    }

    #[test]
    fn rename_is_repaired_in_place_with_provenance() {
        let v1 = Document::parse(
            r#"<body><div id="nav"><ul><li>a</li><li>b</li><li>c</li></ul></div>
               <div id="c"><span class="price">10</span>
               <span class="price">20</span><span class="price">30</span></div></body>"#,
        )
        .unwrap();
        let targets = v1.elements_by_class("price");
        let v2 = Document::parse(
            r#"<body><div id="nav"><ul><li>a</li><li>b</li><li>c</li></ul></div>
               <div id="c"><span class="cost">11</span>
               <span class="cost">21</span><span class="cost">31</span></div></body>"#,
        )
        .unwrap();
        let (original, outcome) = break_and_repair(&v1, &targets, &v2).expect("repaired");
        assert!(matches!(outcome.action, RepairAction::Reanchored(_)));
        assert_eq!(outcome.bundle.revision, original.revision + 1);
        assert_eq!(outcome.bundle.label, original.label);
        assert!(outcome
            .bundle
            .provenance
            .as_deref()
            .unwrap()
            .contains("re-anchored"));
        assert_eq!(outcome.extracted, v2.elements_by_class("cost"));
        // The repaired bundle keeps working on later rotations.
        let v3 = Document::parse(
            r#"<body><div id="nav"><ul><li>a</li><li>b</li><li>c</li></ul></div>
               <div id="c"><span class="cost">90</span>
               <span class="cost">91</span><span class="cost">92</span></div></body>"#,
        )
        .unwrap();
        assert_eq!(
            outcome.bundle.extract(&v3, v3.root()).unwrap(),
            v3.elements_by_class("cost")
        );
    }

    #[test]
    fn unfixable_anchor_falls_back_to_reinduction_from_values() {
        let v1 = Document::parse(
            r#"<body><div id="nav"><ul><li>a</li><li>b</li><li>c</li></ul></div>
               <div id="list"><b class="t">Alpha</b><b class="t">Beta</b>
               <b class="t">Gamma</b></div></body>"#,
        )
        .unwrap();
        let targets = v1.elements_by_class("t");
        // The evolved page restructures entirely (different tags, no classes)
        // but still shows the same values.
        let v2 = Document::parse(
            r#"<body><div id="nav"><ul><li>a</li><li>b</li><li>c</li></ul></div>
               <table id="new"><tr><td>Alpha</td></tr><tr><td>Beta</td></tr>
               <tr><td>Gamma</td></tr></table></body>"#,
        )
        .unwrap();
        let (original, outcome) = break_and_repair(&v1, &targets, &v2).expect("repaired");
        assert!(matches!(
            outcome.action,
            RepairAction::Reinduced { harvested: 3 }
        ));
        assert_eq!(outcome.bundle.revision, original.revision + 1);
        assert_eq!(outcome.extracted.len(), 3);
        assert_eq!(
            outcome.extracted,
            v2.elements_by_tag("td"),
            "re-induced wrapper selects the value cells"
        );
    }

    #[test]
    fn truly_gone_targets_are_not_repaired() {
        let v1 = Document::parse(
            r#"<body><div class="blk"><h4>Director:</h4><span class="v">S</span></div>
               <ul><li>1</li><li>2</li><li>3</li><li>4</li><li>5</li><li>6</li></ul></body>"#,
        )
        .unwrap();
        let target = v1.elements_by_class("v");
        let v2 = Document::parse(
            r#"<body><ul><li>1</li><li>2</li><li>3</li><li>4</li><li>5</li><li>6</li></ul></body>"#,
        )
        .unwrap();
        assert!(break_and_repair(&v1, &target, &v2).is_none());
    }

    #[test]
    fn coincidental_single_text_match_does_not_hijack_a_removed_target() {
        // Three extracted values; the evolved page removes the whole block
        // but the nav coincidentally contains one of them.  Re-induction
        // must refuse the 1-of-3 harvest (majority rule) so the wrapper can
        // degrade and retire instead of latching onto the nav entry.
        let v1 = Document::parse(
            r#"<body><ul id="nav"><li>Home</li><li>Offers</li><li>About</li></ul>
               <div id="list"><b class="t">Alpha</b><b class="t">Beta</b>
               <b class="t">Gamma</b></div></body>"#,
        )
        .unwrap();
        let targets = v1.elements_by_class("t");
        let v2 = Document::parse(
            r#"<body><ul id="nav"><li>Home</li><li>Alpha</li><li>About</li>
               <li>More</li><li>Links</li></ul></body>"#,
        )
        .unwrap();
        assert!(break_and_repair(&v1, &targets, &v2).is_none());
    }
}
