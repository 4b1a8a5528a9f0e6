//! Regression harness for a formerly-known drift-classifier confusion
//! (ROADMAP: "Drift-classifier coverage"): when a **positionally-masked
//! anchor survives its block's removal**, the classifier used to report
//! [`DriftClass::Unknown`] where the generated truth is `target-removed`.
//!
//! The wrapper `descendant::div[@class="blk"][1]/child::span[1]` anchors on
//! a class that *another* block also carries.  When the first block — the
//! one holding the target — is removed, the anchor value still occurs on
//! the page (`attr_anchor_gone` is false), so the "anchors themselves
//! vanished" evidence the `TargetRemoved` verdict needs was missing, and no
//! substitution validates either.  The fix is the **neighborhood
//! fingerprint** recorded per anchor carrier at last-known-good time (the
//! removed block's stable label, here `"Director:"`): it identifies *which*
//! carrier of the repeated anchor value the expression actually went
//! through, and its disappearance from every surviving carrier —
//! `EntryDiagnosis::neighborhood_gone` — is removal evidence on par with a
//! vanished anchor.  This test pins the fixed behaviour; the control case
//! below proves the fingerprint is doing the work (an anchor removed
//! *with* its block classified correctly all along).

use wi_dom::Document;
use wi_induction::{WrapperBundle, WrapperInducer};
use wi_maintain::{DriftClass, Maintainer, MaintenanceLog, PageVersion, WrapperState};
use wi_scoring::ScoringParams;
use wi_xpath::parse_query;

/// Two blocks share the anchor class; only the first holds the target.
fn page_with_both_blocks() -> Document {
    Document::parse(
        r#"<body><div class="blk"><h4>Director:</h4><span class="v">Scorsese</span></div>
           <div class="blk"><h4>Stars:</h4><span class="v">DeNiro</span></div>
           <ul><li>1</li><li>2</li><li>3</li><li>4</li><li>5</li><li>6</li></ul></body>"#,
    )
    .unwrap()
}

/// The target's block is gone; the anchor class survives on the other one.
fn page_with_surviving_anchor() -> Document {
    Document::parse(
        r#"<body><div class="blk"><h4>Stars:</h4><span class="v">DeNiro</span></div>
           <ul><li>1</li><li>2</li><li>3</li><li>4</li><li>5</li><li>6</li></ul></body>"#,
    )
    .unwrap()
}

/// A positionally-masked wrapper over the first `blk` block.
fn masked_bundle(doc: &Document) -> WrapperBundle {
    let director = vec![doc.elements_by_class("v")[0]];
    let wrapper = WrapperInducer::default()
        .try_induce_best(doc, &director)
        .unwrap();
    let mut bundle =
        WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults()).with_label("blk");
    bundle.entries[0].query =
        parse_query(r#"descendant::div[@class="blk"][1]/child::span[1]"#).unwrap();
    bundle
}

/// Runs the loop over three healthy epochs (building anchor-census and
/// neighborhood-fingerprint stability) followed by the block removal.
fn run_timeline(broken_page: Document) -> MaintenanceLog {
    let v1 = page_with_both_blocks();
    let bundle = masked_bundle(&v1);
    let pages: Vec<PageVersion> = (0..3)
        .map(|i| PageVersion {
            day: 20 * i,
            doc: page_with_both_blocks(),
        })
        .chain([
            PageVersion {
                day: 60,
                doc: broken_page.clone(),
            },
            PageVersion {
                day: 80,
                doc: broken_page,
            },
            PageVersion {
                day: 100,
                doc: page_with_surviving_anchor(),
            },
        ])
        .collect();
    Maintainer::default().run("blk", bundle, &pages, None)
}

#[test]
fn surviving_positionally_masked_anchor_classifies_as_target_removed() {
    let log = run_timeline(page_with_surviving_anchor());

    // The verifier part: the silently shifted extraction (the expression
    // now lands on the Stars span) is caught by the anchor census, not
    // missed as "healthy".
    let flagged = &log.outcomes[3];
    assert!(
        flagged.flagged,
        "the census drift must flag the masked shift: {:?}",
        flagged.health.signals
    );
    assert!(!flagged.repaired, "nothing validates as a repair here");

    // The fix under regression: the anchor value survives on the sibling
    // block, but the evidenced neighborhood fingerprint ("Director:") is
    // gone from every surviving carrier, so the break classifies as the
    // diminishing target it is — not as Unknown.
    assert_eq!(
        flagged.drift,
        Some(DriftClass::TargetRemoved),
        "a surviving positionally-masked anchor must not hide a removed \
         target: the neighborhood fingerprint disambiguates"
    );

    // Consequence of the fix: the retirement countdown starts on the first
    // TargetRemoved verdict and the wrapper retires instead of thrashing
    // in Degraded forever.
    assert_eq!(
        log.outcomes.last().unwrap().state,
        WrapperState::Retired,
        "consecutive TargetRemoved verdicts must retire the wrapper"
    );
}

#[test]
fn removed_anchor_control_case_still_classifies_target_removed() {
    // Control: identical timeline, but the block removal takes the anchor
    // value with it (no sibling carrier) — this classified correctly even
    // before the fingerprint existed, proving the test above specifically
    // exercises the surviving-anchor path.
    let control = Document::parse(
        r#"<body><div class="other"><h4>Stars:</h4><span class="v">DeNiro</span></div>
           <ul><li>1</li><li>2</li><li>3</li><li>4</li><li>5</li><li>6</li></ul></body>"#,
    )
    .unwrap();
    let log = run_timeline(control);
    let flagged = &log.outcomes[3];
    assert!(flagged.flagged);
    assert_eq!(flagged.drift, Some(DriftClass::TargetRemoved));
    assert_eq!(
        log.outcomes.last().unwrap().state,
        WrapperState::Retired,
        "consecutive TargetRemoved failures must retire the wrapper"
    );
}
