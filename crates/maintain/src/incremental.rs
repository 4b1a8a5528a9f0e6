//! The epoch echo: the maintenance loop's one cross-epoch memory.
//!
//! Monitored pages change slowly: in a low-churn timeline roughly half of
//! the consecutive snapshots are byte-identical to their predecessor.
//! [`IncrementalState`] remembers only what the last *healthy* epoch left
//! behind, so replaying the same document again costs a fingerprint
//! comparison instead of a verification:
//!
//! * **Epoch echo** — the last healthy epoch's content fingerprint, bundle
//!   revision, non-severe anchor signals and extraction.  Node ids are
//!   document-order ranks, so a structurally identical snapshot holds the
//!   same nodes at the same ids.  An identical snapshot under the same
//!   revision replays that verdict (see [`IncrementalState::verify`]).
//! * **Last-known-good origin** — the `(content fingerprint, revision)` the
//!   live last-known-good state was captured from.  A healthy snapshot that
//!   matches it rolls the state forward with
//!   [`LastKnownGood::advance_identical`] instead of re-capturing.
//!
//! Both slots are keyed by `(content fingerprint, revision)` and revisions
//! only move forward within a run (via [`WrapperBundle::revised`]), so a
//! changed document or a repaired bundle can never replay a stale verdict,
//! and there is nothing to evict: each slot holds one entry and the next
//! healthy epoch overwrites it.  Everything else — the bundle's parsed
//! expressions (a bundle is parsed once, when it is built or decoded) and
//! the attribute census index — is shared with the from-scratch path.
//!
//! [`WrapperBundle::revised`]: wi_induction::WrapperBundle::revised

use crate::verify::{HealthReport, HealthSignal, LastKnownGood, Verifier};
use wi_dom::{Document, NodeId};
use wi_induction::WrapperBundle;
use wi_xpath::EvalContext;

/// Echo replays (`hits`) and full verifications (`misses`) of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct IncStats {
    pub hits: u64,
    pub misses: u64,
}

/// What the last *healthy* epoch left behind, for the identical-snapshot
/// replay (see [`IncrementalState::verify`]).
struct EpochEcho {
    /// Content fingerprint of the healthy snapshot.
    doc_fp: u64,
    /// Bundle revision in force when it verified.
    revision: u32,
    /// Its non-severe anchor signals (a pure function of document content
    /// and bundle entries, so they recur verbatim on an identical snapshot).
    anchor_missing: Vec<HealthSignal>,
    /// Its extraction; node ids are document-order ranks, so they name the
    /// same nodes in any snapshot with this fingerprint.
    extracted: Vec<NodeId>,
}

/// Cross-epoch state owned by one maintenance run.
pub(crate) struct IncrementalState {
    /// `(content fingerprint, bundle revision)` of the snapshot the live
    /// last-known-good state was captured from — the precondition of
    /// [`LastKnownGood::advance_identical`].
    lkg_origin: Option<(u64, u32)>,
    /// The last healthy epoch's residue, for the identical-snapshot replay.
    echo: Option<EpochEcho>,
    stats: IncStats,
}

impl IncrementalState {
    pub(crate) fn new() -> Self {
        IncrementalState {
            lkg_origin: None,
            echo: None,
            stats: IncStats::default(),
        }
    }

    /// [`Verifier::check_with`] behind the identical-snapshot replay.
    ///
    /// When this snapshot's fingerprint and the live bundle revision match
    /// the last *healthy* epoch's (the [`EpochEcho`]), and the loop's
    /// last-known-good state is present (it was captured from exactly that
    /// epoch, possibly carried unchanged across intervening flagged/broken
    /// snapshots), the verdict is fully determined:
    ///
    /// * extraction is a pure function of (document, entries) — identical;
    /// * `CardinalityDrift` cannot fire: `lkg.count` *is* that extraction's
    ///   length;
    /// * `ShapeDivergence` cannot fire: `lkg.tags` is the same
    ///   sorted-deduplicated tag list the check recomputes;
    /// * `TextDivergence` compares the extraction's texts with themselves —
    ///   similarity exactly `1.0`;
    /// * `AnchorCensusDrift` cannot fire: the recorded census was counted on
    ///   this very document;
    /// * `AnchorMissing` (attribute) signals depend only on (document,
    ///   entries) — replayed verbatim from the echo; text-anchor probes
    ///   never run on a healthy snapshot.
    ///
    /// The check pushes the text signal before the anchor probes and its
    /// severity sort is stable over these all-non-severe signals, so the
    /// synthesized order is the computed order.  The equivalence battery
    /// (`tests/incremental_equivalence.rs`) pins all of this against the
    /// from-scratch loop.  Any other snapshot is verified in full.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn verify(
        &mut self,
        cx: &mut EvalContext,
        verifier: &Verifier,
        bundle: &WrapperBundle,
        doc: &Document,
        doc_fp: u64,
        day: i64,
        lkg: Option<&LastKnownGood>,
    ) -> HealthReport {
        if lkg.is_some() {
            if let Some(echo) = self
                .echo
                .as_ref()
                .filter(|e| e.doc_fp == doc_fp && e.revision == bundle.revision)
            {
                if echo.extracted.iter().all(|&n| doc.contains(n)) {
                    self.stats.hits += 1;
                    let mut signals = vec![HealthSignal::TextDivergence { similarity: 1.0 }];
                    signals.extend(echo.anchor_missing.iter().cloned());
                    return HealthReport {
                        day,
                        extracted: echo.extracted.clone(),
                        signals,
                    };
                }
            }
        }
        self.stats.misses += 1;
        verifier.check_with(cx, bundle, doc, day, lkg)
    }

    /// Whether the live last-known-good state was captured against a
    /// document with this fingerprint under this bundle revision.  When
    /// true, the current epoch's capture would reproduce it field for
    /// field, so [`LastKnownGood::advance_identical`] is byte-equivalent to
    /// a fresh capture-and-advance.
    pub(crate) fn lkg_unchanged(&self, doc_fp: u64, revision: u32) -> bool {
        self.lkg_origin == Some((doc_fp, revision))
    }

    /// Records the snapshot the last-known-good state was just (re)captured
    /// from.
    pub(crate) fn record_lkg_origin(&mut self, doc_fp: u64, revision: u32) {
        self.lkg_origin = Some((doc_fp, revision));
    }

    /// Records a healthy epoch's residue for the identical-snapshot replay.
    /// Call only with a healthy report, after the loop refreshed (or
    /// identically advanced) its last-known-good state from this snapshot.
    pub(crate) fn record_echo(&mut self, doc_fp: u64, revision: u32, report: &HealthReport) {
        debug_assert!(report.healthy());
        self.echo = Some(EpochEcho {
            doc_fp,
            revision,
            anchor_missing: report
                .signals
                .iter()
                .filter(|s| matches!(s, HealthSignal::AnchorMissing { .. }))
                .cloned()
                .collect(),
            extracted: report.extracted.clone(),
        });
    }

    /// Drains the counters (for the end-of-run telemetry flush).
    pub(crate) fn take_stats(&mut self) -> IncStats {
        std::mem::take(&mut self.stats)
    }
}
