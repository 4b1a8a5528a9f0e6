//! Incremental-replay caches for the maintenance loop.
//!
//! Monitored pages change slowly: in a low-churn timeline roughly half of
//! the consecutive snapshots are byte-identical and most of the rest share
//! large subtrees with their predecessor.  The full maintenance loop
//! nevertheless re-verifies, re-classifies and occasionally re-induces from
//! scratch on every epoch.  [`IncrementalState`] memoizes the two most
//! expensive whole-document computations so that replaying an unchanged (or
//! previously seen) snapshot costs a fingerprint comparison instead of a
//! tree walk:
//!
//! * **Verify memo** — `check_with` is a pure function of the document
//!   content, the bundle entries (identified by revision within one run —
//!   revisions only move forward, via [`WrapperBundle::revised`]) and the
//!   slice of the last-known-good state it actually reads.  The memo key is
//!   `(doc content fingerprint, bundle revision, lkg fingerprint)`; the
//!   value stores the health signals and the extracted nodes as **pre-order
//!   positions** so a hit rematerializes `NodeId`s valid for the current
//!   document arena.
//! * **Induction memo** — `try_reinduce` is a pure function of the document
//!   content and the harvest source (`lkg.texts`, `lkg.count`).  Both the
//!   produced entries and the *failure* outcome (induction error, majority
//!   rule, validation) are memoized, so repeated repair attempts against
//!   recurring page shapes skip the O(page) candidate generation entirely.
//!
//! ## Invalidation contract
//!
//! Keys embed content fingerprints, so a changed document can never hit a
//! stale entry — staleness is impossible by construction.  The one drift
//! signal that warrants flushing anyway is a
//! [`DriftClass::Redesign`](crate::DriftClass): a redesigned site
//! invalidates the *assumption* that past page shapes recur, so
//! [`IncrementalState::invalidate`] drops everything rather than let the
//! maps grow with entries that will never hit again.  [`invalidate`] is the
//! **only** wholesale eviction entry point; per-entry admission goes through
//! [`verify`](IncrementalState::verify) and
//! [`induce_admit`](IncrementalState::induce_admit).

use crate::verify::{CompiledVerify, HealthReport, HealthSignal, LastKnownGood, Verifier};
use std::hash::Hasher;
use wi_dom::{Document, FxHasher, FxMap, NodeId};
use wi_induction::{BundleEntry, WrapperBundle};
use wi_xpath::EvalContext;

/// Aggregate hit/miss/invalidation counts across both memo layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct IncStats {
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
}

struct VerifyMemo {
    signals: Vec<HealthSignal>,
    /// Extracted nodes as pre-order positions (arena-independent).
    extracted: Vec<u32>,
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
    /// Its extraction as pre-order positions.
    extracted: Vec<u32>,
}

struct InduceMemo {
    entries: Vec<BundleEntry>,
    harvested: usize,
    extracted: Vec<u32>,
}

/// Result of consulting the induction memo.
pub(crate) enum InduceLookup {
    /// The exact (document, harvest source) pair was attempted before.
    /// `None` means the attempt failed (and will fail again); `Some` carries
    /// the validated entries, the harvest size and the rematerialized
    /// extraction.
    Hit(Option<(Vec<BundleEntry>, usize, Vec<NodeId>)>),
    /// Never attempted — compute, then [`IncrementalState::induce_admit`].
    Miss,
}

/// Key for the induction memo: `(doc fingerprint, texts hash, lkg.count)`.
pub(crate) type InduceKey = (u64, u64, usize);

/// Cross-epoch memo state owned by one maintenance run (or one registry
/// worker, which replays many runs back to back — the fingerprint keys make
/// sharing across jobs sound).
pub(crate) struct IncrementalState {
    verify: FxMap<(u64, u32, u64), VerifyMemo>,
    induction: FxMap<InduceKey, Option<InduceMemo>>,
    /// `(content fingerprint, bundle revision)` of the snapshot the live
    /// last-known-good state was captured from — the precondition of
    /// [`LastKnownGood::advance_identical`].
    lkg_origin: Option<(u64, u32)>,
    /// The last healthy epoch's residue, for the identical-snapshot replay.
    echo: Option<EpochEcho>,
    /// The live revision's expressions parsed once ([`CompiledVerify`]);
    /// rebuilt when a repair bumps the revision.  Within one run revisions
    /// move strictly forward, so the revision number identifies the entries.
    compiled: Option<(u32, CompiledVerify)>,
    /// Fresh [`LastKnownGood::capture_for`] results keyed
    /// `(doc fingerprint, bundle revision)` — the capture is a pure function
    /// of document and entries (the extraction it summarizes is, too), and
    /// its census walks are the loop's second-largest per-epoch cost.
    captures: FxMap<(u64, u32), LastKnownGood>,
    /// Extraction outcomes keyed `(doc fingerprint, bundle revision)`.
    /// Extraction is a pure function of document content and entries —
    /// *independent of the last-known-good state* — so this layer hits on
    /// every recurring page shape even when the lkg-sensitive verify memo
    /// misses (the lkg churns one epoch behind every content change).  `Err`
    /// carries the `ExtractionFailed` message verbatim.
    extractions: FxMap<(u64, u32), Result<Vec<u32>, String>>,
    stats: IncStats,
}

impl IncrementalState {
    pub(crate) fn new() -> Self {
        IncrementalState {
            verify: FxMap::default(),
            induction: FxMap::default(),
            lkg_origin: None,
            echo: None,
            compiled: None,
            captures: FxMap::default(),
            extractions: FxMap::default(),
            stats: IncStats::default(),
        }
    }

    /// Memoized [`Verifier::check_with`].  A hit replays the recorded
    /// signals and rematerializes the extracted nodes from pre-order
    /// positions; a miss runs the verifier and admits the result.
    ///
    /// ## The identical-snapshot replay
    ///
    /// Before consulting the memo map, a stronger fast path: when this
    /// snapshot's fingerprint and the live bundle revision match the last
    /// *healthy* epoch's (the [`EpochEcho`]), and the loop's last-known-good
    /// state is present (it was captured from exactly that epoch, possibly
    /// carried unchanged across intervening flagged/broken snapshots), the
    /// verdict is fully determined:
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
    /// `check_with` pushes the text signal before the anchor probes and its
    /// severity sort is stable over these all-non-severe signals, so the
    /// synthesized order is the computed order.  The equivalence battery
    /// (`tests/incremental_equivalence.rs`) pins all of this against the
    /// from-scratch loop.
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
                let nodes = doc.order_index().nodes_in_order();
                if echo.extracted.iter().all(|&p| (p as usize) < nodes.len()) {
                    self.stats.hits += 1;
                    let mut signals = vec![HealthSignal::TextDivergence { similarity: 1.0 }];
                    signals.extend(echo.anchor_missing.iter().cloned());
                    return HealthReport {
                        day,
                        extracted: echo.extracted.iter().map(|&p| nodes[p as usize]).collect(),
                        signals,
                    };
                }
            }
        }
        let key = (doc_fp, bundle.revision, lkg_fingerprint(lkg));
        if let Some(memo) = self.verify.get(&key) {
            let nodes = doc.order_index().nodes_in_order();
            if memo.extracted.iter().all(|&p| (p as usize) < nodes.len()) {
                self.stats.hits += 1;
                return HealthReport {
                    day,
                    extracted: memo.extracted.iter().map(|&p| nodes[p as usize]).collect(),
                    signals: memo.signals.clone(),
                };
            }
        }
        if self.compiled.as_ref().map(|(rev, _)| *rev) != Some(bundle.revision) {
            self.compiled = Some((bundle.revision, CompiledVerify::new(bundle)));
        }
        let compiled = &self.compiled.as_ref().expect("just installed").1;
        // Extraction is lkg-independent, so it replays from its own memo
        // even when the full-report memo missed; only a genuinely new
        // (document, revision) pair re-evaluates the expressions.
        let extractions = &mut self.extractions;
        let mut replayed = false;
        let report = verifier.check_with_lazy(cx, compiled, doc, day, lkg, |cx| {
            let ekey = (doc_fp, bundle.revision);
            if let Some(cached) = extractions.get(&ekey) {
                match cached {
                    Ok(positions) => {
                        let nodes = doc.order_index().nodes_in_order();
                        if positions.iter().all(|&p| (p as usize) < nodes.len()) {
                            replayed = true;
                            return Ok(positions.iter().map(|&p| nodes[p as usize]).collect());
                        }
                    }
                    Err(message) => {
                        replayed = true;
                        return Err(message.clone());
                    }
                }
            }
            let result = compiled.extract(cx, doc);
            match &result {
                Ok(nodes) => {
                    if let Some(positions) = positions_of(doc, nodes) {
                        extractions.insert(ekey, Ok(positions));
                    }
                }
                Err(message) => {
                    extractions.insert(ekey, Err(message.clone()));
                }
            }
            result
        });
        if replayed {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        if let Some(extracted) = positions_of(doc, &report.extracted) {
            self.verify.insert(
                key,
                VerifyMemo {
                    signals: report.signals.clone(),
                    extracted,
                },
            );
        }
        report
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

    /// Memoized [`LastKnownGood::capture_for`].  The fresh capture is a pure
    /// function of `(document, bundle entries)`: `nodes` is the bundle's own
    /// (deterministic) extraction on `doc`, and every captured field —
    /// texts, tags, counts, attribute values, carrier censuses — is computed
    /// from `doc` and the entries' anchors.  `rotates` and the stability
    /// counters are constants (`false`/`0`) in a fresh capture; only `day`
    /// varies, and it is re-stamped on every hit.
    pub(crate) fn capture_for(
        &mut self,
        bundle: &WrapperBundle,
        doc: &Document,
        doc_fp: u64,
        day: i64,
        nodes: &[NodeId],
    ) -> LastKnownGood {
        let key = (doc_fp, bundle.revision);
        if let Some(memo) = self.captures.get(&key) {
            self.stats.hits += 1;
            let mut fresh = memo.clone();
            fresh.day = day;
            return fresh;
        }
        self.stats.misses += 1;
        if self.compiled.as_ref().map(|(rev, _)| *rev) != Some(bundle.revision) {
            self.compiled = Some((bundle.revision, CompiledVerify::new(bundle)));
        }
        let anchors = self
            .compiled
            .as_ref()
            .expect("just installed")
            .1
            .anchor_pairs
            .clone();
        let fresh = LastKnownGood::capture_with_anchors(doc, day, nodes, anchors);
        self.captures.insert(key, fresh.clone());
        fresh
    }

    /// Records a healthy epoch's residue for the identical-snapshot replay.
    /// Call only with a healthy report, after the loop refreshed (or
    /// identically advanced) its last-known-good state from this snapshot.
    pub(crate) fn record_echo(
        &mut self,
        doc_fp: u64,
        revision: u32,
        report: &HealthReport,
        doc: &Document,
    ) {
        debug_assert!(report.healthy());
        let Some(extracted) = positions_of(doc, &report.extracted) else {
            self.echo = None;
            return;
        };
        self.echo = Some(EpochEcho {
            doc_fp,
            revision,
            anchor_missing: report
                .signals
                .iter()
                .filter(|s| matches!(s, HealthSignal::AnchorMissing { .. }))
                .cloned()
                .collect(),
            extracted,
        });
    }

    /// Key for [`induce_lookup`](Self::induce_lookup) /
    /// [`induce_admit`](Self::induce_admit): fingerprints exactly what
    /// re-induction reads — the document and the harvest source.
    pub(crate) fn induce_key(doc_fp: u64, lkg: &LastKnownGood) -> InduceKey {
        let mut h = FxHasher::default();
        h.write_usize(lkg.texts.len());
        for text in &lkg.texts {
            write_str(&mut h, text);
        }
        (doc_fp, h.finish(), lkg.count)
    }

    /// Consults the induction memo; a `Some` hit rematerializes the
    /// extraction for the current document arena.
    pub(crate) fn induce_lookup(&mut self, key: InduceKey, doc: &Document) -> InduceLookup {
        match self.induction.get(&key) {
            Some(None) => {
                self.stats.hits += 1;
                InduceLookup::Hit(None)
            }
            Some(Some(memo)) => {
                let nodes = doc.order_index().nodes_in_order();
                if memo.extracted.iter().all(|&p| (p as usize) < nodes.len()) {
                    self.stats.hits += 1;
                    let extracted = memo.extracted.iter().map(|&p| nodes[p as usize]).collect();
                    InduceLookup::Hit(Some((memo.entries.clone(), memo.harvested, extracted)))
                } else {
                    self.stats.misses += 1;
                    InduceLookup::Miss
                }
            }
            None => {
                self.stats.misses += 1;
                InduceLookup::Miss
            }
        }
    }

    /// Records a re-induction outcome (including failure) for its key.
    pub(crate) fn induce_admit(
        &mut self,
        key: InduceKey,
        doc: &Document,
        outcome: Option<(&[BundleEntry], usize, &[NodeId])>,
    ) {
        let memo = match outcome {
            None => None,
            Some((entries, harvested, extracted)) => {
                let Some(extracted) = positions_of(doc, extracted) else {
                    return;
                };
                Some(InduceMemo {
                    entries: entries.to_vec(),
                    harvested,
                    extracted,
                })
            }
        };
        self.induction.insert(key, memo);
    }

    /// Wholesale eviction — the only entry point that drops entries.  Used
    /// on redesign-class drift, where past page shapes stop recurring.
    pub(crate) fn invalidate(&mut self) {
        if !self.verify.is_empty() || !self.induction.is_empty() {
            self.stats.invalidations += 1;
        }
        self.verify.clear();
        self.induction.clear();
        self.captures.clear();
        self.extractions.clear();
        self.lkg_origin = None;
        self.echo = None;
    }

    /// Drains the counters (for the end-of-run telemetry flush).
    pub(crate) fn take_stats(&mut self) -> IncStats {
        std::mem::take(&mut self.stats)
    }
}

/// Maps extracted nodes to pre-order positions; `None` if any node is
/// detached (never admit a memo that cannot be rematerialized).
fn positions_of(doc: &Document, nodes: &[NodeId]) -> Option<Vec<u32>> {
    let order = doc.order_index();
    nodes.iter().map(|&n| order.position(n)).collect()
}

fn write_str(h: &mut FxHasher, s: &str) {
    h.write_usize(s.len());
    h.write(s.as_bytes());
}

/// Fingerprints exactly the slice of [`LastKnownGood`] that
/// [`Verifier::check_with`] reads: `doc_elements` (broken-page check),
/// `count` (cardinality slack), `tags` (shape divergence), `texts` (text
/// similarity) and the anchor carriers (census drift).  Carrier stability
/// enters as the boolean `stable_observations >= 2` because that is the only
/// predicate `probe_anchors` ever applies to it — hashing the raw counter
/// would fingerprint every warmup tick apart and forfeit the hits on the
/// second identical snapshot.  Deliberately **not** hashed: `day`,
/// `rotates`, top-level `stable_observations`, `attribute_values` and the
/// carriers' neighborhood fingerprint (`neighborhood` /
/// `neighborhood_stable`) — `check_with` never reads them (the
/// neighborhood is a *classifier* input, consulted only on the unhealthy
/// path that this cache never serves), so distinguishing on them would
/// only shrink the hit rate.
fn lkg_fingerprint(lkg: Option<&LastKnownGood>) -> u64 {
    let mut h = FxHasher::default();
    match lkg {
        None => h.write_u8(0),
        Some(lkg) => {
            h.write_u8(1);
            h.write_usize(lkg.doc_elements);
            h.write_usize(lkg.count);
            h.write_usize(lkg.tags.len());
            for tag in &lkg.tags {
                write_str(&mut h, tag);
            }
            h.write_usize(lkg.texts.len());
            for text in &lkg.texts {
                write_str(&mut h, text);
            }
            h.write_usize(lkg.anchor_carriers.len());
            for carrier in &lkg.anchor_carriers {
                write_str(&mut h, &carrier.attribute);
                write_str(&mut h, &carrier.value);
                h.write_usize(carrier.count);
                h.write_u8(u8::from(carrier.stable_observations >= 2));
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::AnchorCarrier;

    fn sample_lkg() -> LastKnownGood {
        LastKnownGood {
            day: 3,
            count: 2,
            texts: vec!["a".into(), "b".into()],
            tags: vec!["span".into()],
            doc_elements: 40,
            rotates: false,
            stable_observations: 1,
            attribute_values: std::sync::Arc::new(std::collections::BTreeSet::new()),
            anchor_carriers: vec![AnchorCarrier {
                attribute: "class".into(),
                value: "title".into(),
                count: 2,
                stable_observations: 1,
                neighborhood: vec!["Label:".into()],
                neighborhood_stable: 1,
            }],
        }
    }

    #[test]
    fn lkg_fingerprint_ignores_fields_check_with_never_reads() {
        let base = sample_lkg();
        let mut same = base.clone();
        same.day = 99;
        same.rotates = true;
        same.stable_observations = 7;
        same.anchor_carriers[0].neighborhood = vec!["Other:".into()];
        same.anchor_carriers[0].neighborhood_stable = 9;
        std::sync::Arc::make_mut(&mut same.attribute_values).insert("x".into());
        assert_eq!(
            lkg_fingerprint(Some(&base)),
            lkg_fingerprint(Some(&same)),
            "unread fields must not shrink the hit rate"
        );
    }

    #[test]
    fn lkg_fingerprint_buckets_carrier_stability_as_a_boolean() {
        let with_stability = |n: u32| {
            let mut lkg = sample_lkg();
            lkg.anchor_carriers[0].stable_observations = n;
            lkg_fingerprint(Some(&lkg))
        };
        assert_eq!(
            with_stability(0),
            with_stability(1),
            "both below the probe threshold"
        );
        assert_eq!(with_stability(2), with_stability(9), "both at or past it");
        assert_ne!(
            with_stability(1),
            with_stability(2),
            "the threshold itself matters"
        );
    }

    #[test]
    fn lkg_fingerprint_distinguishes_read_fields() {
        let base = sample_lkg();
        let mut texts = base.clone();
        texts.texts[0] = "c".into();
        let mut count = base.clone();
        count.count = 3;
        let mut carrier = base.clone();
        carrier.anchor_carriers[0].value = "headline".into();
        for other in [&texts, &count, &carrier] {
            assert_ne!(lkg_fingerprint(Some(&base)), lkg_fingerprint(Some(other)));
        }
        assert_ne!(lkg_fingerprint(Some(&base)), lkg_fingerprint(None));
    }

    #[test]
    fn invalidate_counts_once_and_resets_origin() {
        let mut state = IncrementalState::new();
        state.record_lkg_origin(1, 0);
        assert!(state.lkg_unchanged(1, 0));
        state.invalidate(); // empty maps: no-op for the counter
        assert_eq!(state.stats.invalidations, 0);
        assert!(!state.lkg_unchanged(1, 0), "origin must reset");
        state.induction.insert((1, 2, 3), None);
        state.invalidate();
        assert_eq!(state.stats.invalidations, 1);
        assert!(state.induction.is_empty());
    }
}
