//! The maintenance loop: a per-wrapper state machine driven over a timeline
//! of page versions.
//!
//! ```text
//!             healthy                     flagged
//!   Monitoring ───────► Monitoring          │
//!        ▲                                  ▼
//!        │ repair validated        classify → repair
//!        └───────────────────┐              │ repair failed
//!                            │              ▼
//!                        Degraded ◄─────────┘
//!                            │ `RETIRE_AFTER` (2) consecutive failures,
//!                            │ drift class TargetRemoved
//!                            ▼
//!                         Retired  (still verified, never repaired)
//! ```
//!
//! Broken captures bypass the machine entirely: the wrapper, its state and
//! its last-known-good pass through unchanged (see the repair-policy
//! contract in the crate docs).

use crate::drift::{DriftClass, DriftClassifier, DriftReport};
use crate::incremental::IncrementalState;
use crate::repair::{RepairAction, Repairer};
use crate::verify::{HealthReport, LastKnownGood, Verifier};
use crate::PageVersion;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use wi_induction::{WrapperBundle, WrapperInducer};
use wi_xpath::EvalContext;

/// The lifecycle state of a maintained wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WrapperState {
    /// Healthy (or freshly repaired) and being watched.
    Monitoring,
    /// Flagged and not (yet) successfully repaired; repair is retried on
    /// every subsequent snapshot.
    Degraded,
    /// Given up: the target is gone from the page.  Verification continues
    /// (the wrapper un-retires if a later snapshot is healthy again), repair
    /// does not.
    Retired,
}

/// Everything the loop decided about one snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochOutcome {
    /// The snapshot day.
    pub day: i64,
    /// Verifier verdict (signals included).
    pub health: HealthReport,
    /// `true` when the verifier flagged this snapshot (not healthy).
    pub flagged: bool,
    /// `true` when the flag was a broken capture (no classification beyond
    /// [`DriftClass::PageBroken`], no repair).
    pub page_broken: bool,
    /// Drift classification, when the snapshot was flagged.
    pub drift: Option<DriftClass>,
    /// The repair applied on this snapshot, if any.
    pub repair: Option<RepairAction>,
    /// `true` when a repair was validated and installed on this snapshot.
    pub repaired: bool,
    /// Bundle revision in force *after* this snapshot.
    pub revision: u32,
    /// Lifecycle state after this snapshot.
    pub state: WrapperState,
    /// The extraction this epoch ends with: the repaired bundle's when a
    /// repair was installed, the flagged bundle's otherwise.
    pub extracted: Vec<wi_dom::NodeId>,
}

/// A bundle revision recorded by a maintenance run.
#[derive(Debug, Clone)]
pub struct RevisionEvent {
    /// The day the revision was installed.
    pub day: i64,
    /// The revision number.
    pub revision: u32,
    /// Why (the repair's provenance).
    pub cause: String,
    /// The installed bundle.
    pub bundle: WrapperBundle,
}

/// The full record of one maintenance run.
#[derive(Debug, Clone)]
pub struct MaintenanceLog {
    /// The maintained site/wrapper label.
    pub label: String,
    /// One outcome per page version, in input order.
    pub outcomes: Vec<EpochOutcome>,
    /// Every revision installed during the run, oldest first.
    pub revisions: Vec<RevisionEvent>,
    /// The bundle in force after the last snapshot.
    pub bundle: WrapperBundle,
    /// The last-known-good state after the last snapshot.
    pub lkg: Option<LastKnownGood>,
    /// Consecutive failed `TargetRemoved` repairs at the end of the run (the
    /// retirement countdown).  Feed this back into
    /// [`Maintainer::run_resumed`] to continue the timeline later — e.g.
    /// after a registry restart — exactly where it stopped.
    pub target_gone_streak: u32,
}

impl MaintenanceLog {
    /// How many snapshots were flagged (excluding broken captures).
    pub fn wrapper_flags(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.flagged && !o.page_broken)
            .count()
    }

    /// How many repairs were installed.
    pub fn repairs(&self) -> usize {
        self.outcomes.iter().filter(|o| o.repaired).count()
    }
}

/// Consecutive failed repairs with drift class [`DriftClass::TargetRemoved`]
/// before the wrapper retires.
const RETIRE_AFTER: usize = 2;

/// Configuration of the whole loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaintainConfig {
    /// Enables the epoch echo (the `incremental` module): a snapshot
    /// identical to the last healthy one under the same bundle revision
    /// replays that epoch's verdict, and its last-known-good state rolls
    /// forward without a re-capture.  Off, every snapshot is verified and
    /// captured from scratch; both modes share the bundle's parsed
    /// expressions and the attribute census index.  Outcomes are
    /// byte-identical either way; this switch is the from-scratch reference
    /// for the equivalence battery and the benches.  Defaults to `true`.
    pub incremental: bool,
}

impl Default for MaintainConfig {
    fn default() -> Self {
        MaintainConfig { incremental: true }
    }
}

/// Drives bundles through verify → classify → repair over page timelines.
#[derive(Debug, Clone, Default)]
pub struct Maintainer {
    /// Loop configuration.
    pub config: MaintainConfig,
    /// The inducer used for re-induction repairs (callers configure text
    /// policies etc. here).
    pub inducer: WrapperInducer,
}

impl Maintainer {
    /// Creates a maintainer with explicit configuration.
    pub fn new(config: MaintainConfig, inducer: WrapperInducer) -> Maintainer {
        Maintainer { config, inducer }
    }

    /// Runs the maintenance loop over a timeline from a fresh start
    /// (`Monitoring`, no retirement streak), allocating a fresh evaluation
    /// context and re-inducing with the maintainer's own inducer.
    pub fn run(
        &self,
        label: &str,
        bundle: WrapperBundle,
        pages: &[PageVersion],
        seed_lkg: Option<LastKnownGood>,
    ) -> MaintenanceLog {
        self.run_resumed(
            &mut EvalContext::new(),
            label,
            bundle,
            pages,
            seed_lkg,
            &self.inducer,
            WrapperState::Monitoring,
            0,
        )
    }

    /// Runs the maintenance loop over a timeline, resuming from an explicit
    /// lifecycle position: the wrapper state and the
    /// consecutive-`TargetRemoved` failure streak a previous run ended with
    /// (see [`MaintenanceLog::target_gone_streak`]).  The caller's
    /// evaluation context is reused (the batch driver passes one per
    /// worker), and `inducer` runs re-induction repairs (batch jobs may
    /// override the shared maintainer's, e.g. with their site's own
    /// template-label text policy).  This is what makes a
    /// timeline *splittable*: running the first half, keeping
    /// `(bundle, lkg, state, streak)`, and resuming over the second half is
    /// byte-identical to one uninterrupted run — the registry's batches
    /// and the persistent registry's restart guarantee are built on it.  A
    /// wrapper resumed as [`WrapperState::Retired`] keeps being verified
    /// but not repaired, exactly as if it had retired mid-run.
    #[allow(clippy::too_many_arguments)]
    pub fn run_resumed(
        &self,
        cx: &mut EvalContext,
        label: &str,
        mut bundle: WrapperBundle,
        pages: &[PageVersion],
        seed_lkg: Option<LastKnownGood>,
        inducer: &WrapperInducer,
        seed_state: WrapperState,
        seed_target_gone_streak: u32,
    ) -> MaintenanceLog {
        let run_started = Instant::now();
        let mut inc = self.config.incremental.then(IncrementalState::new);

        let mut lkg = seed_lkg;
        let mut state = seed_state;
        let mut consecutive_target_gone = seed_target_gone_streak as usize;
        let mut outcomes: Vec<EpochOutcome> = Vec::with_capacity(pages.len());
        let mut revisions: Vec<RevisionEvent> = Vec::new();
        let obs = crate::telemetry::maintain_metrics();

        for page in pages {
            let epoch_started = Instant::now();
            obs.epochs.inc();
            let prev_state = state;

            let verify_started = Instant::now();
            let doc_fp = inc.as_ref().map(|_| page.doc.content_hash());
            let health = match (inc.as_mut(), doc_fp) {
                (Some(state), Some(fp)) => {
                    state.verify(cx, &bundle, &page.doc, fp, page.day, lkg.as_ref())
                }
                _ => Verifier.check_with(cx, &bundle, &page.doc, page.day, lkg.as_ref()),
            };
            obs.verify_latency_us.observe_us(verify_started.elapsed());

            if health.page_broken() {
                obs.drift_counter(DriftClass::PageBroken).inc();
                wi_obs::record_span("maintain.epoch", epoch_started, &[("flagged", 1)]);
                // Archive artifact: pass through untouched.
                outcomes.push(EpochOutcome {
                    day: page.day,
                    flagged: true,
                    page_broken: true,
                    drift: Some(DriftClass::PageBroken),
                    repair: None,
                    repaired: false,
                    revision: bundle.revision,
                    state,
                    extracted: Vec::new(),
                    health,
                });
                continue;
            }

            if health.healthy() {
                let identical = match (inc.as_ref(), doc_fp, lkg.as_ref()) {
                    (Some(state), Some(fp), Some(_)) => state.lkg_unchanged(fp, bundle.revision),
                    _ => false,
                };
                lkg = if identical {
                    // Same document, same bundle: a fresh capture would
                    // reproduce the live state field for field.
                    Some(lkg.as_ref().unwrap().advance_identical(page.day))
                } else {
                    if let (Some(state), Some(fp)) = (inc.as_mut(), doc_fp) {
                        state.record_lkg_origin(fp, bundle.revision);
                    }
                    let fresh =
                        LastKnownGood::capture_for(&bundle, &page.doc, page.day, &health.extracted);
                    Some(match lkg.as_ref() {
                        Some(previous) => LastKnownGood::advance(previous, fresh),
                        None => fresh,
                    })
                };
                if let (Some(state), Some(fp)) = (inc.as_mut(), doc_fp) {
                    state.record_echo(fp, bundle.revision, &health);
                }
                state = WrapperState::Monitoring;
                consecutive_target_gone = 0;
                if state != prev_state {
                    obs.transition_counter(state).inc();
                }
                obs.target_gone_streak.set(0);
                wi_obs::record_span("maintain.epoch", epoch_started, &[("flagged", 0)]);
                outcomes.push(EpochOutcome {
                    day: page.day,
                    flagged: false,
                    page_broken: false,
                    drift: None,
                    repair: None,
                    repaired: false,
                    revision: bundle.revision,
                    state,
                    extracted: health.extracted.clone(),
                    health,
                });
                continue;
            }

            // Flagged: classify, then (unless retired) try to repair.
            let classify_started = Instant::now();
            let drift: DriftReport =
                DriftClassifier.classify(&bundle, &page.doc, page.day, lkg.as_ref(), &health);
            obs.classify_latency_us
                .observe_us(classify_started.elapsed());
            obs.drift_counter(drift.class).inc();
            let mut repair_action = None;
            let mut repaired = false;
            let mut extracted = health.extracted.clone();

            if state != WrapperState::Retired {
                let repair_started = Instant::now();
                let repair_outcome = Repairer.repair_with(
                    cx,
                    &bundle,
                    &page.doc,
                    page.day,
                    lkg.as_ref(),
                    &drift,
                    inducer,
                );
                obs.repair_latency_us.observe_us(repair_started.elapsed());
                match repair_outcome {
                    Some(outcome) => {
                        bundle = outcome.bundle;
                        revisions.push(RevisionEvent {
                            day: page.day,
                            revision: bundle.revision,
                            cause: outcome.action.provenance(page.day),
                            bundle: bundle.clone(),
                        });
                        if let (Some(state), Some(fp)) = (inc.as_mut(), doc_fp) {
                            state.record_lkg_origin(fp, bundle.revision);
                        }
                        let fresh = LastKnownGood::capture_for(
                            &bundle,
                            &page.doc,
                            page.day,
                            &outcome.extracted,
                        );
                        lkg = Some(match lkg.as_ref() {
                            Some(previous) => LastKnownGood::advance(previous, fresh),
                            None => fresh,
                        });
                        extracted = outcome.extracted.clone();
                        repair_action = Some(outcome.action);
                        repaired = true;
                        state = WrapperState::Monitoring;
                        consecutive_target_gone = 0;
                    }
                    None => {
                        if drift.class == DriftClass::TargetRemoved {
                            consecutive_target_gone += 1;
                        } else {
                            consecutive_target_gone = 0;
                        }
                        state = if consecutive_target_gone >= RETIRE_AFTER {
                            WrapperState::Retired
                        } else {
                            WrapperState::Degraded
                        };
                    }
                }
            }

            if state != prev_state {
                obs.transition_counter(state).inc();
            }
            obs.target_gone_streak.set(consecutive_target_gone as u64);
            wi_obs::record_span("maintain.epoch", epoch_started, &[("flagged", 1)]);

            outcomes.push(EpochOutcome {
                day: page.day,
                flagged: true,
                page_broken: false,
                drift: Some(drift.class),
                repair: repair_action,
                repaired,
                revision: bundle.revision,
                state,
                extracted,
                health,
            });
        }

        if let Some(mut state) = inc {
            let stats = state.take_stats();
            obs.cache_hits.add(stats.hits);
            obs.cache_misses.add(stats.misses);
            wi_obs::record_span(
                "maintain.incremental",
                run_started,
                &[
                    ("epochs", pages.len() as u64),
                    ("hits", stats.hits),
                    ("misses", stats.misses),
                ],
            );
        }

        MaintenanceLog {
            label: label.to_string(),
            outcomes,
            revisions,
            bundle,
            lkg,
            target_gone_streak: consecutive_target_gone as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_dom::Document;
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

    fn induced(doc: &Document) -> WrapperBundle {
        let targets = doc
            .descendants(doc.root())
            .filter(|&n| doc.tag_name(n) == Some("span"))
            .collect::<Vec<_>>();
        let wrapper = WrapperInducer::default()
            .try_induce_best(doc, &targets)
            .unwrap();
        WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults()).with_label("p")
    }

    #[test]
    fn healthy_timeline_stays_monitoring_with_zero_repairs() {
        let v1 = page("p", &["1", "2", "3"]);
        let bundle = induced(&v1);
        let pages: Vec<PageVersion> = [
            page("p", &["1", "2", "3"]),
            page("p", &["4", "5", "6"]),
            page("p", &["7", "8", "9"]),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, doc)| PageVersion {
            day: 20 * i as i64,
            doc,
        })
        .collect();
        let log = Maintainer::default().run("site", bundle, &pages, None);
        assert_eq!(log.wrapper_flags(), 0);
        assert_eq!(log.repairs(), 0);
        assert!(log
            .outcomes
            .iter()
            .all(|o| o.state == WrapperState::Monitoring));
        assert_eq!(log.bundle.revision, 0);
        assert_eq!(log.lkg.as_ref().unwrap().texts, vec!["7", "8", "9"]);
    }

    #[test]
    fn rename_mid_timeline_is_flagged_classified_and_hot_swapped() {
        let v1 = page("p", &["1", "2", "3"]);
        let bundle = induced(&v1);
        let pages = vec![
            PageVersion {
                day: 0,
                doc: page("p", &["1", "2", "3"]),
            },
            PageVersion {
                day: 20,
                doc: page("price", &["4", "5", "6"]),
            },
            PageVersion {
                day: 40,
                doc: page("price", &["7", "8", "9"]),
            },
        ];
        let log = Maintainer::default().run("site", bundle, &pages, None);
        assert_eq!(log.wrapper_flags(), 1);
        assert_eq!(log.repairs(), 1);
        let o = &log.outcomes[1];
        assert!(o.repaired);
        assert_eq!(o.drift, Some(DriftClass::AttributeRename));
        assert_eq!(o.revision, 1);
        // After the hot swap day 40 is healthy again under the new anchor.
        assert!(!log.outcomes[2].flagged);
        assert_eq!(log.revisions.len(), 1);
        assert!(log.revisions[0].cause.contains("re-anchored"));
    }

    #[test]
    fn gone_target_degrades_then_retires_and_repair_stops() {
        let v1 = Document::parse(
            r#"<body><div class="blk"><h4>Director:</h4><span class="v">S</span></div>
               <ul><li>1</li><li>2</li><li>3</li><li>4</li><li>5</li><li>6</li></ul></body>"#,
        )
        .unwrap();
        let targets = v1.elements_by_class("v");
        let wrapper = WrapperInducer::default()
            .try_induce_best(&v1, &targets)
            .unwrap();
        let bundle = WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults());
        let gone = Document::parse(
            r#"<body><ul><li>1</li><li>2</li><li>3</li><li>4</li><li>5</li><li>6</li></ul></body>"#,
        )
        .unwrap();
        let pages = vec![
            PageVersion {
                day: 0,
                doc: v1.clone(),
            },
            PageVersion {
                day: 20,
                doc: gone.clone(),
            },
            PageVersion {
                day: 40,
                doc: gone.clone(),
            },
            PageVersion {
                day: 60,
                doc: gone.clone(),
            },
        ];
        let log = Maintainer::default().run("site", bundle, &pages, None);
        assert_eq!(log.repairs(), 0);
        assert_eq!(log.outcomes[1].state, WrapperState::Degraded);
        assert_eq!(log.outcomes[1].drift, Some(DriftClass::TargetRemoved));
        assert_eq!(log.outcomes[2].state, WrapperState::Retired);
        assert_eq!(log.outcomes[3].state, WrapperState::Retired);
        assert_eq!(log.bundle.revision, 0);
    }

    #[test]
    fn broken_capture_passes_through_without_state_change() {
        let v1 = page("p", &["1", "2", "3"]);
        let bundle = induced(&v1);
        let broken =
            Document::parse("<html><body><p>Page cannot be crawled or displayed</p></body></html>")
                .unwrap();
        let pages = vec![
            PageVersion {
                day: 0,
                doc: page("p", &["1", "2", "3"]),
            },
            PageVersion {
                day: 20,
                doc: broken,
            },
            PageVersion {
                day: 40,
                doc: page("p", &["4", "5", "6"]),
            },
        ];
        let log = Maintainer::default().run("site", bundle, &pages, None);
        let o = &log.outcomes[1];
        assert!(o.page_broken);
        assert_eq!(o.drift, Some(DriftClass::PageBroken));
        assert!(!o.repaired);
        // The broken capture neither repaired nor poisoned the LKG: day 40
        // verifies healthy against the day-0 state.
        assert!(!log.outcomes[2].flagged);
        assert_eq!(log.repairs(), 0);
    }
}
