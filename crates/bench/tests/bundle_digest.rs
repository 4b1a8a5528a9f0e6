//! Bundle fidelity on the synthetic web: wrapper bundles induced on a fixed
//! set of `wi-webgen` sites, and every revision the maintenance loop
//! derives from them over each site's archive timeline, must serialize to
//! exactly the JSON recorded in `EXPECTED_DIGEST`, and the loop must end in
//! exactly the recorded last-known-good states.
//!
//! The registry's object store is content-addressed by a bundle's JSON and
//! its records persist last-known-good states, so a change to how bundles
//! hold, print or replay their expressions must keep both byte-identical.
//!
//! Two kinds of bundle are built per task: the `/induce` shape (the
//! inducer's whole top-K ranking, bundled with `from_instances`) and an
//! ensemble bundle (`from_ensemble`).  The digest covers the compact JSON
//! of each bundle, of every revision the loop installs, and the `Debug`
//! forms of each epoch's verdict and of the seed and final last-known-good
//! states.

use wi_induction::{EnsembleConfig, Sample, WrapperBundle, WrapperEnsemble, WrapperInducer};
use wi_maintain::{LastKnownGood, Maintainer, MaintenanceLog, PageVersion};
use wi_scoring::{QueryInstance, ScoringParams};
use wi_webgen::archive::ArchiveSimulator;
use wi_webgen::date::Day;
use wi_webgen::site::{PageKind, Site};
use wi_webgen::style::Vertical;
use wi_webgen::tasks::{TargetRole, WrapperTask};
use wi_xpath::parse_query;

/// FNV-1a over the canonical dump; stable across platforms and releases.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// A length-prefixed string, so adjacent fields cannot run together.
    fn str(&mut self, s: &str) {
        for b in (s.len() as u64).to_le_bytes().into_iter().chain(s.bytes()) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One site per vertical, a single-node and a multi-node role each.
fn tasks() -> Vec<WrapperTask> {
    let mut tasks = Vec::new();
    for (index, &vertical) in Vertical::ALL.iter().enumerate() {
        for role in [TargetRole::PrimaryValue, TargetRole::ListTitles] {
            tasks.push(WrapperTask::new(
                Site::new(vertical, index as u64 * 5 + 1),
                0,
                PageKind::Detail,
                role,
            ));
        }
    }
    tasks
}

/// The task's archive timeline: 10 snapshots 120 days apart, long enough to
/// cross template changes and broken captures.
fn timeline(task: &WrapperTask) -> Vec<PageVersion> {
    let archive = ArchiveSimulator::new(task.site.clone(), task.page_index, task.kind);
    (0..10)
        .map(|i| {
            let day = Day(i * 120);
            PageVersion {
                day: day.offset(),
                doc: archive.snapshot(day).doc,
            }
        })
        .collect()
}

/// The task's bundles: the `/induce` shape, then the ensemble.
fn bundles(task: &WrapperTask) -> Vec<WrapperBundle> {
    let (doc, targets) = task.page_with_targets(Day(0));
    if targets.is_empty() {
        return Vec::new();
    }
    let mut bundles = Vec::new();
    let sample = Sample::from_root(&doc, &targets);
    if let Ok(instances) = WrapperInducer::default().try_induce(&[sample]) {
        assert_round_trips(task, &instances);
        bundles.push(
            WrapperBundle::from_instances(&instances, ScoringParams::default())
                .with_label(task.id()),
        );
    }
    let ensemble = WrapperEnsemble::induce_single(&doc, &targets, &EnsembleConfig::default());
    if !ensemble.is_empty() {
        assert_round_trips(task, &ensemble.members);
        bundles.push(
            WrapperBundle::from_ensemble(&ensemble, ScoringParams::paper_defaults())
                .with_label(format!("{}/ensemble", task.id())),
        );
    }
    bundles
}

/// The property bundles rely on: every induced query prints to text that
/// parses back to the same query.
fn assert_round_trips(task: &WrapperTask, instances: &[QueryInstance]) {
    for instance in instances {
        let text = instance.query.to_string();
        assert_eq!(
            parse_query(&text).as_ref(),
            Ok(&instance.query),
            "{}: {text} does not round-trip",
            task.id()
        );
    }
}

/// A bundle's compact JSON, after checking that a JSON reload prints the
/// same JSON again.
fn bundle_json(bundle: &WrapperBundle) -> String {
    let value = bundle.to_json_value();
    let reloaded = WrapperBundle::from_json_value(&value).expect("printed bundles reload");
    assert_eq!(
        reloaded.to_json_value(),
        value,
        "{:?}: JSON reload is not the identity",
        bundle.label
    );
    value.to_compact()
}

fn digest_log(log: &MaintenanceLog, d: &mut Digest) {
    for o in &log.outcomes {
        d.str(&format!(
            "{} {:?} {:?} {} {:?} {:?}",
            o.day, o.drift, o.repair, o.revision, o.state, o.extracted
        ));
    }
    d.str(&log.revisions.len().to_string());
    for event in &log.revisions {
        d.str(&bundle_json(&event.bundle));
    }
    d.str(&format!("{:?}", log.lkg));
}

/// Recorded with the bundle representation as of the change that
/// introduced this test.
const EXPECTED_DIGEST: u64 = 0xff42_f095_11ff_0a59;

#[test]
fn induced_bundles_and_their_revisions_serialize_to_the_recorded_json() {
    let maintainer = Maintainer::default();
    let mut d = Digest::new();
    let mut bundles_seen = 0usize;
    let mut revisions_seen = 0usize;
    for task in tasks() {
        let (doc, targets) = task.page_with_targets(Day(0));
        let pages = timeline(&task);
        for bundle in bundles(&task) {
            bundles_seen += 1;
            d.str(&bundle_json(&bundle));
            let seed = LastKnownGood::capture_for(&bundle, &doc, 0, &targets);
            d.str(&format!("{seed:?}"));
            let label = bundle.label.clone().unwrap_or_default();
            let log = maintainer.run(&label, bundle, &pages, Some(seed));
            revisions_seen += log.revisions.len();
            digest_log(&log, &mut d);
        }
    }
    assert!(bundles_seen >= 40, "only {bundles_seen} bundles induced");
    assert!(revisions_seen > 0, "no timeline produced a revision");
    assert_eq!(
        d.0, EXPECTED_DIGEST,
        "{bundles_seen} bundles and {revisions_seen} revisions changed: digest {:#018x}",
        d.0
    );
}
