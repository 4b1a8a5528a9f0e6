//! The incremental-maintenance equivalence battery: with
//! `MaintainConfig::incremental` on, every observable outcome of the loop —
//! verdicts, drift classes, repairs, revisions, last-known-good states,
//! registry histories — must be **byte-identical** to the from-scratch run.
//! The caches are a pure evaluation shortcut; if they ever change a
//! decision, that is a soundness bug, not a tuning issue.

use proptest::prelude::*;
use wi_dom::Document;
use wi_induction::{WrapperBundle, WrapperInducer};
use wi_maintain::{
    DriftClass, LastKnownGood, MaintainConfig, Maintainer, MaintenanceJob, MaintenanceLog,
    PageVersion, Registry,
};
use wi_scoring::ScoringParams;
use wi_webgen::archive::ArchiveSimulator;
use wi_webgen::date::Day;
use wi_webgen::site::{PageKind, Site};
use wi_webgen::style::Vertical;
use wi_webgen::tasks::{TargetRole, WrapperTask};

fn maintainer(incremental: bool) -> Maintainer {
    Maintainer::new(MaintainConfig { incremental }, WrapperInducer::default())
}

fn cache_hits_total() -> u64 {
    wi_obs::Registry::global()
        .counter("wi_maintain_cache_hits_total", &[])
        .get()
}

/// Full webgen maintenance dataset (the bench workload shape: 12 sites,
/// 24 epochs): the incremental run and the from-scratch run must produce
/// `Debug`-identical logs and registry histories, and the incremental run
/// must actually exercise the caches.
#[test]
fn webgen_dataset_incremental_equals_from_scratch() {
    let mut registry_inc = Registry::new();
    let mut jobs = Vec::new();
    for index in 0..12u64 {
        let vertical = Vertical::ALL[index as usize % Vertical::ALL.len()];
        let task = WrapperTask::new(
            Site::new(vertical, index),
            0,
            PageKind::Detail,
            TargetRole::ListTitles,
        );
        let (doc, targets) = task.page_with_targets(Day(0));
        let Ok(wrapper) = WrapperInducer::with_k(3).try_induce_best(&doc, &targets) else {
            continue;
        };
        let bundle = WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults())
            .with_label(task.id());
        registry_inc.install(task.id(), bundle.clone(), 0);
        let archive = ArchiveSimulator::new(task.site.clone(), task.page_index, task.kind);
        let pages: Vec<PageVersion> = (0..24)
            .map(|i| {
                let day = Day(i * 20);
                PageVersion {
                    day: day.offset(),
                    doc: archive.snapshot(day).doc,
                }
            })
            .collect();
        jobs.push(MaintenanceJob {
            site: task.id(),
            pages,
            seed_lkg: Some(LastKnownGood::capture_for(&bundle, &doc, 0, &targets)),
            inducer: None,
        });
    }
    assert!(jobs.len() >= 10, "workload collapsed: {} jobs", jobs.len());
    let mut registry_full = registry_inc.clone();

    let hits_before = cache_hits_total();
    let incremental = registry_inc.maintain_batch_sequential(&jobs, &maintainer(true));
    assert!(
        cache_hits_total() > hits_before,
        "the incremental run never hit a cache — nothing was tested"
    );
    let from_scratch = registry_full.maintain_batch_sequential(&jobs, &maintainer(false));

    assert_eq!(incremental.len(), from_scratch.len());
    for (inc, full) in incremental.iter().zip(&from_scratch) {
        // Same `pages` vec on both sides ⇒ same arenas ⇒ even the NodeIds
        // in the extractions must line up, so Debug equality is exact.
        assert_eq!(
            format!("{inc:#?}"),
            format!("{full:#?}"),
            "maintenance log diverged for {}",
            inc.label
        );
    }
    for job in &jobs {
        assert_eq!(
            format!("{:#?}", registry_inc.history(&job.site)),
            format!("{:#?}", registry_full.history(&job.site)),
            "registry history diverged for {}",
            job.site
        );
    }
}

/// One mutation step of the synthetic timeline used by the property test.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Re-serve the previous snapshot unchanged (the common case on the
    /// live web, and the case the identical-fingerprint fast path serves).
    Identical,
    /// Same template, new values (content churn).
    Rotate,
    /// Rename the anchor class (attribute drift → re-anchor repair).
    Rename,
    /// Suffix the anchor class with a version marker (`p` → `p-r1`), the
    /// shape the classifier reports as [`DriftClass::Redesign`].
    Redesign,
    /// Drop the target block (target removed → degradation/retirement).
    RemoveBlock,
    /// A broken capture (error page).
    Broken,
    /// Re-serve the seed snapshot byte for byte (used by the fixed
    /// timelines only).
    Restore,
}

fn arb_mutations() -> impl Strategy<Value = Vec<Mutation>> {
    // Weighted by index range: identical snapshots dominate, as on the
    // live web (and that is the case the fingerprint fast path serves).
    prop::collection::vec(
        (0usize..9).prop_map(|choice| match choice {
            0..=2 => Mutation::Identical,
            3..=4 => Mutation::Rotate,
            5 => Mutation::Rename,
            6 => Mutation::Redesign,
            7 => Mutation::RemoveBlock,
            _ => Mutation::Broken,
        }),
        1..12,
    )
}

fn render(class: &str, generation: usize, with_block: bool) -> Document {
    let block = if with_block {
        (0..3)
            .map(|i| format!(r#"<span class="{class}">value {generation}-{i}</span>"#))
            .collect::<String>()
    } else {
        String::new()
    };
    Document::parse(&format!(
        r#"<html><body><div id="main"><h4>Prices:</h4>{block}</div>
           <div id="side"><ul><li>a</li><li>b</li><li>c</li><li>d</li></ul></div>
           </body></html>"#
    ))
    .unwrap()
}

fn timeline(mutations: &[Mutation]) -> Vec<PageVersion> {
    let mut class = "p".to_string();
    let mut generation = 0usize;
    let mut with_block = true;
    let mut redesigns = 0usize;
    let mut pages = vec![PageVersion {
        day: 0,
        doc: render(&class, generation, with_block),
    }];
    for (epoch, mutation) in mutations.iter().enumerate() {
        let day = 20 * (epoch as i64 + 1);
        let doc = match mutation {
            Mutation::Identical => render(&class, generation, with_block),
            Mutation::Rotate => {
                generation += 1;
                render(&class, generation, with_block)
            }
            Mutation::Rename => {
                class.push('x');
                render(&class, generation, with_block)
            }
            Mutation::Redesign => {
                redesigns += 1;
                class = format!("{class}-r{redesigns}");
                render(&class, generation, with_block)
            }
            Mutation::RemoveBlock => {
                with_block = false;
                render(&class, generation, with_block)
            }
            Mutation::Broken => Document::parse(
                "<html><body><p>Page cannot be crawled or displayed</p></body></html>",
            )
            .unwrap(),
            Mutation::Restore => {
                class = "p".to_string();
                generation = 0;
                with_block = true;
                render(&class, generation, with_block)
            }
        };
        pages.push(PageVersion { day, doc });
    }
    pages
}

/// Maintains the synthetic timeline of `mutations` twice, with the
/// incremental caches on and off, from a wrapper induced on the seed
/// snapshot's `span`s.
fn run_both(mutations: &[Mutation]) -> (MaintenanceLog, MaintenanceLog) {
    let pages = timeline(mutations);
    let doc = &pages[0].doc;
    let targets: Vec<_> = doc
        .descendants(doc.root())
        .filter(|&n| doc.tag_name(n) == Some("span"))
        .collect();
    let wrapper = WrapperInducer::default()
        .try_induce_best(doc, &targets)
        .expect("induction succeeds on the seed snapshot");
    let bundle =
        WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults()).with_label("prop");
    let lkg = LastKnownGood::capture_for(&bundle, doc, 0, &targets);

    let inc = maintainer(true).run("prop", bundle.clone(), &pages, Some(lkg.clone()));
    let full = maintainer(false).run("prop", bundle, &pages, Some(lkg));
    (inc, full)
}

/// A redesign in the middle of a timeline repairs the bundle to a new
/// revision; the snapshots after it must still replay identically.
#[test]
fn redesign_flush_is_cache_invariant() {
    let mutations = [
        Mutation::Identical,
        Mutation::Rotate,
        Mutation::Redesign,
        Mutation::Identical,
        Mutation::Rotate,
        Mutation::Redesign,
        Mutation::Identical,
    ];
    let (inc, full) = run_both(&mutations);
    assert!(
        inc.outcomes
            .iter()
            .any(|o| o.drift == Some(DriftClass::Redesign)),
        "no epoch was classified as a redesign: {:?}",
        inc.outcomes.iter().map(|o| o.drift).collect::<Vec<_>>()
    );
    assert_eq!(format!("{inc:#?}"), format!("{full:#?}"));
}

/// Fixed timelines for the shapes that re-verify or re-capture the same
/// document: an unrepairable flagged page served again and again (Degraded,
/// then Retired), identical snapshots right after a repair bumped the
/// revision (the repair's capture rolls forward identically), an identical
/// snapshot after a broken capture (the echo carries across it), and the
/// seed snapshot served again after a repair (its echo belongs to the old
/// revision and must not replay).
#[test]
fn recurring_snapshots_replay_identically() {
    use wi_maintain::WrapperState;
    let cases: [&[Mutation]; 4] = [
        &[
            Mutation::RemoveBlock,
            Mutation::Identical,
            Mutation::Identical,
            Mutation::Identical,
        ],
        &[Mutation::Rename, Mutation::Identical, Mutation::Identical],
        &[Mutation::Identical, Mutation::Broken, Mutation::Identical],
        &[Mutation::Rename, Mutation::Restore],
    ];
    let [removed, renamed, broken, restored] = cases.map(|mutations| {
        let (inc, full) = run_both(mutations);
        assert_eq!(
            format!("{inc:#?}"),
            format!("{full:#?}"),
            "diverged on {mutations:?}"
        );
        inc
    });

    let states: Vec<_> = removed.outcomes.iter().map(|o| o.state).collect();
    assert!(
        states.contains(&WrapperState::Degraded) && states.last() == Some(&WrapperState::Retired),
        "the removed target did not degrade and retire: {states:?}"
    );
    assert!(
        renamed.outcomes[1].repaired && !renamed.outcomes[2].flagged,
        "the rename was not repaired before the identical snapshots"
    );
    assert!(broken.outcomes[2].page_broken && !broken.outcomes[3].flagged);
    assert!(
        restored.outcomes[1].repaired && restored.outcomes[2].flagged,
        "the seed snapshot must fail the repaired revision"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any mutation sequence — identical snapshots, value churn, renames,
    /// redesigns, removals, broken captures, in any order — produces the same
    /// maintenance log with the caches on and off.
    #[test]
    fn random_mutation_sequences_are_cache_invariant(mutations in arb_mutations()) {
        let (inc, full) = run_both(&mutations);
        prop_assert_eq!(
            format!("{inc:#?}"),
            format!("{full:#?}"),
            "diverged on {:?}",
            mutations
        );
    }
}
