//! Wrapper lifecycle: induce once, then verify → classify → repair as the
//! page evolves underneath the deployed wrapper — with the registry
//! *persisted* the way a production service would run it.
//!
//! The example picks a synthetic webgen site whose timeline contains a
//! wrapper-breaking template change, induces a wrapper on the first archive
//! snapshot, installs it in a sharded on-disk registry, and runs the
//! maintenance loop over the following years of snapshots.  Watch for the
//! flagged epoch: the verifier notices the break without any ground truth,
//! the drift classifier names the paper's break group, and the repairer
//! hot-swaps a new bundle revision — committed to the shard's append-only
//! version log before it is served.  The finale simulates a process
//! restart: the registry is dropped, recovered from its logs (zero lost
//! revisions), and compacted.
//!
//! ```text
//! cargo run --example wrapper_lifecycle
//! ```

use wrapper_induction::induction::WrapperBundle;
use wrapper_induction::maintain::{CompactionPolicy, Maintainer, PageVersion, PersistentRegistry};
use wrapper_induction::prelude::*;
use wrapper_induction::webgen::archive::ArchiveSimulator;
use wrapper_induction::webgen::date::Day;
use wrapper_induction::webgen::site::PageKind;
use wrapper_induction::webgen::style::Vertical;
use wrapper_induction::webgen::tasks::{TargetRole, WrapperTask};

fn main() {
    // A site whose timeline renames template classes at some point: scan the
    // deterministic site space for one that breaks within ~3 years.
    let task = (0..200)
        .map(|i| {
            WrapperTask::new(
                wrapper_induction::webgen::site::Site::new(Vertical::Movies, i),
                0,
                PageKind::Detail,
                TargetRole::ListTitles,
            )
        })
        .find(|task| {
            let epoch = task.site.timeline.epoch_at(Day(1100));
            !epoch.renames.is_empty() || epoch.redesign_level > 0
        })
        .expect("some site evolves within three years");
    println!("site {}: extracting {:?}\n", task.site.id, task.role);

    // 1. Induce on the first snapshot and persist the bundle.
    let (doc, targets) = task.page_with_targets(Day(0));
    let wrapper = WrapperInducer::with_k(5)
        .try_induce_best(&doc, &targets)
        .expect("induction succeeds on the first snapshot");
    println!("induced wrapper:   {}", wrapper.expression());
    let bundle = WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults())
        .with_label(task.id());

    // 2. Install it in a *persistent* registry: 4 shards of append-only
    //    version logs under a scratch directory.
    let scratch = std::env::temp_dir().join(format!("wi-example-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut registry =
        PersistentRegistry::create(&scratch, 4).expect("scratch registry is writable");
    registry
        .install(task.id(), bundle, 0)
        .expect("install commits to the shard log");
    println!(
        "registry at {} · site {} lives in shard {}\n",
        scratch.display(),
        task.id(),
        registry.shard_of(&task.id())
    );

    let archive = ArchiveSimulator::new(task.site.clone(), task.page_index, task.kind);
    let pages: Vec<PageVersion> = (0..=18)
        .map(|i| {
            let day = Day(i * 60);
            PageVersion {
                day: day.offset(),
                doc: archive.snapshot(day).doc,
            }
        })
        .collect();
    let jobs = vec![wrapper_induction::maintain::MaintenanceJob {
        site: task.id(),
        pages,
        seed_lkg: Some(LastKnownGood::capture(&doc, 0, &targets)),
        inducer: None,
    }];

    // 3. The maintenance loop: verify each epoch, classify drift on flagged
    //    ones, repair and hot-swap when possible.  Every revision — and the
    //    final verification state — is appended to the shard log.
    let log = registry
        .maintain_batch(&jobs, &Maintainer::default())
        .expect("batch commits to the shard logs")
        .remove(0);
    for outcome in &log.outcomes {
        let day = Day(outcome.day);
        match (&outcome.drift, outcome.repaired) {
            (None, _) => println!("{day}  healthy (rev {})", outcome.revision),
            (Some(class), true) => println!(
                "{day}  FLAGGED → {:?} → repaired, now rev {}",
                class, outcome.revision
            ),
            (Some(class), false) => {
                println!(
                    "{day}  FLAGGED → {:?} (no repair, state {:?})",
                    class, outcome.state
                )
            }
        }
    }
    println!();
    for version in registry.history(&task.id()) {
        println!(
            "rev {} (day {}): {}",
            version.revision, version.day, version.cause
        );
        for entry in &version.bundle.entries {
            println!("    {}", entry.query);
        }
    }

    // 4. Simulated restart: drop the live registry and recover it from the
    //    shard logs.  Nothing committed is lost.
    let revisions_before = registry.history(&task.id()).len();
    drop(registry);
    let mut registry = PersistentRegistry::recover(&scratch).expect("logs replay");
    let report = registry.recovery_report();
    println!(
        "\nrecovered {} records from {} shards ({})",
        report.records_replayed,
        report.shards,
        if report.clean() {
            "clean shutdown".to_string()
        } else {
            format!("{} torn tail(s) dropped", report.torn_tails.len())
        }
    );
    assert_eq!(
        registry.history(&task.id()).len(),
        revisions_before,
        "recovery lost committed revisions"
    );

    // 5. The recovered registry serves the repaired bundle; compaction
    //    bounds the log without touching it.
    let stats = registry
        .compact(&CompactionPolicy::default())
        .expect("compaction rewrites the shard logs");
    println!(
        "compacted: {} → {} records, {} → {} bytes",
        stats.records_before, stats.records_after, stats.bytes_before, stats.bytes_after
    );
    let current = registry.current(&task.id()).expect("installed");
    let last_day = Day(18 * 60);
    let (final_doc, final_targets) = task.page_with_targets(last_day);
    let extracted = current
        .extract(&final_doc, final_doc.root())
        .expect("extraction succeeds");
    println!(
        "final snapshot {last_day}: repaired wrapper extracts {} of {} ground-truth nodes",
        extracted
            .iter()
            .filter(|n| final_targets.contains(n))
            .count(),
        final_targets.len()
    );
    let _ = std::fs::remove_dir_all(&scratch);
}
