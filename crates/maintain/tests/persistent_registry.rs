//! The persistent-registry proof battery: crash/corruption recovery,
//! persisted-vs-in-memory equivalence (including a simulated restart mid
//! -timeline), compaction invariants and the ≥1k-site durability acceptance
//! criterion.
//!
//! The crash tests follow the DBMS-fuzzing playbook: the log tail is
//! truncated and bit-flipped at every byte offset, and recovery must never
//! panic, must surface a typed `RegistryError`, and must restore exactly
//! the longest valid record prefix.

use wi_induction::{WrapperBundle, WrapperInducer};
use wi_maintain::registry::log::decode_line;
use wi_maintain::{
    CompactionPolicy, Durability, EpochOutcome, LastKnownGood, LogRecord, Maintainer,
    MaintenanceJob, MaintenanceLog, ObjectStore, PageVersion, PersistentRegistry, Registry,
    RegistryError, WrapperState,
};
use wi_scoring::ScoringParams;
use wi_webgen::archive::ArchiveSimulator;
use wi_webgen::datasets::{multi_node_tasks, single_node_tasks};
use wi_webgen::date::Day;
use wi_webgen::tasks::WrapperTask;

/// A unique temp directory per test invocation.
fn temp_root(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "wi-registry-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn page(class: &str, values: &[&str]) -> wi_dom::Document {
    let items: String = values
        .iter()
        .map(|v| format!(r#"<span class="{class}">{v}</span>"#))
        .collect();
    wi_dom::Document::parse(&format!(
        r#"<html><body><div id="main"><h4>Prices:</h4>{items}</div>
           <div id="side"><ul><li>a</li><li>b</li><li>c</li><li>d</li></ul></div>
           </body></html>"#
    ))
    .unwrap()
}

/// A small induced bundle plus a rename-at-epoch timeline (one repair).
fn rename_job(site: &str, rename_at: usize, epochs: usize) -> (MaintenanceJob, WrapperBundle) {
    let v1 = page("p", &["1", "2", "3"]);
    let targets = v1.elements_by_class("p");
    let wrapper = WrapperInducer::default()
        .try_induce_best(&v1, &targets)
        .unwrap();
    let bundle = WrapperBundle::from_wrapper(&wrapper, ScoringParams::default()).with_label(site);
    let pages: Vec<PageVersion> = (0..epochs)
        .map(|i| {
            let class = if i >= rename_at { "price" } else { "p" };
            let values = [format!("{i}0"), format!("{i}1"), format!("{i}2")];
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            PageVersion {
                day: 20 * i as i64,
                doc: page(class, &refs),
            }
        })
        .collect();
    (
        MaintenanceJob {
            site: site.to_string(),
            pages,
            seed_lkg: None,
            inducer: None,
        },
        bundle,
    )
}

/// Builds a single-shard registry with a few maintained histories and
/// returns its root; used as the corpus for the crash tests.
fn build_small_registry(tag: &str) -> std::path::PathBuf {
    let root = temp_root(tag);
    let mut registry = PersistentRegistry::create(&root, 1).unwrap();
    let maintainer = Maintainer::default();
    let mut jobs = Vec::new();
    for i in 0..3 {
        let site = format!("crash-site-{i}");
        let (job, bundle) = rename_job(&site, 1 + i, 4);
        registry.install(&site, bundle, 0).unwrap();
        jobs.push(job);
    }
    registry
        .maintain_batch_sequential(&jobs, &maintainer)
        .unwrap();
    root
}

/// The byte offsets at which each committed line of `bytes` ends
/// (exclusive, i.e. one past its `\n`).
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect()
}

/// Decodes the committed lines of a pristine segment, resolving bundle
/// digests through the registry's object store.
fn decode_log(bytes: &[u8], objects: &ObjectStore) -> Vec<LogRecord> {
    let text = std::str::from_utf8(bytes).unwrap();
    text.lines()
        .map(|line| decode_line(line, objects).expect("pristine log line decodes"))
        .collect()
}

/// The segment files of one shard, in replay (numeric) order.
fn segment_files(root: &std::path::Path, shard: usize) -> Vec<std::path::PathBuf> {
    let dir = root.join(format!("shard-{shard:03}"));
    let mut out: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("seg-") && name.ends_with(".log"))
        })
        .collect();
    out.sort();
    out
}

/// Total log bytes across every segment of every shard.
fn total_segment_bytes(root: &std::path::Path, shards: usize) -> u64 {
    (0..shards)
        .flat_map(|shard| segment_files(root, shard))
        .filter_map(|path| std::fs::metadata(path).ok())
        .map(|m| m.len())
        .sum()
}

/// The single segment a small, unrotated one-shard corpus lives in.
fn only_segment(root: &std::path::Path) -> std::path::PathBuf {
    let segments = segment_files(root, 0);
    assert_eq!(
        segments.len(),
        1,
        "corpus unexpectedly rotated: {segments:?}"
    );
    segments.into_iter().next().unwrap()
}

/// The (site, revision) pairs committed by the first `n` records.
fn committed_revisions(records: &[LogRecord], n: usize) -> Vec<(String, u32)> {
    records[..n]
        .iter()
        .filter_map(|r| match r {
            LogRecord::Revision { site, revision, .. } => Some((site.clone(), *revision)),
            _ => None,
        })
        .collect()
}

/// All (site, revision) pairs a recovered registry holds.
fn recovered_revisions(registry: &PersistentRegistry) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for site in registry.sites() {
        for version in registry.history(site) {
            out.push((site.to_string(), version.revision));
        }
    }
    out.sort();
    out
}

#[test]
fn truncation_at_every_tail_offset_recovers_the_longest_valid_prefix() {
    let root = build_small_registry("truncate");
    let log_path = only_segment(&root);
    let original = std::fs::read(&log_path).unwrap();
    let ends = line_ends(&original);
    let records = decode_log(&original, &ObjectStore::open(&root));
    assert!(records.len() >= 9, "corpus too small: {}", records.len());

    // Every offset in the tail (the last three records) plus a sample of
    // every 13th offset across the whole file.
    let tail_start = ends[ends.len().saturating_sub(4)];
    let offsets: Vec<usize> = (0..=original.len())
        .filter(|&l| l >= tail_start || l % 13 == 0)
        .collect();

    for &cut in &offsets {
        std::fs::write(&log_path, &original[..cut]).unwrap();
        let registry = PersistentRegistry::recover(&root)
            .unwrap_or_else(|e| panic!("recover failed at cut {cut}: {e}"));
        // Exactly the records whose commit marker survived the cut.
        let expected_lines = ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(
            registry.recovery_report().records_replayed,
            expected_lines,
            "cut at {cut}"
        );
        // Zero lost committed revisions, nothing invented.
        let mut expected = committed_revisions(&records, expected_lines);
        expected.sort();
        assert_eq!(recovered_revisions(&registry), expected, "cut at {cut}");

        let at_boundary = cut == 0 || ends.contains(&cut);
        if at_boundary {
            assert!(registry.recovery_report().clean(), "cut at {cut}");
        } else {
            // The torn tail is surfaced as a typed error …
            let report = registry.recovery_report();
            assert_eq!(report.torn_tails.len(), 1, "cut at {cut}");
            let tail = &report.torn_tails[0];
            assert!(matches!(tail.error, RegistryError::Record { .. }));
            assert_eq!(tail.valid_bytes as usize + tail.dropped_bytes as usize, cut);
            // … the file is truncated back to the valid prefix …
            assert_eq!(
                std::fs::metadata(&log_path).unwrap().len(),
                tail.valid_bytes,
                "cut at {cut}"
            );
            // … strict open succeeds now: the tolerant recover already
            // truncated the tail away, leaving a clean log …
            assert!(PersistentRegistry::open(&root).is_ok(), "cut at {cut}");
            // … and a second recover of the truncated log is clean and
            // byte-stable.
            let again = PersistentRegistry::recover(&root).unwrap();
            assert!(again.recovery_report().clean(), "cut at {cut}");
            assert_eq!(recovered_revisions(&again), recovered_revisions(&registry));
        }
    }

    // Strict open on a freshly torn log must refuse with the typed error —
    // and, unlike the tolerant recover, leave the damaged log untouched so
    // the evidence survives for inspection.
    let mid_record = ends[ends.len() - 2] + 5;
    std::fs::write(&log_path, &original[..mid_record]).unwrap();
    assert!(matches!(
        PersistentRegistry::open(&root),
        Err(RegistryError::Record { .. })
    ));
    assert_eq!(
        std::fs::metadata(&log_path).unwrap().len(),
        mid_record as u64,
        "strict open must not mutate the log"
    );

    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn bit_flips_in_the_log_tail_never_panic_and_keep_the_valid_prefix() {
    let root = build_small_registry("bitflip");
    let log_path = only_segment(&root);
    let original = std::fs::read(&log_path).unwrap();
    let ends = line_ends(&original);
    let records = decode_log(&original, &ObjectStore::open(&root));

    // The line index each byte offset belongs to.
    let line_of = |offset: usize| ends.iter().filter(|&&e| e <= offset).count();

    let tail_start = ends[ends.len().saturating_sub(4)];
    let offsets: Vec<usize> = (0..original.len())
        .filter(|&i| i >= tail_start || i % 13 == 0)
        .collect();

    for &i in &offsets {
        let mut corrupted = original.clone();
        corrupted[i] ^= 1 << (i % 8);
        std::fs::write(&log_path, &corrupted).unwrap();

        let registry = PersistentRegistry::recover(&root)
            .unwrap_or_else(|e| panic!("recover failed at flip {i}: {e}"));
        let report = registry.recovery_report();
        let k = line_of(i);
        // The prefix before the flipped line is restored exactly; the
        // flipped line (and, by prefix semantics, everything after it) is
        // dropped and surfaced as a typed error.
        assert_eq!(report.records_replayed, k, "flip at byte {i}");
        let mut expected = committed_revisions(&records, k);
        expected.sort();
        assert_eq!(recovered_revisions(&registry), expected, "flip at byte {i}");
        assert_eq!(report.torn_tails.len(), 1, "flip at byte {i}");
        assert!(matches!(
            report.torn_tails[0].error,
            RegistryError::Record { .. }
        ));
    }

    // After the last recovery the log is valid again: appends still commit.
    let registry = PersistentRegistry::recover(&root).unwrap();
    let survivor = registry.sites().next().map(str::to_string);
    if let Some(site) = survivor {
        let mut registry = registry;
        let current = registry.current(&site).unwrap().clone();
        let next = current.revised(current.entries.clone(), "post-crash repair");
        registry.commit_revision(&site, next, 999).unwrap();
        let reopened = PersistentRegistry::recover(&root).unwrap();
        assert!(reopened.recovery_report().clean());
        assert_eq!(
            reopened.history(&site).last().unwrap().cause,
            "post-crash repair"
        );
    }

    std::fs::remove_dir_all(&root).unwrap();
}

/// Field-by-field identity of two outcome sequences.
fn assert_outcomes_identical(a: &[EpochOutcome], b: &[EpochOutcome], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: epochs");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.day, y.day, "{what}: day @{i}");
        assert_eq!(x.flagged, y.flagged, "{what}: flagged @{i}");
        assert_eq!(x.page_broken, y.page_broken, "{what}: page_broken @{i}");
        assert_eq!(
            format!("{:?}", x.drift),
            format!("{:?}", y.drift),
            "{what}: drift @{i}"
        );
        assert_eq!(x.repaired, y.repaired, "{what}: repaired @{i}");
        assert_eq!(x.revision, y.revision, "{what}: revision @{i}");
        assert_eq!(x.state, y.state, "{what}: state @{i}");
        assert_eq!(x.extracted, y.extracted, "{what}: extracted @{i}");
    }
}

/// Field-by-field identity of two maintenance logs, bundles compared by
/// their serialized bytes.
fn assert_logs_identical(a: &MaintenanceLog, b: &MaintenanceLog, what: &str) {
    assert_eq!(a.label, b.label, "{what}: label");
    assert_outcomes_identical(&a.outcomes, &b.outcomes, what);
    assert_eq!(a.revisions.len(), b.revisions.len(), "{what}: revisions");
    for (x, y) in a.revisions.iter().zip(&b.revisions) {
        assert_eq!(x.day, y.day, "{what}: revision day");
        assert_eq!(x.revision, y.revision, "{what}: revision number");
        assert_eq!(x.cause, y.cause, "{what}: revision cause");
        assert_eq!(
            x.bundle.to_json_string(),
            y.bundle.to_json_string(),
            "{what}: revision bundle bytes"
        );
    }
    assert_eq!(
        a.bundle.to_json_string(),
        b.bundle.to_json_string(),
        "{what}: final bundle bytes"
    );
    assert_eq!(a.lkg, b.lkg, "{what}: last-known-good");
    assert_eq!(
        a.target_gone_streak, b.target_gone_streak,
        "{what}: retirement streak"
    );
}

/// Webgen maintenance jobs: induced bundle + archive timeline per task.
fn webgen_jobs(epochs: i64, interval: i64) -> Vec<(MaintenanceJob, WrapperBundle)> {
    let mut tasks: Vec<WrapperTask> = single_node_tasks(2);
    tasks.extend(multi_node_tasks(2));
    let mut out = Vec::new();
    for task in tasks {
        let (doc0, targets0) = task.page_with_targets(Day(0));
        if targets0.is_empty() {
            continue;
        }
        let Ok(wrapper) = WrapperInducer::with_k(3).try_induce_best(&doc0, &targets0) else {
            continue;
        };
        let bundle = WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults())
            .with_label(task.id());
        let archive = ArchiveSimulator::new(task.site.clone(), task.page_index, task.kind);
        let pages: Vec<PageVersion> = (0..epochs)
            .map(|i| {
                let day = Day(i * interval);
                PageVersion {
                    day: day.offset(),
                    doc: archive.snapshot(day).doc,
                }
            })
            .collect();
        out.push((
            MaintenanceJob {
                site: task.id(),
                pages,
                seed_lkg: Some(LastKnownGood::capture_for(&bundle, &doc0, 0, &targets0)),
                inducer: None,
            },
            bundle,
        ));
    }
    assert!(out.len() >= 3, "webgen corpus degenerated: {}", out.len());
    out
}

#[test]
fn persisted_batch_is_byte_identical_to_the_in_memory_path_on_webgen() {
    let root = temp_root("equiv");
    let prepared = webgen_jobs(10, 120);
    let maintainer = Maintainer::default();

    let mut in_memory = Registry::new();
    let mut persistent = PersistentRegistry::create(&root, 4).unwrap();
    let mut jobs = Vec::new();
    for (job, bundle) in &prepared {
        in_memory.install(&job.site, bundle.clone(), 0);
        persistent.install(&job.site, bundle.clone(), 0).unwrap();
        jobs.push(job.clone());
    }

    let memory_logs = in_memory.maintain_batch_sequential(&jobs, &maintainer);
    let persisted_logs = persistent
        .maintain_batch_sequential(&jobs, &maintainer)
        .unwrap();
    for (a, b) in memory_logs.iter().zip(&persisted_logs) {
        assert_logs_identical(a, b, &a.label);
    }

    // Histories agree revision for revision, byte for byte …
    for (job, _) in &prepared {
        let mem = in_memory.history(&job.site);
        let per = persistent.history(&job.site);
        assert_eq!(mem.len(), per.len(), "{}", job.site);
        for (x, y) in mem.iter().zip(per) {
            assert_eq!(x.revision, y.revision);
            assert_eq!(x.day, y.day);
            assert_eq!(x.cause, y.cause);
            assert_eq!(x.bundle.to_json_string(), y.bundle.to_json_string());
        }
    }

    // … and so does a recovery from disk.
    drop(persistent);
    let recovered = PersistentRegistry::recover(&root).unwrap();
    assert!(recovered.recovery_report().clean());
    for (job, _) in &prepared {
        let mem = in_memory.history(&job.site);
        let rec = recovered.history(&job.site);
        assert_eq!(mem.len(), rec.len(), "{}", job.site);
        for (x, y) in mem.iter().zip(rec) {
            assert_eq!(x.bundle.to_json_string(), y.bundle.to_json_string());
        }
    }

    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn restart_mid_timeline_is_byte_identical_to_an_uninterrupted_run() {
    let root = temp_root("restart");
    let prepared = webgen_jobs(10, 120);
    let maintainer = Maintainer::default();
    let split = 5usize;

    // Reference: one uninterrupted in-memory run over the whole timeline.
    let mut reference = Registry::new();
    let mut jobs = Vec::new();
    for (job, bundle) in &prepared {
        reference.install(&job.site, bundle.clone(), 0);
        jobs.push(job.clone());
    }
    let full_logs = reference.maintain_batch_sequential(&jobs, &maintainer);

    // Persistent run: first half, process death, recovery, second half.
    let mut persistent = PersistentRegistry::create(&root, 4).unwrap();
    for (job, bundle) in &prepared {
        persistent.install(&job.site, bundle.clone(), 0).unwrap();
    }
    let first_half: Vec<MaintenanceJob> = jobs
        .iter()
        .map(|job| MaintenanceJob {
            site: job.site.clone(),
            pages: job.pages[..split].to_vec(),
            seed_lkg: job.seed_lkg.clone(),
            inducer: None,
        })
        .collect();
    persistent
        .maintain_batch_sequential(&first_half, &maintainer)
        .unwrap();
    drop(persistent); // the simulated restart

    let mut resumed = PersistentRegistry::recover(&root).unwrap();
    assert!(resumed.recovery_report().clean());
    // The second half resumes from persisted state.  The jobs still carry
    // the *original* induction-day seed LKG — exactly what a replaying
    // service would re-submit — and the persisted (advanced) LKG must take
    // precedence over it, or rotation evidence and anchor censuses would
    // silently reset across the restart.
    let second_half: Vec<MaintenanceJob> = jobs
        .iter()
        .map(|job| MaintenanceJob {
            site: job.site.clone(),
            pages: job.pages[split..].to_vec(),
            seed_lkg: job.seed_lkg.clone(),
            inducer: None,
        })
        .collect();
    let second_logs = resumed
        .maintain_batch_sequential(&second_half, &maintainer)
        .unwrap();

    for (full, second) in full_logs.iter().zip(&second_logs) {
        // The post-restart outcomes must replay the uninterrupted run's
        // second half exactly.
        assert_eq!(second.outcomes.len(), full.outcomes.len() - split);
        for (i, (y, x)) in second
            .outcomes
            .iter()
            .zip(&full.outcomes[split..])
            .enumerate()
        {
            assert_eq!(y.day, x.day, "{}: day @{i}", full.label);
            assert_eq!(y.flagged, x.flagged, "{}: flagged @{i}", full.label);
            assert_eq!(
                format!("{:?}", y.drift),
                format!("{:?}", x.drift),
                "{}: drift @{i}",
                full.label
            );
            assert_eq!(y.repaired, x.repaired, "{}: repaired @{i}", full.label);
            assert_eq!(y.revision, x.revision, "{}: revision @{i}", full.label);
            assert_eq!(y.state, x.state, "{}: state @{i}", full.label);
            assert_eq!(y.extracted, x.extracted, "{}: extracted @{i}", full.label);
        }
        assert_eq!(
            second.bundle.to_json_string(),
            full.bundle.to_json_string(),
            "{}: final bundle bytes",
            full.label
        );
        assert_eq!(second.lkg, full.lkg, "{}: final lkg", full.label);
        assert_eq!(second.target_gone_streak, full.target_gone_streak);
    }

    // The concatenated registry history equals the uninterrupted one.
    for (job, _) in &prepared {
        let mem = reference.history(&job.site);
        let per = resumed.history(&job.site);
        assert_eq!(mem.len(), per.len(), "{}", job.site);
        for (x, y) in mem.iter().zip(per) {
            assert_eq!(x.revision, y.revision);
            assert_eq!(x.bundle.to_json_string(), y.bundle.to_json_string());
        }
    }

    std::fs::remove_dir_all(&root).unwrap();
}

/// The same jobs restricted to the snapshots in `range`, each still carrying
/// its induction-day seed LKG (what a replaying service re-submits).
fn slice_jobs(
    prepared: &[(MaintenanceJob, WrapperBundle)],
    range: std::ops::Range<usize>,
) -> Vec<MaintenanceJob> {
    prepared
        .iter()
        .map(|(job, _)| MaintenanceJob {
            site: job.site.clone(),
            pages: job.pages[range.clone()].to_vec(),
            seed_lkg: job.seed_lkg.clone(),
            inducer: None,
        })
        .collect()
}

/// Both registries share one commit path: a timeline cut into two batches
/// at every cut resumes identically in memory and on disk, replays the
/// uninterrupted run's second half, and a re-submitted batch is skipped.
#[test]
fn in_memory_registry_resumes_across_batches_like_the_persistent_one() {
    let prepared = webgen_jobs(10, 120);
    let maintainer = Maintainer::default();
    let epochs = 10;

    let mut uninterrupted = Registry::new();
    for (job, bundle) in &prepared {
        uninterrupted.install(&job.site, bundle.clone(), 0);
    }
    let full_logs =
        uninterrupted.maintain_batch_sequential(&slice_jobs(&prepared, 0..epochs), &maintainer);

    for cut in 1..epochs {
        let root = temp_root("split");
        let mut in_memory = Registry::new();
        let mut persistent = PersistentRegistry::create(&root, 4).unwrap();
        for (job, bundle) in &prepared {
            in_memory.install(&job.site, bundle.clone(), 0);
            persistent.install(&job.site, bundle.clone(), 0).unwrap();
        }
        let first = slice_jobs(&prepared, 0..cut);
        let second = slice_jobs(&prepared, cut..epochs);
        in_memory.maintain_batch_sequential(&first, &maintainer);
        persistent
            .maintain_batch_sequential(&first, &maintainer)
            .unwrap();
        let memory_logs = in_memory.maintain_batch_sequential(&second, &maintainer);
        let persisted_logs = persistent
            .maintain_batch_sequential(&second, &maintainer)
            .unwrap();

        for ((memory, persisted), full) in memory_logs.iter().zip(&persisted_logs).zip(&full_logs) {
            let what = format!("{} cut at {cut}", full.label);
            assert_logs_identical(memory, persisted, &what);
            assert_outcomes_identical(&memory.outcomes, &full.outcomes[cut..], &what);
        }
        for (job, _) in &prepared {
            let memory = in_memory.history(&job.site);
            for other in [
                persistent.history(&job.site),
                uninterrupted.history(&job.site),
            ] {
                assert_eq!(memory.len(), other.len(), "{} cut at {cut}", job.site);
                for (x, y) in memory.iter().zip(other) {
                    assert_eq!(x.revision, y.revision);
                    assert_eq!(x.day, y.day);
                    assert_eq!(x.cause, y.cause);
                    assert_eq!(x.bundle.to_json_string(), y.bundle.to_json_string());
                }
            }
        }

        // Re-submitting the second batch finds every day already maintained.
        let again = in_memory.maintain_batch_sequential(&second, &maintainer);
        for log in &again {
            assert!(
                log.outcomes.is_empty(),
                "{} cut at {cut}: re-submitted days ran again",
                log.label
            );
        }

        drop(persistent);
        std::fs::remove_dir_all(&root).unwrap();
    }
}

#[test]
fn resubmitting_a_maintained_batch_is_idempotent() {
    // A service that crashes mid-batch replays the *whole* batch on
    // restart.  Already-maintained days must be skipped, not double-applied:
    // no duplicate revisions, no double-advanced LKG, byte-identical state.
    let root = temp_root("idempotent");
    let prepared = webgen_jobs(8, 120);
    let maintainer = Maintainer::default();

    let mut registry = PersistentRegistry::create(&root, 2).unwrap();
    let mut jobs = Vec::new();
    for (job, bundle) in &prepared {
        registry.install(&job.site, bundle.clone(), 0).unwrap();
        jobs.push(job.clone());
    }
    registry
        .maintain_batch_sequential(&jobs, &maintainer)
        .unwrap();

    let snapshot: Vec<(String, usize, String, Option<LastKnownGood>)> = registry
        .sites()
        .map(|s| {
            (
                s.to_string(),
                registry.history(s).len(),
                registry.current(s).unwrap().to_json_string(),
                registry.lkg(s).cloned(),
            )
        })
        .collect();
    let log_bytes = total_segment_bytes(&root, registry.shard_count());

    // Replay the identical batch — simulated crash-and-retry.  Every page
    // is at or before each site's persisted last-maintained day, so every
    // job fast-forwards to an empty log and nothing is appended.
    let replayed = registry
        .maintain_batch_sequential(&jobs, &maintainer)
        .unwrap();
    for log in &replayed {
        assert!(
            log.outcomes.is_empty(),
            "{}: already-maintained days were re-run",
            log.label
        );
    }
    for (site, history_len, bundle_json, lkg) in &snapshot {
        assert_eq!(registry.history(site).len(), *history_len, "{site}");
        assert_eq!(
            registry.current(site).unwrap().to_json_string(),
            *bundle_json
        );
        assert_eq!(
            registry.lkg(site),
            lkg.as_ref(),
            "{site}: LKG double-advanced"
        );
    }
    let log_bytes_after = total_segment_bytes(&root, registry.shard_count());
    assert_eq!(log_bytes_after, log_bytes, "replay appended to the logs");

    // A partially-new batch (old pages + genuinely new days) applies only
    // the new tail.
    let extended: Vec<MaintenanceJob> = prepared
        .iter()
        .map(|(job, _)| {
            let mut pages = job.pages.clone();
            let last = pages.last().unwrap();
            pages.push(PageVersion {
                day: last.day + 120,
                doc: last.doc.clone(),
            });
            MaintenanceJob {
                site: job.site.clone(),
                pages,
                seed_lkg: None,
                inducer: None,
            }
        })
        .collect();
    let tail_logs = registry
        .maintain_batch_sequential(&extended, &maintainer)
        .unwrap();
    for log in &tail_logs {
        assert_eq!(
            log.outcomes.len(),
            1,
            "{}: exactly the one new day runs",
            log.label
        );
    }

    std::fs::remove_dir_all(&root).unwrap();
}

/// A revision committed outside the loop starts the new wrapper's
/// lifecycle afresh: a retired site returns to `Monitoring` with a zero
/// streak (live and after recovery), and its next batch repairs again.
#[test]
fn committed_revision_resets_a_retired_site_to_monitoring() {
    let root = temp_root("commit-reset");
    let mut registry = PersistentRegistry::create(&root, 1).unwrap();
    let maintainer = Maintainer::default();
    let site = "reset-site";
    // Only the bundle induced on the `p` page is needed here.
    let (_, bundle) = rename_job(site, usize::MAX, 0);
    registry.install(site, bundle, 0).unwrap();

    // One healthy snapshot, then the targets vanish for good: retired.
    let day_page = |day: i64, doc| PageVersion { day, doc };
    let gone: Vec<PageVersion> = std::iter::once(day_page(0, page("p", &["1", "2", "3"])))
        .chain((1..4).map(|i| day_page(20 * i, page("p", &[]))))
        .collect();
    let job = |pages: Vec<PageVersion>| MaintenanceJob {
        site: site.to_string(),
        pages,
        seed_lkg: None,
        inducer: None,
    };
    let logs = registry
        .maintain_batch_sequential(&[job(gone)], &maintainer)
        .unwrap();
    assert_eq!(
        logs[0].outcomes.last().unwrap().state,
        WrapperState::Retired
    );
    assert_eq!(registry.state(site), Some(WrapperState::Retired));

    // Commit revision n+1 outside the loop.
    let mut next = registry.current(site).unwrap().clone();
    next.revision += 1;
    registry.commit_revision(site, next, 70).unwrap();
    assert_eq!(registry.state(site), Some(WrapperState::Monitoring));
    drop(registry);
    let mut registry = PersistentRegistry::recover(&root).unwrap();
    assert_eq!(
        registry.state(site),
        Some(WrapperState::Monitoring),
        "the reset survives recovery"
    );

    // The next batch repairs the new wrapper when its class is renamed.
    let renamed = vec![
        day_page(80, page("p", &["4", "5", "6"])),
        day_page(100, page("price", &["7", "8", "9"])),
    ];
    let logs = registry
        .maintain_batch_sequential(&[job(renamed)], &maintainer)
        .unwrap();
    assert_eq!(logs[0].outcomes.len(), 2, "no day skipped");
    assert!(
        logs[0].repairs() > 0,
        "a reset site repairs again: {:?}",
        logs[0]
            .outcomes
            .iter()
            .map(|o| (o.day, o.state, o.flagged, o.repaired))
            .collect::<Vec<_>>()
    );
    assert_eq!(registry.state(site), Some(WrapperState::Monitoring));

    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn compaction_preserves_live_state_and_bounds_shard_logs() {
    let root = temp_root("compact");
    let mut registry = PersistentRegistry::create(&root, 2).unwrap();
    let maintainer = Maintainer::default();

    // Six sites that break and get repaired on every batch (class renames
    // back and forth), so revisions and lifecycle records accumulate.
    let mut sites = Vec::new();
    for i in 0..6 {
        let site = format!("compact-site-{i}");
        let (job, bundle) = rename_job(&site, 1, 2);
        registry.install(&site, bundle, 0).unwrap();
        sites.push((site, job));
    }
    // One retiring site: its target block disappears for good.
    let gone_site = "compact-gone";
    {
        let v1 = wi_dom::Document::parse(
            r#"<body><div class="blk"><h4>Director:</h4><span class="v">S</span></div>
               <ul><li>1</li><li>2</li><li>3</li><li>4</li><li>5</li><li>6</li></ul></body>"#,
        )
        .unwrap();
        let targets = v1.elements_by_class("v");
        let wrapper = WrapperInducer::default()
            .try_induce_best(&v1, &targets)
            .unwrap();
        let bundle =
            WrapperBundle::from_wrapper(&wrapper, ScoringParams::default()).with_label(gone_site);
        registry.install(gone_site, bundle, 0).unwrap();
        let gone = wi_dom::Document::parse(
            r#"<body><ul><li>1</li><li>2</li><li>3</li><li>4</li><li>5</li><li>6</li></ul></body>"#,
        )
        .unwrap();
        let pages: Vec<PageVersion> = std::iter::once(v1)
            .chain(std::iter::repeat_n(gone, 3))
            .enumerate()
            .map(|(i, doc)| PageVersion {
                day: 20 * i as i64,
                doc,
            })
            .collect();
        let logs = registry
            .maintain_batch_sequential(
                &[MaintenanceJob {
                    site: gone_site.to_string(),
                    pages,
                    seed_lkg: None,
                    inducer: None,
                }],
                &maintainer,
            )
            .unwrap();
        assert_eq!(
            logs[0].outcomes.last().unwrap().state,
            WrapperState::Retired
        );
    }

    // Four maintenance rounds: each alternates the class name, breaking the
    // previous round's repaired wrapper again.
    for round in 0..4u32 {
        let jobs: Vec<MaintenanceJob> = sites
            .iter()
            .map(|(site, job)| {
                let mut pages = job.pages.clone();
                if round % 2 == 1 {
                    // Swap the rename direction so the repaired wrapper
                    // breaks again: price → p instead of p → price.
                    for (i, page_version) in pages.iter_mut().enumerate() {
                        let class = if i >= 1 { "p" } else { "price" };
                        let values = [format!("{i}0"), format!("{i}1"), format!("{i}2")];
                        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
                        *page_version = PageVersion {
                            day: page_version.day + 100 * i64::from(round),
                            doc: page(class, &refs),
                        };
                    }
                } else if round > 0 {
                    for (i, page_version) in pages.iter_mut().enumerate() {
                        let class = if i >= 1 { "price" } else { "p" };
                        let values = [format!("{i}0"), format!("{i}1"), format!("{i}2")];
                        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
                        *page_version = PageVersion {
                            day: page_version.day + 100 * i64::from(round),
                            doc: page(class, &refs),
                        };
                    }
                }
                MaintenanceJob {
                    site: site.clone(),
                    pages,
                    seed_lkg: None,
                    inducer: None,
                }
            })
            .collect();
        registry
            .maintain_batch_sequential(&jobs, &maintainer)
            .unwrap();
    }
    assert!(
        registry.history("compact-site-0").len() >= 3,
        "the rounds produced only {} revisions",
        registry.history("compact-site-0").len()
    );

    // Snapshot every observable before compacting.
    let before: Vec<(String, String, u32, Option<LastKnownGood>, WrapperState)> = registry
        .sites()
        .map(|site| {
            (
                site.to_string(),
                registry.current(site).unwrap().to_json_string(),
                registry.current(site).unwrap().revision,
                registry.lkg(site).cloned(),
                registry.state(site).unwrap(),
            )
        })
        .collect();
    let max_line_before: usize = (0..registry.shard_count())
        .flat_map(|s| segment_files(&root, s))
        .filter_map(|path| std::fs::read_to_string(path).ok())
        .flat_map(|text| text.lines().map(str::len).collect::<Vec<_>>())
        .max()
        .unwrap();

    let policy = CompactionPolicy {
        retain_revisions: 1,
        min_live_ratio: 1.0,
    };
    let stats = registry.compact(&policy).unwrap();

    // The log shrank, with explicit record and byte ceilings.
    assert!(
        stats.records_after < stats.records_before,
        "compaction did not shrink records: {stats:?}"
    );
    assert!(
        stats.bytes_after < stats.bytes_before,
        "compaction did not shrink bytes: {stats:?}"
    );
    let record_ceiling = registry.site_count() * policy.max_records_per_site();
    assert!(
        stats.records_after <= record_ceiling,
        "{} records exceed the ceiling {record_ceiling}",
        stats.records_after
    );
    let byte_ceiling = (record_ceiling * (max_line_before + 1)) as u64;
    assert!(
        stats.bytes_after <= byte_ceiling,
        "{} bytes exceed the ceiling {byte_ceiling}",
        stats.bytes_after
    );

    // Every observable is unchanged — live and after a fresh recovery.
    for reopened in [&registry, &PersistentRegistry::recover(&root).unwrap()] {
        for (site, bundle_json, revision, lkg, state) in &before {
            assert_eq!(
                reopened.current(site).unwrap().to_json_string(),
                *bundle_json,
                "{site}: current bundle changed"
            );
            assert_eq!(reopened.current(site).unwrap().revision, *revision);
            assert_eq!(reopened.lkg(site), lkg.as_ref(), "{site}: lkg changed");
            assert_eq!(reopened.state(site), Some(*state), "{site}: state changed");
            assert!(
                reopened.history(site).len() <= policy.retain_revisions + 1,
                "{site}: retained more history than the policy allows"
            );
        }
    }
    assert_eq!(registry.state(gone_site), Some(WrapperState::Retired));
    assert_eq!(
        PersistentRegistry::recover(&root).unwrap().state(gone_site),
        Some(WrapperState::Retired),
        "retired sites must stay retired through compaction"
    );

    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_thousand_site_histories_survive_drop_and_recover_with_zero_lost_revisions() {
    let root = temp_root("thousand");
    const SITES: usize = 1024;
    const SEGMENT_BYTES: u64 = 16 * 1024;
    let mut registry = PersistentRegistry::create(&root, 8)
        .unwrap()
        .with_segment_bytes(SEGMENT_BYTES);

    // One induced template bundle, cloned across synthetic site histories.
    let v1 = page("p", &["1", "2", "3"]);
    let targets = v1.elements_by_class("p");
    let wrapper = WrapperInducer::default()
        .try_induce_best(&v1, &targets)
        .unwrap();
    let template = WrapperBundle::from_wrapper(&wrapper, ScoringParams::default());

    let mut committed = 0usize;
    for i in 0..SITES {
        let site = format!("fleet-{i:04}");
        let bundle = template.clone().with_label(&site);
        registry.install(&site, bundle.clone(), 0).unwrap();
        committed += 1;
        // Every third site accumulates repairs.
        let revisions = match i % 3 {
            0 => 2,
            1 => 1,
            _ => 0,
        };
        let mut current = bundle;
        for r in 0..revisions {
            current = current.revised(
                current.entries.clone(),
                format!("synthetic repair {r} for {site}"),
            );
            registry
                .commit_revision(&site, current.clone(), 20 * (r as i64 + 1))
                .unwrap();
            committed += 1;
        }
    }
    assert!(committed > 2000, "only {committed} revisions committed");
    let segments_total: usize = (0..8).map(|s| segment_files(&root, s).len()).sum();
    assert!(
        segments_total > 8,
        "the fleet never rotated a segment: {segments_total}"
    );
    let live: Vec<(String, u32)> = recovered_revisions(&registry);

    // Process death.
    drop(registry);

    let recovered = PersistentRegistry::recover(&root).unwrap();
    assert!(recovered.recovery_report().clean());
    assert_eq!(recovered.site_count(), SITES);
    assert_eq!(
        recovered_revisions(&recovered),
        live,
        "revisions lost or invented across drop + recover"
    );
    // Histories are spread across all shards.
    let used: std::collections::HashSet<usize> =
        recovered.sites().map(|s| recovered.shard_of(s)).collect();
    assert_eq!(used.len(), 8, "sharding collapsed: {used:?}");

    // Compaction still shrinks the fleet-scale registry without losing the
    // current state.
    let mut recovered = recovered;
    let stats = recovered
        .compact(&CompactionPolicy {
            retain_revisions: 0,
            min_live_ratio: 1.0,
        })
        .unwrap();
    assert!(stats.bytes_after < stats.bytes_before);
    // Write-amplification ceiling: compaction rewrites at most one
    // segment's worth of bytes per dirty segment — the threshold plus one
    // append batch of slack, since a batch is never split across segments.
    assert!(stats.segments_rewritten > 0, "nothing was dirty: {stats:?}");
    let per_segment_ceiling = SEGMENT_BYTES + 4096;
    assert!(
        stats.bytes_rewritten <= stats.segments_rewritten as u64 * per_segment_ceiling,
        "rewrote {} bytes over {} segments (ceiling {per_segment_ceiling}/segment)",
        stats.bytes_rewritten,
        stats.segments_rewritten
    );
    let after = PersistentRegistry::recover(&root).unwrap();
    assert_eq!(after.site_count(), SITES);
    for i in (0..SITES).step_by(97) {
        let site = format!("fleet-{i:04}");
        let expected_revision = match i % 3 {
            0 => 2,
            1 => 1,
            _ => 0,
        };
        assert_eq!(after.current(&site).unwrap().revision, expected_revision);
        assert_eq!(after.history(&site).len(), 1);
    }

    std::fs::remove_dir_all(&root).unwrap();
}

/// `Durability::Batch` drops the per-append fsync but not the commit
/// discipline: after an OS-crash-style tail truncation, recovery still
/// restores exactly the longest valid record prefix.
#[test]
fn batch_durability_still_recovers_a_clean_prefix_after_truncation() {
    let root = temp_root("batch-durability");
    let mut registry = PersistentRegistry::create(&root, 1)
        .unwrap()
        .with_durability(Durability::Batch);
    assert_eq!(registry.durability(), Durability::Batch);
    for i in 0..4 {
        let site = format!("bulk-{i}");
        let (_, bundle) = rename_job(&site, 1, 1);
        registry.install(&site, bundle, 0).unwrap();
    }
    // The batch boundary: force everything buffered so far to disk.
    registry.sync().unwrap();
    drop(registry);

    let log_path = only_segment(&root);
    let pristine = std::fs::read(&log_path).unwrap();
    let ends = line_ends(&pristine);
    assert_eq!(ends.len(), 4, "one committed line per install");

    // Chop into the last record, as a power cut after un-synced relaxed
    // appends would.
    std::fs::write(&log_path, &pristine[..ends[3] - 7]).unwrap();
    let recovered = PersistentRegistry::recover(&root).unwrap();
    assert_eq!(
        recovered.recovery_report().torn_tails.len(),
        1,
        "the torn tail is reported"
    );
    assert_eq!(recovered.site_count(), 3, "the clean prefix survives");
    for i in 0..3 {
        assert!(recovered.current(&format!("bulk-{i}")).is_some());
    }
    assert!(recovered.current("bulk-3").is_none());
    drop(recovered);
    std::fs::remove_dir_all(&root).unwrap();
}

/// A shard lock held by a *live* foreign process refuses the open — two
/// daemons must not append to the same shard — while a stale lock left by
/// a dead process is reclaimed silently.
#[test]
fn shard_locks_refuse_live_holders_and_reclaim_dead_ones() {
    let root = build_small_registry("locking");
    let lock_path = root.join("shard-000").join("lock");

    // Simulate a live foreign holder: pid 1 always exists.
    if std::path::Path::new("/proc/1").exists() {
        std::fs::write(&lock_path, "1\n").unwrap();
        match PersistentRegistry::recover(&root) {
            Err(RegistryError::Locked { pid, .. }) => assert_eq!(pid, 1),
            other => panic!("expected Locked, got {other:?}"),
        }
    }

    // A dead holder's lock is stale: reclaimed without ceremony.
    std::fs::write(&lock_path, "4294000000\n").unwrap();
    let registry = PersistentRegistry::recover(&root).unwrap();
    assert_eq!(registry.site_count(), 3);
    let holder: u32 = std::fs::read_to_string(&lock_path)
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert_eq!(
        holder,
        std::process::id(),
        "the lock now names this process"
    );
    drop(registry);
    assert!(
        !lock_path.exists(),
        "dropping the owning registry releases the lock"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// A single-shard registry with a tiny rotation threshold and enough
/// committed revisions (one install + 24 repairs) to span several
/// segments; the corpus for the rotation and snapshot batteries.
fn build_rotated_registry(tag: &str) -> std::path::PathBuf {
    let root = temp_root(tag);
    let mut registry = PersistentRegistry::create(&root, 1)
        .unwrap()
        .with_segment_bytes(512);
    let v1 = page("p", &["1", "2", "3"]);
    let targets = v1.elements_by_class("p");
    let wrapper = WrapperInducer::default()
        .try_induce_best(&v1, &targets)
        .unwrap();
    let bundle = WrapperBundle::from_wrapper(&wrapper, ScoringParams::default()).with_label("rot");
    registry.install("rot", bundle.clone(), 0).unwrap();
    let mut current = bundle;
    for r in 0..24u32 {
        current = current.revised(current.entries.clone(), format!("rotation filler {r:02}"));
        registry
            .commit_revision("rot", current.clone(), i64::from(r) + 1)
            .unwrap();
    }
    root
}

#[test]
fn appends_roll_segments_at_the_threshold_and_a_crashed_rotation_recovers() {
    let root = build_rotated_registry("rotate");
    let segments = segment_files(&root, 0);
    assert!(segments.len() >= 3, "no rotation happened: {segments:?}");
    for sealed in &segments[..segments.len() - 1] {
        let len = std::fs::metadata(sealed).unwrap().len();
        assert!(len > 0, "sealed segments are never empty: {sealed:?}");
        assert!(
            len <= 512,
            "a sealed segment exceeds the threshold: {sealed:?} has {len} bytes"
        );
    }

    let live = {
        let registry = PersistentRegistry::recover(&root).unwrap();
        assert!(registry.recovery_report().clean());
        recovered_revisions(&registry)
    };
    assert_eq!(live.len(), 25, "one install plus 24 commits");

    // Kill-between-rotation-steps: the only intermediate state a crashed
    // rotation can leave behind is a freshly created, still-empty segment
    // nothing was appended to.  Recovery must adopt it as the active
    // segment and keep every committed record.
    let next_id = segments.len() as u64;
    let orphan = root.join("shard-000").join(format!("seg-{next_id:06}.log"));
    std::fs::write(&orphan, "").unwrap();
    let mut registry = PersistentRegistry::recover(&root).unwrap();
    assert!(registry.recovery_report().clean());
    assert_eq!(recovered_revisions(&registry), live);

    // The next append lands in the adopted segment.
    let current = registry.current("rot").unwrap().clone();
    let next = current.revised(current.entries.clone(), "post-rotation-crash");
    registry.commit_revision("rot", next, 999).unwrap();
    drop(registry);
    assert!(
        std::fs::metadata(&orphan).unwrap().len() > 0,
        "the append must land in the segment the crashed rotation left"
    );
    assert_eq!(
        PersistentRegistry::recover(&root)
            .unwrap()
            .current("rot")
            .unwrap()
            .revision,
        25
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn active_segment_truncation_and_bit_flips_keep_the_sealed_history() {
    let root = build_rotated_registry("seg-corrupt");
    let objects = ObjectStore::open(&root);
    let segments = segment_files(&root, 0);
    assert!(segments.len() >= 3, "no rotation happened: {segments:?}");
    let active = segments.last().unwrap().clone();
    let earlier: Vec<LogRecord> = segments[..segments.len() - 1]
        .iter()
        .flat_map(|path| decode_log(&std::fs::read(path).unwrap(), &objects))
        .collect();
    let original = std::fs::read(&active).unwrap();
    let ends = line_ends(&original);
    let all: Vec<LogRecord> = earlier
        .iter()
        .cloned()
        .chain(decode_log(&original, &objects))
        .collect();

    // Truncation at every byte offset of the active segment: the sealed
    // segments' records always survive, plus exactly the active-segment
    // prefix whose commit markers survived the cut.
    for cut in 0..=original.len() {
        std::fs::write(&active, &original[..cut]).unwrap();
        let registry = PersistentRegistry::recover(&root)
            .unwrap_or_else(|e| panic!("recover failed at cut {cut}: {e}"));
        let surviving = ends.iter().filter(|&&e| e <= cut).count();
        let mut expected = committed_revisions(&all, earlier.len() + surviving);
        expected.sort();
        assert_eq!(recovered_revisions(&registry), expected, "cut at {cut}");
    }

    // A bit flip at every byte offset of the active segment: never a
    // panic, always the longest valid prefix.
    for i in 0..original.len() {
        let mut corrupted = original.clone();
        corrupted[i] ^= 1 << (i % 8);
        std::fs::write(&active, &corrupted).unwrap();
        let registry = PersistentRegistry::recover(&root)
            .unwrap_or_else(|e| panic!("recover failed at flip {i}: {e}"));
        let clean_lines = ends.iter().filter(|&&e| e <= i).count();
        let mut expected = committed_revisions(&all, earlier.len() + clean_lines);
        expected.sort();
        assert_eq!(recovered_revisions(&registry), expected, "flip at byte {i}");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn snapshot_survives_source_corruption_and_restores_byte_identically() {
    let root = build_rotated_registry("snapshot");
    let mut registry = PersistentRegistry::recover(&root).unwrap();
    let live = recovered_revisions(&registry);
    let bundle_json = registry.current("rot").unwrap().to_json_string();

    let stats = registry.snapshot("nightly").unwrap();
    assert!(stats.files >= 4, "{stats:?}");
    assert!(
        registry.snapshot("nightly").is_err(),
        "snapshot names are write-once"
    );

    // Appends after the snapshot must not bleed into it through shared
    // inodes: the seal rotated them onto a fresh segment.
    let current = registry.current("rot").unwrap().clone();
    let next = current.revised(current.entries.clone(), "post-snapshot");
    registry.commit_revision("rot", next, 1000).unwrap();
    drop(registry);

    // Corrupt the source: delete a sealed segment and every object.
    // Deletion unlinks the source names without touching the snapshot's
    // linked inodes.
    let snap = root.join("snapshots").join("nightly");
    let segments = segment_files(&root, 0);
    std::fs::remove_file(&segments[0]).unwrap();
    for object in std::fs::read_dir(root.join("objects")).unwrap() {
        std::fs::remove_file(object.unwrap().path()).unwrap();
    }

    let restore_root = temp_root("snapshot-restored");
    let restored = PersistentRegistry::restore(&snap, &restore_root).unwrap();
    assert!(restored.recovery_report().clean());
    assert_eq!(recovered_revisions(&restored), live);
    assert_eq!(
        restored.current("rot").unwrap().to_json_string(),
        bundle_json
    );

    // Byte identity: every file of the snapshot (the manifest itself
    // aside) is reproduced bit-for-bit at the restore destination.
    fn files_under(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                files_under(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut snapshot_files = Vec::new();
    files_under(&snap, &mut snapshot_files);
    assert!(snapshot_files.len() >= 4);
    for file in &snapshot_files {
        let rel = file.strip_prefix(&snap).unwrap();
        if rel == std::path::Path::new("snapshot.json") {
            continue;
        }
        assert_eq!(
            std::fs::read(file).unwrap(),
            std::fs::read(restore_root.join(rel)).unwrap(),
            "{rel:?} differs between snapshot and restore"
        );
    }
    drop(restored);

    // A destination that already holds a registry is refused.
    assert!(
        PersistentRegistry::restore(&snap, &restore_root).is_err(),
        "restore must refuse a populated destination"
    );

    // A tampered snapshot file fails checksum verification.
    let snap_segments = segment_files(&snap, 0);
    let mut bytes = std::fs::read(&snap_segments[0]).unwrap();
    bytes[0] ^= 0x01;
    std::fs::write(&snap_segments[0], &bytes).unwrap();
    let tampered_root = temp_root("snapshot-tampered");
    match PersistentRegistry::restore(&snap, &tampered_root) {
        Err(RegistryError::Manifest { message, .. }) => {
            assert!(message.contains("fails verification"), "{message}");
        }
        other => panic!("tampered snapshot must fail verification, got {other:?}"),
    }

    std::fs::remove_dir_all(&root).unwrap();
    std::fs::remove_dir_all(&restore_root).unwrap();
    let _ = std::fs::remove_dir_all(&tampered_root);
}

#[test]
fn replication_ships_only_missing_files_and_prunes_stale_ones() {
    let root = build_rotated_registry("replicate");
    let mut registry = PersistentRegistry::recover(&root).unwrap();
    let dest = temp_root("replica");

    let first = registry.replicate_to(&dest).unwrap();
    assert!(first.files_copied > 0);
    assert_eq!(first.files_deleted, 0);
    {
        let replica = PersistentRegistry::recover(&dest).unwrap();
        assert!(replica.recovery_report().clean());
        assert_eq!(
            recovered_revisions(&replica),
            recovered_revisions(&registry)
        );
    }

    // A second replication is incremental: every object and every segment
    // is skipped by content, only the manifests are rewritten.
    let objects = registry.objects().list().unwrap().len();
    let segments = segment_files(&root, 0).len();
    let second = registry.replicate_to(&dest).unwrap();
    assert_eq!(second.files_skipped, objects + segments, "{second:?}");
    assert_eq!(
        second.files_copied, 2,
        "only the shard and root manifests are rewritten: {second:?}"
    );
    assert_eq!(second.files_deleted, 0);

    // Compacting the source orphans most objects and segments; the next
    // replication prunes them at the destination.
    let stats = registry
        .compact(&CompactionPolicy {
            retain_revisions: 0,
            min_live_ratio: 1.0,
        })
        .unwrap();
    assert!(stats.objects_removed > 0, "{stats:?}");
    let third = registry.replicate_to(&dest).unwrap();
    assert!(
        third.files_deleted > 0,
        "stale replica files must go: {third:?}"
    );
    {
        let replica = PersistentRegistry::recover(&dest).unwrap();
        assert_eq!(
            recovered_revisions(&replica),
            recovered_revisions(&registry)
        );
        assert_eq!(replica.current("rot").unwrap().revision, 24);
    }

    std::fs::remove_dir_all(&root).unwrap();
    std::fs::remove_dir_all(&dest).unwrap();
}

#[test]
fn compaction_garbage_collects_only_unreferenced_objects() {
    let root = temp_root("refcount");
    let mut registry = PersistentRegistry::create(&root, 1).unwrap();
    let v1 = page("p", &["1", "2", "3"]);
    let targets = v1.elements_by_class("p");
    let wrapper = WrapperInducer::default()
        .try_induce_best(&v1, &targets)
        .unwrap();
    let shared = WrapperBundle::from_wrapper(&wrapper, ScoringParams::default());

    // The same bundle installed for two sites: content addressing stores
    // it once.
    registry.install("site-a", shared.clone(), 0).unwrap();
    registry.install("site-b", shared.clone(), 0).unwrap();
    let objects = ObjectStore::open(&root);
    assert_eq!(
        objects.list().unwrap().len(),
        1,
        "identical bundles must share one object"
    );

    // site-a moves on through two repairs: under retain 0 the intermediate
    // revision becomes garbage, but the shared original must survive —
    // site-b still references it.
    let r1 = shared.revised(shared.entries.clone(), "first repair");
    registry.commit_revision("site-a", r1.clone(), 10).unwrap();
    let r2 = r1.revised(r1.entries.clone(), "second repair");
    registry.commit_revision("site-a", r2.clone(), 20).unwrap();
    assert_eq!(objects.list().unwrap().len(), 3);

    let stats = registry
        .compact(&CompactionPolicy {
            retain_revisions: 0,
            min_live_ratio: 1.0,
        })
        .unwrap();
    assert_eq!(
        stats.objects_removed, 1,
        "exactly the orphaned intermediate revision goes: {stats:?}"
    );
    assert_eq!(objects.list().unwrap().len(), 2);

    let reopened = PersistentRegistry::recover(&root).unwrap();
    assert!(reopened.recovery_report().clean());
    assert_eq!(
        reopened.current("site-a").unwrap().to_json_string(),
        r2.to_json_string()
    );
    assert_eq!(
        reopened.current("site-b").unwrap().to_json_string(),
        shared.to_json_string(),
        "the shared object must never be collected while referenced"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn live_ratio_floor_skips_mostly_live_segments() {
    let root = build_rotated_registry("live-ratio");
    let mut registry = PersistentRegistry::recover(&root).unwrap();

    // retain 4 of 25 revisions: early segments are fully dead (rewritten or
    // removed), the newest ones fully live (skipped under a 0.5 floor).
    let stats = registry
        .compact(&CompactionPolicy {
            retain_revisions: 4,
            min_live_ratio: 0.5,
        })
        .unwrap();
    assert!(
        stats.segments_rewritten < stats.segments_scanned,
        "mostly-live segments must be skipped: {stats:?}"
    );
    assert!(stats.segments_rewritten > 0, "{stats:?}");
    assert!(stats.bytes_rewritten < stats.bytes_before, "{stats:?}");

    // Skipped segments may retain dead records — replay must still land on
    // the same live state, and every digest those records name must still
    // resolve (the GC keeps skipped segments' objects reachable).
    let reopened = PersistentRegistry::recover(&root).unwrap();
    assert!(reopened.recovery_report().clean());
    assert_eq!(reopened.current("rot").unwrap().revision, 24);
    assert!(reopened.history("rot").len() >= 5);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Within one process, re-opening an already-open registry hands out a
/// borrowed lock: the reference equivalence tests (and tooling that
/// inspects a live registry) keep working, and only the owner's drop
/// releases the file.
#[test]
fn same_process_reopen_borrows_the_lock() {
    let root = build_small_registry("reentrant");
    let lock_path = root.join("shard-000").join("lock");
    let owner = PersistentRegistry::recover(&root).unwrap();
    let borrower = PersistentRegistry::open(&root).unwrap();
    assert_eq!(borrower.site_count(), owner.site_count());
    drop(borrower);
    assert!(
        lock_path.exists(),
        "the borrower's drop must not release the owner's lock"
    );
    drop(owner);
    assert!(!lock_path.exists());
    std::fs::remove_dir_all(&root).unwrap();
}
