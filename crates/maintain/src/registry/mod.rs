//! The bundle registry: versioned wrapper history per site, plus the
//! parallel batch driver that runs many sites' timelines through the
//! maintenance loop.
//!
//! There is one live map and one commit path:
//!
//! * [`Registry`] — the live map: per site, its version history and its
//!   *maintenance position* (last-known-good state, lifecycle state,
//!   retirement streak and last maintained day).  Every change to it is a
//!   [`LogRecord`] folded in by one function, `Registry::apply`.  A batch
//!   resumes each site from its position (`Maintainer::run_resumed` does
//!   the splicing): a timeline run as two batches ends exactly where one
//!   uninterrupted batch ends, and re-submitted days are skipped.  Used on
//!   its own, the registry forgets everything on drop.
//! * [`PersistentRegistry`] — a `Registry` plus its shard log: each
//!   committed record is appended to the site's shard log before the live
//!   map applies it, and [`recover`](PersistentRegistry::recover) folds the
//!   logged records back through the same `apply` (tolerating a torn final
//!   record), so a restarted service resumes a timeline byte-identically to
//!   a process that never stopped.  A revision committed outside a batch
//!   ([`commit_revision`](PersistentRegistry::commit_revision), and so
//!   `POST /induce` on an installed site) starts the new wrapper afresh:
//!   a site that is not `Monitoring` with streak 0 gets one extra
//!   on-disk `state` record after the revision; logs of sites already in
//!   that position are unchanged.  Site histories are partitioned into N
//!   shards by FxHash of the site key, each shard backed by numbered,
//!   size-bounded, checksummed JSON-lines **segments** plus a manifest,
//!   with wrapper bundles deduplicated into a content-addressed object
//!   store (see [`log`] for the record schema, [`shard`] for the on-disk
//!   layout and [`objects`] for the bundle store).
//!   [`compact`](PersistentRegistry::compact) rewrites only segments below
//!   a live-record ratio floor (see [`compact`] module docs); and
//!   [`snapshot`](PersistentRegistry::snapshot) /
//!   [`replicate_to`](PersistentRegistry::replicate_to) /
//!   [`restore`](PersistentRegistry::restore) move whole registries between
//!   directories and machines.

pub mod compact;
mod lock;
pub mod log;
pub mod objects;
pub mod shard;
mod snapshot;

pub use compact::{CompactionPolicy, CompactionStats};
pub use log::{LogRecord, RegistryError};
pub use objects::ObjectStore;
pub use shard::shard_of;
pub use snapshot::{ReplicationStats, SnapshotStats};

use crate::lifecycle::{Maintainer, MaintenanceLog, WrapperState};
use crate::verify::LastKnownGood;
use crate::PageVersion;
use log::encode_record;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use wi_induction::WrapperBundle;
use wi_xpath::EvalContext;

/// Number of jobs below which [`Registry::maintain_batch`] stays on the
/// calling thread (mirrors `Extractor::extract_batch`).
const PARALLEL_THRESHOLD: usize = 4;

/// Minimum jobs per worker: spawning a thread for fewer jobs than this costs
/// more than it saves, so the fan-out is clamped to
/// `jobs / MIN_JOBS_PER_WORKER` workers even when more cores are available.
const MIN_JOBS_PER_WORKER: usize = 2;

/// One versioned install of a bundle for a site.
#[derive(Debug, Clone)]
pub struct VersionRecord {
    /// Revision number (the bundle's own `revision`).
    pub revision: u32,
    /// The day this revision was installed.
    pub day: i64,
    /// Why: `"installed"` for the initial induction, the repair provenance
    /// otherwise.
    pub cause: String,
    /// The bundle at this revision.
    pub bundle: WrapperBundle,
}

/// The work order for one site in a batch run.
#[derive(Debug, Clone)]
pub struct MaintenanceJob {
    /// The site key (must have a bundle installed in the registry).
    pub site: String,
    /// The site's page timeline, oldest first.
    pub pages: Vec<PageVersion>,
    /// Optional seed last-known-good state (e.g. from the induction
    /// snapshot); without one the first healthy snapshot bootstraps it.
    /// Only a never-maintained site uses it: the registry's stored state
    /// wins once the site has one.
    pub seed_lkg: Option<LastKnownGood>,
    /// Optional re-induction inducer override for this site (e.g. carrying
    /// the site's template-label text policy); the shared maintainer's
    /// inducer is used otherwise.
    pub inducer: Option<wi_induction::WrapperInducer>,
}

/// Versioned bundle storage per site, with each site's maintenance
/// position.
///
/// The registry is the single source of truth for "which wrapper extracts
/// site X right now, and where did its maintenance stop":
/// [`install`](Registry::install) records revision 0, every validated
/// repair appends a new [`VersionRecord`], each batch leaves the site's
/// last-known-good state, lifecycle state, retirement streak and last
/// maintained day behind, and [`current`](Registry::current) always
/// answers with the newest revision.  All of it changes only through
/// `apply`, one [`LogRecord`] at a time — the records
/// [`PersistentRegistry`] logs.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    sites: BTreeMap<String, SiteEntry>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Installs a (freshly induced) bundle for a site.  Installing over an
    /// existing site appends to its history (the persistent registry
    /// refuses that instead).
    pub fn install(&mut self, site: impl Into<String>, bundle: WrapperBundle, day: i64) {
        self.apply(installed(site.into(), bundle, day));
    }

    /// The bundle currently in force for a site.
    pub fn current(&self, site: &str) -> Option<&WrapperBundle> {
        self.sites
            .get(site)
            .and_then(|entry| entry.versions.last())
            .map(|record| &record.bundle)
    }

    /// The full retained version history of a site, oldest first.
    pub fn history(&self, site: &str) -> &[VersionRecord] {
        self.sites
            .get(site)
            .map(|entry| entry.versions.as_slice())
            .unwrap_or(&[])
    }

    /// The registered site keys, sorted.
    pub fn sites(&self) -> impl Iterator<Item = &str> {
        self.sites.keys().map(String::as_str)
    }

    /// Number of registered sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The lifecycle state a site's last maintenance batch ended in
    /// (`Monitoring` before its first one).
    pub fn state(&self, site: &str) -> Option<WrapperState> {
        self.sites.get(site).map(|entry| entry.state)
    }

    /// The last-known-good verification state a site's maintenance
    /// resumes from.
    pub fn lkg(&self, site: &str) -> Option<&LastKnownGood> {
        self.sites.get(site).and_then(|entry| entry.lkg.as_ref())
    }

    /// Runs every job's timeline through the maintenance loop and commits
    /// the resulting revisions and maintenance positions, fanning the jobs
    /// out over the available cores.  One [`EvalContext`] is created per
    /// worker and reused for the worker's whole chunk, mirroring
    /// `Extractor::extract_batch`; the results (and the committed state)
    /// are exactly those of
    /// [`maintain_batch_sequential`](Registry::maintain_batch_sequential).
    ///
    /// Each site **resumes** where its previous batch stopped: from its
    /// stored last-known-good state (a job's `seed_lkg` only bootstraps a
    /// never-maintained site), lifecycle state and retirement streak.
    /// Re-submission is **idempotent per day**: pages at or before a site's
    /// last maintained day are skipped (their outcomes are simply absent
    /// from the returned log), so splitting a timeline over several batches
    /// — or replaying a batch — yields the outcomes and history of one
    /// uninterrupted run.  Pages must be oldest-first, as
    /// [`MaintenanceJob::pages`] requires.
    ///
    /// The fan-out is **adaptive**: on a single-core machine
    /// (`available_parallelism() == 1`), or when the batch is too small to
    /// amortize thread spawns (fewer than `PARALLEL_THRESHOLD` jobs, or
    /// fewer than `MIN_JOBS_PER_WORKER` jobs per would-be worker), the
    /// batch stays on the calling thread — scoped threads on one core can
    /// only add overhead (the 0.83× regression recorded in the pre-adaptive
    /// `BENCH_maintain.json`).
    ///
    /// Returns one log per job, in job order.  A job whose site has no
    /// installed bundle yields an empty log.
    pub fn maintain_batch(
        &mut self,
        jobs: &[MaintenanceJob],
        maintainer: &Maintainer,
    ) -> Vec<MaintenanceLog> {
        self.maintain_batch_with_workers(jobs, maintainer, adaptive_workers(jobs.len()))
    }

    /// The sequential reference implementation of
    /// [`maintain_batch`](Registry::maintain_batch).
    pub fn maintain_batch_sequential(
        &mut self,
        jobs: &[MaintenanceJob],
        maintainer: &Maintainer,
    ) -> Vec<MaintenanceLog> {
        self.maintain_batch_with_workers(jobs, maintainer, 1)
    }

    /// Batch maintenance with an explicit worker count (the throughput bench
    /// compares 1 vs N).
    ///
    /// A site may appear in at most one job per batch: two concurrent runs
    /// from the same starting revision would commit conflicting histories.
    /// Only the first job for a site runs; duplicates yield empty logs.
    pub fn maintain_batch_with_workers(
        &mut self,
        jobs: &[MaintenanceJob],
        maintainer: &Maintainer,
        workers: usize,
    ) -> Vec<MaintenanceLog> {
        let logs = self.run_batch(jobs, maintainer, workers);
        for record in batch_records(jobs, &logs) {
            self.apply(record);
        }
        logs
    }

    /// Runs a batch against the current map without committing anything:
    /// each job resumes from its site's stored position (see
    /// [`maintain_batch`](Registry::maintain_batch)).  Duplicate and
    /// uninstalled sites get an empty log, so they cannot fork a history.
    fn run_batch(
        &self,
        jobs: &[MaintenanceJob],
        maintainer: &Maintainer,
        workers: usize,
    ) -> Vec<MaintenanceLog> {
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let entries: Vec<Option<&SiteEntry>> = jobs
            .iter()
            .map(|job| {
                if !seen.insert(&job.site) {
                    return None;
                }
                self.sites.get(&job.site)
            })
            .collect();
        fan_out(jobs, &entries, workers, &|cx, job, entry| {
            let Some((entry, current)) = entry.and_then(|e| Some((e, e.versions.last()?))) else {
                return empty_log(&job.site);
            };
            let skip = match entry.last_day {
                Some(last_day) => job
                    .pages
                    .iter()
                    .position(|page| page.day > last_day)
                    .unwrap_or(job.pages.len()),
                None => 0,
            };
            maintainer.run_resumed(
                cx,
                &job.site,
                current.bundle.clone(),
                &job.pages[skip..],
                // The stored LKG carries all evidence accumulated across
                // committed epochs (rotation evidence, stability counts,
                // anchor censuses), so it wins over a stale job seed.
                entry.lkg.clone().or_else(|| job.seed_lkg.clone()),
                job.inducer.as_ref().unwrap_or(&maintainer.inducer),
                entry.state,
                entry.target_gone_streak,
            )
        })
    }

    /// Folds one record into the live map: the only code that changes it.
    fn apply(&mut self, record: LogRecord) {
        let entry = self
            .sites
            .entry(record.site().to_string())
            .or_insert_with(SiteEntry::new);
        match record {
            LogRecord::Revision {
                day,
                revision,
                cause,
                bundle,
                ..
            } => entry.versions.push(VersionRecord {
                revision,
                day,
                cause,
                bundle,
            }),
            LogRecord::Lkg { lkg, .. } => entry.lkg = Some(lkg),
            LogRecord::State {
                day,
                state,
                target_gone_streak,
                ..
            } => {
                entry.state = state;
                entry.target_gone_streak = target_gone_streak;
                entry.last_day = Some(day);
            }
        }
    }

    /// The map a compaction under `policy` leaves: each site's retained
    /// revision tail, last-known-good state and lifecycle position — the
    /// records the compacted log keeps — folded back through `apply`.
    fn retained(self, policy: &CompactionPolicy) -> Registry {
        let mut kept = Registry::new();
        for (site, mut entry) in self.sites {
            let from = policy.keep_from(entry.versions.len());
            for version in entry.versions.drain(from..) {
                kept.apply(LogRecord::Revision {
                    site: site.clone(),
                    day: version.day,
                    revision: version.revision,
                    cause: version.cause,
                    bundle: version.bundle,
                });
            }
            if let Some(lkg) = entry.lkg {
                kept.apply(LogRecord::Lkg {
                    site: site.clone(),
                    lkg,
                });
            }
            if let Some(day) = entry.last_day {
                kept.apply(LogRecord::State {
                    site,
                    day,
                    state: entry.state,
                    target_gone_streak: entry.target_gone_streak,
                });
            }
        }
        kept
    }
}

/// The record an install commits: revision `bundle.revision` with cause
/// `"installed"`.
fn installed(site: String, bundle: WrapperBundle, day: i64) -> LogRecord {
    LogRecord::Revision {
        site,
        day,
        revision: bundle.revision,
        cause: "installed".to_string(),
        bundle,
    }
}

/// What a batch commits, in job order: for every job that produced
/// outcomes, each new revision, then its final last-known-good state (when
/// it has one), then its lifecycle position.
fn batch_records(jobs: &[MaintenanceJob], logs: &[MaintenanceLog]) -> Vec<LogRecord> {
    let mut records = Vec::new();
    for (job, log) in jobs.iter().zip(logs) {
        let Some(last) = log.outcomes.last() else {
            continue;
        };
        records.extend(log.revisions.iter().map(|revision| LogRecord::Revision {
            site: job.site.clone(),
            day: revision.day,
            revision: revision.revision,
            cause: revision.cause.clone(),
            bundle: revision.bundle.clone(),
        }));
        if let Some(lkg) = &log.lkg {
            records.push(LogRecord::Lkg {
                site: job.site.clone(),
                lkg: lkg.clone(),
            });
        }
        records.push(LogRecord::State {
            site: job.site.clone(),
            day: last.day,
            state: last.state,
            target_gone_streak: log.target_gone_streak,
        });
    }
    records
}

/// The per-worker fan-out behind [`Registry::maintain_batch`]: one
/// reusable [`EvalContext`] per worker, chunked scoped threads above the
/// adaptive thresholds, strictly sequential below them.  `run` is called
/// once per `(job, seed)` pair; the logs come back in job order.
fn fan_out<S: Sync>(
    jobs: &[MaintenanceJob],
    seeds: &[S],
    workers: usize,
    run: &(dyn Fn(&mut EvalContext, &MaintenanceJob, &S) -> MaintenanceLog + Sync),
) -> Vec<MaintenanceLog> {
    if jobs.len() < PARALLEL_THRESHOLD || workers < 2 {
        let mut cx = EvalContext::new();
        return jobs
            .iter()
            .zip(seeds)
            .map(|(job, seed)| run(&mut cx, job, seed))
            .collect();
    }
    let chunk_size = jobs.len().div_ceil(workers);
    let mut logs = Vec::with_capacity(jobs.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk_size)
            .zip(seeds.chunks(chunk_size))
            .map(|(job_chunk, seed_chunk)| {
                scope.spawn(move || {
                    let mut cx = EvalContext::new();
                    job_chunk
                        .iter()
                        .zip(seed_chunk)
                        .map(|(job, seed)| run(&mut cx, job, seed))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            logs.extend(handle.join().expect("maintenance worker panicked"));
        }
    });
    logs
}

/// The adaptive worker count for a batch of `jobs` (see
/// [`Registry::maintain_batch`] for the rationale).
fn adaptive_workers(jobs: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cores.min(jobs / MIN_JOBS_PER_WORKER).max(1)
}

/// The log of a job that could not run (uninstalled or duplicate site).
fn empty_log(site: &str) -> MaintenanceLog {
    MaintenanceLog {
        label: site.to_string(),
        outcomes: Vec::new(),
        revisions: Vec::new(),
        bundle: WrapperBundle::from_instances(&[], Default::default()),
        lkg: None,
        target_gone_streak: 0,
    }
}

/// Everything the registry holds about one site: the version history, the
/// maintenance position, and the verifier's reference state.
#[derive(Debug, Clone)]
pub(crate) struct SiteEntry {
    pub(crate) versions: Vec<VersionRecord>,
    pub(crate) state: WrapperState,
    pub(crate) target_gone_streak: u32,
    pub(crate) lkg: Option<LastKnownGood>,
    /// The last maintained day (`None` until the first maintenance run):
    /// re-submitted pages at or before it are skipped, and compaction
    /// preserves it in the rewritten lifecycle record.
    pub(crate) last_day: Option<i64>,
}

impl SiteEntry {
    fn new() -> SiteEntry {
        SiteEntry {
            versions: Vec::new(),
            state: WrapperState::Monitoring,
            target_gone_streak: 0,
            lkg: None,
            last_day: None,
        }
    }
}

/// When appended records are forced to stable storage.
///
/// The default, [`Always`](Durability::Always), fsyncs every append: once a
/// write returns, the records survive an OS crash or power loss.  Bulk
/// ingestion — installing thousands of bundles, or a service's batch
/// endpoints — pays one `sync_data` round trip per append for durability it
/// only needs at the end of the batch; [`Batch`](Durability::Batch) skips
/// the per-append fsync and leaves flushing to an explicit
/// [`PersistentRegistry::sync`] (or the OS writeback).  In `Batch` mode an
/// *application* crash still loses nothing (the bytes reached the page
/// cache), an OS crash loses at most the un-synced suffix, and recovery
/// restores the longest valid record prefix either way — relaxing
/// durability never relaxes consistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Fsync every append (the default).
    #[default]
    Always,
    /// Skip per-append fsyncs; callers flush at batch boundaries via
    /// [`PersistentRegistry::sync`].
    Batch,
}

/// Per-shard registry statistics, as exposed by
/// [`PersistentRegistry::shard_stats`] (the `/metrics` endpoint of
/// `wi-serve` renders these).
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// Sites living in this shard.
    pub sites: usize,
    /// Retained version records across those sites.
    pub revisions: usize,
    /// Summed byte length of the shard's log segments.
    pub log_bytes: u64,
    /// Number of log segments in the shard.
    pub segments: usize,
}

/// One dropped log tail, as found by [`PersistentRegistry::recover`].
#[derive(Debug)]
pub struct TornTail {
    /// The shard whose log was torn.
    pub shard: usize,
    /// Records restored from this shard (the longest valid prefix).
    pub valid_records: usize,
    /// Byte length of the valid prefix (the log was truncated to this).
    pub valid_bytes: u64,
    /// Bytes dropped behind the prefix.
    pub dropped_bytes: u64,
    /// The typed validation failure that ended the prefix.
    pub error: RegistryError,
}

/// What [`PersistentRegistry::recover`] found on disk.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Shards replayed.
    pub shards: usize,
    /// Records restored across all shards.
    pub records_replayed: usize,
    /// Every shard whose log ended in a torn or corrupt tail.  Empty for a
    /// cleanly shut-down registry.
    pub torn_tails: Vec<TornTail>,
}

impl RecoveryReport {
    /// `true` when every shard log replayed cleanly to its end.
    pub fn clean(&self) -> bool {
        self.torn_tails.is_empty()
    }
}

/// The durable, sharded registry: a [`Registry`] plus its append-only
/// shard logs.  Every record is logged before the live map applies it
/// (see the module docs for the layout and guarantees).
///
/// ```no_run
/// use wi_maintain::{PersistentRegistry, CompactionPolicy};
/// # fn main() -> Result<(), wi_maintain::RegistryError> {
/// # let bundle = wi_maintain::WrapperBundle::from_instances(&[], Default::default());
/// let dir = std::env::temp_dir().join("registry");
/// let mut registry = PersistentRegistry::create(&dir, 16)?;
/// registry.install("movies-0001", bundle, 0)?;
/// drop(registry);
///
/// // A later process — or the same one after a crash — replays the logs.
/// let mut registry = PersistentRegistry::recover(&dir)?;
/// assert!(registry.current("movies-0001").is_some());
/// registry.compact(&CompactionPolicy::default())?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PersistentRegistry {
    root: PathBuf,
    shards: usize,
    /// The live map: the fold of every record in the shard logs.
    live: Registry,
    report: RecoveryReport,
    /// Set when an append failed partway (bytes of unknown extent may have
    /// reached a log the live map never advanced past).  Every further
    /// write returns [`RegistryError::Poisoned`]: writing on could append
    /// duplicate revisions behind a torn line, which a later recovery would
    /// truncate away as corruption — silently discarding committed work.
    poisoned: bool,
    /// When appends are forced to stable storage (see [`Durability`]).
    durability: Durability,
    /// The advisory per-shard locks held for the lifetime of this instance
    /// (released on drop; see the `lock` module docs).  Pure RAII: the
    /// field exists only for its `Drop`.
    #[allow(dead_code)]
    locks: Vec<lock::ShardLock>,
    /// The content-addressed bundle store under `<root>/objects/`.
    objects: ObjectStore,
    /// Per shard: the segment appends currently go to, and its byte length
    /// (the rotation threshold accumulates here).
    active: Vec<ActiveSegment>,
    /// The rotation threshold: an append that would push the active segment
    /// *past* this many bytes rolls to a fresh segment first.  One append
    /// batch is never split, so segments can exceed the threshold by up to
    /// one batch.
    segment_bytes: u64,
}

/// A shard's append cursor: which segment is active and how full it is.
#[derive(Debug, Clone, Copy)]
struct ActiveSegment {
    id: u64,
    bytes: u64,
}

/// The default rotation threshold (see
/// [`PersistentRegistry::set_segment_bytes`]).
const DEFAULT_SEGMENT_BYTES: u64 = 64 * 1024;

impl PersistentRegistry {
    /// Initialises an empty registry at `root` with `shards` shards.
    ///
    /// The directory is created if needed; a root that already holds a
    /// registry manifest is rejected (recover it instead of clobbering it).
    pub fn create(root: impl Into<PathBuf>, shards: usize) -> Result<Self, RegistryError> {
        let root = root.into();
        if shards == 0 {
            return Err(RegistryError::Manifest {
                path: shard::root_manifest_path(&root),
                message: "shard count must be positive".into(),
            });
        }
        std::fs::create_dir_all(&root).map_err(|e| RegistryError::io(&root, e))?;
        if shard::root_manifest_path(&root).exists() {
            return Err(RegistryError::Manifest {
                path: shard::root_manifest_path(&root),
                message: "a registry already exists here (use recover)".into(),
            });
        }
        let mut locks = Vec::with_capacity(shards);
        for index in 0..shards {
            let dir = shard::shard_dir(&root, index);
            std::fs::create_dir_all(&dir).map_err(|e| RegistryError::io(&dir, e))?;
            locks.push(lock::ShardLock::acquire(shard::lock_path(&root, index))?);
            shard::write_shard_manifest(&root, index, 0)?;
            shard::create_segment(&root, index, 0)?;
        }
        // The root manifest last: its presence marks a fully initialised
        // layout.
        shard::write_root_manifest(&root, shards)?;
        let objects = ObjectStore::open(&root);
        Ok(PersistentRegistry {
            root,
            shards,
            live: Registry::new(),
            report: RecoveryReport {
                shards,
                ..RecoveryReport::default()
            },
            poisoned: false,
            durability: Durability::Always,
            locks,
            objects,
            active: vec![ActiveSegment { id: 0, bytes: 0 }; shards],
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        })
    }

    /// Opens a registry, replaying every shard log into the live map and
    /// tolerating torn or corrupt log tails: each shard is restored to its
    /// longest valid record prefix, the file is truncated back to it, and
    /// the drop is reported (typed error included) in
    /// [`recovery_report`](PersistentRegistry::recovery_report).  Only
    /// structural damage — missing or invalid manifests, unreadable files —
    /// is an `Err`.
    pub fn recover(root: impl Into<PathBuf>) -> Result<Self, RegistryError> {
        Self::replay(root.into(), true)
    }

    /// Like [`recover`](PersistentRegistry::recover), but strict: a torn or
    /// corrupt log tail is returned as its typed error instead of being
    /// dropped, and — unlike `recover` — the damaged log is left
    /// byte-for-byte untouched, so the evidence survives for inspection.
    /// Use this when unacknowledged data loss must stop the service.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, RegistryError> {
        let mut registry = Self::replay(root.into(), false)?;
        if !registry.report.torn_tails.is_empty() {
            return Err(registry.report.torn_tails.remove(0).error);
        }
        Ok(registry)
    }

    /// The shared log replay behind [`recover`](PersistentRegistry::recover)
    /// (`repair` — truncates torn tails) and
    /// [`open`](PersistentRegistry::open) (read-only).
    fn replay(root: PathBuf, repair: bool) -> Result<Self, RegistryError> {
        let shards = shard::read_root_manifest(&root)?;
        // Take every shard lock before touching any log: replaying (and,
        // for `recover`, truncating) a log another live process is
        // appending to would read — or destroy — a moving tail.
        let mut locks = Vec::with_capacity(shards);
        for index in 0..shards {
            locks.push(lock::ShardLock::acquire(shard::lock_path(&root, index))?);
        }
        let mut live = Registry::new();
        let mut report = RecoveryReport {
            shards,
            ..RecoveryReport::default()
        };
        let objects = ObjectStore::open(&root);
        let mut active = Vec::with_capacity(shards);
        for index in 0..shards {
            shard::read_shard_manifest(&root, index)?;
            let recovered = shard::recover_shard(&root, index, repair, &objects)?;
            report.records_replayed += recovered.records.len();
            active.push(ActiveSegment {
                id: recovered.active_segment,
                bytes: recovered.active_bytes,
            });
            if let Some(error) = recovered.error {
                report.torn_tails.push(TornTail {
                    shard: index,
                    valid_records: recovered.records.len(),
                    valid_bytes: recovered.valid_bytes,
                    dropped_bytes: recovered.dropped_bytes,
                    error,
                });
            }
            for record in recovered.records {
                live.apply(record);
            }
        }
        Ok(PersistentRegistry {
            root,
            shards,
            live,
            report,
            poisoned: false,
            durability: Durability::Always,
            locks,
            objects,
            active,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        })
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The shard count fixed at [`create`](PersistentRegistry::create) time.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard a site key lives in.
    pub fn shard_of(&self, site: &str) -> usize {
        shard_of(site, self.shards)
    }

    /// What the last [`recover`](PersistentRegistry::recover) found.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The content-addressed bundle store backing revision records.
    pub fn objects(&self) -> &ObjectStore {
        &self.objects
    }

    /// The segment rotation threshold in bytes (see
    /// [`set_segment_bytes`](PersistentRegistry::set_segment_bytes)).
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Sets the rotation threshold: an append that would push a shard's
    /// active segment past `bytes` rolls to a fresh segment first.  One
    /// append batch is never split across segments, so a segment can exceed
    /// the threshold by up to one batch.  Affects future appends only.
    pub fn set_segment_bytes(&mut self, bytes: u64) {
        self.segment_bytes = bytes.max(1);
    }

    /// Builder form of
    /// [`set_segment_bytes`](PersistentRegistry::set_segment_bytes).
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.set_segment_bytes(bytes);
        self
    }

    /// Installs a (freshly induced) bundle for a new site.  Re-installing an
    /// existing site is a [`RegistryError::Conflict`] — its history already
    /// exists and revisions never rewind.
    pub fn install(
        &mut self,
        site: impl Into<String>,
        bundle: WrapperBundle,
        day: i64,
    ) -> Result<(), RegistryError> {
        let site = site.into();
        if self.live.sites.contains_key(&site) {
            return Err(RegistryError::Conflict {
                site,
                message: "already installed (commit a revision instead)".into(),
            });
        }
        self.commit(vec![installed(site, bundle, day)])
    }

    /// Commits a new revision for an installed site (e.g. a repair produced
    /// outside [`maintain_batch`](PersistentRegistry::maintain_batch)).  The
    /// bundle's revision must be strictly greater than the current one; the
    /// bundle's provenance note becomes the recorded cause.
    ///
    /// A new wrapper starts its lifecycle afresh: when the site is not
    /// [`Monitoring`](WrapperState::Monitoring) with a zero retirement
    /// streak, a lifecycle record resetting it to that position (at the
    /// site's last maintained day, so no day is re-run or skipped) is
    /// committed after the revision.  A retired site so repairs its new
    /// wrapper again, and a degraded one does not carry its streak over.
    pub fn commit_revision(
        &mut self,
        site: &str,
        bundle: WrapperBundle,
        day: i64,
    ) -> Result<(), RegistryError> {
        let Some(entry) = self.live.sites.get(site) else {
            return Err(RegistryError::Conflict {
                site: site.to_string(),
                message: "not installed".into(),
            });
        };
        let last = entry.versions.last().map(|v| v.revision).unwrap_or(0);
        if bundle.revision <= last {
            return Err(RegistryError::Conflict {
                site: site.to_string(),
                message: format!(
                    "revision {} does not follow current revision {last}",
                    bundle.revision
                ),
            });
        }
        let moved = entry.state != WrapperState::Monitoring || entry.target_gone_streak != 0;
        let reset = entry
            .last_day
            .filter(|_| moved)
            .map(|day| LogRecord::State {
                site: site.to_string(),
                day,
                state: WrapperState::Monitoring,
                target_gone_streak: 0,
            });
        let revision = LogRecord::Revision {
            site: site.to_string(),
            day,
            revision: bundle.revision,
            cause: bundle
                .provenance
                .clone()
                .unwrap_or_else(|| "committed".to_string()),
            bundle,
        };
        self.commit(std::iter::once(revision).chain(reset).collect())
    }

    /// The bundle currently in force for a site.
    pub fn current(&self, site: &str) -> Option<&WrapperBundle> {
        self.live.current(site)
    }

    /// The full retained version history of a site, oldest first.
    pub fn history(&self, site: &str) -> &[VersionRecord] {
        self.live.history(site)
    }

    /// The registered site keys, sorted.
    pub fn sites(&self) -> impl Iterator<Item = &str> {
        self.live.sites()
    }

    /// Number of registered sites.
    pub fn site_count(&self) -> usize {
        self.live.site_count()
    }

    /// The persisted lifecycle state of a site.
    pub fn state(&self, site: &str) -> Option<WrapperState> {
        self.live.state(site)
    }

    /// The persisted last-known-good verification state of a site.
    pub fn lkg(&self, site: &str) -> Option<&LastKnownGood> {
        self.live.lkg(site)
    }

    /// Whether a failed append has poisoned this instance (see
    /// [`RegistryError::Poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The durability mode in force (see [`Durability`]).
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Returns the registry with a different durability mode (see
    /// [`Durability`]).  Switching from [`Batch`](Durability::Batch) back to
    /// [`Always`](Durability::Always) does not retroactively flush earlier
    /// relaxed appends — call [`sync`](PersistentRegistry::sync) for that.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Forces every shard log to stable storage: the flush point of
    /// [`Durability::Batch`] (a no-op under `Always`, where each append
    /// already synced).  Callers in `Batch` mode should sync at batch
    /// boundaries and before a graceful shutdown.
    pub fn sync(&mut self) -> Result<(), RegistryError> {
        for index in 0..self.shards {
            shard::sync_segments(&self.root, index)?;
        }
        Ok(())
    }

    /// Per-shard statistics of the live registry: how the site partition
    /// spreads sites, retained revisions and log bytes over the shards.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let mut stats: Vec<ShardStats> = (0..self.shards)
            .map(|shard| ShardStats {
                shard,
                sites: 0,
                revisions: 0,
                log_bytes: 0,
                segments: 0,
            })
            .collect();
        for (site, entry) in &self.live.sites {
            let stat = &mut stats[shard_of(site, self.shards)];
            stat.sites += 1;
            stat.revisions += entry.versions.len();
        }
        for stat in &mut stats {
            let ids = shard::list_segments(&self.root, stat.shard).unwrap_or_default();
            stat.segments = ids.len();
            stat.log_bytes = ids
                .iter()
                .map(|&id| {
                    std::fs::metadata(shard::segment_path(&self.root, stat.shard, id))
                        .map(|m| m.len())
                        .unwrap_or(0)
                })
                .sum();
        }
        stats
    }

    /// Appends lines to a shard, poisoning the registry on failure: a
    /// failed append may have left bytes of unknown extent on the log while
    /// the live map never advanced, so any further write from this instance
    /// could commit duplicate revisions behind a torn line — which a later
    /// recovery would truncate away as corruption.  Refusing here turns
    /// silent future data loss into an immediate, recoverable error.
    fn append_guarded(&mut self, shard: usize, lines: &str) -> Result<(), RegistryError> {
        if self.poisoned {
            return Err(RegistryError::Poisoned);
        }
        if lines.is_empty() {
            return Ok(());
        }
        // Roll to a fresh segment *before* the append when this batch would
        // push the active segment past the threshold — a batch is never
        // split, so the records of one commit always share a segment.  A
        // failed rotation does not poison: nothing has been appended yet,
        // so the live map and the logs still agree.
        let active = self.active[shard];
        if active.bytes > 0 && active.bytes + lines.len() as u64 > self.segment_bytes {
            self.seal_active(shard)?;
        }
        let sync = self.durability == Durability::Always;
        let segment = self.active[shard].id;
        shard::append_lines(&self.root, shard, segment, lines, sync)
            .inspect_err(|_| self.poisoned = true)?;
        self.active[shard].bytes += lines.len() as u64;
        Ok(())
    }

    /// Rotates a shard's appends to a fresh, durable segment (no-op when
    /// the active segment is still empty).  Used by the threshold roll in
    /// [`append_guarded`](Self::append_guarded) and by `snapshot`, which
    /// must never hard-link a file that could still receive appends.
    pub(crate) fn seal_active(&mut self, shard: usize) -> Result<(), RegistryError> {
        if self.active[shard].bytes == 0 {
            return Ok(());
        }
        let next = self.active[shard].id + 1;
        shard::create_segment(&self.root, shard, next)?;
        self.active[shard] = ActiveSegment { id: next, bytes: 0 };
        crate::telemetry::registry_metrics()
            .segment_rotations
            .add(1);
        Ok(())
    }

    /// [`RegistryError::Poisoned`] when a failed append has poisoned this
    /// instance, `Ok` otherwise.
    pub(crate) fn check_poisoned(&self) -> Result<(), RegistryError> {
        if self.poisoned {
            Err(RegistryError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// [`Registry::maintain_batch`] over the persisted registry: the same
    /// run and the same records, resumed from the same stored position —
    /// plus every committed revision, final last-known-good state and
    /// lifecycle position is appended (and fsynced) to the site's shard log
    /// before the live map applies it, so a crash after this returns loses
    /// nothing and a restart resumes each timeline exactly where it
    /// stopped.  A service that crashes mid-batch and replays the whole
    /// batch cannot double-apply a timeline: already-committed days are
    /// skipped, as in the in-memory registry.
    pub fn maintain_batch(
        &mut self,
        jobs: &[MaintenanceJob],
        maintainer: &Maintainer,
    ) -> Result<Vec<MaintenanceLog>, RegistryError> {
        self.maintain_batch_with_workers(jobs, maintainer, adaptive_workers(jobs.len()))
    }

    /// The sequential reference implementation of
    /// [`maintain_batch`](PersistentRegistry::maintain_batch).
    pub fn maintain_batch_sequential(
        &mut self,
        jobs: &[MaintenanceJob],
        maintainer: &Maintainer,
    ) -> Result<Vec<MaintenanceLog>, RegistryError> {
        self.maintain_batch_with_workers(jobs, maintainer, 1)
    }

    /// Batch maintenance with an explicit worker count.  Duplicate sites in
    /// one batch are skipped exactly like the in-memory driver.
    pub fn maintain_batch_with_workers(
        &mut self,
        jobs: &[MaintenanceJob],
        maintainer: &Maintainer,
        workers: usize,
    ) -> Result<Vec<MaintenanceLog>, RegistryError> {
        self.check_poisoned()?;
        let logs = self.live.run_batch(jobs, maintainer, workers);
        self.commit(batch_records(jobs, &logs))?;
        Ok(logs)
    }

    /// The one commit path: logs `records`, then applies them to the live
    /// map.  Each record's bundle object is stored first (objects are
    /// idempotent, so a crash before the append leaves at worst an
    /// unreferenced object for the next compaction to collect); each shard
    /// then gets one append holding its records in order, and only once
    /// every append has landed does the live map advance.
    fn commit(&mut self, records: Vec<LogRecord>) -> Result<(), RegistryError> {
        self.check_poisoned()?;
        let mut appends: BTreeMap<usize, String> = BTreeMap::new();
        for record in &records {
            let line = encode_record(record, &self.objects)?;
            appends
                .entry(shard_of(record.site(), self.shards))
                .or_default()
                .push_str(&line);
        }
        for (shard, lines) in &appends {
            self.append_guarded(*shard, lines)?;
        }
        for record in records {
            self.live.apply(record);
        }
        Ok(())
    }

    /// Rewrites the dirty segments of every shard down to the retained
    /// history and garbage-collects unreferenced bundle objects (see the
    /// [`compact`] module docs for the exact policy and the
    /// invariants).
    pub fn compact(&mut self, policy: &CompactionPolicy) -> Result<CompactionStats, RegistryError> {
        if self.poisoned {
            // The live map may be behind the logs; rewriting them from it
            // would discard the records the failed append already landed.
            return Err(RegistryError::Poisoned);
        }
        let stats = compact::compact_registry(
            &self.root,
            self.shards,
            &self.live.sites,
            policy,
            &self.objects,
        )?;
        // Only once every shard rewrite has landed: trim the live histories
        // to what the rewrite kept, so the live map and a post-compaction
        // recovery agree record for record.  (Trimming first would leave
        // the live map under-reporting history if a rewrite failed midway.)
        self.live = std::mem::take(&mut self.live).retained(policy);
        // The rewrite may have shrunk (or emptied) the active segment:
        // refresh the append cursor from disk so the rotation threshold
        // keeps measuring real bytes.
        for shard in 0..self.shards {
            let path = shard::segment_path(&self.root, shard, self.active[shard].id);
            self.active[shard].bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_dom::Document;
    use wi_induction::WrapperInducer;
    use wi_scoring::ScoringParams;

    fn page(class: &str, values: &[&str]) -> Document {
        let items: String = values
            .iter()
            .map(|v| format!(r#"<span class="{class}">{v}</span>"#))
            .collect();
        Document::parse(&format!(
            r#"<html><body><div id="main"><h4>Prices:</h4>{items}</div>
               <ul><li>a</li><li>b</li><li>c</li><li>d</li></ul></body></html>"#
        ))
        .unwrap()
    }

    fn job(site: &str, rename_at: Option<usize>, epochs: usize) -> (MaintenanceJob, WrapperBundle) {
        let v1 = page("p", &["1", "2", "3"]);
        let targets: Vec<_> = v1.elements_by_class("p");
        let wrapper = WrapperInducer::default()
            .try_induce_best(&v1, &targets)
            .unwrap();
        let bundle =
            WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults()).with_label(site);
        let pages: Vec<PageVersion> = (0..epochs)
            .map(|i| {
                let class = match rename_at {
                    Some(at) if i >= at => "price",
                    _ => "p",
                };
                let values = [format!("{i}0"), format!("{i}1"), format!("{i}2")];
                let value_refs: Vec<&str> = values.iter().map(String::as_str).collect();
                PageVersion {
                    day: 20 * i as i64,
                    doc: page(class, &value_refs),
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

    #[test]
    fn registry_versions_per_site() {
        let mut registry = Registry::new();
        let (job1, bundle1) = job("movies-01", Some(2), 4);
        registry.install("movies-01", bundle1, 0);
        assert_eq!(registry.current("movies-01").unwrap().revision, 0);
        assert!(registry.current("unknown").is_none());

        let logs = registry.maintain_batch_sequential(&[job1], &Maintainer::default());
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].repairs(), 1);
        let history = registry.history("movies-01");
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].cause, "installed");
        assert!(history[1].cause.contains("re-anchored"));
        assert_eq!(registry.current("movies-01").unwrap().revision, 1);
        assert_eq!(registry.sites().collect::<Vec<_>>(), vec!["movies-01"]);
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let mut sequential = Registry::new();
        let mut parallel = Registry::new();
        let jobs: Vec<MaintenanceJob> = (0..8)
            .map(|i| {
                let site = format!("site-{i:02}");
                let (job, bundle) = super::tests::job(&site, (i % 2 == 0).then_some(2), 5);
                sequential.install(&site, bundle.clone(), 0);
                parallel.install(&site, bundle, 0);
                job
            })
            .collect();
        let maintainer = Maintainer::default();
        let a = sequential.maintain_batch_sequential(&jobs, &maintainer);
        let b = parallel.maintain_batch_with_workers(&jobs, &maintainer, 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.repairs(), y.repairs());
            assert_eq!(x.bundle.revision, y.bundle.revision);
            assert_eq!(
                x.outcomes.iter().map(|o| o.flagged).collect::<Vec<_>>(),
                y.outcomes.iter().map(|o| o.flagged).collect::<Vec<_>>()
            );
        }
        for i in 0..8 {
            let site = format!("site-{i:02}");
            assert_eq!(
                sequential.history(&site).len(),
                parallel.history(&site).len()
            );
        }
    }

    #[test]
    fn duplicate_sites_in_one_batch_cannot_fork_the_history() {
        let mut registry = Registry::new();
        let (job_a, bundle) = job("dup-site", Some(1), 4);
        let (job_b, _) = job("dup-site", Some(2), 4);
        registry.install("dup-site", bundle, 0);
        let logs = registry.maintain_batch_sequential(&[job_a, job_b], &Maintainer::default());
        assert_eq!(logs.len(), 2);
        assert!(!logs[0].outcomes.is_empty(), "first job runs");
        assert!(logs[1].outcomes.is_empty(), "duplicate job is skipped");
        // Exactly one history line: install + the first job's repair.
        let revisions: Vec<u32> = registry
            .history("dup-site")
            .iter()
            .map(|v| v.revision)
            .collect();
        assert_eq!(revisions, vec![0, 1]);
    }

    #[test]
    fn uninstalled_sites_yield_empty_logs() {
        let mut registry = Registry::new();
        let (job, _) = job("never-installed", None, 3);
        let logs = registry.maintain_batch(&[job], &Maintainer::default());
        assert_eq!(logs.len(), 1);
        assert!(logs[0].outcomes.is_empty());
    }
}
