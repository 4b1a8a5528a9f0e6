//! Shard compaction: bounding log growth without losing what matters.
//!
//! An append-only log grows with every maintenance run — one lifecycle
//! record per batch plus one record per installed revision.  Compaction
//! keeps, per site:
//!
//! * the **current revision** and the last
//!   [`retain_revisions`](CompactionPolicy::retain_revisions) superseded
//!   ones (the audit tail),
//! * the **last-known-good** verification state,
//! * the **lifecycle position** (state + retirement streak).
//!
//! Unlike the v1 whole-shard rewrite, compaction is now *copy-based and
//! segment-bounded*: every segment is scanned with the cheap metadata
//! decoder, each record is judged live or dead against the live map, and
//! only segments whose live-record ratio falls below the policy's
//! [`min_live_ratio`](CompactionPolicy::min_live_ratio) floor are
//! rewritten — by copying their live lines byte-identically into a fresh
//! file.  Work is therefore bounded by the number of *dirty* segments, not
//! by shard size, and a mostly-live shard costs one metadata scan.
//!
//! Everything observable through the registry API is invariant under
//! compaction: current bundles, revision counters, last-known-good states
//! and retired flags are bit-identical before and after, and a recovery
//! from the compacted segments reproduces the same live map (minus the
//! trimmed history).  Each rewrite is atomic (temp file + rename + parent
//! fsync), and the shard manifest's compaction generation is bumped
//! afterwards.
//!
//! Compaction is also the object store's garbage collector: after the
//! scan it knows exactly which bundle digests remain referenced and
//! removes the rest.  A digest is *reachable* if any surviving line
//! mentions it — including dead lines of segments that were **not**
//! rewritten, because recovery decodes every line still on disk and would
//! truncate its replay prefix at a dangling digest.

// Checksums and offsets here are full-width: a narrowing cast would
// truncate the checksum domain and weaken torn-write detection.
#![deny(clippy::cast_possible_truncation)]

use super::log::{decode_line_meta, RecordKind, RecordMeta, RegistryError};
use super::objects::ObjectStore;
use super::shard::{
    list_segments, read_shard_manifest, segment_path, shard_dir, sync_dir, write_atomic,
    write_shard_manifest,
};
use super::SiteEntry;
use crate::lifecycle::WrapperState;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// How much history a compaction keeps, and how dirty a segment must get
/// before it is rewritten.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Superseded revisions kept per site *behind* the current one.  `0`
    /// keeps only the revision in force.
    pub retain_revisions: usize,
    /// The live-record ratio floor: a segment is rewritten only when
    /// `live / total < min_live_ratio`.  The default `1.0` rewrites any
    /// segment holding at least one dead record (the v1 behaviour: no dead
    /// record survives a compaction); lowering it trades disk for write
    /// amplification — `0.5` leaves segments alone until half their
    /// records are dead.  An empty segment counts as fully live.
    pub min_live_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            retain_revisions: 2,
            min_live_ratio: 1.0,
        }
    }
}

impl CompactionPolicy {
    /// The hard per-site record ceiling a fully compacted shard obeys: the
    /// retained revision tail plus the current revision, one last-known-good
    /// record and one lifecycle record.
    pub fn max_records_per_site(&self) -> usize {
        self.retain_revisions + 3
    }

    /// The index of the first *retained* revision in a history of
    /// `revisions` entries.  The single source of the retention rule: both
    /// the segment liveness judgment and the live-map trim use this, so the
    /// two can never silently disagree record-for-record.
    pub fn keep_from(&self, revisions: usize) -> usize {
        revisions.saturating_sub(self.retain_revisions + 1)
    }
}

/// What a compaction did, per [`PersistentRegistry::compact`] call.
///
/// [`PersistentRegistry::compact`]: super::PersistentRegistry::compact
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Shards scanned.
    pub shards: usize,
    /// Log records across all segments before the rewrite.
    pub records_before: usize,
    /// Log records across all segments after the rewrite.
    pub records_after: usize,
    /// Log bytes across all segments before the rewrite.
    pub bytes_before: u64,
    /// Log bytes across all segments after the rewrite.
    pub bytes_after: u64,
    /// Segments whose metadata was scanned (all of them).
    pub segments_scanned: usize,
    /// Segments actually rewritten (live ratio below the policy floor).
    pub segments_rewritten: usize,
    /// Pre-rewrite byte length summed over the rewritten segments only —
    /// the write-amplification bound: skipped segments contribute nothing,
    /// so this is at most `segments_rewritten` segments' worth of bytes no
    /// matter how large the shard is.
    pub bytes_rewritten: u64,
    /// Unreferenced bundle objects garbage-collected from the object store.
    pub objects_removed: usize,
}

/// One scanned segment: its id, raw lines, decoded metadata and per-line
/// liveness verdicts.
struct ScannedSegment {
    id: u64,
    lines: Vec<String>,
    meta: Vec<RecordMeta>,
    live: Vec<bool>,
}

/// Rewrites the dirty segments of every shard under `policy` and
/// garbage-collects the object store.
pub(crate) fn compact_registry(
    root: &Path,
    shards: usize,
    sites: &BTreeMap<String, SiteEntry>,
    policy: &CompactionPolicy,
    objects: &ObjectStore,
) -> Result<CompactionStats, RegistryError> {
    let compact_started = std::time::Instant::now();
    let mut stats = CompactionStats {
        shards,
        records_before: 0,
        records_after: 0,
        bytes_before: 0,
        bytes_after: 0,
        segments_scanned: 0,
        segments_rewritten: 0,
        bytes_rewritten: 0,
        objects_removed: 0,
    };
    let mut reachable: BTreeSet<u64> = BTreeSet::new();

    for shard in 0..shards {
        let ids = list_segments(root, shard)?;
        let highest = ids.last().copied();

        // Pass 1: scan every segment's metadata (no object loads), and find
        // each site's *last* last-known-good and lifecycle record — only the
        // final occurrence can be live, exactly as replay's last-wins rule.
        let mut scanned: Vec<ScannedSegment> = Vec::with_capacity(ids.len());
        let mut last_lkg: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        let mut last_state: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for &id in &ids {
            let path = segment_path(root, shard, id);
            let raw = std::fs::read_to_string(&path).map_err(|e| RegistryError::io(&path, e))?;
            stats.bytes_before += raw.len() as u64;
            let mut lines = Vec::new();
            let mut meta = Vec::new();
            for (line_no, line) in raw.lines().enumerate() {
                let m = decode_line_meta(line).map_err(|message| RegistryError::Record {
                    shard,
                    line: line_no + 1,
                    message: format!("segment {id}: {message} (recover before compacting)"),
                })?;
                lines.push(line.to_string());
                meta.push(m);
            }
            let live = vec![false; lines.len()];
            scanned.push(ScannedSegment {
                id,
                lines,
                meta,
                live,
            });
            stats.segments_scanned += 1;
        }
        for (seg_index, seg) in scanned.iter().enumerate() {
            for (line_index, m) in seg.meta.iter().enumerate() {
                stats.records_before += 1;
                match m.kind {
                    RecordKind::Lkg => {
                        last_lkg.insert(m.site.clone(), (seg_index, line_index));
                    }
                    RecordKind::State => {
                        last_state.insert(m.site.clone(), (seg_index, line_index));
                    }
                    RecordKind::Revision => {}
                }
            }
        }

        // Pass 2: judge liveness against the live map.  Records of sites the
        // map does not know are kept — compaction must never invent deletes
        // the replay would not.
        for (seg_index, seg) in scanned.iter_mut().enumerate() {
            for line_index in 0..seg.meta.len() {
                let m = &seg.meta[line_index];
                let verdict = match m.kind {
                    RecordKind::Revision => match sites.get(&m.site) {
                        Some(entry) if !entry.versions.is_empty() => {
                            let threshold =
                                entry.versions[policy.keep_from(entry.versions.len())].revision;
                            m.revision.is_some_and(|r| r >= threshold)
                        }
                        _ => true,
                    },
                    RecordKind::Lkg => last_lkg.get(&m.site) == Some(&(seg_index, line_index)),
                    RecordKind::State => {
                        last_state.get(&m.site) == Some(&(seg_index, line_index))
                            && match sites.get(&m.site) {
                                // The replay defaults are Monitoring, zero
                                // streak, no maintained day: a site still on
                                // them needs no lifecycle record at all.
                                Some(entry) => {
                                    entry.state != WrapperState::Monitoring
                                        || entry.target_gone_streak > 0
                                        || entry.last_day.is_some()
                                }
                                None => true,
                            }
                    }
                };
                seg.live[line_index] = verdict;
            }
        }

        // Pass 3: rewrite only segments below the live-ratio floor, copying
        // live lines byte-identically.  Everything a surviving line
        // references — dead lines of *skipped* segments included — keeps its
        // object reachable.
        for seg in &scanned {
            let total = seg.lines.len();
            let live_count = seg.live.iter().filter(|&&l| l).count();
            let ratio = if total == 0 {
                1.0
            } else {
                live_count as f64 / total as f64
            };
            if ratio >= policy.min_live_ratio {
                for m in &seg.meta {
                    if let Some(digest) = m.bundle_digest {
                        reachable.insert(digest);
                    }
                }
                stats.records_after += total;
                stats.bytes_after += seg.lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
                continue;
            }

            let mut rewritten = String::new();
            for (line, (&live, m)) in seg.lines.iter().zip(seg.live.iter().zip(seg.meta.iter())) {
                if live {
                    rewritten.push_str(line);
                    rewritten.push('\n');
                    if let Some(digest) = m.bundle_digest {
                        reachable.insert(digest);
                    }
                    stats.records_after += 1;
                }
            }
            stats.segments_rewritten += 1;
            stats.bytes_rewritten += seg.lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
            let path = segment_path(root, shard, seg.id);
            if rewritten.is_empty() && Some(seg.id) != highest {
                // A fully dead, non-active segment disappears outright; the
                // highest (active) segment is kept even when emptied so
                // appends always have a file to land in.
                std::fs::remove_file(&path).map_err(|e| RegistryError::io(&path, e))?;
                sync_dir(&shard_dir(root, shard))?;
            } else {
                write_atomic(&path, &rewritten)?;
                stats.bytes_after += rewritten.len() as u64;
            }
        }

        let generation = read_shard_manifest(root, shard)?;
        write_shard_manifest(root, shard, generation.saturating_add(1))?;
    }

    // Object garbage collection: drop every digest no surviving line
    // references.
    for digest in objects.list()? {
        if !reachable.contains(&digest) {
            objects.remove(digest)?;
            stats.objects_removed += 1;
        }
    }

    let obs = crate::telemetry::registry_metrics();
    obs.compaction_bytes_in.add(stats.bytes_before);
    obs.compaction_bytes_out.add(stats.bytes_after);
    obs.segments_rewritten.add(stats.segments_rewritten as u64);
    wi_obs::record_span(
        "registry.compact",
        compact_started,
        &[
            ("bytes_in", stats.bytes_before),
            ("bytes_out", stats.bytes_after),
            ("segments_rewritten", stats.segments_rewritten as u64),
            ("objects_removed", stats.objects_removed as u64),
        ],
    );
    Ok(stats)
}
