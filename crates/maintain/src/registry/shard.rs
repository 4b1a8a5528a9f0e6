//! Shard layout and recovery: the on-disk anatomy of a persistent registry.
//!
//! ```text
//! <root>/
//!   registry.json        root manifest: format marker + shard count
//!   objects/
//!     <16 hex>.json      content-addressed bundle bodies (see `objects`)
//!   shard-000/
//!     manifest.json      shard manifest: index + compaction generation
//!     seg-000000.log     numbered, size-bounded record segments
//!     seg-000001.log     … (see `registry::log` for the record schema)
//!   shard-001/ …
//!   snapshots/
//!     <name>/            hard-linked snapshots (see `registry::snapshot`)
//! ```
//!
//! Sites are partitioned by FxHash of the site key modulo the shard count
//! ([`shard_of`]), so one site's whole history lives in exactly one shard and
//! shards can be recovered, compacted and audited independently.  Within a
//! shard the log is a sequence of **segments**: appends go to the
//! highest-numbered segment and roll to a fresh one at a byte threshold, so
//! compaction can rewrite cold segments without touching the hot tail.
//!
//! **Recovery** reads a shard's segments in numeric order and replays the
//! longest prefix of valid records: each line must be `\n`-terminated (the
//! commit marker), checksum-clean, schema-valid, resolvable against the
//! object store, and revision-monotonic per site.  The first violation ends
//! the prefix; the offending segment is truncated back to it and every later
//! segment is dropped, so the next append continues from known-good state,
//! and the dropped tail is reported as a typed [`RegistryError`] — never a
//! panic.
//!
//! **Durability**: every rename and file creation in this directory tree is
//! followed by an fsync of the parent directory (`sync_dir`), so a crash
//! after a committed rename cannot resurrect the old directory entry (the
//! rule is machine-checked as wi-lint R9).

use super::log::{decode_line, LogRecord, RegistryError};
use super::objects::ObjectStore;
use std::collections::HashMap;
use std::hash::Hasher as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use wi_dom::fx::FxHasher;
use wi_induction::json::{parse_json, JsonValue};

/// The format marker of the root manifest.
pub(crate) const REGISTRY_FORMAT: &str = "wrapper-induction/registry";
/// The format marker of a shard manifest.
pub(crate) const SHARD_FORMAT: &str = "wrapper-induction/registry-shard";
/// The registry layout version this build reads and writes.  Version 1 was
/// the single `log.jsonl`-per-shard layout with bundles embedded in revision
/// records; version 2 introduced segments and the content-addressed object
/// store.
pub(crate) const REGISTRY_FORMAT_VERSION: u32 = 2;

/// The shard a site key lives in: FxHash64 of the key, finalized and taken
/// modulo `shards`.
///
/// FxHash is a bare multiply-xor: for short keys that differ only in a few
/// byte positions, the difference never reaches the low bits, so a naive
/// `hash % shards` collapses whole key families onto one shard.  A full
/// avalanche finalizer (murmur3's fmix64) spreads every input bit across
/// the word first; the partition is part of the on-disk format, so this
/// function must never change.
pub fn shard_of(site: &str, shards: usize) -> usize {
    let mut hasher = FxHasher::default();
    hasher.write(site.as_bytes());
    let mut hash = hasher.finish();
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^= hash >> 33;
    (hash % shards.max(1) as u64) as usize
}

/// Directory of one shard under the registry root.
pub(crate) fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard:03}"))
}

/// Path of one numbered segment of a shard's version log.
pub(crate) fn segment_path(root: &Path, shard: usize, id: u64) -> PathBuf {
    shard_dir(root, shard).join(format!("seg-{id:06}.log"))
}

/// Parses a segment file name back to its id (`None` for foreign files).
pub(crate) fn segment_id(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The segment ids present in a shard directory, ascending.  A missing
/// shard directory is an empty shard.
pub(crate) fn list_segments(root: &Path, shard: usize) -> Result<Vec<u64>, RegistryError> {
    let dir = shard_dir(root, shard);
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(RegistryError::io(&dir, e)),
    };
    let mut ids = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| RegistryError::io(&dir, e))?;
        if let Some(id) = segment_id(&entry.file_name().to_string_lossy()) {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

/// Path of a shard's manifest.
pub(crate) fn shard_manifest_path(root: &Path, shard: usize) -> PathBuf {
    shard_dir(root, shard).join("manifest.json")
}

/// Path of a shard's advisory lock file (see the `lock` module).
pub(crate) fn lock_path(root: &Path, shard: usize) -> PathBuf {
    shard_dir(root, shard).join("lock")
}

/// Path of the root manifest.
pub(crate) fn root_manifest_path(root: &Path) -> PathBuf {
    root.join("registry.json")
}

/// Fsyncs a directory, making its entries (renames, creations, removals)
/// durable.  A rename that is fsynced only at the file level can still be
/// lost when the crash takes the directory block with it; every
/// rename/create site in `registry/` therefore pairs with a `sync_dir` of
/// the parent (wi-lint R9 enforces the pairing).
pub(crate) fn sync_dir(dir: &Path) -> Result<(), RegistryError> {
    let handle = std::fs::File::open(dir).map_err(|e| RegistryError::io(dir, e))?;
    handle.sync_all().map_err(|e| RegistryError::io(dir, e))
}

/// Writes `text` to `path` atomically: a sibling temp file is written in
/// full and fsynced, then renamed over the target, then the parent
/// directory entry is fsynced — so a crash leaves either the old or the new
/// content, never a torn mix, and the committed rename survives power loss.
pub(crate) fn write_atomic(path: &Path, text: &str) -> Result<(), RegistryError> {
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp).map_err(|e| RegistryError::io(&tmp, e))?;
    file.write_all(text.as_bytes())
        .map_err(|e| RegistryError::io(&tmp, e))?;
    file.sync_all().map_err(|e| RegistryError::io(&tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| RegistryError::io(path, e))?;
    match path.parent() {
        Some(parent) => sync_dir(parent),
        None => Ok(()),
    }
}

/// Creates a fresh, empty segment and makes its directory entry durable.
/// Rotation calls this *before* switching appends over, so a crash between
/// the two leaves only a harmless empty segment behind.
pub(crate) fn create_segment(root: &Path, shard: usize, id: u64) -> Result<(), RegistryError> {
    let path = segment_path(root, shard, id);
    let file = std::fs::File::create(&path).map_err(|e| RegistryError::io(&path, e))?;
    file.sync_all().map_err(|e| RegistryError::io(&path, e))?;
    drop(file);
    sync_dir(&shard_dir(root, shard))
}

pub(crate) fn write_root_manifest(root: &Path, shards: usize) -> Result<(), RegistryError> {
    let manifest = JsonValue::Object(vec![
        ("format".into(), JsonValue::String(REGISTRY_FORMAT.into())),
        (
            "version".into(),
            JsonValue::Number(f64::from(REGISTRY_FORMAT_VERSION)),
        ),
        ("shards".into(), JsonValue::Number(shards as f64)),
    ]);
    let mut text = manifest.to_pretty();
    text.push('\n');
    write_atomic(&root_manifest_path(root), &text)
}

/// Reads and validates the root manifest; returns the shard count.
pub(crate) fn read_root_manifest(root: &Path) -> Result<usize, RegistryError> {
    let path = root_manifest_path(root);
    let text = std::fs::read_to_string(&path).map_err(|e| RegistryError::io(&path, e))?;
    let manifest = parse_json(&text).map_err(|e| RegistryError::Manifest {
        path: path.clone(),
        message: format!("malformed JSON: {e}"),
    })?;
    let bad = |message: String| RegistryError::Manifest {
        path: path.clone(),
        message,
    };
    match manifest.get("format").and_then(JsonValue::as_str) {
        Some(REGISTRY_FORMAT) => {}
        other => return Err(bad(format!("not a registry manifest (format {other:?})"))),
    }
    match manifest.get("version").and_then(JsonValue::as_u32) {
        Some(REGISTRY_FORMAT_VERSION) => {}
        other => return Err(bad(format!("unsupported version {other:?}"))),
    }
    let shards = manifest
        .get("shards")
        .and_then(JsonValue::as_u32)
        .ok_or_else(|| bad("missing shard count".into()))?;
    if shards == 0 {
        return Err(bad("shard count must be positive".into()));
    }
    Ok(shards as usize)
}

pub(crate) fn write_shard_manifest(
    root: &Path,
    shard: usize,
    compactions: u32,
) -> Result<(), RegistryError> {
    let manifest = JsonValue::Object(vec![
        ("format".into(), JsonValue::String(SHARD_FORMAT.into())),
        (
            "version".into(),
            JsonValue::Number(f64::from(REGISTRY_FORMAT_VERSION)),
        ),
        ("shard".into(), JsonValue::Number(shard as f64)),
        (
            "compactions".into(),
            JsonValue::Number(f64::from(compactions)),
        ),
    ]);
    let mut text = manifest.to_pretty();
    text.push('\n');
    write_atomic(&shard_manifest_path(root, shard), &text)
}

/// Reads and validates a shard manifest; returns its compaction generation.
pub(crate) fn read_shard_manifest(root: &Path, shard: usize) -> Result<u32, RegistryError> {
    let path = shard_manifest_path(root, shard);
    let text = std::fs::read_to_string(&path).map_err(|e| RegistryError::io(&path, e))?;
    let manifest = parse_json(&text).map_err(|e| RegistryError::Manifest {
        path: path.clone(),
        message: format!("malformed JSON: {e}"),
    })?;
    if manifest.get("format").and_then(JsonValue::as_str) != Some(SHARD_FORMAT) {
        return Err(RegistryError::Manifest {
            path,
            message: "not a shard manifest".into(),
        });
    }
    match manifest.get("version").and_then(JsonValue::as_u32) {
        Some(REGISTRY_FORMAT_VERSION) => {}
        other => {
            return Err(RegistryError::Manifest {
                path,
                message: format!("unsupported version {other:?}"),
            })
        }
    }
    if manifest.get("shard").and_then(JsonValue::as_u32) != Some(shard as u32) {
        return Err(RegistryError::Manifest {
            path,
            message: "shard index does not match its directory".into(),
        });
    }
    Ok(manifest
        .get("compactions")
        .and_then(JsonValue::as_u32)
        .unwrap_or(0))
}

/// Appends pre-encoded record lines to a shard's **active segment**.  With
/// `sync` set ([`Durability::Always`]) the file is fsynced, so the records
/// survive an OS crash or power loss once this returns (the torn-tail
/// recovery covers a crash *during* the write); without it
/// ([`Durability::Batch`]) the bytes only reach the OS page cache — an
/// application crash loses nothing, an OS crash loses at most the un-synced
/// suffix, and recovery still restores the longest valid prefix.
///
/// The segment must already exist ([`create_segment`] made its directory
/// entry durable); appends never create files, so a missing segment is an
/// invariant break, not a lazy-initialisation case.
///
/// [`Durability::Always`]: super::Durability::Always
/// [`Durability::Batch`]: super::Durability::Batch
pub(crate) fn append_lines(
    root: &Path,
    shard: usize,
    segment: u64,
    lines: &str,
    sync: bool,
) -> Result<(), RegistryError> {
    if lines.is_empty() {
        return Ok(());
    }
    let obs = crate::telemetry::registry_metrics();
    let append_started = std::time::Instant::now();
    let path = segment_path(root, shard, segment);
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .map_err(|e| RegistryError::io(&path, e))?;
    file.write_all(lines.as_bytes())
        .map_err(|e| RegistryError::io(&path, e))?;
    if sync {
        let sync_started = std::time::Instant::now();
        file.sync_data().map_err(|e| RegistryError::io(&path, e))?;
        obs.fsync_latency_us.observe_us(sync_started.elapsed());
    }
    obs.append_latency_us.observe_us(append_started.elapsed());
    Ok(())
}

/// Fsyncs every segment of a shard (no-op for an empty shard): the
/// batch-durability flush point.
pub(crate) fn sync_segments(root: &Path, shard: usize) -> Result<(), RegistryError> {
    for id in list_segments(root, shard)? {
        let path = segment_path(root, shard, id);
        let file = match std::fs::OpenOptions::new().write(true).open(&path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(RegistryError::io(&path, e)),
        };
        let sync_started = std::time::Instant::now();
        file.sync_data().map_err(|e| RegistryError::io(&path, e))?;
        crate::telemetry::registry_metrics()
            .fsync_latency_us
            .observe_us(sync_started.elapsed());
    }
    Ok(())
}

/// What recovery found in one shard's segments.
pub(crate) struct RecoveredShard {
    /// The longest valid record prefix, in log order across segments.
    pub records: Vec<LogRecord>,
    /// Byte length of that prefix (summed over segments).
    pub valid_bytes: u64,
    /// Bytes dropped behind the prefix (0 for a clean shard), including
    /// every byte of segments behind the first invalid record.
    pub dropped_bytes: u64,
    /// Why the prefix ended, when it ended before the end of the shard.
    pub error: Option<RegistryError>,
    /// The highest surviving segment id — where the next append goes.
    pub active_segment: u64,
    /// Byte length of that segment (the rotation threshold accumulates
    /// from here).
    pub active_bytes: u64,
}

/// Replays a shard's segments in numeric order: decodes the longest valid
/// record prefix and reports a torn or corrupt tail as a typed error.  With
/// `repair` set the offending segment is truncated back to its valid prefix
/// and every later segment is deleted, so subsequent appends commit
/// cleanly; without it the segments are left byte-for-byte untouched (the
/// strict `open` path inspects without destroying forensic evidence).  A
/// shard with no segments at all is empty (a crash can land between
/// `create_dir_all` and the first segment creation); under `repair` its
/// initial segment is re-created so appends have somewhere to land.
pub(crate) fn recover_shard(
    root: &Path,
    shard: usize,
    repair: bool,
    objects: &ObjectStore,
) -> Result<RecoveredShard, RegistryError> {
    let mut ids = list_segments(root, shard)?;
    if ids.is_empty() {
        if repair {
            create_segment(root, shard, 0)?;
        }
        return Ok(RecoveredShard {
            records: Vec::new(),
            valid_bytes: 0,
            dropped_bytes: 0,
            error: None,
            active_segment: 0,
            active_bytes: 0,
        });
    }

    let mut records = Vec::new();
    let mut last_revision: HashMap<String, u32> = HashMap::new();
    let mut valid_total = 0u64;
    let mut dropped_total = 0u64;
    let mut line_no = 0usize;
    let mut error = None;
    // Set when a segment's prefix ends early: (index into `ids`, valid
    // bytes inside that segment).
    let mut broken: Option<(usize, u64)> = None;

    'segments: for (k, &id) in ids.iter().enumerate() {
        let path = segment_path(root, shard, id);
        let bytes = std::fs::read(&path).map_err(|e| RegistryError::io(&path, e))?;
        let mut seg_valid = 0usize;
        let mut rest: &[u8] = &bytes;
        while !rest.is_empty() {
            line_no += 1;
            let Some(newline) = rest.iter().position(|&b| b == b'\n') else {
                // No commit marker: the final record was torn mid-write.
                error = Some(RegistryError::Record {
                    shard,
                    line: line_no,
                    message: format!("torn record ({} bytes without commit marker)", rest.len()),
                });
                broken = Some((k, seg_valid as u64));
                dropped_total += (bytes.len() - seg_valid) as u64;
                break 'segments;
            };
            let line = &rest[..newline];
            let decoded = std::str::from_utf8(line)
                .map_err(|_| "invalid UTF-8".to_string())
                .and_then(|text| decode_line(text, objects));
            let record = match decoded {
                Ok(record) => record,
                Err(message) => {
                    error = Some(RegistryError::Record {
                        shard,
                        line: line_no,
                        message,
                    });
                    broken = Some((k, seg_valid as u64));
                    dropped_total += (bytes.len() - seg_valid) as u64;
                    break 'segments;
                }
            };
            if let LogRecord::Revision { site, revision, .. } = &record {
                if let Some(&last) = last_revision.get(site.as_str()) {
                    if *revision <= last {
                        error = Some(RegistryError::Record {
                            shard,
                            line: line_no,
                            message: format!(
                                "revision {revision} for site {site:?} does not follow {last}"
                            ),
                        });
                        broken = Some((k, seg_valid as u64));
                        dropped_total += (bytes.len() - seg_valid) as u64;
                        break 'segments;
                    }
                }
                last_revision.insert(site.clone(), *revision);
            }
            records.push(record);
            seg_valid += newline + 1;
            rest = &rest[newline + 1..];
        }
        valid_total += seg_valid as u64;
    }

    let mut active_index = ids.len() - 1;
    let active_bytes;
    if let Some((k, seg_valid)) = broken {
        valid_total += seg_valid;
        // Everything behind the first invalid record is unreachable by
        // replay: count the later segments into the dropped tail.
        for &id in &ids[k + 1..] {
            let path = segment_path(root, shard, id);
            dropped_total += std::fs::metadata(&path)
                .map(|m| m.len())
                .map_err(|e| RegistryError::io(&path, e))?;
        }
        active_index = k;
        active_bytes = seg_valid;
        if repair {
            let path = segment_path(root, shard, ids[k]);
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| RegistryError::io(&path, e))?;
            file.set_len(seg_valid)
                .map_err(|e| RegistryError::io(&path, e))?;
            file.sync_all().map_err(|e| RegistryError::io(&path, e))?;
            for &id in &ids[k + 1..] {
                let path = segment_path(root, shard, id);
                std::fs::remove_file(&path).map_err(|e| RegistryError::io(&path, e))?;
            }
            sync_dir(&shard_dir(root, shard))?;
            ids.truncate(k + 1);
        }
    } else {
        let path = segment_path(root, shard, ids[active_index]);
        active_bytes = std::fs::metadata(&path)
            .map(|m| m.len())
            .map_err(|e| RegistryError::io(&path, e))?;
    }

    if dropped_total > 0 {
        crate::telemetry::registry_metrics()
            .recovery_dropped_bytes
            .add(dropped_total);
    }
    Ok(RecoveredShard {
        records,
        valid_bytes: valid_total,
        dropped_bytes: dropped_total,
        error,
        active_segment: ids[active_index.min(ids.len() - 1)],
        active_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_is_stable_and_in_range() {
        for shards in [1usize, 4, 16] {
            for site in ["", "a", "movies-0017", "hotels-0101"] {
                let s = shard_of(site, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(site, shards), "stable");
            }
        }
        // The partition actually spreads keys (not all in one shard).
        let hits: std::collections::HashSet<usize> =
            (0..64).map(|i| shard_of(&format!("site-{i}"), 8)).collect();
        assert!(hits.len() > 4, "degenerate partition: {hits:?}");
    }

    #[test]
    fn manifests_round_trip_and_reject_foreign_files() {
        let root = std::env::temp_dir().join(format!("wi-shard-test-{}", std::process::id()));
        std::fs::create_dir_all(shard_dir(&root, 0)).unwrap();
        write_root_manifest(&root, 8).unwrap();
        assert_eq!(read_root_manifest(&root).unwrap(), 8);
        write_shard_manifest(&root, 0, 3).unwrap();
        assert_eq!(read_shard_manifest(&root, 0).unwrap(), 3);

        std::fs::write(root_manifest_path(&root), "{\"format\": \"other\"}").unwrap();
        assert!(matches!(
            read_root_manifest(&root),
            Err(RegistryError::Manifest { .. })
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn segment_names_parse_and_list_in_order() {
        assert_eq!(segment_id("seg-000000.log"), Some(0));
        assert_eq!(segment_id("seg-000142.log"), Some(142));
        assert_eq!(segment_id("seg-9999999.log"), Some(9_999_999));
        for foreign in [
            "seg-.log",
            "seg-12a.log",
            "manifest.json",
            "lock",
            "seg-000001.tmp",
            "log.jsonl",
        ] {
            assert_eq!(segment_id(foreign), None, "{foreign}");
        }

        let root = std::env::temp_dir().join(format!("wi-seglist-test-{}", std::process::id()));
        std::fs::create_dir_all(shard_dir(&root, 0)).unwrap();
        for id in [3u64, 0, 11] {
            create_segment(&root, 0, id).unwrap();
        }
        std::fs::write(shard_dir(&root, 0).join("manifest.json"), "{}").unwrap();
        assert_eq!(list_segments(&root, 0).unwrap(), vec![0, 3, 11]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
