//! The on-disk record schema of a shard's append-only version log.
//!
//! A shard log is a JSON-lines file: one record per line, each line the
//! compact rendering (no whitespace, see `JsonValue::to_compact`) of
//!
//! ```json
//! {"sum":"<16 hex digits>","record":{...}}
//! ```
//!
//! where `sum` is the FxHash64 of the compact rendering of `record`.  The
//! trailing `\n` is the commit marker: a line without it was torn by a
//! crash mid-write and is never replayed, even if its bytes happen to parse.
//! The checksum catches the other corruption mode — bytes altered in place —
//! so recovery can stop at the *longest valid record prefix* and report
//! exactly what it dropped.
//!
//! Three record types exist (see [`LogRecord`]):
//!
//! * `revision` — a bundle revision entered service for a site: the initial
//!   install (cause `"installed"`) or a validated maintenance repair.  The
//!   bundle itself lives in the content-addressed object store (see
//!   `registry::objects`); the record carries its 16-hex FxHash64 content
//!   digest, so identical bundles across sites and compaction generations
//!   are stored once.  Decoding resolves the digest back to the full
//!   [`WrapperBundle`]; a missing or corrupt object invalidates the record
//!   exactly like a checksum mismatch would.
//! * `lkg` — the [`LastKnownGood`] verification state after a maintenance
//!   run, so a restarted service verifies the next snapshot against exactly
//!   the evidence the previous process had accumulated.
//! * `state` — the lifecycle position after a maintenance run: the
//!   [`WrapperState`] plus the consecutive-`TargetRemoved` failure streak
//!   that drives retirement.  A revision committed outside a maintenance
//!   run is followed by a `state` record resetting a site that is not
//!   already `monitoring` with streak 0 to that position.
//!
//! Revisions of one site must be strictly increasing along the log; a
//! record that violates this is treated as corruption (the valid prefix
//! ends before it).

// Checksums and offsets here are full-width: a narrowing cast would
// truncate the checksum domain and weaken torn-write detection.
#![deny(clippy::cast_possible_truncation)]

use super::objects::ObjectStore;
use crate::lifecycle::WrapperState;
use crate::verify::{AnchorCarrier, LastKnownGood};
use std::hash::Hasher as _;
use std::path::PathBuf;
use wi_dom::fx::FxHasher;
use wi_induction::json::{parse_json, JsonValue};
use wi_induction::WrapperBundle;

/// A typed failure of the persistent registry.
#[derive(Debug)]
pub enum RegistryError {
    /// A filesystem operation failed.
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A registry or shard manifest is missing, unreadable or inconsistent.
    Manifest {
        /// The manifest path.
        path: PathBuf,
        /// What is wrong with it.
        message: String,
    },
    /// A version-log record failed validation: torn line, checksum
    /// mismatch, malformed JSON, unknown schema, an embedded bundle that
    /// does not load, or a revision that does not follow its predecessor.
    /// Recovery truncates the log back to the last record before this one.
    Record {
        /// The shard whose log carries the record.
        shard: usize,
        /// 1-based line number inside the shard log.
        line: usize,
        /// What failed to validate.
        message: String,
    },
    /// An operation conflicts with the live registry state (installing an
    /// already-installed site, committing a non-monotonic revision, …).
    Conflict {
        /// The site the operation addressed.
        site: String,
        /// Why it was rejected.
        message: String,
    },
    /// A previous append failed partway, so the live map may be behind what
    /// reached the logs; writing on would risk committing duplicate
    /// revisions that a later recovery would discard as corruption.  Drop
    /// this instance and [`PersistentRegistry::recover`] a fresh one.
    ///
    /// [`PersistentRegistry::recover`]: super::PersistentRegistry::recover
    Poisoned,
    /// A shard's advisory lock file is held by another live process: two
    /// processes appending to one shard log would interleave records in a
    /// way recovery must treat as corruption, so the open is refused (see
    /// the `registry::lock` module docs; a lock whose holder is dead is
    /// reclaimed silently instead).
    Locked {
        /// The lock file that is held.
        path: PathBuf,
        /// The pid recorded in it (0 when the holder could not be read
        /// after repeated reclaim races).
        pid: u32,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io { path, source } => {
                write!(f, "registry I/O error at {}: {source}", path.display())
            }
            RegistryError::Manifest { path, message } => {
                write!(f, "registry manifest {}: {message}", path.display())
            }
            RegistryError::Record {
                shard,
                line,
                message,
            } => {
                write!(f, "shard {shard} log line {line}: {message}")
            }
            RegistryError::Conflict { site, message } => {
                write!(f, "registry conflict on site {site:?}: {message}")
            }
            RegistryError::Poisoned => write!(
                f,
                "registry poisoned by an earlier failed append; recover a fresh instance"
            ),
            RegistryError::Locked { path, pid } => write!(
                f,
                "shard lock {} held by live process {pid}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl RegistryError {
    /// Convenience constructor for I/O failures.
    pub(crate) fn io(path: impl Into<PathBuf>, source: std::io::Error) -> RegistryError {
        RegistryError::Io {
            path: path.into(),
            source,
        }
    }
}

/// One committed line of a shard's version log.
///
/// Records are serialized to JSON lines immediately; the in-memory size
/// skew between `Revision` (full bundle) and the slimmer variants is
/// irrelevant to the log's access pattern.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum LogRecord {
    /// A bundle revision entered service for a site (install or repair).
    Revision {
        /// The site key.
        site: String,
        /// The day the revision was installed.
        day: i64,
        /// The bundle's revision number.
        revision: u32,
        /// `"installed"` for the initial induction, the repair provenance
        /// otherwise.
        cause: String,
        /// The full bundle at this revision.
        bundle: WrapperBundle,
    },
    /// The verifier's last-known-good state after a maintenance run.
    Lkg {
        /// The site key.
        site: String,
        /// The state to verify the next snapshot against.
        lkg: LastKnownGood,
    },
    /// The lifecycle position after a maintenance run.
    State {
        /// The site key.
        site: String,
        /// The last maintained day.
        day: i64,
        /// The wrapper state the run ended in.
        state: WrapperState,
        /// Consecutive failed `TargetRemoved` repairs (retirement countdown).
        target_gone_streak: u32,
    },
}

impl LogRecord {
    /// The site this record belongs to.
    pub fn site(&self) -> &str {
        match self {
            LogRecord::Revision { site, .. }
            | LogRecord::Lkg { site, .. }
            | LogRecord::State { site, .. } => site,
        }
    }
}

/// FxHash64 of a rendered record body — the per-line checksum, and the
/// content digest of the object store and the snapshot manifest.
pub(crate) fn checksum(body: &str) -> u64 {
    checksum_bytes(body.as_bytes())
}

/// [`checksum`] over raw bytes (snapshot manifests hash whole files).
pub(crate) fn checksum_bytes(bytes: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(bytes);
    hasher.finish()
}

/// Parses a 16-hex-digit content digest (the serialized form: u64 digests
/// do not survive the JSON number path's f64 precision).
fn digest_from_hex(text: &str) -> Option<u64> {
    if text.len() != 16 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

fn state_name(state: WrapperState) -> &'static str {
    match state {
        WrapperState::Monitoring => "monitoring",
        WrapperState::Degraded => "degraded",
        WrapperState::Retired => "retired",
    }
}

fn state_from_name(name: &str) -> Option<WrapperState> {
    match name {
        "monitoring" => Some(WrapperState::Monitoring),
        "degraded" => Some(WrapperState::Degraded),
        "retired" => Some(WrapperState::Retired),
        _ => None,
    }
}

fn strings_to_json<'a>(items: impl IntoIterator<Item = &'a String>) -> JsonValue {
    JsonValue::Array(
        items
            .into_iter()
            .map(|s| JsonValue::String(s.clone()))
            .collect(),
    )
}

fn lkg_to_json(lkg: &LastKnownGood) -> JsonValue {
    JsonValue::Object(vec![
        ("day".into(), JsonValue::Number(lkg.day as f64)),
        ("count".into(), JsonValue::Number(lkg.count as f64)),
        ("texts".into(), strings_to_json(&lkg.texts)),
        ("tags".into(), strings_to_json(&lkg.tags)),
        (
            "doc_elements".into(),
            JsonValue::Number(lkg.doc_elements as f64),
        ),
        ("rotates".into(), JsonValue::Bool(lkg.rotates)),
        (
            "stable_observations".into(),
            JsonValue::Number(f64::from(lkg.stable_observations)),
        ),
        (
            "attribute_values".into(),
            strings_to_json(lkg.attribute_values.iter()),
        ),
        (
            "anchor_carriers".into(),
            JsonValue::Array(
                lkg.anchor_carriers
                    .iter()
                    .map(|c| {
                        JsonValue::Object(vec![
                            ("attribute".into(), JsonValue::String(c.attribute.clone())),
                            ("value".into(), JsonValue::String(c.value.clone())),
                            ("count".into(), JsonValue::Number(c.count as f64)),
                            (
                                "stable_observations".into(),
                                JsonValue::Number(f64::from(c.stable_observations)),
                            ),
                            ("neighborhood".into(), strings_to_json(&c.neighborhood)),
                            (
                                "neighborhood_stable".into(),
                                JsonValue::Number(f64::from(c.neighborhood_stable)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn json_strings(value: Option<&JsonValue>, what: &str) -> Result<Vec<String>, String> {
    value
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing {what}"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("non-string entry in {what}"))
        })
        .collect()
}

fn json_i64(value: Option<&JsonValue>, what: &str) -> Result<i64, String> {
    let n = value
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing {what}"))?;
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        #[expect(clippy::cast_possible_truncation, reason = "|n| < 9e15 checked above")]
        Ok(n as i64)
    } else {
        Err(format!("non-integral {what}"))
    }
}

fn json_usize(value: Option<&JsonValue>, what: &str) -> Result<usize, String> {
    let n = json_i64(value, what)?;
    usize::try_from(n).map_err(|_| format!("negative {what}"))
}

fn lkg_from_json(value: &JsonValue) -> Result<LastKnownGood, String> {
    let carriers = value
        .get("anchor_carriers")
        .and_then(JsonValue::as_array)
        .ok_or("missing anchor_carriers")?
        .iter()
        .map(|c| {
            Ok(AnchorCarrier {
                attribute: c
                    .get("attribute")
                    .and_then(JsonValue::as_str)
                    .ok_or("carrier without attribute")?
                    .to_string(),
                value: c
                    .get("value")
                    .and_then(JsonValue::as_str)
                    .ok_or("carrier without value")?
                    .to_string(),
                count: json_usize(c.get("count"), "carrier count")?,
                stable_observations: c
                    .get("stable_observations")
                    .and_then(JsonValue::as_u32)
                    .ok_or("carrier without stable_observations")?,
                neighborhood: json_strings(c.get("neighborhood"), "carrier neighborhood")?,
                neighborhood_stable: c
                    .get("neighborhood_stable")
                    .and_then(JsonValue::as_u32)
                    .ok_or("carrier without neighborhood_stable")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(LastKnownGood {
        day: json_i64(value.get("day"), "lkg day")?,
        count: json_usize(value.get("count"), "lkg count")?,
        texts: json_strings(value.get("texts"), "lkg texts")?,
        tags: json_strings(value.get("tags"), "lkg tags")?,
        doc_elements: json_usize(value.get("doc_elements"), "lkg doc_elements")?,
        rotates: value
            .get("rotates")
            .and_then(JsonValue::as_bool)
            .ok_or("missing lkg rotates")?,
        stable_observations: value
            .get("stable_observations")
            .and_then(JsonValue::as_u32)
            .ok_or("missing lkg stable_observations")?,
        attribute_values: std::sync::Arc::new(
            json_strings(value.get("attribute_values"), "lkg attribute_values")?
                .into_iter()
                .collect(),
        ),
        anchor_carriers: carriers,
    })
}

/// Renders a record's JSON body.  A revision's bundle is stored into
/// `objects` first (idempotent) and referenced by its digest, so a rendered
/// record never references an object that is not yet durable.
fn record_to_json(record: &LogRecord, objects: &ObjectStore) -> Result<JsonValue, RegistryError> {
    Ok(match record {
        LogRecord::Revision {
            site,
            day,
            revision,
            cause,
            bundle,
        } => JsonValue::Object(vec![
            ("type".into(), JsonValue::String("revision".into())),
            ("site".into(), JsonValue::String(site.clone())),
            ("day".into(), JsonValue::Number(*day as f64)),
            ("revision".into(), JsonValue::Number(f64::from(*revision))),
            ("cause".into(), JsonValue::String(cause.clone())),
            (
                "bundle_digest".into(),
                JsonValue::String(format!("{:016x}", objects.store(bundle)?)),
            ),
        ]),
        LogRecord::Lkg { site, lkg } => JsonValue::Object(vec![
            ("type".into(), JsonValue::String("lkg".into())),
            ("site".into(), JsonValue::String(site.clone())),
            ("lkg".into(), lkg_to_json(lkg)),
        ]),
        LogRecord::State {
            site,
            day,
            state,
            target_gone_streak,
        } => JsonValue::Object(vec![
            ("type".into(), JsonValue::String("state".into())),
            ("site".into(), JsonValue::String(site.clone())),
            ("day".into(), JsonValue::Number(*day as f64)),
            ("state".into(), JsonValue::String(state_name(*state).into())),
            (
                "target_gone_streak".into(),
                JsonValue::Number(f64::from(*target_gone_streak)),
            ),
        ]),
    })
}

fn record_from_json(value: &JsonValue, objects: &ObjectStore) -> Result<LogRecord, String> {
    let kind = value
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or("record without type")?;
    let site = value
        .get("site")
        .and_then(JsonValue::as_str)
        .ok_or("record without site")?
        .to_string();
    match kind {
        "revision" => Ok(LogRecord::Revision {
            site,
            day: json_i64(value.get("day"), "revision day")?,
            revision: value
                .get("revision")
                .and_then(JsonValue::as_u32)
                .ok_or("revision record without revision number")?,
            cause: value
                .get("cause")
                .and_then(JsonValue::as_str)
                .ok_or("revision record without cause")?
                .to_string(),
            bundle: objects.load(
                value
                    .get("bundle_digest")
                    .and_then(JsonValue::as_str)
                    .and_then(digest_from_hex)
                    .ok_or("revision record without bundle_digest")?,
            )?,
        }),
        "lkg" => Ok(LogRecord::Lkg {
            site,
            lkg: lkg_from_json(value.get("lkg").ok_or("lkg record without lkg")?)?,
        }),
        "state" => Ok(LogRecord::State {
            site,
            day: json_i64(value.get("day"), "state day")?,
            state: value
                .get("state")
                .and_then(JsonValue::as_str)
                .and_then(state_from_name)
                .ok_or("state record with unknown state")?,
            target_gone_streak: value
                .get("target_gone_streak")
                .and_then(JsonValue::as_u32)
                .ok_or("state record without target_gone_streak")?,
        }),
        other => Err(format!("unknown record type {other:?}")),
    }
}

/// Renders a record as one committed log line, trailing `\n` included.  A
/// revision's bundle is stored into `objects` first (idempotent), so the
/// returned line only ever references a durable object.
pub fn encode_record(record: &LogRecord, objects: &ObjectStore) -> Result<String, RegistryError> {
    let body = record_to_json(record, objects)?.to_compact();
    Ok(format!(
        "{{\"sum\":\"{:016x}\",\"record\":{body}}}\n",
        checksum(&body)
    ))
}

/// Splits and checksums the canonical line envelope, returning the record
/// body.  Lines are only ever produced by [`encode_record`], so the
/// envelope shape is exact, not merely JSON-equivalent.
fn checked_body(line: &str) -> Result<&str, String> {
    let rest = line
        .strip_prefix("{\"sum\":\"")
        .ok_or("line does not start with the checksum envelope")?;
    let (sum, rest) = rest
        .split_at_checked(16)
        .ok_or("truncated checksum envelope")?;
    let body = rest
        .strip_prefix("\",\"record\":")
        .and_then(|r| r.strip_suffix('}'))
        .ok_or("malformed checksum envelope")?;
    let expected = format!("{:016x}", checksum(body));
    if sum != expected {
        return Err(format!(
            "checksum mismatch (stored {sum}, computed {expected})"
        ));
    }
    Ok(body)
}

/// Decodes one log line (without its trailing `\n`): verifies the envelope
/// checksum over the *raw* record bytes, and only then pays for parsing
/// the record — including resolving a revision's bundle digest through the
/// object store, which must load and verify.  The error is a bare message;
/// the caller adds shard/line coordinates.
pub fn decode_line(line: &str, objects: &ObjectStore) -> Result<LogRecord, String> {
    let body = checked_body(line)?;
    let record = parse_json(body).map_err(|e| format!("malformed JSON: {e}"))?;
    record_from_json(&record, objects)
}

/// The cheap metadata of one log line: what compaction's liveness scan
/// needs, without resolving (or even touching) the object store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RecordMeta {
    /// The site the record belongs to.
    pub site: String,
    /// Which record type the line holds.
    pub kind: RecordKind,
    /// The revision number (revision records only).
    pub revision: Option<u32>,
    /// The bundle content digest (revision records only).
    pub bundle_digest: Option<u64>,
}

/// The record type tag of a [`RecordMeta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordKind {
    Revision,
    Lkg,
    State,
}

/// Decodes one line down to its [`RecordMeta`]: envelope checksum + JSON
/// parse, but no object-store resolution — compaction scans whole shards
/// with this, then copies live lines byte-identically.
pub(crate) fn decode_line_meta(line: &str) -> Result<RecordMeta, String> {
    let body = checked_body(line)?;
    let value = parse_json(body).map_err(|e| format!("malformed JSON: {e}"))?;
    let site = value
        .get("site")
        .and_then(JsonValue::as_str)
        .ok_or("record without site")?
        .to_string();
    match value.get("type").and_then(JsonValue::as_str) {
        Some("revision") => Ok(RecordMeta {
            site,
            kind: RecordKind::Revision,
            revision: Some(
                value
                    .get("revision")
                    .and_then(JsonValue::as_u32)
                    .ok_or("revision record without revision number")?,
            ),
            bundle_digest: Some(
                value
                    .get("bundle_digest")
                    .and_then(JsonValue::as_str)
                    .and_then(digest_from_hex)
                    .ok_or("revision record without bundle_digest")?,
            ),
        }),
        Some("lkg") => Ok(RecordMeta {
            site,
            kind: RecordKind::Lkg,
            revision: None,
            bundle_digest: None,
        }),
        Some("state") => Ok(RecordMeta {
            site,
            kind: RecordKind::State,
            revision: None,
            bundle_digest: None,
        }),
        other => Err(format!("unknown record type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_scoring::ScoringParams;

    fn temp_store(tag: &str) -> (std::path::PathBuf, ObjectStore) {
        let root = std::env::temp_dir().join(format!("wi-log-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ObjectStore::open(&root);
        (root, store)
    }

    fn bundle() -> WrapperBundle {
        let doc = wi_dom::Document::parse(
            r#"<body><p class="x">a</p><p class="x">b</p><div>c</div></body>"#,
        )
        .unwrap();
        let targets = doc.elements_by_class("x");
        let wrapper = wi_induction::WrapperInducer::default()
            .try_induce_best(&doc, &targets)
            .unwrap();
        WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults()).with_label("site-a")
    }

    #[test]
    fn records_round_trip_byte_identically() {
        let b = bundle();
        let lkg = LastKnownGood::capture_for(
            &b,
            &wi_dom::Document::parse("<body><p>x</p></body>").unwrap(),
            3,
            &[],
        );
        let records = [
            LogRecord::Revision {
                site: "site-a".into(),
                day: 40,
                revision: 2,
                cause: "re-anchored".into(),
                bundle: b.clone(),
            },
            LogRecord::Lkg {
                site: "site-a".into(),
                lkg,
            },
            LogRecord::State {
                site: "site-a".into(),
                day: 40,
                state: WrapperState::Degraded,
                target_gone_streak: 1,
            },
        ];
        let (root, store) = temp_store("roundtrip");
        for record in &records {
            let line = encode_record(record, &store).unwrap();
            assert!(line.ends_with('\n'));
            let trimmed = line.trim_end_matches('\n');
            let decoded = decode_line(trimmed, &store).unwrap();
            // Round trip is byte-identical (the equality proxy for every
            // field, including the bundle resolved back through the object
            // store and the f64 scores).
            assert_eq!(encode_record(&decoded, &store).unwrap(), line);
            assert_eq!(decoded.site(), "site-a");
            // The cheap meta decode agrees on identity fields.
            let meta = decode_line_meta(trimmed).unwrap();
            assert_eq!(meta.site, "site-a");
            match record {
                LogRecord::Revision { revision, .. } => {
                    assert_eq!(meta.kind, RecordKind::Revision);
                    assert_eq!(meta.revision, Some(*revision));
                    assert!(store.contains(meta.bundle_digest.unwrap()));
                }
                LogRecord::Lkg { .. } => assert_eq!(meta.kind, RecordKind::Lkg),
                LogRecord::State { .. } => assert_eq!(meta.kind, RecordKind::State),
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn every_single_byte_corruption_is_detected_or_harmless() {
        let (root, store) = temp_store("corrupt");
        let line = encode_record(
            &LogRecord::State {
                site: "s".into(),
                day: 7,
                state: WrapperState::Monitoring,
                target_gone_streak: 0,
            },
            &store,
        )
        .unwrap();
        let trimmed = line.trim_end_matches('\n');
        for i in 0..trimmed.len() {
            let mut bytes = trimmed.as_bytes().to_vec();
            bytes[i] ^= 0x04;
            let Ok(corrupted) = String::from_utf8(bytes) else {
                continue; // invalid UTF-8 is rejected before decode_line
            };
            match decode_line(&corrupted, &store) {
                Err(_) => {}
                Ok(decoded) => {
                    // A flip may survive only by rendering an equivalent
                    // record (e.g. flipping a byte back is impossible, but a
                    // semantically identical number form could slip through).
                    assert_eq!(
                        encode_record(&decoded, &store).unwrap(),
                        line,
                        "byte {i} corrupted the record silently"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn lkg_serialization_is_exact() {
        let b = bundle();
        let doc = wi_dom::Document::parse(
            r#"<body><div class="blk"><p class="x">a</p><p class="x">b</p></div></body>"#,
        )
        .unwrap();
        let targets = doc.elements_by_class("x");
        let first = LastKnownGood::capture_for(&b, &doc, 0, &targets);
        let advanced =
            LastKnownGood::advance(&first, LastKnownGood::capture_for(&b, &doc, 20, &targets));
        let (root, store) = temp_store("lkg");
        let line = encode_record(
            &LogRecord::Lkg {
                site: "s".into(),
                lkg: advanced.clone(),
            },
            &store,
        )
        .unwrap();
        let LogRecord::Lkg { lkg, .. } = decode_line(line.trim_end_matches('\n'), &store).unwrap()
        else {
            panic!("wrong record type");
        };
        assert_eq!(lkg, advanced);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `parse_json` refuses nesting past 128 levels.  The deepest JSON the
    /// registry writes, an lkg line with anchor carriers, and the bundle
    /// objects its revision lines reference must parse back unchanged.
    #[test]
    fn the_deepest_json_the_registry_writes_parses_unchanged() {
        fn depth(value: &JsonValue) -> usize {
            match value {
                JsonValue::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
                JsonValue::Object(members) => {
                    1 + members.iter().map(|(_, v)| depth(v)).max().unwrap_or(0)
                }
                _ => 0,
            }
        }
        let b = bundle();
        let pretty = b.to_json_string();
        let parsed = parse_json(&pretty).unwrap();
        assert_eq!(parsed.to_pretty(), pretty);
        assert_eq!(depth(&parsed), 3, "bundle → wrappers → entry");

        let doc = wi_dom::Document::parse(
            r#"<body><div class="blk"><p class="x">a</p><p class="x">b</p></div></body>"#,
        )
        .unwrap();
        let lkg = LastKnownGood::capture_for(&b, &doc, 0, &doc.elements_by_class("x"));
        assert!(!lkg.anchor_carriers.is_empty());
        let (root, store) = temp_store("depth");
        let line = encode_record(
            &LogRecord::Lkg {
                site: "s".into(),
                lkg,
            },
            &store,
        )
        .unwrap();
        let parsed = parse_json(line.trim_end_matches('\n')).unwrap();
        assert_eq!(format!("{}\n", parsed.to_compact()), line);
        assert_eq!(
            depth(&parsed),
            6,
            "envelope → record → lkg → anchor_carriers → carrier → neighborhood"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
