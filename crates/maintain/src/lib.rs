//! # wi-maintain — the wrapper lifecycle subsystem
//!
//! Induction (in `wi-induction`) produces a wrapper once; this crate keeps it
//! *alive* while the page underneath evolves.  It implements the full
//! maintenance loop over an archive timeline of page versions:
//!
//! 1. **Verify** ([`Verifier`]) — replay a [`WrapperBundle`] against each
//!    successive snapshot and score extraction health without consulting any
//!    ground truth: broken captures, empty results, cardinality drift and
//!    node-shape divergence against the last-known-good extraction, and
//!    anchor attributes that vanished from the page (checked through the
//!    document's tag index).
//! 2. **Classify** ([`DriftClassifier`]) — when a wrapper is flagged, map the
//!    failure onto the paper's Section 6.2 break groups ([`DriftClass`]):
//!    positional changes, attribute renames, site-wide redesigns, diminishing
//!    targets and broken snapshots.  Classification works by *diffing the
//!    failing step against the evolved DOM*: the first empty step of the
//!    expression is found by prefix evaluation, its anchor predicate is
//!    relaxed, and the surviving candidate neighborhood (via the tag index
//!    and the document-order index) proposes a re-anchoring that is
//!    validated against the rest of the expression.
//! 3. **Repair** ([`Repairer`]) — re-anchor renamed attribute values in
//!    place when the classifier found a consistent substitution, otherwise
//!    harvest the last-known-good extraction *values* as fresh annotations
//!    and re-run induction on the evolved page
//!    ([`WrapperInducer::try_induce_from_texts`]).  Either path hot-swaps the
//!    bundle: the replacement carries the same label, a bumped revision and a
//!    provenance note.
//! 4. **Version** ([`Registry`]) — bundles are versioned per site, next to
//!    each site's maintenance position (last-known-good, lifecycle state,
//!    retirement streak, last maintained day); every change is a
//!    [`LogRecord`] folded in by one `apply`.  The parallel
//!    [`Registry::maintain_batch`] driver runs whole archives of sites
//!    through the loop with one evaluation context per worker, mirroring
//!    `Extractor::extract_batch`, and resumes each site where its previous
//!    batch stopped.
//! 5. **Persist** ([`PersistentRegistry`]) — the production registry: the
//!    same [`Registry`] plus its shard logs, site histories sharded by
//!    FxHash of the site key, each shard an append-only checksummed
//!    JSON-lines version log with a manifest.  Every record is logged before
//!    it is applied, and [`PersistentRegistry::recover`] folds the logs back
//!    through the same `apply` (restoring the longest valid record prefix
//!    and surfacing anything dropped as a typed [`RegistryError`]), so
//!    [`PersistentRegistry::maintain_batch`] resumes timelines
//!    byte-identically across restarts, and
//!    [`PersistentRegistry::compact`] bounds log growth to
//!    last-known-good + a retained audit tail.  See the
//!    [`registry`] module docs for the on-disk layout.
//!
//! The loop itself is the [`Maintainer`] state machine (`Monitoring` →
//! `Degraded` → `Retired`, see [`WrapperState`]).
//!
//! ## The repair-policy contract
//!
//! Every repair policy MUST observe the following contract (relied on by the
//! registry and the evaluation harness):
//!
//! * **Repairs are validated before they are installed.**  A candidate
//!   bundle is re-verified against the very snapshot that exposed the break;
//!   a repair that does not restore a healthy extraction is discarded and
//!   the wrapper stays degraded (it will be retried on the next snapshot).
//! * **Repairs never rewrite history.**  A repair produces a *new* revision
//!   via [`WrapperBundle::revised`] — same label, same scoring parameters,
//!   `revision + 1`, and a human-readable provenance note describing the
//!   edit (or the re-induction).  Prior revisions stay in the registry.
//! * **Re-anchoring precedes re-induction.**  An in-place anchor substitution
//!   preserves the expression's structure (and therefore its robustness
//!   characteristics); full re-induction from harvested values is the
//!   fallback when no consistent substitution exists.
//! * **Broken snapshots are never repaired against.**  A capture flagged as
//!   broken ([`HealthSignal::BrokenPage`]) is an archive artifact, not page
//!   evolution (paper break group (e)); the wrapper, its revision and its
//!   last-known-good state all pass through unchanged.
//! * **Diminishing targets retire, they do not thrash.**  After
//!   `retire_after` consecutive failed repairs whose drift class is
//!   [`DriftClass::TargetRemoved`], the wrapper is retired: verification
//!   continues (it may recover if the target reappears) but no further
//!   repairs are attempted.
//!
//! ## Example
//!
//! ```
//! use wi_dom::Document;
//! use wi_induction::{Extractor, WrapperBundle, WrapperInducer};
//! use wi_maintain::{Maintainer, PageVersion};
//!
//! // Induce on version 1 of a page …
//! let v1 = Document::parse(
//!     r#"<body><ul id="nav"><li>Home</li><li>Offers</li><li>About</li></ul>
//!        <div id="prices"><span class="p">10</span><span class="p">20</span></div></body>"#,
//! ).unwrap();
//! let targets = v1.elements_by_class("p");
//! let wrapper = WrapperInducer::default().try_induce_best(&v1, &targets).unwrap();
//! let bundle = WrapperBundle::from_wrapper(&wrapper, Default::default()).with_label("prices");
//!
//! // … the site renames the class ("p" → "price") in version 2 …
//! let v2 = Document::parse(
//!     r#"<body><ul id="nav"><li>Home</li><li>Offers</li><li>About</li></ul>
//!        <div id="prices"><span class="price">10</span><span class="price">30</span></div></body>"#,
//! ).unwrap();
//!
//! // … and the maintenance loop flags, classifies and repairs the wrapper.
//! let maintainer = Maintainer::default();
//! let log = maintainer.run(
//!     "prices",
//!     bundle,
//!     &[PageVersion { day: 0, doc: v1 }, PageVersion { day: 20, doc: v2 }],
//!     None,
//! );
//! assert!(log.outcomes[1].repaired);
//! let repaired = &log.bundle;
//! assert_eq!(repaired.revision, 1);
//! let doc2 = Document::parse(
//!     r#"<body><ul id="nav"><li>Home</li><li>Offers</li><li>About</li></ul>
//!        <div id="prices"><span class="price">40</span><span class="price">50</span></div></body>"#,
//! ).unwrap();
//! assert_eq!(repaired.extract(&doc2, doc2.root()).unwrap(), doc2.elements_by_class("price"));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod drift;
pub(crate) mod incremental;
pub mod lifecycle;
pub mod registry;
pub mod repair;
pub(crate) mod telemetry;
pub mod verify;

use wi_dom::Document;
// Re-exported so downstream code and the doc examples can name every piece
// of the loop from one crate.
pub use drift::{DriftClass, DriftClassifier, DriftConfig, DriftReport, FixKind, QueryFix};
pub use lifecycle::{EpochOutcome, MaintainConfig, Maintainer, MaintenanceLog, WrapperState};
pub use registry::{
    shard_of, CompactionPolicy, CompactionStats, Durability, LogRecord, MaintenanceJob,
    ObjectStore, PersistentRegistry, RecoveryReport, Registry, RegistryError, ReplicationStats,
    ShardStats, SnapshotStats, TornTail, VersionRecord,
};
pub use repair::{RepairAction, Repairer};
pub use verify::{HealthReport, HealthSignal, LastKnownGood, Verifier, VerifyConfig};
pub use wi_induction::{WrapperBundle, WrapperInducer};

/// One version of a page in an archive timeline: the day it was captured and
/// the parsed document.
///
/// The day is an opaque offset (the webgen archive counts days from
/// 2008-01-01); the maintenance loop only ever compares and reports it.
#[derive(Debug, Clone)]
pub struct PageVersion {
    /// Capture day (archive-defined offset).
    pub day: i64,
    /// The captured document.
    pub doc: Document,
}
