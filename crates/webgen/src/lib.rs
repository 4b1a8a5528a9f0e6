//! # wi-webgen — synthetic web substrate
//!
//! The paper evaluates wrapper induction on real web pages tracked over six
//! years in the Internet Archive.  Neither the pages nor the archive are
//! available to this reproduction, so this crate builds the closest synthetic
//! equivalent (see DESIGN.md, "Substitutions"):
//!
//! * **Sites and templates** ([`site`], [`style`], [`render`], [`data`]) —
//!   deterministic, seeded generators for template-driven pages across the
//!   verticals the paper samples from (movies, news, travel, shopping,
//!   sports, finance, …), with the markup idioms real wrappers rely on:
//!   semantic `id`/`class`/`itemprop` attributes, template labels such as
//!   `Director:`, item lists with header elements and surrounding adverts,
//!   search forms, next links.
//! * **Page evolution** ([`epoch`]) — every site carries a seeded event
//!   timeline (content drift, positional changes, class renames, redesigns,
//!   target removal, broken snapshots) that reproduces the break-reason
//!   classes the paper reports (groups (a)–(f) in Section 6.2).
//! * **An Internet-Archive simulator** ([`archive`]) serving snapshots at
//!   20-day intervals between 2008-01-01 and 2013-12-31.
//! * **Evaluation datasets** ([`tasks`], [`datasets`]) — the single-node and
//!   multi-node wrapper tasks (with hand-written "human" wrappers), the
//!   IMDB-style pages for the comparison with Dalvi et al. \[6\], the
//!   same-template hotel pages for the comparison with WEIR \[2\], and the
//!   product-listing pages used in the NER noise experiment.
//! * **Annotation noise** ([`ner`], [`noise`]) — a simulated entity
//!   recogniser with calibrated error rates and the four synthetic noise
//!   models N1–N4 of Section 6.4.
//!
//! Everything is deterministic given a seed, so every experiment in
//! `wi-eval` is exactly reproducible.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod archive;
pub mod data;
pub mod datasets;
pub mod date;
pub mod epoch;
pub mod ner;
pub mod noise;
pub mod render;
pub mod site;
pub mod style;
pub mod tasks;
pub mod vocab;

pub use archive::{ArchiveSimulator, Snapshot};
pub use date::Day;
pub use epoch::{ChangeClass, ChangeEvent, Epoch};
pub use site::{PageKind, Site};
pub use style::{SiteStyle, Vertical};
pub use tasks::{TargetRole, WrapperTask};
