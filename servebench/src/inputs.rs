//! Workload inputs, generated from the seed before anything is timed.
//!
//! The seed picks the webgen sites (`Site::new(vertical, index)` plus the
//! target role) and the snapshot days each workload sends.  Every page
//! comes from the site's 20-day snapshot timeline; the daemon only ever
//! sees these generated bodies.

use wi_dom::{to_html, Document};
use wi_induction::harvest_targets_by_text;
use wi_induction::json::JsonValue;
use wi_serve::percent_encode;
use wi_webgen::date::SNAPSHOT_INTERVAL_DAYS;
use wi_webgen::{Day, PageKind, Site, TargetRole, Vertical, WrapperTask};

use std::collections::BTreeMap;

use crate::client::post_bytes;
use crate::workload::{Workload, WRITER_SITES};

/// Sites onboarded over `/induce`.
pub const SITES: usize = 32;
/// Snapshots per site in the generated timeline: 108 × 20 days (about six
/// years), a multiple of [`SNAPSHOTS_PER_MAINTAIN`] so that maintenance
/// groups tile it.
pub const TIMELINE: usize = 108;
/// Distinct pages per site in the `/extract` pool.
pub const EXTRACT_PAGES: usize = 8;
/// Documents per `/extract/batch` request.
pub const BATCH_DOCS: usize = 32;
/// Snapshots per `/maintain` request.
pub const SNAPSHOTS_PER_MAINTAIN: usize = 4;
/// Maintenance groups per timeline cycle.
pub const GROUPS: usize = TIMELINE / SNAPSHOTS_PER_MAINTAIN;
/// Width of the day field in a maintenance body: days are right-aligned in
/// spaces (JSON whitespace) so the writer can stamp ever later days into a
/// body generated before timing.
const DAY_FIELD: usize = 12;

/// splitmix64: the seed's only consumer, so equal seeds give equal inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `k` distinct indices below `n`, in random order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut all = self.permutation(n);
        all.truncate(k);
        all
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// One onboarded site and every page the workloads send for it.
pub struct SiteInput {
    /// The registry key (`{site}/{role}`).
    pub key: String,
    /// The key as a URL path segment.
    pub path_key: String,
    /// The raw `POST /induce/{site}` request: the day-0 page with the
    /// ground-truth target texts.
    pub induce_request: Vec<u8>,
    /// HTML of the timeline snapshots the workload sends, by index: the
    /// snapshot at index `t` is the page at day `20 t`.
    pages: BTreeMap<usize, String>,
    /// Timeline indices of the `/extract` pool.
    pub extract_pages: Vec<usize>,
    /// Timeline indices of the site's `/extract/batch` request.
    pub batch_pages: Vec<usize>,
    /// The maintenance group the writer starts this site at.
    pub first_group: usize,
}

impl SiteInput {
    /// The HTML of timeline snapshot `t` (generated for this workload).
    pub fn page(&self, t: usize) -> &str {
        &self.pages[&t]
    }

    /// The raw keep-alive `POST /extract/{site}` request for a timeline
    /// page.
    pub fn extract_request(&self, page: usize) -> Vec<u8> {
        post_bytes(
            &format!("/extract/{}", self.path_key),
            "text/html",
            self.page(page).as_bytes(),
        )
    }

    /// The raw keep-alive `POST /extract/batch` request of this site.
    pub fn batch_request(&self) -> Vec<u8> {
        let docs = self
            .batch_pages
            .iter()
            .map(|&page| JsonValue::String(self.page(page).to_string()))
            .collect();
        let body = object(vec![
            ("site", JsonValue::String(self.key.clone())),
            ("docs", JsonValue::Array(docs)),
        ]);
        post_bytes(
            "/extract/batch",
            "application/json",
            body.to_compact().as_bytes(),
        )
    }

    /// The `/maintain` body of one group (snapshots `4g .. 4g + 3`), with
    /// blank day fields for [`MaintainBody::stamp`].
    pub fn maintain_body(&self, group: usize) -> MaintainBody {
        let mut text = String::from("{\"snapshots\":[");
        let mut day_fields = Vec::with_capacity(SNAPSHOTS_PER_MAINTAIN);
        for i in 0..SNAPSHOTS_PER_MAINTAIN {
            if i > 0 {
                text.push(',');
            }
            text.push_str("{\"day\":");
            day_fields.push(text.len());
            text.push_str(&format!("{:>DAY_FIELD$}", 0));
            text.push_str(",\"html\":");
            let page = group * SNAPSHOTS_PER_MAINTAIN + i;
            text.push_str(&JsonValue::String(self.page(page).to_string()).to_compact());
            text.push('}');
        }
        text.push_str("]}");
        MaintainBody {
            bytes: text.into_bytes(),
            day_fields,
        }
    }
}

/// A generated `/maintain` body whose snapshot days are stamped in place.
pub struct MaintainBody {
    /// The JSON body.
    pub bytes: Vec<u8>,
    day_fields: Vec<usize>,
}

impl MaintainBody {
    /// Writes the snapshot days `first_day, first_day + 20, …` into the
    /// body.
    pub fn stamp(&mut self, first_day: i64) {
        for (i, &at) in self.day_fields.iter().enumerate() {
            let day = first_day + i as i64 * SNAPSHOT_INTERVAL_DAYS;
            let field = format!("{day:>DAY_FIELD$}");
            self.bytes[at..at + DAY_FIELD].copy_from_slice(field.as_bytes());
        }
    }
}

/// The day of timeline snapshot `t` (unbounded: the writer keeps moving
/// forward after the timeline's pages cycle).
pub fn snapshot_day(t: usize) -> i64 {
    t as i64 * SNAPSHOT_INTERVAL_DAYS
}

/// Generates the inputs of one seed: the same sites and draws for every
/// workload, but only the pages `workload` sends are rendered.
pub fn generate(seed: u64, workload: Workload) -> Vec<SiteInput> {
    let mut rng = Rng::new(seed, 1);
    let mut sites: Vec<SiteInput> = Vec::with_capacity(SITES);
    while sites.len() < SITES {
        let vertical = Vertical::ALL[rng.below(Vertical::ALL.len())];
        let site = Site::new(vertical, rng.below(10_000) as u64);
        let role = TargetRole::SINGLE[rng.below(TargetRole::SINGLE.len())];
        let role = if role == TargetRole::SearchInput && !site.style.has_search {
            TargetRole::MainHeadline
        } else {
            role
        };
        let task = WrapperTask::new(site, 0, PageKind::Detail, role);
        if sites.iter().any(|s| s.key == task.id()) {
            continue;
        }
        // The same filter as the `serve` experiment: `/induce` locates
        // targets by their text, so keep tasks whose targets it can find.
        let (doc, targets) = task.page_with_targets(Day(0));
        let texts: Vec<String> = targets.iter().map(|&n| doc.normalized_text(n)).collect();
        if targets.is_empty() || harvest_targets_by_text(&doc, &texts) != targets {
            continue;
        }
        let extract_pages = rng.distinct(EXTRACT_PAGES, TIMELINE);
        let batch_pages = rng.distinct(BATCH_DOCS, TIMELINE);
        let first_group = rng.below(GROUPS);
        let needed: Vec<usize> = match workload {
            Workload::Extract => extract_pages.clone(),
            Workload::Batch => batch_pages.clone(),
            Workload::Maintain if sites.len() < WRITER_SITES => (0..TIMELINE).collect(),
            Workload::Maintain => extract_pages.clone(),
        };
        let pages: BTreeMap<usize, String> = std::iter::once(0)
            .chain(needed)
            .map(|t| (t, to_html(&render(&task, t))))
            .collect();
        let induce_body = object(vec![
            ("day", JsonValue::Number(0.0)),
            (
                "samples",
                JsonValue::Array(vec![object(vec![
                    ("html", JsonValue::String(pages[&0].clone())),
                    (
                        "target_texts",
                        JsonValue::Array(texts.into_iter().map(JsonValue::String).collect()),
                    ),
                ])]),
            ),
        ]);
        let key = task.id();
        let path_key = percent_encode(&key);
        sites.push(SiteInput {
            induce_request: post_bytes(
                &format!("/induce/{path_key}"),
                "application/json",
                induce_body.to_compact().as_bytes(),
            ),
            key,
            path_key,
            pages,
            extract_pages,
            batch_pages,
            first_group,
        });
    }
    sites
}

fn render(task: &WrapperTask, t: usize) -> Document {
    task.site
        .render(task.page_index, Day(snapshot_day(t)), task.kind)
}

/// A JSON object from `(key, value)` pairs.
pub fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_days_parse_as_json_numbers() {
        let mut body = MaintainBody {
            bytes: format!("{{\"day\":{:>DAY_FIELD$}}}", 0).into_bytes(),
            day_fields: vec![7],
        };
        body.stamp(123_456);
        let text = String::from_utf8(body.bytes).unwrap();
        let value = wi_induction::json::parse_json(&text).unwrap();
        assert_eq!(
            value.get("day").and_then(JsonValue::as_f64),
            Some(123_456.0)
        );
    }

    #[test]
    fn equal_seeds_draw_equal_sequences() {
        let (mut a, mut b) = (Rng::new(7, 1), Rng::new(7, 1));
        assert_eq!(a.permutation(50), b.permutation(50));
        assert_ne!(Rng::new(7, 1).next(), Rng::new(8, 1).next());
    }
}
