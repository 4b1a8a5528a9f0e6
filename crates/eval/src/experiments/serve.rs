//! The `serve` experiment: the extraction-as-a-service daemon exercised
//! end-to-end over real TCP.
//!
//! An in-process [`Server`] is started on a scratch
//! [`PersistentRegistry`]; for a handful of webgen tasks the whole
//! lifecycle then runs *over HTTP*: induce from ground-truth texts,
//! extract the day-0 page (the served texts must equal the generated
//! truth), stream a multi-document batch, maintain over later snapshots,
//! and read back `/sites` and `/metrics`.  The run closes with the
//! durability gate of the service path: graceful shutdown, drop, recover
//! from the shard logs — every revision committed over HTTP must survive.
//!
//! All floors are gated through [`render_checked`], which CI exercises in
//! smoke mode (`run_experiments serve --smoke`).

use crate::report::render_table;
use crate::scale::Scale;
use serde::{Deserialize, Serialize};
use wi_dom::to_html;
use wi_induction::harvest_targets_by_text;
use wi_induction::json::JsonValue;
use wi_maintain::{Maintainer, PersistentRegistry};
use wi_serve::client;
use wi_serve::router::percent_encode;
use wi_serve::{ServeConfig, Server};
use wi_webgen::datasets::single_node_tasks;
use wi_webgen::date::Day;
use wi_webgen::tasks::WrapperTask;

/// Shards of the experiment's scratch registry.
const REGISTRY_SHARDS: usize = 4;
/// Tasks served (the experiment is a smoke gate, not a benchmark).
const MAX_TASKS: usize = 5;

/// The aggregated result of the serve experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Sites induced and installed over HTTP.
    pub sites: usize,
    /// Extraction requests answered.
    pub extract_requests: usize,
    /// … whose served texts equalled the webgen ground truth.
    pub extract_matches: usize,
    /// Documents pushed through `/extract/batch`.
    pub batch_docs: usize,
    /// … that came back as successful NDJSON lines.
    pub batch_ok: usize,
    /// Maintenance epochs replayed over HTTP.
    pub maintain_epochs: usize,
    /// Total requests the daemon's metrics counted.
    pub requests_total: u64,
    /// Revisions on disk when the daemon drained.
    pub persisted_revisions: usize,
    /// … restored by a fresh recovery from the shard logs.
    pub recovered_revisions: usize,
}

impl ServeReport {
    /// Returns the floor violations of this run (empty when all gates
    /// pass).
    pub fn floor_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.sites == 0 {
            violations.push("no site was induced over HTTP".to_string());
        }
        if self.extract_matches != self.extract_requests {
            violations.push(format!(
                "{} of {} served extractions matched the ground truth",
                self.extract_matches, self.extract_requests
            ));
        }
        if self.batch_ok != self.batch_docs {
            violations.push(format!(
                "{} of {} batch documents extracted",
                self.batch_ok, self.batch_docs
            ));
        }
        if self.requests_total == 0 {
            violations.push("metrics counted zero requests".to_string());
        }
        if self.recovered_revisions != self.persisted_revisions {
            violations.push(format!(
                "recovery restored {} of {} revisions committed over HTTP",
                self.recovered_revisions, self.persisted_revisions
            ));
        }
        violations
    }
}

fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Tasks whose ground-truth nodes are text-addressable (the `/induce`
/// endpoint locates targets by their text).
fn served_tasks(scale: &Scale) -> Vec<WrapperTask> {
    single_node_tasks(scale.single_tasks.max(MAX_TASKS) * 2)
        .into_iter()
        .filter(|task| {
            let (doc, targets) = task.page_with_targets(Day(0));
            let texts: Vec<String> = targets.iter().map(|&n| doc.normalized_text(n)).collect();
            harvest_targets_by_text(&doc, &texts) == targets
        })
        .take(MAX_TASKS)
        .collect()
}

/// Runs the experiment.
pub fn run(scale: &Scale) -> ServeReport {
    let scratch = super::registry_scratch_dir("serve");
    let _ = std::fs::remove_dir_all(&scratch);
    let registry = PersistentRegistry::create(&scratch, REGISTRY_SHARDS)
        .expect("scratch registry directory is writable");
    let handle = Server::start(registry, Maintainer::default(), ServeConfig::default())
        .expect("daemon binds a loopback port");
    let addr = handle.addr();

    let mut report = ServeReport {
        sites: 0,
        extract_requests: 0,
        extract_matches: 0,
        batch_docs: 0,
        batch_ok: 0,
        maintain_epochs: 0,
        requests_total: 0,
        persisted_revisions: 0,
        recovered_revisions: 0,
    };

    for task in served_tasks(scale) {
        let site = task.id();
        let encoded = percent_encode(&site);
        let (doc, targets) = task.page_with_targets(Day(0));
        let truth: Vec<String> = targets.iter().map(|&n| doc.normalized_text(n)).collect();
        let html = to_html(&doc);

        // Induce + install over HTTP.
        let induce_body = object(vec![
            ("day", JsonValue::Number(0.0)),
            (
                "samples",
                JsonValue::Array(vec![object(vec![
                    ("html", JsonValue::String(html.clone())),
                    (
                        "target_texts",
                        JsonValue::Array(truth.iter().cloned().map(JsonValue::String).collect()),
                    ),
                ])]),
            ),
        ]);
        let induced = client::post_json(addr, &format!("/induce/{encoded}"), &induce_body)
            .expect("induce request");
        if induced.status != 200 {
            continue;
        }
        report.sites += 1;

        // Single-document extraction must reproduce the ground truth.
        let extracted = client::post(
            addr,
            &format!("/extract/{encoded}"),
            "text/html",
            html.as_bytes(),
        )
        .expect("extract request");
        report.extract_requests += 1;
        if extracted.status == 200 {
            let served: Vec<String> = extracted
                .json()
                .ok()
                .and_then(|v| {
                    v.get("texts").and_then(|t| {
                        t.as_array().map(|a| {
                            a.iter()
                                .filter_map(|s| s.as_str().map(String::from))
                                .collect()
                        })
                    })
                })
                .unwrap_or_default();
            if served == truth {
                report.extract_matches += 1;
            }
        }

        // A small batch over the NDJSON stream.
        let days = [Day(0), Day(scale.snapshot_interval)];
        let docs: Vec<JsonValue> = days
            .iter()
            .map(|&day| JsonValue::String(to_html(&task.page_with_targets(day).0)))
            .collect();
        report.batch_docs += docs.len();
        let batch_body = object(vec![
            ("site", JsonValue::String(site.clone())),
            ("docs", JsonValue::Array(docs)),
        ]);
        if let Ok(batch) = client::post_json(addr, "/extract/batch", &batch_body) {
            if batch.status == 200 {
                report.batch_ok += batch
                    .text()
                    .lines()
                    .filter_map(|line| wi_induction::json::parse_json(line).ok())
                    .filter(|line| line.get("texts").is_some())
                    .count();
            }
        }

        // Maintenance over the next snapshots, persisted through the
        // daemon.
        let snapshots: Vec<JsonValue> = (1i64..=2)
            .map(|i| {
                let day = scale.snapshot_interval * i;
                object(vec![
                    ("day", JsonValue::Number(day as f64)),
                    (
                        "html",
                        JsonValue::String(to_html(&task.page_with_targets(Day(day)).0)),
                    ),
                ])
            })
            .collect();
        let maintain_body = object(vec![("snapshots", JsonValue::Array(snapshots))]);
        if let Ok(maintained) =
            client::post_json(addr, &format!("/maintain/{encoded}"), &maintain_body)
        {
            if maintained.status == 200 {
                report.maintain_epochs += maintained
                    .json()
                    .ok()
                    .and_then(|v| v.get("epochs").and_then(JsonValue::as_f64))
                    .unwrap_or(0.0) as usize;
            }
        }
    }

    report.requests_total = handle.state().metrics.requests_total();

    // Graceful shutdown, then the service-path durability gate.
    let _ = client::post_json(addr, "/admin/shutdown", &object(vec![]));
    let registry = handle.wait();
    report.persisted_revisions = registry
        .sites()
        .map(|site| registry.history(site).len())
        .sum();
    drop(registry);
    let recovered = PersistentRegistry::recover(&scratch).expect("registry recovers");
    report.recovered_revisions = if recovered.recovery_report().clean() {
        recovered
            .sites()
            .map(|site| recovered.history(site).len())
            .sum()
    } else {
        0 // a torn log after a graceful drain is a durability bug
    };
    drop(recovered);
    let _ = std::fs::remove_dir_all(&scratch);
    report
}

/// Renders the report.
pub fn render(scale: &Scale) -> String {
    render_report(&run(scale))
}

/// Renders the report and returns an error listing every violated floor
/// (the `run_experiments` binary exits non-zero on `Err`).
pub fn render_checked(scale: &Scale) -> Result<String, String> {
    let report = run(scale);
    let rendered = render_report(&report);
    let violations = report.floor_violations();
    if violations.is_empty() {
        Ok(rendered)
    } else {
        Err(format!(
            "{rendered}\nSERVE FLOOR VIOLATIONS:\n  {}",
            violations.join("\n  ")
        ))
    }
}

fn render_report(report: &ServeReport) -> String {
    let mut out = String::from("== Extraction as a service over the persistent registry ==\n");
    let rows = vec![
        vec![
            "induce over HTTP".to_string(),
            format!("{} sites installed", report.sites),
        ],
        vec![
            "extract".to_string(),
            format!(
                "{} / {} matched ground truth",
                report.extract_matches, report.extract_requests
            ),
        ],
        vec![
            "extract/batch".to_string(),
            format!(
                "{} / {} documents streamed",
                report.batch_ok, report.batch_docs
            ),
        ],
        vec![
            "maintain".to_string(),
            format!("{} epochs persisted", report.maintain_epochs),
        ],
        vec![
            "metrics".to_string(),
            format!("{} requests counted", report.requests_total),
        ],
        vec![
            "durability".to_string(),
            format!(
                "{} / {} revisions recovered after drain",
                report.recovered_revisions, report.persisted_revisions
            ),
        ],
    ];
    out.push_str(&render_table(&["stage", "result"], &rows));
    out.push_str(&format!(
        "floors: all extracts exact, all batch docs ok, zero lost revisions — {}\n",
        if report.floor_violations().is_empty() {
            "pass"
        } else {
            "FAIL"
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_meets_the_acceptance_floors() {
        let report = run(&Scale::tiny());
        assert!(report.sites >= 3, "only {} sites served", report.sites);
        assert_eq!(report.extract_matches, report.extract_requests);
        assert_eq!(report.batch_ok, report.batch_docs);
        assert!(report.maintain_epochs > 0);
        assert!(report.requests_total > 0);
        assert_eq!(report.recovered_revisions, report.persisted_revisions);
        assert!(report.floor_violations().is_empty());
    }

    #[test]
    fn render_reports_every_stage() {
        match render_checked(&Scale::tiny()) {
            Ok(rendered) => {
                assert!(rendered.contains("induce over HTTP"));
                assert!(rendered.contains("durability"));
                assert!(rendered.contains("pass"));
            }
            Err(report) => panic!("serve floors violated:\n{report}"),
        }
    }
}
