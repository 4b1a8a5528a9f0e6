//! Batch extraction at scale: the service-style workload the `Extractor`
//! API is designed for — induce once, extract across an archive of page
//! versions, in parallel.
//!
//! The experiment induces one wrapper per extraction method (ours, the
//! ensemble, and the canonical baseline), materialises every archive
//! snapshot of the observation window as a document batch, and drives each
//! method through [`Extractor::extract_batch`], checking the parallel
//! results against the sequential reference path and reporting throughput.

use crate::report::render_table;
use crate::robustness::Extractor;
use crate::scale::Scale;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use wi_dom::Document;
use wi_induction::{WrapperEnsemble, WrapperInducer};
use wi_webgen::archive::ArchiveSimulator;
use wi_webgen::datasets::single_node_tasks;
use wi_webgen::date::Day;
use wi_webgen::date::{OBSERVATION_END, OBSERVATION_START};

/// Throughput of one extraction method over the snapshot batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchResult {
    /// Method label.
    pub method: String,
    /// Number of documents extracted from.
    pub documents: usize,
    /// Wall-clock milliseconds of the parallel batch path.
    pub parallel_ms: f64,
    /// Wall-clock milliseconds of the sequential reference path.
    pub sequential_ms: f64,
    /// Documents per second through the parallel path.
    pub docs_per_second: f64,
    /// Whether the parallel results matched the sequential ones exactly.
    pub results_match: bool,
    /// How many documents extracted without error.
    pub ok_documents: usize,
}

/// Runs the batch-extraction comparison.
pub fn run(scale: &Scale) -> Vec<BatchResult> {
    let task = &single_node_tasks(1)[0];
    let (doc, targets) = task.page_with_targets(Day(0));

    let inducer = WrapperInducer::new(super::induction_config_for(task, scale.k));
    let wrapper = inducer
        .try_induce_best(&doc, &targets)
        .expect("induction succeeds on the induction snapshot");
    let ensemble = WrapperEnsemble::induce_single(&doc, &targets);
    let canonical = wi_baselines::CanonicalWrapper::induce(&doc, &targets);

    // Materialise the archive snapshots as one owned document batch.
    let archive = ArchiveSimulator::new(task.site.clone(), task.page_index, task.kind);
    let docs: Vec<Document> = archive
        .snapshots_every(OBSERVATION_START, OBSERVATION_END, scale.snapshot_interval)
        .into_iter()
        .map(|s| s.doc)
        .collect();

    let methods: Vec<(&str, &dyn Extractor)> = vec![
        ("induced", &wrapper),
        ("ensemble", &ensemble),
        ("canonical", &canonical),
    ];

    methods
        .into_iter()
        .map(|(label, extractor)| {
            let t0 = Instant::now();
            let parallel = extractor.extract_batch(&docs);
            let parallel_ms = t0.elapsed().as_secs_f64() * 1000.0;
            let t1 = Instant::now();
            let sequential = extractor.extract_batch_sequential(&docs);
            let sequential_ms = t1.elapsed().as_secs_f64() * 1000.0;
            BatchResult {
                method: label.to_string(),
                documents: docs.len(),
                parallel_ms,
                sequential_ms,
                docs_per_second: docs.len() as f64 / (parallel_ms / 1000.0).max(1e-9),
                results_match: parallel == sequential,
                ok_documents: parallel.iter().filter(|r| r.is_ok()).count(),
            }
        })
        .collect()
}

/// Renders the batch report.
pub fn render(scale: &Scale) -> String {
    let results = run(scale);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.method.clone(),
                r.documents.to_string(),
                format!("{:.1}", r.parallel_ms),
                format!("{:.1}", r.sequential_ms),
                format!("{:.0}", r.docs_per_second),
                r.results_match.to_string(),
                r.ok_documents.to_string(),
            ]
        })
        .collect();
    format!(
        "== Batch extraction over archive snapshots (unified Extractor API) ==\n{}",
        render_table(
            &[
                "method",
                "documents",
                "batch ms",
                "sequential ms",
                "docs/s",
                "parallel == sequential",
                "ok"
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_paths_agree_for_every_method() {
        let results = run(&Scale::tiny());
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(
                r.documents > 10,
                "{} saw only {} docs",
                r.method,
                r.documents
            );
            assert!(r.results_match, "{} parallel != sequential", r.method);
            assert!(r.ok_documents == r.documents, "{} had failures", r.method);
        }
        assert!(render(&Scale::tiny()).contains("Extractor"));
    }
}
