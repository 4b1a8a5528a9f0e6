//! One module per table / figure of the paper's evaluation, plus the shared
//! plumbing they use.

pub mod batch;
pub mod change_rate;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod maintenance;
pub mod noise_real;
pub mod params_report;
pub mod serve;
pub mod sota_dalvi;
pub mod sota_weir;
pub mod table1;
pub mod table2;
pub mod timing;

use crate::robustness::{run_robustness_standard, BreakReason, RobustnessOutcome};
use crate::scale::Scale;
use serde::{Deserialize, Serialize};
use wi_induction::config::TextPolicy;
use wi_induction::{InductionConfig, Sample, WrapperInducer};
use wi_scoring::QueryInstance;
use wi_webgen::date::Day;
use wi_webgen::tasks::WrapperTask;
use wi_xpath::{parse_query, Query};

/// A unique scratch directory for one run's persisted registry, tagged with
/// the experiment's name.
#[expect(
    clippy::disallowed_methods,
    reason = "the process id keeps concurrent experiment runs out of each other's temp directories"
)]
fn registry_scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "wi-eval-{tag}-registry-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The induction configuration the evaluation uses for a task: the paper's
/// defaults, with text predicates restricted to template labels (Section 6.2
/// excludes volatile data text).
pub fn induction_config_for(task: &WrapperTask, k: usize) -> InductionConfig {
    InductionConfig::default()
        .with_k(k)
        .with_text_policy(TextPolicy::TemplateOnly(task.template_labels(Day(0))))
}

/// Induces the ranked wrapper candidates for a task from its first snapshot.
pub fn induce_for_task(task: &WrapperTask, k: usize) -> Vec<QueryInstance> {
    let (doc, targets) = task.page_with_targets(Day(0));
    if targets.is_empty() {
        return Vec::new();
    }
    let inducer = WrapperInducer::new(induction_config_for(task, k));
    let sample = Sample::from_root(&doc, &targets);
    inducer.induce(&[sample])
}

/// The per-task result of a robustness comparison run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskRobustness {
    /// Task identifier (`site/Role`).
    pub task_id: String,
    /// Top-ranked induced expression (textual), if induction succeeded.
    pub induced_expression: Option<String>,
    /// Outcome of the induced wrapper.
    pub induced: Option<RobustnessOutcome>,
    /// Outcome of the human wrapper.
    pub human: RobustnessOutcome,
    /// Outcome of the canonical wrapper.
    pub canonical: RobustnessOutcome,
    /// Number of target nodes on the first snapshot.
    pub target_count: usize,
}

/// Aggregate statistics over the tasks of a robustness experiment (one of
/// Figures 3 / 4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Per-task outcomes.
    pub tasks: Vec<TaskRobustness>,
    /// Survival-day histogram buckets for induced / human / canonical.
    pub histogram: Vec<(String, usize, usize, usize)>,
    /// Mean survival days (induced, human, canonical).
    pub mean_days: (f64, f64, f64),
    /// Median survival days (induced, human, canonical).
    pub median_days: (f64, f64, f64),
    /// Break-reason counts of the induced wrappers.
    pub induced_break_reasons: Vec<(String, usize)>,
    /// Fraction of tasks where the induced wrapper survives at least as long
    /// as the human wrapper.
    pub induced_at_least_human: f64,
    /// Robustness in the paper's sense: fraction of tasks with a robustly
    /// wrappable target (human wrapper survives > 0 days) where the induced
    /// wrapper also survives > 0 days.
    pub robust_fraction: f64,
}

/// Runs the robustness comparison (induced vs human vs canonical) over a set
/// of tasks — the engine behind Figures 3 and 4.
pub fn robustness_experiment(tasks: &[WrapperTask], scale: &Scale) -> RobustnessReport {
    let mut results: Vec<TaskRobustness> = Vec::new();
    for task in tasks {
        let (doc, targets) = task.page_with_targets(Day(0));
        if targets.is_empty() {
            continue;
        }
        let induced = induce_for_task(task, scale.k);
        let induced_query: Option<Query> = induced.first().map(|q| q.query.clone());
        let human_query = match parse_query(&task.human_wrapper) {
            Ok(q) => q,
            Err(_) => continue,
        };
        let canonical = wi_baselines::CanonicalWrapper::induce(&doc, &targets);

        let induced_outcome = induced_query
            .as_ref()
            .map(|q| run_robustness_standard(task, q, scale.snapshot_interval));
        let human_outcome = run_robustness_standard(task, &human_query, scale.snapshot_interval);
        let canonical_outcome = run_robustness_standard(task, &canonical, scale.snapshot_interval);

        results.push(TaskRobustness {
            task_id: task.id(),
            induced_expression: induced_query.map(|q| q.to_string()),
            induced: induced_outcome,
            human: human_outcome,
            canonical: canonical_outcome,
            target_count: targets.len(),
        });
    }

    summarise(results)
}

fn summarise(tasks: Vec<TaskRobustness>) -> RobustnessReport {
    let induced_days: Vec<i64> = tasks
        .iter()
        .filter_map(|t| t.induced.as_ref().map(|o| o.valid_days))
        .collect();
    let human_days: Vec<i64> = tasks.iter().map(|t| t.human.valid_days).collect();
    let canonical_days: Vec<i64> = tasks.iter().map(|t| t.canonical.valid_days).collect();

    let buckets = [
        (0i64, 100i64),
        (100, 400),
        (400, 800),
        (800, 1500),
        (1500, 4000),
    ];
    let hist_i = crate::report::day_histogram(&induced_days, &buckets);
    let hist_h = crate::report::day_histogram(&human_days, &buckets);
    let hist_c = crate::report::day_histogram(&canonical_days, &buckets);
    let histogram = hist_i
        .iter()
        .zip(hist_h.iter())
        .zip(hist_c.iter())
        .map(|((i, h), c)| (i.0.clone(), i.1, h.1, c.1))
        .collect();

    let mut reason_counts: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    for t in &tasks {
        if let Some(o) = &t.induced {
            *reason_counts.entry(format!("{:?}", o.reason)).or_insert(0) += 1;
        }
    }

    let at_least = tasks
        .iter()
        .filter(|t| {
            t.induced
                .as_ref()
                .map(|o| o.valid_days >= t.human.valid_days)
                .unwrap_or(false)
        })
        .count();
    let wrappable = tasks
        .iter()
        .filter(|t| t.human.valid_days > 0 || t.human.reason == BreakReason::SurvivedFullPeriod)
        .count();
    let robust = tasks
        .iter()
        .filter(|t| {
            (t.human.valid_days > 0 || t.human.reason == BreakReason::SurvivedFullPeriod)
                && t.induced
                    .as_ref()
                    .map(|o| o.valid_days > 0)
                    .unwrap_or(false)
        })
        .count();

    RobustnessReport {
        mean_days: (
            crate::report::mean(&induced_days),
            crate::report::mean(&human_days),
            crate::report::mean(&canonical_days),
        ),
        median_days: (
            crate::report::median(&induced_days),
            crate::report::median(&human_days),
            crate::report::median(&canonical_days),
        ),
        induced_break_reasons: reason_counts.into_iter().collect(),
        induced_at_least_human: at_least as f64 / tasks.len().max(1) as f64,
        robust_fraction: robust as f64 / wrappable.max(1) as f64,
        histogram,
        tasks,
    }
}

impl RobustnessReport {
    /// Renders the report as text (the "figure" in tabular form).
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("== {title} ==\n");
        out.push_str(&format!("tasks evaluated: {}\n", self.tasks.len()));
        out.push_str(&format!(
            "mean valid days    induced {:>7.1}  human {:>7.1}  canonical {:>7.1}\n",
            self.mean_days.0, self.mean_days.1, self.mean_days.2
        ));
        out.push_str(&format!(
            "median valid days  induced {:>7.1}  human {:>7.1}  canonical {:>7.1}\n",
            self.median_days.0, self.median_days.1, self.median_days.2
        ));
        out.push_str(&format!(
            "induced >= human in {} of cases; robust fraction {}\n",
            crate::report::pct(self.induced_at_least_human),
            crate::report::pct(self.robust_fraction)
        ));
        out.push_str("survival histogram (days: induced / human / canonical):\n");
        let rows: Vec<Vec<String>> = self
            .histogram
            .iter()
            .map(|(b, i, h, c)| vec![b.clone(), i.to_string(), h.to_string(), c.to_string()])
            .collect();
        out.push_str(&crate::report::render_table(
            &["bucket", "induced", "human", "canonical"],
            &rows,
        ));
        out.push_str("induced break reasons:\n");
        for (reason, count) in &self.induced_break_reasons {
            out.push_str(&format!("  {reason}: {count}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_webgen::datasets;

    #[test]
    fn robustness_experiment_smoke() {
        let tasks = datasets::single_node_tasks(3);
        let report = robustness_experiment(&tasks, &Scale::tiny());
        assert!(!report.tasks.is_empty());
        assert!(report.render("smoke").contains("mean valid days"));
        for t in &report.tasks {
            assert!(
                t.induced_expression.is_some(),
                "induction failed for {}",
                t.task_id
            );
        }
    }

    #[test]
    fn induce_for_task_produces_exact_wrapper() {
        let tasks = datasets::single_node_tasks(2);
        for task in &tasks {
            let instances = induce_for_task(task, 5);
            assert!(!instances.is_empty());
            assert!(instances[0].is_exact(), "{} not exact", instances[0].query);
        }
    }
}
