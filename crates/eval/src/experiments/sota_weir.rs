//! Section 6.1 — comparison with WEIR \[2\]: robustness of induced expressions
//! for hotel detail pages over the 2012–2016 period.
//!
//! WEIR gets 10 same-template pages from 2012 and emits an unranked set of
//! expressions; our system gets a single page.  Each expression's survival is
//! the fraction of the 2012–2016 period during which it still selects the
//! intended value.

use crate::report::{pct, render_table};
use crate::scale::Scale;
use serde::{Deserialize, Serialize};
use wi_baselines::weir::{WeirInducer, WeirPage};
use wi_webgen::datasets::hotel_corpus;
use wi_webgen::date::Day;
use wi_xpath::{evaluate_with, EvalContext, Query};

/// Aggregated comparison result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeirComparison {
    /// Average survival (fraction of the period) of our top-10 expressions.
    pub ours_top10_avg: f64,
    /// Average survival of 10 WEIR expressions.
    pub weir_top10_avg: f64,
    /// Survival of the best expression of ours / WEIR, averaged over sets.
    pub ours_best: f64,
    /// Survival of WEIR's best expression.
    pub weir_best: f64,
    /// Survival of our top-ranked (rank-1) expression.
    pub ours_top_ranked: f64,
    /// Fraction of sets where our best expression survives the whole period.
    pub ours_fully_robust: f64,
    /// Fraction of sets where WEIR's best expression survives the whole
    /// period.
    pub weir_fully_robust: f64,
    /// Number of template sets evaluated.
    pub sets: usize,
}

/// Runs the WEIR comparison.
pub fn run(scale: &Scale) -> WeirComparison {
    let corpus = hotel_corpus(scale.weir_sets, scale.weir_pages_per_set);
    let induction_day = Day::from_ymd(2012, 1, 1);
    let end_day = Day::from_ymd(2016, 1, 1);
    let check_interval = 60i64;

    let mut ours_top10 = Vec::new();
    let mut weir_top10 = Vec::new();
    let mut ours_best = Vec::new();
    let mut weir_best = Vec::new();
    let mut ours_rank1 = Vec::new();
    let mut ours_full = 0usize;
    let mut weir_full = 0usize;
    let mut sets_evaluated = 0usize;

    for set in &corpus {
        // Render the 2012 pages with their targets.
        let pages: Vec<_> = set
            .iter()
            .map(|t| t.page_with_targets(induction_day))
            .collect();
        if pages.iter().any(|(_, targets)| targets.len() != 1) {
            continue;
        }
        sets_evaluated += 1;

        // WEIR sees all pages of the template.
        let weir_input: Vec<WeirPage<'_>> = pages
            .iter()
            .map(|(doc, targets)| WeirPage {
                doc,
                target: targets[0],
            })
            .collect();
        let weir_expressions = WeirInducer::default().induce(&weir_input);

        // Our system sees a single page.
        let task = &set[0];
        let config = super::induction_config_for(task, 10);
        let sample = wi_induction::Sample::from_root(&pages[0].0, &pages[0].1);
        let ours: Vec<Query> = wi_induction::induce(&[sample], &config)
            .into_iter()
            .map(|qi| qi.query)
            .collect();

        // Survival of an expression: fraction of the period it keeps
        // selecting the intended (single) node on the first page of the set.
        let survival = |q: &Query| -> f64 {
            let mut cx = EvalContext::new();
            let mut good = 0usize;
            let mut total = 0usize;
            let mut day = induction_day;
            while day <= end_day {
                let (doc, truth) = task.page_with_targets(day);
                if truth.len() == 1 {
                    total += 1;
                    if evaluate_with(&mut cx, q, &doc, doc.root()) == truth {
                        good += 1;
                    }
                }
                day = day.plus(check_interval);
            }
            good as f64 / total.max(1) as f64
        };

        let ours_survivals: Vec<f64> = ours.iter().take(10).map(&survival).collect();
        let weir_survivals: Vec<f64> = weir_expressions.iter().take(10).map(&survival).collect();

        let avg = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let best = |v: &[f64]| v.iter().copied().fold(0.0f64, f64::max);

        ours_top10.push(avg(&ours_survivals));
        weir_top10.push(avg(&weir_survivals));
        ours_best.push(best(&ours_survivals));
        weir_best.push(best(&weir_survivals));
        ours_rank1.push(ours_survivals.first().copied().unwrap_or(0.0));
        if best(&ours_survivals) >= 0.999 {
            ours_full += 1;
        }
        if best(&weir_survivals) >= 0.999 {
            weir_full += 1;
        }
    }

    let avg = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    WeirComparison {
        ours_top10_avg: avg(&ours_top10),
        weir_top10_avg: avg(&weir_top10),
        ours_best: avg(&ours_best),
        weir_best: avg(&weir_best),
        ours_top_ranked: avg(&ours_rank1),
        ours_fully_robust: ours_full as f64 / sets_evaluated.max(1) as f64,
        weir_fully_robust: weir_full as f64 / sets_evaluated.max(1) as f64,
        sets: sets_evaluated,
    }
}

/// Renders the comparison.
pub fn render(scale: &Scale) -> String {
    let r = run(scale);
    let rows = vec![
        vec![
            "top-10 average survival".to_string(),
            pct(r.ours_top10_avg),
            pct(r.weir_top10_avg),
        ],
        vec![
            "best expression survival".to_string(),
            pct(r.ours_best),
            pct(r.weir_best),
        ],
        vec![
            "top-ranked expression survival".to_string(),
            pct(r.ours_top_ranked),
            String::new(),
        ],
        vec![
            "fully robust (whole period)".to_string(),
            pct(r.ours_fully_robust),
            pct(r.weir_fully_robust),
        ],
    ];
    format!(
        "== Section 6.1: comparison with WEIR [2] on same-template hotel pages ({} sets, 2012-2016) ==\n{}",
        r.sets,
        render_table(&["measure", "ours", "WEIR"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weir_comparison_runs_and_we_are_not_worse() {
        let r = run(&Scale::tiny());
        assert!(r.sets >= 1);
        assert!((0.0..=1.0).contains(&r.ours_top10_avg));
        assert!((0.0..=1.0).contains(&r.weir_top10_avg));
        // The qualitative claim of the paper: our expressions are at least as
        // robust as WEIR's.
        assert!(r.ours_best + 1e-9 >= r.weir_best * 0.9);
        assert!(render(&Scale::tiny()).contains("WEIR"));
    }
}
