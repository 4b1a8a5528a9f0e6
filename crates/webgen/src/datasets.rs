//! The concrete datasets behind every experiment in the paper's evaluation.
//!
//! | paper dataset | constructor |
//! |---|---|
//! | 50+ single-node wrapper tasks over >50 sites, >20 verticals | [`single_node_tasks`] |
//! | 50 multi-node wrapper tasks (3–59 targets) | [`multi_node_tasks`] |
//! | 15 bi-monthly IMDB director snapshots (comparison with Dalvi et al.) | [`imdb_director_task`] |
//! | 5 × 10 same-template hotel pages from 2012 (comparison with WEIR) | [`hotel_corpus`] |
//! | 100 multi-node samples for negative noise | [`negative_noise_samples`] |
//! | 50 multi-node samples for positive noise | [`positive_noise_samples`] |
//! | 10 product-listing pages for the real-life NER experiment | [`ner_pages`] |

use crate::epoch::EvolutionProfile;
use crate::site::{PageKind, Site};
use crate::style::Vertical;
use crate::tasks::{TargetRole, WrapperTask};

/// Default master seed used by the experiment harness.
pub const DEFAULT_SEED: u64 = 20160626; // SIGMOD'16 conference date

/// The single-node wrapper tasks (paper Section 6.2, Figure 3): one target
/// node per task, spread over all verticals and the single-node roles the
/// paper mentions (form elements, menu entries, next links, data attributes).
pub fn single_node_tasks(count: usize) -> Vec<WrapperTask> {
    let mut tasks = Vec::new();
    let mut site_index = 0u64;
    while tasks.len() < count {
        let vertical = Vertical::ALL[(site_index as usize) % Vertical::ALL.len()];
        let site = Site::new(vertical, site_index);
        let role = TargetRole::SINGLE[(site_index as usize) % TargetRole::SINGLE.len()];
        let role = if role == TargetRole::SearchInput && !site.style.has_search {
            TargetRole::MainHeadline
        } else {
            role
        };
        tasks.push(WrapperTask::new(site, 0, PageKind::Detail, role));
        site_index += 1;
    }
    tasks
}

/// The multi-node wrapper tasks (paper Section 6.2, Figure 4): between 3 and
/// ~60 target nodes per task.
pub fn multi_node_tasks(count: usize) -> Vec<WrapperTask> {
    let mut tasks = Vec::new();
    let mut site_index = 100u64;
    while tasks.len() < count {
        let vertical = Vertical::ALL[(site_index as usize) % Vertical::ALL.len()];
        let site = Site::new(vertical, site_index);
        let role = TargetRole::MULTI[(site_index as usize) % TargetRole::MULTI.len()];
        tasks.push(WrapperTask::new(site, 0, PageKind::Detail, role));
        site_index += 1;
    }
    tasks
}

/// The IMDB-style movie site used to replicate the experiment of Dalvi et
/// al. \[6\]: director names on movie detail pages, tracked over bi-monthly
/// snapshots between 2004 and 2008.
pub fn imdb_director_task() -> WrapperTask {
    // A movie site with Microdata markup, like the real IMDB of that era's
    // later snapshots; the seed is chosen deterministically by scanning for
    // a movie site whose style uses Microdata and a heading label style.
    let site = (0..50)
        .map(|i| Site::new(Vertical::Movies, 1000 + i))
        .find(|s| s.style.uses_microdata && s.style.has_search)
        .expect("a microdata movie site exists in the first 50 candidates");
    WrapperTask::new(site, 0, PageKind::Detail, TargetRole::PrimaryValue)
}

/// The hotel corpus for the WEIR comparison: `sets` groups of `pages_per_set`
/// detail pages that follow the same template (same site), as they looked in
/// 2012, with the site evolving until 2016.
pub fn hotel_corpus(sets: usize, pages_per_set: usize) -> Vec<Vec<WrapperTask>> {
    let profile = EvolutionProfile {
        // The WEIR comparison runs 2012–2016, so the timeline must keep
        // generating events beyond the default observation window.
        window: (-1500, 3100),
        ..Default::default()
    };
    // Only sites whose primary field is still present in 2012 qualify (the
    // wrappers are induced on 2012 pages).
    let induction_day = crate::date::Day::from_ymd(2012, 1, 1);
    (2000u64..)
        .map(|i| Site::with_profile(Vertical::Travel, i, &profile))
        .filter(|site| {
            site.timeline
                .epoch_at(induction_day)
                .has_block(crate::epoch::BlockKind::PrimaryField)
        })
        .take(sets)
        .map(|site| {
            (0..pages_per_set)
                .map(|page| {
                    WrapperTask::new(
                        site.clone(),
                        page as u64,
                        PageKind::Detail,
                        TargetRole::PrimaryValue,
                    )
                })
                .collect()
        })
        .collect()
}

/// Samples for the negative-noise experiments (N1/N2): multi-node tasks whose
/// target lists are dropped from.  The paper uses 100 samples matching 3–59
/// nodes (median 6).
pub fn negative_noise_samples(count: usize) -> Vec<WrapperTask> {
    let mut tasks = Vec::new();
    let mut site_index = 300u64;
    let roles = [
        TargetRole::ListTitles,
        TargetRole::ListRows,
        TargetRole::ListPersons,
        TargetRole::SecondaryPeople,
        TargetRole::RelatedLinks,
    ];
    while tasks.len() < count {
        let vertical = Vertical::ALL[(site_index as usize) % Vertical::ALL.len()];
        let site = Site::new(vertical, site_index);
        let role = roles[(site_index as usize) % roles.len()];
        tasks.push(WrapperTask::new(site, 0, PageKind::Detail, role));
        site_index += 1;
    }
    tasks
}

/// Samples for the positive-noise experiments (N3/N4).  The paper uses 50
/// samples matching 2–100 nodes (median 20); our synthetic lists are shorter
/// (4–12 items), which EXPERIMENTS.md records as a deviation.
pub fn positive_noise_samples(count: usize) -> Vec<WrapperTask> {
    let mut tasks = Vec::new();
    let mut site_index = 500u64;
    let roles = [
        TargetRole::ListTitles,
        TargetRole::ListRows,
        TargetRole::ListPrices,
        TargetRole::NavEntries,
    ];
    while tasks.len() < count {
        let vertical = Vertical::ALL[(site_index as usize) % Vertical::ALL.len()];
        let site = Site::new(vertical, site_index);
        let role = roles[(site_index as usize) % roles.len()];
        tasks.push(WrapperTask::new(site, 0, PageKind::Listing, role));
        site_index += 1;
    }
    tasks
}

/// The product-listing pages used for the real-life NER noise experiment
/// (Section 6.4): shopping listing pages whose item lists carry persons,
/// prices and dates, with a person-faceted sidebar.
pub fn ner_pages(count: usize) -> Vec<Site> {
    (0..count as u64)
        .map(|i| Site::new(Vertical::Shopping, 700 + i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Day;

    #[test]
    fn single_node_tasks_cover_verticals_and_have_one_target() {
        let tasks = single_node_tasks(53);
        assert_eq!(tasks.len(), 53);
        let verticals: std::collections::HashSet<_> =
            tasks.iter().map(|t| t.site.vertical).collect();
        assert!(verticals.len() >= 10, "only {} verticals", verticals.len());
        let sites: std::collections::HashSet<_> = tasks.iter().map(|t| t.site.id.clone()).collect();
        assert!(sites.len() >= 50);
        for task in tasks.iter().take(12) {
            let (_, targets) = task.page_with_targets(Day(0));
            assert_eq!(
                targets.len(),
                1,
                "task {} has {} targets",
                task.id(),
                targets.len()
            );
        }
    }

    #[test]
    fn multi_node_tasks_have_multiple_targets() {
        let tasks = multi_node_tasks(50);
        assert_eq!(tasks.len(), 50);
        for task in tasks.iter().take(12) {
            let (_, targets) = task.page_with_targets(Day(0));
            assert!(
                targets.len() >= 3,
                "task {} has only {} targets",
                task.id(),
                targets.len()
            );
        }
    }

    #[test]
    fn imdb_task_is_a_director_task_with_microdata() {
        let task = imdb_director_task();
        assert_eq!(task.role, TargetRole::PrimaryValue);
        assert!(task.site.style.uses_microdata);
        let (doc, targets) = task.page_with_targets(Day::from_ymd(2004, 1, 1));
        assert_eq!(targets.len(), 1);
        assert_eq!(doc.tag_name(targets[0]), Some("span"));
    }

    #[test]
    fn hotel_corpus_shape() {
        let corpus = hotel_corpus(5, 10);
        assert_eq!(corpus.len(), 5);
        for set in &corpus {
            assert_eq!(set.len(), 10);
            // All pages of a set share the template (same site id).
            let ids: std::collections::HashSet<_> = set.iter().map(|t| t.site.id.clone()).collect();
            assert_eq!(ids.len(), 1);
            // …but show different entities.
            let (_, t0) = set[0].page_with_targets(Day::from_ymd(2012, 1, 1));
            let (_, t1) = set[1].page_with_targets(Day::from_ymd(2012, 1, 1));
            assert_eq!(t0.len(), 1);
            assert_eq!(t1.len(), 1);
        }
    }

    #[test]
    fn noise_sample_sizes() {
        let neg = negative_noise_samples(20);
        assert_eq!(neg.len(), 20);
        let sizes: Vec<usize> = neg
            .iter()
            .take(10)
            .map(|t| t.page_with_targets(Day(0)).1.len())
            .collect();
        assert!(sizes.iter().all(|&s| s >= 2), "sizes {sizes:?}");
        let pos = positive_noise_samples(10);
        assert_eq!(pos.len(), 10);
    }

    #[test]
    fn ner_pages_are_shopping_sites() {
        let pages = ner_pages(10);
        assert_eq!(pages.len(), 10);
        assert!(pages.iter().all(|s| s.vertical == Vertical::Shopping));
    }
}
