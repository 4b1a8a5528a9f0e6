//! Wrapper tasks: what to extract from which site, with a ground-truth
//! oracle and a hand-written ("human") reference wrapper.
//!
//! A [`WrapperTask`] corresponds to one row of the paper's test datasets: a
//! URL (here: a site + page), the set of nodes a wrapper should select
//! (single node or a list), a human-crafted XPath expression written against
//! the first snapshot, and the machinery to re-identify the intended nodes on
//! later snapshots so robustness can be judged.
//!
//! The ground truth is value-based: because all page data is a deterministic
//! function of (site, page, date), the oracle recomputes the expected values
//! and finds the innermost elements carrying them — mirroring how the paper
//! checks "a pre-specified predicate on the nodes matched" and how automated
//! annotators locate known instances on a page.

use crate::date::Day;
use crate::epoch::BlockKind;
use crate::site::{PageKind, PageView, Site};
use crate::style::{LabelStyle, ListKind, Vertical};
use serde::{Deserialize, Serialize};
use wi_dom::{Document, NodeId};

/// What a task extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TargetRole {
    /// The header search input (single node).
    SearchInput,
    /// The main `<h1>` headline (single node).
    MainHeadline,
    /// The value of the primary label–value field, e.g. the director name
    /// (single node).
    PrimaryValue,
    /// The entity price in the meta row (single node).
    PriceValue,
    /// The rating in the meta row (single node).
    RatingValue,
    /// The pagination "Next" link (single node).
    NextLink,
    /// The site logo image (single node).
    LogoImage,
    /// The secondary people ("Stars:") value nodes (multiple nodes).
    SecondaryPeople,
    /// The title elements of the main item list (multiple nodes).
    ListTitles,
    /// The person elements of the main item list (multiple nodes).
    ListPersons,
    /// The price elements of the main item list (multiple nodes).
    ListPrices,
    /// The row container elements of the main item list (multiple nodes).
    ListRows,
    /// The sidebar related links (multiple nodes).
    RelatedLinks,
    /// The navigation menu links (multiple nodes).
    NavEntries,
}

impl TargetRole {
    /// Roles that select a single node.
    pub const SINGLE: &'static [TargetRole] = &[
        TargetRole::SearchInput,
        TargetRole::MainHeadline,
        TargetRole::PrimaryValue,
        TargetRole::PriceValue,
        TargetRole::RatingValue,
        TargetRole::NextLink,
        TargetRole::LogoImage,
    ];

    /// Roles that select multiple nodes.
    pub const MULTI: &'static [TargetRole] = &[
        TargetRole::SecondaryPeople,
        TargetRole::ListTitles,
        TargetRole::ListPersons,
        TargetRole::ListPrices,
        TargetRole::ListRows,
        TargetRole::RelatedLinks,
        TargetRole::NavEntries,
    ];

    /// Returns `true` for multi-node roles.
    pub fn is_multi(self) -> bool {
        TargetRole::MULTI.contains(&self)
    }

    /// The template block this role lives in (used to decide whether the
    /// target has been removed from the page).
    pub fn block(self) -> BlockKind {
        match self {
            TargetRole::SearchInput => BlockKind::SearchForm,
            TargetRole::PrimaryValue => BlockKind::PrimaryField,
            TargetRole::NextLink => BlockKind::NextLink,
            TargetRole::SecondaryPeople => BlockKind::PeopleRow,
            TargetRole::ListTitles
            | TargetRole::ListPersons
            | TargetRole::ListPrices
            | TargetRole::ListRows => BlockKind::MainList,
            TargetRole::RelatedLinks => BlockKind::Sidebar,
            // Headline, price, rating, logo and navigation never disappear.
            TargetRole::MainHeadline
            | TargetRole::PriceValue
            | TargetRole::RatingValue
            | TargetRole::LogoImage
            | TargetRole::NavEntries => BlockKind::MainList, // placeholder, see `can_disappear`
        }
    }

    /// Whether this role's targets can be removed by the evolution model.
    pub fn can_disappear(self) -> bool {
        !matches!(
            self,
            TargetRole::MainHeadline
                | TargetRole::PriceValue
                | TargetRole::RatingValue
                | TargetRole::LogoImage
                | TargetRole::NavEntries
        )
    }
}

/// One evaluation task.
#[derive(Debug, Clone)]
pub struct WrapperTask {
    /// The site the task runs against.
    pub site: Site,
    /// The page of the site.
    pub page_index: u64,
    /// Detail or listing page.
    pub kind: PageKind,
    /// What to extract.
    pub role: TargetRole,
    /// The hand-written reference wrapper (textual XPath).
    pub human_wrapper: String,
}

impl WrapperTask {
    /// Creates a task, deriving the human wrapper from the site's style.
    pub fn new(site: Site, page_index: u64, kind: PageKind, role: TargetRole) -> WrapperTask {
        let human_wrapper = human_wrapper(&site, role);
        WrapperTask {
            site,
            page_index,
            kind,
            role,
            human_wrapper,
        }
    }

    /// A short identifier for reports.
    pub fn id(&self) -> String {
        format!("{}/{:?}", self.site.id, self.role)
    }

    /// Renders the task's page at `day` and returns it with the ground-truth
    /// target nodes.
    pub fn page_with_targets(&self, day: Day) -> (Document, Vec<NodeId>) {
        let view = self.site.page_view(self.page_index, day, self.kind);
        let doc = self.site.render_view(&view);
        let targets = find_targets(&doc, &view, self.role);
        (doc, targets)
    }

    /// Ground-truth target nodes in an already rendered document.
    pub fn targets_in(&self, doc: &Document, day: Day) -> Vec<NodeId> {
        let view = self.site.page_view(self.page_index, day, self.kind);
        find_targets(doc, &view, self.role)
    }

    /// Whether the intended targets still exist on the page at `day`.
    pub fn targets_present(&self, day: Day) -> bool {
        if self.role.can_disappear() {
            self.site
                .timeline
                .epoch_at(day)
                .has_block(self.role.block())
        } else {
            true
        }
    }

    /// The template labels of the task's page (for template-only induction).
    pub fn template_labels(&self, day: Day) -> Vec<String> {
        self.site.template_labels(self.page_index, day)
    }
}

/// Finds the ground-truth nodes for a role in a rendered page.
pub fn find_targets(doc: &Document, view: &PageView, role: TargetRole) -> Vec<NodeId> {
    let data = &view.data;
    match role {
        TargetRole::SearchInput => doc
            .elements_by_tag("input")
            .into_iter()
            .filter(|&n| doc.attribute(n, "name") == Some("q"))
            .collect(),
        TargetRole::LogoImage => doc
            .elements_by_tag("img")
            .into_iter()
            .filter(|&n| doc.attribute(n, "id") == Some("logo"))
            .collect(),
        TargetRole::NextLink => innermost_with_texts(doc, &["Next".to_string()], Some("a")),
        TargetRole::MainHeadline => {
            innermost_with_texts(doc, std::slice::from_ref(&data.entity_title), Some("h1"))
        }
        TargetRole::PrimaryValue => innermost_with_texts(doc, &[data.fields[0].1.clone()], None),
        TargetRole::PriceValue => {
            innermost_with_texts(doc, std::slice::from_ref(&data.price), None)
        }
        TargetRole::RatingValue => {
            innermost_with_texts(doc, std::slice::from_ref(&data.rating), None)
        }
        TargetRole::SecondaryPeople => {
            // The same names may appear elsewhere (e.g. a sidebar facet on
            // shopping sites); the intended targets are the ones inside the
            // "Stars:" row.
            innermost_with_texts(doc, &data.secondary_people, None)
                .into_iter()
                .filter(|&n| {
                    doc.ancestors(n)
                        .any(|a| doc.normalized_str(a).starts_with("Stars:"))
                })
                .collect()
        }
        TargetRole::ListTitles => {
            let titles: Vec<String> = shown_items(view).map(|i| i.title.clone()).collect();
            innermost_with_texts(doc, &titles, None)
        }
        TargetRole::ListPersons => {
            let persons: Vec<String> = shown_items(view).map(|i| i.person.clone()).collect();
            innermost_with_texts(doc, &persons, None)
        }
        TargetRole::ListPrices => {
            let prices: Vec<String> = shown_items(view).map(|i| i.price.clone()).collect();
            innermost_with_texts(doc, &prices, None)
        }
        TargetRole::ListRows => {
            let titles: Vec<String> = shown_items(view).map(|i| i.title.clone()).collect();
            let title_nodes = innermost_with_texts(doc, &titles, None);
            let mut rows: Vec<NodeId> = title_nodes
                .into_iter()
                .filter_map(|n| enclosing_row(doc, n))
                .collect();
            doc.sort_document_order(&mut rows);
            rows
        }
        TargetRole::RelatedLinks => {
            // Sidebar entries: related titles, or people for shopping sites.
            let entries: Vec<String> = if matches!(view_vertical(view), Some(Vertical::Shopping)) {
                data.secondary_people.clone()
            } else {
                data.related.clone()
            };
            // Restrict to links living under the box headed by the template
            // label "Related" so value collisions elsewhere on the page
            // (e.g. the Stars row on shopping sites) cannot leak in.
            innermost_with_texts(doc, &entries, Some("a"))
                .into_iter()
                .filter(|&link| {
                    doc.ancestors(link).any(|anc| {
                        doc.element_children(anc).any(|c| {
                            doc.tag_name(c) == Some("h3") && doc.normalized_str(c) == "Related"
                        })
                    })
                })
                .collect()
        }
        TargetRole::NavEntries => {
            let sections = [
                "Home",
                "World",
                "Business",
                "Technology",
                "Science",
                "Health",
                "Sports",
                "Arts",
                "Style",
                "Travel",
                "Video",
                "Archive",
            ];
            let labels: Vec<String> = sections.iter().map(|s| s.to_string()).collect();
            innermost_with_texts(doc, &labels, Some("a"))
        }
    }
}

fn view_vertical(view: &PageView) -> Option<Vertical> {
    // The vertical is not stored on the view; infer it from the primary
    // label, which is vertical-specific.
    match view.data.fields.first().map(|(l, _)| l.as_str()) {
        Some("Brand:") => Some(Vertical::Shopping),
        _ => None,
    }
}

fn shown_items(view: &PageView) -> impl Iterator<Item = &crate::data::ListItem> {
    view.data.list_items.iter().take(view.shown_items)
}

/// The innermost elements whose normalized text equals one of `values`
/// (optionally restricted to a tag), in document order.
fn innermost_with_texts(doc: &Document, values: &[String], tag: Option<&str>) -> Vec<NodeId> {
    if values.is_empty() {
        return Vec::new();
    }
    let value_set: std::collections::HashSet<&str> = values.iter().map(|s| s.as_str()).collect();
    let mut matches: Vec<NodeId> = doc
        .descendants(doc.root())
        .filter(|&n| doc.is_element(n))
        .filter(|&n| tag.is_none_or(|t| doc.tag_name(n) == Some(t)))
        .filter(|&n| value_set.contains(doc.normalized_str(n)))
        .collect();
    // Keep only innermost matches (drop any match that has another match as
    // a descendant).
    let match_set: std::collections::HashSet<NodeId> = matches.iter().copied().collect();
    matches.retain(|&n| !doc.descendants(n).any(|d| d != n && match_set.contains(&d)));
    matches
}

/// Walks up from a node to the enclosing list row (`li`, `tr`, or grid cell).
fn enclosing_row(doc: &Document, node: NodeId) -> Option<NodeId> {
    doc.ancestors_or_self(node).find(|&a| {
        matches!(doc.tag_name(a), Some("li") | Some("tr"))
            || doc
                .attribute(a, "class")
                .map(|c| c.contains("-cell"))
                .unwrap_or(false)
    })
}

/// The hand-written reference wrapper for a role on a site, authored the way
/// an expert would against the first snapshot of the page.
pub fn human_wrapper(site: &Site, role: TargetRole) -> String {
    let style = &site.style;
    let container = &style.container_id;
    match role {
        TargetRole::SearchInput => r#"descendant::input[@name="q"]"#.to_string(),
        TargetRole::LogoImage => r#"descendant::img[@id="logo"]"#.to_string(),
        TargetRole::NextLink => r#"descendant::a[@rel="next"]"#.to_string(),
        TargetRole::MainHeadline => {
            format!(r#"descendant::div[@id="{container}"]/descendant::h1"#)
        }
        TargetRole::PrimaryValue => {
            let label = primary_label_for(site.vertical);
            match style.label_style {
                LabelStyle::TitleAttribute => format!(
                    r#"descendant::div[@title="{}"]/descendant::span[@class="itemprop"]"#,
                    label.trim_end_matches(':')
                ),
                _ => {
                    if style.uses_microdata {
                        format!(
                            r#"descendant::div[starts-with(.,"{label}")]/descendant::span[@itemprop="name"]"#
                        )
                    } else {
                        format!(
                            r#"descendant::div[starts-with(.,"{label}")]/descendant::span[@class="itemprop"]"#
                        )
                    }
                }
            }
        }
        TargetRole::PriceValue => format!(
            r#"descendant::div[@id="{container}"]/descendant::span[@class="{}"]"#,
            style.cls("price")
        ),
        TargetRole::RatingValue => format!(
            r#"descendant::div[@id="{container}"]/descendant::span[@class="{}"]"#,
            style.cls("rating")
        ),
        TargetRole::SecondaryPeople => {
            r#"descendant::div[starts-with(.,"Stars:")]/descendant::span"#.to_string()
        }
        TargetRole::ListTitles => format!(
            r#"descendant::div[@class="{}"]/descendant::a[@class="{}"]"#,
            style.cls("list-box"),
            style.cls("item-title")
        ),
        TargetRole::ListPersons => {
            let tag = match style.list_kind {
                ListKind::Table => "td",
                _ => "span",
            };
            format!(
                r#"descendant::{tag}[@class="{}"]"#,
                style.cls("item-person")
            )
        }
        TargetRole::ListPrices => {
            let tag = match style.list_kind {
                ListKind::Table => "td",
                _ => "span",
            };
            format!(r#"descendant::{tag}[@class="{}"]"#, style.cls("item-price"))
        }
        TargetRole::ListRows => match style.list_kind {
            ListKind::UnorderedList => format!(
                r#"descendant::ul[@class="{}"]/child::li"#,
                style.cls("items")
            ),
            ListKind::Table => format!(r#"descendant::tr[@class="{}"]"#, style.cls("item")),
            ListKind::DivGrid => format!(r#"descendant::div[@class="{}"]"#, style.cls("cell")),
        },
        TargetRole::RelatedLinks => format!(
            r#"descendant::ul[@class="{}"]/descendant::a"#,
            style.cls("related")
        ),
        TargetRole::NavEntries => format!(
            r#"descendant::ul[@class="{}"]/descendant::a"#,
            style.cls("nav")
        ),
    }
}

fn primary_label_for(vertical: Vertical) -> &'static str {
    match vertical {
        Vertical::Movies | Vertical::Video => "Director:",
        Vertical::Travel | Vertical::Events | Vertical::RealEstate => "Location:",
        Vertical::Shopping | Vertical::Recipes => "Brand:",
        Vertical::News | Vertical::Reference => "Author:",
        Vertical::Sports | Vertical::Finance | Vertical::Jobs => "Organisation:",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Day;
    use wi_xpath::{evaluate, parse_query};

    fn check_human_matches_ground_truth(vertical: Vertical, index: u64, role: TargetRole) {
        let site = Site::new(vertical, index);
        if role == TargetRole::SearchInput && !site.style.has_search {
            return;
        }
        let kind = PageKind::Detail;
        let task = WrapperTask::new(site, 0, kind, role);
        let (doc, targets) = task.page_with_targets(Day(0));
        assert!(
            !targets.is_empty(),
            "no ground-truth targets for {:?} on {}",
            role,
            task.site.id
        );
        let human = parse_query(&task.human_wrapper)
            .unwrap_or_else(|e| panic!("bad human wrapper {}: {e}", task.human_wrapper));
        let mut selected = evaluate(&human, &doc, doc.root());
        selected.sort_unstable();
        let mut expected = targets.clone();
        expected.sort_unstable();
        assert_eq!(
            selected, expected,
            "human wrapper {} does not match ground truth for {:?} on {}",
            task.human_wrapper, role, task.site.id
        );
    }

    #[test]
    fn human_wrappers_match_ground_truth_on_first_snapshot() {
        for (i, &vertical) in Vertical::ALL.iter().enumerate() {
            for &role in TargetRole::SINGLE {
                check_human_matches_ground_truth(vertical, i as u64, role);
            }
        }
    }

    #[test]
    fn human_multi_wrappers_match_ground_truth() {
        for (i, &vertical) in Vertical::ALL.iter().enumerate() {
            for &role in &[
                TargetRole::SecondaryPeople,
                TargetRole::ListTitles,
                TargetRole::ListRows,
                TargetRole::NavEntries,
            ] {
                check_human_matches_ground_truth(vertical, i as u64 + 20, role);
            }
        }
    }

    #[test]
    fn multi_targets_have_multiple_nodes() {
        let site = Site::new(Vertical::News, 2);
        let task = WrapperTask::new(site, 0, PageKind::Detail, TargetRole::ListTitles);
        let (_, targets) = task.page_with_targets(Day(0));
        assert!(targets.len() >= 3, "got {} targets", targets.len());
    }

    #[test]
    fn ground_truth_tracks_content_drift() {
        let site = Site::new(Vertical::Movies, 4);
        let task = WrapperTask::new(site, 0, PageKind::Detail, TargetRole::ListTitles);
        let (_, t0) = task.page_with_targets(Day(0));
        let (_, t1) = task.page_with_targets(Day(600));
        assert!(!t0.is_empty() && !t1.is_empty());
        // Node identities will differ (different documents); both snapshots
        // must still be locatable.
    }

    #[test]
    fn targets_disappear_with_their_block() {
        use crate::epoch::EvolutionProfile;
        let profile = EvolutionProfile {
            block_removal_prob: 1.0,
            ..Default::default()
        };
        let site = Site::with_profile(Vertical::Travel, 9, &profile);
        let removal = site
            .timeline
            .block_removed_at(BlockKind::PrimaryField)
            .unwrap();
        let task = WrapperTask::new(site, 0, PageKind::Detail, TargetRole::PrimaryValue);
        assert!(task.targets_present(Day(removal.offset() - 1)));
        assert!(!task.targets_present(removal));
        let (_, targets) = task.page_with_targets(removal);
        assert!(targets.is_empty());
    }

    #[test]
    fn innermost_filter_returns_leaf_elements() {
        let site = Site::new(Vertical::Movies, 11);
        let task = WrapperTask::new(site, 0, PageKind::Detail, TargetRole::PrimaryValue);
        let (doc, targets) = task.page_with_targets(Day(0));
        assert_eq!(targets.len(), 1);
        // The innermost element is the value span, not the enclosing link or
        // block div.
        assert_eq!(doc.tag_name(targets[0]), Some("span"));
    }

    #[test]
    fn list_rows_are_row_elements() {
        for index in 0..6 {
            let site = Site::new(Vertical::Sports, index);
            let list_kind = site.style.list_kind;
            let task = WrapperTask::new(site, 0, PageKind::Detail, TargetRole::ListRows);
            let (doc, targets) = task.page_with_targets(Day(0));
            assert!(!targets.is_empty());
            for &t in &targets {
                match list_kind {
                    ListKind::UnorderedList => assert_eq!(doc.tag_name(t), Some("li")),
                    ListKind::Table => assert_eq!(doc.tag_name(t), Some("tr")),
                    ListKind::DivGrid => {
                        assert!(doc.attribute(t, "class").unwrap().contains("-cell"))
                    }
                }
            }
        }
    }

    #[test]
    fn task_ids_are_unique_per_role_and_site() {
        let a = WrapperTask::new(
            Site::new(Vertical::News, 1),
            0,
            PageKind::Detail,
            TargetRole::MainHeadline,
        );
        let b = WrapperTask::new(
            Site::new(Vertical::News, 1),
            0,
            PageKind::Detail,
            TargetRole::NextLink,
        );
        assert_ne!(a.id(), b.id());
    }
}
