//! The **retained naive induction path** — a frozen copy of the full
//! pre-trie, pre-interning induction pipeline, kept as the fixed baseline
//! for `tests/induction_equivalence.rs` and the `induction` benchmark
//! (`BENCH_induction.json`).
//!
//! Everything here reproduces the implementation as it stood before the
//! shared-prefix engine landed, with its original cost profile:
//!
//! * every candidate expression is evaluated **from scratch** through
//!   [`wi_xpath::evaluate_reference`] (per-candidate string comparisons,
//!   fresh buffers per evaluation — the pre-interning evaluator),
//! * `normalize-space` is computed by walking the node's subtree
//!   (`normalize_space(&text_value(n))`), never read from the document's
//!   text index, so the equivalence tests check that index against an
//!   independent oracle,
//! * the Algorithm 2 inner loop clones each combination for its optimistic
//!   pre-check and derives its robustness score twice,
//! * the best-K tables re-render every stored expression on every insert,
//! * the candidate selection sort recomputes scores and renders per
//!   comparison,
//! * per-sample induction runs strictly sequentially.
//!
//! [`induce_reference`] must return **byte-identical** results to
//! [`crate::induce()`] — expressions, counts, scores and order — which the
//! equivalence tests assert on the webgen datasets.  Do not optimize this
//! module; its purpose is to stay exactly as slow as the code it preserves.
//! Production callers must never use it.

use crate::config::InductionConfig;
use crate::node_pattern::{node_patterns, NodePattern};
use crate::sample::Sample;
use crate::spine::{common_base_axis, spine, transitive_reach};
use crate::step_pattern::{MAX_POSITION, MAX_SIDEWAYS_SIBLINGS};
use std::collections::HashMap;
use wi_dom::document::normalize_space;
use wi_dom::{Document, NodeId};
use wi_scoring::{rank_order, score_query, Counts, QueryInstance};
use wi_xpath::eval_reference::{evaluate_reference, evaluate_step_reference};
use wi_xpath::{Axis, Predicate, Query, Step};

/// Frozen copy of the pre-PR `counts_against` (std-hashed sets per call).
fn counts_against_reference(result: &[NodeId], targets: &[NodeId]) -> Counts {
    use std::collections::HashSet;
    let result_set: HashSet<NodeId> = result.iter().copied().collect();
    let target_set: HashSet<NodeId> = targets.iter().copied().collect();
    let tp = result_set.intersection(&target_set).count() as u32;
    let fp = result_set.difference(&target_set).count() as u32;
    let fne = target_set.difference(&result_set).count() as u32;
    Counts::new(tp, fp, fne)
}

// ---------------------------------------------------------------------------
// The original best-K table (re-renders the table on every insert).
// ---------------------------------------------------------------------------

/// Frozen copy of the pre-PR `BestK`.
#[derive(Debug, Clone)]
struct BestKRef {
    k: usize,
    items: Vec<QueryInstance>,
}

impl BestKRef {
    fn new(k: usize) -> Self {
        BestKRef {
            k: k.max(1),
            items: Vec::with_capacity(k.max(1)),
        }
    }

    fn seeded(k: usize, seed: Vec<QueryInstance>) -> Self {
        let mut table = BestKRef::new(k);
        for q in seed {
            table.insert(q);
        }
        table
    }

    fn worst(&self) -> Option<&QueryInstance> {
        self.items.last()
    }

    fn would_accept(&self, candidate: &QueryInstance) -> bool {
        if self.items.len() < self.k {
            return true;
        }
        match self.worst() {
            Some(w) => rank_order(candidate, w) == std::cmp::Ordering::Less,
            None => true,
        }
    }

    fn insert(&mut self, candidate: QueryInstance) -> bool {
        let key = candidate.query.to_string();
        if let Some(pos) = self.items.iter().position(|q| q.query.to_string() == key) {
            if rank_order(&candidate, &self.items[pos]) == std::cmp::Ordering::Less {
                self.items[pos] = candidate;
                self.items.sort_by(rank_order);
            }
            return true;
        }
        if !self.would_accept(&candidate) {
            return false;
        }
        let pos = self
            .items
            .partition_point(|q| rank_order(q, &candidate) != std::cmp::Ordering::Greater);
        self.items.insert(pos, candidate);
        if self.items.len() > self.k {
            self.items.truncate(self.k);
        }
        pos < self.k
    }

    fn to_vec(&self) -> Vec<QueryInstance> {
        self.items.clone()
    }
}

// ---------------------------------------------------------------------------
// The original DP tables.
// ---------------------------------------------------------------------------

/// Frozen copy of the pre-PR `Tables` (over [`BestKRef`]).
#[derive(Debug, Clone)]
struct TablesRef {
    best: HashMap<NodeId, BestKRef>,
    tar: HashMap<NodeId, Vec<NodeId>>,
    k: usize,
}

impl TablesRef {
    fn init(
        doc: &Document,
        u: NodeId,
        targets: &[NodeId],
        axis: Axis,
        config: &InductionConfig,
    ) -> Self {
        let mut tables = TablesRef {
            best: HashMap::new(),
            tar: HashMap::new(),
            k: config.k.max(1),
        };
        for &v in targets {
            let mut table = BestKRef::new(config.k);
            table.insert(QueryInstance::epsilon(&config.params));
            tables.best.insert(v, table);
        }
        for &v in targets {
            if let Some(sp) = spine(doc, axis, u, v) {
                for n in sp {
                    tables.tar.entry(n).or_insert_with(|| {
                        let reach = transitive_reach(doc, axis, n);
                        targets
                            .iter()
                            .copied()
                            .filter(|t| reach.contains(t) || *t == n)
                            .collect()
                    });
                }
            }
        }
        tables
    }

    fn seed_best(&mut self, node: NodeId, instances: Vec<QueryInstance>) {
        self.best.insert(node, BestKRef::seeded(self.k, instances));
    }

    fn seed_targets(&mut self, nodes: &[NodeId], targets: &[NodeId]) {
        for &n in nodes {
            self.tar.insert(n, targets.to_vec());
        }
    }

    fn best_of(&self, node: NodeId) -> Vec<QueryInstance> {
        self.best.get(&node).map(|b| b.to_vec()).unwrap_or_default()
    }

    fn targets_of(&self, node: NodeId, fallback: &[NodeId]) -> Vec<NodeId> {
        self.tar
            .get(&node)
            .cloned()
            .unwrap_or_else(|| fallback.to_vec())
    }
}

// ---------------------------------------------------------------------------
// Algorithm 3 (frozen).
// ---------------------------------------------------------------------------

/// The retained naive `induce(S, K)`: identical results to [`crate::induce()`],
/// at the pre-trie, pre-interning cost.  See the [module docs](self).
pub fn induce_reference(samples: &[Sample<'_>], config: &InductionConfig) -> Vec<QueryInstance> {
    let usable: Vec<&Sample<'_>> = samples.iter().filter(|s| s.is_well_formed()).collect();
    if usable.is_empty() {
        return Vec::new();
    }

    let mut all_candidates: Vec<QueryInstance> = Vec::new();
    for sample in &usable {
        all_candidates.extend(induce_sample_reference(sample, config));
    }

    aggregate_reference(&usable, all_candidates, config)
}

/// The retained naive per-sample induction (Lines 2–15 of Algorithm 3).
pub fn induce_sample_reference(
    sample: &Sample<'_>,
    config: &InductionConfig,
) -> Vec<QueryInstance> {
    let doc = sample.doc;
    let u = sample.context;
    let targets = sample.targets;

    if targets.len() == 1 && targets[0] == u {
        return vec![QueryInstance::epsilon(&config.params)];
    }

    if let Some(axis) = common_base_axis(doc, u, targets) {
        let mut tables = TablesRef::init(doc, u, targets, axis, config);
        return induce_path_reference(doc, u, targets, axis, &mut tables, config);
    }

    let mut lca = match doc.least_common_ancestor(targets) {
        Some(l) => l,
        None => return Vec::new(),
    };
    if common_base_axis(doc, u, &[lca]).is_none() || lca == u {
        let mut with_context: Vec<NodeId> = targets.to_vec();
        with_context.push(u);
        lca = match doc.least_common_ancestor(&with_context) {
            Some(l) => l,
            None => return Vec::new(),
        };
    }
    if lca == u {
        let filtered: Vec<NodeId> = targets.iter().copied().filter(|&t| t != u).collect();
        if let Some(axis) = common_base_axis(doc, u, &filtered) {
            let mut tables = TablesRef::init(doc, u, &filtered, axis, config);
            return induce_path_reference(doc, u, &filtered, axis, &mut tables, config);
        }
        return Vec::new();
    }

    let Some(tail_axis) = common_base_axis(doc, lca, targets) else {
        return Vec::new();
    };
    let mut tail_tables = TablesRef::init(doc, lca, targets, tail_axis, config);
    let tail = induce_path_reference(doc, lca, targets, tail_axis, &mut tail_tables, config);
    if tail.is_empty() {
        return Vec::new();
    }

    let Some(head_axis) = common_base_axis(doc, u, &[lca]) else {
        return Vec::new();
    };
    let mut tables = TablesRef::init(doc, u, &[lca], head_axis, config);
    tables.seed_best(lca, tail);
    if let Some(head_spine) = spine(doc, head_axis, u, lca) {
        let without_lca: Vec<NodeId> = head_spine.iter().copied().filter(|&n| n != lca).collect();
        tables.seed_targets(&without_lca, targets);
    }
    induce_path_reference(doc, u, &[lca], head_axis, &mut tables, config)
}

/// The retained naive aggregation (Line 16 of Algorithm 3): every distinct
/// candidate fully re-evaluated on every sample.
fn aggregate_reference(
    samples: &[&Sample<'_>],
    candidates: Vec<QueryInstance>,
    config: &InductionConfig,
) -> Vec<QueryInstance> {
    let mut seen = std::collections::HashSet::new();
    let mut rescored: Vec<QueryInstance> = Vec::new();
    for candidate in candidates {
        if !seen.insert(candidate.query.to_string()) {
            continue;
        }
        let counts = if samples.len() == 1 {
            candidate.counts
        } else {
            let mut total = Counts::default();
            for s in samples {
                let selected = evaluate_reference(&candidate.query, s.doc, s.context);
                total = total.add(&counts_against_reference(&selected, s.targets));
            }
            total
        };
        rescored.push(QueryInstance::new(candidate.query, counts, &config.params));
    }
    rescored.sort_by(rank_order);
    rescored.truncate(config.k);
    rescored
}

// ---------------------------------------------------------------------------
// Algorithm 2 (frozen).
// ---------------------------------------------------------------------------

/// The retained naive `inducePath`: per-combination clone + double scoring,
/// fresh full evaluation per accepted candidate.
fn induce_path_reference(
    doc: &Document,
    u: NodeId,
    targets: &[NodeId],
    axis: Axis,
    tables: &mut TablesRef,
    config: &InductionConfig,
) -> Vec<QueryInstance> {
    let mut pattern_cache: HashMap<(NodeId, NodeId), Vec<Query>> = HashMap::new();

    for &v in targets {
        if v == u {
            if let Some(table) = tables.best.get_mut(&u) {
                table.insert(QueryInstance::epsilon(&config.params));
            }
            continue;
        }
        let Some(full_spine) = spine(doc, axis, u, v) else {
            continue;
        };
        let mut anchors: Vec<NodeId> = full_spine.clone();
        anchors.reverse();
        anchors.pop(); // drop u
        for &t in &anchors {
            let Some(prefix) = spine(doc, axis, u, t) else {
                continue;
            };
            let best_t = tables.best_of(t);
            if best_t.is_empty() {
                continue;
            }
            for &n in &prefix[..prefix.len() - 1] {
                let relevant = tables.targets_of(n, targets);
                let patterns = pattern_cache
                    .entry((n, t))
                    .or_insert_with(|| step_patterns_reference(doc, n, t, axis, config))
                    .clone();
                let entry = tables
                    .best
                    .entry(n)
                    .or_insert_with(|| BestKRef::new(config.k));
                for p in &patterns {
                    for inst in &best_t {
                        let combined = p.concat(&inst.query);
                        let optimistic = QueryInstance::new(
                            combined.clone(),
                            Counts::new(1, 0, 0),
                            &config.params,
                        );
                        if !entry.would_accept(&optimistic) {
                            continue;
                        }
                        let selected = evaluate_reference(&combined, doc, n);
                        let counts = counts_against_reference(&selected, &relevant);
                        let instance = QueryInstance::new(combined, counts, &config.params);
                        entry.insert(instance);
                    }
                }
            }
        }
    }

    tables.best_of(u)
}

// ---------------------------------------------------------------------------
// Algorithm 1 (frozen).
// ---------------------------------------------------------------------------

/// The retained naive `stepPattern`.
fn step_patterns_reference(
    doc: &Document,
    n: NodeId,
    t: NodeId,
    axis: Axis,
    config: &InductionConfig,
) -> Vec<Query> {
    let mut candidates: Vec<Query> = Vec::new();

    let direct = is_direct(doc, axis, n, t);
    for pat in node_patterns(doc, t, config) {
        push_axis_variants(&mut candidates, &pat, axis, direct, None);
    }

    if axis == Axis::Child && config.enable_sideways {
        let same_role = same_role_group(doc, t);
        for (s, sideways_axis) in sideways_sources(doc, t) {
            let side_steps = sideways_steps(doc, s, t, sideways_axis, config);
            if side_steps.is_empty() {
                continue;
            }
            let s_direct = is_direct(doc, axis, n, s);
            for s_pat in node_patterns(doc, s, config) {
                if same_role.iter().any(|&m| pattern_matches(doc, &s_pat, m)) {
                    continue;
                }
                for side in &side_steps {
                    push_axis_variants(&mut candidates, &s_pat, axis, s_direct, Some(side.clone()));
                }
            }
        }
    }

    select_candidates_reference(doc, n, t, candidates, config)
}

fn is_direct(doc: &Document, axis: Axis, n: NodeId, t: NodeId) -> bool {
    match axis {
        Axis::Child => doc.parent(t) == Some(n),
        Axis::Parent => doc.parent(n) == Some(t),
        Axis::FollowingSibling | Axis::PrecedingSibling => false,
        _ => false,
    }
}

fn push_axis_variants(
    out: &mut Vec<Query>,
    pattern: &NodePattern,
    axis: Axis,
    direct: bool,
    sideways: Option<Step>,
) {
    let make = |ax: Axis| {
        let mut steps = vec![Step {
            axis: ax,
            test: pattern.test.clone(),
            predicates: pattern.predicates.clone(),
        }];
        if let Some(side) = &sideways {
            steps.push(side.clone());
        }
        Query::new(steps)
    };
    out.push(make(axis.transitive()));
    if direct && axis.transitive() != axis {
        out.push(make(axis));
    }
}

fn same_role_group(doc: &Document, t: NodeId) -> Vec<NodeId> {
    std::iter::once(t)
        .chain(doc.preceding_siblings(t))
        .chain(doc.following_siblings(t))
        .filter(|&m| {
            doc.tag_name(m) == doc.tag_name(t)
                && doc.attribute(m, "class") == doc.attribute(t, "class")
        })
        .collect()
}

fn pattern_matches(doc: &Document, pattern: &NodePattern, node: NodeId) -> bool {
    let probe = Step {
        axis: Axis::SelfAxis,
        test: pattern.test.clone(),
        predicates: pattern.predicates.clone(),
    };
    evaluate_step_reference(&probe, doc, node) == vec![node]
}

fn sideways_sources(doc: &Document, t: NodeId) -> Vec<(NodeId, Axis)> {
    let mut sources = Vec::new();
    let same_role = |s: NodeId| {
        doc.tag_name(s) == doc.tag_name(t) && doc.attribute(s, "class") == doc.attribute(t, "class")
    };
    let interesting = |s: NodeId| {
        doc.is_element(s)
            && !same_role(s)
            && (!doc.attributes(s).is_empty() || !normalize_space(&doc.text_value(s)).is_empty())
    };
    for s in doc
        .preceding_siblings(t)
        .filter(|&s| interesting(s))
        .take(MAX_SIDEWAYS_SIBLINGS)
    {
        sources.push((s, Axis::FollowingSibling));
    }
    for s in doc
        .following_siblings(t)
        .filter(|&s| interesting(s))
        .take(MAX_SIDEWAYS_SIBLINGS)
    {
        sources.push((s, Axis::PrecedingSibling));
    }
    sources
}

fn sideways_steps(
    doc: &Document,
    s: NodeId,
    t: NodeId,
    sideways_axis: Axis,
    config: &InductionConfig,
) -> Vec<Step> {
    let mut out = Vec::new();
    for pat in node_patterns(doc, t, config) {
        let step = Step {
            axis: sideways_axis,
            test: pat.test.clone(),
            predicates: pat.predicates.clone(),
        };
        let selected = evaluate_step_reference(&step, doc, s);
        if selected.is_empty() || !selected.contains(&t) {
            continue;
        }
        out.push(step.clone());
        if selected != vec![t] {
            if let Some(refined) = refine_with_position(&step, &selected, t) {
                out.push(refined);
            }
        }
    }
    dedup_steps(out)
}

fn refine_with_position(step: &Step, selected: &[NodeId], target: NodeId) -> Option<Step> {
    let pos = selected.iter().position(|&x| x == target)? + 1;
    if pos as u32 > MAX_POSITION {
        return None;
    }
    let mut refined = step.clone();
    let from_end = selected.len() - pos;
    if from_end < pos - 1 {
        refined
            .predicates
            .push(Predicate::LastOffset(from_end as u32));
    } else {
        refined.predicates.push(Predicate::Position(pos as u32));
    }
    Some(refined)
}

fn dedup_steps(steps: Vec<Step>) -> Vec<Step> {
    let mut seen = std::collections::HashSet::new();
    steps
        .into_iter()
        .filter(|s| seen.insert(s.to_string()))
        .collect()
}

/// The retained naive candidate selection: fresh evaluation per candidate,
/// score-per-comparison sort.
fn select_candidates_reference(
    doc: &Document,
    n: NodeId,
    t: NodeId,
    candidates: Vec<Query>,
    config: &InductionConfig,
) -> Vec<Query> {
    let mut scored: Vec<QueryInstance> = Vec::new();
    let mut seen = std::collections::HashSet::new();

    let mut consider = |query: Query, result: &[NodeId], scored: &mut Vec<QueryInstance>| {
        if !seen.insert(query.to_string()) {
            return;
        }
        let tp = u32::from(result.contains(&t));
        let fp = (result.len() as u32).saturating_sub(tp);
        let fne = 1 - tp;
        scored.push(QueryInstance::new(
            query,
            Counts::new(tp, fp, fne),
            &config.params,
        ));
    };

    for query in candidates {
        let result = evaluate_reference(&query, doc, n);
        if result.is_empty() || !result.contains(&t) {
            continue;
        }
        consider(query.clone(), &result, &mut scored);
        if result.len() > 1 {
            if let Some(refined) = refine_first_step_reference(doc, n, t, &query) {
                let refined_result = evaluate_reference(&refined, doc, n);
                if refined_result.contains(&t) {
                    consider(refined, &refined_result, &mut scored);
                }
            }
        }
    }

    scored.sort_by(rank_order);

    let mut out: Vec<Query> = Vec::new();
    let mut emitted = std::collections::HashSet::new();
    let mut emit = |q: &Query, out: &mut Vec<Query>| {
        if emitted.insert(q.to_string()) {
            out.push(q.clone());
        }
    };

    for inst in &scored {
        if inst.query.len() == 1 && inst.query.steps.iter().all(|s| s.predicates.is_empty()) {
            emit(&inst.query, &mut out);
        }
    }

    let exact: Vec<&QueryInstance> = scored
        .iter()
        .filter(|i| i.is_exact() && i.fp() == 0)
        .collect();
    for inst in exact.iter().take(2 * config.k) {
        emit(&inst.query, &mut out);
    }

    let general: Vec<&QueryInstance> = scored
        .iter()
        .filter(|i| !(i.is_exact() && i.fp() == 0))
        .collect();
    let mut by_score: Vec<&&QueryInstance> = general.iter().collect();
    by_score.sort_by(|a, b| a.score.total_cmp(&b.score));
    for inst in by_score.iter().take(config.k) {
        emit(&inst.query, &mut out);
    }
    for inst in general.iter().take(config.k) {
        emit(&inst.query, &mut out);
    }

    out.sort_by(|a, b| {
        score_query(a, &config.params)
            .total_cmp(&score_query(b, &config.params))
            .then_with(|| a.to_string().cmp(&b.to_string()))
    });
    out
}

fn refine_first_step_reference(
    doc: &Document,
    n: NodeId,
    t: NodeId,
    query: &Query,
) -> Option<Query> {
    let first = query.steps.first()?;
    if first.predicates.iter().any(Predicate::is_positional) {
        return None;
    }
    let first_selection = evaluate_step_reference(first, doc, n);
    if first_selection.len() <= 1 {
        return None;
    }
    let rest = Query::new(query.steps[1..].to_vec());
    let lead_to_t = |&candidate: &NodeId| {
        if rest.is_empty() {
            candidate == t
        } else {
            evaluate_reference(&rest, doc, candidate).contains(&t)
        }
    };
    let target_in_first = if rest.is_empty() {
        t
    } else {
        *first_selection.iter().find(|c| lead_to_t(c))?
    };
    let refined_first = refine_with_position(first, &first_selection, target_in_first)?;
    let mut steps = query.steps.clone();
    steps[0] = refined_first;
    Some(Query {
        absolute: query.absolute,
        steps,
    })
}
