//! `inducePath(u, V, K, axis, best, tar)` — Algorithm 2 of the paper.
//!
//! A dynamic program along the spine(s) between the context node `u` and the
//! target nodes `V`: for every node `n` on a spine, a bounded table of the
//! best-K query instances leading from `n` to (a subset of) the relevant
//! targets `tar(n)` is maintained.  Instances for `n` are built by
//! concatenating a spine pattern from `n` to an anchor `t`
//! ([`crate::step_patterns`]) with an already-computed instance stored at
//! `t`, and are evaluated against `tar(n)` to obtain their accuracy counts.

use crate::best_k::BestK;
use crate::config::InductionConfig;
use crate::sample::counts_against;
use crate::spine::{spine, transitive_reach};
use crate::step_pattern::{
    assemble_candidates, generate_parts, is_direct, select_candidates, GeneratedParts,
};
use std::rc::Rc;
use wi_dom::fx::FxMap;
use wi_dom::{Document, NodeId};
use wi_scoring::{score_query_partial, QueryInstance};
use wi_xpath::{Axis, PrefixEvaluator, Query};

/// The DP state of Algorithm 2: per-node best-K tables and per-node relevant
/// target sets.
#[derive(Debug, Clone)]
pub struct Tables {
    /// `best(n)` — the best-K instances leading from `n` to targets.
    pub best: FxMap<NodeId, BestK>,
    /// `tar(n)` — the targets reachable from `n` along the induction axis.
    pub tar: FxMap<NodeId, Vec<NodeId>>,
    k: usize,
}

impl Tables {
    /// Creates empty tables with capacity `k` per node.
    pub fn new(k: usize) -> Self {
        Tables {
            best: FxMap::default(),
            tar: FxMap::default(),
            k: k.max(1),
        }
    }

    /// The paper's `init(u, V, K)`: every target node's table starts with the
    /// empty query ε (selecting the target itself); `tar(n)` is `V`
    /// restricted to the targets reachable from `n` along `axis`, for every
    /// node on a spine from `u` to some target.
    pub fn init(
        doc: &Document,
        u: NodeId,
        targets: &[NodeId],
        axis: Axis,
        config: &InductionConfig,
    ) -> Self {
        let mut tables = Tables::new(config.k);
        for &v in targets {
            let mut table = BestK::new(config.k);
            table.insert(QueryInstance::epsilon(&config.params));
            tables.best.insert(v, table);
        }
        // Pre-compute tar(n) for every node on every spine.
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

    /// Overrides the best table of a node (used by Algorithm 3 to seed
    /// `best(l_i)` with the tail instances of a two-directional query).
    pub fn seed_best(&mut self, node: NodeId, instances: Vec<QueryInstance>) {
        self.best.insert(node, BestK::seeded(self.k, instances));
    }

    /// Overrides `tar(n)` for a set of nodes (used by Algorithm 3 so the head
    /// of a two-directional query is evaluated against the real targets).
    pub fn seed_targets(&mut self, nodes: &[NodeId], targets: &[NodeId]) {
        for &n in nodes {
            self.tar.insert(n, targets.to_vec());
        }
    }

    fn best_of(&self, node: NodeId) -> Vec<QueryInstance> {
        self.best.get(&node).map(|b| b.to_vec()).unwrap_or_default()
    }
}

/// Runs Algorithm 2 and returns the ranked instances stored at `u`.
///
/// `tables` must have been initialised with [`Tables::init`] (and possibly
/// seeded for the two-directional case).  The same `tables` value can be
/// inspected afterwards, e.g. to look at intermediate anchors.
///
/// Convenience wrapper around [`induce_path_with`] using a throwaway
/// shared-prefix engine; induction threads its per-sample engine instead.
pub fn induce_path(
    doc: &Document,
    u: NodeId,
    targets: &[NodeId],
    axis: Axis,
    tables: &mut Tables,
    config: &InductionConfig,
) -> Vec<QueryInstance> {
    let mut eval = PrefixEvaluator::new(doc);
    induce_path_with(&mut eval, u, targets, axis, tables, config)
}

/// [`induce_path`], evaluating every candidate through the caller's
/// shared-prefix engine.
///
/// This is the induction hot loop, engineered so that considering one
/// `pattern / instance` combination costs almost nothing until it is
/// admitted to the table:
///
/// * candidate **generation** is cached per `(target, direct)` — it does not
///   depend on the context node (see
///   [`generate_candidates`](crate::step_pattern)),
/// * each pattern's node set and robustness-score prefix are derived **once
///   per pattern** (a [`PrefixHandle`](wi_xpath::PrefixHandle) into the candidate trie plus a
///   plus-compositional prefix sum); every instance extends both by its own
///   — usually empty — suffix,
/// * the optimistic admission pre-check ranks the combination from those
///   parts alone: a rejected combination is never concatenated, rendered,
///   or evaluated,
/// * an admitted combination evaluates through the trie
///   ([`PrefixEvaluator::evaluate_from`]), so combinations sharing a pattern
///   prefix pay for its node set exactly once per context.
pub fn induce_path_with(
    eval: &mut PrefixEvaluator<'_>,
    u: NodeId,
    targets: &[NodeId],
    axis: Axis,
    tables: &mut Tables,
    config: &InductionConfig,
) -> Vec<QueryInstance> {
    let doc = eval.doc();
    // Selected step patterns per (n, t) pair — identical pairs recur when
    // several targets share a spine prefix — and generated (pre-selection)
    // candidates per (t, direct), which do not depend on n at all.
    let mut pattern_cache: FxMap<(NodeId, NodeId), Rc<Vec<Query>>> = FxMap::default();
    let mut parts_cache: FxMap<NodeId, Rc<GeneratedParts>> = FxMap::default();
    let mut generation_cache: FxMap<(NodeId, bool), Rc<Vec<Query>>> = FxMap::default();
    // spine(u, t) recurs for every target sharing the anchor t.
    let mut spine_cache: FxMap<NodeId, Option<Rc<Vec<NodeId>>>> = FxMap::default();
    // F0.5 of the optimistic counts ⟨1, 0, 0⟩ used by the admission
    // pre-check (computed once; exactly what `QueryInstance::new` with those
    // counts would report).
    let optimistic_f05 = wi_scoring::Counts::new(1, 0, 0).f_05();
    // Telemetry accumulates in plain locals — the inner loop must not pay
    // an atomic per combination — and flushes once on exit.
    let mut generated_candidates = 0u64;
    let mut lazy_rejects = 0u64;

    for &v in targets {
        if v == u {
            // Degenerate sample: the context node annotates itself.
            if let Some(table) = tables.best.get_mut(&u) {
                table.insert(QueryInstance::epsilon(&config.params));
            }
            continue;
        }
        let Some(full_spine) = spine(doc, axis, u, v) else {
            continue;
        };
        // spine(v, u) − {u}: anchors from the target upwards (deepest first).
        let mut anchors: Vec<NodeId> = full_spine.clone();
        anchors.reverse();
        anchors.pop(); // drop u
        for &t in &anchors {
            // spine(u, t) − {t}: candidate context nodes strictly before t.
            let prefix = match spine_cache
                .entry(t)
                .or_insert_with(|| spine(doc, axis, u, t).map(Rc::new))
            {
                Some(p) => Rc::clone(p),
                None => continue,
            };
            let best_t = tables.best_of(t);
            if best_t.is_empty() {
                continue;
            }
            for &n in &prefix[..prefix.len() - 1] {
                // Split borrow: `tar` is read-only here while `best` takes
                // the table entry mutably.
                let Tables { best, tar, .. } = &mut *tables;
                let relevant: &[NodeId] = tar.get(&n).map(Vec::as_slice).unwrap_or(targets);
                let patterns = match pattern_cache.get(&(n, t)) {
                    Some(cached) => Rc::clone(cached),
                    None => {
                        let direct = is_direct(doc, axis, n, t);
                        let generated = match generation_cache.get(&(t, direct)) {
                            Some(g) => Rc::clone(g),
                            None => {
                                // Pattern/sideways *parts* are derived once
                                // per target; only the cheap axis-variant
                                // assembly differs between the two `direct`
                                // values.
                                let parts = match parts_cache.get(&t) {
                                    Some(p) => Rc::clone(p),
                                    None => {
                                        let p = Rc::new(generate_parts(doc, t, axis, config));
                                        parts_cache.insert(t, Rc::clone(&p));
                                        p
                                    }
                                };
                                let g = Rc::new(assemble_candidates(&parts, axis, direct));
                                generated_candidates += g.len() as u64;
                                generation_cache.insert((t, direct), Rc::clone(&g));
                                g
                            }
                        };
                        let selected = Rc::new(select_candidates(eval, n, t, &generated, config));
                        pattern_cache.insert((n, t), Rc::clone(&selected));
                        selected
                    }
                };
                let entry = best.entry(n).or_insert_with(|| BestK::new(config.k));
                for p in patterns.iter() {
                    // Derived once per pattern, shared by every instance
                    // extending it: the memoized node set and the
                    // plus-compositional score prefix.  (The walk is a memo
                    // hit — the selection phase above already evaluated
                    // every kept pattern from n.)
                    let p_handle = eval.walk(n, p);
                    let p_score = score_query_partial(0.0, 0, &p.steps, &config.params);
                    let p_len = p.steps.len();
                    for inst in &best_t {
                        // The combination's exact robustness score, without
                        // materializing it: extending the pattern's prefix
                        // sum performs bit-for-bit the arithmetic scoring
                        // the concatenated expression would.
                        let score =
                            score_query_partial(p_score, p_len, &inst.query.steps, &config.params);
                        let len = p_len + inst.query.len();
                        // Cheap pre-check with an *optimistic* accuracy
                        // assumption (perfect F-score): if even then the
                        // candidate's robustness score would not let it enter
                        // the table, the combination is skipped without ever
                        // being concatenated or evaluated — the result
                        // cannot change (the expression itself only breaks
                        // exact rank ties, and the lazy render covers that).
                        if !entry.would_accept_lazy(optimistic_f05, score, len, || {
                            p.concat(&inst.query).to_string()
                        }) {
                            lazy_rejects += 1;
                            continue;
                        }
                        let selected = eval.evaluate_from(p_handle, &inst.query);
                        let counts = counts_against(selected, relevant);
                        entry.insert(QueryInstance::from_parts(
                            p.concat(&inst.query),
                            counts,
                            score,
                        ));
                    }
                }
            }
        }
    }

    let metrics = crate::telemetry::induce_metrics();
    if generated_candidates > 0 {
        metrics.candidates.add(generated_candidates);
    }
    if lazy_rejects > 0 {
        metrics.lazy_rejects.add(lazy_rejects);
    }
    crate::telemetry::flush_trie(eval.take_trie_stats());

    tables.best_of(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InductionConfig;
    use wi_dom::parse_html;
    use wi_xpath::evaluate;

    fn cfg() -> InductionConfig {
        InductionConfig::default()
    }

    fn induce_from_root(doc: &Document, targets: &[NodeId]) -> Vec<QueryInstance> {
        let config = cfg();
        let mut tables = Tables::init(doc, doc.root(), targets, Axis::Child, &config);
        induce_path(doc, doc.root(), targets, Axis::Child, &mut tables, &config)
    }

    #[test]
    fn single_target_paper_example() {
        let doc = parse_html(
            r#"<body>
              <div class="content">
                <div id="main">
                  <em class="highlight">The Target</em>
                </div>
              </div>
            </body>"#,
        )
        .unwrap();
        let em = doc.elements_by_tag("em")[0];
        let result = induce_from_root(&doc, &[em]);
        assert!(!result.is_empty());
        let top = &result[0];
        assert!(top.is_exact(), "top instance must be exact: {:?}", top);
        assert_eq!(evaluate(&top.query, &doc, doc.root()), vec![em]);
        // The ranking favours a short descendant expression over canonical
        // child chains.
        assert!(top.query.len() <= 2);
        assert_eq!(top.query.steps[0].axis, Axis::Descendant);
    }

    #[test]
    fn single_target_prefers_semantic_attribute() {
        let doc = parse_html(
            r#"<html><body>
              <div class="header"><input name="q" type="text"></div>
              <div class="txt-block">
                <h4 class="inline">Director:</h4>
                <a href="/n"><span class="itemprop" itemprop="name">Martin Scorsese</span></a>
              </div>
            </body></html>"#,
        )
        .unwrap();
        let span = doc
            .descendants(doc.root())
            .find(|&n| doc.tag_name(n) == Some("span"))
            .unwrap();
        let result = induce_from_root(&doc, &[span]);
        let top = &result[0];
        assert!(top.is_exact());
        // A single descendant step with an attribute predicate should win.
        let rendered = top.query.to_string();
        assert_eq!(top.query.len(), 1, "unexpected query {rendered}");
        assert!(
            rendered.contains("@itemprop") || rendered.contains("@class"),
            "expected a semantic attribute anchor, got {rendered}"
        );
    }

    #[test]
    fn multi_target_list_items() {
        let doc = parse_html(
            r#"<body>
              <div id="nav"><ul><li>Home</li><li>About</li></ul></div>
              <div id="results">
                <ul class="result-list">
                  <li class="result">r1</li>
                  <li class="result">r2</li>
                  <li class="result">r3</li>
                </ul>
              </div>
            </body>"#,
        )
        .unwrap();
        let targets: Vec<NodeId> = doc.elements_by_class("result");
        assert_eq!(targets.len(), 3);
        let result = induce_from_root(&doc, &targets);
        assert!(!result.is_empty());
        let top = &result[0];
        assert!(top.is_exact(), "top instance not exact: {}", top.query);
        let mut selected = evaluate(&top.query, &doc, doc.root());
        selected.sort_unstable();
        let mut expected = targets.clone();
        expected.sort_unstable();
        assert_eq!(selected, expected);
        // The navigation list items must not be selected.
        assert!(!selected.contains(&doc.elements_by_tag("li")[0]));
    }

    #[test]
    fn epsilon_when_context_is_target() {
        let doc = parse_html("<body><p>x</p></body>").unwrap();
        let p = doc.elements_by_tag("p")[0];
        let config = cfg();
        let mut tables = Tables::init(&doc, p, &[p], Axis::Child, &config);
        let result = induce_path(&doc, p, &[p], Axis::Child, &mut tables, &config);
        assert_eq!(result.len(), 1);
        assert!(result[0].query.is_empty());
    }

    #[test]
    fn respects_k_bound() {
        let doc = parse_html(
            r#"<body><div id="a"><span class="s" itemprop="x" title="t">v</span></div></body>"#,
        )
        .unwrap();
        let span = doc.elements_by_tag("span")[0];
        let config = cfg().with_k(3);
        let mut tables = Tables::init(&doc, doc.root(), &[span], Axis::Child, &config);
        let result = induce_path(&doc, doc.root(), &[span], Axis::Child, &mut tables, &config);
        assert!(result.len() <= 3);
        assert!(!result.is_empty());
    }

    #[test]
    fn sibling_axis_induction() {
        let doc = parse_html(
            r#"<body><table>
              <tr id="head"><td>News</td></tr>
              <tr><td>one</td></tr>
              <tr><td>two</td></tr>
            </table></body>"#,
        )
        .unwrap();
        let trs = doc.elements_by_tag("tr");
        let config = cfg();
        let targets = vec![trs[1], trs[2]];
        let mut tables = Tables::init(&doc, trs[0], &targets, Axis::FollowingSibling, &config);
        let result = induce_path(
            &doc,
            trs[0],
            &targets,
            Axis::FollowingSibling,
            &mut tables,
            &config,
        );
        assert!(!result.is_empty());
        let top = &result[0];
        assert!(top.is_exact(), "got {}", top.query);
        assert_eq!(top.query.steps[0].axis, Axis::FollowingSibling);
    }

    #[test]
    fn unreachable_targets_yield_empty_result() {
        let doc = parse_html("<body><div><p>x</p></div><div><q>y</q></div></body>").unwrap();
        let p = doc.elements_by_tag("p")[0];
        let q = doc.elements_by_tag("q")[0];
        let config = cfg();
        // From p, q is not reachable via the child axis.
        let mut tables = Tables::init(&doc, p, &[q], Axis::Child, &config);
        let result = induce_path(&doc, p, &[q], Axis::Child, &mut tables, &config);
        assert!(result.is_empty());
    }

    #[test]
    fn tar_restricts_relevant_targets() {
        let doc = parse_html(
            r#"<body>
              <div id="a"><span class="x">1</span></div>
              <div id="b"><span class="x">2</span></div>
            </body>"#,
        )
        .unwrap();
        let spans = doc.elements_by_tag("span");
        let config = cfg();
        let tables = Tables::init(&doc, doc.root(), &spans, Axis::Child, &config);
        let div_a = doc.element_by_id("a").unwrap();
        // From div_a only the first span is reachable.
        assert_eq!(tables.tar.get(&div_a), Some(&vec![spans[0]]));
        let body = doc.elements_by_tag("body")[0];
        assert_eq!(tables.tar.get(&body).map(|v| v.len()), Some(2));
    }
}
