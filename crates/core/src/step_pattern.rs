//! `stepPattern(n, t, axis, K)` — Algorithm 1 of the paper.
//!
//! Generates the candidate spine patterns matching a node `t` from a context
//! node `n` along a base axis (or its transitive closure): single steps built
//! from [`crate::node_patterns`], optionally refined by a positional
//! predicate so that they match `t` uniquely from `n`, and — for the `child`
//! base axis only — patterns with a *sideways check*: the step selects a
//! sibling `s` of `t` and a `following-sibling`/`preceding-sibling` step
//! continues to `t`.
//!
//! The returned queries satisfy the algorithm's contract: each selects at
//! least `t` when evaluated from `n` (general patterns), and the accuracy-
//! refined variants select exactly `t`.  Ranking against the actual relevant
//! targets happens later, in [`crate::induce_path()`].
//!
//! The two phases are exposed separately so the induction DP can cache them
//! at their natural granularity: `generate_candidates` depends only on the
//! target (plus the directness bit), while `select_candidates` evaluates
//! from the context node through the caller's shared-prefix engine.

use crate::config::InductionConfig;
use crate::node_pattern::{node_patterns, NodePattern};
use wi_dom::{Document, NodeId};
use wi_scoring::{Counts, QueryInstance};
use wi_xpath::eval::evaluate_step;
use wi_xpath::{Axis, Predicate, PrefixEvaluator, Query, Step};

/// Generates the candidate queries leading from `n` to `t` along `axis`.
///
/// `axis` must be one of the four base axes.  The result is deduplicated and
/// bounded: at most `2 · config.k` queries, preferring (1) queries that match
/// `t` uniquely from `n` and (2) low robustness scores.
///
/// Convenience wrapper around [`step_patterns_with`] that evaluates through
/// a throwaway shared-prefix engine; induction passes its per-sample engine
/// instead so candidate evaluations are memoized across the whole run.
pub fn step_patterns(
    doc: &Document,
    n: NodeId,
    t: NodeId,
    axis: Axis,
    config: &InductionConfig,
) -> Vec<Query> {
    let mut eval = PrefixEvaluator::new(doc);
    step_patterns_with(&mut eval, n, t, axis, config)
}

/// [`step_patterns`], evaluating candidates through the caller's engine.
pub fn step_patterns_with(
    eval: &mut PrefixEvaluator<'_>,
    n: NodeId,
    t: NodeId,
    axis: Axis,
    config: &InductionConfig,
) -> Vec<Query> {
    debug_assert!(Axis::BASE_AXES.contains(&axis), "axis must be a base axis");
    let direct = is_direct(eval.doc(), axis, n, t);
    let generated = generate_candidates(eval.doc(), t, axis, direct, config);
    select_candidates(eval, n, t, &generated, config)
}

/// The generation phase of Algorithm 1: all candidate queries for target `t`
/// along `axis`, **before** accuracy refinement and selection.
///
/// The output depends only on `(t, axis, direct, config)` — not on the
/// context node — so the induction DP caches it per target and runs only
/// [`select_candidates`] per context.  (`direct` must be
/// `is_direct(doc, axis, n, t)`; for the sideways sources of the child axis
/// the same bit applies, since a sibling of `t` shares `t`'s parent.)
pub(crate) fn generate_candidates(
    doc: &Document,
    t: NodeId,
    axis: Axis,
    direct: bool,
    config: &InductionConfig,
) -> Vec<Query> {
    assemble_candidates(&generate_parts(doc, t, axis, config), axis, direct)
}

/// The context-independent raw material of Algorithm 1 for one target: the
/// target's node patterns, plus every admissible `(anchor pattern, sideways
/// step)` combination.  Derived once per target; the per-`direct` axis
/// variants are assembled separately by [`assemble_candidates`].
#[derive(Debug)]
pub(crate) struct GeneratedParts {
    /// Node patterns of `t` itself.
    plain: Vec<NodePattern>,
    /// Determining anchor pattern × sideways step pairs (child axis only).
    sideways: Vec<(NodePattern, Step)>,
}

pub(crate) fn generate_parts(
    doc: &Document,
    t: NodeId,
    axis: Axis,
    config: &InductionConfig,
) -> GeneratedParts {
    let plain = node_patterns(doc, t, config);

    // Sideways checks (child axis only, per Algorithm 1).
    let mut sideways = Vec::new();
    if axis == Axis::Child && config.enable_sideways {
        let same_role = same_role_group(doc, t);
        for (s, sideways_axis) in sideways_sources(doc, t, config) {
            // The step from s to t along the sideways axis, refined to be
            // unique from s.
            let side_steps = sideways_steps(doc, s, t, sideways_axis, config);
            if side_steps.is_empty() {
                continue;
            }
            for s_pat in node_patterns(doc, s, config) {
                // The anchor pattern must be *determining*: a pattern that
                // also matches the target (or one of its same-role siblings)
                // turns a positionally refined sideways step into a shifted
                // window over the sibling list — under negative noise those
                // windows match precision-1 subsets of the annotations and
                // outrank the generalising wrapper.
                if same_role.iter().any(|&m| pattern_matches(doc, &s_pat, m)) {
                    continue;
                }
                for side in &side_steps {
                    sideways.push((s_pat.clone(), side.clone()));
                }
            }
        }
    }

    GeneratedParts { plain, sideways }
}

/// Assembles the candidate queries from pre-derived [`GeneratedParts`], in
/// exactly the order the monolithic generation produced: plain patterns
/// first, then the sideways combinations, each with its transitive-axis
/// variant (and, when `direct`, the base-axis variant).  A sibling anchor
/// shares `t`'s parent, so the target's directness bit applies to it too.
pub(crate) fn assemble_candidates(parts: &GeneratedParts, axis: Axis, direct: bool) -> Vec<Query> {
    let mut candidates: Vec<Query> =
        Vec::with_capacity((parts.plain.len() + parts.sideways.len()) * (1 + usize::from(direct)));
    for pat in &parts.plain {
        push_axis_variants(&mut candidates, pat, axis, direct, None);
    }
    for (s_pat, side) in &parts.sideways {
        push_axis_variants(&mut candidates, s_pat, axis, direct, Some(side.clone()));
    }
    candidates
}

/// Returns `true` if `t` is reachable from `n` with a *single* step of the
/// base axis (`t ∈ axis(n)` in the paper's notation).
pub(crate) fn is_direct(doc: &Document, axis: Axis, n: NodeId, t: NodeId) -> bool {
    match axis {
        Axis::Child => doc.parent(t) == Some(n),
        Axis::Parent => doc.parent(n) == Some(t),
        // The sibling axes are their own transitive closure.
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

/// `t` together with its same-role siblings (same tag, same `class`): the
/// nodes a sideways anchor pattern must *not* match to count as determining.
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

/// Returns `true` if the axis-less pattern matches `node`.
fn pattern_matches(doc: &Document, pattern: &NodePattern, node: NodeId) -> bool {
    let probe = Step {
        axis: Axis::SelfAxis,
        test: pattern.test.clone(),
        predicates: pattern.predicates.clone(),
    };
    evaluate_step(&probe, doc, node) == vec![node]
}

/// Chooses the siblings of `t` that are worth using as sideways-check
/// sources: element siblings with at least one attribute or some text,
/// nearest first, bounded by the configuration.
///
/// Siblings that play the *same template role* as the target — same tag and
/// same `class` value — are skipped: the paper's sideways checks anchor on a
/// "specific determining element" (a header, a label, a differently-styled
/// entry), not on another instance of the item list itself.  Anchoring on a
/// same-role sibling would make the wrapper depend on volatile data nodes
/// and would let noisy samples pull the induction towards contiguous-subset
/// queries instead of generalising over the whole list.
fn sideways_sources(doc: &Document, t: NodeId, config: &InductionConfig) -> Vec<(NodeId, Axis)> {
    let mut sources = Vec::new();
    let same_role = |s: NodeId| {
        doc.tag_name(s) == doc.tag_name(t) && doc.attribute(s, "class") == doc.attribute(t, "class")
    };
    let interesting = |s: NodeId| {
        doc.is_element(s)
            && !same_role(s)
            && (!doc.attributes(s).is_empty() || !doc.normalized_text(s).is_empty())
    };
    for s in doc
        .preceding_siblings(t)
        .filter(|&s| interesting(s))
        .take(config.max_sideways_siblings)
    {
        // s precedes t, so from s we reach t via following-sibling.
        sources.push((s, Axis::FollowingSibling));
    }
    for s in doc
        .following_siblings(t)
        .filter(|&s| interesting(s))
        .take(config.max_sideways_siblings)
    {
        sources.push((s, Axis::PrecedingSibling));
    }
    sources
}

/// Builds the sideways step(s) from `s` to `t`: `sideways_axis::<pattern>`
/// for each node pattern of `t`, refined positionally when that alone does
/// not single out `t`.  Both the general and the refined variant are
/// returned (the general variant is what multi-target wrappers need).
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
        let selected = evaluate_step(&step, doc, s);
        if selected.is_empty() || !selected.contains(&t) {
            continue;
        }
        out.push(step.clone());
        if selected != vec![t] {
            if let Some(refined) = refine_with_position(&step, &selected, t, config) {
                out.push(refined);
            }
        }
    }
    dedup_steps(out)
}

/// Appends a positional predicate to `step` so that it selects the candidate
/// at `target`'s position; also produces a `last()`-relative variant when the
/// target is close to the end of the candidate list.
fn refine_with_position(
    step: &Step,
    selected: &[NodeId],
    target: NodeId,
    config: &InductionConfig,
) -> Option<Step> {
    let pos = selected.iter().position(|&x| x == target)? + 1;
    if pos as u32 > config.max_position {
        return None;
    }
    let mut refined = step.clone();
    let from_end = selected.len() - pos;
    // Prefer counting from whichever end is closer, like hand-written
    // wrappers do (`[last()]` for the last element of a list).
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

/// Evaluates each candidate from `n`, refines inaccurate ones positionally,
/// and keeps a bounded selection: the best `k` accurate queries plus the best
/// `k` general queries (ranked by accuracy-against-`{t}` first, score
/// second).
pub(crate) fn select_candidates(
    eval: &mut PrefixEvaluator<'_>,
    n: NodeId,
    t: NodeId,
    candidates: &[Query],
    config: &InductionConfig,
) -> Vec<Query> {
    // Each kept candidate is rendered exactly once; the rendered form backs
    // the duplicate check, the rank tie-breaks, the emit dedup and the final
    // sort below, instead of being re-derived at every site.
    let mut scored: Vec<(QueryInstance, String)> = Vec::new();
    // Duplicate suppression indexed by the render's hash; the (rare)
    // collision falls back to comparing the stored renders, so the dedup is
    // exactly "same textual form" without cloning a key per candidate.
    let mut seen: wi_dom::fx::FxMap<u64, Vec<usize>> = wi_dom::fx::FxMap::default();

    let mut consider =
        |query: Query, result: &[NodeId], scored: &mut Vec<(QueryInstance, String)>| {
            let key = query.render();
            let hash = {
                use std::hash::{Hash, Hasher};
                let mut h = wi_dom::fx::FxHasher::default();
                key.hash(&mut h);
                h.finish()
            };
            let bucket = seen.entry(hash).or_default();
            if bucket.iter().any(|&i| scored[i].1 == key) {
                return;
            }
            bucket.push(scored.len());
            let tp = u32::from(result.contains(&t));
            let fp = (result.len() as u32).saturating_sub(tp);
            let fne = 1 - tp;
            scored.push((
                QueryInstance::new(query, Counts::new(tp, fp, fne), &config.params),
                key,
            ));
        };

    // Scratch copy of an ambiguous candidate's result, so the refinement
    // below can reuse it after the evaluator borrow ends.
    let mut ambiguous: Vec<NodeId> = Vec::new();
    // All candidates are relative queries from the same context: resolve the
    // trie root once.
    let from_n = eval.context_handle(n);
    for query in candidates {
        let result = eval.evaluate_from(from_n, query);
        if result.is_empty() || !result.contains(&t) {
            continue;
        }
        let result_len = result.len();
        if result_len > 1 {
            ambiguous.clear();
            ambiguous.extend_from_slice(result);
        }
        consider(query.clone(), result, &mut scored);
        if result_len > 1 {
            // Positional refinement applies to the *first* step of the
            // pattern (the step whose selection is ambiguous from n); for
            // sideways patterns that step selects the sibling source, so we
            // refine by the position of whichever first-step candidate leads
            // to t.
            if let Some(refined) = refine_first_step(eval, n, t, query, &ambiguous, config) {
                let refined_result = eval.evaluate_from(from_n, &refined);
                if refined_result.contains(&t) {
                    consider(refined, refined_result, &mut scored);
                }
            }
        }
    }

    // `rank_order` with the tie-break reading the pre-rendered forms (the
    // plain comparator would re-render both sides on every exact tie).
    scored.sort_by(|a, b| match b.0.f05().total_cmp(&a.0.f05()) {
        std::cmp::Ordering::Equal => match a.0.score.total_cmp(&b.0.score) {
            std::cmp::Ordering::Equal => match a.0.query.len().cmp(&b.0.query.len()) {
                std::cmp::Ordering::Equal => a.1.cmp(&b.1),
                other => other,
            },
            other => other,
        },
        other => other,
    });
    // From here on every instance travels with its cached render; scores
    // come from the instances themselves — nothing below re-renders or
    // re-scores a query.
    let scored: Vec<(QueryInstance, String)> = scored;

    // Selection.  The table at the induce-path level ranks candidates
    // against the *relevant* targets tar(n), which stepPattern does not know
    // about, so the selection here must keep three kinds of candidates:
    //
    //  * patterns without predicates (`descendant::li`, `child::em`, …) —
    //    the paper lists them first and multi-target wrappers depend on
    //    them; they are few, so they are always kept,
    //  * the accurate candidates (selecting exactly {t} from n), ranked by
    //    robustness score — these drive single-target induction,
    //  * general candidates, both the cheapest ones (short selective
    //    patterns that typically select whole template lists) and the most
    //    accurate-against-{t} ones.
    let mut out: Vec<(&QueryInstance, &str)> = Vec::new();
    let mut emitted: wi_dom::fx::FxSet<&str> = wi_dom::fx::FxSet::default();
    fn emit<'a>(
        entry: &'a (QueryInstance, String),
        emitted: &mut wi_dom::fx::FxSet<&'a str>,
        out: &mut Vec<(&'a QueryInstance, &'a str)>,
    ) {
        if emitted.insert(entry.1.as_str()) {
            out.push((&entry.0, entry.1.as_str()));
        }
    }

    for entry in &scored {
        let inst = &entry.0;
        if inst.query.len() == 1 && inst.query.steps.iter().all(|s| s.predicates.is_empty()) {
            emit(entry, &mut emitted, &mut out);
        }
    }

    let exact: Vec<&(QueryInstance, String)> = scored
        .iter()
        .filter(|(i, _)| i.is_exact() && i.fp() == 0)
        .collect();
    for entry in exact.iter().take(2 * config.k) {
        emit(entry, &mut emitted, &mut out);
    }

    let general: Vec<&(QueryInstance, String)> = scored
        .iter()
        .filter(|(i, _)| !(i.is_exact() && i.fp() == 0))
        .collect();
    // Cheapest general patterns first …
    let mut by_score: Vec<&&(QueryInstance, String)> = general.iter().collect();
    by_score.sort_by(|a, b| a.0.score.total_cmp(&b.0.score));
    for entry in by_score.iter().take(config.k) {
        emit(entry, &mut emitted, &mut out);
    }
    // … plus the most accurate-against-{t} general patterns.
    for entry in general.iter().take(config.k) {
        emit(entry, &mut emitted, &mut out);
    }

    // Order by robustness score for downstream determinism, reusing the
    // cached scores and renders (the instance's cached score *is*
    // `score_query` of its expression).
    out.sort_by(|a, b| a.0.score.total_cmp(&b.0.score).then_with(|| a.1.cmp(b.1)));
    out.into_iter()
        .map(|(inst, _)| inst.query.clone())
        .collect()
}

/// Refines the first step of `query` with a positional predicate so that the
/// overall query gets closer to selecting `t` uniquely from `n`.
///
/// `query_result` is the candidate's full (document-ordered) result from
/// `n`, which the caller already has: for a single-step query over a
/// *forward* axis it equals the first step's axis-order selection exactly —
/// forward-axis candidates from one context arrive in document order with
/// no duplicates — so the common case pays no extra step evaluation at all.
fn refine_first_step(
    eval: &mut PrefixEvaluator<'_>,
    n: NodeId,
    t: NodeId,
    query: &Query,
    query_result: &[NodeId],
    config: &InductionConfig,
) -> Option<Query> {
    let doc = eval.doc();
    let first = query.steps.first()?;
    if first.predicates.iter().any(Predicate::is_positional) {
        return None;
    }
    // For a *forward* first axis the axis-order selection coincides with
    // the trie's (document-ordered, dup-free) prefix set, so it is either
    // the already-known full result (single-step queries) or a memoized
    // prefix lookup; only reverse first axes pay a fresh step evaluation.
    let forward = matches!(
        first.axis,
        Axis::Child | Axis::Descendant | Axis::DescendantOrSelf | Axis::FollowingSibling
    );
    let owned: Vec<NodeId>;
    let first_selection: &[NodeId] = if forward && query.steps.len() == 1 {
        // The caller's full result *is* the first-step selection — borrow
        // it; the single-step case below never touches the evaluator again.
        query_result
    } else if forward {
        owned = eval.evaluate_prefix(n, query, 1).to_vec();
        &owned
    } else {
        owned = evaluate_step(first, doc, n);
        &owned
    };
    if first_selection.len() <= 1 {
        return None;
    }
    // Find the first-step candidate from which the rest of the query reaches
    // t (for single-step queries that candidate is t itself).
    let rest = Query::new(query.steps[1..].to_vec());
    let target_in_first = if rest.is_empty() {
        t
    } else {
        first_selection
            .iter()
            .copied()
            .find(|&candidate| eval.evaluate(candidate, &rest).contains(&t))?
    };
    let refined_first = refine_with_position(first, first_selection, target_in_first, config)?;
    let mut steps = query.steps.clone();
    steps[0] = refined_first;
    Some(Query {
        absolute: query.absolute,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_dom::parse_html;
    use wi_xpath::evaluate;

    fn cfg() -> InductionConfig {
        InductionConfig::default()
    }

    fn strings(v: &[Query]) -> Vec<String> {
        v.iter().map(|q| q.to_string()).collect()
    }

    #[test]
    fn paper_example_div_em_patterns() {
        // The worked example from Section 5.
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
        let body = doc.elements_by_tag("body")[0];
        let lower_div = doc.element_by_id("main").unwrap();
        let em = doc.elements_by_tag("em")[0];

        // Patterns matching the em from the lower div.
        let from_div = strings(&step_patterns(&doc, lower_div, em, Axis::Child, &cfg()));
        assert!(from_div.contains(&"descendant::em".to_string()));
        assert!(from_div.contains(&"child::em".to_string()));
        assert!(from_div.contains(&r#"child::node()[@class="highlight"]"#.to_string()));

        // Patterns matching the lower div from the body.
        let from_body = strings(&step_patterns(&doc, body, lower_div, Axis::Child, &cfg()));
        assert!(from_body.contains(&r#"descendant::div[@id="main"]"#.to_string()));
        // A bare descendant::div matches both divs, i.e. it is not accurate;
        // it may be present as a general pattern but its refined variant must
        // also be there.
        assert!(from_body
            .iter()
            .any(|s| s == "descendant::div[2]" || s == "descendant::div[last()]"));
    }

    #[test]
    fn direct_child_gets_both_axis_variants() {
        let doc = parse_html(r#"<body><div id="a"><p>x</p></div></body>"#).unwrap();
        let div = doc.element_by_id("a").unwrap();
        let p = doc.elements_by_tag("p")[0];
        let pats = strings(&step_patterns(&doc, div, p, Axis::Child, &cfg()));
        assert!(pats.contains(&"child::p".to_string()));
        assert!(pats.contains(&"descendant::p".to_string()));
    }

    #[test]
    fn parent_axis_patterns() {
        let doc = parse_html(r#"<body><div id="wrap"><p>x</p></div></body>"#).unwrap();
        let div = doc.element_by_id("wrap").unwrap();
        let p = doc.elements_by_tag("p")[0];
        let pats = strings(&step_patterns(&doc, p, div, Axis::Parent, &cfg()));
        assert!(pats.contains(&r#"ancestor::div[@id="wrap"]"#.to_string()));
        assert!(pats.contains(&r#"parent::div[@id="wrap"]"#.to_string()));
    }

    #[test]
    fn sibling_axis_patterns() {
        let doc = parse_html(
            r#"<body><table>
               <tr class="head"><td>News</td></tr>
               <tr><td>one</td></tr>
               <tr><td>two</td></tr>
            </table></body>"#,
        )
        .unwrap();
        let trs = doc.elements_by_tag("tr");
        let pats = strings(&step_patterns(
            &doc,
            trs[0],
            trs[2],
            Axis::FollowingSibling,
            &cfg(),
        ));
        assert!(pats.iter().any(|p| p.starts_with("following-sibling::tr")));
        // And a positional refinement exists because two rows follow.
        assert!(pats
            .iter()
            .any(|p| p.contains("[2]") || p.contains("last()")));
    }

    #[test]
    fn sideways_checks_generated_for_lists_with_header() {
        // The target list items share their parent with a leading h3 header;
        // sideways checks anchored on the header are the robust way in.
        let doc = parse_html(
            r#"<body><div>
                <h3 class="f-quote">Channels</h3>
                <a class="hpCH">one</a>
                <a class="hpCH">two</a>
            </div></body>"#,
        )
        .unwrap();
        let div = doc.elements_by_tag("div")[0];
        let first_a = doc.elements_by_tag("a")[0];
        let pats = strings(&step_patterns(&doc, div, first_a, Axis::Child, &cfg()));
        assert!(
            pats.iter().any(|p| p.contains("following-sibling::")),
            "expected a sideways check among {pats:?}"
        );
        // Sideways patterns start from the header's pattern.
        assert!(pats
            .iter()
            .any(|p| p.contains(r#"h3[@class="f-quote"]"#) && p.contains("following-sibling")));
    }

    #[test]
    fn sideways_disabled_by_config() {
        let doc = parse_html(
            r#"<body><div>
                <h3 class="f-quote">Channels</h3>
                <a class="hpCH">one</a>
            </div></body>"#,
        )
        .unwrap();
        let div = doc.elements_by_tag("div")[0];
        let a = doc.elements_by_tag("a")[0];
        let pats = strings(&step_patterns(
            &doc,
            div,
            a,
            Axis::Child,
            &cfg().with_sideways(false),
        ));
        assert!(pats.iter().all(|p| !p.contains("following-sibling")));
    }

    #[test]
    fn every_pattern_reaches_the_target() {
        let doc = parse_html(
            r#"<body>
              <div id="nav"><a href="/a">A</a></div>
              <div id="list">
                <span class="x">one</span>
                <span class="x">two</span>
                <span class="y">three</span>
              </div>
            </body>"#,
        )
        .unwrap();
        let spans = doc.elements_by_tag("span");
        let target = spans[1];
        for axis_ctx in [
            (Axis::Child, doc.root()),
            (Axis::Child, doc.element_by_id("list").unwrap()),
            (Axis::PrecedingSibling, spans[2]),
            (Axis::FollowingSibling, spans[0]),
            (Axis::Parent, doc.children(target).next().unwrap_or(target)),
        ] {
            let (axis, ctx) = axis_ctx;
            if axis == Axis::Parent && ctx == target {
                continue;
            }
            for q in step_patterns(&doc, ctx, target, axis, &cfg()) {
                let result = evaluate(&q, &doc, ctx);
                assert!(
                    result.contains(&target),
                    "{q} from {ctx:?} via {axis:?} misses the target"
                );
            }
        }
    }

    #[test]
    fn bounded_output_size() {
        // A node with many attributes and many siblings should still produce
        // a bounded pattern set.
        let mut html = String::from("<body><div id='list'>");
        for i in 0..30 {
            html.push_str(&format!("<span class='c{i}' data-i='{i}'>item {i}</span>"));
        }
        html.push_str("</div></body>");
        let doc = parse_html(&html).unwrap();
        let list = doc.element_by_id("list").unwrap();
        let target = doc.elements_by_tag("span")[15];
        let pats = step_patterns(&doc, list, target, Axis::Child, &cfg());
        assert!(pats.len() <= 5 * cfg().k, "got {} patterns", pats.len());
        assert!(!pats.is_empty());
    }
}
