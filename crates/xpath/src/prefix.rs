//! Shared-prefix (trie-memoized) evaluation of many related queries.
//!
//! Wrapper induction evaluates thousands of candidate expressions against
//! the *same* document, and those candidates overwhelmingly share spine
//! prefixes: `descendant::div[@id="main"]/child::ul/child::li` and
//! `descendant::div[@id="main"]/child::ul/child::li[2]` differ only in the
//! last step's predicate, yet a naive evaluator re-runs the whole expression
//! — including the expensive first `descendant` step — for every candidate.
//! The maintenance drift classifier has the same shape: it re-evaluates
//! every prefix of an expression once per relaxation attempt.
//!
//! A [`PrefixEvaluator`] builds a **candidate trie** keyed on steps as it
//! evaluates: each trie node memoizes the node set selected after its step
//! prefix, so every distinct `(context, step-prefix)` pair is evaluated
//! exactly once no matter how many candidates extend it.  Queries are
//! evaluated step-by-step with exactly the semantics of
//! [`evaluate`](crate::evaluate) (per-step document-order sort + dedup,
//! early exit on an empty set), so the result of
//! [`PrefixEvaluator::evaluate`] is **identical** to the naive evaluator's —
//! this is the invariant the induction-equivalence tests in `wi-induction`
//! pin down.
//!
//! # Ownership contract
//!
//! The evaluator borrows its document for its whole lifetime, which makes
//! stale memoization impossible by construction: the borrow prevents any
//! mutation (`&mut Document`) while memoized node sets are alive.  Create
//! one evaluator per document (per worker) and drop it when moving on; the
//! trie grows monotonically with the number of *distinct* step prefixes
//! seen, which induction bounds by its candidate pool.

use crate::ast::{Query, Step};
use crate::eval::{evaluate_step_into, EvalContext};
use wi_dom::fx::FxMap;
use wi_dom::{Document, NodeId};

/// One memoized trie node: the node set after a step prefix, plus the edges
/// to the prefixes extending it by one step.
#[derive(Debug)]
struct TrieNode {
    /// Nodes selected after this prefix, in document order, deduplicated.
    set: Vec<NodeId>,
    /// Child prefixes, keyed by their extending step.
    children: FxMap<Step, usize>,
}

impl TrieNode {
    fn new(set: Vec<NodeId>) -> TrieNode {
        TrieNode {
            set,
            children: FxMap::default(),
        }
    }
}

/// A handle to a memoized step prefix of a [`PrefixEvaluator`], returned by
/// [`PrefixEvaluator::walk`].  Valid until the next
/// [`clear`](PrefixEvaluator::clear) on the evaluator that issued it.
///
/// The induction inner loop hoists the walk of a shared pattern prefix out
/// of its per-instance loop: every instance then extends the handle with its
/// own (usually empty) step suffix instead of re-walking — and re-hashing —
/// the pattern steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixHandle(usize);

/// Trie traversal counters, kept as plain fields (no atomics — this sits
/// in the induction inner loop) and flushed by callers into their own
/// telemetry; see [`PrefixEvaluator::trie_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrieStats {
    /// Steps walked through the trie (memoized-edge traversals plus fresh
    /// step applications).
    pub walks: u64,
    /// Walks satisfied by an existing trie edge — the evaluations the
    /// memoization saved.
    pub hits: u64,
}

/// Trie-memoized evaluator for batches of queries over one document.
///
/// See the [module documentation](self) for semantics and the ownership
/// contract.
#[derive(Debug)]
pub struct PrefixEvaluator<'d> {
    doc: &'d Document,
    /// Trie arena; roots hold the singleton start sets.
    nodes: Vec<TrieNode>,
    /// Trie root per start node (the context for relative queries, the
    /// document root for absolute ones).
    roots: FxMap<NodeId, usize>,
    /// Scratch buffer for per-context step selections.
    candidates: Vec<NodeId>,
    /// Pooled context for nested path predicates.
    nested: Option<Box<EvalContext>>,
    /// Cumulative walk/hit counters (plain `u64`s; see [`TrieStats`]).
    stats: TrieStats,
}

impl<'d> PrefixEvaluator<'d> {
    /// Creates an evaluator for `doc`.
    pub fn new(doc: &'d Document) -> PrefixEvaluator<'d> {
        PrefixEvaluator {
            doc,
            nodes: Vec::new(),
            roots: FxMap::default(),
            candidates: Vec::new(),
            nested: None,
            stats: TrieStats::default(),
        }
    }

    /// The document this evaluator memoizes over.
    pub fn doc(&self) -> &'d Document {
        self.doc
    }

    /// Number of memoized step prefixes (diagnostic; grows with distinct
    /// prefixes, not with evaluations).
    pub fn memoized_prefixes(&self) -> usize {
        self.nodes.len()
    }

    /// Drops all memoized prefixes but keeps the allocations' capacity
    /// (and the cumulative [`TrieStats`]).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.roots.clear();
    }

    /// Cumulative trie walk/hit counters since construction (or the last
    /// [`take_trie_stats`](Self::take_trie_stats)).
    pub fn trie_stats(&self) -> TrieStats {
        self.stats
    }

    /// Returns the counters and resets them — the flush-once-per-batch
    /// form induction uses to feed its telemetry registry.
    pub fn take_trie_stats(&mut self) -> TrieStats {
        std::mem::take(&mut self.stats)
    }

    /// Evaluates `query` from `context`, returning the selected nodes in
    /// document order without duplicates — byte-identical to
    /// [`evaluate`](crate::evaluate), but memoized across calls.
    pub fn evaluate(&mut self, context: NodeId, query: &Query) -> &[NodeId] {
        self.evaluate_prefix(context, query, query.steps.len())
    }

    /// Evaluates the first `len` steps of `query` from `context` (the node
    /// set the drift classifier calls "the contexts before step `len`").
    /// `len = 0` yields the singleton start set.
    pub fn evaluate_prefix(&mut self, context: NodeId, query: &Query, len: usize) -> &[NodeId] {
        let handle = self.walk_steps(
            context,
            query.absolute,
            &query.steps[..len.min(query.steps.len())],
        );
        &self.nodes[handle.0].set
    }

    /// Memoizes the full step prefix of `query` from `context` and returns a
    /// handle to it, for callers that will extend the same prefix many times
    /// (see [`evaluate_from`](Self::evaluate_from)).
    pub fn walk(&mut self, context: NodeId, query: &Query) -> PrefixHandle {
        self.walk_steps(context, query.absolute, &query.steps)
    }

    /// The trie root for evaluations starting at `context` — the handle of
    /// the zero-step prefix.  Callers evaluating many *relative* queries
    /// from one context resolve the root once and use
    /// [`evaluate_from`](Self::evaluate_from) instead of paying the root
    /// lookup per query.
    pub fn context_handle(&mut self, context: NodeId) -> PrefixHandle {
        self.walk_steps(context, false, &[])
    }

    /// The node set memoized at `handle`.
    pub fn set(&self, handle: PrefixHandle) -> &[NodeId] {
        &self.nodes[handle.0].set
    }

    /// Evaluates `handle`'s prefix extended by the steps of `extension` —
    /// exactly `evaluate(prefix / extension)`, without re-walking the prefix.
    /// The extension's `absolute` flag is ignored (a concatenated suffix
    /// inherits the prefix's origin, as `Query::concat` does).
    pub fn evaluate_from(&mut self, handle: PrefixHandle, extension: &Query) -> &[NodeId] {
        let end = self.extend(handle, &extension.steps);
        &self.nodes[end.0].set
    }

    fn walk_steps(&mut self, context: NodeId, absolute: bool, steps: &[Step]) -> PrefixHandle {
        let start = if absolute { self.doc.root() } else { context };
        let cur = match self.roots.get(&start) {
            Some(&idx) => idx,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(TrieNode::new(vec![start]));
                self.roots.insert(start, idx);
                idx
            }
        };
        self.extend(PrefixHandle(cur), steps)
    }

    fn extend(&mut self, from: PrefixHandle, steps: &[Step]) -> PrefixHandle {
        let mut cur = from.0;
        for step in steps {
            // An empty set stays empty under every further step — exactly
            // the naive evaluator's early exit (the current, empty node
            // doubles as the result for the whole remaining suffix).
            if self.nodes[cur].set.is_empty() {
                return PrefixHandle(cur);
            }
            self.stats.walks += 1;
            cur = match self.nodes[cur].children.get(step) {
                Some(&child) => {
                    self.stats.hits += 1;
                    child
                }
                None => {
                    let set = self.apply_step(cur, step);
                    let idx = self.nodes.len();
                    self.nodes.push(TrieNode::new(set));
                    self.nodes[cur].children.insert(step.clone(), idx);
                    idx
                }
            };
        }
        PrefixHandle(cur)
    }

    /// Applies one step to the memoized set of trie node `from`, mirroring
    /// one iteration of the naive evaluator's step loop.
    fn apply_step(&mut self, from: usize, step: &Step) -> Vec<NodeId> {
        let mut next = Vec::new();
        if let [ctx] = self.nodes[from].set[..] {
            // Single context: select straight into the result, no
            // per-context scratch copy.
            evaluate_step_into(step, self.doc, ctx, &mut next, &mut self.nested);
            // Mirror the naive evaluator exactly: skip the no-op sort for a
            // forward-axis step from a single context (see
            // `eval::step_preserves_doc_order`).
            if !crate::eval::step_preserves_doc_order(step.axis) {
                self.doc.sort_document_order(&mut next);
            }
            return next;
        }
        let mut candidates = std::mem::take(&mut self.candidates);
        for &ctx in &self.nodes[from].set {
            evaluate_step_into(step, self.doc, ctx, &mut candidates, &mut self.nested);
            next.extend_from_slice(&candidates);
        }
        self.doc.sort_document_order(&mut next);
        self.candidates = candidates;
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::parser::parse_query;
    use wi_dom::parse_html;

    fn page() -> Document {
        parse_html(
            r#"<html><body>
              <div id="main">
                <ul class="cast"><li>a</li><li>b</li><li>c</li></ul>
                <ul class="crew"><li>x</li><li>y</li></ul>
              </div>
              <div class="other"><span itemprop="name">z</span></div>
            </body></html>"#,
        )
        .unwrap()
    }

    #[test]
    fn matches_naive_evaluation_and_shares_prefixes() {
        let doc = page();
        let queries = [
            "descendant::ul/child::li",
            "descendant::ul/child::li[1]",
            "descendant::ul/child::li[last()]",
            r#"descendant::ul[@class="cast"]/child::li"#,
            "descendant::ul/child::li/parent::ul",
            r#"descendant::span[@itemprop="name"]"#,
            "descendant::table/child::tr",
            "/descendant::div",
        ];
        let mut shared = PrefixEvaluator::new(&doc);
        for expr in queries {
            let q = parse_query(expr).unwrap();
            assert_eq!(
                shared.evaluate(doc.root(), &q),
                evaluate(&q, &doc, doc.root()),
                "{expr}"
            );
        }
        // The first three queries share `descendant::ul` (and the first and
        // fifth share `descendant::ul/child::li`): far fewer memoized
        // prefixes than total steps evaluated.
        let total_steps: usize = queries
            .iter()
            .map(|e| parse_query(e).unwrap().steps.len())
            .sum();
        assert!(
            shared.memoized_prefixes() < total_steps,
            "no sharing: {} prefixes for {} steps",
            shared.memoized_prefixes(),
            total_steps
        );
    }

    #[test]
    fn distinct_contexts_do_not_alias() {
        let doc = page();
        let uls = doc.elements_by_tag("ul");
        let q = parse_query("child::li").unwrap();
        let mut shared = PrefixEvaluator::new(&doc);
        let a: Vec<_> = shared.evaluate(uls[0], &q).to_vec();
        let b: Vec<_> = shared.evaluate(uls[1], &q).to_vec();
        assert_eq!(a, evaluate(&q, &doc, uls[0]));
        assert_eq!(b, evaluate(&q, &doc, uls[1]));
        assert_ne!(a, b);
    }

    #[test]
    fn prefix_sets_match_stepwise_evaluation() {
        let doc = page();
        let q = parse_query(r#"descendant::div/child::ul[@class="cast"]/child::li"#).unwrap();
        let mut shared = PrefixEvaluator::new(&doc);
        assert_eq!(shared.evaluate_prefix(doc.root(), &q, 0), &[doc.root()]);
        let full = evaluate(&q, &doc, doc.root());
        assert_eq!(shared.evaluate_prefix(doc.root(), &q, 3), &full[..]);
        let divs = shared.evaluate_prefix(doc.root(), &q, 1).to_vec();
        assert_eq!(divs, doc.elements_by_tag("div"));
        // Asking beyond the query length clamps to the full evaluation.
        assert_eq!(shared.evaluate_prefix(doc.root(), &q, 99), &full[..]);
    }

    #[test]
    fn empty_intermediate_step_short_circuits() {
        let doc = page();
        let q = parse_query("descendant::table/child::tr/child::td").unwrap();
        let mut shared = PrefixEvaluator::new(&doc);
        assert!(shared.evaluate(doc.root(), &q).is_empty());
        let before = shared.memoized_prefixes();
        // Re-evaluating adds no trie nodes (and no work past the empty set).
        assert!(shared.evaluate(doc.root(), &q).is_empty());
        assert_eq!(shared.memoized_prefixes(), before);
    }

    #[test]
    fn trie_stats_count_walks_and_hits() {
        let doc = page();
        let q = parse_query("descendant::ul/child::li").unwrap();
        let mut shared = PrefixEvaluator::new(&doc);
        shared.evaluate(doc.root(), &q);
        let first = shared.trie_stats();
        assert_eq!(first.walks, 2, "two steps walked");
        assert_eq!(first.hits, 0, "cold trie");
        // The same query again is pure hits.
        shared.evaluate(doc.root(), &q);
        let second = shared.trie_stats();
        assert_eq!(second.walks, 4);
        assert_eq!(second.hits, 2);
        // Taking the stats resets them.
        assert_eq!(shared.take_trie_stats(), second);
        assert_eq!(shared.trie_stats(), TrieStats::default());
    }

    #[test]
    fn clear_resets_memoization() {
        let doc = page();
        let q = parse_query("descendant::li").unwrap();
        let mut shared = PrefixEvaluator::new(&doc);
        shared.evaluate(doc.root(), &q);
        assert!(shared.memoized_prefixes() > 0);
        shared.clear();
        assert_eq!(shared.memoized_prefixes(), 0);
        assert_eq!(
            shared.evaluate(doc.root(), &q),
            evaluate(&q, &doc, doc.root())
        );
    }
}
