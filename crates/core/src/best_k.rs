//! Bounded best-K tables of query instances.
//!
//! The induction algorithms maintain, for every node on a spine, the K best
//! query instances found so far (ranked by the paper's order: F0.5
//! descending, robustness score ascending).  [`BestK`] is that table: a small
//! sorted vector with bounded insertion and duplicate suppression.

use std::collections::HashSet;
use wi_scoring::{rank_order, rank_order_lazy, QueryInstance};

/// A bounded, ranked collection of the K best query instances seen so far.
///
/// Each stored instance caches its rendered expression, so duplicate
/// suppression costs one render per insert instead of re-rendering the whole
/// table.
#[derive(Debug, Clone)]
pub struct BestK {
    k: usize,
    items: Vec<QueryInstance>,
    /// `keys[i]` is `items[i].query.to_string()`, kept in lockstep.
    keys: Vec<String>,
}

impl BestK {
    /// Creates an empty table with capacity `k` (at least 1).
    pub fn new(k: usize) -> Self {
        BestK {
            k: k.max(1),
            items: Vec::with_capacity(k.max(1)),
            keys: Vec::with_capacity(k.max(1)),
        }
    }

    /// Creates a table seeded with the given instances (used for the
    /// pre-initialised `best(l_i)` table of Algorithm 3).
    pub fn seeded(k: usize, seed: Vec<QueryInstance>) -> Self {
        let mut table = BestK::new(k);
        for q in seed {
            table.insert(q);
        }
        table
    }

    /// The capacity bound K.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Number of instances currently stored.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if no instance is stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The best instance, if any.
    pub fn best(&self) -> Option<&QueryInstance> {
        self.items.first()
    }

    /// The currently worst stored instance, if any.
    pub fn worst(&self) -> Option<&QueryInstance> {
        self.items.last()
    }

    /// Returns `true` if a candidate with this ranking would be inserted
    /// (i.e. the table is not yet full, or the candidate beats the K-th
    /// instance) — the `q < best(n)[K]` test of Algorithm 2.
    pub fn would_accept(&self, candidate: &QueryInstance) -> bool {
        if self.items.len() < self.k {
            return true;
        }
        match self.worst() {
            Some(w) => rank_order(candidate, w) == std::cmp::Ordering::Less,
            None => true,
        }
    }

    /// [`would_accept`](Self::would_accept) for a candidate that exists only
    /// as parts — its F0.5, its robustness score, its step count, and a
    /// render closure for its expression that runs only on a complete tie.
    /// The induction inner loop calls this with an optimistic perfect
    /// F-score before paying for the candidate's construction and
    /// evaluation: a combination rejected here never materializes at all.
    pub fn would_accept_lazy(
        &self,
        f05: f64,
        score: f64,
        len: usize,
        render: impl FnOnce() -> String,
    ) -> bool {
        if self.items.len() < self.k {
            return true;
        }
        match self.worst() {
            Some(w) => rank_order_lazy(f05, score, len, render, w) == std::cmp::Ordering::Less,
            None => true,
        }
    }

    /// Inserts a candidate, keeping the table sorted, deduplicated (by the
    /// textual form of the expression) and bounded by K.  Returns `true` if
    /// the candidate is present in the table afterwards.
    pub fn insert(&mut self, candidate: QueryInstance) -> bool {
        let key = candidate.query.render();
        if let Some(pos) = self.keys.iter().position(|k| *k == key) {
            // Keep whichever of the two duplicates ranks better.
            if rank_order(&candidate, &self.items[pos]) != std::cmp::Ordering::Less {
                return true;
            }
            // The improved duplicate re-enters through the ordinary sorted
            // insert below; the removal guarantees a free slot, so it always
            // lands (rank_order is a total order — the text tie-break makes
            // distinct expressions never compare equal — so the insertion
            // point is the position a full re-sort would produce).
            self.items.remove(pos);
            self.keys.remove(pos);
        }
        if !self.would_accept(&candidate) {
            return false;
        }
        let pos = self
            .items
            .partition_point(|q| rank_order(q, &candidate) != std::cmp::Ordering::Greater);
        self.items.insert(pos, candidate);
        self.keys.insert(pos, key);
        if self.items.len() > self.k {
            self.items.truncate(self.k);
            self.keys.truncate(self.k);
        }
        pos < self.k
    }

    /// Inserts every instance of an iterator.
    pub fn extend(&mut self, candidates: impl IntoIterator<Item = QueryInstance>) {
        for c in candidates {
            self.insert(c);
        }
    }

    /// Iterates over the stored instances, best first.
    pub fn iter(&self) -> impl Iterator<Item = &QueryInstance> {
        self.items.iter()
    }

    /// Returns the ranked instances as a cloned vector, best first.
    pub fn to_vec(&self) -> Vec<QueryInstance> {
        self.items.clone()
    }

    /// Removes all instances whose expression also appears in `other`,
    /// used in tests to compare table contents.
    pub fn expressions(&self) -> HashSet<String> {
        self.items.iter().map(|q| q.query.to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_scoring::{Counts, ScoringParams};
    use wi_xpath::parse_query;

    fn qi(expr: &str, tp: u32, fp: u32, fne: u32) -> QueryInstance {
        QueryInstance::new(
            parse_query(expr).unwrap(),
            Counts::new(tp, fp, fne),
            &ScoringParams::paper_defaults(),
        )
    }

    #[test]
    fn keeps_only_k_best() {
        let mut table = BestK::new(2);
        assert!(table.insert(qi("descendant::div[1]", 1, 0, 0)));
        assert!(table.insert(qi(r#"descendant::div[@id="a"]"#, 1, 0, 0)));
        // Worse than both (same F, higher score): rejected.
        assert!(!table.insert(qi("child::html[1]/child::body[1]/child::div[1]", 1, 0, 0)));
        assert_eq!(table.len(), 2);
        assert_eq!(
            table.best().unwrap().query.to_string(),
            r#"descendant::div[@id="a"]"#
        );
        // Better than the worst: inserted, worst evicted.
        assert!(table.insert(qi(r#"descendant::div[@id="b"]"#, 1, 0, 0)));
        assert_eq!(table.len(), 2);
        assert!(!table.expressions().contains("descendant::div[1]"));
    }

    #[test]
    fn would_accept_matches_insert() {
        let mut table = BestK::new(1);
        let good = qi(r#"descendant::div[@id="a"]"#, 1, 0, 0);
        let bad = qi("descendant::div[7]", 1, 0, 0);
        assert!(table.would_accept(&good));
        table.insert(good);
        assert!(!table.would_accept(&bad));
        assert!(!table.insert(bad));
    }

    #[test]
    fn duplicates_keep_best_counts() {
        let mut table = BestK::new(3);
        table.insert(qi(r#"descendant::div[@id="a"]"#, 1, 1, 0));
        table.insert(qi(r#"descendant::div[@id="a"]"#, 2, 0, 0));
        assert_eq!(table.len(), 1);
        assert_eq!(table.best().unwrap().tp(), 2);
        // Re-inserting a worse duplicate does not regress the entry.
        table.insert(qi(r#"descendant::div[@id="a"]"#, 0, 5, 5));
        assert_eq!(table.best().unwrap().tp(), 2);
    }

    #[test]
    fn accuracy_ranks_above_score() {
        let mut table = BestK::new(5);
        table.insert(qi("descendant::li", 3, 2, 0));
        table.insert(qi("descendant::li[1]", 1, 0, 2));
        table.insert(qi(r#"descendant::ul[@id="x"]/child::li"#, 3, 0, 0));
        let best = table.best().unwrap();
        assert_eq!(
            best.query.to_string(),
            r#"descendant::ul[@id="x"]/child::li"#
        );
    }

    #[test]
    fn seeded_table() {
        let seed = vec![qi("descendant::p", 1, 0, 0), qi("descendant::div", 1, 0, 0)];
        let table = BestK::seeded(1, seed);
        assert_eq!(table.len(), 1);
        assert_eq!(table.capacity(), 1);
    }

    #[test]
    fn zero_capacity_clamped() {
        let table = BestK::new(0);
        assert_eq!(table.capacity(), 1);
        assert!(table.is_empty());
        assert!(table.best().is_none());
    }
}
