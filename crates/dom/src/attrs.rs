//! Lazily built attribute census index.
//!
//! # Why
//!
//! The maintenance layer interrogates a snapshot's attributes in two ways,
//! both O(document) as naive walks:
//!
//! * the *carrier census* — how many elements carry `name="value"` — is
//!   probed per anchor on every verification and every last-known-good
//!   capture, and
//! * the *value census* — the set of every attribute value on the page — is
//!   materialised (with one `String` allocation per distinct value) on every
//!   healthy capture, i.e. once per healthy epoch.
//!
//! A 300-node snapshot carries ~150 attributes with ~100 distinct values;
//! rebuilding the `BTreeSet<String>` census dominates the capture cost and
//! dwarfs the actual verification work.  The [`AttrIndex`] folds both
//! censuses into one symbol-driven pass per document: carrier counts become
//! one integer-keyed hash probe, and the value census is built once and
//! shared behind an [`Arc`], so every capture of the same document clones a
//! refcount instead of re-walking the tree.
//!
//! Like the order/tag indexes (see [`crate::order`]) it is built on first
//! use by one pass over the arena and cached behind a `OnceLock`; a
//! document is immutable once built, so the index never goes stale.
//! Symbols come from the document's own interner and never outlive it (see
//! [`crate::intern`]).

use crate::document::Document;
use crate::intern::Sym;
use crate::node::NodeId;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Attribute censuses of a [`Document`], keyed by interned symbols.
///
/// Built lazily by [`Document::attr_index`]; see the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct AttrIndex {
    /// `(name, value) → carriers`: the number of nodes (including
    /// the synthetic root) whose *first* attribute named `name` — mirroring
    /// [`Document::attribute`] shadowing — has value `value`.
    carriers: HashMap<(Sym, Sym), u32>,
    /// Every distinct attribute value in the document, sorted.  Shared so
    /// that captures are refcount bumps, not set rebuilds.
    values: Arc<BTreeSet<String>>,
}

impl AttrIndex {
    pub(crate) fn build(doc: &Document) -> AttrIndex {
        let mut carriers: HashMap<(Sym, Sym), u32> = HashMap::new();
        let mut values = BTreeSet::new();
        // Interning dedupes, so tracking seen value *symbols* dodges both the
        // set probe and the `String` allocation for every repeated value
        // (class names and shared hrefs repeat heavily).
        let mut seen = vec![false; doc.interner().len()];
        for id in (0..doc.len()).map(NodeId::from_index) {
            let attrs = doc.attr_syms(id);
            for (i, &(name, value)) in attrs.iter().enumerate() {
                if !seen[value.index()] {
                    seen[value.index()] = true;
                    values.insert(doc.resolve_sym(value).to_string());
                }
                // Only the first attribute of a given name is visible through
                // `Document::attribute`; shadowed duplicates carry nothing.
                if attrs[..i].iter().all(|&(n, _)| n != name) {
                    *carriers.entry((name, value)).or_insert(0) += 1;
                }
            }
        }
        AttrIndex {
            carriers,
            values: Arc::new(values),
        }
    }

    /// Number of nodes whose visible attribute `name` equals
    /// `value`, root included.  Symbols must come from this document's
    /// interner (string entry points live on [`Document`]).
    pub fn carrier_count_syms(&self, name: Sym, value: Sym) -> usize {
        self.carriers
            .get(&(name, value))
            .map(|&c| c as usize)
            .unwrap_or(0)
    }

    /// The shared value census: every distinct attribute value, sorted.
    pub fn values(&self) -> &Arc<BTreeSet<String>> {
        &self.values
    }

    /// Number of distinct `(name, value)` carrier keys in the document.
    pub fn carrier_key_count(&self) -> usize {
        self.carriers.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::el;
    use crate::Document;

    fn sample() -> Document {
        el("html")
            .child(
                el("body")
                    .child(
                        el("div")
                            .attr("class", "row")
                            .child(el("span").attr("class", "cell").text_child("a")),
                    )
                    .child(el("div").attr("class", "row").attr("id", "x")),
            )
            .into_document()
    }

    #[test]
    fn carrier_counts_match_linear_scan() {
        let doc = sample();
        let scan = |name: &str, value: &str| {
            doc.descendants_or_self(doc.root())
                .filter(|&n| doc.attribute(n, name) == Some(value))
                .count()
        };
        for (name, value) in [
            ("class", "row"),
            ("class", "cell"),
            ("id", "x"),
            ("class", "absent"),
            ("absent", "row"),
        ] {
            assert_eq!(
                doc.carrier_count(name, value),
                scan(name, value),
                "{name}={value}"
            );
        }
    }

    #[test]
    fn value_census_matches_walked_set() {
        let doc = sample();
        let mut expected = std::collections::BTreeSet::new();
        for n in doc.descendants_or_self(doc.root()) {
            for a in doc.attributes(n) {
                expected.insert(a.value.clone());
            }
        }
        assert_eq!(**doc.attribute_value_census(), expected);
        // Repeated calls share the same allocation.
        assert!(std::sync::Arc::ptr_eq(
            doc.attribute_value_census(),
            doc.attribute_value_census()
        ));
    }

    #[test]
    fn shadowed_duplicate_names_follow_first_wins() {
        let doc = el("div")
            .attr("class", "first")
            .attr("class", "second")
            .into_document();
        // `Document::attribute` sees only the first value …
        assert_eq!(doc.carrier_count("class", "first"), 1);
        assert_eq!(doc.carrier_count("class", "second"), 0);
        // … but the value census records every value present in the markup.
        assert!(doc.attribute_value_census().contains("first"));
        assert!(doc.attribute_value_census().contains("second"));
    }
}
