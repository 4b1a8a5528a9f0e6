//! Per-document string interning.
//!
//! # Why
//!
//! The evaluator's inner loops compare tag names, attribute names and
//! attribute values millions of times per induction run (`descendant::div`,
//! `[@class="x"]`, …).  Comparing heap `String`s makes every one of those a
//! length check plus a memcmp; the [`Interner`] replaces them with `u32`
//! symbol compares.  Every tag name, attribute name and attribute value of a
//! [`Document`](crate::Document) is interned exactly once; the arena nodes
//! carry the symbols alongside the owning strings, and the query evaluator
//! resolves its needles (`"div"`, `"class"`, `"x"`) to symbols once per step
//! — a needle that is *absent* from the interner cannot match any node, so
//! the lookup miss is an instant "no match".
//!
//! # Ownership contract
//!
//! Every node's symbols are interned when the node is appended, and a
//! document is immutable once built (see [`crate::order`]), so the
//! interner is complete when the document is: a [`Sym`] stays valid for
//! the lifetime of its document (and of clones of that document —
//! `Document::clone` clones the interner, so symbols keep resolving to the
//! same strings in the clone).
//!
//! The one hard rule: **symbols are only meaningful relative to the document
//! (family) that produced them.**  Two documents intern independently, so
//! the same string maps to different symbols in each; content reaches a
//! document only as strings (markup for the parser, names and values for
//! the builders), and the append step interns every payload it admits, so
//! there is no way to construct a node whose symbols belong to a foreign
//! interner.
//!
//! # Storage
//!
//! All strings of an interner sit back to back in a single `String`, with
//! one end offset per symbol, and a hash-keyed map with collision chains
//! finds them again (see [`Interner`]).  A parsed page interns about a
//! hundred distinct strings; with one buffer each of them is a copy into
//! already reserved space, with no heap allocation of its own, and
//! `resolve` is a slice of contiguous memory.
//!
//! Symbols are deliberately kept out of the public equality semantics:
//! [`crate::NodeData`] and [`crate::Attribute`] compare by their strings, so
//! structural equality across documents (e.g. [`crate::subtree_equal`]) is
//! unaffected by interner numbering.

use crate::fx::FxMap;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// An interned string: a dense `u32` handle into a document's [`Interner`].
///
/// Symbols are cheap to copy, hash and compare; equal symbols of the same
/// document always denote equal strings, and — because interning dedupes —
/// equal strings of the same document always map to equal symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Sym(u32);

impl Sym {
    /// Sentinel for "no symbol assigned" (text nodes' tag slot, payloads not
    /// yet admitted by an arena).  Never returned by [`Interner::intern`].
    pub(crate) const UNSET: Sym = Sym(u32::MAX);

    /// The raw index of this symbol in its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// A string interner: bidirectional map between strings and dense [`Sym`]s.
///
/// Every interned string lives back to back in one buffer, in symbol
/// order; `ends[i]` is where symbol `i` stops (and symbol `i + 1` starts).
/// Lookups go through a map from the string's hash to the newest symbol
/// with that hash, and `chain` links each symbol to the previous one with
/// the same hash.  A new string therefore costs no allocation of its own:
/// it is appended to the buffer, and the vectors and the map grow
/// geometrically.
///
/// See the [module documentation](self) for the ownership contract.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    buf: String,
    ends: Vec<usize>,
    heads: FxMap<u64, Sym>,
    chain: Vec<Sym>,
    /// Hashes the strings.  The strings come from the pages being parsed,
    /// so the hash is keyed per process (SipHash): a page cannot be
    /// crafted to put its names and values on one collision chain.
    hasher: RandomState,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns a string, returning its (new or existing) symbol.
    pub fn intern(&mut self, s: &str) -> Sym {
        let hash = self.hasher.hash_one(s);
        if let Some(sym) = self.find(hash, s) {
            return sym;
        }
        let sym = Sym(self.ends.len() as u32);
        self.buf.push_str(s);
        self.ends.push(self.buf.len());
        self.chain
            .push(self.heads.insert(hash, sym).unwrap_or(Sym::UNSET));
        sym
    }

    /// Looks a string up without interning it.  `None` means the string has
    /// never been seen by this document — no node can match it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.find(self.hasher.hash_one(s), s)
    }

    fn find(&self, hash: u64, s: &str) -> Option<Sym> {
        let mut sym = *self.heads.get(&hash)?;
        while sym != Sym::UNSET {
            if self.resolve(sym) == s {
                return Some(sym);
            }
            sym = self.chain[sym.index()];
        }
        None
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this interner (or its clones).
    pub fn resolve(&self, sym: Sym) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.buf[start..self.ends[i]]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// All interned strings in [`Sym::index`] order.  Lets the hash index
    /// precompute one content hash per symbol in a single pass.
    pub(crate) fn strings(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.resolve(Sym(i as u32)))
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes_and_resolves() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        let a = i.intern("div");
        let b = i.intern("span");
        let a2 = i.intern("div");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "div");
        assert_eq!(i.resolve(b), "span");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("div"), None);
        let a = i.intern("div");
        assert_eq!(i.get("div"), Some(a));
        assert_eq!(i.len(), 1);
        assert_eq!(a.index(), 0);
    }

    #[test]
    fn symbols_are_dense_and_ordered_by_first_use() {
        let mut i = Interner::new();
        let syms: Vec<Sym> = ["a", "b", "c", "b", "a"]
            .iter()
            .map(|s| i.intern(s))
            .collect();
        assert_eq!(syms[0].index(), 0);
        assert_eq!(syms[1].index(), 1);
        assert_eq!(syms[2].index(), 2);
        assert_eq!(syms[3], syms[1]);
        assert_eq!(syms[4], syms[0]);
    }

    #[test]
    fn empty_prefix_and_nul_strings_resolve() {
        let mut i = Interner::new();
        // Strings that share bytes still get symbols of their own and
        // resolve back exactly from the shared buffer.
        let strings = ["", "a", "a\0", "ab", "", "a"];
        let syms: Vec<Sym> = strings.iter().map(|s| i.intern(s)).collect();
        assert_eq!(i.len(), 4);
        assert_eq!(syms[4], syms[0]);
        assert_eq!(syms[5], syms[1]);
        for (s, &sym) in strings.iter().zip(&syms) {
            assert_eq!(i.resolve(sym), *s);
            assert_eq!(i.get(s), Some(sym));
        }
        let all: Vec<&str> = i.strings().collect();
        assert_eq!(all, ["", "a", "a\0", "ab"]);
    }
}
