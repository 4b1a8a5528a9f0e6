//! A fast, non-cryptographic hasher (the classic `FxHash` multiply-xor
//! scheme used by rustc) for the workspace's internal memo tables.
//!
//! The structural-hash index recombines per-subtree hashes for every node
//! of every snapshot, the XPath trie hashes a `Step` — strings included —
//! on every memo probe, and induction's bookkeeping hashes rendered
//! expressions and node ids millions of times per run; the default SipHash
//! costs more than the probe itself, and collisions only cost a
//! comparison, so DoS resistance buys nothing here.  Never use this for
//! attacker-controlled keys in a service boundary.
//!
//! The scheme lives in `wi-dom` (the workspace's dependency root) so the
//! hash index, the evaluator and the maintenance caches all share one
//! implementation.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash state.
#[derive(Default)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap` keyed through [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed through [`FxHasher`].
pub type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_and_sets_behave() {
        let mut m: FxMap<String, u32> = FxMap::default();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.get("a"), Some(&1));
        let mut s: FxSet<u64> = FxSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }
}
