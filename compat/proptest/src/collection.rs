//! Collection strategies: `vec`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// A size specification for [`vec()`]: an exact length or a length range.
pub trait SizeRange {
    /// Picks a concrete length.
    fn pick(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty size range");
        self.start + rng.below(self.end - self.start)
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        assert!(self.start() <= self.end(), "empty size range");
        self.start() + rng.below(self.end() - self.start() + 1)
    }
}

/// A `Vec` of values drawn from an element strategy, with a length drawn
/// from `size`.
pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
    VecStrategy { element, size }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S, R> {
    element: S,
    size: R,
}

impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.pick(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_respect_the_size_range() {
        let mut rng = TestRng::from_seed(3);
        let strat = vec(0u8..5, 1..4usize);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((1..4).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
        assert_eq!(vec(0u8..5, 3usize).generate(&mut rng).len(), 3);
    }
}
