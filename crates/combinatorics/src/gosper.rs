//! Gosper's hack: iterating all n-bit words of fixed Hamming weight.
//!
//! The paper (§2.4) uses Gosper's hack to "efficiently iterate through all binary strings
//! with k ones" when spreading objective-value degeneracy counting across workers.  The
//! iterator below yields weight-k words in increasing numeric order, starting from the
//! smallest (`2^k - 1`) and ending at the largest (`(2^k - 1) << (n - k)`).

use crate::binomial::binomial;

/// Returns the next integer after `x` with the same Hamming weight (Gosper's hack).
///
/// The caller is responsible for stopping before the result exceeds the intended n-bit
/// range; [`GosperIter`] handles that bookkeeping.
#[inline]
pub fn next_same_weight(x: u64) -> u64 {
    debug_assert!(x != 0, "Gosper's hack is undefined for zero");
    let c = x & x.wrapping_neg(); // lowest set bit
    let r = x + c; // ripple the carry
                   // Shift the trailing ones back to the bottom.
    (((x ^ r) >> 2) / c) | r
}

/// Iterator over all `n`-bit words with exactly `k` ones, in increasing numeric order.
#[derive(Clone, Debug)]
pub struct GosperIter {
    current: Option<u64>,
    limit: u64,
    remaining: u64,
}

impl GosperIter {
    /// Creates the iterator.  `k = 0` yields the single word `0`; `k > n` yields nothing.
    ///
    /// # Panics
    /// Panics if `n > 63` (the iterator works on `u64` words).
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n <= 63, "GosperIter supports at most 63-bit words");
        if k > n {
            return GosperIter {
                current: None,
                limit: 0,
                remaining: 0,
            };
        }
        let first = if k == 0 { 0 } else { (1u64 << k) - 1 };
        let limit = 1u64 << n;
        GosperIter {
            current: Some(first),
            limit,
            remaining: binomial(n, k),
        }
    }
}

impl Iterator for GosperIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let cur = self.current?;
        if self.remaining == 0 {
            self.current = None;
            return None;
        }
        self.remaining -= 1;
        // Compute successor; stop when it leaves the n-bit range or weight-0 is exhausted.
        self.current = if cur == 0 {
            None
        } else {
            let next = next_same_weight(cur);
            if next >= self.limit {
                None
            } else {
                Some(next)
            }
        };
        Some(cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining as usize;
        (r, Some(r))
    }
}

impl ExactSizeIterator for GosperIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_same_weight_examples() {
        assert_eq!(next_same_weight(0b0011), 0b0101);
        assert_eq!(next_same_weight(0b0101), 0b0110);
        assert_eq!(next_same_weight(0b0110), 0b1001);
        assert_eq!(next_same_weight(0b1001), 0b1010);
        assert_eq!(next_same_weight(0b1010), 0b1100);
        assert_eq!(next_same_weight(1), 2);
    }

    #[test]
    fn iterates_exactly_binomial_many() {
        for n in 1..=12usize {
            for k in 0..=n {
                let count = GosperIter::new(n, k).count() as u64;
                assert_eq!(count, binomial(n, k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn all_yielded_words_have_weight_k_and_fit_in_n_bits() {
        let n = 10;
        let k = 4;
        for word in GosperIter::new(n, k) {
            assert_eq!(word.count_ones() as usize, k);
            assert!(word < (1u64 << n));
        }
    }

    #[test]
    fn words_are_strictly_increasing_and_unique() {
        let mut prev: Option<u64> = None;
        for word in GosperIter::new(12, 6) {
            if let Some(p) = prev {
                assert!(word > p);
            }
            prev = Some(word);
        }
    }

    #[test]
    fn weight_zero_and_full_weight() {
        let zero: Vec<u64> = GosperIter::new(5, 0).collect();
        assert_eq!(zero, vec![0]);
        let full: Vec<u64> = GosperIter::new(5, 5).collect();
        assert_eq!(full, vec![0b11111]);
    }

    #[test]
    fn k_larger_than_n_is_empty() {
        assert_eq!(GosperIter::new(4, 5).count(), 0);
    }

    #[test]
    fn matches_filtered_enumeration() {
        let n = 9;
        let k = 3;
        let brute: Vec<u64> = (0..(1u64 << n))
            .filter(|x| x.count_ones() as usize == k)
            .collect();
        let gosper: Vec<u64> = GosperIter::new(n, k).collect();
        assert_eq!(brute, gosper);
    }

    #[test]
    fn exact_size_iterator_hint() {
        let it = GosperIter::new(8, 3);
        assert_eq!(it.len(), binomial(8, 3) as usize);
    }
}
