//! The combinatorial number system: ranking and unranking fixed-weight bitstrings.
//!
//! The constrained simulator indexes its statevector by the feasible states with Hamming
//! weight `k`.  The bijection used is the colexicographic combinatorial number system,
//! which for fixed weight coincides with increasing numeric order of the bitmasks — the
//! same order in which [`crate::GosperIter`] enumerates them.  This lets the simulator
//! translate between a basis state (a `u64` mask) and its position `0..C(n,k)` in `O(k)`
//! or `O(n)` time without a hash map.

use crate::binomial::binomial;

/// Rank of a weight-`k` word among all words of the same weight, in increasing numeric
/// order.  `k` is inferred from the word's popcount.
///
/// The rank is `Σ_i C(p_i, i+1)` where `p_0 < p_1 < … < p_{k-1}` are the set bit
/// positions (combinatorial number system, colex order).
pub fn rank_combination(word: u64) -> u64 {
    let mut rank = 0u64;
    let mut i = 1usize;
    let mut w = word;
    while w != 0 {
        let pos = w.trailing_zeros() as usize;
        rank += binomial(pos, i);
        i += 1;
        w &= w - 1; // clear lowest set bit
    }
    rank
}

/// Inverse of [`rank_combination`]: the `rank`-th weight-`k` word in increasing numeric
/// order.
///
/// # Panics
/// Panics if `rank >= C(64, k)` territory where positions would exceed 63 bits; in
/// practice callers always have `rank < C(n,k)` for some `n ≤ 63`.
pub fn unrank_combination(mut rank: u64, k: usize) -> u64 {
    let mut word = 0u64;
    for i in (1..=k).rev() {
        // Find the largest position p with C(p, i) <= rank.
        let mut p = i - 1; // C(i-1, i) = 0 <= rank always
        let mut next = binomial(p + 1, i);
        while next <= rank {
            p += 1;
            assert!(p < 64, "unrank_combination position overflow");
            next = binomial(p + 1, i);
        }
        rank -= binomial(p, i);
        word |= 1u64 << p;
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gosper::GosperIter;

    #[test]
    fn rank_of_smallest_and_largest() {
        // Smallest weight-3 word in 6 bits: 0b000111 has rank 0.
        assert_eq!(rank_combination(0b000111), 0);
        // Largest weight-3 word in 6 bits: 0b111000 has rank C(6,3)-1 = 19.
        assert_eq!(rank_combination(0b111000), 19);
    }

    #[test]
    fn rank_matches_gosper_enumeration_order() {
        for (n, k) in [(6, 3), (8, 2), (10, 5), (12, 6), (7, 1), (9, 0)] {
            for (expected_rank, word) in GosperIter::new(n, k).enumerate() {
                assert_eq!(
                    rank_combination(word),
                    expected_rank as u64,
                    "word {word:b} n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn unrank_is_inverse_of_rank() {
        for (n, k) in [(6, 3), (10, 4), (12, 6), (13, 2)] {
            for word in GosperIter::new(n, k) {
                let r = rank_combination(word);
                assert_eq!(unrank_combination(r, k), word);
            }
        }
    }

    #[test]
    fn unrank_enumerates_in_order() {
        let n = 9;
        let k = 4;
        let total = crate::binomial(n, k);
        let mut prev = None;
        for r in 0..total {
            let w = unrank_combination(r, k);
            assert_eq!(w.count_ones() as usize, k);
            assert!(w < (1u64 << n));
            if let Some(p) = prev {
                assert!(w > p);
            }
            prev = Some(w);
        }
    }

    #[test]
    fn weight_zero_word() {
        assert_eq!(rank_combination(0), 0);
        assert_eq!(unrank_combination(0, 0), 0);
    }

    #[test]
    fn large_n_round_trip() {
        // Spot-check a few ranks at n=40, k=5 without enumerating the whole space.
        let k = 5;
        for r in [0u64, 1, 1000, 123_456, binomial(40, 5) - 1] {
            let w = unrank_combination(r, k);
            assert_eq!(w.count_ones() as usize, k);
            assert!(w < (1u64 << 40));
            assert_eq!(rank_combination(w), r);
        }
    }
}
