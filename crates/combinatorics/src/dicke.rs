//! The Dicke (fixed Hamming weight) subspace.
//!
//! A [`DickeSubspace`] represents the set of all `n`-qubit computational basis states
//! with Hamming weight `k` — the feasible set of Hamming-weight-constrained problems and
//! the support of the Dicke state `|D^n_k⟩` the constrained QAOA starts in.  It owns the
//! enumeration of those states and the bidirectional map between basis states and dense
//! indices `0..C(n,k)` used by the constrained simulator and mixer builders.

use crate::binomial::binomial;
use crate::gosper::GosperIter;
use crate::ranking::rank_combination;

/// The subspace of `n`-bit strings with Hamming weight `k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DickeSubspace {
    n: usize,
    k: usize,
    /// All basis states in increasing numeric order; `states[i]` is the state with
    /// dense index `i`.
    states: Vec<u64>,
}

impl DickeSubspace {
    /// Enumerates the subspace.  Requires `k ≤ n ≤ 63`.
    ///
    /// # Panics
    /// Panics if `k > n`, or if the subspace dimension would not fit in memory-relevant
    /// bounds (`C(n,k)` must fit in a `usize`).
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k <= n, "Hamming weight k={k} exceeds qubit count n={n}");
        assert!(n <= 63, "DickeSubspace supports at most 63 qubits");
        let dim = binomial(n, k);
        let states: Vec<u64> = GosperIter::new(n, k).collect();
        debug_assert_eq!(states.len() as u64, dim);
        DickeSubspace { n, k, states }
    }

    /// Number of qubits.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Hamming weight of every state in the subspace.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Dimension `C(n,k)` of the subspace.
    #[inline]
    pub fn dim(&self) -> usize {
        self.states.len()
    }

    /// The basis states in index order.
    #[inline]
    pub fn states(&self) -> &[u64] {
        &self.states
    }

    /// The basis state at dense index `i`.
    #[inline]
    pub fn state_at(&self, i: usize) -> u64 {
        self.states[i]
    }

    /// The dense index of a basis state, computed via the combinatorial number system.
    ///
    /// # Panics
    /// In debug builds, panics if the state does not belong to the subspace.
    #[inline]
    pub fn index_of(&self, state: u64) -> usize {
        debug_assert_eq!(
            state.count_ones() as usize,
            self.k,
            "state {state:b} does not have Hamming weight {}",
            self.k
        );
        debug_assert!(state < (1u64 << self.n));
        rank_combination(state) as usize
    }

    /// Whether a basis state belongs to this subspace.
    #[inline]
    pub fn contains(&self, state: u64) -> bool {
        state < (1u64 << self.n) && state.count_ones() as usize == self.k
    }

    /// Iterates over `(dense index, basis state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.states.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_matches_binomial() {
        for (n, k) in [(6, 3), (8, 4), (12, 6), (10, 0), (10, 10)] {
            let s = DickeSubspace::new(n, k);
            assert_eq!(s.dim() as u64, binomial(n, k));
            assert_eq!(s.n(), n);
            assert_eq!(s.k(), k);
        }
    }

    #[test]
    fn index_of_inverts_state_at() {
        let s = DickeSubspace::new(10, 4);
        for (i, state) in s.iter() {
            assert_eq!(s.index_of(state), i);
            assert_eq!(s.state_at(i), state);
        }
    }

    #[test]
    fn contains_rejects_wrong_weight_and_range() {
        let s = DickeSubspace::new(6, 3);
        assert!(s.contains(0b000111));
        assert!(!s.contains(0b000011));
        assert!(!s.contains(0b1000111)); // 7th bit set → out of range
    }

    #[test]
    fn states_sorted_and_unique() {
        let s = DickeSubspace::new(9, 5);
        for w in s.states().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    #[should_panic]
    fn k_greater_than_n_panics() {
        let _ = DickeSubspace::new(4, 5);
    }
}
