//! Walker/Vose alias tables: O(dim) construction, O(1) per draw.
//!
//! An [`AliasTable`] turns an arbitrary finite discrete distribution into a pair of
//! `dim`-length arrays such that sampling costs one uniform cell pick plus one
//! uniform accept/alias test — constant work per shot no matter how large the
//! feasible set is.  Construction is the two-stack Vose method with deterministic
//! stack discipline (indices are pushed in increasing order and popped LIFO), so the
//! same weights always build the same table and the sampled stream is a pure function
//! of the RNG seed.

use rand::{Rng, RngCore};

/// A pre-processed discrete distribution supporting O(1) draws.
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// Acceptance threshold of each cell, in `[0, 1]`.
    prob: Vec<f64>,
    /// The donor outcome a rejected cell falls through to.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table from non-negative weights (they need not be normalised).
    ///
    /// # Panics
    /// Panics if the iterator is empty, longer than `u32::MAX`, any weight is negative
    /// or non-finite, or the total weight is zero.
    pub fn new(weights: impl ExactSizeIterator<Item = f64>) -> Self {
        let n = weights.len();
        assert!(n > 0, "alias table needs at least one outcome");
        assert!(n <= u32::MAX as usize, "alias table outcome count overflow");
        let mut scaled: Vec<f64> = weights.collect();
        let mut total = 0.0;
        for &w in &scaled {
            assert!(
                w.is_finite() && w >= 0.0,
                "alias weights must be finite and non-negative (got {w})"
            );
            total += w;
        }
        assert!(total > 0.0, "alias weights must not all be zero");
        // Scale so the average cell holds exactly weight 1.
        let scale = n as f64 / total;
        for w in &mut scaled {
            *w *= scale;
        }

        let mut prob = vec![0.0f64; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        // Deterministic Vose: indices enter the stacks in increasing order, leave LIFO.
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &w) in scaled.iter().enumerate() {
            if w < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let (s, l) = (
                small.pop().expect("checked non-empty"),
                large.pop().expect("checked non-empty"),
            );
            let (s_idx, l_idx) = (s as usize, l as usize);
            prob[s_idx] = scaled[s_idx];
            alias[s_idx] = l;
            // The donor gives away exactly the deficit of the small cell.
            scaled[l_idx] = (scaled[l_idx] + scaled[s_idx]) - 1.0;
            if scaled[l_idx] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers hold weight 1 up to rounding: they always accept.
        for i in large.into_iter().chain(small) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of outcomes.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index: a uniform cell, then accept or fall through to the
    /// cell's alias.  Exactly two RNG words per shot, O(1) work.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let cell = (rng.next_u64() % self.prob.len() as u64) as usize;
        if rng.gen::<f64>() < self.prob[cell] {
            cell
        } else {
            self.alias[cell] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The exact probability `t` assigns to `outcome`: the table is a lossless
    /// encoding of the normalised weights, up to f64 rounding.
    fn outcome_probability(t: &AliasTable, outcome: usize) -> f64 {
        let n = t.prob.len() as f64;
        let mut p = t.prob[outcome] / n;
        for (cell, &a) in t.alias.iter().enumerate() {
            if a as usize == outcome && cell != outcome {
                p += (1.0 - t.prob[cell]) / n;
            }
        }
        // A cell aliased to itself contributes its own rejection mass too.
        if t.alias[outcome] as usize == outcome {
            p += (1.0 - t.prob[outcome]) / n;
        }
        p
    }

    #[test]
    fn two_state_table_is_exhaustively_exact() {
        // weights (0.25, 0.75) scale to (0.5, 1.5): cell 0 keeps threshold 0.5 with
        // alias 1, cell 1 saturates.  Every path through `sample` is enumerable.
        let t = AliasTable::new([0.25, 0.75].into_iter());
        assert_eq!(t.len(), 2);
        assert!((t.prob[0] - 0.5).abs() < 1e-15);
        assert_eq!(t.alias[0], 1);
        assert!((t.prob[1] - 1.0).abs() < 1e-15);
        assert!((outcome_probability(&t, 0) - 0.25).abs() < 1e-15);
        assert!((outcome_probability(&t, 1) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn encodes_arbitrary_weights_exactly() {
        // The alias encoding must reproduce the normalised weights to f64 rounding,
        // for uniform, skewed, sparse and single-outcome distributions.
        let cases: Vec<Vec<f64>> = vec![
            vec![1.0],
            vec![1.0; 7],
            vec![0.0, 0.0, 5.0, 0.0],
            vec![1e-12, 1.0, 2.0, 3.0, 1e3],
            (1..=33).map(|i| (i as f64).sqrt()).collect(),
        ];
        for weights in cases {
            let total: f64 = weights.iter().sum();
            let t = AliasTable::new(weights.iter().copied());
            for (i, &w) in weights.iter().enumerate() {
                let expect = w / total;
                let got = outcome_probability(&t, i);
                assert!(
                    (got - expect).abs() < 1e-12,
                    "outcome {i}: encoded {got}, expected {expect}"
                );
            }
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let weights: Vec<f64> = (0..100).map(|i| ((i * 37) % 11) as f64 + 0.1).collect();
        let a = AliasTable::new(weights.iter().copied());
        let b = AliasTable::new(weights.iter().copied());
        assert_eq!(a.prob, b.prob);
        assert_eq!(a.alias, b.alias);
    }

    #[test]
    fn zero_weight_outcomes_are_never_drawn() {
        let t = AliasTable::new([0.0, 1.0, 0.0, 1.0].into_iter());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let i = t.sample(&mut rng);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    #[should_panic]
    fn empty_weights_panic() {
        let _ = AliasTable::new(std::iter::empty());
    }

    #[test]
    #[should_panic]
    fn all_zero_weights_panic() {
        let _ = AliasTable::new([0.0, 0.0].into_iter());
    }

    #[test]
    #[should_panic]
    fn negative_weights_panic() {
        let _ = AliasTable::new([0.5, -0.1].into_iter());
    }
}
