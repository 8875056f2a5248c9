//! Synthetic cost functions.
//!
//! Two roles:
//!
//! 1. **Large-n Grover studies.**  The Grover fast path (§2.4) only needs the *distinct*
//!    objective values and their degeneracies.  For structured synthetic costs those
//!    degeneracies are known analytically, which is how simulations up to `n = 100` are
//!    exercised without enumerating `2¹⁰⁰` states (see DESIGN.md §4).
//! 2. **Threshold phase separators.**  Replacing `C(x)` by the indicator
//!    `C(x) ≥ threshold` turns Grover-mixer QAOA into Grover's search, one of the
//!    non-traditional variations the paper lists.

use crate::cost::CostFunction;
use juliqaoa_combinatorics::binomial;
use serde::{Deserialize, Serialize};

/// The Hamming-ramp cost `C(x) = popcount(x)`.
///
/// Its value distribution over the full space is binomial — `C(n,w)` states take value
/// `w` — so the Grover-compressed simulation can run at any `n` from the analytic table
/// returned by [`HammingRamp::analytic_degeneracies`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HammingRamp {
    n: usize,
}

impl HammingRamp {
    /// Creates the ramp on `n` qubits.
    pub fn new(n: usize) -> Self {
        HammingRamp { n }
    }

    /// The exact `(value, degeneracy)` table over the full `2ⁿ` space, computed from
    /// binomial coefficients rather than enumeration.  Usable up to `n = 64` (value
    /// degeneracies must fit in `u64`).
    pub fn analytic_degeneracies(&self) -> Vec<(f64, u64)> {
        (0..=self.n)
            .map(|w| (w as f64, binomial(self.n, w)))
            .collect()
    }
}

impl CostFunction for HammingRamp {
    fn num_qubits(&self) -> usize {
        self.n
    }

    fn evaluate(&self, state: u64) -> f64 {
        state.count_ones() as f64
    }

    fn name(&self) -> &str {
        "hamming_ramp"
    }
}

/// A "needle" cost: value 1 on a set of marked states, 0 elsewhere.  With the Grover
/// mixer this reproduces Grover's search as a QAOA; the analytic degeneracy table is
/// `{1: #marked, 0: 2ⁿ − #marked}`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MarkedStates {
    n: usize,
    marked: Vec<u64>,
}

impl MarkedStates {
    /// Creates the cost function with the given marked states.
    pub fn new(n: usize, marked: Vec<u64>) -> Self {
        assert!(n <= 63);
        MarkedStates { n, marked }
    }

    /// Analytic `(value, degeneracy)` table over the full space, valid for any `n ≤ 63`.
    pub fn analytic_degeneracies(&self) -> Vec<(f64, u64)> {
        let m = self.marked.len() as u64;
        let total = 1u64 << self.n;
        if m == 0 {
            vec![(0.0, total)]
        } else if m == total {
            vec![(1.0, total)]
        } else {
            vec![(0.0, total - m), (1.0, m)]
        }
    }
}

impl CostFunction for MarkedStates {
    fn num_qubits(&self) -> usize {
        self.n
    }

    fn evaluate(&self, state: u64) -> f64 {
        if self.marked.contains(&state) {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &str {
        "marked_states"
    }
}

/// The threshold phase separator of Golden et al.: `C_t(x) = 1` if the wrapped objective
/// reaches the threshold, else `0`.
pub struct ThresholdCost<C: CostFunction> {
    inner: C,
    threshold: f64,
}

impl<C: CostFunction> ThresholdCost<C> {
    /// Wraps `inner` with a threshold indicator.
    pub fn new(inner: C, threshold: f64) -> Self {
        ThresholdCost { inner, threshold }
    }

    /// The wrapped cost function.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl<C: CostFunction> CostFunction for ThresholdCost<C> {
    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }

    fn evaluate(&self, state: u64) -> f64 {
        if self.inner.evaluate(state) >= self.threshold {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &str {
        "threshold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcut::MaxCut;
    use juliqaoa_graphs::cycle_graph;

    #[test]
    fn hamming_ramp_values() {
        let c = HammingRamp::new(6);
        assert_eq!(c.evaluate(0), 0.0);
        assert_eq!(c.evaluate(0b111111), 6.0);
        assert_eq!(c.evaluate(0b010101), 3.0);
    }

    #[test]
    fn hamming_ramp_analytic_degeneracies_sum_to_2n() {
        for n in [4usize, 8, 20, 40] {
            let c = HammingRamp::new(n);
            let table = c.analytic_degeneracies();
            assert_eq!(table.len(), n + 1);
            let total: u128 = table.iter().map(|&(_, d)| d as u128).sum();
            assert_eq!(total, 1u128 << n);
        }
    }

    #[test]
    fn hamming_ramp_analytic_matches_enumeration() {
        let n = 8;
        let c = HammingRamp::new(n);
        let analytic = c.analytic_degeneracies();
        for (value, deg) in analytic {
            let counted = (0..(1u64 << n)).filter(|&x| c.evaluate(x) == value).count() as u64;
            assert_eq!(counted, deg);
        }
    }

    #[test]
    fn marked_states_values_and_table() {
        let c = MarkedStates::new(5, vec![3, 17]);
        assert_eq!(c.evaluate(3), 1.0);
        assert_eq!(c.evaluate(17), 1.0);
        assert_eq!(c.evaluate(4), 0.0);
        let table = c.analytic_degeneracies();
        assert_eq!(table, vec![(0.0, 30), (1.0, 2)]);
        let empty = MarkedStates::new(4, vec![]);
        assert_eq!(empty.analytic_degeneracies(), vec![(0.0, 16)]);
    }

    #[test]
    fn threshold_cost_indicator() {
        let mc = MaxCut::new(cycle_graph(6));
        let t = ThresholdCost::new(mc, 5.0);
        // The alternating cut achieves 6 ≥ 5.
        assert_eq!(t.evaluate(0b010101), 1.0);
        // The trivial cut achieves 0 < 5.
        assert_eq!(t.evaluate(0), 0.0);
        assert_eq!(t.threshold(), 5.0);
        assert_eq!(t.num_qubits(), 6);
    }
}
