//! Simulation results.
//!
//! The Julia package's `simulate()` returns "a special object, which stores the
//! statevector as well as objective values, and can be used to extract the expectation
//! value, amplitudes for each state, and ground state probability".
//! [`SimulationResult`] is that object.

use juliqaoa_linalg::{vector, Complex64};

/// The outcome of simulating a QAOA at a fixed set of angles.
#[derive(Clone, Debug)]
pub struct SimulationResult {
    statevector: Vec<Complex64>,
    expectation: f64,
    max_value: f64,
    optimal_probability: f64,
}

impl SimulationResult {
    /// Builds a result by measuring a final state against its objective values.
    ///
    /// # Panics
    /// Panics if the state and objective vectors have different lengths or are empty.
    pub fn from_state(statevector: Vec<Complex64>, obj_vals: &[f64]) -> Self {
        assert_eq!(statevector.len(), obj_vals.len());
        assert!(!obj_vals.is_empty());
        let expectation = vector::diagonal_expectation(&statevector, obj_vals);
        let max_value = obj_vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut result = SimulationResult {
            statevector,
            expectation,
            max_value,
            optimal_probability: 0.0,
        };
        // Probability mass on the optimal (maximum objective) states, read through the
        // same `probabilities()` path samplers and metrics use.
        result.optimal_probability = result
            .probabilities()
            .zip(obj_vals.iter())
            .filter(|(_, &v)| v == max_value)
            .map(|(p, _)| p)
            .sum();
        result
    }

    /// The expectation value `⟨β,γ|C(x)|β,γ⟩` (the quantity the outer loop optimizes).
    pub fn expectation_value(&self) -> f64 {
        self.expectation
    }

    /// The final statevector over the feasible set.
    pub fn statevector(&self) -> &[Complex64] {
        &self.statevector
    }

    /// The amplitude of feasible state `i`.
    pub fn amplitude(&self, i: usize) -> Complex64 {
        self.statevector[i]
    }

    /// Measurement probabilities `|ψ_x|²` over the feasible set, in dense-index order.
    ///
    /// Returned as an iterator so consumers that only stream the distribution — the
    /// alias-table builder in `juliqaoa-sampling`, the optimal-probability and
    /// total-probability reductions below — share one code path without materialising
    /// a second `dim`-length vector.  `collect()` when a `Vec` is needed.
    pub fn probabilities(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.statevector.iter().map(|z| z.norm_sqr())
    }

    /// Probability of measuring a state that attains the maximum objective value
    /// ("ground state probability" in the paper's convention of maximizing `C`).
    pub fn ground_state_probability(&self) -> f64 {
        self.optimal_probability
    }

    /// The largest objective value over the feasible set.
    pub fn optimal_value(&self) -> f64 {
        self.max_value
    }

    /// Total probability mass (should be 1 for a unitary simulation; exposed for tests
    /// and sanity checks).
    pub fn total_probability(&self) -> f64 {
        self.probabilities().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_uniform_result() -> SimulationResult {
        let dim = 4;
        let amp = 0.5;
        let state = vec![Complex64::new(amp, 0.0); dim];
        let obj = vec![0.0, 1.0, 2.0, 3.0];
        SimulationResult::from_state(state, &obj)
    }

    #[test]
    fn uniform_state_statistics() {
        let r = make_uniform_result();
        assert!((r.expectation_value() - 1.5).abs() < 1e-12);
        assert!((r.ground_state_probability() - 0.25).abs() < 1e-12);
        assert_eq!(r.optimal_value(), 3.0);
        assert!((r.total_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn concentrated_state_finds_optimum() {
        let mut state = vec![Complex64::ZERO; 4];
        state[3] = Complex64::ONE;
        let obj = vec![0.0, 1.0, 2.0, 3.0];
        let r = SimulationResult::from_state(state, &obj);
        assert!((r.expectation_value() - 3.0).abs() < 1e-12);
        assert!((r.ground_state_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_optimum_sums_probability() {
        let amp = (0.5f64).sqrt();
        let mut state = vec![Complex64::ZERO; 4];
        state[1] = Complex64::new(amp, 0.0);
        state[2] = Complex64::new(0.0, amp);
        let obj = vec![0.0, 5.0, 5.0, 1.0];
        let r = SimulationResult::from_state(state, &obj);
        assert!((r.ground_state_probability() - 1.0).abs() < 1e-12);
        assert!((r.expectation_value() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn probabilities_and_amplitudes() {
        let r = make_uniform_result();
        let probs: Vec<f64> = r.probabilities().collect();
        assert_eq!(r.probabilities().len(), 4);
        assert!(probs.iter().all(|&p| (p - 0.25).abs() < 1e-12));
        assert!((r.amplitude(2) - Complex64::new(0.5, 0.0)).abs() < 1e-12);
        assert_eq!(r.statevector().len(), 4);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = SimulationResult::from_state(vec![Complex64::ONE; 3], &[1.0, 2.0]);
    }
}
