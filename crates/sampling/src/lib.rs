//! Shot-based measurement for juliqaoa.
//!
//! The exact simulator in `juliqaoa-core` returns amplitudes and expectation values;
//! every use of QAOA on hardware is shot-based — draw bitstrings from `|ψ_x|²`, then
//! estimate.  This crate is that measurement layer:
//!
//! * [`multinomial`](mod@multinomial) — exact per-outcome counts in O(outcomes):
//!   [`binomial`] (BTRD above a mean of 10, inversion below) and [`multinomial()`], a
//!   chain of conditional binomials.  A sampled evaluation on a simulator with value
//!   classes draws its shots this way, one count per class, whatever the shot count;
//! * [`alias::AliasTable`] — Walker/Vose alias sampling: O(dim) build from a final
//!   statevector, O(1) per shot afterwards;
//! * [`sampler::StateSampler`] — per-shot draws for states without value classes:
//!   fixed-size RNG shards with seeds derived per shard index
//!   (`juliqaoa_combinatorics::seeding`), merged by exact integer addition, so a
//!   histogram is **bit-identical across thread counts**;
//! * [`sampler::SampleCounts`] / [`sampler::IndexMap`] — histograms over dense
//!   feasible-set indices or value classes, and the map back to computational basis
//!   states (identity or Dicke-subspace unranking);
//! * [`estimator`] — the [`ShotEstimator`] family: sample mean, CVaR-α, the Gibbs
//!   objective `−ln⟨e^{−ηC}⟩`, empirical optimal-solution frequency,
//!   approximation-ratio histograms and best-sampled-bitstring extraction.
//!
//! The [`SampleState`] extension trait hangs a cheap `sampler(seed)` constructor off
//! [`SimulationResult`], for per-shot draws over the full measurement distribution
//! (the optimizer's sampled objective draws class counts instead, see
//! `juliqaoa_optim::SampledObjective`).  The full path from simulation to shot
//! estimate is:
//!
//! ```
//! use juliqaoa_core::{Angles, Simulator};
//! use juliqaoa_mixers::Mixer;
//! use juliqaoa_problems::{precompute_full, MaxCut};
//! use juliqaoa_sampling::{estimator, SampleState, ShotEstimator};
//!
//! let graph = juliqaoa_problems::paper_maxcut_instance(8, 0);
//! let obj = precompute_full(&MaxCut::new(graph));
//! let sim = Simulator::new(obj, Mixer::transverse_field(8)).unwrap();
//! let result = sim.simulate(&Angles::new(vec![0.4], vec![0.7])).unwrap();
//! let counts = result.sampler(7).sample_counts(4096);
//! let cvar = ShotEstimator::CVaR { alpha: 0.2 }.estimate(&counts, sim.objective_values());
//! let (best, value) = estimator::best_sampled(&counts, sim.objective_values());
//! assert!(value <= sim.max_objective() && best < sim.dim());
//! assert!(cvar <= sim.max_objective() + 1e-12);
//! ```

pub mod alias;
pub mod estimator;
pub mod multinomial;
pub mod sampler;

pub use alias::AliasTable;
pub use estimator::{
    best_sampled, cvar, gibbs, optimal_frequency, ratio_histogram, sample_mean,
    validate_objective_values, ShotEstimator,
};
pub use multinomial::{binomial, multinomial};
pub use sampler::{IndexMap, SampleCounts, StateSampler, SHOT_SHARD_SIZE};

use juliqaoa_core::SimulationResult;

/// Extension trait giving simulation results a per-shot sampler.
///
/// The sampler resolves every shot to a basis state, which a readout of individual
/// bitstrings needs.  Estimators need only the count per objective value: for those,
/// [`multinomial()`] over the value-class probabilities draws the same distribution
/// in O(classes) (`juliqaoa_core::ValueClasses::probabilities`).
pub trait SampleState {
    /// Builds an O(1)-per-shot sampler over this state's measurement distribution
    /// `|ψ_x|²`, with all shot streams derived from `seed`.  O(dim) — one pass over
    /// the probabilities, no statevector copy.
    fn sampler(&self, seed: u64) -> StateSampler;
}

impl SampleState for SimulationResult {
    fn sampler(&self, seed: u64) -> StateSampler {
        StateSampler::from_probabilities(self.probabilities(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juliqaoa_core::{Angles, Simulator};
    use juliqaoa_mixers::Mixer;
    use juliqaoa_problems::{paper_maxcut_instance, precompute_full, MaxCut};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simulated_result(n: usize, p: usize) -> (Simulator, SimulationResult) {
        let obj = precompute_full(&MaxCut::new(paper_maxcut_instance(n, 0)));
        let sim = Simulator::new(obj, Mixer::transverse_field(n)).unwrap();
        let angles = Angles::random(p, &mut StdRng::seed_from_u64(11));
        let result = sim.simulate(&angles).unwrap();
        (sim, result)
    }

    #[test]
    fn sampled_frequencies_converge_to_the_state_probabilities() {
        let (_, result) = simulated_result(6, 2);
        let shots = 1u64 << 18;
        let counts = result.sampler(3).sample_counts(shots);
        for (i, p) in result.probabilities().enumerate() {
            let f = counts.count(i) as f64 / shots as f64;
            // Binomial σ ≤ 1/(2√shots) ≈ 0.001; 0.01 is a ≫5σ margin.
            assert!((f - p).abs() < 0.01, "state {i}: freq {f} vs prob {p}");
        }
    }

    #[test]
    fn optimal_frequency_matches_ground_state_probability() {
        let (sim, result) = simulated_result(6, 2);
        let counts = result.sampler(5).sample_counts(1 << 18);
        let f = optimal_frequency(&counts, sim.objective_values());
        assert!((f - result.ground_state_probability()).abs() < 0.01);
    }

    #[test]
    fn cvar_converges_to_the_exact_expectation_as_alpha_and_shots_grow() {
        let (sim, result) = simulated_result(7, 2);
        let exact = result.expectation_value();
        // α → 1, shots → ∞: CVaR-α → sample mean → ⟨C⟩.
        let mut last_err = f64::INFINITY;
        for (alpha, shots) in [(0.5, 1u64 << 12), (0.9, 1 << 15), (1.0, 1 << 19)] {
            let counts = result.sampler(9).sample_counts(shots);
            let est = cvar(&counts, sim.objective_values(), alpha);
            let err = (est - exact).abs();
            // CVaR over-estimates the mean for α < 1; the error must shrink along
            // the schedule and end within shot noise of exact.
            assert!(
                err < last_err + 1e-9,
                "error must not grow: {err} after {last_err}"
            );
            last_err = err;
        }
        assert!(last_err < 0.05, "final CVaR error {last_err}");
        // And at α = 1 CVaR is exactly the sample mean.
        let counts = result.sampler(9).sample_counts(1 << 19);
        let mean_err = (sample_mean(&counts, sim.objective_values()) - exact).abs();
        assert!(mean_err < 0.05, "sample-mean error {mean_err}");
    }

    #[test]
    fn estimates_are_independent_of_the_shard_fanout() {
        let (sim, result) = simulated_result(6, 3);
        let sampler = result.sampler(13);
        let shots = 4 * SHOT_SHARD_SIZE + 99;
        let serial = sampler.sample_counts_with_parallelism(shots, false);
        let parallel = sampler.sample_counts_with_parallelism(shots, true);
        assert_eq!(serial, parallel);
        for est in [
            ShotEstimator::Mean,
            ShotEstimator::CVaR { alpha: 0.25 },
            ShotEstimator::Gibbs { eta: 1.0 },
        ] {
            let a = est.estimate(&serial, sim.objective_values());
            let b = est.estimate(&parallel, sim.objective_values());
            assert_eq!(a.to_bits(), b.to_bits(), "{}", est.name());
        }
    }
}
