//! Grover-mixer QAOA in class space (§2.4).
//!
//! The Grover mixer gives *fair sampling*: at every point of a Grover-mixer QAOA that
//! starts uniform, all feasible states with the same objective value have identical
//! amplitudes.  The state therefore never needs more than one entry per *distinct*
//! objective value, and a round costs `O(#distinct values)` instead of `O(|S|)`.  This
//! is what lets the paper push Grover-QAOA studies to `n = 100`: all that is required is
//! the table of distinct values and their degeneracies, which can be counted in parallel
//! (`juliqaoa-problems::degeneracies_full`) or supplied analytically for structured
//! costs.
//!
//! Class space is not a separate simulator.  For value `c` shared by `d_c` of the `N`
//! feasible states with per-state amplitude `a_c`, the class-space state holds
//! `φ_c = √d_c·a_c`.  Then `Σ_c |φ_c|² = 1`, the phase separator is diagonal in the
//! distinct values, and the Grover mixer is the rank-1 update toward `s_c = √(d_c/N)`.
//! So [`Simulator::grover_classes`] is an ordinary [`Simulator`] — objective = the
//! distinct values, mixer = [`GroverMixer::weighted`], and the uniform initial state is
//! `s`, read off the mixer — and the round kernels, the [`crate::PrefixCache`], the
//! adjoint gradient and every consumer of `|φ_c|²` (expectation, ground-state
//! probability, shot sampling over classes) work unchanged.
//!
//! Degeneracies are carried as `f64` so tables whose counts exceed `u64` (e.g. binomial
//! degeneracies at `n = 100`) remain usable; the relative error of an `f64` count is
//! ~1e-16, far below simulation accuracy.

use crate::error::QaoaError;
use crate::simulator::Simulator;
use juliqaoa_mixers::{GroverMixer, Mixer};
use juliqaoa_problems::DegeneracyTable;

impl Simulator {
    /// The Grover-mixer QAOA over an exact degeneracy table, in class space: one
    /// amplitude per distinct value, class `c` being `table.entries[c]` (the table's
    /// ascending value order).
    ///
    /// Every consumer of the final state sees class probabilities `d_c·|a_c|²`, so
    /// expectations, ground-state probabilities and shot histograms are those of the
    /// full feasible set; a member state within a class is uniform by fair sampling.
    pub fn grover_classes(table: &DegeneracyTable) -> Result<Self, QaoaError> {
        Self::class_space(table.entries.iter().map(|&(v, d)| (v, d as f64)).collect())
    }

    /// [`Simulator::grover_classes`] from `(value, degeneracy)` pairs with float
    /// degeneracies, for analytic tables whose counts overflow `u64` (large `n`).
    /// Entries are sorted by value; equal values are not merged.
    ///
    /// # Panics
    /// Panics if a degeneracy is not positive.
    pub fn grover_class_entries(
        entries: impl IntoIterator<Item = (f64, f64)>,
    ) -> Result<Self, QaoaError> {
        let mut entries: Vec<(f64, f64)> = entries.into_iter().collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        Self::class_space(entries)
    }

    /// The class-space simulator over `(value, degeneracy)` classes in the given order.
    /// Its uniform initial state is the mixer's reference `s`.
    fn class_space(entries: Vec<(f64, f64)>) -> Result<Self, QaoaError> {
        if entries.is_empty() {
            return Err(QaoaError::EmptyObjective);
        }
        assert!(
            entries.iter().all(|&(_, d)| d > 0.0),
            "degeneracies must be positive"
        );
        let total: f64 = entries.iter().map(|&(_, d)| d).sum();
        let reference: Vec<f64> = entries.iter().map(|&(_, d)| (d / total).sqrt()).collect();
        let values = entries.into_iter().map(|(v, _)| v).collect();
        Simulator::from_parts(
            values,
            None,
            vec![Mixer::Grover(GroverMixer::weighted(reference))],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angles::Angles;
    use crate::gradient::adjoint_gradient;
    use crate::result::SimulationResult;
    use juliqaoa_graphs::erdos_renyi;
    use juliqaoa_problems::{
        degeneracies_full, precompute_full, HammingRamp, MarkedStates, MaxCut,
    };
    use juliqaoa_telemetry::kernels;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Probability of measuring a state whose objective equals `value`.
    fn probability_of_value(res: &SimulationResult, values: &[f64], value: f64) -> f64 {
        res.probabilities()
            .zip(values)
            .filter(|(_, &v)| v == value)
            .map(|(p, _)| p)
            .sum()
    }

    #[test]
    fn matches_full_statevector_simulation_for_maxcut() {
        let n = 6;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(2));
        let cost = MaxCut::new(graph);
        let obj = precompute_full(&cost);
        let full_sim = Simulator::new(obj, Mixer::grover_full(n)).unwrap();
        let compressed = Simulator::grover_classes(&degeneracies_full(&cost, 4)).unwrap();

        for seed in 0..4 {
            let angles = Angles::random(3, &mut StdRng::seed_from_u64(100 + seed));
            let full = full_sim.simulate(&angles).unwrap();
            let comp = compressed.simulate(&angles).unwrap();
            assert!(
                (full.expectation_value() - comp.expectation_value()).abs() < 1e-9,
                "expectation mismatch at seed {seed}"
            );
            assert!(
                (full.ground_state_probability() - comp.ground_state_probability()).abs() < 1e-9
            );
            assert!((comp.total_probability() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fair_sampling_equal_value_states_share_amplitude() {
        // Direct verification of the fair-sampling property on the full simulator, which
        // is the premise of the class-space representation.
        let n = 5;
        let cost = HammingRamp::new(n);
        let obj = precompute_full(&cost);
        let sim = Simulator::new(obj.clone(), Mixer::grover_full(n)).unwrap();
        let angles = Angles::random(3, &mut StdRng::seed_from_u64(77));
        let res = sim.simulate(&angles).unwrap();
        for x in 0..(1usize << n) {
            for y in 0..(1usize << n) {
                if obj[x] == obj[y] {
                    assert!(
                        (res.amplitude(x) - res.amplitude(y)).abs() < 1e-10,
                        "states {x} and {y} share a value but not an amplitude"
                    );
                }
            }
        }
    }

    #[test]
    fn grover_search_amplifies_marked_state() {
        // Single marked state out of 2^4 = 16, threshold cost, one round with β = γ = π:
        // the Grover-mixer QAOA step should boost the marked-state probability well above
        // the uniform 1/16.
        let n = 4;
        let cost = MarkedStates::new(n, vec![5]);
        let table: Vec<(f64, f64)> = cost
            .analytic_degeneracies()
            .into_iter()
            .map(|(v, d)| (v, d as f64))
            .collect();
        let sim = Simulator::grover_class_entries(table).unwrap();
        let angles = Angles::new(vec![std::f64::consts::PI], vec![std::f64::consts::PI]);
        let res = sim.simulate(&angles).unwrap();
        let p_marked = probability_of_value(&res, sim.objective_values(), 1.0);
        assert!(
            p_marked > 3.0 / 16.0,
            "marked probability {p_marked} not amplified"
        );
        assert!((res.total_probability() - 1.0).abs() < 1e-12);
        assert_eq!(res.ground_state_probability(), p_marked);
    }

    #[test]
    fn analytic_hamming_ramp_at_large_n() {
        // n = 100 via the analytic binomial table: 101 distinct values instead of 2^100
        // states.  The p = 0 expectation must equal the mean Hamming weight, n/2.
        let n = 100;
        let entries: Vec<(f64, f64)> = (0..=n)
            .map(|w| {
                (
                    w as f64,
                    juliqaoa_combinatorics::binomial::log2_binomial(n, w).exp2(),
                )
            })
            .collect();
        let total: f64 = entries.iter().map(|&(_, d)| d).sum();
        let sim = Simulator::grover_class_entries(entries).unwrap();
        assert_eq!(sim.dim(), 101);
        assert!((total.log2() - 100.0).abs() < 1e-6);
        let start = sim.simulate(&Angles::zeros(0)).unwrap();
        assert!((start.total_probability() - 1.0).abs() < 1e-12);
        let e0 = sim.expectation(&Angles::zeros(0)).unwrap();
        assert!((e0 - 50.0).abs() < 1e-6);
        // One round with small angles moves the expectation but keeps it bounded.
        let e1 = sim
            .expectation(&Angles::new(vec![0.3], vec![0.05]))
            .unwrap();
        assert!(e1.is_finite());
        assert!(e1 >= 0.0 && e1 <= n as f64);
    }

    #[test]
    fn expectation_is_bounded_by_value_range() {
        let cost = HammingRamp::new(10);
        let table = DegeneracyTable::from_entries(cost.analytic_degeneracies());
        let sim = Simulator::grover_classes(&table).unwrap();
        for seed in 0..5 {
            let angles = Angles::random(4, &mut StdRng::seed_from_u64(seed));
            let e = sim.expectation(&angles).unwrap();
            assert!((0.0 - 1e-9..=10.0 + 1e-9).contains(&e));
        }
    }

    #[test]
    fn degenerate_single_value_table() {
        let sim = Simulator::grover_class_entries(vec![(2.0, 8.0)]).unwrap();
        let res = sim
            .simulate(&Angles::random(2, &mut StdRng::seed_from_u64(1)))
            .unwrap();
        assert!((res.expectation_value() - 2.0).abs() < 1e-12);
        assert!((res.ground_state_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn use_of_degeneracy_table_constructor() {
        let table = DegeneracyTable::from_entries([(0.0, 3), (1.0, 5)]);
        let sim = Simulator::grover_classes(&table).unwrap();
        assert_eq!(sim.dim(), 2);
        assert_eq!(sim.objective_values(), &[0.0, 1.0]);
        // Degeneracies 3 and 5 of 8 states: the start state s_c = √(d_c/8) puts
        // probability d_c/8 on each class, and the mixer points at the same s.
        let start: Vec<f64> = sim
            .simulate(&Angles::zeros(0))
            .unwrap()
            .probabilities()
            .collect();
        assert!((start[0] - 3.0 / 8.0).abs() < 1e-15);
        assert!((start[1] - 5.0 / 8.0).abs() < 1e-15);
        let Mixer::Grover(grover) = &sim.mixers()[0] else {
            panic!("class space runs the Grover mixer")
        };
        let s = grover.reference().expect("a weighted mixer");
        assert_eq!(s, &[(3.0f64 / 8.0).sqrt(), (5.0f64 / 8.0).sqrt()]);
    }

    #[test]
    #[should_panic(expected = "EmptyObjective")]
    fn empty_table_panics() {
        let _ = Simulator::grover_class_entries(vec![]).unwrap();
    }

    #[test]
    fn class_space_simulator_holds_only_class_sized_data() {
        let cost = HammingRamp::new(12);
        let table = DegeneracyTable::from_entries(cost.analytic_degeneracies());
        let sim = Simulator::grover_classes(&table).unwrap();
        // 13 classes: the values and the mixer's reference, which is also the start.
        assert_eq!(sim.bytes(), 13 * (8 + 8));
        assert!(sim.phase_classes().is_none());
        let full = Simulator::new(precompute_full(&cost), Mixer::grover_full(12)).unwrap();
        let classes = full.phase_classes().expect("the ramp compresses");
        assert_eq!(full.bytes(), 8 * 4096 + classes.bytes());
    }

    #[test]
    fn weighted_mixer_on_compressible_values_matches_class_space() {
        // A weighted Grover mixer over a compressible objective keeps the table-driven
        // phase separator but never the fused round, whose amplitude sum is only the
        // uniform mixer's overlap.  With a flat reference over the full state it must
        // reproduce class space: cold, through a prefix cache's β-only tail replays,
        // and through the adjoint gradient.
        let n = 6;
        let dim = 1 << n;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(5));
        let cost = MaxCut::new(graph);
        let flat = GroverMixer::weighted(vec![1.0 / (dim as f64).sqrt(); dim]);
        let weighted = Simulator::new(precompute_full(&cost), Mixer::Grover(flat)).unwrap();
        assert!(weighted.phase_classes().is_some());
        let classes = Simulator::grover_classes(&degeneracies_full(&cost, 4)).unwrap();
        let mut cache = weighted.prefix_cache();
        let mut ws = weighted.workspace();
        let mut ws_classes = classes.workspace();
        for seed in 0..4 {
            let angles = Angles::random(3, &mut StdRng::seed_from_u64(40 + seed));
            let cold = weighted.expectation(&angles).unwrap();
            let reference = classes.expectation(&angles).unwrap();
            assert!((cold - reference).abs() <= 1e-10 * reference.abs());
            let grad = adjoint_gradient(&weighted, &angles, &mut ws).unwrap();
            let grad_classes = adjoint_gradient(&classes, &angles, &mut ws_classes).unwrap();
            for (a, b) in grad.to_flat().iter().zip(grad_classes.to_flat().iter()) {
                assert!((a - b).abs() <= 1e-9, "gradient {a} vs {b}");
            }
            let mut betas = angles.betas().to_vec();
            for step in 0..3 {
                betas[2] += 0.1 * step as f64;
                let sweep = Angles::new(betas.clone(), angles.gammas().to_vec());
                let cached = weighted
                    .expectation_cached(&sweep, &mut ws, &mut cache)
                    .unwrap();
                let cold = weighted.expectation(&sweep).unwrap();
                assert_eq!(cached.to_bits(), cold.to_bits());
            }
        }
        assert!(cache.stats().tail_hits > 0, "the β sweep replays the tail");
    }

    #[test]
    fn class_space_rounds_count_on_their_own_kernel_counter() {
        let table = DegeneracyTable::from_entries(HammingRamp::new(8).analytic_degeneracies());
        let sim = Simulator::grover_classes(&table).unwrap();
        let before = kernels::snapshot();
        sim.expectation(&Angles::random(3, &mut StdRng::seed_from_u64(4)))
            .unwrap();
        let delta = kernels::snapshot().delta(&before);
        // Other tests may record concurrently, so this is a lower bound.
        assert!(delta.grover_class_rounds >= 3);
    }
}
