//! Property-based tests (proptest) over the core invariants of the simulation stack.
//!
//! These complement the example-based unit tests by sampling random problem instances,
//! random angles and random states, and checking the structural invariants that must
//! hold for *every* input: unitarity, basis-change round trips, combinatorial bijections,
//! agreement between independent simulation paths, and gradient consistency.

use juliqaoa::circuit::maxcut_qaoa_expectation_gate_sim;
use juliqaoa::combinatorics::{binomial, rank_combination, unrank_combination, GosperIter};
use juliqaoa::linalg::{vector, walsh, Complex64};
use juliqaoa::prelude::*;
use juliqaoa::problems::degeneracies_full;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a small MaxCut instance (graph seed) plus angle seeds.
fn angle_vec(p: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-3.2..3.2f64, 2 * p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn walsh_hadamard_is_an_involution(
        values in proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 1 << 6)
    ) {
        let orig: Vec<Complex64> = values.iter().map(|&(re, im)| Complex64::new(re, im)).collect();
        let mut state = orig.clone();
        walsh::walsh_hadamard(&mut state);
        walsh::walsh_hadamard(&mut state);
        prop_assert!(vector::max_abs_diff(&state, &orig) < 1e-10);
    }

    #[test]
    fn walsh_hadamard_preserves_norm(
        values in proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 1 << 7)
    ) {
        let mut state: Vec<Complex64> = values.iter().map(|&(re, im)| Complex64::new(re, im)).collect();
        let before = vector::norm(&state);
        walsh::walsh_hadamard(&mut state);
        prop_assert!((vector::norm(&state) - before).abs() < 1e-9);
    }

    #[test]
    fn rank_and_unrank_are_inverse_bijections(n in 4usize..14, k_frac in 0.0..1.0f64) {
        let k = ((n as f64) * k_frac).round() as usize;
        let k = k.min(n);
        let total = binomial(n, k);
        // Sample a handful of ranks across the range.
        for step in 0..8u64 {
            let rank = if total <= 1 { 0 } else { step * (total - 1) / 7 };
            let word = unrank_combination(rank, k);
            prop_assert_eq!(word.count_ones() as usize, k);
            prop_assert!(word < (1u64 << n));
            prop_assert_eq!(rank_combination(word), rank);
        }
    }

    #[test]
    fn gosper_enumeration_is_sorted_unique_and_complete(n in 1usize..13, k in 0usize..13) {
        prop_assume!(k <= n);
        let words: Vec<u64> = GosperIter::new(n, k).collect();
        prop_assert_eq!(words.len() as u64, binomial(n, k));
        for w in words.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &w in &words {
            prop_assert_eq!(w.count_ones() as usize, k);
        }
    }

    #[test]
    fn qaoa_simulation_is_unitary_for_all_mixers(
        seed in 0u64..1000,
        angles in angle_vec(3),
        mixer_choice in 0usize..3
    ) {
        let n = 6;
        let k = 3;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(seed));
        let (obj, mixer) = match mixer_choice {
            0 => (precompute_full(&MaxCut::new(graph)), Mixer::transverse_field(n)),
            1 => (precompute_full(&MaxCut::new(graph)), Mixer::grover_full(n)),
            _ => {
                let sub = DickeSubspace::new(n, k);
                (
                    precompute_dicke(&DensestKSubgraph::new(graph, k), &sub),
                    Mixer::clique(n, k),
                )
            }
        };
        let sim = Simulator::new(obj, mixer).unwrap();
        let res = sim.simulate(&Angles::from_flat(&angles)).unwrap();
        prop_assert!((res.total_probability() - 1.0).abs() < 1e-9);
        // Expectation stays inside the objective range.
        prop_assert!(res.expectation_value() <= sim.max_objective() + 1e-9);
        prop_assert!(res.expectation_value() >= sim.min_objective() - 1e-9);
    }

    #[test]
    fn gate_level_baseline_agrees_with_core_simulator(
        seed in 0u64..500,
        angles in angle_vec(2)
    ) {
        let n = 5;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(seed));
        let obj = precompute_full(&MaxCut::new(graph.clone()));
        let sim = Simulator::new(obj.clone(), Mixer::transverse_field(n)).unwrap();
        let parsed = Angles::from_flat(&angles);
        let e_core = sim.expectation(&parsed).unwrap();
        let e_gate = maxcut_qaoa_expectation_gate_sim(&graph, parsed.betas(), parsed.gammas(), &obj);
        prop_assert!((e_core - e_gate).abs() < 1e-8);
    }

    #[test]
    fn grover_compressed_simulation_agrees_with_full(
        seed in 0u64..500,
        angles in angle_vec(3)
    ) {
        let n = 6;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(seed));
        let cost = MaxCut::new(graph);
        let obj = precompute_full(&cost);
        let full = Simulator::new(obj, Mixer::grover_full(n)).unwrap();
        let compressed = Simulator::grover_classes(&degeneracies_full(&cost, 2)).unwrap();
        let parsed = Angles::from_flat(&angles);
        let a = full.simulate(&parsed).unwrap();
        let b = compressed.simulate(&parsed).unwrap();
        prop_assert!((a.expectation_value() - b.expectation_value()).abs() < 1e-8);
        prop_assert!((a.ground_state_probability() - b.ground_state_probability()).abs() < 1e-8);
    }

    #[test]
    fn adjoint_gradient_matches_finite_differences_on_random_instances(
        seed in 0u64..200,
        angles in angle_vec(2)
    ) {
        let n = 5;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(seed));
        let obj = precompute_full(&MaxCut::new(graph));
        let sim = Simulator::new(obj, Mixer::transverse_field(n)).unwrap();
        let parsed = Angles::from_flat(&angles);
        let mut ws = sim.workspace();
        let grad = adjoint_gradient(&sim, &parsed, &mut ws).unwrap();
        let eps = 1e-5;
        for (i, g) in grad.to_flat().iter().enumerate() {
            let mut plus = angles.clone();
            plus[i] += eps;
            let mut minus = angles.clone();
            minus[i] -= eps;
            let fd = (sim.expectation(&Angles::from_flat(&plus)).unwrap()
                - sim.expectation(&Angles::from_flat(&minus)).unwrap())
                / (2.0 * eps);
            prop_assert!((g - fd).abs() < 2e-5, "component {} adjoint {} vs fd {}", i, g, fd);
        }
    }

    #[test]
    fn objective_precomputation_matches_pointwise_evaluation(seed in 0u64..500) {
        let n = 7;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(seed));
        let cost = MaxCut::new(graph);
        let obj = precompute_full(&cost);
        prop_assert_eq!(obj.len(), 1 << n);
        for x in [0u64, 1, 17, 100, (1 << n) - 1] {
            prop_assert_eq!(obj[x as usize], cost.evaluate(x));
        }
        // Degeneracy table accounts for every state exactly once.
        let table = degeneracies_full(&cost, 3);
        prop_assert_eq!(table.total_states(), 1 << n);
    }

    #[test]
    fn angle_flat_roundtrip_and_extrapolation_length(p in 1usize..12, angles in proptest::collection::vec(-5.0..5.0f64, 24)) {
        let flat = &angles[..2 * p];
        let parsed = Angles::from_flat(flat);
        prop_assert_eq!(parsed.p(), p);
        prop_assert_eq!(parsed.to_flat(), flat.to_vec());
        let extended = parsed.extrapolate();
        prop_assert_eq!(extended.p(), p + 1);
        // The first p rounds are untouched by extrapolation.
        prop_assert_eq!(&extended.betas()[..p], parsed.betas());
        prop_assert_eq!(&extended.gammas()[..p], parsed.gammas());
    }
}
