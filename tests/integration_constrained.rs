//! End-to-end integration tests for Hamming-weight-constrained problems: Densest
//! k-Subgraph with the Clique mixer and Max k-Vertex-Cover with the Ring mixer, the two
//! constrained problem/mixer pairs of Figure 2.

use juliqaoa::mixers::{build_xy_hamiltonian, CustomMixer, GroverMixer, Mixer, XYCoupling};
use juliqaoa::prelude::*;
use juliqaoa::problems::degeneracies_dicke;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn densest_setup(n: usize, k: usize, seed: u64) -> (Vec<f64>, f64) {
    let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(seed));
    let cost = DensestKSubgraph::new(graph, k);
    let sub = DickeSubspace::new(n, k);
    let obj = precompute_dicke(&cost, &sub);
    let best = obj.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (obj, best)
}

#[test]
fn clique_mixer_qaoa_beats_the_dicke_state_baseline() {
    let n = 8;
    let k = 4;
    let (obj, best) = densest_setup(n, k, 3);
    let dicke_mean = obj.iter().sum::<f64>() / obj.len() as f64;
    let sim = Simulator::new(obj, Mixer::clique(n, k)).unwrap();
    let found = find_angles(
        &sim,
        &IterativeOptions {
            target_p: 3,
            basinhopping: BasinHoppingOptions {
                n_hops: 8,
                step_size: 1.0,
                ..Default::default()
            },
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(1),
    );
    assert!(found.best_expectation() > dicke_mean + 0.2);
    assert!(found.best_expectation() <= best + 1e-9);
    assert!(found.best_expectation() / best > 0.75);
}

#[test]
fn ring_mixer_qaoa_improves_vertex_cover() {
    let n = 8;
    let k = 4;
    let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(9));
    let cost = MaxKVertexCover::new(graph, k);
    let sub = DickeSubspace::new(n, k);
    let obj = precompute_dicke(&cost, &sub);
    let best = obj.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = obj.iter().sum::<f64>() / obj.len() as f64;

    let sim = Simulator::new(obj, Mixer::ring(n, k)).unwrap();
    let found = find_angles(
        &sim,
        &IterativeOptions {
            target_p: 3,
            basinhopping: BasinHoppingOptions {
                n_hops: 8,
                step_size: 1.0,
                ..Default::default()
            },
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(2),
    );
    assert!(found.best_expectation() > mean);
    assert!(found.best_expectation() <= best + 1e-9);
}

#[test]
fn constrained_simulation_never_leaves_the_feasible_subspace() {
    // The whole point of the subspace formulation: the statevector has exactly C(n,k)
    // entries, so no probability can leak into infeasible states.  Verify norm
    // conservation and dimensionality across mixers and rounds.
    let n = 7;
    let k = 3;
    let (obj, _) = densest_setup(n, k, 21);
    let dim = juliqaoa::combinatorics::binomial(n, k) as usize;
    for mixer in [
        Mixer::clique(n, k),
        Mixer::ring(n, k),
        Mixer::grover_dicke(n, k),
    ] {
        let sim = Simulator::new(obj.clone(), mixer).unwrap();
        assert_eq!(sim.dim(), dim);
        let res = sim
            .simulate(&Angles::random(5, &mut StdRng::seed_from_u64(4)))
            .unwrap();
        assert_eq!(res.statevector().len(), dim);
        assert!((res.total_probability() - 1.0).abs() < 1e-9);
    }
}

#[test]
fn clique_and_ring_mixers_agree_at_zero_angles_and_differ_otherwise() {
    let n = 7;
    let k = 3;
    let (obj, _) = densest_setup(n, k, 33);
    let clique_sim = Simulator::new(obj.clone(), Mixer::clique(n, k)).unwrap();
    let ring_sim = Simulator::new(obj.clone(), Mixer::ring(n, k)).unwrap();
    let zero = Angles::zeros(2);
    assert!(
        (clique_sim.expectation(&zero).unwrap() - ring_sim.expectation(&zero).unwrap()).abs()
            < 1e-12
    );
    let angles = Angles::random(2, &mut StdRng::seed_from_u64(8));
    let a = clique_sim.expectation(&angles).unwrap();
    let b = ring_sim.expectation(&angles).unwrap();
    assert!(
        (a - b).abs() > 1e-6,
        "different mixers should explore differently"
    );
}

#[test]
fn matrix_free_clique_mixer_reproduces_the_dense_eigendecomposition() {
    // The Clique mixer never forms its matrix; inside a simulation it must agree with
    // the dense eigendecomposition JuliQAOA computes.
    let n = 7;
    let k = 3;
    let h = build_xy_hamiltonian(&DickeSubspace::new(n, k), XYCoupling::Clique);
    let dense = CustomMixer::from_symmetric("clique-dense", &h);
    let (obj, _) = densest_setup(n, k, 44);
    let angles = Angles::random(3, &mut StdRng::seed_from_u64(5));
    let a = Simulator::new(obj.clone(), Mixer::clique(n, k))
        .unwrap()
        .expectation(&angles)
        .unwrap();
    let b = Simulator::new(obj, Mixer::Subspace(dense))
        .unwrap()
        .expectation(&angles)
        .unwrap();
    assert!((a - b).abs() < 1e-10);
}

#[test]
fn grover_dicke_fast_path_matches_subspace_simulation() {
    let n = 9;
    let k = 4;
    let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(17));
    let cost = DensestKSubgraph::new(graph, k);
    let sub = DickeSubspace::new(n, k);
    let obj = precompute_dicke(&cost, &sub);
    let full = Simulator::new(obj, Mixer::Grover(GroverMixer::dicke(n, k))).unwrap();
    let table = degeneracies_dicke(&cost, n, k, 4);
    let compressed = Simulator::grover_classes(&table).unwrap();
    for seed in 0..3 {
        let angles = Angles::random(3, &mut StdRng::seed_from_u64(60 + seed));
        let a = full.simulate(&angles).unwrap();
        let b = compressed.simulate(&angles).unwrap();
        assert!((a.expectation_value() - b.expectation_value()).abs() < 1e-9);
        assert!((a.ground_state_probability() - b.ground_state_probability()).abs() < 1e-9);
    }
}

#[test]
fn adjoint_gradient_matches_finite_differences_for_ring_mixer() {
    let n = 7;
    let k = 3;
    let (obj, _) = densest_setup(n, k, 55);
    let sim = Simulator::new(obj, Mixer::ring(n, k)).unwrap();
    let angles = Angles::random(3, &mut StdRng::seed_from_u64(6));
    let mut ws = sim.workspace();
    let grad = adjoint_gradient(&sim, &angles, &mut ws).unwrap();

    let flat = angles.to_flat();
    let eps = 1e-5;
    for (i, g) in grad.to_flat().iter().enumerate() {
        let mut plus = flat.clone();
        plus[i] += eps;
        let mut minus = flat.clone();
        minus[i] -= eps;
        let fd = (sim.expectation(&Angles::from_flat(&plus)).unwrap()
            - sim.expectation(&Angles::from_flat(&minus)).unwrap())
            / (2.0 * eps);
        assert!((g - fd).abs() < 1e-5, "component {i}");
    }
}
