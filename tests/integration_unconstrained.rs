//! End-to-end integration tests for unconstrained problems: the full pipeline of
//! Figure 1 (pre-computation → simulation → angle finding) plus cross-validation of the
//! purpose-built simulator against both baseline simulators and the Grover fast path.

use juliqaoa::circuit::{maxcut_qaoa_expectation_gate_sim, DenseSimulator};
use juliqaoa::prelude::*;
use juliqaoa::problems::{degeneracies_full, KSat};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn maxcut_setup(n: usize, seed: u64) -> (Graph, Vec<f64>, f64) {
    let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(seed));
    let cost = MaxCut::new(graph.clone());
    let obj = precompute_full(&cost);
    let best = obj.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (graph, obj, best)
}

#[test]
fn three_simulation_paths_agree_on_maxcut() {
    // Purpose-built simulator, gate-level baseline and dense-operator baseline must give
    // identical expectation values for the same MaxCut QAOA.
    let n = 7;
    let (graph, obj, _) = maxcut_setup(n, 42);
    let core = Simulator::new(obj.clone(), Mixer::transverse_field(n)).unwrap();
    let dense = DenseSimulator::new(n, obj.clone());
    for seed in 0..3 {
        let angles = Angles::random(2, &mut StdRng::seed_from_u64(seed));
        let e_core = core.expectation(&angles).unwrap();
        let e_gate =
            maxcut_qaoa_expectation_gate_sim(&graph, angles.betas(), angles.gammas(), &obj);
        let e_dense = dense.expectation(angles.betas(), angles.gammas());
        assert!(
            (e_core - e_gate).abs() < 1e-9,
            "core vs gate at seed {seed}"
        );
        assert!(
            (e_core - e_dense).abs() < 1e-9,
            "core vs dense at seed {seed}"
        );
    }
}

#[test]
fn angle_finding_beats_random_angles_and_approaches_optimum() {
    let n = 8;
    let (_, obj, best) = maxcut_setup(n, 7);
    let sim = Simulator::new(obj.clone(), Mixer::transverse_field(n)).unwrap();
    let mut rng = StdRng::seed_from_u64(1);

    // Baseline: mean expectation over random angles.
    let mut random_mean = 0.0;
    for _ in 0..20 {
        random_mean += sim.expectation(&Angles::random(3, &mut rng)).unwrap();
    }
    random_mean /= 20.0;

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
        &mut rng,
    );
    assert!(found.best_expectation() > random_mean + 0.5);
    assert!(found.best_expectation() <= best + 1e-9);
    // At p = 3 on an 8-qubit instance the approximation ratio should be substantial.
    assert!(found.best_expectation() / best > 0.8);
}

#[test]
fn grover_fast_path_agrees_with_full_simulation_on_ksat() {
    let n = 8;
    let sat = KSat::random_with_density(n, 3, 6.0, &mut StdRng::seed_from_u64(3));
    let obj = precompute_full(&sat);
    let full = Simulator::new(obj, Mixer::grover_full(n)).unwrap();
    let compressed = Simulator::grover_classes(&degeneracies_full(&sat, 4)).unwrap();
    for seed in 0..3 {
        let angles = Angles::random(4, &mut StdRng::seed_from_u64(10 + seed));
        let a = full.simulate(&angles).unwrap();
        let b = compressed.simulate(&angles).unwrap();
        assert!((a.expectation_value() - b.expectation_value()).abs() < 1e-9);
        assert!((a.ground_state_probability() - b.ground_state_probability()).abs() < 1e-9);
    }
}

#[test]
fn adjoint_gradient_drives_bfgs_to_the_same_answer_as_finite_differences() {
    let n = 6;
    let (_, obj, _) = maxcut_setup(n, 11);
    let sim = Simulator::new(obj, Mixer::transverse_field(n)).unwrap();
    let start = Angles::random(3, &mut StdRng::seed_from_u64(2)).to_flat();

    let mut adjoint = QaoaObjective::with_gradient_method(&sim, GradientMethod::Adjoint);
    let res_adj = bfgs(&mut adjoint, &start, &BfgsOptions::default());

    let mut fd =
        QaoaObjective::with_gradient_method(&sim, GradientMethod::FiniteDifference { eps: 1e-6 });
    let res_fd = bfgs(&mut fd, &start, &BfgsOptions::default());

    // Both converge to (numerically) the same local optimum value...
    assert!((res_adj.value - res_fd.value).abs() < 1e-5);
    // ...but the adjoint path needs far fewer simulator calls (this is Figure 5's point).
    assert!(adjoint.simulation_count() * 3 < fd.simulation_count());
}

#[test]
fn multi_round_qaoa_concentrates_probability_on_good_cuts() {
    let n = 8;
    let (_, obj, best) = maxcut_setup(n, 19);
    let sim = Simulator::new(obj.clone(), Mixer::transverse_field(n)).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let found = find_angles(
        &sim,
        &IterativeOptions {
            target_p: 4,
            basinhopping: BasinHoppingOptions {
                n_hops: 8,
                step_size: 1.0,
                ..Default::default()
            },
            ..Default::default()
        },
        &mut rng,
    );
    let res = sim
        .simulate(&Angles::from_flat(found.best_angles()))
        .unwrap();
    // The probability of sampling an optimal cut must beat uniform sampling by a wide
    // margin.
    let optimal_count = obj.iter().filter(|&&v| v == best).count();
    let uniform_probability = optimal_count as f64 / obj.len() as f64;
    assert!(res.ground_state_probability() > 4.0 * uniform_probability);
    assert!((res.total_probability() - 1.0).abs() < 1e-9);
}

#[test]
fn paper_listing_one_pipeline_runs_end_to_end() {
    // Reproduces Listing 1 through the facade helpers.
    let mut rng = StdRng::seed_from_u64(6);
    let n = 6;
    let graph = erdos_renyi(n, 0.5, &mut rng);
    let obj_vals: Vec<f64> = states(n).iter().map(|x| maxcut(&graph, x)).collect();
    let mixer = Mixer::transverse_field(n);
    let p = 3;
    let angles: Vec<f64> = (0..2 * p)
        .map(|_| rand::Rng::gen::<f64>(&mut rng))
        .collect();
    let res = simulate(&angles, &mixer, &obj_vals).unwrap();
    let exp_value = get_exp_value(&res);
    assert!(exp_value >= 0.0);
    assert!(exp_value <= obj_vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
}
