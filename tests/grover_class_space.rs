//! Grover-mixer QAOA in class space against the full feasible-set statevector.
//!
//! `Simulator::grover_classes` holds one amplitude per distinct objective value
//! (`φ_c = √d_c·a_c`, paper §2.4).  On MaxCut G(n,½) and random 3-SAT (density 6) for
//! `n ≤ 12`, densest-k on the Dicke subspaces (8,4) and (10,5), and one injective
//! random-weight objective, it must reproduce the full-state simulator:
//!
//! * exact expectations at `p = 1..=3` to `1e-10` relative;
//! * adjoint gradients to `1e-9`;
//! * shot histograms: 200k class-space shots against the full-state probabilities
//!   summed per value, by a chi-square test.

use juliqaoa::core::adjoint_gradient;
use juliqaoa::prelude::*;
use juliqaoa::problems::{DegeneracyTable, KSat};
use juliqaoa::sampling::StateSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EXPECTATION_TOL: f64 = 1e-10;
const GRADIENT_TOL: f64 = 1e-9;

/// One instance of the corpus: the full-state simulator, the class-space simulator
/// and the objective values in dense order.
struct Case {
    name: String,
    full: Simulator,
    classes: Simulator,
    values: Vec<f64>,
}

/// Builds both simulators for objective values over a feasible set whose Grover
/// mixer is `mixer`, with the class table counted the way the job engine counts it.
fn case(name: String, values: Vec<f64>, mixer: Mixer) -> Case {
    let table = DegeneracyTable::from_entries(values.iter().map(|&v| (v, 1)));
    Case {
        name,
        full: Simulator::new(values.clone(), mixer).expect("consistent setup"),
        classes: Simulator::grover_classes(&table).expect("consistent setup"),
        values,
    }
}

fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();
    for n in [4usize, 6, 8, 10, 12] {
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(n as u64));
        let values = precompute_full(&MaxCut::new(graph));
        cases.push(case(format!("maxcut n={n}"), values, Mixer::grover_full(n)));
    }
    for n in [6usize, 8, 10, 12] {
        let sat = KSat::random_with_density(n, 3, 6.0, &mut StdRng::seed_from_u64(100 + n as u64));
        let values = precompute_full(&sat);
        cases.push(case(format!("3-sat n={n}"), values, Mixer::grover_full(n)));
    }
    for (n, k) in [(8usize, 4usize), (10, 5)] {
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(200 + n as u64));
        let subspace = DickeSubspace::new(n, k);
        let values = precompute_dicke(&DensestKSubgraph::new(graph, k), &subspace);
        let name = format!("densest-k ({n},{k})");
        cases.push(case(name, values, Mixer::grover_dicke(n, k)));
    }
    // Injective: every state its own class, so class space is a permutation of the
    // full state.
    let mut rng = StdRng::seed_from_u64(300);
    let values: Vec<f64> = (0..1usize << 8).map(|_| rng.gen_range(-5.0..5.0)).collect();
    cases.push(case("injective n=8".into(), values, Mixer::grover_full(8)));
    cases
}

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

#[test]
fn exact_values_agree_with_the_full_state_at_p_1_to_3() {
    let mut rng = StdRng::seed_from_u64(0xC1A5);
    let mut worst = 0.0f64;
    for case in corpus() {
        let distinct = case.classes.dim();
        assert!(distinct <= case.values.len(), "{}", case.name);
        for p in 1..=3 {
            for _ in 0..3 {
                let angles = Angles::random(p, &mut rng);
                let full = case.full.simulate(&angles).expect("consistent setup");
                let classes = case.classes.simulate(&angles).expect("consistent setup");
                let gap = relative_gap(full.expectation_value(), classes.expectation_value());
                assert!(gap <= EXPECTATION_TOL, "{} p={p}: gap {gap}", case.name);
                let ground = full.ground_state_probability() - classes.ground_state_probability();
                assert!(ground.abs() <= EXPECTATION_TOL, "{} p={p}", case.name);
                assert!((classes.total_probability() - 1.0).abs() <= EXPECTATION_TOL);
                worst = worst.max(gap);
            }
        }
    }
    eprintln!("worst relative expectation gap: {worst:e}");
}

#[test]
fn adjoint_gradients_agree_with_the_full_state() {
    let mut rng = StdRng::seed_from_u64(0x9AD);
    for case in corpus() {
        for p in 1..=3 {
            let angles = Angles::random(p, &mut rng);
            let mut ws_full = case.full.workspace();
            let mut ws_classes = case.classes.workspace();
            let full = adjoint_gradient(&case.full, &angles, &mut ws_full).expect("setup");
            let classes = adjoint_gradient(&case.classes, &angles, &mut ws_classes).expect("setup");
            for (a, b) in full.to_flat().iter().zip(classes.to_flat().iter()) {
                assert!(
                    (a - b).abs() <= GRADIENT_TOL,
                    "{} p={p}: {a} vs {b}",
                    case.name
                );
            }
        }
    }
}

#[test]
fn class_space_shots_match_full_state_probabilities_summed_per_value() {
    const SHOTS: u64 = 200_000;
    let mut rng = StdRng::seed_from_u64(0x5A0);
    for case in corpus().into_iter().filter(|c| c.values.len() >= 256) {
        let angles = Angles::random(2, &mut rng);
        let full = case.full.simulate(&angles).expect("consistent setup");
        let classes = case.classes.simulate(&angles).expect("consistent setup");
        // Full-state probability mass per value class, in the class order.
        let class_values = case.classes.objective_values();
        let mut expected = vec![0.0f64; class_values.len()];
        for (p, v) in full.probabilities().zip(&case.values) {
            let c = class_values
                .binary_search_by(|probe| probe.total_cmp(v))
                .expect("every value has a class");
            expected[c] += p;
        }
        let counts =
            StateSampler::from_probabilities(classes.probabilities(), 0xBE2C).sample_counts(SHOTS);
        // Pool the classes expected to see fewer than 5 shots into one bin, so the
        // statistic stays chi-square distributed.
        let (mut chi2, mut bins) = (0.0, 0usize);
        let (mut pooled_observed, mut pooled_expected) = (0.0, 0.0);
        for (c, &p) in expected.iter().enumerate() {
            let (observed, want) = (counts.count(c) as f64, p * SHOTS as f64);
            if want < 5.0 {
                pooled_observed += observed;
                pooled_expected += want;
            } else {
                chi2 += (observed - want).powi(2) / want;
                bins += 1;
            }
        }
        if pooled_expected >= 5.0 {
            chi2 += (pooled_observed - pooled_expected).powi(2) / pooled_expected;
            bins += 1;
        }
        // Mean df, σ = √(2·df); df + 6σ + 10 is a ~1e-8 tail, and the draw is seeded.
        let df = bins.saturating_sub(1) as f64;
        let bound = df + 6.0 * (2.0 * df).sqrt() + 10.0;
        assert!(chi2 < bound, "{}: χ² = {chi2} over {bins} bins", case.name);
    }
}
