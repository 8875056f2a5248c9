//! The matrix-free Clique and Ring mixers against the dense eigendecomposition they
//! replace.
//!
//! For both couplings and every `1 ≤ n ≤ 10`, `0 ≤ k ≤ n`, the [`XYMixer`] behind
//! `Mixer::clique` / `Mixer::ring` must reproduce `CustomMixer::from_symmetric` of the
//! dense `build_xy_hamiltonian` matrix: evolutions and Hamiltonian applications to
//! `1e-12` max-abs on random normalised complex states with `β ∈ [−8, 8]` (0 included;
//! basin hopping starts in `[0, 2π)` and hops ±0.8, so `β` does cross `2π`), and
//! simulator expectations and adjoint gradients at `p ≤ 3` to `1e-10`.
//!
//! [`XYMixer`]: juliqaoa::mixers::XYMixer

use juliqaoa::core::adjoint_gradient;
use juliqaoa::linalg::{vector, Complex64};
use juliqaoa::mixers::{build_xy_hamiltonian, CustomMixer, Mixer, XYCoupling};
use juliqaoa::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STATE_TOL: f64 = 1e-12;
const EXPECTATION_TOL: f64 = 1e-10;

fn random_state(dim: usize, rng: &mut StdRng) -> Vec<Complex64> {
    let mut v: Vec<Complex64> = (0..dim)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    vector::normalize(&mut v);
    v
}

/// Every `(n, k, coupling)` of the corpus, with the dense reference and the
/// matrix-free mixer under test.
fn corpus() -> impl Iterator<Item = (usize, usize, XYCoupling, Mixer, Mixer)> {
    (1..=10).flat_map(|n| {
        (0..=n).flat_map(move |k| {
            [XYCoupling::Clique, XYCoupling::Ring]
                .into_iter()
                .map(move |coupling| {
                    let h = build_xy_hamiltonian(&DickeSubspace::new(n, k), coupling);
                    let dense = Mixer::Subspace(CustomMixer::from_symmetric("dense", &h));
                    let free = match coupling {
                        XYCoupling::Clique => Mixer::clique(n, k),
                        XYCoupling::Ring => Mixer::ring(n, k),
                    };
                    (n, k, coupling, dense, free)
                })
        })
    })
}

#[test]
fn evolution_and_hamiltonian_match_the_dense_reference() {
    let mut rng = StdRng::seed_from_u64(0x5859);
    let mut worst = (0.0f64, 0.0f64);
    for (n, k, coupling, dense, free) in corpus() {
        assert_eq!(free.dim(), dense.dim());
        let dim = free.dim();
        let mut scratch = vec![Complex64::ZERO; dim];
        let mut betas = vec![0.0, 8.0, -8.0, 2.0 * std::f64::consts::PI + 0.3];
        betas.extend((0..4).map(|_| rng.gen_range(-8.0..8.0)));
        for beta in betas {
            let orig = random_state(dim, &mut rng);
            let (mut a, mut b) = (orig.clone(), orig);
            free.apply_evolution(beta, &mut a, &mut scratch);
            dense.apply_evolution(beta, &mut b, &mut scratch);
            let diff = vector::max_abs_diff(&a, &b);
            worst.0 = worst.0.max(diff);
            assert!(
                diff <= STATE_TOL,
                "{coupling:?}({n},{k}) e^(-iβH) at β = {beta}: {diff:e}"
            );
        }
        let orig = random_state(dim, &mut rng);
        let (mut a, mut b) = (orig.clone(), orig);
        free.apply_hamiltonian(&mut a, &mut scratch);
        dense.apply_hamiltonian(&mut b, &mut scratch);
        let diff = vector::max_abs_diff(&a, &b);
        worst.1 = worst.1.max(diff);
        assert!(diff <= STATE_TOL, "{coupling:?}({n},{k}) H: {diff:e}");
    }
    eprintln!(
        "max |Δψ| over the corpus: evolution {:e}, Hamiltonian {:e}",
        worst.0, worst.1
    );
}

#[test]
fn expectations_and_adjoint_gradients_match_the_dense_reference() {
    let mut rng = StdRng::seed_from_u64(0x4752);
    let (mut worst_value, mut worst_gradient) = (0.0f64, 0.0f64);
    for (n, k, coupling, dense, free) in corpus() {
        let dim = free.dim();
        // A random objective with a few distinct values, like a real cost function.
        let obj: Vec<f64> = (0..dim).map(|_| rng.gen_range(0..7) as f64).collect();
        let dense = Simulator::new(obj.clone(), dense).unwrap();
        let free = Simulator::new(obj, free).unwrap();
        for p in 1..=3 {
            let flat: Vec<f64> = (0..2 * p)
                .map(|i| {
                    if i < p {
                        rng.gen_range(-8.0..8.0)
                    } else {
                        rng.gen_range(-3.2..3.2)
                    }
                })
                .collect();
            let angles = Angles::from_flat(&flat);
            let (mut ws_a, mut ws_b) = (free.workspace(), dense.workspace());
            let a = adjoint_gradient(&free, &angles, &mut ws_a).unwrap();
            let b = adjoint_gradient(&dense, &angles, &mut ws_b).unwrap();
            let de = (a.expectation - b.expectation).abs();
            let dg = a
                .to_flat()
                .iter()
                .zip(b.to_flat().iter())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
            worst_value = worst_value.max(de);
            worst_gradient = worst_gradient.max(dg);
            let tag = format!("{coupling:?}({n},{k}) p={p}");
            assert!(de <= EXPECTATION_TOL, "{tag} expectation: {de:e}");
            assert!(dg <= EXPECTATION_TOL, "{tag} gradient: {dg:e}");
            let plain = (free.expectation(&angles).unwrap() - a.expectation).abs();
            assert!(
                plain <= EXPECTATION_TOL,
                "{tag} expectation vs gradient sweep"
            );
        }
    }
    eprintln!(
        "max |Δ expectation| over the corpus: {worst_value:e}; max |Δ gradient|: {worst_gradient:e}"
    );
}

#[test]
fn the_large_subspaces_the_dense_path_never_reached_build_and_run() {
    // (18,9): 48 620 states, whose dense matrix alone would take 18.9 GB.  The
    // matrix-free mixers build and run a normalised p = 1 simulation.
    for mixer in [Mixer::clique(18, 9), Mixer::ring(18, 9)] {
        let dim = mixer.dim();
        assert_eq!(dim, 48_620);
        let obj: Vec<f64> = (0..dim).map(|x| (x % 5) as f64).collect();
        let sim = Simulator::new(obj, mixer).unwrap();
        let res = sim.simulate(&Angles::from_flat(&[0.05, 0.2])).unwrap();
        assert!((res.total_probability() - 1.0).abs() < 1e-12);
    }
}
