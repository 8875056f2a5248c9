//! The flip-reduced simulator against the full-space one.
//!
//! A flip-symmetric objective (`C(x) = C(x̄)`, declared by
//! [`CostFunction::flip_symmetric`]) under a Pauli-X mixer is simulated on the
//! `2ⁿ⁻¹` top-bit-clear states with [`PauliXMixer::flip_reduced`].  Covered here:
//! * the declaration holds bit for bit for MaxCut (random weighted graphs) and
//!   number partitioning, and k-SAT and closures do not make it;
//! * the reduced spectrum is the full one read at `(y′, parity(y′))`;
//! * reduced ⟨C⟩ and adjoint gradients equal the full-space ones for every
//!   `n ∈ 2..=14` and `p ∈ 1..=3`, on `G(n, ½)` and weighted graphs, under the
//!   transverse field and under `uniform_products(n, &[1, 2])`;
//! * at `p = 1` the reduced values match the closed form of Wang, Hadfield, Jiang
//!   and Rieffel, Phys. Rev. A 97, 022304 (2018).

use juliqaoa::graphs::generators::erdos_renyi_weighted;
use juliqaoa::prelude::*;
use juliqaoa::problems::{FnCost, NumberPartitioning};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The full-space simulator and its flip-reduced twin for one symmetric objective.
fn full_and_reduced(values: Vec<f64>, mixer: PauliXMixer) -> (Simulator, Simulator) {
    let half = values[..values.len() / 2].to_vec();
    let reduced = Mixer::PauliX(mixer.flip_reduced());
    (
        Simulator::new(values, Mixer::PauliX(mixer)).unwrap(),
        Simulator::new(half, reduced).unwrap(),
    )
}

fn complement(x: u64, n: usize) -> u64 {
    !x & ((1 << n) - 1)
}

#[test]
fn maxcut_and_number_partitioning_are_flip_symmetric_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(11);
    for n in 1..=10 {
        let cut = MaxCut::new(erdos_renyi_weighted(n, 0.6, -2.0..3.0, &mut rng));
        let numbers = (0..n).map(|_| rng.gen_range(-5.0..9.0)).collect();
        let partition = NumberPartitioning::new(numbers);
        let costs: [&dyn CostFunction; 2] = [&cut, &partition];
        for cost in costs {
            assert!(cost.flip_symmetric());
            for x in 0..1u64 << n {
                let (a, b) = (cost.evaluate(x), cost.evaluate(complement(x, n)));
                assert_eq!(a.to_bits(), b.to_bits(), "{} n={n} x={x}", cost.name());
            }
        }
    }
}

#[test]
fn ksat_and_closures_declare_no_symmetry() {
    let mut rng = StdRng::seed_from_u64(3);
    assert!(!KSat::random(6, 3, 20, &mut rng).flip_symmetric());
    // Symmetric values, but a closure declares nothing.
    let parity = FnCost::new(6, "parity", |x: u64| (x.count_ones() % 2) as f64);
    assert!(!parity.flip_symmetric());
}

#[test]
fn reduced_spectra_read_the_full_ones_at_even_weight() {
    for n in 2..=10 {
        for mixer in [
            PauliXMixer::transverse_field(n),
            PauliXMixer::uniform_products(n, &[1, 2]),
        ] {
            let reduced = mixer.flip_reduced();
            assert_eq!(reduced.dim(), 1 << (n - 1));
            for (y, &lambda) in reduced.eigenvalues().iter().enumerate() {
                let z = y | ((y.count_ones() as usize % 2) << (n - 1));
                assert_eq!(lambda.to_bits(), mixer.eigenvalues()[z].to_bits());
            }
        }
    }
}

#[test]
fn reduced_expectations_and_gradients_match_the_full_space() {
    let mut rng = StdRng::seed_from_u64(2012);
    for n in 2..=14 {
        let graphs = [
            erdos_renyi(n, 0.5, &mut rng),
            erdos_renyi_weighted(n, 0.5, 0.1..2.0, &mut rng),
        ];
        for graph in graphs {
            let values = precompute_full(&MaxCut::new(graph));
            for mixer in [
                PauliXMixer::transverse_field(n),
                PauliXMixer::uniform_products(n, &[1, 2]),
            ] {
                let (full, reduced) = full_and_reduced(values.clone(), mixer);
                let (mut ws_full, mut ws_reduced) = (full.workspace(), reduced.workspace());
                for p in 1..=3 {
                    let angles = Angles::random(p, &mut rng);
                    let a = adjoint_gradient(&full, &angles, &mut ws_full).unwrap();
                    let b = adjoint_gradient(&reduced, &angles, &mut ws_reduced).unwrap();
                    let e = reduced.expectation_with(&angles, &mut ws_reduced).unwrap();
                    let scale = a.expectation.abs().max(1e-300);
                    assert!(
                        (a.expectation - e).abs() <= 1e-12 * scale,
                        "n={n} p={p}: ⟨C⟩ {} vs {e}",
                        a.expectation
                    );
                    assert!((a.expectation - b.expectation).abs() <= 1e-12 * scale);
                    for (ga, gb) in a.to_flat().iter().zip(b.to_flat()) {
                        assert!((ga - gb).abs() <= 1e-10, "n={n} p={p}: ∂ {ga} vs {gb}");
                    }
                }
            }
        }
    }
}

/// `⟨C⟩` of p = 1 QAOA on an unweighted graph, summed over edges, by Theorem 1 of
/// Wang, Hadfield, Jiang & Rieffel (2018): with `d_u + 1`, `d_v + 1` the degrees and
/// `λ` the triangles on edge `uv`,
/// `⟨C_uv⟩ = ½ + ¼·sin 4β·sin γ·(cos^{d_u} γ + cos^{d_v} γ)
///          − ¼·sin² 2β·cos^{d_u + d_v − 2λ} γ·(1 − cos^λ 2γ)`.
fn p1_closed_form(graph: &Graph, beta: f64, gamma: f64) -> f64 {
    let degree = |v: usize| graph.neighbors(v).len() as i32;
    graph
        .edges()
        .iter()
        .map(|e| {
            let (du, dv) = (degree(e.u) - 1, degree(e.v) - 1);
            let triangles = graph
                .neighbors(e.u)
                .iter()
                .filter(|w| graph.neighbors(e.v).contains(w))
                .count() as i32;
            0.5 + 0.25
                * (4.0 * beta).sin()
                * gamma.sin()
                * (gamma.cos().powi(du) + gamma.cos().powi(dv))
                - 0.25
                    * (2.0 * beta).sin().powi(2)
                    * gamma.cos().powi(du + dv - 2 * triangles)
                    * (1.0 - (2.0 * gamma).cos().powi(triangles))
        })
        .sum()
}

#[test]
fn p1_reduced_values_match_the_closed_form() {
    let mut rng = StdRng::seed_from_u64(1706);
    for n in 2..=12 {
        let graph = erdos_renyi(n, 0.5, &mut rng);
        let values = precompute_full(&MaxCut::new(graph.clone()));
        let (_, reduced) = full_and_reduced(values, PauliXMixer::transverse_field(n));
        for _ in 0..4 {
            let (beta, gamma) = (rng.gen_range(-3.2..3.2), rng.gen_range(-3.2..3.2));
            let angles = Angles::new(vec![beta], vec![gamma]);
            let simulated = reduced.expectation(&angles).unwrap();
            let closed = p1_closed_form(&graph, beta, gamma);
            assert!(
                (simulated - closed).abs() <= 1e-12 * closed.abs().max(1.0),
                "n={n} β={beta} γ={gamma}: {simulated} vs {closed}"
            );
        }
    }
}
