//! Bit-identity of prefix-state reuse with cold re-evolution — the correctness
//! contract of `PrefixCache` / `Simulator::evolve_cached`.
//!
//! A resumed evaluation restores a byte copy of an intermediate state and replays the
//! remaining rounds with the same kernels in the same order, so it must agree with a
//! cold `evolve_into` **exactly** (`to_bits` equality, not a tolerance), for:
//!
//! * every mixer family (Pauli-X transverse field, custom Pauli-X products, Grover,
//!   XY ring on the Dicke subspace) and the Grover mixer in class space,
//! * round counts `p ∈ 1..=4`,
//! * both the table-driven and the dense phase-separator paths,
//! * evaluation sequences with every reuse shape: exact repeats (full hits), suffix
//!   sweeps (tail hits), single-coordinate walks (partial prefixes) and unrelated
//!   jumps (complete misses),
//! * the cached adjoint gradient's forward pass.

use juliqaoa::linalg::Complex64;
use juliqaoa::prelude::*;
use juliqaoa::problems::{degeneracies_full, DensestKSubgraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_states_bit_equal(a: &[Complex64], b: &[Complex64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        prop_assert_eq!(x.re.to_bits(), y.re.to_bits());
        prop_assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
    Ok(())
}

/// Builds one of the five mixer/problem combinations under test.
fn build_simulator(mixer_choice: usize, seed: u64, dense: bool) -> Simulator {
    let n = 7;
    let k = 3;
    let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(seed));
    let sim = match mixer_choice {
        0 => Simulator::new(
            precompute_full(&MaxCut::new(graph)),
            Mixer::transverse_field(n),
        ),
        1 => Simulator::new(precompute_full(&MaxCut::new(graph)), Mixer::grover_full(n)),
        2 => {
            let sub = DickeSubspace::new(n, k);
            Simulator::new(
                precompute_dicke(&DensestKSubgraph::new(graph, k), &sub),
                Mixer::ring(n, k),
            )
        }
        3 => Simulator::new(
            precompute_full(&MaxCut::new(graph)),
            // A "custom" mixer: all X strings of orders 1 and 2.
            Mixer::PauliX(PauliXMixer::uniform_products(n, &[1, 2])),
        ),
        // The Grover mixer in class space: one amplitude per distinct cut value.
        _ => Simulator::grover_classes(&degeneracies_full(&MaxCut::new(graph), 1)),
    }
    .expect("consistent setup");
    if dense {
        sim.with_dense_phases()
    } else {
        sim
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn cached_evaluation_sequences_match_cold_evolution_bitwise(
        seed in 0u64..1000,
        mixer_choice in 0usize..5,
        p in 1usize..5,
        dense in 0usize..2,
        base in proptest::collection::vec(-3.2..3.2f64, 8),
        walk in proptest::collection::vec((0usize..8, -0.7..0.7f64), 10)
    ) {
        let sim = build_simulator(mixer_choice, seed, dense == 1);
        let mut cache = sim.prefix_cache();
        let mut ws_cached = sim.workspace();
        let mut ws_cold = sim.workspace();

        // A cumulative random walk over single coordinates produces every reuse
        // shape: deep-coordinate steps share long prefixes, shallow steps short
        // ones, and a zero-delta step is an exact repeat.
        let mut flat: Vec<f64> = base[..2 * p].to_vec();
        for &(coord, delta) in &walk {
            flat[coord % (2 * p)] += delta;
            let angles = Angles::from_flat(&flat);
            sim.evolve_cached(&angles, &mut ws_cached, &mut cache)
                .expect("consistent setup");
            sim.evolve_into(&angles, &mut ws_cold).expect("consistent setup");
            assert_states_bit_equal(&ws_cached.state, &ws_cold.state)?;

            // Exact repeat of the same point (the value→gradient pattern).
            sim.evolve_cached(&angles, &mut ws_cached, &mut cache)
                .expect("consistent setup");
            assert_states_bit_equal(&ws_cached.state, &ws_cold.state)?;
        }
        let stats = cache.stats();
        // The exact repeats alone guarantee reuse whenever any checkpoint exists.
        // The single structurally reuse-free case is p = 1 with a subspace mixer:
        // no interior round to checkpoint and no tail for XY mixers.
        let tail_free = mixer_choice == 2 && p == 1;
        prop_assert!(
            stats.hits > 0 || tail_free,
            "walk produced no reuse: {stats:?}"
        );
    }

    #[test]
    fn suffix_sweep_matches_cold_evolution_for_every_mixer(
        seed in 0u64..1000,
        mixer_choice in 0usize..5,
        dense in 0usize..2,
        base in proptest::collection::vec(-3.2..3.2f64, 6)
    ) {
        // The grid-search access pattern: deepest round's β fastest, then its γ.
        let p = 3;
        let sim = build_simulator(mixer_choice, seed, dense == 1);
        let mut cache = sim.prefix_cache();
        let mut ws_cached = sim.workspace();
        let mut ws_cold = sim.workspace();
        for outer in 0..3 {
            for inner in 0..4 {
                let mut flat = base.clone();
                flat[p - 1] += 0.17 * inner as f64; // β_p (fastest)
                flat[2 * p - 1] += 0.29 * outer as f64; // γ_p
                let angles = Angles::from_flat(&flat);
                sim.evolve_cached(&angles, &mut ws_cached, &mut cache)
                    .expect("consistent setup");
                sim.evolve_into(&angles, &mut ws_cold).expect("consistent setup");
                assert_states_bit_equal(&ws_cached.state, &ws_cold.state)?;
            }
        }
        let stats = cache.stats();
        prop_assert!(stats.hits >= 10, "sweep must reuse prefixes: {stats:?}");
        // Pauli-X mixers have the eigenbasis tail, Grover the post-phase tail; only
        // the XY subspace mixer replays the final round in full.
        if mixer_choice != 2 {
            prop_assert!(stats.tail_hits > 0, "β-sweep must hit the tail: {stats:?}");
        }
    }

    #[test]
    fn cached_adjoint_gradient_matches_uncached_bitwise(
        seed in 0u64..1000,
        mixer_choice in 0usize..5,
        p in 1usize..4,
        angles in proptest::collection::vec(-3.2..3.2f64, 6)
    ) {
        let sim = build_simulator(mixer_choice, seed, false);
        let parsed = Angles::from_flat(&angles[..2 * p]);
        let mut cache = sim.prefix_cache();
        let mut ws_cached = sim.workspace();
        let mut ws_cold = sim.workspace();
        // Warm the cache with a forward evaluation at the same point, then take the
        // cached-forward gradient; it must equal the cold gradient exactly.
        sim.evolve_cached(&parsed, &mut ws_cached, &mut cache).expect("consistent setup");
        let g_cached = adjoint_gradient_cached(&sim, &parsed, &mut ws_cached, &mut cache)
            .expect("consistent setup");
        let g_cold = adjoint_gradient(&sim, &parsed, &mut ws_cold).expect("consistent setup");
        prop_assert_eq!(g_cached.expectation.to_bits(), g_cold.expectation.to_bits());
        for (a, b) in g_cached.to_flat().iter().zip(g_cold.to_flat().iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // p = 1 with a subspace mixer has no interior round and no tail to serve the
        // repeat; every other combination must reuse.
        if !(mixer_choice == 2 && p == 1) {
            prop_assert!(cache.stats().hits > 0, "repeat forward pass must hit");
        }
    }
}

#[test]
fn tiny_budget_caches_degrade_to_cold_evaluation_not_wrong_answers() {
    let sim = build_simulator(0, 11, false);
    let angles = Angles::random(3, &mut StdRng::seed_from_u64(2));
    let mut ws_cold = sim.workspace();
    sim.evolve_into(&angles, &mut ws_cold)
        .expect("consistent setup");
    for budget in [0usize, 1, 1 << 10, 1 << 14, 1 << 30] {
        let mut cache = PrefixCache::with_budget(budget);
        let mut ws = sim.workspace();
        for _ in 0..3 {
            sim.evolve_cached(&angles, &mut ws, &mut cache)
                .expect("consistent setup");
            for (a, b) in ws.state.iter().zip(ws_cold.state.iter()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }
}
