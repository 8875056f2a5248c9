//! Adjoint-mode analytic gradients of the QAOA expectation value.
//!
//! The paper leans on Enzyme automatic differentiation to get the full gradient of
//! `⟨β,γ|C|β,γ⟩` at the cost of a single expectation evaluation plus constant overhead,
//! versus the `O(p)` evaluations finite differences need (§2.3, Figure 5).  Enzyme is a
//! Julia/LLVM tool, so this crate substitutes the *adjoint-state method*: a reverse sweep
//! over the circuit that re-uses the forward statevector — the same cost profile (a
//! fixed multiple of one evaluation, for every `p`), and exact to machine precision.
//!
//! Derivation: with `|ψ_t⟩` the state after the `t`-th unitary and
//! `|λ_t⟩ = (V_{2p}⋯V_{t+1})† C |ψ_{2p}⟩`, each parameter `θ_t` of `V_t = e^{-iθ_t A_t}`
//! contributes `∂E/∂θ_t = 2·Im⟨λ_t|A_t|ψ_t⟩`.  Sweeping `t` from `2p` down to `1`, the
//! pair `(ψ, λ)` is rolled back with inverse evolutions, so only four state-sized
//! buffers are ever needed (all held by the caller's [`Workspace`]).
//!
//! Cost, counted in Walsh–Hadamard transforms for a Pauli-X mixer: the forward pass
//! makes `2p` (fewer when the prefix cache serves it), and each reverse round makes
//! five — one rotates `ψ` into the mixer eigenbasis, and from that one state come both
//! `H_M ψ` (one transform back) and the rolled-back `ψ` (one more), while `λ`'s
//! rollback takes two.  A cold gradient is therefore `7p` transforms, 3.5 times an
//! evaluation.  Other mixers apply `H_M` once and their inverse evolution twice per
//! round.  Round 0 skips the phase rollback, whose output nobody reads.

use crate::angles::Angles;
use crate::error::QaoaError;
use crate::prefix::PrefixCache;
use crate::simulator::Simulator;
use crate::workspace::Workspace;
use juliqaoa_linalg::vector;

/// The expectation value and its gradient with respect to all `2p` angles.
#[derive(Clone, Debug, PartialEq)]
pub struct AdjointGradient {
    /// The expectation value `⟨β,γ|C|β,γ⟩` at the evaluation point.
    pub expectation: f64,
    /// `∂E/∂β_i` for each round.
    pub grad_betas: Vec<f64>,
    /// `∂E/∂γ_i` for each round.
    pub grad_gammas: Vec<f64>,
}

impl AdjointGradient {
    /// Gradient in the flat layout `[∂β_1…∂β_p, ∂γ_1…∂γ_p]` matching
    /// [`Angles::to_flat`].
    pub fn to_flat(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(2 * self.grad_betas.len());
        v.extend_from_slice(&self.grad_betas);
        v.extend_from_slice(&self.grad_gammas);
        v
    }

    /// Euclidean norm of the full gradient.
    pub fn norm(&self) -> f64 {
        self.to_flat().iter().map(|g| g * g).sum::<f64>().sqrt()
    }
}

/// Computes the expectation value and its full gradient in a single reverse sweep.
///
/// The workspace provides all scratch storage; no allocation happens beyond the two
/// small output vectors.
pub fn adjoint_gradient(
    sim: &Simulator,
    angles: &Angles,
    ws: &mut Workspace,
) -> Result<AdjointGradient, QaoaError> {
    // Forward pass: ws.state = |β,γ⟩ (also validates the mixer schedule).
    sim.evolve_into(angles, ws)?;
    adjoint_reverse_sweep(sim, angles, ws)
}

/// [`adjoint_gradient`] with a prefix-cached forward pass.
///
/// The common optimizer pattern evaluates the objective at a point and then asks for
/// the gradient at the *same* point; routing the forward pass through the
/// [`PrefixCache`] turns that second full evolution into a replay of the final round
/// only.  The cache keeps no full-round checkpoint after the last round, so for a
/// Pauli-X mixer the repeat is a tail replay: the stored eigenbasis state, the
/// diagonal phase and one transform back (a Grover mixer replays its rank-1 update).
/// The reverse sweep is untouched (it rolls the state back in place and never consults
/// the cache), so the result is bit-identical to [`adjoint_gradient`].
pub fn adjoint_gradient_cached(
    sim: &Simulator,
    angles: &Angles,
    ws: &mut Workspace,
    cache: &mut PrefixCache,
) -> Result<AdjointGradient, QaoaError> {
    sim.evolve_cached(angles, ws, cache)?;
    adjoint_reverse_sweep(sim, angles, ws)
}

/// The shared reverse sweep: consumes `ws.state = |β,γ⟩` and produces the gradient.
fn adjoint_reverse_sweep(
    sim: &Simulator,
    angles: &Angles,
    ws: &mut Workspace,
) -> Result<AdjointGradient, QaoaError> {
    let p = angles.p();
    let obj = sim.objective_values();

    // λ = C·ψ  and  E = ⟨ψ|C|ψ⟩.
    for ((l, z), &c) in ws.lambda.iter_mut().zip(&ws.state).zip(obj) {
        *l = z.scale(c);
    }
    let expectation = vector::inner(&ws.state, &ws.lambda).re;

    let mut grad_betas = vec![0.0; p];
    let mut grad_gammas = vec![0.0; p];

    // Reverse sweep: undo each unitary on both ψ and λ, harvesting the gradient of its
    // parameter just before undoing it.
    for round in (0..p).rev() {
        let (gamma, beta) = angles.round(round);
        let mixer = sim.mixer_for_round(round, p)?;

        // --- β of this round: A = H_M ------------------------------------------------
        // tmp = H_M·ψ, then roll ψ back through the mixer.
        if mixer.eigenbasis_supported() {
            // One rotation into the eigenbasis serves both H_M·ψ and ψ's rollback
            // e^{+iβH_M}ψ, bit-identical to applying each to its own copy of ψ.
            mixer.to_eigenbasis(&mut ws.state);
            mixer.hamiltonian_from_eigenbasis(&ws.state, &mut ws.tmp);
            mixer.evolve_from_eigenbasis(-beta, &mut ws.state);
        } else {
            ws.tmp.copy_from_slice(&ws.state);
            mixer.apply_hamiltonian(&mut ws.tmp, &mut ws.scratch);
            mixer.apply_inverse_evolution(beta, &mut ws.state, &mut ws.scratch);
        }
        grad_betas[round] = 2.0 * vector::inner(&ws.lambda, &ws.tmp).im;
        mixer.apply_inverse_evolution(beta, &mut ws.lambda, &mut ws.scratch);

        // --- γ of this round: A = H_C = diag(C) ---------------------------------------
        grad_gammas[round] = 2.0 * vector::inner_weighted(&ws.lambda, &ws.state, obj).im;
        if round == 0 {
            // Nothing reads the pair rolled back past the first phase separator.
            break;
        }
        // Roll both vectors back through the phase separator, table-driven when the
        // objective is compressible (the table is built once and applied twice).
        match sim.phase_classes() {
            Some(classes) => {
                vector::build_phase_table(classes.distinct_values(), -gamma, &mut ws.phase_table);
                vector::apply_phases_indexed(
                    &mut ws.state,
                    classes.class_indices(),
                    &ws.phase_table,
                );
                vector::apply_phases_indexed(
                    &mut ws.lambda,
                    classes.class_indices(),
                    &ws.phase_table,
                );
            }
            None => {
                vector::apply_phases(&mut ws.state, obj, -gamma);
                vector::apply_phases(&mut ws.lambda, obj, -gamma);
            }
        }
    }

    Ok(AdjointGradient {
        expectation,
        grad_betas,
        grad_gammas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use juliqaoa_combinatorics::DickeSubspace;
    use juliqaoa_graphs::erdos_renyi;
    use juliqaoa_mixers::{Mixer, PauliXMixer};
    use juliqaoa_problems::{precompute_dicke, precompute_full, DensestKSubgraph, MaxCut};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The reverse sweep before the shared eigenbasis transform, the one-pass `λ`, the
    /// `inner_weighted` ∂γ and the skipped round-0 rollback: six transforms per Pauli-X
    /// round.  The reference the bit-identity tests hold the sweep to.
    fn reference_reverse_sweep(sim: &Simulator, angles: &Angles) -> AdjointGradient {
        let mut ws = sim.workspace();
        sim.evolve_into(angles, &mut ws).unwrap();
        let p = angles.p();
        let obj = sim.objective_values();

        ws.lambda.copy_from_slice(&ws.state);
        for (z, &c) in ws.lambda.iter_mut().zip(obj.iter()) {
            *z = z.scale(c);
        }
        let expectation = vector::inner(&ws.state, &ws.lambda).re;
        let mut grad_betas = vec![0.0; p];
        let mut grad_gammas = vec![0.0; p];
        for round in (0..p).rev() {
            let (gamma, beta) = angles.round(round);
            let mixer = sim.mixer_for_round(round, p).unwrap();

            ws.tmp.copy_from_slice(&ws.state);
            mixer.apply_hamiltonian(&mut ws.tmp, &mut ws.scratch);
            grad_betas[round] = 2.0 * vector::inner(&ws.lambda, &ws.tmp).im;
            mixer.apply_inverse_evolution(beta, &mut ws.state, &mut ws.scratch);
            mixer.apply_inverse_evolution(beta, &mut ws.lambda, &mut ws.scratch);

            ws.tmp.copy_from_slice(&ws.state);
            for (z, &c) in ws.tmp.iter_mut().zip(obj.iter()) {
                *z = z.scale(c);
            }
            grad_gammas[round] = 2.0 * vector::inner(&ws.lambda, &ws.tmp).im;
            match sim.phase_classes() {
                Some(classes) => {
                    vector::build_phase_table(
                        classes.distinct_values(),
                        -gamma,
                        &mut ws.phase_table,
                    );
                    vector::apply_phases_indexed(
                        &mut ws.state,
                        classes.class_indices(),
                        &ws.phase_table,
                    );
                    vector::apply_phases_indexed(
                        &mut ws.lambda,
                        classes.class_indices(),
                        &ws.phase_table,
                    );
                }
                None => {
                    vector::apply_phases(&mut ws.state, obj, -gamma);
                    vector::apply_phases(&mut ws.lambda, obj, -gamma);
                }
            }
        }
        AdjointGradient {
            expectation,
            grad_betas,
            grad_gammas,
        }
    }

    fn assert_bit_identical_to_reference(sim: &Simulator, angles: &Angles, what: &str) {
        let mut ws = sim.workspace();
        let got = adjoint_gradient(sim, angles, &mut ws).unwrap();
        let want = reference_reverse_sweep(sim, angles);
        let bits = |g: &AdjointGradient| {
            let mut v = vec![g.expectation.to_bits()];
            v.extend(g.to_flat().iter().map(|x| x.to_bits()));
            v
        };
        assert_eq!(bits(&got), bits(&want), "{what} p={}", angles.p());
    }

    /// Central finite differences of the expectation value, the O(p) reference.
    fn finite_difference(sim: &Simulator, angles: &Angles, eps: f64) -> Vec<f64> {
        let flat = angles.to_flat();
        let mut grad = vec![0.0; flat.len()];
        let mut ws = sim.workspace();
        for i in 0..flat.len() {
            let mut plus = flat.clone();
            plus[i] += eps;
            let mut minus = flat.clone();
            minus[i] -= eps;
            let ep = sim
                .expectation_with(&Angles::from_flat(&plus), &mut ws)
                .unwrap();
            let em = sim
                .expectation_with(&Angles::from_flat(&minus), &mut ws)
                .unwrap();
            grad[i] = (ep - em) / (2.0 * eps);
        }
        grad
    }

    fn assert_gradients_close(analytic: &[f64], numeric: &[f64], tol: f64) {
        assert_eq!(analytic.len(), numeric.len());
        for (i, (a, n)) in analytic.iter().zip(numeric.iter()).enumerate() {
            assert!(
                (a - n).abs() < tol,
                "component {i}: adjoint {a} vs finite difference {n}"
            );
        }
    }

    #[test]
    fn matches_finite_difference_for_maxcut_transverse_field() {
        let n = 6;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(21));
        let obj = precompute_full(&MaxCut::new(graph));
        let sim = Simulator::new(obj, Mixer::transverse_field(n)).unwrap();
        let angles = Angles::random(3, &mut StdRng::seed_from_u64(5));
        let mut ws = sim.workspace();
        let grad = adjoint_gradient(&sim, &angles, &mut ws).unwrap();
        let fd = finite_difference(&sim, &angles, 1e-5);
        assert_gradients_close(&grad.to_flat(), &fd, 1e-5);
        // Expectation agrees with a direct evaluation.
        let direct = sim.expectation(&angles).unwrap();
        assert!((grad.expectation - direct).abs() < 1e-10);
    }

    #[test]
    fn sweep_is_bit_identical_to_the_reference_for_every_mixer_family() {
        let mut rng = StdRng::seed_from_u64(71);
        for n in [5, 10] {
            let obj = precompute_full(&MaxCut::new(erdos_renyi(n, 0.5, &mut rng)));
            let k = n / 2;
            let sub = DickeSubspace::new(n, k);
            let graph = erdos_renyi(n, 0.6, &mut rng);
            let dicke_obj = precompute_dicke(&DensestKSubgraph::new(graph, k), &sub);
            let full = |mixer: Mixer| Simulator::new(obj.clone(), mixer).unwrap();
            let dicke = |mixer: Mixer| Simulator::new(dicke_obj.clone(), mixer).unwrap();
            let sims = [
                ("transverse_field", full(Mixer::transverse_field(n))),
                (
                    "uniform_products [1, 2]",
                    full(Mixer::PauliX(PauliXMixer::uniform_products(n, &[1, 2]))),
                ),
                (
                    "transverse_field, dense phases",
                    full(Mixer::transverse_field(n)).with_dense_phases(),
                ),
                ("grover", full(Mixer::grover_full(n))),
                ("clique", dicke(Mixer::clique(n, k))),
                ("ring", dicke(Mixer::ring(n, k))),
            ];
            for (name, sim) in &sims {
                for p in 1..=3 {
                    let angles = Angles::random(p, &mut rng);
                    assert_bit_identical_to_reference(sim, &angles, &format!("{name} n={n}"));
                }
            }
        }
    }

    #[test]
    fn sweep_is_bit_identical_to_the_reference_at_n17() {
        // 2^17 amplitudes: the parallel transform schedule at the default threshold,
        // with a radix-2 sweep after the radix-4 ones above the cache block.
        let n = 17;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(17));
        let sim = Simulator::new(
            precompute_full(&MaxCut::new(graph)),
            Mixer::transverse_field(n),
        )
        .unwrap();
        let angles = Angles::random(1, &mut StdRng::seed_from_u64(3));
        assert_bit_identical_to_reference(&sim, &angles, "transverse_field n=17");
    }

    #[test]
    fn matches_finite_difference_for_grover_mixer() {
        let n = 5;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(33));
        let obj = precompute_full(&MaxCut::new(graph));
        let sim = Simulator::new(obj, Mixer::grover_full(n)).unwrap();
        let angles = Angles::random(4, &mut StdRng::seed_from_u64(6));
        let mut ws = sim.workspace();
        let grad = adjoint_gradient(&sim, &angles, &mut ws).unwrap();
        let fd = finite_difference(&sim, &angles, 1e-5);
        assert_gradients_close(&grad.to_flat(), &fd, 1e-5);
    }

    #[test]
    fn matches_finite_difference_for_constrained_clique_mixer() {
        let n = 6;
        let k = 3;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(44));
        let sub = DickeSubspace::new(n, k);
        let obj = precompute_dicke(&DensestKSubgraph::new(graph, k), &sub);
        let sim = Simulator::new(obj, Mixer::clique(n, k)).unwrap();
        let angles = Angles::random(2, &mut StdRng::seed_from_u64(8));
        let mut ws = sim.workspace();
        let grad = adjoint_gradient(&sim, &angles, &mut ws).unwrap();
        let fd = finite_difference(&sim, &angles, 1e-5);
        assert_gradients_close(&grad.to_flat(), &fd, 1e-5);
    }

    #[test]
    fn gradient_is_zero_at_zero_angles_for_symmetric_problems() {
        // At β = γ = 0 the state stays uniform; the γ-derivative need not vanish in
        // general, but the β-derivative must (the mixer acts on an eigenstate).
        let n = 5;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(55));
        let obj = precompute_full(&MaxCut::new(graph));
        let sim = Simulator::new(obj, Mixer::transverse_field(n)).unwrap();
        let mut ws = sim.workspace();
        let grad = adjoint_gradient(&sim, &Angles::zeros(2), &mut ws).unwrap();
        for g in &grad.grad_betas {
            assert!(g.abs() < 1e-10);
        }
    }

    #[test]
    fn flat_layout_and_norm() {
        let g = AdjointGradient {
            expectation: 1.0,
            grad_betas: vec![3.0, 0.0],
            grad_gammas: vec![0.0, 4.0],
        };
        assert_eq!(g.to_flat(), vec![3.0, 0.0, 0.0, 4.0]);
        assert!((g.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn workspace_state_still_holds_final_state_before_sweep_consistency() {
        // The gradient call leaves rolled-back scratch in the workspace; a second call
        // must still start from a fresh forward pass and give the same result.
        let n = 5;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(66));
        let obj = precompute_full(&MaxCut::new(graph));
        let sim = Simulator::new(obj, Mixer::transverse_field(n)).unwrap();
        let angles = Angles::random(3, &mut StdRng::seed_from_u64(9));
        let mut ws = sim.workspace();
        let g1 = adjoint_gradient(&sim, &angles, &mut ws).unwrap();
        let g2 = adjoint_gradient(&sim, &angles, &mut ws).unwrap();
        assert!((g1.expectation - g2.expectation).abs() < 1e-12);
        assert_gradients_close(&g1.to_flat(), &g2.to_flat(), 1e-12);
    }
}
