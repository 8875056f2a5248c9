//! The unified mixer type consumed by the simulator.
//!
//! [`Mixer`] wraps the mixer families behind one interface:
//! `apply_evolution` applies `e^{-iβ H_M}` in place and `apply_hamiltonian` applies
//! `H_M` itself (needed by the adjoint gradient).  Both take a caller-provided scratch
//! buffer so repeated simulation rounds never allocate — the "pre-allocate and re-use
//! memory, allowing for functionally zero overhead" point of §2.2.

use crate::custom::SubspaceMixer;
use crate::grover::GroverMixer;
use crate::pauli_x::PauliXMixer;
use crate::xy::XYMixer;
use juliqaoa_linalg::{walsh, Complex64};

/// A mixer Hamiltonian, ready to apply to a statevector.
#[derive(Clone, Debug)]
pub enum Mixer {
    /// Sum of Pauli-X strings on the full `2ⁿ` space, diagonalised by `H^{⊗n}`.
    PauliX(PauliXMixer),
    /// The Grover mixer `|s⟩⟨s|` on a feasible set of any dimension, or on its value
    /// classes.
    Grover(GroverMixer),
    /// The Clique or Ring XY mixer on the weight-k subspace, applied matrix-free.
    XY(XYMixer),
    /// A custom mixer on a feasible subspace applied through its eigendecomposition.
    Subspace(SubspaceMixer),
}

impl Mixer {
    /// The transverse-field mixer `Σ_i X_i` (Listing 1's `mixer_X([1], n)`).
    pub fn transverse_field(n: usize) -> Self {
        Mixer::PauliX(PauliXMixer::transverse_field(n))
    }

    /// The Grover mixer over the full `2ⁿ` space.
    pub fn grover_full(n: usize) -> Self {
        Mixer::Grover(GroverMixer::full_space(n))
    }

    /// The Grover mixer over the weight-k Dicke subspace.
    pub fn grover_dicke(n: usize, k: usize) -> Self {
        Mixer::Grover(GroverMixer::dicke(n, k))
    }

    /// The Clique mixer on the weight-k subspace (Listing 2's `mixer_clique(n, k)`).
    pub fn clique(n: usize, k: usize) -> Self {
        Mixer::XY(XYMixer::clique(n, k))
    }

    /// The Ring mixer on the weight-k subspace.
    pub fn ring(n: usize, k: usize) -> Self {
        Mixer::XY(XYMixer::ring(n, k))
    }

    /// Dimension of the space the mixer acts on (and of the statevectors it accepts).
    pub fn dim(&self) -> usize {
        match self {
            Mixer::PauliX(m) => m.dim(),
            Mixer::Grover(m) => m.dim(),
            Mixer::XY(m) => m.dim(),
            Mixer::Subspace(m) => m.dim(),
        }
    }

    /// Heap bytes the mixer holds (per-thread apply buffers excluded) — what a cache
    /// of built mixers should charge for one.
    pub fn bytes(&self) -> usize {
        match self {
            Mixer::PauliX(m) => m.bytes(),
            Mixer::Grover(m) => m.bytes(),
            Mixer::XY(m) => m.bytes(),
            Mixer::Subspace(m) => m.bytes(),
        }
    }

    /// A short descriptive name for logs and benchmark output.
    pub fn name(&self) -> String {
        match self {
            Mixer::PauliX(m) => format!(
                "pauli_x({} terms, n={}{})",
                m.terms().len(),
                m.n(),
                if m.is_flip_reduced() {
                    ", flip-reduced"
                } else {
                    ""
                }
            ),
            Mixer::Grover(m) => format!("grover(dim={})", m.dim()),
            Mixer::XY(m) => m.name().to_string(),
            Mixer::Subspace(m) => m.name().to_string(),
        }
    }

    /// Applies `e^{-iβ H_M}` to the state in place.  `scratch` must have the same length
    /// as `state`; it is only written to for XY and custom subspace mixers but is always
    /// required so callers can use a single uniform loop.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn apply_evolution(&self, beta: f64, state: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim(), "state dimension mismatch");
        match self {
            Mixer::PauliX(_) => {
                // e^{-iβ f(X)} = H^{⊗n}·e^{-iβ f(Z)}·H^{⊗n}  (Eq. 2), expressed as the
                // two eigenbasis halves so prefix caches can checkpoint between them.
                self.to_eigenbasis(state);
                self.evolve_from_eigenbasis(beta, state);
            }
            Mixer::Grover(m) => m.apply_evolution(beta, state),
            Mixer::XY(m) => m.apply_evolution(beta, state, scratch),
            Mixer::Subspace(m) => m.apply_evolution(beta, state, scratch),
        }
    }

    /// Whether this mixer supports the split eigenbasis evolution
    /// ([`Mixer::to_eigenbasis`] + [`Mixer::evolve_from_eigenbasis`]).
    ///
    /// True for Pauli-X product mixers, whose diagonalising transform `H^{⊗n}` is
    /// fixed and cheap; the split lets a sweep over the *last* round's `β` checkpoint
    /// the state after the rotation and replay only the diagonal phase plus the
    /// rotation back.
    pub fn eigenbasis_supported(&self) -> bool {
        matches!(self, Mixer::PauliX(_))
    }

    /// Rotates the state into the mixer eigenbasis — the first half of
    /// [`Mixer::apply_evolution`] for supported mixers.
    ///
    /// # Panics
    /// Panics if [`Mixer::eigenbasis_supported`] is false or on dimension mismatch.
    pub fn to_eigenbasis(&self, state: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim(), "state dimension mismatch");
        match self {
            Mixer::PauliX(_) => walsh::walsh_hadamard(state),
            _ => panic!("{} does not support eigenbasis splitting", self.name()),
        }
    }

    /// Completes `e^{-iβ H_M}` from an eigenbasis state: applies the diagonal phase
    /// and rotates back.  `to_eigenbasis` followed by this call is bit-identical to
    /// [`Mixer::apply_evolution`] for supported mixers.
    ///
    /// # Panics
    /// Panics if [`Mixer::eigenbasis_supported`] is false or on dimension mismatch.
    pub fn evolve_from_eigenbasis(&self, beta: f64, state: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim(), "state dimension mismatch");
        match self {
            Mixer::PauliX(m) => {
                m.apply_diagonal_evolution(beta, state);
                walsh::walsh_hadamard(state);
            }
            _ => panic!("{} does not support eigenbasis splitting", self.name()),
        }
    }

    /// Writes `H_M ψ` into `out`, given the eigenbasis state `ψ̃` that
    /// [`Mixer::to_eigenbasis`] made of `ψ`: the diagonal times `ψ̃`, rotated back.
    ///
    /// Because `ψ̃` is left intact, the same transform also serves
    /// [`Mixer::evolve_from_eigenbasis`]; the adjoint gradient gets `H_M ψ` and the
    /// rolled-back `ψ` from one forward rotation.
    ///
    /// # Panics
    /// Panics if [`Mixer::eigenbasis_supported`] is false or on dimension mismatch.
    pub fn hamiltonian_from_eigenbasis(&self, eigen: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(eigen.len(), self.dim(), "state dimension mismatch");
        assert_eq!(out.len(), self.dim(), "output dimension mismatch");
        match self {
            Mixer::PauliX(m) => {
                for ((o, z), &lambda) in out.iter_mut().zip(eigen).zip(m.eigenvalues()) {
                    *o = z.scale(lambda);
                }
                walsh::walsh_hadamard(out);
            }
            _ => panic!("{} does not support eigenbasis splitting", self.name()),
        }
    }

    /// Applies the mixer Hamiltonian `H_M` itself to the state in place (no exponential).
    /// Used by the adjoint-mode gradient.  `scratch` must have the same length as
    /// `state`.
    pub fn apply_hamiltonian(&self, state: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim(), "state dimension mismatch");
        match self {
            Mixer::PauliX(_) => {
                self.to_eigenbasis(state);
                self.hamiltonian_from_eigenbasis(state, scratch);
                state.copy_from_slice(scratch);
            }
            Mixer::Grover(m) => m.apply_hamiltonian(state),
            Mixer::XY(m) => m.apply_hamiltonian(state, scratch),
            Mixer::Subspace(m) => m.apply_hamiltonian(state, scratch),
        }
    }

    /// Applies the inverse evolution `e^{+iβ H_M}`; used by the adjoint gradient's
    /// backward sweep.
    pub fn apply_inverse_evolution(
        &self,
        beta: f64,
        state: &mut [Complex64],
        scratch: &mut [Complex64],
    ) {
        self.apply_evolution(-beta, state, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juliqaoa_linalg::vector::{self, fill_uniform, norm, normalize};

    fn random_like_state(dim: usize) -> Vec<Complex64> {
        let mut v: Vec<Complex64> = (0..dim)
            .map(|i| Complex64::new((i as f64 * 0.61).sin(), (i as f64 * 0.37).cos()))
            .collect();
        normalize(&mut v);
        v
    }

    #[test]
    fn constructors_and_dims() {
        assert_eq!(Mixer::transverse_field(4).dim(), 16);
        assert_eq!(Mixer::grover_full(4).dim(), 16);
        assert_eq!(Mixer::grover_dicke(6, 3).dim(), 20);
        assert_eq!(Mixer::clique(5, 2).dim(), 10);
        assert_eq!(Mixer::ring(5, 2).dim(), 10);
    }

    #[test]
    fn names_are_descriptive() {
        assert!(Mixer::transverse_field(3).name().contains("pauli_x"));
        assert!(Mixer::grover_full(3).name().contains("grover"));
        assert!(Mixer::clique(4, 2).name().contains("clique"));
    }

    #[test]
    fn all_mixers_preserve_norm() {
        let mut pair_hop = juliqaoa_linalg::RealMatrix::zeros(3, 3);
        for (a, b, w) in [(0, 1, 1.5), (1, 2, 0.5)] {
            pair_hop[(a, b)] = w;
            pair_hop[(b, a)] = w;
        }
        for mixer in [
            Mixer::transverse_field(5),
            Mixer::grover_full(5),
            Mixer::clique(5, 2),
            Mixer::ring(5, 2),
            Mixer::Subspace(crate::CustomMixer::from_symmetric("pair-hop", &pair_hop)),
        ] {
            let dim = mixer.dim();
            let mut state = random_like_state(dim);
            let mut scratch = vec![Complex64::ZERO; dim];
            mixer.apply_evolution(0.83, &mut state, &mut scratch);
            assert!((norm(&state) - 1.0).abs() < 1e-9, "{}", mixer.name());
        }
    }

    #[test]
    fn inverse_evolution_undoes_evolution() {
        for mixer in [
            Mixer::transverse_field(4),
            Mixer::grover_full(4),
            Mixer::clique(6, 3),
        ] {
            let dim = mixer.dim();
            let orig = random_like_state(dim);
            let mut state = orig.clone();
            let mut scratch = vec![Complex64::ZERO; dim];
            mixer.apply_evolution(1.7, &mut state, &mut scratch);
            mixer.apply_inverse_evolution(1.7, &mut state, &mut scratch);
            assert!(
                vector::max_abs_diff(&state, &orig) < 1e-9,
                "{}",
                mixer.name()
            );
        }
    }

    #[test]
    fn transverse_field_evolution_matches_single_qubit_rotations() {
        // e^{-iβ ΣX_i} factorises into per-qubit RX(2β) rotations; check against the
        // explicit 1-qubit formula applied qubit by qubit.
        let n = 3;
        let mixer = Mixer::transverse_field(n);
        let dim = 1 << n;
        let mut state = random_like_state(dim);
        let reference = {
            let mut s = state.clone();
            let beta: f64 = 0.41;
            for q in 0..n {
                let mut out = vec![Complex64::ZERO; dim];
                let (c, ms) = (beta.cos(), -beta.sin());
                for (x, amp) in s.iter().enumerate() {
                    let flipped = x ^ (1 << q);
                    // e^{-iβX} = cosβ·I − i·sinβ·X
                    out[x] += amp.scale(c);
                    out[flipped] += Complex64::new(0.0, ms) * *amp;
                }
                s = out;
            }
            s
        };
        let mut scratch = vec![Complex64::ZERO; dim];
        mixer.apply_evolution(0.41, &mut state, &mut scratch);
        assert!(vector::max_abs_diff(&state, &reference) < 1e-9);
    }

    #[test]
    fn hamiltonian_application_matches_expectation_identity() {
        // ⟨ψ|H_M|ψ⟩ computed via apply_hamiltonian must be real for Hermitian mixers.
        for mixer in [
            Mixer::transverse_field(4),
            Mixer::grover_full(4),
            Mixer::ring(5, 2),
        ] {
            let dim = mixer.dim();
            let state = random_like_state(dim);
            let mut h_psi = state.clone();
            let mut scratch = vec![Complex64::ZERO; dim];
            mixer.apply_hamiltonian(&mut h_psi, &mut scratch);
            let expectation = vector::inner(&state, &h_psi);
            assert!(expectation.im.abs() < 1e-9, "{}", mixer.name());
        }
    }

    #[test]
    fn grover_and_transverse_field_agree_on_uniform_fixed_point_phase() {
        // Both mixers leave the uniform superposition invariant up to a global phase.
        for mixer in [Mixer::grover_full(4), Mixer::transverse_field(4)] {
            let dim = mixer.dim();
            let mut state = vec![Complex64::ZERO; dim];
            fill_uniform(&mut state);
            let mut scratch = vec![Complex64::ZERO; dim];
            mixer.apply_evolution(0.6, &mut state, &mut scratch);
            // All amplitudes still equal.
            for w in state.windows(2) {
                assert!((w[0] - w[1]).abs() < 1e-10, "{}", mixer.name());
            }
        }
    }

    #[test]
    fn eigenbasis_split_is_bit_identical_to_whole_evolution() {
        let mixer = Mixer::transverse_field(5);
        assert!(mixer.eigenbasis_supported());
        let dim = mixer.dim();
        let orig = random_like_state(dim);
        let beta = 1.137;
        let mut whole = orig.clone();
        let mut scratch = vec![Complex64::ZERO; dim];
        mixer.apply_evolution(beta, &mut whole, &mut scratch);
        let mut split = orig.clone();
        mixer.to_eigenbasis(&mut split);
        mixer.evolve_from_eigenbasis(beta, &mut split);
        for (a, b) in whole.iter().zip(split.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    /// The radix-2 definition of the normalised transform: `n` stage sweeps, then the
    /// `2^{-n/2}` scale sweep.
    fn radix2_reference(state: &mut [Complex64]) {
        let len = state.len();
        let mut h = 1;
        while h < len {
            for start in (0..len).step_by(2 * h) {
                for i in start..start + h {
                    let (a, b) = (state[i], state[i + h]);
                    state[i] = a + b;
                    state[i + h] = a - b;
                }
            }
            h *= 2;
        }
        let scale = 1.0 / (len as f64).sqrt();
        state.iter_mut().for_each(|z| *z = z.scale(scale));
    }

    fn assert_bits_eq(a: &[Complex64], b: &[Complex64], what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: amplitude {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn split_halves_match_the_radix2_reference_bit_for_bit() {
        let beta = 0.8123;
        for n in 0..=20 {
            let mixer = Mixer::transverse_field(n);
            let Mixer::PauliX(px) = &mixer else {
                unreachable!("transverse_field builds a Pauli-X mixer")
            };
            let psi = random_like_state(1 << n);

            let mut eigen = psi.clone();
            mixer.to_eigenbasis(&mut eigen);
            let mut expected = psi;
            radix2_reference(&mut expected);
            assert_bits_eq(&eigen, &expected, &format!("to_eigenbasis n={n}"));

            let mut h_psi = vec![Complex64::ZERO; 1 << n];
            mixer.hamiltonian_from_eigenbasis(&eigen, &mut h_psi);
            let mut expected: Vec<Complex64> = eigen
                .iter()
                .zip(px.eigenvalues())
                .map(|(z, &lambda)| z.scale(lambda))
                .collect();
            radix2_reference(&mut expected);
            assert_bits_eq(&h_psi, &expected, &format!("hamiltonian n={n}"));

            let mut evolved = eigen.clone();
            mixer.evolve_from_eigenbasis(beta, &mut evolved);
            let mut expected = eigen;
            vector::apply_phases(&mut expected, px.eigenvalues(), beta);
            radix2_reference(&mut expected);
            assert_bits_eq(&evolved, &expected, &format!("evolve n={n}"));
        }
    }

    #[test]
    fn flip_reduced_mixers_act_on_symmetric_states_as_the_full_ones_do() {
        for n in 1..=9 {
            for px in [
                PauliXMixer::transverse_field(n),
                PauliXMixer::uniform_products(n, &[1, n.min(2)]),
            ] {
                let reduced = Mixer::PauliX(px.flip_reduced());
                let mixer = Mixer::PauliX(px);
                assert_eq!(reduced.dim(), 1 << (n - 1));
                assert!(reduced.name().contains("flip-reduced"));
                let (dim, half) = (1 << n, 1 << (n - 1));
                // ψ(x) = ψ(x̄): the second half mirrors the first, reversed.
                let head = random_like_state(half);
                let mut psi: Vec<Complex64> =
                    head.iter().chain(head.iter().rev()).copied().collect();
                normalize(&mut psi);
                let mut phi: Vec<Complex64> =
                    psi[..half].iter().map(|z| z.scale(2f64.sqrt())).collect();
                let (mut scratch, mut half_scratch) =
                    (vec![Complex64::ZERO; dim], vec![Complex64::ZERO; half]);
                let (mut h_psi, mut h_phi) = (psi.clone(), phi.clone());
                mixer.apply_evolution(0.613, &mut psi, &mut scratch);
                reduced.apply_evolution(0.613, &mut phi, &mut half_scratch);
                mixer.apply_hamiltonian(&mut h_psi, &mut scratch);
                reduced.apply_hamiltonian(&mut h_phi, &mut half_scratch);
                for (full, red) in [(&psi, &phi), (&h_psi, &h_phi)] {
                    for x in 0..half {
                        assert!((full[x] - full[dim - 1 - x]).abs() < 1e-12, "n={n}");
                        assert!((full[x].scale(2f64.sqrt()) - red[x]).abs() < 1e-12, "n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn eigenbasis_split_is_unsupported_for_grover_and_subspace() {
        assert!(!Mixer::grover_full(4).eigenbasis_supported());
        assert!(!Mixer::clique(5, 2).eigenbasis_supported());
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let mixer = Mixer::transverse_field(3);
        let mut state = vec![Complex64::ZERO; 4];
        let mut scratch = vec![Complex64::ZERO; 4];
        mixer.apply_evolution(0.1, &mut state, &mut scratch);
    }
}
