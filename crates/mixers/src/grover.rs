//! The Grover mixer `H_G = |s⟩⟨s|`.
//!
//! `|s⟩` is the uniform superposition over the feasible set (all `2ⁿ` states for
//! unconstrained problems, the Dicke state for Hamming-weight-k problems).  Because
//! `H_G` is a rank-1 projector, its evolution has the closed form
//!
//! `e^{-iβ H_G} = 1 + (e^{-iβ} − 1)·|s⟩⟨s|`,
//!
//! so one round costs a single reduction (`⟨s|ψ⟩`) plus a single axpy — no transforms,
//! no matrices.  The mixer also conserves Hamming weight and gives fair sampling: all
//! feasible states with the same objective value keep equal amplitudes.
//!
//! Fair sampling is what the *weighted* form serves.  In class space a state holds one
//! entry `φ_c = √d_c·a_c` per distinct objective value `c` (shared by `d_c` of the `N`
//! feasible states), and the uniform superposition becomes the real unit vector
//! `s_c = √(d_c/N)`.  [`GroverMixer::weighted`] takes that reference vector; the
//! rank-1 formulas are the same with `s` in place of the flat `1/√dim`.

use juliqaoa_linalg::{vector, Complex64};

/// The Grover mixer over a feasible set of `dim` states, or over `dim` value classes
/// when built with a per-state reference vector.
#[derive(Clone, Debug, PartialEq)]
pub struct GroverMixer {
    dim: usize,
    /// The reference state `|s⟩` entry by entry; `None` is the flat `1/√dim`.
    reference: Option<Vec<f64>>,
}

impl GroverMixer {
    /// Creates the Grover mixer over a feasible set with `dim` states.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "Grover mixer needs a non-empty feasible set");
        GroverMixer {
            dim,
            reference: None,
        }
    }

    /// Grover mixer over the full `2ⁿ` computational basis.
    pub fn full_space(n: usize) -> Self {
        assert!(n < 64);
        Self::new(1 << n)
    }

    /// Grover mixer over the weight-`k` Dicke subspace of `n` qubits.
    pub fn dicke(n: usize, k: usize) -> Self {
        GroverMixer {
            dim: juliqaoa_combinatorics::binomial(n, k) as usize,
            reference: None,
        }
    }

    /// The Grover mixer `|s⟩⟨s|` toward an arbitrary real unit reference state — in
    /// class space, `s_c = √(d_c/N)` (see the module docs).
    ///
    /// # Panics
    /// Panics if `reference` is empty.
    pub fn weighted(reference: Vec<f64>) -> Self {
        assert!(
            !reference.is_empty(),
            "Grover mixer needs a non-empty feasible set"
        );
        GroverMixer {
            dim: reference.len(),
            reference: Some(reference),
        }
    }

    /// Dimension of the feasible set (or the number of value classes).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The reference state of a [`GroverMixer::weighted`] mixer; `None` for the
    /// uniform mixer.
    pub fn reference(&self) -> Option<&[f64]> {
        self.reference.as_deref()
    }

    /// Heap bytes the mixer holds: the reference vector, if any.
    pub fn bytes(&self) -> usize {
        self.reference
            .as_ref()
            .map_or(0, |s| s.len() * std::mem::size_of::<f64>())
    }

    /// Applies `e^{-iβ H_G}` to the state in place.
    ///
    /// # Panics
    /// Panics if the state length does not match the mixer dimension.
    pub fn apply_evolution(&self, beta: f64, state: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim, "state dimension mismatch");
        match &self.reference {
            // ψ += (e^{-iβ} − 1)·⟨s|ψ⟩·|s⟩.
            Some(s) => {
                let factor = (Complex64::cis(-beta) - Complex64::ONE) * overlap(s, state);
                for (z, &sc) in state.iter_mut().zip(s) {
                    *z += factor.scale(sc);
                }
            }
            None => self.apply_evolution_with_sum(beta, state, vector::amplitude_sum(state)),
        }
    }

    /// Applies `e^{-iβ H_G}` given the already-computed amplitude sum `Σ_x ψ_x`.
    ///
    /// This is the fusion entry point: when the phase separator computes the sum
    /// during its own sweep (`apply_phases_indexed_sum`), a full GM-QAOA round costs
    /// two passes over the state instead of three.
    ///
    /// # Panics
    /// Panics if the state length does not match the mixer dimension, or if the mixer
    /// is [`GroverMixer::weighted`]: a plain amplitude sum is not its overlap.
    pub fn apply_evolution_with_sum(
        &self,
        beta: f64,
        state: &mut [Complex64],
        amplitude_sum: Complex64,
    ) {
        assert_eq!(state.len(), self.dim, "state dimension mismatch");
        assert!(
            self.reference.is_none(),
            "the fused amplitude-sum entry serves only the uniform Grover mixer"
        );
        let inv_sqrt = 1.0 / (self.dim as f64).sqrt();
        // ⟨s|ψ⟩ = (Σ_x ψ_x)/√dim
        let overlap = amplitude_sum.scale(inv_sqrt);
        // ψ += (e^{-iβ} − 1)·⟨s|ψ⟩·|s⟩, and |s⟩ has amplitude 1/√dim everywhere.
        let factor = (Complex64::cis(-beta) - Complex64::ONE) * overlap.scale(inv_sqrt);
        if juliqaoa_linalg::parallel_kernels_enabled(state.len()) {
            use rayon::prelude::*;
            state.par_iter_mut().for_each(|z| *z += factor);
        } else {
            state.iter_mut().for_each(|z| *z += factor);
        }
    }

    /// Applies the Hamiltonian `H_G` itself (not its exponential): `ψ ← |s⟩⟨s|ψ⟩`.
    ///
    /// Needed by the adjoint-gradient sweep.
    pub fn apply_hamiltonian(&self, state: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim, "state dimension mismatch");
        match &self.reference {
            Some(s) => {
                let o = overlap(s, state);
                for (z, &sc) in state.iter_mut().zip(s) {
                    *z = o.scale(sc);
                }
            }
            None => {
                let inv_dim = 1.0 / self.dim as f64;
                // (|s⟩⟨s|ψ)_x = (Σ_y ψ_y)/dim for every x.
                let value = vector::amplitude_sum(state).scale(inv_dim);
                state.iter_mut().for_each(|z| *z = value);
            }
        }
    }
}

/// `⟨s|ψ⟩ = Σ_c s_c·ψ_c` for a real reference `s`, summed in index order.
fn overlap(s: &[f64], state: &[Complex64]) -> Complex64 {
    state
        .iter()
        .zip(s)
        .fold(Complex64::ZERO, |acc, (z, &sc)| acc + z.scale(sc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use juliqaoa_linalg::vector::{fill_uniform, norm};

    fn uniform(dim: usize) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; dim];
        fill_uniform(&mut v);
        v
    }

    #[test]
    fn constructors() {
        assert_eq!(GroverMixer::full_space(5).dim(), 32);
        assert_eq!(GroverMixer::dicke(6, 3).dim(), 20);
        assert_eq!(GroverMixer::new(7).dim(), 7);
    }

    #[test]
    fn uniform_state_acquires_global_phase_only() {
        // |ψ₀⟩ is an eigenvector of H_G with eigenvalue 1, so evolution multiplies it by
        // e^{-iβ}.
        let dim = 16;
        let mixer = GroverMixer::new(dim);
        let mut state = uniform(dim);
        let beta = 0.9;
        mixer.apply_evolution(beta, &mut state);
        let expected = Complex64::cis(-beta).scale(1.0 / (dim as f64).sqrt());
        for z in &state {
            assert!((*z - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn orthogonal_state_is_untouched() {
        // A state orthogonal to |ψ₀⟩ (amplitudes summing to zero) is in the kernel of H_G.
        let dim = 8;
        let mixer = GroverMixer::new(dim);
        let mut state = vec![Complex64::ZERO; dim];
        state[0] = Complex64::new(std::f64::consts::FRAC_1_SQRT_2, 0.0);
        state[1] = Complex64::new(-std::f64::consts::FRAC_1_SQRT_2, 0.0);
        let orig = state.clone();
        mixer.apply_evolution(1.3, &mut state);
        for (a, b) in state.iter().zip(orig.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn evolution_is_unitary() {
        let dim = 12;
        let mixer = GroverMixer::new(dim);
        let mut state: Vec<Complex64> = (0..dim)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        vector::normalize(&mut state);
        mixer.apply_evolution(2.1, &mut state);
        assert!((norm(&state) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_angle_is_identity() {
        let dim = 10;
        let mixer = GroverMixer::new(dim);
        let mut state: Vec<Complex64> = (0..dim)
            .map(|i| Complex64::new(i as f64, -0.5 * i as f64))
            .collect();
        let orig = state.clone();
        mixer.apply_evolution(0.0, &mut state);
        for (a, b) in state.iter().zip(orig.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn hamiltonian_is_projection_onto_uniform() {
        let dim = 6;
        let mixer = GroverMixer::new(dim);
        let mut state: Vec<Complex64> = (0..dim)
            .map(|i| Complex64::new(1.0 + i as f64, i as f64))
            .collect();
        let sum = vector::amplitude_sum(&state);
        mixer.apply_hamiltonian(&mut state);
        for z in &state {
            assert!((*z - sum.scale(1.0 / dim as f64)).abs() < 1e-12);
        }
        // Applying the projector twice is the same as once.
        let after_one = state.clone();
        mixer.apply_hamiltonian(&mut state);
        for (a, b) in state.iter().zip(after_one.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn evolution_with_precomputed_sum_matches_plain_evolution() {
        let dim = 9;
        let mixer = GroverMixer::new(dim);
        let state: Vec<Complex64> = (0..dim)
            .map(|i| Complex64::new(0.2 * i as f64 - 0.7, (i as f64 * 0.9).sin()))
            .collect();
        let beta = 1.31;
        let mut plain = state.clone();
        mixer.apply_evolution(beta, &mut plain);
        let mut fused = state.clone();
        let sum = vector::amplitude_sum(&state);
        mixer.apply_evolution_with_sum(beta, &mut fused, sum);
        for (a, b) in plain.iter().zip(fused.iter()) {
            assert!((*a - *b).abs() < 1e-15);
        }
    }

    #[test]
    fn evolution_matches_projector_formula() {
        // Compare against explicit ψ + (e^{-iβ}−1)·ψ₀·⟨ψ₀|ψ⟩ computed by hand.
        let dim = 5;
        let mixer = GroverMixer::new(dim);
        let state: Vec<Complex64> = (0..dim)
            .map(|i| Complex64::new(0.3 * i as f64 - 0.5, 0.1 * i as f64))
            .collect();
        let beta = 0.77;
        let inv_sqrt = 1.0 / (dim as f64).sqrt();
        let overlap = state.iter().copied().sum::<Complex64>().scale(inv_sqrt);
        let expected: Vec<Complex64> = state
            .iter()
            .map(|&z| z + (Complex64::cis(-beta) - Complex64::ONE) * overlap.scale(inv_sqrt))
            .collect();
        let mut got = state;
        mixer.apply_evolution(beta, &mut got);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    /// Class space of a 3-class table with degeneracies (1, 4, 3), N = 8.
    fn class_reference() -> Vec<f64> {
        [1.0f64, 4.0, 3.0]
            .iter()
            .map(|d| (d / 8.0).sqrt())
            .collect()
    }

    #[test]
    fn weighted_mixer_with_a_flat_reference_matches_the_uniform_mixer() {
        let dim = 6;
        let flat = GroverMixer::weighted(vec![1.0 / (dim as f64).sqrt(); dim]);
        let uniform = GroverMixer::new(dim);
        assert_eq!(flat.dim(), dim);
        assert!(uniform.reference().is_none());
        let state: Vec<Complex64> = (0..dim)
            .map(|i| Complex64::new(0.4 * i as f64 - 1.0, (i as f64 * 0.3).cos()))
            .collect();
        let (mut a, mut b) = (state.clone(), state.clone());
        flat.apply_evolution(0.91, &mut a);
        uniform.apply_evolution(0.91, &mut b);
        assert!(vector::max_abs_diff(&a, &b) < 1e-14);
        let (mut a, mut b) = (state.clone(), state);
        flat.apply_hamiltonian(&mut a);
        uniform.apply_hamiltonian(&mut b);
        assert!(vector::max_abs_diff(&a, &b) < 1e-14);
    }

    #[test]
    fn weighted_evolution_is_unitary_and_keeps_the_reference_an_eigenvector() {
        let s = class_reference();
        let mixer = GroverMixer::weighted(s.clone());
        let mut state: Vec<Complex64> = s.iter().map(|&x| Complex64::from_real(x)).collect();
        mixer.apply_evolution(0.7, &mut state);
        for (z, &sc) in state.iter().zip(&s) {
            assert!((*z - Complex64::cis(-0.7).scale(sc)).abs() < 1e-15);
        }
        let mut state: Vec<Complex64> = (0..3)
            .map(|i| Complex64::new((i as f64).sin() + 0.2, 0.5 - i as f64))
            .collect();
        vector::normalize(&mut state);
        mixer.apply_evolution(2.3, &mut state);
        assert!((norm(&state) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn weighted_hamiltonian_is_the_projector_onto_the_reference() {
        let s = class_reference();
        let mixer = GroverMixer::weighted(s.clone());
        let state = vec![
            Complex64::new(1.0, 0.5),
            Complex64::new(-0.3, 0.2),
            Complex64::new(0.0, -1.0),
        ];
        let o = state
            .iter()
            .zip(&s)
            .fold(Complex64::ZERO, |acc, (z, &sc)| acc + z.scale(sc));
        let mut projected = state;
        mixer.apply_hamiltonian(&mut projected);
        for (z, &sc) in projected.iter().zip(&s) {
            assert!((*z - o.scale(sc)).abs() < 1e-15);
        }
        assert_eq!(mixer.bytes(), 3 * 8);
        assert_eq!(GroverMixer::new(3).bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "uniform Grover mixer")]
    fn the_fused_entry_rejects_a_weighted_mixer() {
        let mixer = GroverMixer::weighted(class_reference());
        let mut state = vec![Complex64::ONE; 3];
        mixer.apply_evolution_with_sum(0.1, &mut state, Complex64::ONE);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let mixer = GroverMixer::new(4);
        let mut state = vec![Complex64::ZERO; 5];
        mixer.apply_evolution(0.1, &mut state);
    }
}
