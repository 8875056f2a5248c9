//! Pauli-X product mixers for unconstrained problems.
//!
//! A mixer of the form `H_M = Σ_t c_t · Π_{i ∈ S_t} X_i` is diagonalised by the uniform
//! Hadamard rotation (Eq. 2 of the paper): in the Hadamard basis each `X_i` becomes
//! `Z_i`, whose eigenvalue on basis state `z` is `(−1)^{z_i}`.  The pre-computation step
//! therefore evaluates the diagonal
//! `λ(z) = Σ_t c_t · (−1)^{popcount(z ∧ mask_t)}`
//! once for all `2ⁿ` states; evolution afterwards is `H^{⊗n} · e^{-iβ·diag(λ)} · H^{⊗n}`.

use juliqaoa_combinatorics::{bits, GosperIter};
use juliqaoa_linalg::{vector, Complex64, PhaseClasses};
use rayon::prelude::*;
use std::cell::RefCell;

thread_local! {
    /// Reusable per-thread phase table for the diagonal evolution, so the hot loop
    /// allocates nothing after the first round on each thread.
    static DIAG_TABLE: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

/// A single mixer term: a coefficient times a product of `X` operators over the qubits
/// selected by `mask`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct XTerm {
    /// Real coefficient of the term.
    pub coefficient: f64,
    /// Bitmask of the qubits the `X` string acts on.
    pub mask: u64,
}

/// A mixer Hamiltonian that is a sum of products of Pauli-X operators, stored together
/// with its pre-computed diagonal in the Hadamard basis.
#[derive(Clone, Debug)]
pub struct PauliXMixer {
    n: usize,
    terms: Vec<XTerm>,
    /// `λ(z)` for every computational basis state `z`, i.e. the mixer eigenvalues in the
    /// Hadamard basis.  Length `2ⁿ`.
    eigenvalues: Vec<f64>,
    /// Distinct-eigenvalue compression of the diagonal ([`PhaseClasses`], `None` when
    /// the spectrum has too many distinct values for the table path to pay).  The
    /// dense `eigenvalues` stay: the adjoint gradient's `H_M` application streams them.
    diag_classes: Option<PhaseClasses>,
}

impl PauliXMixer {
    /// Builds a mixer from explicit terms and pre-computes its Hadamard-basis diagonal.
    ///
    /// # Panics
    /// Panics if `n ≥ 32`, if a term's mask references qubits outside `0..n`, or if a
    /// mask is zero (an identity term).
    pub fn from_terms(n: usize, terms: Vec<XTerm>) -> Self {
        assert!(n < 32, "full-space Pauli-X mixers limited to n < 32 qubits");
        let full_mask = (1u64 << n) - 1;
        for t in &terms {
            assert_eq!(
                t.mask & !full_mask,
                0,
                "term mask references qubits outside 0..{n}"
            );
            assert_ne!(
                t.mask, 0,
                "identity terms only shift the spectrum; drop them"
            );
        }
        let eigenvalues = compute_eigenvalues(n, &terms);
        let diag_classes = PhaseClasses::build(&eigenvalues);
        PauliXMixer {
            n,
            terms,
            eigenvalues,
            diag_classes,
        }
    }

    /// The standard transverse-field mixer `Σ_i X_i` of Farhi et al.
    ///
    /// Matches `mixer_X([1], n)` from Listing 1.
    pub fn transverse_field(n: usize) -> Self {
        let terms = (0..n)
            .map(|i| XTerm {
                coefficient: 1.0,
                mask: 1u64 << i,
            })
            .collect();
        Self::from_terms(n, terms)
    }

    /// A mixer summing *all* products of `X` of each order in `orders` with unit
    /// coefficients — the generalisation of `mixer_X([1, 2, …], n)` used in the
    /// satisfiability-mixer studies the paper cites.
    ///
    /// For example `orders = [1]` is the transverse field and `orders = [2]` is
    /// `Σ_{i<j} X_i X_j`.
    pub fn uniform_products(n: usize, orders: &[usize]) -> Self {
        let mut terms = Vec::new();
        for &order in orders {
            assert!(order >= 1 && order <= n, "term order must lie in 1..=n");
            for mask in GosperIter::new(n, order) {
                terms.push(XTerm {
                    coefficient: 1.0,
                    mask,
                });
            }
        }
        Self::from_terms(n, terms)
    }

    /// Number of qubits.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Dimension of the space the mixer acts on (`2ⁿ`).
    pub fn dim(&self) -> usize {
        1 << self.n
    }

    /// The mixer terms.
    pub fn terms(&self) -> &[XTerm] {
        &self.terms
    }

    /// The pre-computed Hadamard-basis eigenvalues `λ(z)`.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Heap bytes of the terms, the `2ⁿ` diagonal and its compression.
    pub fn bytes(&self) -> usize {
        let classes = self.diag_classes.as_ref().map_or(0, PhaseClasses::bytes);
        std::mem::size_of::<XTerm>() * self.terms.capacity()
            + 8 * self.eigenvalues.capacity()
            + classes
    }

    /// Applies `e^{-iβ·diag(λ)}` in the Hadamard basis.
    ///
    /// Table-driven when the spectrum compresses (one `cis` per distinct eigenvalue,
    /// then a gather-multiply sweep); dense per-amplitude `cis` otherwise.  Both paths
    /// multiply each amplitude by the same `cis(-β·λ(z))` expression, so they are
    /// bit-identical.
    pub fn apply_diagonal_evolution(&self, beta: f64, state: &mut [Complex64]) {
        assert_eq!(
            state.len(),
            self.eigenvalues.len(),
            "state dimension mismatch"
        );
        match &self.diag_classes {
            Some(classes) => DIAG_TABLE.with(|cell| {
                let mut table = cell.borrow_mut();
                vector::build_phase_table(classes.distinct_values(), beta, &mut table);
                vector::apply_phases_indexed(state, classes.class_indices(), &table);
            }),
            None => vector::apply_phases(state, &self.eigenvalues, beta),
        }
    }
}

/// Evaluates the Hadamard-basis diagonal of a sum of X-strings, in parallel over states.
fn compute_eigenvalues(n: usize, terms: &[XTerm]) -> Vec<f64> {
    let size = 1usize << n;
    (0..size)
        .into_par_iter()
        .map(|z| {
            terms
                .iter()
                .map(|t| t.coefficient * bits::parity_sign(z as u64 & t.mask))
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transverse_field_eigenvalues_are_n_minus_2w() {
        // In the Hadamard basis Σ X_i ↦ Σ Z_i, whose eigenvalue on |z⟩ is n − 2·wt(z).
        let n = 6;
        let m = PauliXMixer::transverse_field(n);
        assert_eq!(m.terms().len(), n);
        for (z, &lambda) in m.eigenvalues().iter().enumerate() {
            let expected = n as f64 - 2.0 * (z.count_ones() as f64);
            assert_eq!(lambda, expected);
        }
    }

    #[test]
    fn dimension_and_metadata() {
        let m = PauliXMixer::transverse_field(4);
        assert_eq!(m.n(), 4);
        assert_eq!(m.dim(), 16);
        assert_eq!(m.eigenvalues().len(), 16);
    }

    #[test]
    fn two_body_uniform_product_eigenvalues() {
        // Σ_{i<j} X_i X_j has Hadamard-basis eigenvalue Σ_{i<j} (−1)^{z_i+z_j}
        //   = (s² − n)/2 with s = Σ_i (−1)^{z_i} = n − 2·wt(z).
        let n = 5;
        let m = PauliXMixer::uniform_products(n, &[2]);
        assert_eq!(m.terms().len(), 10);
        for (z, &lambda) in m.eigenvalues().iter().enumerate() {
            let s = n as f64 - 2.0 * (z.count_ones() as f64);
            let expected = (s * s - n as f64) / 2.0;
            assert!((lambda - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn mixed_orders_sum_spectra() {
        let n = 4;
        let m1 = PauliXMixer::uniform_products(n, &[1]);
        let m2 = PauliXMixer::uniform_products(n, &[2]);
        let m12 = PauliXMixer::uniform_products(n, &[1, 2]);
        for z in 0..m12.dim() {
            assert!(
                (m12.eigenvalues()[z] - m1.eigenvalues()[z] - m2.eigenvalues()[z]).abs() < 1e-12
            );
        }
    }

    #[test]
    fn coefficients_scale_eigenvalues() {
        let n = 3;
        let scaled = PauliXMixer::from_terms(
            n,
            (0..n)
                .map(|i| XTerm {
                    coefficient: 2.5,
                    mask: 1 << i,
                })
                .collect(),
        );
        let plain = PauliXMixer::transverse_field(n);
        for z in 0..scaled.dim() {
            assert!((scaled.eigenvalues()[z] - 2.5 * plain.eigenvalues()[z]).abs() < 1e-12);
        }
    }

    #[test]
    fn single_string_mixer() {
        // H = X_0 X_1 X_2 on 3 qubits: eigenvalue = parity of z.
        let m = PauliXMixer::from_terms(
            3,
            vec![XTerm {
                coefficient: 1.0,
                mask: 0b111,
            }],
        );
        for z in 0..8u64 {
            let expected = if z.count_ones() % 2 == 0 { 1.0 } else { -1.0 };
            assert_eq!(m.eigenvalues()[z as usize], expected);
        }
    }

    #[test]
    fn transverse_field_diagonal_compresses_to_n_plus_one_values() {
        let m = PauliXMixer::transverse_field(8);
        assert_eq!(m.diag_classes.map(|c| c.num_classes()), Some(9));
    }

    #[test]
    fn diagonal_table_path_is_bit_identical_to_dense() {
        let n = 6;
        let m = PauliXMixer::transverse_field(n);
        assert!(m.diag_classes.is_some());
        let beta = 0.7321;
        let mut table_state: Vec<Complex64> = (0..1 << n)
            .map(|i| Complex64::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let mut dense_state = table_state.clone();
        m.apply_diagonal_evolution(beta, &mut table_state);
        vector::apply_phases(&mut dense_state, m.eigenvalues(), beta);
        for (a, b) in table_state.iter().zip(dense_state.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    #[should_panic]
    fn mask_outside_range_panics() {
        let _ = PauliXMixer::from_terms(
            3,
            vec![XTerm {
                coefficient: 1.0,
                mask: 0b1000,
            }],
        );
    }

    #[test]
    #[should_panic]
    fn identity_term_panics() {
        let _ = PauliXMixer::from_terms(
            3,
            vec![XTerm {
                coefficient: 1.0,
                mask: 0,
            }],
        );
    }
}
