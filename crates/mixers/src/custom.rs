//! Custom user-supplied mixers.
//!
//! "Any mixer that is not of the above formats … can be implemented as a unitary matrix,
//! and JuliQAOA will compute and store the eigendecomposition."  We reproduce that for
//! mixers given as real symmetric Hamiltonians on the feasible subspace (which covers
//! every Hamiltonian whose matrix elements are real in the computational basis — XY
//! models, hypercube mixers, weighted hop mixers, …).  Complex Hermitian input can be
//! handled by the caller through its real representation; see DESIGN.md.
//!
//! This dense path costs `O(dim³)` to build and `O(dim²)` memory and per apply.  The
//! Clique and Ring mixers do not use it (see [`crate::xy`]); it serves arbitrary
//! Hamiltonians and is the reference their tests compare against.

use juliqaoa_linalg::{symmetric_eigen, vector, Complex64, RealMatrix};

/// A mixer on a feasible subspace applied through its pre-computed eigendecomposition
/// (built by [`CustomMixer`]).
#[derive(Clone, Debug)]
pub struct SubspaceMixer {
    name: String,
    eigenvalues: Vec<f64>,
    /// Columns are eigenvectors; `H = V·diag(λ)·Vᵀ`.
    eigenvectors: RealMatrix,
}

impl SubspaceMixer {
    /// Builds the mixer by eigendecomposing a real symmetric Hamiltonian defined on the
    /// feasible subspace.  This is the "costly but done once" pre-computation.
    ///
    /// # Panics
    /// Panics if the matrix is not square/symmetric.
    pub fn from_hamiltonian(name: impl Into<String>, hamiltonian: &RealMatrix) -> Self {
        assert!(
            hamiltonian.is_symmetric(1e-9),
            "subspace mixer Hamiltonians must be real symmetric"
        );
        let eig = symmetric_eigen(hamiltonian);
        SubspaceMixer {
            name: name.into(),
            eigenvalues: eig.eigenvalues,
            eigenvectors: eig.eigenvectors,
        }
    }

    /// Mixer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dimension of the feasible subspace the mixer acts on.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// The eigenvalues of the mixer Hamiltonian.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Heap bytes of the eigendecomposition: `dim² + dim` floats.
    pub fn bytes(&self) -> usize {
        8 * (self.eigenvalues.capacity() + self.eigenvectors.nrows() * self.eigenvectors.ncols())
            + self.name.capacity()
    }

    /// Applies `e^{-iβ H_M} = V·e^{-iβD}·Vᵀ` to the state, using `scratch` as workspace.
    ///
    /// # Panics
    /// Panics if `state` or `scratch` do not match the mixer dimension.
    pub fn apply_evolution(&self, beta: f64, state: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim(), "state dimension mismatch");
        assert_eq!(scratch.len(), self.dim(), "scratch dimension mismatch");
        // scratch ← Vᵀ ψ
        self.eigenvectors.matvec_transpose_complex(state, scratch);
        // scratch ← e^{-iβD}·scratch
        vector::apply_phases(scratch, &self.eigenvalues, beta);
        // ψ ← V·scratch
        self.eigenvectors.matvec_complex(scratch, state);
    }

    /// Applies the Hamiltonian itself: `ψ ← V·diag(λ)·Vᵀ·ψ` (for gradient sweeps).
    pub fn apply_hamiltonian(&self, state: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim());
        assert_eq!(scratch.len(), self.dim());
        self.eigenvectors.matvec_transpose_complex(state, scratch);
        for (z, &lambda) in scratch.iter_mut().zip(self.eigenvalues.iter()) {
            *z = z.scale(lambda);
        }
        self.eigenvectors.matvec_complex(scratch, state);
    }
}

/// A user-defined mixer built from an arbitrary real symmetric Hamiltonian.
pub struct CustomMixer;

impl CustomMixer {
    /// Eigendecomposes the Hamiltonian and returns a ready-to-apply [`SubspaceMixer`].
    ///
    /// # Panics
    /// Panics if the matrix is not square or not symmetric to within `1e-9`.
    pub fn from_symmetric(name: impl Into<String>, hamiltonian: &RealMatrix) -> SubspaceMixer {
        SubspaceMixer::from_hamiltonian(name, hamiltonian)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn custom_symmetric_mixer_round_trips() {
        let h = RealMatrix::from_fn(4, 4, |i, j| if i == j { 0.0 } else { 1.0 });
        let mixer = CustomMixer::from_symmetric("complete-hop", &h);
        assert_eq!(mixer.dim(), 4);
        // Eigenvalues of J - I on 4 nodes: {-1, -1, -1, 3}.
        assert!((mixer.eigenvalues()[3] - 3.0).abs() < 1e-10);
        assert!((mixer.eigenvalues()[0] + 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic]
    fn asymmetric_hamiltonian_panics() {
        let mut h = RealMatrix::zeros(3, 3);
        h[(0, 1)] = 1.0; // no mirror entry
        let _ = CustomMixer::from_symmetric("bad", &h);
    }
}
