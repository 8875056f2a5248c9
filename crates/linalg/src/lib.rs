//! Dense linear-algebra kernels used by the `juliqaoa` QAOA simulator.
//!
//! This crate is the substrate that replaces Julia's `LinearAlgebra`/BLAS stack in the
//! original JuliQAOA package.  It provides exactly the operations the simulator needs,
//! written so the hot paths are allocation-free and data-parallel (via [`rayon`]):
//!
//! * [`Complex64`] — a `Copy` double-precision complex number with the arithmetic the
//!   statevector kernels need (no external `num-complex` dependency).
//! * [`vector`] — norms, inner products, axpy and phase-multiplication kernels over
//!   complex slices, with parallel variants for large statevectors.
//! * [`matrix::RealMatrix`] / [`matrix::ComplexMatrix`] — dense row-major matrices with
//!   (parallel) matrix–vector products against complex vectors; used to apply the
//!   eigendecomposition `V e^{-iβD} Vᵀ` of custom mixers.
//! * [`eigen`] — a self-contained symmetric eigensolver (Householder tridiagonalisation
//!   followed by the implicit-shift QL algorithm), used to pre-compute custom mixer
//!   diagonalisations and, through its allocation-free tridiagonal stage, the small
//!   Lanczos problems of the matrix-free Clique mixer.
//! * [`walsh`] — in-place fast Walsh–Hadamard transforms (`H^{⊗n}`), the diagonalising
//!   change of basis for every Pauli-X product mixer.
//! * [`PhaseClasses`] — the distinct values of a real diagonal plus a per-state class
//!   index, which the table-driven phase kernels in [`vector`] take; objective values
//!   and Pauli-X mixer spectra compress through it alike.
//!
//! All kernels choose between a serial and a rayon-parallel implementation based on the
//! problem size so that small-n simulations keep their "functionally zero overhead"
//! property from the paper while large-n simulations saturate the available cores.

pub mod complex;
pub mod eigen;
pub mod matrix;
pub mod parallel;
pub mod phase_classes;
pub mod vector;
pub mod walsh;

pub use complex::Complex64;
pub use eigen::{symmetric_eigen, tridiagonal_eigen, SymmetricEigen};
pub use matrix::{ComplexMatrix, RealMatrix};
pub use parallel::{
    enter_outer_parallelism, in_outer_parallelism, par_threshold, parallel_kernels_enabled,
    OuterParallelGuard, DEFAULT_PAR_THRESHOLD,
};
pub use phase_classes::PhaseClasses;
