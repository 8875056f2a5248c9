//! Mixer Hamiltonians and their pre-computed diagonalisations.
//!
//! The second box of the paper's Figure 1: every mixer is reduced *once* to a form in
//! which its time evolution `e^{-iβ H_M}` costs no matrix exponentials at simulation
//! time — and, except for custom mixers, no dense matrices either.
//!
//! * [`pauli_x::PauliXMixer`] — any sum of products of Pauli-X operators (transverse
//!   field, higher-order X strings).  Diagonalised analytically by `H^{⊗n}` (Eq. 2), so
//!   evolution is two Walsh–Hadamard transforms plus a phase multiplication.
//! * [`grover::GroverMixer`] — `|s⟩⟨s|` over the feasible set, or over its value
//!   classes in the weighted form.  Evolution is a rank-1 update costing one pass over
//!   the state.
//! * [`xy::XYMixer`] — Clique and Ring XY mixers restricted to the weight-k Dicke
//!   subspace, applied matrix-free.  JuliQAOA eigendecomposes these dense
//!   `C(n,k)×C(n,k)` matrices (`O(dim³)`, the paper's limit at `n = 18`); here the
//!   Clique's closed-form spectrum makes a short Lanczos run exact and the Ring, a
//!   free-fermion model, is applied exactly as adjacent Givens rotations, so the only
//!   pre-computation is an `O(dim·n)` hop table.
//! * [`custom::CustomMixer`] — any user-supplied real-symmetric Hamiltonian on the
//!   feasible subspace, pre-computed as a dense eigendecomposition `V D Vᵀ` and applied
//!   as a [`custom::SubspaceMixer`].
//! * [`mixer::Mixer`] — the enum the simulator consumes, with uniform `apply_evolution`
//!   / `apply_hamiltonian` entry points.

pub mod custom;
pub mod grover;
pub mod mixer;
pub mod pauli_x;
pub mod xy;

pub use custom::{CustomMixer, SubspaceMixer};
pub use grover::GroverMixer;
pub use mixer::Mixer;
pub use pauli_x::PauliXMixer;
pub use xy::{build_xy_hamiltonian, XYCoupling, XYMixer};
