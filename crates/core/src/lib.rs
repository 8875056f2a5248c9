//! Exact statevector simulation of the Quantum Alternating Operator Ansatz (QAOA).
//!
//! This crate is the Rust counterpart of the JuliQAOA simulator core: it consumes a
//! pre-computed objective-value vector (from `juliqaoa-problems`) and a pre-computed
//! mixer (from `juliqaoa-mixers`) and evaluates the p-round QAOA state
//!
//! ```text
//! |β,γ⟩ = e^{-iβ_p H_M} e^{-iγ_p H_C} ⋯ e^{-iβ_1 H_M} e^{-iγ_1 H_C} |ψ₀⟩
//! ```
//!
//! entirely with element-wise phase kernels, Walsh–Hadamard transforms and subspace
//! mat-vecs — no circuits and no matrix exponentials at simulation time.
//!
//! The main types are:
//!
//! * [`Simulator`] — owns the objective values, mixer(s) and initial state; produces
//!   [`SimulationResult`]s and expectation values, re-using a caller-held [`Workspace`]
//!   so the hot loop never allocates.
//! * [`Angles`] — the `2p` QAOA parameters `{β_i, γ_i}` with the flat layout used by the
//!   angle-finding outer loop.
//! * [`gradient`] — the adjoint-mode analytic gradient of `⟨β,γ|C|β,γ⟩`, the stand-in
//!   for the paper's Enzyme automatic differentiation (same `O(1)`-evaluations cost).
//! * [`prefix::PrefixCache`] — per-round checkpoint statevectors for incremental
//!   re-evolution, kept by a [`Workspace`] built [`Workspace::with_prefix_reuse`]: an
//!   angle sweep that only changes the deepest rounds resumes from the shared prefix
//!   instead of replaying the whole circuit, bit-identically.
//! * [`Simulator::grover_classes`] (module [`grover`]) — the §2.4 fast path: Grover-mixer
//!   QAOA in class space, one amplitude per distinct objective value, through the same
//!   [`Simulator`]; this is what enables very large `n`.
//! * [`multiangle::MultiAngleSimulator`] — multiple mixers (each with its own angle) per
//!   layer, the "multi-angle QAOA" variation.

pub mod angles;
pub mod error;
pub mod gradient;
pub mod grover;
pub mod multiangle;
pub mod prefix;
pub mod result;
pub mod simulator;
pub mod workspace;

pub use angles::Angles;
pub use error::QaoaError;
pub use gradient::{adjoint_gradient, AdjointGradient};
pub use prefix::{PrefixCache, PrefixStats};
pub use result::SimulationResult;
pub use simulator::{InitialState, Simulator, ValueClasses};
pub use workspace::Workspace;
