//! Classical angle-finding for QAOA (the outer loop of Figure 1).
//!
//! The quantum simulation in `juliqaoa-core` evaluates `⟨β,γ|C|β,γ⟩` (and, through the
//! adjoint method, its gradient) at a point; everything that decides *where* to evaluate
//! lives here:
//!
//! * [`objective`] — the minimisation interface and the [`objective::QaoaObjective`]
//!   adapter that exposes a [`juliqaoa_core::Simulator`] to the optimizers (with either
//!   adjoint or finite-difference gradients — the comparison of Figure 5).
//! * [`bfgs`] / [`linesearch`] — the BFGS quasi-Newton local minimizer used by every
//!   search strategy.
//! * [`basinhopping`] — the global strategy of Wales & Doye the paper adopts
//!   for its iterative angle finding.
//! * [`random_restart`] — the "random local minima exploration" baseline of Lotshaw et
//!   al. (Listing 3's `find_angles_rand`), with the candidates fanned out across cores.
//! * [`gridsearch`] — brute-force grid evaluation at small `p`, scanned in parallel
//!   index blocks.
//! * [`sampled`] — shot-based objectives ([`sampled::SampledObjective`]): optimize a
//!   CVaR-α / Gibbs / sample-mean estimate over measured bitstrings instead of the
//!   exact expectation, with per-point frozen shot noise so every driver stays
//!   deterministic.
//!
//! The parallelism in this crate lives in the *outer* candidate loops: each worker
//! thread owns a private objective (and simulation workspace) built by a caller
//! `make_objective` factory, and holds a `juliqaoa_linalg::parallel` guard so the tiny
//! inner statevector kernels stay serial instead of fighting the outer fan-out for
//! cores.  Candidate orders and tie-breaks are fixed, so same-seed runs return
//! identical results whether the candidates execute serially or in parallel.
//! * [`median`] — the "median angles" heuristic across instances.
//! * [`iterative`] — the paper's `find_angles`: extrapolate good `(p−1)`-round angles to
//!   seed round `p`, polish with basin-hopping, persist every step ([`persistence`]) and
//!   resume after interruption.

pub mod basinhopping;
pub mod bfgs;
pub mod control;
pub mod gridsearch;
pub mod iterative;
pub mod linesearch;
pub mod median;
pub mod objective;
pub mod persistence;
pub mod random_restart;
pub mod sampled;

pub use basinhopping::{basinhopping, basinhopping_with_control, BasinHoppingOptions};
pub use bfgs::{bfgs, BfgsOptions};
pub use control::RunControl;
pub use gridsearch::{grid_search, grid_search_ordered, qaoa_axis_order};
pub use iterative::{find_angles, IterativeOptions, IterativeResult};
pub use median::median_angles;
pub use objective::{
    FnObjective, GradientMethod, Objective, OptimizeResult, PrefixCacheHome, QaoaObjective,
};
pub use random_restart::{random_restart, random_restart_with_control, RandomRestartOptions};
pub use sampled::{SampledObjective, ShotDraw};
