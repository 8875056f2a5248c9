//! Combinatorial optimization cost functions for QAOA.
//!
//! JuliQAOA's interface for problems is deliberately minimal: a cost function takes some
//! structure (a graph, a set of clauses, …) plus a computational basis state and returns
//! a scalar objective value; the simulator only ever sees the vector of objective values
//! pre-computed over the feasible states.  This crate supplies that interface
//! ([`cost::CostFunction`]), the problems used throughout the paper's evaluation
//! (MaxCut, k-SAT, Densest-k-Subgraph, Max-k-Vertex-Cover) plus several extras, and the
//! rayon-parallel pre-computation routines ([`precompute`]) that produce objective-value
//! vectors and the distinct-value/degeneracy tables used by the Grover fast path.

pub mod cost;
pub mod densest_subgraph;
pub mod independent_set;
pub mod instance_id;
pub mod maxcut;
pub mod paper_instances;
pub mod partition_problem;
pub mod precompute;
pub mod sat;
pub mod synthetic;
pub mod vertex_cover;

pub use cost::{CostFunction, FnCost};
pub use densest_subgraph::DensestKSubgraph;
pub use independent_set::MaxIndependentSet;
pub use instance_id::{Fnv64, InstanceId};
/// The phase-class compression simulators build over [`precompute_full`] /
/// [`precompute_dicke`] outputs; it lives beside the kernels that consume it.
pub use juliqaoa_linalg::PhaseClasses;
pub use maxcut::MaxCut;
pub use paper_instances::{paper_maxcut_instance, paper_sat_instance, paper_sat_instance_with};
pub use partition_problem::NumberPartitioning;
pub use precompute::{
    degeneracies_dicke, degeneracies_full, precompute_dicke, precompute_full, DegeneracyTable,
};
pub use sat::{KSat, Literal};
pub use synthetic::{HammingRamp, MarkedStates, ThresholdCost};
pub use vertex_cover::MaxKVertexCover;
