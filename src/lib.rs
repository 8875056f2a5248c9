//! # juliqaoa-rs
//!
//! A Rust reproduction of **JuliQAOA: Fast, Flexible QAOA Simulation** (Golden,
//! Bärtschi, O'Malley, Pelofske, Eidenbenz — SC-W 2023).
//!
//! JuliQAOA is an exact statevector simulator purpose-built for the Quantum Alternating
//! Operator Ansatz: instead of composing gate-level circuits and handing them to a
//! general simulator, it pre-computes the cost function over the feasible states and a
//! diagonalised form of the mixer Hamiltonian, then evaluates every round of the ansatz
//! with element-wise phase kernels, Walsh–Hadamard transforms and subspace mat-vecs.
//! This crate is the facade over the workspace that implements that design:
//!
//! | crate | contents |
//! |---|---|
//! | [`linalg`] | complex arithmetic, Walsh–Hadamard transforms, symmetric eigensolver |
//! | [`combinatorics`] | Gosper's hack, combinatorial ranking, Dicke subspaces |
//! | [`graphs`] | Erdős–Rényi / regular / structured graph generators |
//! | [`problems`] | MaxCut, k-SAT, Densest-k-Subgraph, Max-k-Vertex-Cover, … + pre-computation |
//! | [`mixers`] | Pauli-X product, Grover, Clique, Ring and custom mixers |
//! | [`core`] | the QAOA simulator, adjoint gradients, the Grover fast path |
//! | [`sampling`] | shot-based measurement: alias sampling, CVaR/Gibbs estimators |
//! | [`optim`] | BFGS, basin hopping, iterative extrapolated angle finding |
//! | [`circuit`] | gate-level and dense-operator baseline simulators |
//!
//! ## Quickstart (Listing 1 of the paper)
//!
//! ```
//! use juliqaoa::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // Define the problem: MaxCut on a random G(6, 0.5) graph.
//! let n = 6;
//! let graph = erdos_renyi(n, 0.5, &mut rng);
//! // Pre-compute the objective values across all basis states.
//! let obj_vals = precompute_full(&MaxCut::new(graph));
//! // Generate the transverse-field mixer Σ X_i.
//! let mixer = Mixer::transverse_field(n);
//! // Three rounds with random angles.
//! let p = 3;
//! let angles = Angles::random(p, &mut rng);
//! let sim = Simulator::new(obj_vals, mixer).unwrap();
//! let res = sim.simulate(&angles).unwrap();
//! let exp_value = res.expectation_value();
//! assert!(exp_value > 0.0);
//! ```

pub use juliqaoa_circuit as circuit;
pub use juliqaoa_combinatorics as combinatorics;
pub use juliqaoa_core as core;
pub use juliqaoa_graphs as graphs;
pub use juliqaoa_linalg as linalg;
pub use juliqaoa_mixers as mixers;
pub use juliqaoa_optim as optim;
pub use juliqaoa_problems as problems;
pub use juliqaoa_sampling as sampling;

pub mod listing;

/// The most commonly used types and functions, re-exported for `use juliqaoa::prelude::*`.
pub mod prelude {
    pub use crate::listing::{dicke_states, get_exp_value, maxcut, simulate, states};
    pub use juliqaoa_combinatorics::DickeSubspace;
    pub use juliqaoa_core::{
        adjoint_gradient, Angles, InitialState, QaoaError, SimulationResult, Simulator, Workspace,
    };
    pub use juliqaoa_graphs::{complete_graph, cycle_graph, erdos_renyi, Graph};
    pub use juliqaoa_linalg::Complex64;
    pub use juliqaoa_mixers::{Mixer, PauliXMixer};
    pub use juliqaoa_optim::{
        basinhopping, bfgs, find_angles, median_angles, random_restart, BasinHoppingOptions,
        BfgsOptions, GradientMethod, IterativeOptions, QaoaObjective, RandomRestartOptions,
    };
    pub use juliqaoa_problems::{
        precompute_dicke, precompute_full, CostFunction, DensestKSubgraph, KSat, MaxCut,
        MaxKVertexCover,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile_and_link() {
        // Touch one symbol from each re-exported crate so a broken re-export fails here.
        assert_eq!(crate::combinatorics::binomial(5, 2), 10);
        assert_eq!(crate::graphs::complete_graph(4).num_edges(), 6);
        assert_eq!(crate::mixers::Mixer::transverse_field(3).dim(), 8);
        assert_eq!(crate::linalg::Complex64::ONE.re, 1.0);
    }
}
