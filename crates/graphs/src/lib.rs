//! A minimal graph library for QAOA problem instances.
//!
//! The paper's experiments are driven by random graphs: MaxCut, Densest-k-Subgraph and
//! Max-k-Vertex-Cover instances all live on Erdős–Rényi `G(n, 0.5)` graphs, and the
//! MaxCut literature it compares against also uses regular graphs.  This crate is the
//! substrate replacing `Graphs.jl`: an adjacency-list [`graph::Graph`] with optional edge
//! weights, seeded random generators, and the handful of analyses the cost functions and
//! benchmark harness need.

pub mod analysis;
pub mod generators;
pub mod graph;

pub use generators::{complete_graph, cycle_graph, erdos_renyi, star_graph};
pub use graph::{Edge, Graph};
