//! Densest k-Subgraph.
//!
//! Choose exactly `k` vertices maximizing the number of induced edges.  This is a
//! Hamming-weight-constrained problem: the feasible states are the weight-`k` bitmasks
//! (Dicke subspace), and the paper pairs it with the Clique mixer in Figure 2.

use crate::cost::CostFunction;
use juliqaoa_graphs::Graph;
use serde::{Deserialize, Serialize};

/// The Densest k-Subgraph cost function: number (total weight) of edges with both
/// endpoints selected.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DensestKSubgraph {
    graph: Graph,
    k: usize,
}

impl DensestKSubgraph {
    /// Creates the cost function.  `k` is recorded so feasibility can be checked and the
    /// optimum brute-forced over the right subspace.
    ///
    /// # Panics
    /// Panics if `k` exceeds the number of vertices.
    pub fn new(graph: Graph, k: usize) -> Self {
        assert!(
            k <= graph.num_vertices(),
            "subset size exceeds vertex count"
        );
        DensestKSubgraph { graph, k }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The subset size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Brute-force optimum over the feasible (weight-k) states.
    pub fn optimal_value(&self) -> f64 {
        let n = self.graph.num_vertices();
        assert!(n <= 30, "brute-force optimum limited to n ≤ 30");
        juliqaoa_combinatorics::GosperIter::new(n, self.k)
            .map(|x| self.evaluate(x))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl CostFunction for DensestKSubgraph {
    fn num_qubits(&self) -> usize {
        self.graph.num_vertices()
    }

    fn evaluate(&self, state: u64) -> f64 {
        juliqaoa_graphs::analysis::edges_within_subset(&self.graph, state)
    }

    fn name(&self) -> &str {
        "densest_k_subgraph"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juliqaoa_graphs::{complete_graph, Graph};

    #[test]
    fn complete_graph_density() {
        let c = DensestKSubgraph::new(complete_graph(6), 3);
        // Any 3 vertices of K6 induce a triangle.
        assert_eq!(c.evaluate(0b000111), 3.0);
        assert_eq!(c.evaluate(0b101010), 3.0);
        assert_eq!(c.optimal_value(), 3.0);
    }

    #[test]
    fn planted_dense_subgraph_is_found() {
        // Graph: triangle {0,1,2} plus pendant edges 3-4.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let c = DensestKSubgraph::new(g, 3);
        assert_eq!(c.optimal_value(), 3.0);
        assert_eq!(c.evaluate(0b00111), 3.0);
        assert_eq!(c.evaluate(0b11001), 1.0);
    }

    #[test]
    fn feasibility_check() {
        let c = DensestKSubgraph::new(complete_graph(4), 2);
        assert_eq!(c.k(), 2);
    }

    #[test]
    fn evaluate_counts_only_induced_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let c = DensestKSubgraph::new(g, 2);
        assert_eq!(c.evaluate(0b0011), 1.0); // edge (0,1) inside
        assert_eq!(c.evaluate(0b1001), 0.0); // 0 and 3 not adjacent
        assert_eq!(c.name(), "densest_k_subgraph");
    }

    #[test]
    #[should_panic]
    fn k_too_large_panics() {
        let _ = DensestKSubgraph::new(complete_graph(3), 4);
    }
}
