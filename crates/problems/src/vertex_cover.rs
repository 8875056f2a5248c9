//! Max k-Vertex Cover.
//!
//! Choose exactly `k` vertices maximizing the number of edges covered (touched by at
//! least one chosen vertex).  Like Densest-k-Subgraph this is Hamming-weight constrained;
//! the paper pairs it with the Ring mixer in Figure 2.

use crate::cost::CostFunction;
use juliqaoa_graphs::Graph;
use serde::{Deserialize, Serialize};

/// The Max k-Vertex-Cover cost function: total weight of edges covered by the selected
/// vertex subset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MaxKVertexCover {
    graph: Graph,
    k: usize,
}

impl MaxKVertexCover {
    /// Creates the cost function.
    ///
    /// # Panics
    /// Panics if `k` exceeds the number of vertices.
    pub fn new(graph: Graph, k: usize) -> Self {
        assert!(
            k <= graph.num_vertices(),
            "subset size exceeds vertex count"
        );
        MaxKVertexCover { graph, k }
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

impl CostFunction for MaxKVertexCover {
    fn num_qubits(&self) -> usize {
        self.graph.num_vertices()
    }

    fn evaluate(&self, state: u64) -> f64 {
        juliqaoa_graphs::analysis::edges_covered_by_subset(&self.graph, state)
    }

    fn name(&self) -> &str {
        "max_k_vertex_cover"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juliqaoa_graphs::{star_graph, Graph};

    #[test]
    fn star_center_covers_everything() {
        let c = MaxKVertexCover::new(star_graph(6), 1);
        assert_eq!(c.evaluate(0b000001), 5.0); // the hub
        assert_eq!(c.evaluate(0b000010), 1.0); // a leaf
        assert_eq!(c.optimal_value(), 5.0);
    }

    #[test]
    fn square_two_cover() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let c = MaxKVertexCover::new(g, 2);
        // Opposite corners cover all four edges.
        assert_eq!(c.evaluate(0b0101), 4.0);
        // Adjacent corners cover three.
        assert_eq!(c.evaluate(0b0011), 3.0);
        assert_eq!(c.optimal_value(), 4.0);
    }

    #[test]
    fn feasibility_and_metadata() {
        let c = MaxKVertexCover::new(star_graph(5), 2);
        assert_eq!(c.k(), 2);
        assert_eq!(c.num_qubits(), 5);
        assert_eq!(c.name(), "max_k_vertex_cover");
    }

    #[test]
    fn covering_nothing_scores_zero() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let c = MaxKVertexCover::new(g, 0);
        assert_eq!(c.evaluate(0), 0.0);
        assert_eq!(c.optimal_value(), 0.0);
    }

    #[test]
    #[should_panic]
    fn k_too_large_panics() {
        let _ = MaxKVertexCover::new(star_graph(3), 4);
    }
}
