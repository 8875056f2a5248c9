//! The MaxCut problem.
//!
//! `C(x)` is the total weight of edges whose endpoints receive different labels in the
//! bipartition encoded by `x`.  MaxCut is the canonical unconstrained QAOA benchmark and
//! drives Figures 2, 3, 4 and 5 of the paper.

use crate::cost::CostFunction;
use juliqaoa_graphs::Graph;
use serde::{Deserialize, Serialize};

/// MaxCut on a (possibly weighted) graph.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MaxCut {
    graph: Graph,
}

impl MaxCut {
    /// Creates the MaxCut cost function for a graph.
    pub fn new(graph: Graph) -> Self {
        MaxCut { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The best possible cut value, found by brute force.  Intended for the modest
    /// instance sizes used when reporting approximation ratios.
    pub fn optimal_value(&self) -> f64 {
        let n = self.graph.num_vertices();
        assert!(n <= 30, "brute-force optimum limited to n ≤ 30");
        // The cut is symmetric under complementing the mask, so scanning half the space
        // would suffice; the full scan keeps the code obvious.
        (0..(1u64 << n))
            .map(|x| self.evaluate(x))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl CostFunction for MaxCut {
    fn num_qubits(&self) -> usize {
        self.graph.num_vertices()
    }

    fn evaluate(&self, state: u64) -> f64 {
        juliqaoa_graphs::analysis::cut_weight(&self.graph, state)
    }

    fn name(&self) -> &str {
        "maxcut"
    }

    /// A cut and its complement cut the same edges, and `cut_weight` sums them in
    /// edge order either way, so the two values are the same bits.
    fn flip_symmetric(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juliqaoa_graphs::{complete_graph, cycle_graph, Graph};

    #[test]
    fn triangle_cut_values() {
        let c = MaxCut::new(complete_graph(3));
        // No triangle bipartition can cut all 3 edges.
        assert_eq!(c.evaluate(0b000), 0.0);
        assert_eq!(c.evaluate(0b001), 2.0);
        assert_eq!(c.evaluate(0b011), 2.0);
        assert_eq!(c.evaluate(0b111), 0.0);
        assert_eq!(c.optimal_value(), 2.0);
    }

    #[test]
    fn even_cycle_is_bipartite() {
        let c = MaxCut::new(cycle_graph(6));
        // Alternating assignment cuts every edge.
        assert_eq!(c.evaluate(0b010101), 6.0);
        assert_eq!(c.optimal_value(), 6.0);
    }

    #[test]
    fn odd_cycle_optimum_misses_one_edge() {
        let c = MaxCut::new(cycle_graph(5));
        assert_eq!(c.optimal_value(), 4.0);
    }

    #[test]
    fn complement_symmetry() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let c = MaxCut::new(g);
        let full_mask = (1u64 << 5) - 1;
        for x in 0..(1u64 << 5) {
            assert_eq!(c.evaluate(x), c.evaluate(!x & full_mask));
        }
    }

    #[test]
    fn weighted_cut_values() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 1.5), (1, 2, 2.5)]);
        let c = MaxCut::new(g);
        assert!((c.evaluate(0b010) - 4.0).abs() < 1e-12);
        assert!((c.evaluate(0b001) - 1.5).abs() < 1e-12);
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.name(), "maxcut");
    }

    #[test]
    fn bits_interface_matches_mask_interface() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3), (1, 2)]);
        let c = MaxCut::new(g);
        assert_eq!(c.evaluate_bits(&[1, 0, 1, 0]), c.evaluate(0b0101));
    }
}
