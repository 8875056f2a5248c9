//! The subset and cut weights the graph cost functions evaluate.

use crate::graph::Graph;

/// Number of edges with both endpoints inside the vertex subset given by a bitmask
/// (bit `v` set ⇔ vertex `v` selected).  This is the Densest-k-Subgraph objective.
pub fn edges_within_subset(g: &Graph, subset_mask: u64) -> f64 {
    g.edges()
        .iter()
        .filter(|e| (subset_mask >> e.u) & 1 == 1 && (subset_mask >> e.v) & 1 == 1)
        .map(|e| e.weight)
        .sum()
}

/// Number of edges with at least one endpoint in the subset (the k-Vertex-Cover
/// objective).
pub fn edges_covered_by_subset(g: &Graph, subset_mask: u64) -> f64 {
    g.edges()
        .iter()
        .filter(|e| (subset_mask >> e.u) & 1 == 1 || (subset_mask >> e.v) & 1 == 1)
        .map(|e| e.weight)
        .sum()
}

/// Total weight of edges crossing the cut defined by the bitmask (the MaxCut objective).
pub fn cut_weight(g: &Graph, cut_mask: u64) -> f64 {
    g.edges()
        .iter()
        .filter(|e| ((cut_mask >> e.u) & 1) != ((cut_mask >> e.v) & 1))
        .map(|e| e.weight)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_edge_counts() {
        // Square 0-1-2-3-0 plus diagonal 0-2.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
        // Subset {0,1,2}: edges inside = (0,1),(1,2),(0,2) = 3.
        assert_eq!(edges_within_subset(&g, 0b0111), 3.0);
        // Subset {0}: nothing inside, but covers (0,1),(0,3),(0,2).
        assert_eq!(edges_within_subset(&g, 0b0001), 0.0);
        assert_eq!(edges_covered_by_subset(&g, 0b0001), 3.0);
        // Full subset covers everything.
        assert_eq!(edges_covered_by_subset(&g, 0b1111), 5.0);
    }

    #[test]
    fn cut_weight_of_square() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        // Bipartition {0,2} vs {1,3} cuts all four edges.
        assert_eq!(cut_weight(&g, 0b0101), 4.0);
        // Trivial cut has weight 0.
        assert_eq!(cut_weight(&g, 0b0000), 0.0);
        // Cut isolating vertex 0 cuts its two incident edges.
        assert_eq!(cut_weight(&g, 0b0001), 2.0);
    }

    #[test]
    fn weighted_cut() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 3.0), (0, 2, 5.0)]);
        assert!((cut_weight(&g, 0b001) - 7.0).abs() < 1e-12);
        assert!((edges_covered_by_subset(&g, 0b010) - 5.0).abs() < 1e-12);
        assert!((edges_within_subset(&g, 0b011) - 2.0).abs() < 1e-12);
    }
}
