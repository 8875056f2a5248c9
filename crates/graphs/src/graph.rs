//! Undirected weighted graphs.

use serde::{Deserialize, Serialize};

/// An undirected edge `{u, v}` with a real weight (1.0 for unweighted graphs).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Edge weight; 1.0 in the unweighted case.
    pub weight: f64,
}

/// A simple undirected graph on vertices `0..n`, stored as an edge list plus adjacency
/// lists.  Self-loops and parallel edges are rejected.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    adjacency: Vec<Vec<usize>>,
}

impl Graph {
    /// Creates an empty graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Creates a graph from an explicit edge list (unit weights).
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops or duplicate edges.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Creates a graph from an explicit weighted edge list.
    pub fn from_weighted_edges(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut g = Graph::new(n);
        for &(u, v, w) in edges {
            g.add_weighted_edge(u, v, w);
        }
        g
    }

    /// Adds an unweighted (weight 1) edge.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        self.add_weighted_edge(u, v, 1.0);
    }

    /// Adds a weighted edge.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops or duplicate edges.
    pub fn add_weighted_edge(&mut self, u: usize, v: usize, weight: f64) {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(
            !self.has_edge(u, v),
            "duplicate edge ({u}, {v}); parallel edges are not allowed"
        );
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push(Edge { u: a, v: b, weight });
        self.adjacency[u].push(v);
        self.adjacency[v].push(u);
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Neighbors of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjacency[v]
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// Whether the edge `{u, v}` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u >= self.n || v >= self.n {
            return false;
        }
        self.adjacency[u].contains(&v)
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Checks the invariants [`Graph::add_weighted_edge`] enforces, for a graph that
    /// did not come through it (a deserialised one): every endpoint is below `n`, no
    /// edge is a self-loop or repeats a pair, and `adjacency` holds `n` lists with
    /// exactly each vertex's neighbours from the edge list, in any order.  Returns
    /// the first violation.
    pub fn validate(&self) -> Result<(), String> {
        // Checked first, so `expected` below is no larger than the lists it mirrors.
        if self.adjacency.len() != self.n {
            return Err(format!(
                "graph has {} adjacency lists for n={}",
                self.adjacency.len(),
                self.n
            ));
        }
        let mut expected = vec![Vec::new(); self.n];
        let mut pairs = std::collections::HashSet::new();
        for &Edge { u, v, .. } in &self.edges {
            if u >= self.n || v >= self.n {
                return Err(format!(
                    "edge ({u}, {v}) has an endpoint out of range for n={}",
                    self.n
                ));
            }
            if u == v {
                return Err(format!("edge ({u}, {v}) is a self-loop"));
            }
            if !pairs.insert((u.min(v), u.max(v))) {
                return Err(format!("edge ({u}, {v}) repeats a pair"));
            }
            expected[u].push(v);
            expected[v].push(u);
        }
        for (vertex, (listed, expected)) in self.adjacency.iter().zip(&mut expected).enumerate() {
            let mut listed = listed.clone();
            listed.sort_unstable();
            expected.sort_unstable();
            if listed != *expected {
                return Err(format!(
                    "adjacency of vertex {vertex} does not match the edge list"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn add_edges_and_query() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.total_weight(), 4.0);
    }

    #[test]
    fn weighted_edges() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 2.5), (1, 2, -1.0)]);
        assert!((g.total_weight() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn edges_are_stored_canonically() {
        let mut g = Graph::new(3);
        g.add_edge(2, 0);
        let e = g.edges()[0];
        assert_eq!((e.u, e.v), (0, 2));
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        let mut g = Graph::new(3);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic]
    fn duplicate_edge_panics() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let mut g = Graph::new(3);
        g.add_edge(0, 3);
    }

    #[test]
    fn validate_accepts_built_graphs_and_reports_each_violation() {
        let built = Graph::from_weighted_edges(4, &[(2, 0, 1.5), (1, 3, 1.0), (0, 1, -2.0)]);
        assert_eq!(built.validate(), Ok(()));
        let edge = |u, v| Edge { u, v, weight: 1.0 };
        let broken = |edges: Vec<Edge>, adjacency: Vec<Vec<usize>>| Graph {
            n: 3,
            edges,
            adjacency,
        };
        let cases = [
            (
                broken(vec![edge(0, 1)], vec![vec![1], vec![0]]),
                "2 adjacency lists",
            ),
            (
                broken(vec![edge(0, 7)], vec![vec![7], vec![], vec![]]),
                "out of range",
            ),
            (
                broken(vec![edge(1, 1)], vec![vec![], vec![1, 1], vec![]]),
                "self-loop",
            ),
            (
                broken(
                    vec![edge(0, 1), edge(1, 0)],
                    vec![vec![1, 1], vec![0, 0], vec![]],
                ),
                "repeats a pair",
            ),
            (
                broken(vec![edge(0, 1)], vec![vec![2], vec![0], vec![]]),
                "vertex 0",
            ),
            (broken(vec![], vec![vec![1], vec![0], vec![]]), "vertex 0"),
        ];
        for (graph, message) in cases {
            let err = graph.validate().unwrap_err();
            assert!(err.contains(message), "{err}");
        }
        // Neighbour order within a list does not matter.
        let reordered = broken(
            vec![edge(0, 1), edge(0, 2)],
            vec![vec![2, 1], vec![0], vec![0]],
        );
        assert_eq!(reordered.validate(), Ok(()));
    }
}
