//! Random and structured graph generators.
//!
//! All random generators take an explicit RNG so experiments are reproducible from a
//! seed, matching how the benchmark harness fixes its instances.

use crate::graph::Graph;
use rand::Rng;

/// Erdős–Rényi random graph `G(n, p)`: every unordered pair becomes an edge
/// independently with probability `p`.
///
/// The paper's Figure 2–5 instances all use `G(n, 0.5)`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!(
        (0.0..=1.0).contains(&p),
        "edge probability must lie in [0, 1]"
    );
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < p {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Erdős–Rényi graph with independent uniform edge weights drawn from `weight_range`.
pub fn erdos_renyi_weighted<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    weight_range: std::ops::Range<f64>,
    rng: &mut R,
) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < p {
                let w = rng.gen_range(weight_range.clone());
                g.add_weighted_edge(u, v, w);
            }
        }
    }
    g
}

/// Complete graph `K_n`.
pub fn complete_graph(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v);
        }
    }
    g
}

/// Cycle graph `C_n` (ring), `0–1–2–…–(n−1)–0`.
pub fn cycle_graph(n: usize) -> Graph {
    let mut g = Graph::new(n);
    if n < 3 {
        if n == 2 {
            g.add_edge(0, 1);
        }
        return g;
    }
    for v in 0..n {
        g.add_edge(v, (v + 1) % n);
    }
    g
}

/// Star graph: vertex 0 connected to all others.
pub fn star_graph(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(0, v);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erdos_renyi_extreme_probabilities() {
        let mut rng = StdRng::seed_from_u64(1);
        let empty = erdos_renyi(8, 0.0, &mut rng);
        assert_eq!(empty.num_edges(), 0);
        let full = erdos_renyi(8, 1.0, &mut rng);
        assert_eq!(full.num_edges(), 8 * 7 / 2);
    }

    #[test]
    fn erdos_renyi_is_reproducible_from_seed() {
        let g1 = erdos_renyi(10, 0.5, &mut StdRng::seed_from_u64(42));
        let g2 = erdos_renyi(10, 0.5, &mut StdRng::seed_from_u64(42));
        let e1: Vec<(usize, usize)> = g1.edges().iter().map(|e| (e.u, e.v)).collect();
        let e2: Vec<(usize, usize)> = g2.edges().iter().map(|e| (e.u, e.v)).collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn erdos_renyi_edge_count_near_expectation() {
        // With n=40 and p=0.5 the edge count concentrates near 390; allow a wide margin.
        let g = erdos_renyi(40, 0.5, &mut StdRng::seed_from_u64(7));
        let expected = 40.0 * 39.0 / 2.0 * 0.5;
        assert!((g.num_edges() as f64 - expected).abs() < 120.0);
    }

    #[test]
    fn weighted_erdos_renyi_weights_in_range() {
        let g = erdos_renyi_weighted(12, 0.7, 0.5..2.0, &mut StdRng::seed_from_u64(3));
        for e in g.edges() {
            assert!(e.weight >= 0.5 && e.weight < 2.0);
        }
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn structured_generators() {
        assert_eq!(complete_graph(6).num_edges(), 15);
        assert_eq!(cycle_graph(6).num_edges(), 6);
        assert_eq!(cycle_graph(2).num_edges(), 1);
        assert_eq!(cycle_graph(1).num_edges(), 0);
        assert_eq!(star_graph(6).num_edges(), 5);
        assert_eq!(star_graph(6).degree(0), 5);
    }

    #[test]
    fn cycle_graph_every_vertex_has_degree_two() {
        let g = cycle_graph(9);
        for v in 0..9 {
            assert_eq!(g.degree(v), 2);
        }
    }
}
