//! Pre-computation of objective-value vectors and degeneracy tables.
//!
//! This is the first box of the paper's Figure 1: evaluate `C(x)` across all feasible
//! states once, store the result, and re-use it in every simulator call and every step of
//! the angle-finding outer loop.  Evaluation is embarrassingly parallel, so all routines
//! fan out over rayon; the degeneracy variants implement the per-worker counting scheme
//! of §2.4 (each worker tallies its chunk into a local map, maps are merged at the end).

use crate::cost::CostFunction;
use juliqaoa_combinatorics::{partition, DickeSubspace};
use rayon::prelude::*;
use std::collections::HashMap;

/// Distinct objective values with their multiplicities, sorted by value.
///
/// This is all the Grover fast path needs to simulate a QAOA regardless of how many
/// states share each value.
#[derive(Clone, Debug, PartialEq)]
pub struct DegeneracyTable {
    /// `(value, number of feasible states with that value)`, sorted by value.
    pub entries: Vec<(f64, u64)>,
}

impl DegeneracyTable {
    /// Builds a table directly from `(value, degeneracy)` pairs (e.g. analytic tables
    /// from [`crate::synthetic`]).  Entries are merged and sorted.
    pub fn from_entries(entries: impl IntoIterator<Item = (f64, u64)>) -> Self {
        let mut map: HashMap<u64, (f64, u64)> = HashMap::new();
        for (v, d) in entries {
            let e = map.entry(v.to_bits()).or_insert((v, 0));
            e.1 += d;
        }
        let mut entries: Vec<(f64, u64)> = map.into_values().collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        DegeneracyTable { entries }
    }

    /// Total number of states accounted for.
    pub fn total_states(&self) -> u64 {
        self.entries.iter().map(|&(_, d)| d).sum()
    }
}

/// Evaluates `C(x)` for every state of the full `2ⁿ` computational basis, in state order.
///
/// The analogue of `[maxcut(graph, x) for x in states(n)]` from Listing 1, but
/// parallelised.
pub fn precompute_full<C: CostFunction + ?Sized>(cost: &C) -> Vec<f64> {
    let n = cost.num_qubits();
    assert!(n < 64, "full-space precomputation limited to n < 64");
    let size = 1usize << n;
    (0..size)
        .into_par_iter()
        .map(|x| cost.evaluate(x as u64))
        .collect()
}

/// Evaluates `C(x)` for every state of the weight-k Dicke subspace, in subspace index
/// order (the order of [`DickeSubspace::states`]).
///
/// The analogue of `[densest_subgraph(graph, x) for x in dicke_states(n, k)]` from
/// Listing 2.
pub fn precompute_dicke<C: CostFunction + ?Sized>(cost: &C, subspace: &DickeSubspace) -> Vec<f64> {
    assert_eq!(
        subspace.n(),
        cost.num_qubits(),
        "subspace and cost function disagree on qubit count"
    );
    subspace
        .states()
        .par_iter()
        .map(|&x| cost.evaluate(x))
        .collect()
}

/// Tallies one worker's share of states into a local `bits(value) → (value, count)` map
/// — the per-worker counting step of §2.4, shared by both feasible-set shapes.
fn tally_chunk<C: CostFunction + ?Sized>(
    cost: &C,
    states: impl Iterator<Item = u64>,
) -> HashMap<u64, (f64, u64)> {
    let mut local: HashMap<u64, (f64, u64)> = HashMap::new();
    for x in states {
        let v = cost.evaluate(x);
        let e = local.entry(v.to_bits()).or_insert((v, 0));
        e.1 += 1;
    }
    local
}

/// Counts objective-value degeneracies over the full `2ⁿ` space with `workers` parallel
/// chunks (Gosper-style partitioning of the integer range, §2.4).
pub fn degeneracies_full<C: CostFunction + ?Sized>(cost: &C, workers: usize) -> DegeneracyTable {
    let n = cost.num_qubits();
    assert!(n < 64, "full-space degeneracy counting limited to n < 64");
    let chunks = partition::partition_full_space(n, workers.max(1));
    let maps: Vec<HashMap<u64, (f64, u64)>> = chunks
        .into_par_iter()
        .map(|chunk| tally_chunk(cost, chunk.start..chunk.end))
        .collect();
    merge_degeneracy_maps(maps)
}

/// Counts objective-value degeneracies over the weight-k subspace, walking each worker's
/// share with Gosper's hack exactly as §2.4 describes.
pub fn degeneracies_dicke<C: CostFunction + ?Sized>(
    cost: &C,
    n: usize,
    k: usize,
    workers: usize,
) -> DegeneracyTable {
    assert_eq!(n, cost.num_qubits());
    let shares = partition::partition_dicke_space(n, k, workers.max(1));
    let maps: Vec<HashMap<u64, (f64, u64)>> = shares
        .into_par_iter()
        .map(|(start, count)| tally_chunk(cost, partition::dicke_chunk_iter(start, count)))
        .collect();
    merge_degeneracy_maps(maps)
}

fn merge_degeneracy_maps(maps: Vec<HashMap<u64, (f64, u64)>>) -> DegeneracyTable {
    let mut merged: HashMap<u64, (f64, u64)> = HashMap::new();
    for map in maps {
        for (bits, (v, d)) in map {
            let e = merged.entry(bits).or_insert((v, 0));
            e.1 += d;
        }
    }
    let mut entries: Vec<(f64, u64)> = merged.into_values().collect();
    entries.sort_by(|a, b| a.0.total_cmp(&b.0));
    DegeneracyTable { entries }
}

/// Maximum of a pre-computed objective vector; the denominator of approximation ratios.
pub fn max_objective(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Minimum of a pre-computed objective vector.
pub fn min_objective(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcut::MaxCut;
    use crate::synthetic::HammingRamp;
    use crate::DensestKSubgraph;
    use juliqaoa_graphs::{complete_graph, cycle_graph};

    #[test]
    fn full_precompute_matches_direct_evaluation() {
        let cost = MaxCut::new(cycle_graph(5));
        let values = precompute_full(&cost);
        assert_eq!(values.len(), 32);
        for (x, &v) in values.iter().enumerate() {
            assert_eq!(v, cost.evaluate(x as u64));
        }
    }

    #[test]
    fn dicke_precompute_matches_direct_evaluation() {
        let cost = DensestKSubgraph::new(complete_graph(6), 3);
        let sub = DickeSubspace::new(6, 3);
        let values = precompute_dicke(&cost, &sub);
        assert_eq!(values.len(), 20);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(v, cost.evaluate(sub.state_at(i)));
        }
        // Every 3-subset of K6 induces exactly 3 edges.
        assert!(values.iter().all(|&v| v == 3.0));
    }

    #[test]
    fn degeneracies_full_match_analytic_binomials() {
        let ramp = HammingRamp::new(10);
        let table = degeneracies_full(&ramp, 4);
        let analytic = DegeneracyTable::from_entries(ramp.analytic_degeneracies());
        assert_eq!(table, analytic);
        assert_eq!(table.total_states(), 1 << 10);
        assert_eq!(table.entries.len(), 11);
    }

    #[test]
    fn degeneracies_independent_of_worker_count() {
        let cost = MaxCut::new(cycle_graph(8));
        let t1 = degeneracies_full(&cost, 1);
        let t8 = degeneracies_full(&cost, 8);
        let t100 = degeneracies_full(&cost, 100);
        assert_eq!(t1, t8);
        assert_eq!(t1, t100);
        assert_eq!(t1.total_states(), 256);
    }

    #[test]
    fn dicke_degeneracies_count_subspace_only() {
        let cost = DensestKSubgraph::new(cycle_graph(6), 3);
        let table = degeneracies_dicke(&cost, 6, 3, 4);
        assert_eq!(table.total_states(), 20);
        // Values must lie between 0 and 3 edges for a cycle.
        assert!(table.entries.iter().all(|&(v, _)| (0.0..=3.0).contains(&v)));
        // Cross-check against the dense precompute.
        let sub = DickeSubspace::new(6, 3);
        let values = precompute_dicke(&cost, &sub);
        let expected = DegeneracyTable::from_entries(values.iter().map(|&v| (v, 1)));
        assert_eq!(table, expected);
    }

    #[test]
    fn degeneracy_table_statistics() {
        let table = DegeneracyTable::from_entries([(1.0, 3), (0.0, 1), (1.0, 2), (2.0, 2)]);
        assert_eq!(table.entries, vec![(0.0, 1), (1.0, 5), (2.0, 2)]);
        assert_eq!(table.total_states(), 8);
    }

    #[test]
    fn objective_extrema_helpers() {
        let values = vec![1.0, -3.0, 2.5, 0.0];
        assert_eq!(max_objective(&values), 2.5);
        assert_eq!(min_objective(&values), -3.0);
    }
}
