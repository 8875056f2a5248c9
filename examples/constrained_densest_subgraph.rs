//! Constrained optimization: Densest k-Subgraph with the Clique mixer (Listing 2).
//!
//! The feasible states are the `C(n,k)` bitstrings with Hamming weight `k`; the cost
//! vector, mixer and statevector all live in that subspace, never in the full `2ⁿ`
//! space.  JuliQAOA eigendecomposes the dense `C(n,k)×C(n,k)` Clique matrix and caches
//! it to a file (`mixer_clique(n, k; file=...)`), because that `O(dim³)` step dominates
//! constrained runs.  Here the mixer is matrix-free: its spectrum has only
//! `min(k,n−k)+1` distinct values, so a short Lanczos run applies `e^{−iβH}` exactly
//! and the only pre-computation is a hop table built in milliseconds — nothing to cache.
//!
//! Run with: `cargo run --release --example constrained_densest_subgraph`

use juliqaoa::mixers::Mixer;
use juliqaoa::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    let n = 10;
    let k = 5;
    let graph = erdos_renyi(n, 0.5, &mut rng);
    let problem = DensestKSubgraph::new(graph, k);

    // Pre-compute the cost function across the Dicke(n, k) states only.
    let subspace = DickeSubspace::new(n, k);
    let obj_vals = precompute_dicke(&problem, &subspace);
    println!(
        "Densest {k}-subgraph on n = {n}: feasible subspace has {} states (vs 2^{n} = {})",
        subspace.dim(),
        1u64 << n
    );

    let start = std::time::Instant::now();
    let mixer = Mixer::clique(n, k);
    println!(
        "Clique mixer ready in {:.2?} ({} bytes of hop tables)",
        start.elapsed(),
        mixer.bytes()
    );

    // Optimize angles for increasing p with the iterative extrapolation strategy.
    let best = juliqaoa_problems::precompute::max_objective(&obj_vals);
    let sim = Simulator::new(obj_vals, mixer).expect("consistent problem setup");
    let result = find_angles(
        &sim,
        &IterativeOptions {
            target_p: 4,
            basinhopping: BasinHoppingOptions {
                n_hops: 10,
                step_size: 1.0,
                ..Default::default()
            },
            ..Default::default()
        },
        &mut rng,
    );

    println!("\n   p    <C>        approximation ratio");
    for (p, _, expectation) in &result.per_round {
        println!("   {p}    {expectation:.4}     {:.4}", expectation / best);
    }
    println!("\noptimal k-subgraph density: {best} edges");
    println!("total simulator calls: {}", result.simulations);
}
