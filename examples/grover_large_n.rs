//! The Grover-mixer fast path at large n (§2.4).
//!
//! Three stages:
//!
//! 1. cross-check the class-space simulator against the full statevector simulator at a
//!    size where both run (n = 12);
//! 2. run an n = 24 MaxCut Grover-QAOA where the degeneracy table is counted in parallel
//!    over all 16.7M states (the per-worker counting scheme of §2.4);
//! 3. run an n = 100 synthetic problem from an analytic degeneracy table — far beyond
//!    what any explicit statevector could hold.
//!
//! Run with: `cargo run --release --example grover_large_n`

use juliqaoa::prelude::*;
use juliqaoa::problems::degeneracies_full;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);

    // --- Stage 1: agreement with the full simulator at n = 12 ---------------------------
    let n = 12;
    let graph = erdos_renyi(n, 0.5, &mut rng);
    let cost = MaxCut::new(graph);
    let obj_vals = precompute_full(&cost);
    let full = Simulator::new(obj_vals, Mixer::grover_full(n)).expect("consistent setup");
    let table = degeneracies_full(&cost, rayon::current_num_threads());
    let classes = Simulator::grover_classes(&table).expect("consistent setup");
    let angles = Angles::random(5, &mut rng);
    let e_full = full.expectation(&angles).expect("consistent setup");
    let e_comp = classes.expectation(&angles).expect("consistent setup");
    println!("n = {n}: full statevector ⟨C⟩ = {e_full:.10}");
    println!("n = {n}: class space      ⟨C⟩ = {e_comp:.10}");
    println!(
        "        distinct values: {} (vs {} states)\n",
        classes.dim(),
        1u64 << n
    );

    // --- Stage 2: n = 24 with parallel degeneracy counting ------------------------------
    let n = 24;
    let graph = erdos_renyi(n, 0.5, &mut rng);
    let cost = MaxCut::new(graph);
    let start = Instant::now();
    let table = degeneracies_full(&cost, rayon::current_num_threads());
    let count_time = start.elapsed();
    let classes = Simulator::grover_classes(&table).expect("consistent setup");
    let start = Instant::now();
    let e = classes
        .expectation(&Angles::random(20, &mut rng))
        .expect("consistent setup");
    let sim_time = start.elapsed();
    println!(
        "n = {n}: degeneracy counting over 2^{n} states took {count_time:.2?} on {} threads",
        rayon::current_num_threads()
    );
    println!(
        "n = {n}: p = 20 Grover-QAOA round in {sim_time:.2?} over {} distinct values, ⟨C⟩ = {e:.4}\n",
        classes.dim()
    );

    // --- Stage 3: n = 100 from an analytic degeneracy table -----------------------------
    // The cost is the Hamming-weight ramp C(x) = wt(x); its degeneracies are binomial
    // coefficients, which overflow u64 near w ≈ 30, so the table is built in f64.
    let n = 100;
    let entries: Vec<(f64, f64)> = (0..=n)
        .map(|w| {
            (
                w as f64,
                juliqaoa::combinatorics::binomial::log2_binomial(n, w).exp2(),
            )
        })
        .collect();
    let total_states: f64 = entries.iter().map(|&(_, d)| d).sum();
    let sim = Simulator::grover_class_entries(entries).expect("consistent setup");
    let start = Instant::now();
    let p = 50;
    let e = sim
        .expectation(&Angles::linear_ramp(p, 0.4))
        .expect("consistent setup");
    let elapsed = start.elapsed();
    println!(
        "n = {n}: p = {p} Grover-QAOA with an analytic degeneracy table ({} distinct values, ~2^{:.1} states) in {elapsed:.2?}",
        sim.dim(),
        total_states.log2()
    );
    println!("n = {n}: ⟨Hamming weight⟩ = {e:.4} (uniform superposition would give 50)");
}
