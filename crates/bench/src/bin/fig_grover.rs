//! §2.4 claim: Grover-mixer QAOA at very large n via the class-space representation.
//!
//! Not a numbered figure in the paper, but a quantitative claim of Section 2.4 ("allowing
//! simulation for very large (up to n = 100) problems").  This binary measures, as a
//! function of n:
//!
//! * the time per p = 10 Grover-QAOA evaluation in the full statevector (up to the memory
//!   limit of this machine), and
//! * the time per evaluation in class space (`Simulator::grover_classes`, one amplitude per
//!   distinct value), with the degeneracy table either counted exhaustively in parallel
//!   (n ≤ 26) or supplied analytically (n up to 100, Hamming-ramp cost).
//!
//! Run with: `cargo run -p juliqaoa-bench --release --bin fig_grover`

use juliqaoa_bench::{BenchTimer, Series};
use juliqaoa_combinatorics::binomial::log2_binomial;
use juliqaoa_core::{Angles, Simulator};
use juliqaoa_mixers::Mixer;
use juliqaoa_problems::{degeneracies_full, precompute_full, HammingRamp};
use std::hint::black_box;

fn main() {
    let p = 10;
    let angles = Angles::linear_ramp(p, 0.5);
    let timer = BenchTimer::new(3);

    println!("# Grover fast path: time per p = {p} Grover-QAOA evaluation (Hamming-ramp cost)");
    println!("# full = explicit statevector over 2^n amplitudes; class_space = one amplitude per distinct value\n");

    let mut t_full = Series::new("full_statevector");
    let mut t_comp = Series::new("class_space");

    for n in [8usize, 12, 16, 20, 22] {
        let ramp = HammingRamp::new(n);
        let obj = precompute_full(&ramp);
        let sim = Simulator::new(obj, Mixer::grover_full(n)).expect("setup");
        let mut ws = sim.workspace();
        let (full_min, _) = timer.measure(|| {
            black_box(sim.expectation_with(&angles, &mut ws).expect("setup"));
        });
        let table = degeneracies_full(&ramp, rayon::current_num_threads());
        let comp = Simulator::grover_classes(&table).expect("setup");
        let mut comp_ws = comp.workspace();
        let (comp_min, _) = timer.measure(|| {
            black_box(comp.expectation_with(&angles, &mut comp_ws).expect("setup"));
        });
        t_full.push(n as f64, full_min.as_secs_f64());
        t_comp.push(n as f64, comp_min.as_secs_f64());
        eprintln!("  finished n = {n} (exhaustive counting)");
    }

    // Beyond exhaustive reach: analytic degeneracy tables up to n = 100.
    for n in [40usize, 60, 80, 100] {
        let entries: Vec<(f64, f64)> = (0..=n)
            .map(|w| (w as f64, log2_binomial(n, w).exp2()))
            .collect();
        let comp = Simulator::grover_class_entries(entries).expect("setup");
        let mut comp_ws = comp.workspace();
        let (comp_min, _) = timer.measure(|| {
            black_box(comp.expectation_with(&angles, &mut comp_ws).expect("setup"));
        });
        t_comp.push(n as f64, comp_min.as_secs_f64());
        eprintln!("  finished n = {n} (analytic table)");
    }

    println!("{}", Series::render_table("n", &[t_full, t_comp]));
    println!("# Expected shape: the full statevector cost doubles with every added qubit, while");
    println!("# the class-space cost grows only with the number of distinct objective values");
    println!("# (n + 1 here), which is what makes n = 100 tractable.");
}
