//! Figure 4b: scaling in rounds for an n = 14 MaxCut QAOA.
//!
//! Paper setup: CPU time to evaluate an n = 14 MaxCut QAOA on a `G(n, 0.5)` graph as a
//! function of the number of rounds p (memory is flat in p and therefore not plotted).
//! Comparison: purpose-built simulator vs gate-level circuit baseline vs dense-operator
//! baseline (the latter only at reduced n, its memory being O(4ⁿ)).
//!
//! Defaults to n = 12 so the dense baseline can participate on modest machines; pass
//! `--full` for the paper's n = 14 (dense baseline then drops out).
//!
//! Run with: `cargo run -p juliqaoa-bench --release --bin fig4b [-- --full]`

use juliqaoa_bench::{BenchTimer, Series};
use juliqaoa_circuit::{maxcut_qaoa_expectation_gate_sim, DenseSimulator};
use juliqaoa_core::{Angles, Simulator};
use juliqaoa_mixers::Mixer;
use juliqaoa_problems::{paper_maxcut_instance, precompute_full, MaxCut};
use std::hint::black_box;

struct Config {
    n: usize,
    p_max: usize,
    repetitions: usize,
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = Config {
        n: 12,
        p_max: 20,
        repetitions: 3,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => cfg.n = 14,
            "--n" => {
                i += 1;
                cfg.n = args[i].parse().expect("--n takes an integer");
            }
            "--p-max" => {
                i += 1;
                cfg.p_max = args[i].parse().expect("--p-max takes an integer");
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    const DENSE_MAX_N: usize = 11;
    println!(
        "# Figure 4b reproduction: MaxCut QAOA, scaling in rounds at n = {}",
        cfg.n
    );
    println!(
        "# time per evaluation (seconds, min of {} repetitions)\n",
        cfg.repetitions
    );

    let graph = paper_maxcut_instance(cfg.n, 0);
    let obj = precompute_full(&MaxCut::new(graph.clone()));
    let sim = Simulator::new(obj.clone(), Mixer::transverse_field(cfg.n)).expect("setup");
    let mut ws = sim.workspace();
    let dense = if cfg.n <= DENSE_MAX_N {
        Some(DenseSimulator::new(cfg.n, obj.clone()))
    } else {
        None
    };
    let timer = BenchTimer::new(cfg.repetitions);

    let mut t_core = Series::new("juliqaoa_time");
    let mut t_gate = Series::new("gate_circuit_time");
    let mut t_dense = Series::new("dense_operator_time");

    for p in (1..=cfg.p_max).step_by(if cfg.p_max > 10 { 2 } else { 1 }) {
        let betas: Vec<f64> = (0..p).map(|i| 0.3 + 0.01 * i as f64).collect();
        let gammas: Vec<f64> = (0..p).map(|i| 0.7 - 0.01 * i as f64).collect();
        let angles = Angles::new(betas.clone(), gammas.clone());

        let (core_min, _) = timer.measure(|| {
            black_box(sim.expectation_with(&angles, &mut ws).expect("setup"));
        });
        t_core.push(p as f64, core_min.as_secs_f64());

        let (gate_min, _) = timer.measure(|| {
            black_box(maxcut_qaoa_expectation_gate_sim(
                &graph, &betas, &gammas, &obj,
            ));
        });
        t_gate.push(p as f64, gate_min.as_secs_f64());

        if let Some(dense) = &dense {
            let (dense_min, _) = timer.measure(|| {
                black_box(dense.expectation(&betas, &gammas));
            });
            t_dense.push(p as f64, dense_min.as_secs_f64());
        }
        eprintln!("  finished p = {p}");
    }

    let mut series = vec![t_core, t_gate];
    if dense.is_some() {
        series.push(t_dense);
    }
    println!("{}", Series::render_table("p", &series));
    println!("# Expected shape (paper): every approach is linear in p; the purpose-built");
    println!("# simulator has the smallest slope, the generic approaches pay a constant-factor");
    println!("# penalty at every round.");
}
