//! Figure 4a: scaling in qubits for a p = 1 MaxCut QAOA.
//!
//! Paper setup: CPU time (and memory) to simulate a p = 1 MaxCut QAOA on a random
//! `G(n, 0.5)` graph with the Transverse-Field mixer, as a function of n, for JuliQAOA
//! vs QAOA.jl vs QAOAKit.  Here the comparison is the purpose-built simulator
//! (`juliqaoa-core`) vs the gate-level circuit baseline vs the dense-operator baseline
//! (see DESIGN.md §4 for the substitution rationale).  Each measurement includes the
//! per-evaluation work each approach actually repeats: the purpose-built path re-uses
//! its pre-computation, the baselines rebuild their circuit/operators.
//!
//! Also prints the paper's headline single-point comparison at n = 6.
//!
//! Run with: `cargo run -p juliqaoa-bench --release --bin fig4a [-- --n-max 16]`

use juliqaoa_bench::{BenchTimer, Series};
use juliqaoa_circuit::{maxcut_qaoa_expectation_gate_sim, DenseSimulator};
use juliqaoa_core::{Angles, Simulator};
use juliqaoa_mixers::Mixer;
use juliqaoa_problems::{paper_maxcut_instance, precompute_full, MaxCut};
use std::hint::black_box;

struct Config {
    n_min: usize,
    n_max: usize,
    repetitions: usize,
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = Config {
        n_min: 4,
        n_max: 14,
        repetitions: 5,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => cfg.n_max = 16,
            "--n-max" => {
                i += 1;
                cfg.n_max = args[i].parse().expect("--n-max takes an integer");
            }
            "--reps" => {
                i += 1;
                cfg.repetitions = args[i].parse().expect("--reps takes an integer");
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    const DENSE_MAX_N: usize = 11; // the dense baseline needs O(4^n) memory
    println!("# Figure 4a reproduction: p = 1 MaxCut QAOA, scaling in qubits");
    println!(
        "# time per evaluation (seconds, min of {} repetitions) and working-set memory (bytes)",
        cfg.repetitions
    );
    println!("# juliqaoa = purpose-built simulator; gate-circuit / dense-operator = baselines\n");

    let timer = BenchTimer::new(cfg.repetitions);
    let angles = Angles::new(vec![0.4], vec![0.7]);

    let mut t_core = Series::new("juliqaoa_time");
    let mut t_gate = Series::new("gate_circuit_time");
    let mut t_dense = Series::new("dense_operator_time");
    let mut m_core = Series::new("juliqaoa_mem");
    let mut m_gate = Series::new("gate_circuit_mem");
    let mut m_dense = Series::new("dense_operator_mem");
    let mut headline: Option<(f64, f64, f64)> = None;

    for n in cfg.n_min..=cfg.n_max {
        let graph = paper_maxcut_instance(n, 0);
        let obj = precompute_full(&MaxCut::new(graph.clone()));

        // Purpose-built simulator: pre-computation once, then pure evaluation.
        let sim = Simulator::new(obj.clone(), Mixer::transverse_field(n)).expect("setup");
        let mut ws = sim.workspace();
        let core_time = timer.measure(|| {
            black_box(sim.expectation_with(&angles, &mut ws).expect("setup"));
        });
        let core_bytes = ws.bytes() + obj.len() * std::mem::size_of::<f64>() * 2;

        // Gate-level baseline: rebuilds and runs the circuit per evaluation.
        let gate_time = timer.measure(|| {
            black_box(maxcut_qaoa_expectation_gate_sim(
                &graph,
                angles.betas(),
                angles.gammas(),
                &obj,
            ));
        });
        let gate_bytes = (1usize << n) * std::mem::size_of::<juliqaoa_linalg::Complex64>()
            + obj.len() * std::mem::size_of::<f64>();

        t_core.push(n as f64, core_time.min.as_secs_f64());
        t_gate.push(n as f64, gate_time.min.as_secs_f64());
        m_core.push(n as f64, core_bytes as f64);
        m_gate.push(n as f64, gate_bytes as f64);

        // Dense-operator baseline only up to its memory limit.
        if n <= DENSE_MAX_N {
            let dense = DenseSimulator::new(n, obj.clone());
            let dense_time = timer.measure(|| {
                black_box(dense.expectation(angles.betas(), angles.gammas()));
            });
            t_dense.push(n as f64, dense_time.min.as_secs_f64());
            m_dense.push(n as f64, dense.operator_bytes() as f64);
            if n == 6 {
                headline = Some((
                    core_time.min.as_secs_f64(),
                    gate_time.min.as_secs_f64(),
                    dense_time.min.as_secs_f64(),
                ));
            }
        }
        eprintln!("  finished n = {n}");
    }

    println!("## CPU time (s)");
    println!("{}", Series::render_table("n", &[t_core, t_gate, t_dense]));
    println!("## working-set memory (bytes)");
    println!("{}", Series::render_table("n", &[m_core, m_gate, m_dense]));

    if let Some((core, gate, dense)) = headline {
        println!("## headline single-point comparison (paper: n = 6, p = 1 MaxCut)");
        println!(
            "#  paper reports JuliQAOA ~2000x faster than QAOAKit and ~70x faster than QAOA.jl"
        );
        println!(
            "#  here: juliqaoa vs gate-circuit baseline: {:.1}x, vs dense-operator baseline: {:.1}x",
            gate / core,
            dense / core
        );
        println!("#  (absolute factors differ because the original baselines carry Python/Julia");
        println!(
            "#   package overhead; the reproduced shape is purpose-built << circuit << dense)"
        );
    }
}
