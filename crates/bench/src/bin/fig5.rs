//! Figure 5: time to find a local minimum with BFGS, finite-difference vs adjoint
//! ("automatic differentiation") gradients.
//!
//! Paper setup: average over 100 random n = 14 MaxCut instances of the time for BFGS to
//! converge from a random starting point, with the gradient supplied either by finite
//! differences or by AD, as a function of p.  The AD substitute here is the adjoint-mode
//! analytic gradient (DESIGN.md §4), which has the same cost profile: one gradient costs
//! a p-independent constant number of simulations, while finite differences cost
//! `O(p)` simulations per gradient — so the two curves separate linearly in p.
//!
//! Defaults are scaled down (n = 10, 5 instances, p ≤ 8); pass `--full` for paper scale.
//!
//! Run with: `cargo run -p juliqaoa-bench --release --bin fig5 [-- --full]`

use juliqaoa_bench::Series;
use juliqaoa_core::{Angles, Simulator};
use juliqaoa_mixers::Mixer;
use juliqaoa_optim::{bfgs, BfgsOptions, GradientMethod, QaoaObjective};
use juliqaoa_problems::{paper_maxcut_instance, precompute_full, MaxCut};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Config {
    n: usize,
    p_max: usize,
    instances: usize,
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = Config {
        n: 10,
        p_max: 8,
        instances: 5,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => {
                cfg.n = 14;
                cfg.p_max = 10;
                cfg.instances = 100;
            }
            "--n" => {
                i += 1;
                cfg.n = args[i].parse().expect("--n takes an integer");
            }
            "--p-max" => {
                i += 1;
                cfg.p_max = args[i].parse().expect("--p-max takes an integer");
            }
            "--instances" => {
                i += 1;
                cfg.instances = args[i].parse().expect("--instances takes an integer");
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    println!("# Figure 5 reproduction: BFGS local-minimum search, finite-difference vs adjoint gradients");
    println!(
        "# MaxCut, n = {}, mean over {} random instances, time in seconds (and simulator calls)\n",
        cfg.n, cfg.instances
    );

    // Pre-build simulators once; the comparison is about the optimizer loop.
    let sims: Vec<Simulator> = (0..cfg.instances)
        .map(|idx| {
            let graph = paper_maxcut_instance(cfg.n, idx as u64);
            Simulator::new(
                precompute_full(&MaxCut::new(graph)),
                Mixer::transverse_field(cfg.n),
            )
            .expect("setup")
        })
        .collect();

    let mut t_fd = Series::new("finite_difference_time");
    let mut t_ad = Series::new("adjoint_time");
    let mut c_fd = Series::new("finite_difference_sims");
    let mut c_ad = Series::new("adjoint_sims");

    let opts = BfgsOptions {
        max_iterations: 100,
        ..Default::default()
    };

    for p in 1..=cfg.p_max {
        let mut fd_time = 0.0;
        let mut ad_time = 0.0;
        let mut fd_calls = 0usize;
        let mut ad_calls = 0usize;
        for (idx, sim) in sims.iter().enumerate() {
            // Same random starting point for both gradient methods.
            let start_angles =
                Angles::random(p, &mut StdRng::seed_from_u64((p * 1000 + idx) as u64)).to_flat();

            let mut fd_obj = QaoaObjective::with_gradient_method(
                sim,
                GradientMethod::FiniteDifference { eps: 1e-6 },
            );
            let start = Instant::now();
            let _ = bfgs(&mut fd_obj, &start_angles, &opts);
            fd_time += start.elapsed().as_secs_f64();
            fd_calls += fd_obj.simulation_count();

            let mut ad_obj = QaoaObjective::with_gradient_method(sim, GradientMethod::Adjoint);
            let start = Instant::now();
            let _ = bfgs(&mut ad_obj, &start_angles, &opts);
            ad_time += start.elapsed().as_secs_f64();
            ad_calls += ad_obj.simulation_count();
        }
        let norm = cfg.instances as f64;
        t_fd.push(p as f64, fd_time / norm);
        t_ad.push(p as f64, ad_time / norm);
        c_fd.push(p as f64, fd_calls as f64 / norm);
        c_ad.push(p as f64, ad_calls as f64 / norm);
        eprintln!("  finished p = {p}");
    }

    println!("## mean wall-clock time per BFGS run (s)");
    println!("{}", Series::render_table("p", &[t_fd, t_ad]));
    println!("## mean simulator calls per BFGS run");
    println!("{}", Series::render_table("p", &[c_fd, c_ad]));
    println!("# Expected shape (paper): the finite-difference curve grows ~O(p) faster than the");
    println!("# adjoint/AD curve, so the ratio between them widens linearly with p.");
}
