//! Figure 2: angle quality vs number of rounds for four problem/mixer pairs.
//!
//! Paper setup: n = 12, p = 1…10, one random instance per problem type —
//! MaxCut + Transverse-Field mixer, 3-SAT (clause density 6) + Grover mixer,
//! Densest k-Subgraph (k = 6) + Clique mixer, Max k-Vertex-Cover (k = 6) + Ring mixer —
//! all on `G(n, 0.5)` graphs, angles from the iterative extrapolated basin-hopping
//! finder.  The plotted quantity is the quality of the optimized ⟨C⟩ at each p.
//!
//! Defaults are scaled down (n = 10, p ≤ 6) so the binary finishes quickly; pass
//! `--full` for the paper-scale run, or `--n`, `--p-max`, `--hops` to customise.
//! With `--emit-jobs <path>` the binary writes the equivalent workload as a
//! `qaoa-service` job file instead of running it.
//!
//! Run with: `cargo run -p juliqaoa-bench --release --bin fig2 [-- --full]`

use juliqaoa_bench::Series;
use juliqaoa_combinatorics::DickeSubspace;
use juliqaoa_core::Simulator;
use juliqaoa_mixers::Mixer;
use juliqaoa_optim::{find_angles, BasinHoppingOptions, IterativeOptions};
use juliqaoa_problems::{
    paper_maxcut_instance, paper_sat_instance, precompute_dicke, precompute_full, DensestKSubgraph,
    MaxCut, MaxKVertexCover,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Config {
    n: usize,
    p_max: usize,
    hops: usize,
    emit_jobs: Option<String>,
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = Config {
        n: 10,
        p_max: 6,
        hops: 8,
        emit_jobs: None,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => {
                cfg.n = 12;
                cfg.p_max = 10;
                cfg.hops = 12;
            }
            "--n" => {
                i += 1;
                cfg.n = args[i].parse().expect("--n takes an integer");
            }
            "--p-max" => {
                i += 1;
                cfg.p_max = args[i].parse().expect("--p-max takes an integer");
            }
            "--hops" => {
                i += 1;
                cfg.hops = args[i].parse().expect("--hops takes an integer");
            }
            "--emit-jobs" => {
                i += 1;
                cfg.emit_jobs = Some(args[i].clone());
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    cfg
}

/// The figure's four problem/mixer pairs as service job specs, one job per round
/// count (the service optimizes a single `p` per job, so the iterative build-up
/// becomes a `p`-sweep).
fn emit_jobs(cfg: &Config, path: &str) {
    use juliqaoa_service::{JobSpec, MixerSpec, OptimizerSpec, ProblemSpec};
    let n = cfg.n;
    let k = n / 2;
    let pairs: Vec<(&str, ProblemSpec, MixerSpec)> = vec![
        (
            "maxcut-transverse",
            ProblemSpec::MaxCutGnp { n, instance: 0 },
            MixerSpec::TransverseField,
        ),
        (
            "3sat-grover",
            ProblemSpec::KSatRandom {
                n,
                k: 3,
                density: 6.0,
                instance: 0,
            },
            MixerSpec::Grover,
        ),
        (
            "densest-k-clique",
            ProblemSpec::DensestKSubgraphGnp { n, k, instance: 1 },
            MixerSpec::Clique,
        ),
        (
            "k-vertex-cover-ring",
            ProblemSpec::MaxKVertexCoverGnp { n, k, instance: 2 },
            MixerSpec::Ring,
        ),
    ];
    let mut jobs = Vec::new();
    for (label, problem, mixer) in &pairs {
        for p in 1..=cfg.p_max {
            jobs.push(JobSpec {
                id: format!("fig2-{label}-p{p}"),
                problem: problem.clone(),
                mixer: *mixer,
                p,
                optimizer: OptimizerSpec::BasinHopping {
                    n_hops: cfg.hops,
                    step_size: 1.0,
                    temperature: 1.0,
                },
                seed: 2,
                sampling: None,
                timeout_ms: None,
            });
        }
    }
    let count = jobs.len();
    juliqaoa_bench::write_job_file(path, jobs).expect("writing job file");
    eprintln!("fig2: wrote {count} job specs to {path}");
}

/// Normalised quality (⟨C⟩ − C_min)/(C_max − C_min); 1.0 means the optimum.
fn quality(expectation: f64, min: f64, max: f64) -> f64 {
    if max == min {
        1.0
    } else {
        (expectation - min) / (max - min)
    }
}

fn run_problem(label: &str, obj: Vec<f64>, mixer: Mixer, cfg: &Config, rng: &mut StdRng) -> Series {
    let min = obj.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = obj.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let sim = Simulator::new(obj, mixer).expect("consistent problem setup");
    let start = std::time::Instant::now();
    let result = find_angles(
        &sim,
        &IterativeOptions {
            target_p: cfg.p_max,
            basinhopping: BasinHoppingOptions {
                n_hops: cfg.hops,
                step_size: 1.0,
                ..Default::default()
            },
            ..Default::default()
        },
        rng,
    );
    let mut series = Series::new(label);
    for (p, _, expectation) in &result.per_round {
        series.push(*p as f64, quality(*expectation, min, max));
    }
    eprintln!(
        "  {label}: {} simulator calls, {:.2?}",
        result.simulations,
        start.elapsed()
    );
    series
}

fn main() {
    let cfg = parse_args();
    if let Some(path) = cfg.emit_jobs.clone() {
        emit_jobs(&cfg, &path);
        return;
    }
    let n = cfg.n;
    let k = n / 2;
    let mut rng = StdRng::seed_from_u64(2);

    println!("# Figure 2 reproduction: optimized QAOA quality vs rounds");
    println!(
        "# n = {n}, k = {k}, p = 1..{}, iterative basin-hopping ({} hops)",
        cfg.p_max, cfg.hops
    );
    println!("# quality = (<C> - C_min)/(C_max - C_min); 1.0 is the optimal solution\n");

    let mut all = Vec::new();

    // MaxCut + Transverse-Field mixer.
    let graph = paper_maxcut_instance(n, 0);
    all.push(run_problem(
        "maxcut+transverse",
        precompute_full(&MaxCut::new(graph)),
        Mixer::transverse_field(n),
        &cfg,
        &mut rng,
    ));

    // 3-SAT (density 6) + Grover mixer.
    let sat = paper_sat_instance(n, 0);
    all.push(run_problem(
        "3sat+grover",
        precompute_full(&sat),
        Mixer::grover_full(n),
        &cfg,
        &mut rng,
    ));

    // Densest k-Subgraph + Clique mixer.
    let graph = paper_maxcut_instance(n, 1);
    let sub = DickeSubspace::new(n, k);
    all.push(run_problem(
        "densest-k+clique",
        precompute_dicke(&DensestKSubgraph::new(graph, k), &sub),
        Mixer::clique(n, k),
        &cfg,
        &mut rng,
    ));

    // Max k-Vertex-Cover + Ring mixer.
    let graph = paper_maxcut_instance(n, 2);
    all.push(run_problem(
        "k-vertex-cover+ring",
        precompute_dicke(&MaxKVertexCover::new(graph, k), &sub),
        Mixer::ring(n, k),
        &cfg,
        &mut rng,
    ));

    println!("{}", Series::render_table("p", &all));
    println!("# Expected shape (paper): every curve increases towards 1.0 with p; the");
    println!("# constrained problems (clique/ring) start higher because their feasible");
    println!("# space is already restricted.");
}
