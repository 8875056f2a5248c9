//! Figure 3: angle-finding strategies compared on MaxCut.
//!
//! Paper setup: 50 random n = 12 MaxCut instances on `G(n, 0.5)`, p = 1…10, mean
//! approximation ratio of (a) the extrapolated basin-hopping approach, (b) random
//! local-minima exploration (100 BFGS restarts per instance and round count), and
//! (c) median angles (the coordinate-wise median of the random-search angles across
//! instances, evaluated on each instance without further optimization).
//!
//! Defaults are scaled down (8 instances, n = 10, p ≤ 5, 20 restarts); pass `--full`
//! for the paper-scale run.
//!
//! Run with: `cargo run -p juliqaoa-bench --release --bin fig3 [-- --full]`

use juliqaoa_bench::Series;
use juliqaoa_core::{Angles, Simulator};
use juliqaoa_mixers::Mixer;
use juliqaoa_optim::{
    find_angles, median_angles, random_restart, BasinHoppingOptions, IterativeOptions,
    QaoaObjective, RandomRestartOptions,
};
use juliqaoa_problems::{paper_maxcut_instance, precompute_full, MaxCut};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Config {
    n: usize,
    p_max: usize,
    instances: usize,
    restarts: usize,
    hops: usize,
    emit_jobs: Option<String>,
}

/// The figure's per-instance workload as service job specs: a basin-hopping job and a
/// random-restart job per (instance, p) — the two optimized strategies the figure
/// compares (median angles are derived offline from the random-restart results).
fn emit_jobs(cfg: &Config, path: &str) {
    use juliqaoa_service::{JobSpec, MixerSpec, OptimizerSpec, ProblemSpec};
    let mut jobs = Vec::new();
    for idx in 0..cfg.instances {
        let problem = ProblemSpec::MaxCutGnp {
            n: cfg.n,
            instance: idx as u64,
        };
        for p in 1..=cfg.p_max {
            jobs.push(JobSpec {
                id: format!("fig3-i{idx}-p{p}-bh"),
                problem: problem.clone(),
                mixer: MixerSpec::TransverseField,
                p,
                optimizer: OptimizerSpec::BasinHopping {
                    n_hops: cfg.hops,
                    step_size: 1.0,
                    temperature: 1.0,
                },
                seed: 1000 + idx as u64,
                sampling: None,
                timeout_ms: None,
            });
            jobs.push(JobSpec {
                id: format!("fig3-i{idx}-p{p}-rr"),
                problem: problem.clone(),
                mixer: MixerSpec::TransverseField,
                p,
                optimizer: OptimizerSpec::RandomRestart {
                    restarts: cfg.restarts,
                },
                seed: 2000 + idx as u64,
                sampling: None,
                timeout_ms: None,
            });
        }
    }
    let count = jobs.len();
    juliqaoa_bench::write_job_file(path, jobs).expect("writing job file");
    eprintln!("fig3: wrote {count} job specs to {path}");
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = Config {
        n: 10,
        p_max: 5,
        instances: 8,
        restarts: 20,
        hops: 8,
        emit_jobs: None,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => {
                cfg.n = 12;
                cfg.p_max = 10;
                cfg.instances = 50;
                cfg.restarts = 100;
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
            "--instances" => {
                i += 1;
                cfg.instances = args[i].parse().expect("--instances takes an integer");
            }
            "--restarts" => {
                i += 1;
                cfg.restarts = args[i].parse().expect("--restarts takes an integer");
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

fn main() {
    let cfg = parse_args();
    if let Some(path) = cfg.emit_jobs.clone() {
        emit_jobs(&cfg, &path);
        return;
    }
    println!("# Figure 3 reproduction: angle-finding strategy comparison on MaxCut");
    println!(
        "# n = {}, {} instances, p = 1..{}, {} random restarts per instance",
        cfg.n, cfg.instances, cfg.p_max, cfg.restarts
    );
    println!("# values are mean approximation ratios <C>/C_max over the instances\n");

    // Pre-build simulators and optima for all instances.
    let mut sims = Vec::new();
    let mut optima = Vec::new();
    for idx in 0..cfg.instances {
        let graph = paper_maxcut_instance(cfg.n, idx as u64);
        let obj = precompute_full(&MaxCut::new(graph));
        optima.push(obj.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
        sims.push(Simulator::new(obj, Mixer::transverse_field(cfg.n)).expect("consistent setup"));
    }

    let mut iterative_series = Series::new("extrapolated-BH");
    let mut random_series = Series::new("random-minima");
    let mut median_series = Series::new("median-angles");

    // Strategy (a): the iterative finder naturally produces all p at once per instance.
    let mut iterative_quality = vec![0.0; cfg.p_max];
    for (idx, sim) in sims.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1000 + idx as u64);
        let res = find_angles(
            sim,
            &IterativeOptions {
                target_p: cfg.p_max,
                basinhopping: BasinHoppingOptions {
                    n_hops: cfg.hops,
                    step_size: 1.0,
                    ..Default::default()
                },
                ..Default::default()
            },
            &mut rng,
        );
        for (p, _, expectation) in &res.per_round {
            iterative_quality[*p - 1] += expectation / optima[idx] / cfg.instances as f64;
        }
    }

    // Strategies (b) and (c): per round count, random restarts per instance, then the
    // median of those angles across instances.
    for p in 1..=cfg.p_max {
        let mut random_sum = 0.0;
        let mut per_instance_angles = Vec::new();
        for (idx, sim) in sims.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(9000 + (p * 97 + idx) as u64);
            let res = random_restart(
                || QaoaObjective::new(sim),
                2 * p,
                &RandomRestartOptions {
                    restarts: cfg.restarts,
                    ..Default::default()
                },
                &mut rng,
            );
            random_sum += res.maximized_value() / optima[idx];
            per_instance_angles.push(res.x);
        }
        let median = median_angles(&per_instance_angles);
        let mut median_sum = 0.0;
        for (idx, sim) in sims.iter().enumerate() {
            let e = sim
                .expectation(&Angles::from_flat(&median))
                .expect("consistent setup");
            median_sum += e / optima[idx];
        }

        iterative_series.push(p as f64, iterative_quality[p - 1]);
        random_series.push(p as f64, random_sum / cfg.instances as f64);
        median_series.push(p as f64, median_sum / cfg.instances as f64);
        eprintln!("  finished p = {p}");
    }

    println!(
        "{}",
        Series::render_table("p", &[iterative_series, random_series, median_series])
    );
    println!("# Expected shape (paper): extrapolated basin hopping ≥ random local minima ≥");
    println!("# median angles at every p, with the gap widening as p grows.");
}
