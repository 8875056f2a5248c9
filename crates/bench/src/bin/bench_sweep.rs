//! Sweep-level prefix-reuse snapshot: grid searches and finite-difference gradients
//! with and without prefix-checkpoint suffix replay, written to `BENCH_sweep.json`.
//!
//! The cached and the cold paths must return **byte-identical** best points (the
//! cache's contract is "same kernels, same reduction order, just skipped rounds");
//! this binary asserts that on every row before recording the timing.
//!
//! Usage:
//!   `cargo run --release -p juliqaoa_bench --bin bench_sweep [output.json] [--smoke]`
//!
//! The committed `BENCH_sweep.json` is a `RAYON_NUM_THREADS=1` run from the repository
//! root (so the `git` stamp resolves): with one thread each grid scan is a single
//! objective, and its reuse counts are exact.
//!
//! Every row times both paths over several repetitions, alternating them one
//! repetition at a time ([`BenchTimer::measure_pair`]), and records the minimum and
//! the median of each side; a single scan per side follows the host more than the
//! code.
//!
//! `--smoke` runs a tiny configuration for CI: it additionally asserts that prefix
//! reuse is not slower than full re-evolution (speedup ≥ 1).

use juliqaoa_bench::harness::{git_describe, BenchTimer, Times};
use juliqaoa_core::{Angles, PrefixStats, Simulator};
use juliqaoa_mixers::Mixer;
use juliqaoa_optim::{
    grid_search_ordered, qaoa_axis_order, EvalTally, GradientMethod, Objective, OptimizeResult,
    QaoaObjective, RunControl,
};
use juliqaoa_problems::{paper_maxcut_instance, precompute_full, MaxCut};
use juliqaoa_telemetry::Histogram;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct GridRow {
    n: usize,
    p: usize,
    resolution: usize,
    points: usize,
    repetitions: usize,
    full_reevolution_s: Times,
    prefix_reuse_s: Times,
    speedup: Times,
    prefix_hits: u64,
    prefix_misses: u64,
    rounds_saved: u64,
    tail_hits: u64,
    best_point_identical: bool,
    /// Per-evaluation latency quantiles (ms) on the full re-evolution path.
    full_eval_ms_p50: f64,
    full_eval_ms_p95: f64,
    full_eval_ms_p99: f64,
    /// Per-evaluation latency quantiles (ms) with prefix reuse — the tail is
    /// where suffix replay pays off.
    prefix_eval_ms_p50: f64,
    prefix_eval_ms_p95: f64,
    prefix_eval_ms_p99: f64,
}

#[derive(Serialize)]
struct GradientRow {
    n: usize,
    p: usize,
    gradient_points: usize,
    repetitions: usize,
    full_reevolution_s: Times,
    prefix_reuse_s: Times,
    speedup: Times,
    gradients_identical: bool,
    /// Per-gradient-point latency quantiles (ms) on the full path.
    full_eval_ms_p50: f64,
    full_eval_ms_p95: f64,
    full_eval_ms_p99: f64,
    /// Per-gradient-point latency quantiles (ms) with prefix reuse.
    prefix_eval_ms_p50: f64,
    prefix_eval_ms_p95: f64,
    prefix_eval_ms_p99: f64,
}

/// Wraps an [`Objective`] and records each evaluation's wall time into a
/// telemetry [`Histogram`] — observation only, the inner objective's values
/// (and therefore the asserted bit-identity) are untouched.
struct TimedObjective<'h, O> {
    inner: O,
    evals_ms: &'h Histogram,
}

impl<O: Objective> Objective for TimedObjective<'_, O> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn value(&mut self, x: &[f64]) -> f64 {
        let started = Instant::now();
        let v = self.inner.value(x);
        self.evals_ms.observe(started.elapsed().as_secs_f64() * 1e3);
        v
    }

    fn value_and_gradient(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        let started = Instant::now();
        let v = self.inner.value_and_gradient(x, grad);
        self.evals_ms.observe(started.elapsed().as_secs_f64() * 1e3);
        v
    }

    fn evaluations(&self) -> usize {
        self.inner.evaluations()
    }
}

#[derive(Serialize)]
struct Snapshot {
    description: String,
    git: String,
    cpus: usize,
    threads: usize,
    par_threshold: usize,
    grid_search: Vec<GridRow>,
    finite_difference_gradient: Vec<GradientRow>,
}

fn simulator(n: usize) -> Simulator {
    let graph = paper_maxcut_instance(n, 0);
    let obj = precompute_full(&MaxCut::new(graph));
    Simulator::new(obj, Mixer::transverse_field(n)).expect("consistent setup")
}

/// One ordered grid scan; `cached` toggles prefix reuse on the objective.
fn scan(
    sim: &Simulator,
    p: usize,
    resolution: usize,
    cached: bool,
    evals_ms: &Histogram,
) -> (OptimizeResult, PrefixStats) {
    let order = qaoa_axis_order(p);
    let tau = 2.0 * std::f64::consts::PI;
    let tally = EvalTally::default();
    let res = grid_search_ordered(
        || {
            let obj = QaoaObjective::new(sim).with_tally(&tally);
            let obj = if cached {
                obj
            } else {
                obj.without_prefix_reuse()
            };
            TimedObjective {
                inner: obj,
                evals_ms,
            }
        },
        2 * p,
        0.0,
        tau,
        resolution,
        &order,
        &RunControl::new(),
    );
    (res, tally.prefix_stats())
}

fn grid_row(sim: &Simulator, n: usize, p: usize, resolution: usize, reps: usize) -> GridRow {
    let cold_ms = Histogram::latency_ms();
    let warm_ms = Histogram::latency_ms();
    let (mut cold, mut warm) = (None, None);
    let (cold_time, warm_time) = BenchTimer::new(reps).measure_pair(
        || cold = Some(scan(sim, p, resolution, false, &cold_ms).0),
        || warm = Some(scan(sim, p, resolution, true, &warm_ms)),
    );
    let cold = cold.expect("the cold scan ran");
    let (warm, stats) = warm.expect("the warm scan ran");
    let identical = cold.value.to_bits() == warm.value.to_bits()
        && cold.x.len() == warm.x.len()
        && cold
            .x
            .iter()
            .zip(warm.x.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        identical,
        "prefix reuse changed the grid result at n={n} p={p} r={resolution}: \
         {:?} vs {:?}",
        cold.x, warm.x
    );
    let speedup = Times::ratio(cold_time, warm_time);
    let cold_lat = cold_ms.snapshot();
    let warm_lat = warm_ms.snapshot();
    eprintln!(
        "grid  n={n:2} p={p} r={resolution:2} ({:>6} pts)  full {:7.3}s  \
         prefix {:7.3}s  speedup {:4.2}x (min {:4.2}x)  \
         eval p50 {:.3} -> {:.3} ms  (hits {}, tail {}, rounds saved {})",
        cold.function_evals,
        cold_time.median.as_secs_f64(),
        warm_time.median.as_secs_f64(),
        speedup.median,
        speedup.min,
        cold_lat.quantile(0.50),
        warm_lat.quantile(0.50),
        stats.hits,
        stats.tail_hits,
        stats.rounds_saved
    );
    GridRow {
        n,
        p,
        resolution,
        points: cold.function_evals,
        repetitions: reps,
        full_reevolution_s: Times::of(cold_time, 1.0),
        prefix_reuse_s: Times::of(warm_time, 1.0),
        speedup,
        prefix_hits: stats.hits,
        prefix_misses: stats.misses,
        rounds_saved: stats.rounds_saved,
        tail_hits: stats.tail_hits,
        best_point_identical: identical,
        full_eval_ms_p50: cold_lat.quantile(0.50),
        full_eval_ms_p95: cold_lat.quantile(0.95),
        full_eval_ms_p99: cold_lat.quantile(0.99),
        prefix_eval_ms_p50: warm_lat.quantile(0.50),
        prefix_eval_ms_p95: warm_lat.quantile(0.95),
        prefix_eval_ms_p99: warm_lat.quantile(0.99),
    }
}

/// Central finite differences at a trail of points; the O(p) gradient the cache turns
/// into suffix replays (each coordinate perturbation shares its leading rounds).
fn gradient_row(sim: &Simulator, n: usize, p: usize, points: usize, reps: usize) -> GradientRow {
    let eps = 1e-6;
    let xs: Vec<Vec<f64>> = (0..points)
        .map(|i| {
            Angles::random(
                p,
                &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(i as u64),
            )
            .to_flat()
        })
        .collect();
    let run = |cached: bool, point_ms: &Histogram| -> Vec<f64> {
        let obj =
            QaoaObjective::with_gradient_method(sim, GradientMethod::FiniteDifference { eps });
        let mut obj = if cached {
            obj
        } else {
            obj.without_prefix_reuse()
        };
        let mut grads = Vec::with_capacity(points * 2 * p);
        let mut grad = vec![0.0; 2 * p];
        for x in &xs {
            let point_started = Instant::now();
            let v = obj.value_and_gradient(x, &mut grad);
            point_ms.observe(point_started.elapsed().as_secs_f64() * 1e3);
            grads.push(v);
            grads.extend_from_slice(&grad);
        }
        grads
    };
    let cold_ms = Histogram::latency_ms();
    let warm_ms = Histogram::latency_ms();
    let (mut cold_grads, mut warm_grads) = (Vec::new(), Vec::new());
    let (cold_time, warm_time) = BenchTimer::new(reps).measure_pair(
        || cold_grads = run(false, &cold_ms),
        || warm_grads = run(true, &warm_ms),
    );
    let identical = cold_grads.len() == warm_grads.len()
        && cold_grads
            .iter()
            .zip(warm_grads.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        identical,
        "prefix reuse changed an FD gradient at n={n} p={p}"
    );
    let speedup = Times::ratio(cold_time, warm_time);
    let cold_lat = cold_ms.snapshot();
    let warm_lat = warm_ms.snapshot();
    eprintln!(
        "grad  n={n:2} p={p} ({points} points)        full {:7.3}s  \
         prefix {:7.3}s  speedup {:4.2}x (min {:4.2}x)  \
         point p50 {:.3} -> {:.3} ms",
        cold_time.median.as_secs_f64(),
        warm_time.median.as_secs_f64(),
        speedup.median,
        speedup.min,
        cold_lat.quantile(0.50),
        warm_lat.quantile(0.50),
    );
    GradientRow {
        n,
        p,
        gradient_points: points,
        repetitions: reps,
        full_reevolution_s: Times::of(cold_time, 1.0),
        prefix_reuse_s: Times::of(warm_time, 1.0),
        speedup,
        gradients_identical: identical,
        full_eval_ms_p50: cold_lat.quantile(0.50),
        full_eval_ms_p95: cold_lat.quantile(0.95),
        full_eval_ms_p99: cold_lat.quantile(0.99),
        prefix_eval_ms_p50: warm_lat.quantile(0.50),
        prefix_eval_ms_p95: warm_lat.quantile(0.95),
        prefix_eval_ms_p99: warm_lat.quantile(0.99),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let output = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());

    // (n, p, resolution) grid scans and an (n, p, points) gradient trail.
    let grid_configs: Vec<(usize, usize, usize)> = if smoke {
        vec![(8, 3, 4)]
    } else {
        vec![(12, 2, 8), (12, 3, 5), (12, 4, 3)]
    };
    let grad_configs: Vec<(usize, usize, usize)> = if smoke {
        vec![(8, 3, 20)]
    } else {
        vec![(12, 4, 40)]
    };

    let reps = if smoke { 3 } else { 7 };
    let mut grid_rows = Vec::new();
    for &(n, p, resolution) in &grid_configs {
        let sim = simulator(n);
        grid_rows.push(grid_row(&sim, n, p, resolution, reps));
    }
    let mut grad_rows = Vec::new();
    for &(n, p, points) in &grad_configs {
        let sim = simulator(n);
        grad_rows.push(gradient_row(&sim, n, p, points, reps));
    }

    if smoke {
        for row in &grid_rows {
            assert!(
                row.speedup.median >= 1.0,
                "smoke: prefix reuse must not be slower (got {:.2}x at p={})",
                row.speedup.median,
                row.p
            );
        }
    }

    let snapshot = Snapshot {
        description: "prefix-state reuse in angle sweeps: suffix-major grid search and \
                      finite-difference gradients with prefix-checkpoint suffix replay vs full \
                      re-evolution (MaxCut G(n,0.5), transverse-field mixer); best points \
                      and gradients asserted byte-identical between the two paths; each \
                      time (s) and speedup is a {min, median} pair over `repetitions` runs \
                      of each path, the two paths alternating one run at a time"
            .to_string(),
        git: git_describe(),
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: rayon::current_num_threads(),
        par_threshold: juliqaoa_linalg::par_threshold(),
        grid_search: grid_rows,
        finite_difference_gradient: grad_rows,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    std::fs::write(&output, json).expect("snapshot file is writable");
    eprintln!("wrote {output}");
}
