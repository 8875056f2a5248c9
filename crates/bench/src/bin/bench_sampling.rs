//! Shot-sampling throughput snapshot, written to `BENCH_sampling.json`.
//!
//! Measures the two phases of the alias sampler separately per feasible-set
//! dimension:
//!
//! * **build** — the O(dim) alias-table construction from a final statevector;
//! * **draw**  — O(1)-per-shot batched sampling, serial and with the sharded rayon
//!   fan-out.
//!
//! The headline claim is O(1) per shot: draw throughput (shots/sec) must stay flat
//! as the dimension grows, with only the build cost scaling.  Every row also asserts
//! the serial and parallel shard schedules produce **bit-identical** histograms (the
//! sampler's determinism contract).
//!
//! The `grover_sampled_eval` rows time one sampled objective evaluation of a Grover-mixer
//! job (random 3-SAT at clause density 6, p = 2, CVaR-0.2 over 2,048 shots) on the
//! full-state simulator and in class space (`Simulator::grover_classes`, one amplitude
//! per distinct value), with kernels pinned serial as the job service's workers run
//! them.  Each row asserts the two agree on the exact expectation to 1e-10 relative.
//!
//! The `full_state_sampled_eval` rows time one sampled evaluation (the same CVaR-0.2
//! over 2,048 shots, drawn as per-class counts over the phase classes) against one
//! exact evaluation of transverse-field MaxCut at p = 2, serial kernels, no prefix
//! reuse, the two alternating point by point: what sampling adds to an evaluation.
//!
//! Usage:
//!   `cargo run --release -p juliqaoa_bench --bin bench_sampling [output.json] [--smoke]`
//!
//! `--smoke` runs a small configuration for CI and asserts the flat-throughput
//! property (largest-dim draw rate within 5x of the smallest-dim rate — a loose
//! bound that still fails if drawing ever becomes O(dim)) and that a sampled
//! evaluation costs at most 2x an exact one.

use juliqaoa_bench::git_describe;
use juliqaoa_core::{Angles, Simulator};
use juliqaoa_mixers::Mixer;
use juliqaoa_optim::{Objective, QaoaObjective, SampledObjective};
use juliqaoa_problems::{
    paper_maxcut_instance, paper_sat_instance_with, precompute_full, DegeneracyTable, MaxCut,
};
use juliqaoa_sampling::{SampleState, ShotEstimator, StateSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    n: usize,
    dim: usize,
    shots: u64,
    build_s: f64,
    draw_serial_s: f64,
    draw_parallel_s: f64,
    shots_per_sec_serial: f64,
    shots_per_sec_parallel: f64,
    parallel_speedup: f64,
    histograms_identical: bool,
}

#[derive(Serialize)]
struct GroverRow {
    n: usize,
    dim: usize,
    classes: usize,
    shots: u64,
    full_state_us_per_eval: f64,
    class_space_us_per_eval: f64,
    speedup: f64,
    max_relative_gap: f64,
}

#[derive(Serialize)]
struct FullStateRow {
    n: usize,
    dim: usize,
    classes: usize,
    shots: u64,
    exact_us_per_eval: f64,
    sampled_us_per_eval: f64,
    sampled_over_exact: f64,
}

#[derive(Serialize)]
struct Snapshot {
    description: String,
    git: String,
    cpus: usize,
    threads: usize,
    par_threshold: usize,
    shot_shard_size: u64,
    rows: Vec<Row>,
    grover_sampled_eval: Vec<GroverRow>,
    full_state_sampled_eval: Vec<FullStateRow>,
}

/// Shots per sampled Grover evaluation, as in the `sampled-grid` service workload.
const GROVER_SHOTS: u64 = 2048;

/// Mean µs per cold `SampledObjective` evaluation over `points` (no prefix reuse:
/// every evaluation evolves both rounds and draws its shots).
fn us_per_sampled_eval(sim: &Simulator, points: &[Vec<f64>]) -> f64 {
    let estimator = ShotEstimator::CVaR { alpha: 0.2 };
    let mut objective =
        SampledObjective::new(sim, GROVER_SHOTS, estimator, 0x5A3).without_prefix_reuse();
    black_box(objective.value(&points[0]));
    let started = Instant::now();
    for x in points {
        black_box(objective.value(x));
    }
    started.elapsed().as_secs_f64() * 1e6 / points.len() as f64
}

fn full_state_row(n: usize) -> FullStateRow {
    let obj = precompute_full(&MaxCut::new(paper_maxcut_instance(n, 0)));
    let sim = Simulator::new(obj, Mixer::transverse_field(n)).expect("consistent setup");
    let classes = sim
        .phase_classes()
        .expect("MaxCut values are compressible")
        .num_classes();
    let mut rng = StdRng::seed_from_u64(13);
    // A few tenths of a second of evaluations at every n.
    let count = ((1usize << 22) >> n).clamp(8, 2000);
    let points: Vec<Vec<f64>> = (0..count)
        .map(|_| Angles::random(2, &mut rng).to_flat())
        .collect();
    // Exact and sampled evaluations alternate point by point, so drift in the
    // machine's speed lands on both alike.
    let mut exact = QaoaObjective::new(&sim).without_prefix_reuse();
    let estimator = ShotEstimator::CVaR { alpha: 0.2 };
    let mut sampled =
        SampledObjective::new(&sim, GROVER_SHOTS, estimator, 0x5A3).without_prefix_reuse();
    black_box((exact.value(&points[0]), sampled.value(&points[0])));
    let (mut exact_s, mut sampled_s) = (0.0, 0.0);
    for x in &points {
        let started = Instant::now();
        black_box(exact.value(x));
        exact_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        black_box(sampled.value(x));
        sampled_s += started.elapsed().as_secs_f64();
    }
    let exact_us = exact_s * 1e6 / count as f64;
    let sampled_us = sampled_s * 1e6 / count as f64;
    let row = FullStateRow {
        n,
        dim: sim.dim(),
        classes,
        shots: GROVER_SHOTS,
        exact_us_per_eval: exact_us,
        sampled_us_per_eval: sampled_us,
        sampled_over_exact: sampled_us / exact_us,
    };
    eprintln!(
        "full state n={n:2} dim={:>8} classes={:>3}  exact eval {:9.1}µs  sampled eval \
         {:9.1}µs  ({:4.2}x)",
        row.dim, row.classes, exact_us, sampled_us, row.sampled_over_exact
    );
    row
}

fn grover_row(n: usize) -> GroverRow {
    let values = precompute_full(&paper_sat_instance_with(n, 3, 6.0, 0));
    let table = DegeneracyTable::from_entries(values.iter().map(|&v| (v, 1)));
    let full = Simulator::new(values, Mixer::grover_full(n)).expect("consistent setup");
    let classes = Simulator::grover_classes(&table).expect("consistent setup");
    let mut rng = StdRng::seed_from_u64(11);
    let points: Vec<Vec<f64>> = (0..2000)
        .map(|_| Angles::random(2, &mut rng).to_flat())
        .collect();

    let max_relative_gap = points[..10]
        .iter()
        .map(|x| {
            let angles = Angles::from_flat(x);
            let a = full.expectation(&angles).expect("consistent setup");
            let b = classes.expectation(&angles).expect("consistent setup");
            (a - b).abs() / a.abs().max(b.abs()).max(1.0)
        })
        .fold(0.0, f64::max);
    assert!(
        max_relative_gap <= 1e-10,
        "class space disagrees with the full state at n={n}: {max_relative_gap:e}"
    );

    // About a quarter second of full-state evaluations at every n.
    let full_points = &points[..((1usize << 24) >> n).clamp(10, points.len())];
    let full_us = us_per_sampled_eval(&full, full_points);
    // Ten passes over the points: a class-space evaluation takes microseconds.
    let passes: Vec<Vec<f64>> = (0..10).flat_map(|_| points.iter().cloned()).collect();
    let class_us = us_per_sampled_eval(&classes, &passes);
    let row = GroverRow {
        n,
        dim: full.dim(),
        classes: classes.dim(),
        shots: GROVER_SHOTS,
        full_state_us_per_eval: full_us,
        class_space_us_per_eval: class_us,
        speedup: full_us / class_us,
        max_relative_gap,
    };
    eprintln!(
        "grover n={n:2} dim={:>8} classes={:>3}  sampled eval: full {:10.1}µs  class space \
         {:7.1}µs  ({:6.1}x)  max gap {:.1e}",
        row.dim, row.classes, full_us, class_us, row.speedup, max_relative_gap
    );
    row
}

fn sampler_for(n: usize) -> StateSampler {
    let obj = precompute_full(&MaxCut::new(paper_maxcut_instance(n, 0)));
    let sim = Simulator::new(obj, Mixer::transverse_field(n)).expect("consistent setup");
    let angles = Angles::random(2, &mut StdRng::seed_from_u64(7));
    let result = sim.simulate(&angles).expect("simulation succeeds");
    // Time only the draw below; this warms everything up to the final state.
    result.sampler(0xBE2C)
}

fn row(n: usize, shots: u64) -> Row {
    let obj = precompute_full(&MaxCut::new(paper_maxcut_instance(n, 0)));
    let sim = Simulator::new(obj, Mixer::transverse_field(n)).expect("consistent setup");
    let angles = Angles::random(2, &mut StdRng::seed_from_u64(7));
    let result = sim.simulate(&angles).expect("simulation succeeds");

    let started = Instant::now();
    let sampler = result.sampler(0xBE2C);
    let build_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let serial = sampler.sample_counts_with_parallelism(shots, false);
    let draw_serial_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let parallel = sampler.sample_counts_with_parallelism(shots, true);
    let draw_parallel_s = started.elapsed().as_secs_f64();

    let identical = serial == parallel;
    assert!(
        identical,
        "shard fan-out changed the histogram at n={n} — determinism contract broken"
    );

    let row = Row {
        n,
        dim: sampler.dim(),
        shots,
        build_s,
        draw_serial_s,
        draw_parallel_s,
        shots_per_sec_serial: shots as f64 / draw_serial_s,
        shots_per_sec_parallel: shots as f64 / draw_parallel_s,
        parallel_speedup: draw_serial_s / draw_parallel_s,
        histograms_identical: identical,
    };
    eprintln!(
        "n={n:2} dim={:>8}  build {:8.2}ms  draw {:>7.1}k shots: serial {:8.2}ms \
         ({:>6.1}M/s)  parallel {:8.2}ms ({:>6.1}M/s, {:4.2}x)",
        row.dim,
        row.build_s * 1e3,
        shots as f64 / 1e3,
        row.draw_serial_s * 1e3,
        row.shots_per_sec_serial / 1e6,
        row.draw_parallel_s * 1e3,
        row.shots_per_sec_parallel / 1e6,
        row.parallel_speedup,
    );
    row
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let output = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_sampling.json".to_string());

    let (ns, shots): (Vec<usize>, u64) = if smoke {
        (vec![6, 10, 14], 1 << 18)
    } else {
        (vec![8, 12, 16, 18, 20], 1 << 21)
    };

    // Warm the thread pool / allocator off the clock.
    let _ = sampler_for(6).sample_counts(1 << 12);

    let rows: Vec<Row> = ns.iter().map(|&n| row(n, shots)).collect();

    let grover_ns: Vec<usize> = if smoke {
        vec![10, 14]
    } else {
        vec![14, 16, 18, 20]
    };
    let full_state_ns: Vec<usize> = if smoke { vec![10, 14] } else { vec![14, 18] };
    let (grover_rows, full_state_rows): (Vec<GroverRow>, Vec<FullStateRow>) = {
        // Serial kernels, as the job service's workers run them.
        let _serial = juliqaoa_linalg::enter_outer_parallelism();
        (
            grover_ns.iter().map(|&n| grover_row(n)).collect(),
            full_state_ns.iter().map(|&n| full_state_row(n)).collect(),
        )
    };

    if smoke {
        // O(1)-per-shot: the draw rate must be flat in dim.  5x covers cache effects
        // on CI boxes while still catching an O(dim) regression (the smoke dims span
        // a 256x dimension range).
        let first = rows.first().expect("rows non-empty").shots_per_sec_serial;
        let last = rows.last().expect("rows non-empty").shots_per_sec_serial;
        assert!(
            last * 5.0 >= first,
            "draw throughput collapsed with dimension: {first:.0} -> {last:.0} shots/s"
        );
        // Per-class counts cost O(classes): sampling must not dominate an evaluation.
        // (The bar is 1.3x; 2x keeps the smoke clear of timing noise on shared CI.)
        for row in &full_state_rows {
            assert!(
                row.sampled_over_exact <= 2.0,
                "a sampled eval costs {:.2}x an exact one at n={}",
                row.sampled_over_exact,
                row.n
            );
        }
    }

    let snapshot = Snapshot {
        description: "alias-method shot sampling from QAOA final states (MaxCut G(n,0.5), \
                      transverse-field mixer, p=2): O(dim) table build vs O(1)-per-shot \
                      draw, serial vs sharded-parallel batching; histograms asserted \
                      bit-identical across shard schedules. grover_sampled_eval: mean µs \
                      per cold CVaR-0.2 sampled evaluation (2048 shots, p=2, random 3-SAT \
                      at density 6, serial kernels) on the full-state simulator vs in \
                      Grover class space; exact expectations asserted within 1e-10. \
                      full_state_sampled_eval: mean µs per cold sampled evaluation (the \
                      same CVaR-0.2 over 2048 shots, drawn as per-class counts) vs per \
                      cold exact evaluation, transverse-field MaxCut G(n,0.5), p=2, serial \
                      kernels, the two alternating point by point"
            .to_string(),
        git: git_describe(),
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: rayon::current_num_threads(),
        par_threshold: juliqaoa_linalg::par_threshold(),
        shot_shard_size: juliqaoa_sampling::SHOT_SHARD_SIZE,
        rows,
        grover_sampled_eval: grover_rows,
        full_state_sampled_eval: full_state_rows,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    std::fs::write(&output, json).expect("snapshot file is writable");
    eprintln!("wrote {output}");
}
