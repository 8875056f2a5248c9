//! Kernel performance snapshot: dense vs table-driven phase separator, fused vs
//! unfused Grover rounds, the Walsh–Hadamard transform on its default and serial
//! schedules, Pauli-X expectation and adjoint-gradient calls with their transform
//! counts, the matrix-free Clique/Ring mixers (build, evolution at two angles,
//! Hamiltonian apply; against the dense eigendecomposition where that is affordable),
//! cost-function precomputation (serial loop, `precompute_full`, `degeneracies_full`)
//! and a constrained problem on its Dicke subspace against the same problem as a
//! full-space penalty, written to `BENCH_kernels.json` with the git revision and CPU
//! count.
//!
//! Kernel numbers live here and in the figure binaries, nowhere else: run it on a
//! quiet machine and commit the JSON to compare across changes.  Every timing is
//! recorded as the minimum and the median over its repetitions, and the two sides of
//! each comparison row are timed alternately, one repetition at a time, so host drift
//! that outlasts a repetition slows both sides alike and their ratio survives it.
//!
//! Usage: `cargo run --release -p juliqaoa_bench --bin bench_kernels [output.json]`

use juliqaoa_bench::harness::{git_describe, BenchTimer, Timing};
use juliqaoa_combinatorics::DickeSubspace;
use juliqaoa_core::{adjoint_gradient, Angles, Simulator};
use juliqaoa_linalg::{enter_outer_parallelism, vector, walsh, Complex64};
use juliqaoa_mixers::{build_xy_hamiltonian, CustomMixer, Mixer, XYCoupling};
use juliqaoa_problems::{
    degeneracies_full, paper_maxcut_instance, precompute_dicke, precompute_full, CostFunction,
    DensestKSubgraph, MaxCut, PhaseClasses,
};
use juliqaoa_telemetry::kernels;
use serde::Serialize;
use std::hint::black_box;

/// One timing, the minimum and the median over its repetitions, in the unit its
/// field name gives; for a ratio, the ratio of the minima and of the medians.
#[derive(Serialize)]
struct Times {
    min: f64,
    median: f64,
}

impl Times {
    /// `t` in units of `1 / per_second` seconds.
    fn of(t: Timing, per_second: f64) -> Self {
        let scale = per_second / NS;
        Times {
            min: t.min.as_nanos() as f64 * scale,
            median: t.median.as_nanos() as f64 * scale,
        }
    }

    /// `num / den`, for the minima and for the medians.
    fn ratio(num: Timing, den: Timing) -> Self {
        Times {
            min: num.min.as_secs_f64() / den.min.as_secs_f64(),
            median: num.median.as_secs_f64() / den.median.as_secs_f64(),
        }
    }
}

const NS: f64 = 1e9;
const US: f64 = 1e6;
const MS: f64 = 1e3;

#[derive(Serialize)]
struct PhaseSeparatorRow {
    n: usize,
    distinct_values: usize,
    dense_cis_ns: Times,
    table_driven_ns: Times,
    speedup: Times,
}

#[derive(Serialize)]
struct GroverRoundRow {
    n: usize,
    rounds: usize,
    unfused_dense_ns: Times,
    fused_table_ns: Times,
    speedup: Times,
}

#[derive(Serialize)]
struct WalshHadamardRow {
    n: usize,
    /// `walsh_hadamard` as the simulator calls it: the parallel schedule from
    /// `par_threshold()` amplitudes up, the serial one below.
    default_ns: Times,
    /// The serial schedule (the call under an outer-parallelism guard).
    serial_ns: Times,
    /// Computed, not measured: the radix-2 definition's traffic (each of the `n`
    /// stages reads and writes every 16-byte amplitude) over `default_ns.min`.
    gb_per_s_computed: f64,
}

#[derive(Serialize)]
struct PauliXGradientRow {
    n: usize,
    p: usize,
    /// `Simulator::expectation_with`, transverse-field MaxCut.
    expectation_us: Times,
    /// `adjoint_gradient` at the same point (its own cold forward pass included).
    adjoint_gradient_us: Times,
    /// `KERNELS.wht_passes` delta over one `adjoint_gradient` call.
    transforms_per_gradient: u64,
}

#[derive(Serialize)]
struct XyMixerRow {
    coupling: String,
    n: usize,
    k: usize,
    dim: usize,
    /// `Mixer::bytes()`: the hop tables the mixer keeps.
    bytes: usize,
    build_ms: Times,
    apply_us_beta_0_3: Times,
    apply_us_beta_3_0: Times,
    hamiltonian_us: Times,
    /// The dense eigendecomposition it replaces, where that still fits in seconds
    /// (its build is timed once).
    dense_build_ms: Option<f64>,
    dense_apply_us: Option<Times>,
    max_abs_diff_vs_dense: Option<f64>,
}

#[derive(Serialize)]
struct PrecomputeRow {
    n: usize,
    /// `CostFunction::evaluate` over all `2ⁿ` states in a plain serial loop.
    serial_evaluate_ms: Times,
    /// `precompute_full`: the same values, computed in parallel chunks.
    precompute_full_ms: Times,
    /// `degeneracies_full`: the `(value, count)` table of the class-space Grover path.
    degeneracies_full_ms: Times,
}

#[derive(Serialize)]
struct ConstrainedSubspaceRow {
    n: usize,
    k: usize,
    /// p = 3 `expectation_with` of Densest-k-Subgraph on the `C(n,k)` Dicke subspace
    /// with the Clique mixer.
    dicke_clique_us: Times,
    /// The same objective on the full `2ⁿ` space, infeasible states penalised, with
    /// the transverse-field mixer: what a tool without subspace support runs.
    full_space_penalty_us: Times,
    /// `dicke_clique_us / full_space_penalty_us`.
    subspace_over_penalty: Times,
}

#[derive(Serialize)]
struct Snapshot {
    description: String,
    git: String,
    cpus: usize,
    threads: usize,
    par_threshold: usize,
    phase_separator: Vec<PhaseSeparatorRow>,
    grover_round: Vec<GroverRoundRow>,
    walsh_hadamard: Vec<WalshHadamardRow>,
    pauli_x_gradient: Vec<PauliXGradientRow>,
    xy_mixer: Vec<XyMixerRow>,
    precompute: Vec<PrecomputeRow>,
    constrained_subspace: Vec<ConstrainedSubspaceRow>,
}

/// A normalised state with weight in every eigenspace (the uniform Dicke state would
/// be a single Clique eigenvector).
fn generic_state(dim: usize) -> Vec<Complex64> {
    let mut v: Vec<Complex64> = (0..dim)
        .map(|i| Complex64::new((i as f64 * 0.61).sin(), (i as f64 * 0.37).cos()))
        .collect();
    vector::normalize(&mut v);
    v
}

fn walsh_hadamard_row(n: usize) -> WalshHadamardRow {
    let reps = match n {
        ..=16 => 50,
        17..=20 => 10,
        _ => 3,
    };
    let timer = BenchTimer::new(reps);
    // Both sides transform their own state: the pair alternates, and neither
    // should see the other's output as its input.
    let (mut psi, mut phi) = (generic_state(1 << n), generic_state(1 << n));
    let (default, serial) = timer.measure_pair(
        || walsh::walsh_hadamard(black_box(&mut psi)),
        || {
            let _serial = enter_outer_parallelism();
            walsh::walsh_hadamard(black_box(&mut phi));
        },
    );
    let bytes = 2.0 * 16.0 * (1u64 << n) as f64 * n as f64;
    WalshHadamardRow {
        n,
        gb_per_s_computed: bytes / (default.min.as_secs_f64() * NS),
        default_ns: Times::of(default, NS),
        serial_ns: Times::of(serial, NS),
    }
}

fn pauli_x_gradient_row(n: usize, p: usize) -> PauliXGradientRow {
    let obj = precompute_full(&MaxCut::new(paper_maxcut_instance(n, 0)));
    let sim = Simulator::new(obj, Mixer::transverse_field(n)).expect("setup");
    let angles = Angles::linear_ramp(p, 0.5);
    let mut ws = sim.workspace();
    let timer = BenchTimer::new(20);
    let expectation = timer.measure(|| {
        black_box(sim.expectation_with(&angles, &mut ws).expect("setup"));
    });
    let gradient = timer.measure(|| {
        black_box(adjoint_gradient(&sim, &angles, &mut ws).expect("setup"));
    });
    let before = kernels::snapshot();
    black_box(adjoint_gradient(&sim, &angles, &mut ws).expect("setup"));
    let transforms = kernels::snapshot().delta(&before).wht_passes;
    PauliXGradientRow {
        n,
        p,
        expectation_us: Times::of(expectation, US),
        adjoint_gradient_us: Times::of(gradient, US),
        transforms_per_gradient: transforms,
    }
}

fn xy_mixer_row(coupling: XYCoupling, n: usize, k: usize) -> XyMixerRow {
    let reps = if n >= 16 { 3 } else { 7 };
    let timer = BenchTimer::new(reps);
    let build = || match coupling {
        XYCoupling::Clique => Mixer::clique(n, k),
        XYCoupling::Ring => Mixer::ring(n, k),
    };
    let build_time = timer.measure(|| drop(black_box(build())));
    let mixer = build();
    let dim = mixer.dim();
    let mut psi = generic_state(dim);
    let mut scratch = vec![Complex64::ZERO; dim];
    let mut apply = |beta: f64| {
        timer.measure(|| mixer.apply_evolution(beta, black_box(&mut psi), &mut scratch))
    };
    let (small, large) = (apply(0.3), apply(3.0));
    let hamiltonian = timer.measure(|| {
        mixer.apply_hamiltonian(black_box(&mut psi), &mut scratch);
        vector::normalize(&mut psi);
    });
    let mut row = XyMixerRow {
        coupling: format!("{coupling:?}").to_lowercase(),
        n,
        k,
        dim,
        bytes: mixer.bytes(),
        build_ms: Times::of(build_time, MS),
        apply_us_beta_0_3: Times::of(small, US),
        apply_us_beta_3_0: Times::of(large, US),
        hamiltonian_us: Times::of(hamiltonian, US),
        dense_build_ms: None,
        dense_apply_us: None,
        max_abs_diff_vs_dense: None,
    };
    if n <= 12 {
        let dense_timer = BenchTimer::new(1);
        let h = build_xy_hamiltonian(&DickeSubspace::new(n, k), coupling);
        let mut dense = None;
        let dense_build = dense_timer.measure(|| {
            dense = Some(Mixer::Subspace(CustomMixer::from_symmetric("dense", &h)));
        });
        let dense = dense.expect("the dense reference was built");
        let dense_apply = timer.measure(|| {
            dense.apply_evolution(0.3, black_box(&mut psi), &mut scratch);
        });
        let mut worst = 0.0f64;
        for beta in [0.3, 3.0, -7.9] {
            let orig = generic_state(dim);
            let (mut a, mut b) = (orig.clone(), orig);
            mixer.apply_evolution(beta, &mut a, &mut scratch);
            dense.apply_evolution(beta, &mut b, &mut scratch);
            worst = worst.max(vector::max_abs_diff(&a, &b));
        }
        assert!(
            worst <= 1e-12,
            "{coupling:?}({n},{k}) departs from the dense reference by {worst:e}"
        );
        row.dense_build_ms = Some(dense_build.min.as_secs_f64() * MS);
        row.dense_apply_us = Some(Times::of(dense_apply, US));
        row.max_abs_diff_vs_dense = Some(worst);
    }
    row
}

fn precompute_row(n: usize) -> PrecomputeRow {
    let cost = MaxCut::new(paper_maxcut_instance(n, 0));
    let timer = BenchTimer::new(if n >= 18 { 5 } else { 7 });
    let serial = timer.measure(|| {
        let values: Vec<f64> = (0..1u64 << n).map(|x| cost.evaluate(x)).collect();
        black_box(values);
    });
    let full = timer.measure(|| drop(black_box(precompute_full(&cost))));
    let workers = rayon::current_num_threads();
    let degeneracies = timer.measure(|| drop(black_box(degeneracies_full(&cost, workers))));
    PrecomputeRow {
        n,
        serial_evaluate_ms: Times::of(serial, MS),
        precompute_full_ms: Times::of(full, MS),
        degeneracies_full_ms: Times::of(degeneracies, MS),
    }
}

fn constrained_subspace_row(n: usize, k: usize) -> ConstrainedSubspaceRow {
    let problem = DensestKSubgraph::new(paper_maxcut_instance(n, 1), k);
    let angles = Angles::linear_ramp(3, 0.5);
    let subspace = precompute_dicke(&problem, &DickeSubspace::new(n, k));
    let dicke = Simulator::new(subspace, Mixer::clique(n, k)).expect("setup");
    let penalty = (n * n) as f64;
    let penalised: Vec<f64> = (0..1u64 << n)
        .map(|x| problem.evaluate(x) - penalty * x.count_ones().abs_diff(k as u32) as f64)
        .collect();
    let full = Simulator::new(penalised, Mixer::transverse_field(n)).expect("setup");
    let (mut ws_dicke, mut ws_full) = (dicke.workspace(), full.workspace());
    let (dicke_time, full_time) = BenchTimer::new(50).measure_pair(
        || {
            black_box(
                dicke
                    .expectation_with(&angles, &mut ws_dicke)
                    .expect("setup"),
            );
        },
        || {
            black_box(full.expectation_with(&angles, &mut ws_full).expect("setup"));
        },
    );
    ConstrainedSubspaceRow {
        n,
        k,
        subspace_over_penalty: Times::ratio(dicke_time, full_time),
        dicke_clique_us: Times::of(dicke_time, US),
        full_space_penalty_us: Times::of(full_time, US),
    }
}

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());

    let mut phase_rows = Vec::new();
    let mut grover_rows = Vec::new();

    for &(n, reps) in &[(16usize, 7usize), (20, 5), (24, 3)] {
        let graph = paper_maxcut_instance(n, 0);
        let obj = precompute_full(&MaxCut::new(graph));
        let classes = PhaseClasses::build(&obj).expect("MaxCut compresses");
        let timer = BenchTimer::new(reps);

        // Dense vs table-driven phase separator, each on its own live statevector.
        let mut psi = vec![Complex64::ZERO; 1 << n];
        vector::fill_uniform(&mut psi);
        let mut phi = psi.clone();
        let mut table = Vec::new();
        let (dense, table_driven) = timer.measure_pair(
            || vector::apply_phases(black_box(&mut psi), black_box(&obj), 0.37),
            || {
                vector::build_phase_table(classes.distinct_values(), 0.37, &mut table);
                vector::apply_phases_indexed(black_box(&mut phi), classes.class_indices(), &table);
            },
        );
        let row = PhaseSeparatorRow {
            n,
            distinct_values: classes.num_classes(),
            dense_cis_ns: Times::of(dense, NS),
            table_driven_ns: Times::of(table_driven, NS),
            speedup: Times::ratio(dense, table_driven),
        };
        println!(
            "phase separator  n={n:2}  dense {:>12.1} µs   table {:>12.1} µs   speedup {:.2}x \
             (median {:.2}x)",
            row.dense_cis_ns.min / 1e3,
            row.table_driven_ns.min / 1e3,
            row.speedup.min,
            row.speedup.median
        );
        phase_rows.push(row);

        // Fused vs unfused GM-QAOA evaluation (p = 3).
        let rounds = 3;
        let angles = Angles::linear_ramp(rounds, 0.5);
        let fused = Simulator::new(obj.clone(), Mixer::grover_full(n)).expect("setup");
        let unfused = fused.clone().with_dense_phases();
        let (mut ws_unfused, mut ws_fused) = (unfused.workspace(), fused.workspace());
        let (unfused_time, fused_time) = timer.measure_pair(
            || {
                black_box(
                    unfused
                        .expectation_with(&angles, &mut ws_unfused)
                        .expect("setup"),
                );
            },
            || {
                black_box(
                    fused
                        .expectation_with(&angles, &mut ws_fused)
                        .expect("setup"),
                );
            },
        );
        let row = GroverRoundRow {
            n,
            rounds,
            unfused_dense_ns: Times::of(unfused_time, NS),
            fused_table_ns: Times::of(fused_time, NS),
            speedup: Times::ratio(unfused_time, fused_time),
        };
        println!(
            "grover round p=3 n={n:2}  dense {:>12.1} µs   fused {:>12.1} µs   speedup {:.2}x \
             (median {:.2}x)",
            row.unfused_dense_ns.min / 1e3,
            row.fused_table_ns.min / 1e3,
            row.speedup.min,
            row.speedup.median
        );
        grover_rows.push(row);
    }

    let mut wht_rows = Vec::new();
    for n in [12, 14, 16, 18, 20, 22, 24] {
        let row = walsh_hadamard_row(n);
        println!(
            "walsh-hadamard   n={n:2}  default {:>12.1} µs   serial {:>12.1} µs   {:.2} GB/s computed",
            row.default_ns.min / 1e3,
            row.serial_ns.min / 1e3,
            row.gb_per_s_computed
        );
        wht_rows.push(row);
    }

    let mut gradient_rows = Vec::new();
    for n in [14, 16] {
        for p in [1, 3] {
            let row = pauli_x_gradient_row(n, p);
            println!(
                "pauli-x gradient n={n:2} p={p}  expectation {:>9.1} µs   adjoint gradient {:>9.1} µs   \
                 {} transforms per gradient",
                row.expectation_us.min, row.adjoint_gradient_us.min, row.transforms_per_gradient
            );
            gradient_rows.push(row);
        }
    }

    let mut xy_rows = Vec::new();
    for (n, k) in [(10usize, 5usize), (12, 6), (16, 8), (20, 10)] {
        for coupling in [XYCoupling::Clique, XYCoupling::Ring] {
            let row = xy_mixer_row(coupling, n, k);
            println!(
                "xy mixer {:>6}({n:2},{k:2})  build {:>9.3} ms   apply β=0.3 {:>11.1} µs   \
                 β=3.0 {:>11.1} µs   H {:>11.1} µs{}",
                row.coupling,
                row.build_ms.min,
                row.apply_us_beta_0_3.min,
                row.apply_us_beta_3_0.min,
                row.hamiltonian_us.min,
                match (row.dense_build_ms, &row.dense_apply_us) {
                    (Some(b), Some(a)) =>
                        format!("   dense: build {b:.1} ms, apply {:.1} µs", a.min),
                    _ => String::new(),
                }
            );
            xy_rows.push(row);
        }
    }

    let mut precompute_rows = Vec::new();
    for n in [16, 18] {
        let row = precompute_row(n);
        println!(
            "precompute       n={n:2}  serial {:>9.2} ms   precompute_full {:>9.2} ms   \
             degeneracies_full {:>9.2} ms",
            row.serial_evaluate_ms.min, row.precompute_full_ms.min, row.degeneracies_full_ms.min
        );
        precompute_rows.push(row);
    }

    let mut subspace_rows = Vec::new();
    for (n, k) in [(10, 5), (12, 6)] {
        let row = constrained_subspace_row(n, k);
        println!(
            "dks p=3  ({n:2},{k:2})  dicke+clique {:>9.1} µs   full-space penalty {:>9.1} µs   \
             ratio {:.2} (median {:.2})",
            row.dicke_clique_us.min,
            row.full_space_penalty_us.min,
            row.subspace_over_penalty.min,
            row.subspace_over_penalty.median
        );
        subspace_rows.push(row);
    }

    let snapshot = Snapshot {
        description: "juliqaoa kernel snapshot: dense vs table-driven phase separator \
                      (MaxCut G(n,0.5)), unfused vs fused GM-QAOA rounds, the Walsh-Hadamard \
                      transform on its default and serial schedules (nanoseconds per call; \
                      GB/s computed from the radix-2 traffic), transverse-field MaxCut \
                      expectation and adjoint-gradient calls (µs) with the transforms one \
                      gradient makes, and matrix-free Clique/Ring XY mixers (build ms, apply \
                      µs) against the dense eigendecomposition at n <= 12, MaxCut cost \
                      precomputation (serial loop, precompute_full, degeneracies_full; ms), and \
                      p = 3 Densest-k-Subgraph on the Dicke subspace with the Clique mixer \
                      against the full-space penalty objective with the X mixer (µs); every \
                      time is a {min, median} pair over its repetitions, speedups and ratios \
                      are given for the minima and for the medians, and the two sides of \
                      every comparison row (dense/table, unfused/fused, default/serial, \
                      subspace/penalty) are timed alternately, one repetition at a time"
            .to_string(),
        git: git_describe(),
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: rayon::current_num_threads(),
        par_threshold: juliqaoa_linalg::par_threshold(),
        phase_separator: phase_rows,
        grover_round: grover_rows,
        walsh_hadamard: wht_rows,
        pauli_x_gradient: gradient_rows,
        xy_mixer: xy_rows,
        precompute: precompute_rows,
        constrained_subspace: subspace_rows,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    std::fs::write(&output, json).expect("snapshot file is writable");
    println!("\nwrote {output}");
}
