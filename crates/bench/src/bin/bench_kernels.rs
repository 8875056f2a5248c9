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
//! quiet machine and commit the JSON to compare across changes.
//!
//! Usage: `cargo run --release -p juliqaoa_bench --bin bench_kernels [output.json]`

use juliqaoa_bench::harness::{git_describe, BenchTimer};
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

#[derive(Serialize)]
struct PhaseSeparatorRow {
    n: usize,
    distinct_values: usize,
    dense_cis_ns: f64,
    table_driven_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct GroverRoundRow {
    n: usize,
    rounds: usize,
    unfused_dense_ns: f64,
    fused_table_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct WalshHadamardRow {
    n: usize,
    /// `walsh_hadamard` as the simulator calls it: the parallel schedule from
    /// `par_threshold()` amplitudes up, the serial one below.
    default_ns: f64,
    /// The serial schedule (the call under an outer-parallelism guard).
    serial_ns: f64,
    /// Computed, not measured: the radix-2 definition's traffic (each of the `n`
    /// stages reads and writes every 16-byte amplitude) over `default_ns`.
    gb_per_s_computed: f64,
}

#[derive(Serialize)]
struct PauliXGradientRow {
    n: usize,
    p: usize,
    /// `Simulator::expectation_with`, transverse-field MaxCut.
    expectation_us: f64,
    /// `adjoint_gradient` at the same point (its own cold forward pass included).
    adjoint_gradient_us: f64,
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
    build_ms: f64,
    apply_us_beta_0_3: f64,
    apply_us_beta_3_0: f64,
    hamiltonian_us: f64,
    /// The dense eigendecomposition it replaces, where that still fits in seconds.
    dense_build_ms: Option<f64>,
    dense_apply_us: Option<f64>,
    max_abs_diff_vs_dense: Option<f64>,
}

#[derive(Serialize)]
struct PrecomputeRow {
    n: usize,
    /// `CostFunction::evaluate` over all `2ⁿ` states in a plain serial loop.
    serial_evaluate_ms: f64,
    /// `precompute_full`: the same values, computed in parallel chunks.
    precompute_full_ms: f64,
    /// `degeneracies_full`: the `(value, count)` table of the class-space Grover path.
    degeneracies_full_ms: f64,
}

#[derive(Serialize)]
struct ConstrainedSubspaceRow {
    n: usize,
    k: usize,
    /// p = 3 `expectation_with` of Densest-k-Subgraph on the `C(n,k)` Dicke subspace
    /// with the Clique mixer.
    dicke_clique_us: f64,
    /// The same objective on the full `2ⁿ` space, infeasible states penalised, with
    /// the transverse-field mixer: what a tool without subspace support runs.
    full_space_penalty_us: f64,
    /// `dicke_clique_us / full_space_penalty_us`.
    subspace_over_penalty: f64,
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

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
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
    let mut psi = generic_state(1 << n);
    let (default_min, _) = timer.measure(|| walsh::walsh_hadamard(black_box(&mut psi)));
    let (serial_min, _) = timer.measure(|| {
        let _serial = enter_outer_parallelism();
        walsh::walsh_hadamard(black_box(&mut psi));
    });
    let default_ns = default_min.as_nanos() as f64;
    let bytes = 2.0 * 16.0 * (1u64 << n) as f64 * n as f64;
    WalshHadamardRow {
        n,
        default_ns,
        serial_ns: serial_min.as_nanos() as f64,
        gb_per_s_computed: bytes / default_ns,
    }
}

fn pauli_x_gradient_row(n: usize, p: usize) -> PauliXGradientRow {
    let obj = precompute_full(&MaxCut::new(paper_maxcut_instance(n, 0)));
    let sim = Simulator::new(obj, Mixer::transverse_field(n)).expect("setup");
    let angles = Angles::linear_ramp(p, 0.5);
    let mut ws = sim.workspace();
    let timer = BenchTimer::new(20);
    let (expectation, _) = timer.measure(|| {
        black_box(sim.expectation_with(&angles, &mut ws).expect("setup"));
    });
    let (gradient, _) = timer.measure(|| {
        black_box(adjoint_gradient(&sim, &angles, &mut ws).expect("setup"));
    });
    let before = kernels::snapshot();
    black_box(adjoint_gradient(&sim, &angles, &mut ws).expect("setup"));
    let transforms = kernels::snapshot().delta(&before).wht_passes;
    PauliXGradientRow {
        n,
        p,
        expectation_us: us(expectation),
        adjoint_gradient_us: us(gradient),
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
    let (build_min, _) = timer.measure(|| drop(black_box(build())));
    let mixer = build();
    let dim = mixer.dim();
    let mut psi = generic_state(dim);
    let mut scratch = vec![Complex64::ZERO; dim];
    let mut apply = |beta: f64| {
        timer
            .measure(|| mixer.apply_evolution(beta, black_box(&mut psi), &mut scratch))
            .0
    };
    let (small, large) = (apply(0.3), apply(3.0));
    let (hamiltonian, _) = timer.measure(|| {
        mixer.apply_hamiltonian(black_box(&mut psi), &mut scratch);
        vector::normalize(&mut psi);
    });
    let mut row = XyMixerRow {
        coupling: format!("{coupling:?}").to_lowercase(),
        n,
        k,
        dim,
        bytes: mixer.bytes(),
        build_ms: ms(build_min),
        apply_us_beta_0_3: us(small),
        apply_us_beta_3_0: us(large),
        hamiltonian_us: us(hamiltonian),
        dense_build_ms: None,
        dense_apply_us: None,
        max_abs_diff_vs_dense: None,
    };
    if n <= 12 {
        let dense_timer = BenchTimer::new(1);
        let h = build_xy_hamiltonian(&DickeSubspace::new(n, k), coupling);
        let mut dense = None;
        let (dense_build, _) = dense_timer.measure(|| {
            dense = Some(Mixer::Subspace(CustomMixer::from_symmetric("dense", &h)));
        });
        let dense = dense.expect("the dense reference was built");
        let (dense_apply, _) = timer.measure(|| {
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
        row.dense_build_ms = Some(ms(dense_build));
        row.dense_apply_us = Some(us(dense_apply));
        row.max_abs_diff_vs_dense = Some(worst);
    }
    row
}

fn precompute_row(n: usize) -> PrecomputeRow {
    let cost = MaxCut::new(paper_maxcut_instance(n, 0));
    let timer = BenchTimer::new(if n >= 18 { 5 } else { 7 });
    let (serial, _) = timer.measure(|| {
        let values: Vec<f64> = (0..1u64 << n).map(|x| cost.evaluate(x)).collect();
        black_box(values);
    });
    let (full, _) = timer.measure(|| drop(black_box(precompute_full(&cost))));
    let workers = rayon::current_num_threads();
    let (degeneracies, _) = timer.measure(|| drop(black_box(degeneracies_full(&cost, workers))));
    PrecomputeRow {
        n,
        serial_evaluate_ms: ms(serial),
        precompute_full_ms: ms(full),
        degeneracies_full_ms: ms(degeneracies),
    }
}

fn constrained_subspace_row(n: usize, k: usize) -> ConstrainedSubspaceRow {
    let problem = DensestKSubgraph::new(paper_maxcut_instance(n, 1), k);
    let angles = Angles::linear_ramp(3, 0.5);
    let timer = BenchTimer::new(50);
    let time_expectation = |sim: Simulator| {
        let mut ws = sim.workspace();
        timer
            .measure(|| {
                black_box(sim.expectation_with(&angles, &mut ws).expect("setup"));
            })
            .0
    };
    let subspace = precompute_dicke(&problem, &DickeSubspace::new(n, k));
    let dicke = time_expectation(Simulator::new(subspace, Mixer::clique(n, k)).expect("setup"));
    let penalty = (n * n) as f64;
    let penalised: Vec<f64> = (0..1u64 << n)
        .map(|x| problem.evaluate(x) - penalty * x.count_ones().abs_diff(k as u32) as f64)
        .collect();
    let full =
        time_expectation(Simulator::new(penalised, Mixer::transverse_field(n)).expect("setup"));
    ConstrainedSubspaceRow {
        n,
        k,
        dicke_clique_us: us(dicke),
        full_space_penalty_us: us(full),
        subspace_over_penalty: dicke.as_secs_f64() / full.as_secs_f64(),
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

        // Dense vs table-driven phase separator on a live statevector.
        let mut psi = vec![Complex64::ZERO; 1 << n];
        vector::fill_uniform(&mut psi);
        let (dense_min, _) =
            timer.measure(|| vector::apply_phases(black_box(&mut psi), black_box(&obj), 0.37));
        let mut table = Vec::new();
        let (table_min, _) = timer.measure(|| {
            vector::build_phase_table(classes.distinct_values(), 0.37, &mut table);
            vector::apply_phases_indexed(black_box(&mut psi), classes.class_indices(), &table);
        });
        let dense_ns = dense_min.as_nanos() as f64;
        let table_ns = table_min.as_nanos() as f64;
        println!(
            "phase separator  n={n:2}  dense {:>12.1} µs   table {:>12.1} µs   speedup {:.2}x",
            dense_ns / 1e3,
            table_ns / 1e3,
            dense_ns / table_ns
        );
        phase_rows.push(PhaseSeparatorRow {
            n,
            distinct_values: classes.num_classes(),
            dense_cis_ns: dense_ns,
            table_driven_ns: table_ns,
            speedup: dense_ns / table_ns,
        });

        // Fused vs unfused GM-QAOA evaluation (p = 3).
        let rounds = 3;
        let angles = Angles::linear_ramp(rounds, 0.5);
        let fused = Simulator::new(obj.clone(), Mixer::grover_full(n)).expect("setup");
        let mut ws = fused.workspace();
        let (fused_min, _) = timer.measure(|| {
            black_box(fused.expectation_with(&angles, &mut ws).expect("setup"));
        });
        let unfused = fused.clone().with_dense_phases();
        let mut ws = unfused.workspace();
        let (unfused_min, _) = timer.measure(|| {
            black_box(unfused.expectation_with(&angles, &mut ws).expect("setup"));
        });
        let fused_ns = fused_min.as_nanos() as f64;
        let unfused_ns = unfused_min.as_nanos() as f64;
        println!(
            "grover round p=3 n={n:2}  dense {:>12.1} µs   fused {:>12.1} µs   speedup {:.2}x",
            unfused_ns / 1e3,
            fused_ns / 1e3,
            unfused_ns / fused_ns
        );
        grover_rows.push(GroverRoundRow {
            n,
            rounds,
            unfused_dense_ns: unfused_ns,
            fused_table_ns: fused_ns,
            speedup: unfused_ns / fused_ns,
        });
    }

    let mut wht_rows = Vec::new();
    for n in [12, 14, 16, 18, 20, 22, 24] {
        let row = walsh_hadamard_row(n);
        println!(
            "walsh-hadamard   n={n:2}  default {:>12.1} µs   serial {:>12.1} µs   {:.2} GB/s computed",
            row.default_ns / 1e3,
            row.serial_ns / 1e3,
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
                row.expectation_us, row.adjoint_gradient_us, row.transforms_per_gradient
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
                row.build_ms,
                row.apply_us_beta_0_3,
                row.apply_us_beta_3_0,
                row.hamiltonian_us,
                match (row.dense_build_ms, row.dense_apply_us) {
                    (Some(b), Some(a)) => format!("   dense: build {b:.1} ms, apply {a:.1} µs"),
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
            row.serial_evaluate_ms, row.precompute_full_ms, row.degeneracies_full_ms
        );
        precompute_rows.push(row);
    }

    let mut subspace_rows = Vec::new();
    for (n, k) in [(10, 5), (12, 6)] {
        let row = constrained_subspace_row(n, k);
        println!(
            "dks p=3  ({n:2},{k:2})  dicke+clique {:>9.1} µs   full-space penalty {:>9.1} µs   \
             ratio {:.2}",
            row.dicke_clique_us, row.full_space_penalty_us, row.subspace_over_penalty
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
                      against the full-space penalty objective with the X mixer (µs); times \
                      are minimum over repetitions"
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
