//! Criterion micro-benchmarks of the simulation kernels.
//!
//! These back the figure binaries with statistically robust timings of the individual
//! building blocks: the Walsh–Hadamard transform, the phase separator, each mixer's
//! evolution, and the matrix-free Clique/Ring mixers' build and apply (the build used to
//! be a dense eigendecomposition, the dominant pre-computation for constrained
//! problems).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use juliqaoa_bench::instances::paper_maxcut_instance;
use juliqaoa_core::{Angles, Simulator};
use juliqaoa_linalg::{vector, walsh, Complex64};
use juliqaoa_mixers::Mixer;
use juliqaoa_problems::{precompute_full, MaxCut};
use std::hint::black_box;
use std::time::Duration;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

fn state(n: usize) -> Vec<Complex64> {
    let mut v = vec![Complex64::ZERO; 1 << n];
    vector::fill_uniform(&mut v);
    v
}

fn bench_walsh_hadamard(c: &mut Criterion) {
    let mut group = c.benchmark_group("walsh_hadamard");
    for n in [10usize, 14, 18] {
        let mut psi = state(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| walsh::walsh_hadamard(black_box(&mut psi)));
        });
    }
    group.finish();
}

fn bench_phase_separator(c: &mut Criterion) {
    let mut group = c.benchmark_group("phase_separator");
    for n in [10usize, 14, 18] {
        let graph = paper_maxcut_instance(n, 0);
        let obj = precompute_full(&MaxCut::new(graph));
        let mut psi = state(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| vector::apply_phases(black_box(&mut psi), black_box(&obj), 0.37));
        });
    }
    group.finish();
}

fn bench_mixer_evolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("mixer_evolution");
    let n = 12;
    let mixers = [
        ("transverse_field", Mixer::transverse_field(n)),
        ("grover", Mixer::grover_full(n)),
    ];
    for (name, mixer) in mixers {
        let mut psi = state(n);
        let mut scratch = vec![Complex64::ZERO; mixer.dim()];
        group.bench_function(name, |b| {
            b.iter(|| mixer.apply_evolution(0.53, black_box(&mut psi), &mut scratch));
        });
    }
    // Constrained Clique mixer on the (12, 6) Dicke subspace.
    let mixer = Mixer::clique(12, 6);
    let dim = mixer.dim();
    let mut psi = vec![Complex64::ZERO; dim];
    vector::fill_uniform(&mut psi);
    let mut scratch = vec![Complex64::ZERO; dim];
    group.bench_function("clique_12_6", |b| {
        b.iter(|| mixer.apply_evolution(0.53, black_box(&mut psi), &mut scratch));
    });
    group.finish();
}

fn bench_full_qaoa_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("qaoa_evaluation_p3");
    for n in [10usize, 14] {
        let graph = paper_maxcut_instance(n, 0);
        let obj = precompute_full(&MaxCut::new(graph));
        let sim = Simulator::new(obj, Mixer::transverse_field(n)).expect("setup");
        let mut ws = sim.workspace();
        let angles = Angles::linear_ramp(3, 0.5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(sim.expectation_with(&angles, &mut ws).expect("setup")));
        });
    }
    group.finish();
}

fn bench_xy_mixer(c: &mut Criterion) {
    let mut group = c.benchmark_group("xy_mixer");
    group.sample_size(10);
    for (n, k) in [(10usize, 5usize), (12, 6), (16, 8)] {
        for (name, build) in [
            ("clique", Mixer::clique as fn(usize, usize) -> Mixer),
            ("ring", Mixer::ring),
        ] {
            group.bench_function(format!("{name}_build_{n}_{k}"), |b| {
                b.iter(|| black_box(build(n, k)));
            });
            let mixer = build(n, k);
            let mut psi = vec![Complex64::ZERO; mixer.dim()];
            vector::fill_uniform(&mut psi);
            psi[0] += Complex64::ONE;
            vector::normalize(&mut psi);
            let mut scratch = vec![Complex64::ZERO; mixer.dim()];
            group.bench_function(format!("{name}_apply_{n}_{k}"), |b| {
                b.iter(|| mixer.apply_evolution(0.53, black_box(&mut psi), &mut scratch));
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_walsh_hadamard, bench_phase_separator, bench_mixer_evolution,
              bench_full_qaoa_round, bench_xy_mixer
}
criterion_main!(benches);
