//! Ablation: Grover-mixer QAOA in class space (one amplitude per distinct value) vs the
//! full statevector (DESIGN.md §6.3).
//!
//! Both compute identical expectation values (see the property tests); the class-space
//! path's cost scales with the number of distinct objective values rather than `2ⁿ`,
//! which is the enabling trick of §2.4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use juliqaoa_core::{Angles, Simulator};
use juliqaoa_mixers::Mixer;
use juliqaoa_problems::{degeneracies_full, precompute_full, HammingRamp};
use std::hint::black_box;
use std::time::Duration;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

fn bench_grover_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("grover_ablation");
    let angles = Angles::linear_ramp(10, 0.5);
    for n in [12usize, 16, 20] {
        let ramp = HammingRamp::new(n);
        let obj = precompute_full(&ramp);
        let full = Simulator::new(obj, Mixer::grover_full(n)).expect("setup");
        let mut ws = full.workspace();
        group.bench_with_input(BenchmarkId::new("full_statevector", n), &n, |b, _| {
            b.iter(|| black_box(full.expectation_with(&angles, &mut ws).expect("setup")));
        });

        let comp = Simulator::grover_classes(&degeneracies_full(&ramp, 4)).expect("setup");
        let mut comp_ws = comp.workspace();
        group.bench_with_input(BenchmarkId::new("class_space", n), &n, |b, _| {
            b.iter(|| black_box(comp.expectation_with(&angles, &mut comp_ws).expect("setup")));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_grover_paths
}
criterion_main!(benches);
