//! Process-wide kernel profiling counters.
//!
//! The simulator core, optimizers and sampler record into these statics with a
//! single relaxed `fetch_add` per event — no locks, no allocation, no effect on
//! floating-point evaluation order, so instrumented kernels produce bit-identical
//! numbers. Counters are process-global and never reset; consumers interested in
//! a window (benches, tests) take a [`snapshot`] before and after and diff with
//! [`KernelSnapshot::delta`], which also keeps readings meaningful under cargo's
//! parallel test threads.

crate::counter_set! {
    /// The set of kernel-level profiling counters.
    pub struct Kernels;
    /// A point-in-time copy of every kernel counter.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct KernelSnapshot;
    phase_table_applies: "kernel_phase_table_applies",
        "Phase-separator applications served from a compressed class table.";
    dense_phase_applies: "kernel_dense_phase_applies",
        "Phase-separator applications that fell back to the dense per-state path.";
    fused_grover_rounds: "kernel_fused_grover_rounds",
        "QAOA rounds executed by the fused Grover phase-plus-mixer kernel.";
    grover_class_rounds: "kernel_grover_class_rounds",
        "QAOA rounds executed in Grover class space, one amplitude per distinct value.";
    wht_passes: "kernel_wht_passes", "Walsh-Hadamard transform passes over a state vector.";
    prefix_checkpoint_hits: "kernel_prefix_checkpoint_hits",
        "Evolutions resumed from a prefix checkpoint.";
    prefix_cold_starts: "kernel_prefix_cold_starts",
        "Evolutions that started from the initial state with no usable checkpoint.";
    prefix_rounds_saved: "kernel_prefix_rounds_saved",
        "QAOA rounds skipped by resuming from prefix checkpoints.";
    shots_drawn: "kernel_shots_drawn",
        "Measurement shots drawn, per shot or as per-class counts.";
    class_draws: "kernel_class_draws", "Sampled evaluations drawn as per-class counts.";
    objective_evals: "kernel_objective_evals",
        "Objective-function evaluations across all optimizers.";
}

/// The process-wide counters every kernel records into.
pub static KERNELS: Kernels = Kernels::new();

/// Reads all kernel counters (relaxed; each field individually consistent).
pub fn snapshot() -> KernelSnapshot {
    KERNELS.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_isolate_a_window_even_with_parallel_tests_recording() {
        let before = snapshot();
        KERNELS.phase_table_applies.add(3);
        KERNELS.wht_passes.inc();
        KERNELS.prefix_rounds_saved.add(17);
        let d = snapshot().delta(&before);
        // Other tests in the process may record concurrently, so assert lower
        // bounds on the touched counters and exact equality only via >= checks.
        assert!(d.phase_table_applies >= 3);
        assert!(d.wht_passes >= 1);
        assert!(d.prefix_rounds_saved >= 17);
    }

    #[test]
    fn delta_saturates_instead_of_underflowing() {
        let newer = KernelSnapshot {
            shots_drawn: 5,
            ..Default::default()
        };
        let older = KernelSnapshot {
            shots_drawn: 9,
            objective_evals: 2,
            ..Default::default()
        };
        let d = newer.delta(&older);
        assert_eq!(d.shots_drawn, 0);
        assert_eq!(d.objective_evals, 0);
    }
}
