//! Shot-based (sampled) objectives for the angle-finding outer loop.
//!
//! A [`SampledObjective`] replaces the exact `⟨C⟩` of
//! [`crate::objective::QaoaObjective`] with a shot estimate: the forward pass still
//! evolves `|β,γ⟩` exactly (reusing the [`PrefixCache`] suffix replay, so sweeps pay
//! one round per point instead of `p`), but the returned value is a
//! [`ShotEstimator`] — sample mean, CVaR-α or the Gibbs soft-max — over `shots`
//! measurements of the final state.  This is what angle finding against hardware (or
//! a risk-aware objective) actually optimizes.
//!
//! # Determinism
//!
//! Shot noise is *frozen per evaluation point*: the sampler's seed for an evaluation
//! at `x` is derived from the objective's base seed and the exact bit patterns of
//! `x` (`fold_bits` + `derive_stream_seed`), so evaluating the same point twice —
//! or from different worker threads, or in a different scan order — draws the same
//! shots and returns the same value bit-for-bit.  Combined with the sampler's
//! thread-independent shard streams, every optimizer driver in this crate
//! (`grid_search`, `random_restart`, `basinhopping`) stays bit-identical across
//! `RAYON_NUM_THREADS` settings when fed sampled objectives, exactly as with exact
//! ones.
//!
//! Gradients fall back to the [`Objective`] default (central finite differences).
//! There is no adjoint path through a histogram; with frozen per-point noise the FD
//! gradient is a deterministic (if noisy) descent signal, which is all the
//! basin-hopping inner loop needs.

use crate::objective::{Objective, PrefixCacheHome};
use juliqaoa_combinatorics::{derive_stream_seed, fold_bits};
use juliqaoa_core::{Angles, PrefixCache, PrefixStats, Simulator, Workspace};
use juliqaoa_sampling::{SampleCounts, ShotEstimator, StateSampler};
use std::sync::atomic::{AtomicU64, Ordering};

/// Domain tag separating per-evaluation sampling streams from other derived streams
/// (see `juliqaoa_combinatorics::seeding`).
const EVAL_DOMAIN: u64 = 0x5A11;

/// A shot-estimated QAOA objective (negated, like every objective here: optimizers
/// minimise, QAOA maximises).
pub struct SampledObjective<'a> {
    sim: &'a Simulator,
    ws: Workspace,
    prefix: Option<PrefixCache>,
    home: Option<&'a PrefixCacheHome>,
    shots: u64,
    estimator: ShotEstimator,
    seed: u64,
    evals: usize,
    /// Optional shared tally every draw adds to — how a job engine counts shots
    /// exactly even when drivers hide evaluations inside gradient probes.
    shot_tally: Option<&'a AtomicU64>,
}

impl<'a> SampledObjective<'a> {
    /// A sampled objective drawing `shots` per evaluation, aggregated by `estimator`,
    /// with every shot stream derived from `seed`.
    ///
    /// # Panics
    /// Panics if `shots == 0` or the estimator's parameters are invalid
    /// ([`ShotEstimator::validate`]) — service-facing callers validate specs first
    /// and surface errors as 4xx instead.
    pub fn new(sim: &'a Simulator, shots: u64, estimator: ShotEstimator, seed: u64) -> Self {
        assert!(shots > 0, "sampled objective needs at least one shot");
        estimator
            .validate()
            .expect("estimator parameters are valid");
        SampledObjective {
            ws: sim.workspace(),
            sim,
            prefix: Some(PrefixCache::new()),
            home: None,
            shots,
            estimator,
            seed,
            evals: 0,
            shot_tally: None,
        }
    }

    /// Disables prefix-state reuse on the forward evolution (bit-identical either
    /// way; see [`crate::objective::QaoaObjective::without_prefix_reuse`]).
    pub fn without_prefix_reuse(mut self) -> Self {
        self.prefix = None;
        self.home = None;
        self
    }

    /// Checks this objective's prefix cache out of `home`, returning it (with its
    /// reuse counters) when the objective is dropped — the same parking protocol as
    /// [`crate::objective::QaoaObjective::with_cache_home`], so a job's sampled
    /// objectives and its readout share one set of checkpoints.  Sampling is
    /// unaffected: prefix reuse only changes how the forward state is reached,
    /// bit-identically.
    pub fn with_cache_home(mut self, home: &'a PrefixCacheHome) -> Self {
        self.prefix = Some(home.checkout());
        self.home = Some(home);
        self
    }

    /// Adds every draw to `tally`.  Unlike [`SampledObjective::shots_drawn`], a
    /// shared tally survives the objective (drivers build one objective per worker
    /// and drop them internally) and counts the evaluations hidden inside
    /// finite-difference gradient probes.
    pub fn with_shot_tally(mut self, tally: &'a AtomicU64) -> Self {
        self.shot_tally = Some(tally);
        self
    }

    /// The prefix cache's reuse counters so far (`None` when reuse is disabled).
    pub fn prefix_stats(&self) -> Option<PrefixStats> {
        self.prefix.as_ref().map(|c| c.stats())
    }

    /// The estimator in use.
    pub fn estimator(&self) -> ShotEstimator {
        self.estimator
    }

    /// Shots drawn per evaluation.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Total shots drawn so far across all evaluations.
    pub fn shots_drawn(&self) -> u64 {
        self.evals as u64 * self.shots
    }

    /// Total simulations (one per evaluation; FD gradients count each probe).
    pub fn simulation_count(&self) -> usize {
        self.evals
    }

    /// The sampler seed used for an evaluation at `x`: a pure function of the base
    /// seed and the point's bit patterns.
    fn eval_seed(&self, x: &[f64]) -> u64 {
        derive_stream_seed(
            self.seed,
            EVAL_DOMAIN,
            fold_bits(x.iter().map(|v| v.to_bits())),
        )
    }

    /// Evolves to `|β,γ⟩` at `x` and draws this objective's shot histogram — the
    /// readout path the job service uses to report per-sample results at the best
    /// angles found.
    pub fn counts_at(&mut self, x: &[f64]) -> SampleCounts {
        let angles = Angles::from_flat(x);
        match self.prefix.as_mut() {
            Some(cache) => self.sim.evolve_cached(&angles, &mut self.ws, cache),
            None => self.sim.evolve_into(&angles, &mut self.ws),
        }
        .expect("simulator and angles are mutually consistent");
        let sampler = StateSampler::from_probabilities(
            self.ws.state.iter().map(|z| z.norm_sqr()),
            self.eval_seed(x),
        );
        if let Some(tally) = self.shot_tally {
            // relaxed: shot-count statistic; commutative add read only for reporting.
            tally.fetch_add(self.shots, Ordering::Relaxed);
        }
        sampler.sample_counts(self.shots)
    }
}

impl Drop for SampledObjective<'_> {
    fn drop(&mut self) {
        if let (Some(home), Some(cache)) = (self.home, self.prefix.take()) {
            home.check_in(cache);
        }
    }
}

impl Objective for SampledObjective<'_> {
    fn dim(&self) -> usize {
        // As with `QaoaObjective`: the parameter dimension is a property of the
        // starting point (2p), not of the problem.
        0
    }

    fn value(&mut self, x: &[f64]) -> f64 {
        self.evals += 1;
        let counts = self.counts_at(x);
        -self
            .estimator
            .estimate(&counts, self.sim.objective_values())
    }

    fn evaluations(&self) -> usize {
        self.evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::RunControl;
    use crate::gridsearch::{grid_search_ordered, qaoa_axis_order};
    use juliqaoa_graphs::erdos_renyi;
    use juliqaoa_linalg::enter_outer_parallelism;
    use juliqaoa_mixers::Mixer;
    use juliqaoa_problems::{precompute_full, MaxCut};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_sim() -> Simulator {
        let graph = erdos_renyi(6, 0.5, &mut StdRng::seed_from_u64(12));
        let obj = precompute_full(&MaxCut::new(graph));
        Simulator::new(obj, Mixer::transverse_field(6)).unwrap()
    }

    #[test]
    fn sampled_mean_tracks_the_exact_expectation() {
        let sim = small_sim();
        let x = Angles::random(2, &mut StdRng::seed_from_u64(3)).to_flat();
        let exact = sim.expectation(&Angles::from_flat(&x)).unwrap();
        let mut obj = SampledObjective::new(&sim, 1 << 17, ShotEstimator::Mean, 7);
        let sampled = -obj.value(&x);
        assert!(
            (sampled - exact).abs() < 0.05,
            "sampled {sampled} vs exact {exact}"
        );
        assert_eq!(obj.simulation_count(), 1);
        assert_eq!(obj.shots_drawn(), 1 << 17);
    }

    #[test]
    fn evaluations_are_deterministic_per_point() {
        let sim = small_sim();
        let est = ShotEstimator::CVaR { alpha: 0.25 };
        let mut a = SampledObjective::new(&sim, 4096, est, 9);
        let mut b = SampledObjective::new(&sim, 4096, est, 9);
        let x = Angles::random(2, &mut StdRng::seed_from_u64(5)).to_flat();
        let y = {
            let mut y = x.clone();
            y[0] += 0.3;
            y
        };
        // Same point, same seed: bit-identical — regardless of evaluation history
        // (a evaluates y first, b does not).
        let va_y = a.value(&y);
        let va_x = a.value(&x);
        let vb_x = b.value(&x);
        assert_eq!(va_x.to_bits(), vb_x.to_bits());
        assert_eq!(va_y.to_bits(), b.value(&y).to_bits());
        // Different base seed: different noise.
        let mut c = SampledObjective::new(&sim, 4096, est, 10);
        assert_ne!(va_x.to_bits(), c.value(&x).to_bits());
    }

    #[test]
    fn prefix_reuse_never_changes_sampled_values() {
        let sim = small_sim();
        let est = ShotEstimator::Gibbs { eta: 1.0 };
        let mut cached = SampledObjective::new(&sim, 2048, est, 3);
        let mut cold = SampledObjective::new(&sim, 2048, est, 3).without_prefix_reuse();
        let base = Angles::random(3, &mut StdRng::seed_from_u64(8)).to_flat();
        for step in 0..8 {
            let mut x = base.clone();
            x[2] += 0.1 * (step % 4) as f64;
            assert_eq!(cached.value(&x).to_bits(), cold.value(&x).to_bits());
        }
        assert!(cached.prefix_stats().expect("cache enabled").hits > 0);
        assert!(cold.prefix_stats().is_none());
    }

    #[test]
    fn cvar_grid_search_is_deterministic_across_scan_schedules() {
        // End-to-end: CVaR-α through the parallel block scan and through a forced
        // serial scan must return bit-identical best points — the sampled analogue
        // of the exact grid's schedule independence.
        let sim = small_sim();
        let est = ShotEstimator::CVaR { alpha: 0.2 };
        let run = || {
            grid_search_ordered(
                || SampledObjective::new(&sim, 1024, est, 21),
                2,
                0.0,
                2.0 * std::f64::consts::PI,
                18,
                &qaoa_axis_order(1),
                &RunControl::new(),
            )
        };
        let parallel = run();
        let serial = {
            let _guard = enter_outer_parallelism();
            run()
        };
        assert_eq!(parallel.value.to_bits(), serial.value.to_bits());
        assert_eq!(parallel.x, serial.x);
        assert_eq!(parallel.function_evals, 18 * 18);
        // The CVaR optimum is a real angle-quality signal: it must beat the p=0
        // baseline (CVaR of the uniform superposition).
        let mut baseline_obj = SampledObjective::new(&sim, 1024, est, 21);
        let uniform = baseline_obj.value(&[0.0, 0.0]);
        assert!(parallel.value <= uniform);
    }

    #[test]
    #[should_panic]
    fn zero_shots_are_rejected() {
        let sim = small_sim();
        let _ = SampledObjective::new(&sim, 0, ShotEstimator::Mean, 1);
    }

    #[test]
    #[should_panic]
    fn invalid_estimators_are_rejected() {
        let sim = small_sim();
        let _ = SampledObjective::new(&sim, 10, ShotEstimator::CVaR { alpha: 0.0 }, 1);
    }
}
