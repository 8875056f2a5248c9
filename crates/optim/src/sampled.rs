//! Shot-based (sampled) objectives for the angle-finding outer loop.
//!
//! A [`SampledObjective`] replaces the exact `⟨C⟩` of
//! [`crate::objective::QaoaObjective`] with a shot estimate: the forward pass still
//! evolves `|β,γ⟩` exactly (resuming from its workspace's prefix checkpoints, so
//! sweeps pay one round per point instead of `p`), but the returned value is a
//! [`ShotEstimator`] — sample mean, CVaR-α or the Gibbs soft-max — over `shots`
//! measurements of the final state.  This is what angle finding against hardware (or
//! a risk-aware objective) actually optimizes.
//!
//! Every estimator depends only on how many shots landed on each objective value.
//! So on a simulator with value classes ([`Simulator::value_classes`]: Grover class
//! space, or a compressible objective's phase classes) an evaluation draws the
//! per-class counts directly, as one [`multinomial()`] over the class probabilities:
//! `O(classes)` per evaluation, whatever the shot count.  Only an objective without
//! classes draws its shots one at a time, through a [`StateSampler`].
//!
//! # Determinism
//!
//! Shot noise is *frozen per evaluation point*: the stream of an evaluation at `x`
//! is derived from the objective's base seed and the exact bit patterns of `x`
//! (`fold_bits` + `derive_stream_seed`), and the evaluation makes one multinomial
//! draw from it over class probabilities summed in fixed chunks.  So evaluating the
//! same point twice — or from different worker threads, or in a different scan
//! order — draws the same counts and returns the same value bit-for-bit.  (The
//! per-shot path derives its shard streams from the same seed and is
//! thread-independent too.)  Every optimizer driver in this crate (`grid_search`,
//! `random_restart`, `basinhopping`) therefore stays bit-identical across
//! `RAYON_NUM_THREADS` settings when fed sampled objectives, exactly as with exact
//! ones.
//!
//! Gradients fall back to the [`Objective`] default (central finite differences).
//! There is no adjoint path through a histogram; with frozen per-point noise the FD
//! gradient is a deterministic (if noisy) descent signal, which is all the
//! basin-hopping inner loop needs.

use crate::objective::{reuse_workspace, EvalTally, Objective};
use juliqaoa_combinatorics::{derive_stream_seed, fold_bits};
use juliqaoa_core::{Angles, Simulator, Workspace};
use juliqaoa_linalg::Complex64;
use juliqaoa_sampling::{multinomial, SampleCounts, ShotEstimator, StateSampler};
use juliqaoa_telemetry::kernels::KERNELS;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Domain tag separating per-evaluation sampling streams from other derived streams
/// (see `juliqaoa_combinatorics::seeding`).
const EVAL_DOMAIN: u64 = 0x5A11;

/// One evaluation's shots: the counts per outcome and the objective value of each
/// outcome, from one place, so an estimator can never pair a class histogram with
/// per-state values.
#[derive(Clone, Debug)]
pub struct ShotDraw<'a> {
    /// Shots per outcome: per value class when the simulator has classes, per
    /// feasible state otherwise.
    pub counts: SampleCounts,
    /// The objective value of each outcome of `counts`.
    pub values: &'a [f64],
}

/// A shot-estimated QAOA objective (negated, like every objective here: optimizers
/// minimise, QAOA maximises).
pub struct SampledObjective<'a> {
    sim: &'a Simulator,
    ws: Workspace,
    /// Class probabilities of the last evaluation (reused buffer).
    class_probs: Vec<f64>,
    shots: u64,
    estimator: ShotEstimator,
    seed: u64,
    evals: usize,
    tally: Option<&'a EvalTally>,
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
            ws: reuse_workspace(sim),
            class_probs: Vec::new(),
            sim,
            shots,
            estimator,
            seed,
            evals: 0,
            tally: None,
        }
    }

    /// Disables prefix-state reuse on the forward evolution (bit-identical either
    /// way; see [`crate::objective::QaoaObjective::without_prefix_reuse`]).
    pub fn without_prefix_reuse(mut self) -> Self {
        self.ws = self.sim.workspace();
        self
    }

    /// Adds this objective's shots and prefix reuse to `tally` when it is dropped.
    /// Unlike [`SampledObjective::shots_drawn`], a shared tally survives the
    /// objective (drivers build one objective per worker and drop them internally).
    pub fn with_tally(mut self, tally: &'a EvalTally) -> Self {
        self.tally = Some(tally);
        self
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

    /// Total simulations, one per draw (FD gradients count each probe).
    pub fn simulation_count(&self) -> usize {
        self.evals
    }

    /// The seed of an evaluation's stream at `x`: a pure function of the base seed
    /// and the point's bit patterns.
    fn eval_seed(&self, x: &[f64]) -> u64 {
        derive_stream_seed(
            self.seed,
            EVAL_DOMAIN,
            fold_bits(x.iter().map(|v| v.to_bits())),
        )
    }

    /// Evolves to `|β,γ⟩` at `x` and draws this objective's shots — the draw
    /// [`Objective::value`] estimates from, and the readout path the job service
    /// uses to report per-sample results at the best angles found.
    ///
    /// With value classes the counts are per class, drawn by one [`multinomial()`]
    /// over the class probabilities; without, they are per state, drawn shot by shot.
    pub fn counts_at(&mut self, x: &[f64]) -> ShotDraw<'a> {
        self.sim
            .evolve_into(&Angles::from_flat(x), &mut self.ws)
            .expect("simulator and angles are mutually consistent");
        self.evals += 1;
        let seed = self.eval_seed(x);
        let sim: &'a Simulator = self.sim;
        match sim.value_classes() {
            Some(classes) => {
                classes.probabilities(&self.ws.state, &mut self.class_probs);
                KERNELS.class_draws.inc();
                KERNELS.shots_drawn.add(self.shots);
                let mut rng = StdRng::seed_from_u64(seed);
                ShotDraw {
                    counts: multinomial(&self.class_probs, self.shots, &mut rng),
                    values: classes.values(),
                }
            }
            None => ShotDraw {
                counts: StateSampler::from_probabilities(
                    self.ws.state.iter().map(|z| z.norm_sqr()),
                    seed,
                )
                .sample_counts(self.shots),
                values: sim.objective_values(),
            },
        }
    }

    /// The final state of the last [`SampledObjective::counts_at`] evaluation.
    pub fn state(&self) -> &[Complex64] {
        &self.ws.state
    }
}

impl Drop for SampledObjective<'_> {
    fn drop(&mut self) {
        if let Some(tally) = self.tally {
            tally.add(self.shots_drawn(), &self.ws);
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
        let draw = self.counts_at(x);
        -self.estimator.estimate(&draw.counts, draw.values)
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
    use juliqaoa_combinatorics::DickeSubspace;
    use juliqaoa_core::ValueClasses;
    use juliqaoa_graphs::erdos_renyi;
    use juliqaoa_linalg::enter_outer_parallelism;
    use juliqaoa_mixers::Mixer;
    use juliqaoa_problems::{
        degeneracies_full, precompute_dicke, precompute_full, DensestKSubgraph, MaxCut,
    };

    fn small_sim() -> Simulator {
        let graph = erdos_renyi(6, 0.5, &mut StdRng::seed_from_u64(12));
        let obj = precompute_full(&MaxCut::new(graph));
        Simulator::new(obj, Mixer::transverse_field(6)).unwrap()
    }

    /// A simulator of each kind that has value classes: full state, a Dicke
    /// subspace under the Clique mixer, and Grover class space.
    fn class_sims() -> Vec<(&'static str, Simulator)> {
        let graph = erdos_renyi(8, 0.5, &mut StdRng::seed_from_u64(4));
        let dks = DensestKSubgraph::new(graph, 4);
        let dicke = precompute_dicke(&dks, &DickeSubspace::new(8, 4));
        let maxcut = MaxCut::new(erdos_renyi(6, 0.5, &mut StdRng::seed_from_u64(12)));
        vec![
            ("full", small_sim()),
            (
                "clique",
                Simulator::new(dicke, Mixer::clique(8, 4)).unwrap(),
            ),
            (
                "grover",
                Simulator::grover_classes(&degeneracies_full(&maxcut, 1)).unwrap(),
            ),
        ]
    }

    /// The two-sample χ² statistic of two histograms with equal totals, over the
    /// outcomes holding at least 20 shots between them (the rest pooled into one
    /// cell), with its degrees of freedom.
    fn homogeneity_chi2(a: &[u64], b: &[u64]) -> (f64, usize) {
        let mut cells: Vec<(f64, f64)> = Vec::new();
        let mut rest = (0.0, 0.0);
        for (&x, &y) in a.iter().zip(b) {
            if x + y >= 20 {
                cells.push((x as f64, y as f64));
            } else {
                rest = (rest.0 + x as f64, rest.1 + y as f64);
            }
        }
        if rest.0 + rest.1 > 0.0 {
            cells.push(rest);
        }
        let chi2 = cells.iter().map(|(x, y)| (x - y).powi(2) / (x + y)).sum();
        (chi2, cells.len().saturating_sub(1))
    }

    #[test]
    fn class_draws_agree_in_distribution_with_the_aggregated_alias_draw() {
        let shots = 1u64 << 18;
        for (name, sim) in class_sims() {
            let classes = sim
                .value_classes()
                .expect("every simulator here has classes");
            let x = Angles::random(2, &mut StdRng::seed_from_u64(4)).to_flat();
            let mut obj = SampledObjective::new(&sim, shots, ShotEstimator::Mean, 5);
            let draw = obj.counts_at(&x);
            assert_eq!(draw.values, classes.values(), "{name}");
            assert_eq!(draw.counts.shots(), shots);
            // The same state drawn shot by shot, summed per class.
            let alias =
                StateSampler::from_probabilities(obj.state().iter().map(|z| z.norm_sqr()), 6)
                    .sample_counts(shots);
            let mut aggregated = vec![0u64; draw.counts.dim()];
            match classes {
                ValueClasses::ClassSpace { .. } => aggregated.copy_from_slice(alias.as_slice()),
                ValueClasses::Indexed(phase) => {
                    for (i, &c) in phase.class_indices().iter().enumerate() {
                        aggregated[c as usize] += alias.count(i);
                    }
                }
            }
            let (chi2, dof) = homogeneity_chi2(draw.counts.as_slice(), &aggregated);
            assert!(dof >= 2, "{name}: only {dof} degrees of freedom");
            // Mean + 7σ of the χ² law: a ~1e-6 false alarm, and the draw is seeded.
            let bound = dof as f64 + 7.0 * (2.0 * dof as f64).sqrt();
            assert!(chi2 <= bound, "{name}: χ² = {chi2} over {dof} dof");
        }
    }

    #[test]
    fn class_draw_values_are_bit_identical_under_outer_parallelism() {
        // 2¹⁷ states: two reduction chunks, so the unguarded class-probability pass
        // takes its parallel path and the guarded one its serial path.
        let graph = erdos_renyi(17, 0.5, &mut StdRng::seed_from_u64(2));
        let obj = precompute_full(&MaxCut::new(graph));
        let sim = Simulator::new(obj, Mixer::transverse_field(17)).unwrap();
        assert!(matches!(
            sim.value_classes(),
            Some(ValueClasses::Indexed(_))
        ));
        let points: Vec<Vec<f64>> = (0..3)
            .map(|i| Angles::random(1, &mut StdRng::seed_from_u64(i)).to_flat())
            .collect();
        let run = || {
            let mut obj = SampledObjective::new(&sim, 2048, ShotEstimator::CVaR { alpha: 0.2 }, 8);
            points
                .iter()
                .map(|x| obj.value(x).to_bits())
                .collect::<Vec<u64>>()
        };
        let unguarded = run();
        let guarded = {
            let _outer = enter_outer_parallelism();
            run()
        };
        assert_eq!(unguarded, guarded);
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
        let (cached_tally, cold_tally) = (EvalTally::default(), EvalTally::default());
        let mut cached = SampledObjective::new(&sim, 2048, est, 3).with_tally(&cached_tally);
        let mut cold = SampledObjective::new(&sim, 2048, est, 3)
            .without_prefix_reuse()
            .with_tally(&cold_tally);
        let base = Angles::random(3, &mut StdRng::seed_from_u64(8)).to_flat();
        for step in 0..8 {
            let mut x = base.clone();
            x[2] += 0.1 * (step % 4) as f64;
            assert_eq!(cached.value(&x).to_bits(), cold.value(&x).to_bits());
        }
        drop((cached, cold));
        assert!(cached_tally.prefix_stats().hits > 0);
        assert_eq!(
            cold_tally.prefix_stats(),
            juliqaoa_core::PrefixStats::default()
        );
        assert_eq!(cold_tally.shots(), cached_tally.shots());
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
