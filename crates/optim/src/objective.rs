//! The objective-function interface shared by all optimizers.
//!
//! Optimizers *minimise*; the QAOA convention is to *maximise* `⟨C⟩`.
//! [`QaoaObjective`] bridges the two by negating, exactly as Listing 3 does
//! (`optimize(x -> -exp_value(x, …))`).  It also owns the simulation [`Workspace`] so
//! every evaluation inside the optimization loop is allocation-free, and it counts
//! evaluations so the benchmark harness can report costs.

use juliqaoa_core::{
    adjoint_gradient, adjoint_gradient_cached, Angles, PrefixCache, PrefixStats, Simulator,
    Workspace,
};
use juliqaoa_telemetry::kernels::KERNELS;
use std::sync::Mutex;

/// A real-valued function of a flat parameter vector, to be minimised.
pub trait Objective {
    /// Number of parameters.
    fn dim(&self) -> usize;

    /// The objective value at `x`.
    fn value(&mut self, x: &[f64]) -> f64;

    /// The objective value and its gradient at `x` (gradient written into `grad`).
    ///
    /// The default implementation uses central finite differences with step `1e-7`,
    /// which costs `2·dim` extra evaluations — override it when an analytic gradient is
    /// available.
    fn value_and_gradient(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        let f0 = self.value(x);
        let eps = 1e-7;
        let mut xp = x.to_vec();
        for i in 0..x.len() {
            xp[i] = x[i] + eps;
            let fp = self.value(&xp);
            xp[i] = x[i] - eps;
            let fm = self.value(&xp);
            xp[i] = x[i];
            grad[i] = (fp - fm) / (2.0 * eps);
        }
        f0
    }

    /// Number of objective evaluations performed so far (simulation calls for QAOA
    /// objectives).  Used by benchmarks; defaults to 0 for objectives that don't count.
    fn evaluations(&self) -> usize {
        0
    }
}

/// The result of an optimization run.
#[derive(Clone, Debug)]
pub struct OptimizeResult {
    /// The best parameter vector found.
    pub x: Vec<f64>,
    /// The objective value at `x` (in the *minimisation* convention).
    pub value: f64,
    /// Iterations of the outer optimizer loop.
    pub iterations: usize,
    /// Total objective evaluations attributable to this run.
    pub function_evals: usize,
    /// Total gradient evaluations attributable to this run.
    pub gradient_evals: usize,
    /// Whether the convergence criterion (rather than the iteration cap) stopped the run.
    pub converged: bool,
}

impl OptimizeResult {
    /// The best value in the *maximisation* convention (`-value`); convenient when the
    /// objective is a negated QAOA expectation.
    pub fn maximized_value(&self) -> f64 {
        -self.value
    }
}

/// Wraps a plain closure (plus optional analytic gradient closure) as an [`Objective`].
pub struct FnObjective<F, G = fn(&[f64], &mut [f64]) -> f64>
where
    F: FnMut(&[f64]) -> f64,
    G: FnMut(&[f64], &mut [f64]) -> f64,
{
    dim: usize,
    f: F,
    grad: Option<G>,
    evals: usize,
}

impl<F: FnMut(&[f64]) -> f64> FnObjective<F> {
    /// A gradient-free objective (gradient falls back to finite differences).
    pub fn new(dim: usize, f: F) -> Self {
        FnObjective {
            dim,
            f,
            grad: None,
            evals: 0,
        }
    }
}

impl<F, G> FnObjective<F, G>
where
    F: FnMut(&[f64]) -> f64,
    G: FnMut(&[f64], &mut [f64]) -> f64,
{
    /// An objective with an analytic value-and-gradient closure.
    pub fn with_gradient(dim: usize, f: F, grad: G) -> Self {
        FnObjective {
            dim,
            f,
            grad: Some(grad),
            evals: 0,
        }
    }
}

impl<F, G> Objective for FnObjective<F, G>
where
    F: FnMut(&[f64]) -> f64,
    G: FnMut(&[f64], &mut [f64]) -> f64,
{
    fn dim(&self) -> usize {
        self.dim
    }

    fn value(&mut self, x: &[f64]) -> f64 {
        self.evals += 1;
        KERNELS.objective_evals.inc();
        (self.f)(x)
    }

    fn value_and_gradient(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        if let Some(g) = self.grad.as_mut() {
            self.evals += 1;
            KERNELS.objective_evals.inc();
            g(x, grad)
        } else {
            // Fall back to the default finite-difference implementation without
            // recursing through the trait object.
            let f0 = self.value(x);
            let eps = 1e-7;
            let mut xp = x.to_vec();
            for i in 0..x.len() {
                xp[i] = x[i] + eps;
                let fp = self.value(&xp);
                xp[i] = x[i] - eps;
                let fm = self.value(&xp);
                xp[i] = x[i];
                grad[i] = (fp - fm) / (2.0 * eps);
            }
            f0
        }
    }

    fn evaluations(&self) -> usize {
        self.evals
    }
}

/// How a [`QaoaObjective`] obtains gradients.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GradientMethod {
    /// Adjoint-mode analytic gradient (the AD substitute): one reverse sweep, cost
    /// independent of `p` in units of expectation evaluations.
    Adjoint,
    /// Central finite differences with the given step: `2·(2p)` extra expectation
    /// evaluations per gradient.
    FiniteDifference {
        /// The finite-difference step.
        eps: f64,
    },
}

/// A parking slot through which a [`PrefixCache`] survives across the short-lived
/// objectives an optimizer run creates.
///
/// The outer-loop drivers (`random_restart`, `grid_search`) build objectives through a
/// per-worker factory and drop them when the run ends, which would discard the
/// checkpoints a sweep accumulated.  A home outlives the run: objectives built with
/// [`QaoaObjective::with_cache_home`] check a cache out of the home (or get a fresh
/// one with the same budget) and return it — counters merged — when dropped.  After
/// the optimizer returns, the caller reads the aggregated [`PrefixStats`], and a
/// later objective over the same simulator (e.g. a job's sampling readout at the
/// optimum) resumes from the run's checkpoints.  The cache dies with the home.
///
/// With several workers, only one objective gets the parked cache; the rest run with
/// fresh caches, and at check-in the deepest cache wins the parking slot
/// ([`PrefixCache::merge_deeper`]).  Results are unaffected either way — prefix
/// reuse is bit-identical.
pub struct PrefixCacheHome {
    slot: Mutex<Option<PrefixCache>>,
    budget: usize,
    stats: Mutex<PrefixStats>,
}

impl PrefixCacheHome {
    /// An empty home handing out fresh caches with the given byte budget.
    pub fn with_budget(budget: usize) -> Self {
        PrefixCacheHome {
            slot: Mutex::new(None),
            budget,
            stats: Mutex::new(PrefixStats::default()),
        }
    }

    /// Takes the parked cache, or a fresh one with the home's budget.
    pub fn checkout(&self) -> PrefixCache {
        self.slot
            .lock()
            .expect("prefix home poisoned")
            .take()
            .unwrap_or_else(|| PrefixCache::with_budget(self.budget))
    }

    /// Returns a cache to the home, merging its counters into the aggregate.  When
    /// several objectives race back (parallel drivers build one per worker), the
    /// *deepest* cache parks — [`PrefixCache::merge_deeper`] — so the next checkout
    /// gets the warmest checkpoints instead of whichever cache returned first.
    pub fn check_in(&self, mut cache: PrefixCache) {
        let stats = cache.take_stats();
        self.stats
            .lock()
            .expect("prefix home poisoned")
            .absorb(stats);
        let mut slot = self.slot.lock().expect("prefix home poisoned");
        *slot = Some(match slot.take() {
            Some(parked) => parked.merge_deeper(cache),
            None => cache,
        });
    }

    /// Aggregated reuse counters across every objective that lived in this home.
    pub fn stats(&self) -> PrefixStats {
        *self.stats.lock().expect("prefix home poisoned")
    }
}

/// The (negated) QAOA expectation value as a minimisation objective.
///
/// Evaluations route through a [`PrefixCache`] by default, so sweeps whose
/// consecutive points share leading rounds (grid scans with suffix-major axis order,
/// finite-difference gradients, value-then-gradient pairs at one point) resume from
/// checkpoints instead of re-evolving from round 0 — with bit-identical results.
/// Disable with [`QaoaObjective::without_prefix_reuse`] to measure the cold path.
pub struct QaoaObjective<'a> {
    sim: &'a Simulator,
    ws: Workspace,
    gradient_method: GradientMethod,
    evals: usize,
    prefix: Option<PrefixCache>,
    home: Option<&'a PrefixCacheHome>,
}

impl<'a> QaoaObjective<'a> {
    /// Maximises `⟨C⟩` for the given simulator using adjoint gradients.
    pub fn new(sim: &'a Simulator) -> Self {
        Self::with_gradient_method(sim, GradientMethod::Adjoint)
    }

    /// Maximises `⟨C⟩` with an explicit gradient method (used by the Figure 5 benchmark
    /// to compare adjoint against finite differences).
    pub fn with_gradient_method(sim: &'a Simulator, gradient_method: GradientMethod) -> Self {
        QaoaObjective {
            ws: sim.workspace(),
            sim,
            gradient_method,
            evals: 0,
            prefix: Some(PrefixCache::new()),
            home: None,
        }
    }

    /// Disables prefix-state reuse, forcing every evaluation to re-evolve from round 0.
    /// Results are bit-identical either way; this exists for benchmarking the win and
    /// as an escape hatch for memory-constrained sweeps.
    pub fn without_prefix_reuse(mut self) -> Self {
        self.prefix = None;
        self.home = None;
        self
    }

    /// Checks this objective's prefix cache out of `home`, returning it (with its
    /// counters) when the objective is dropped — see [`PrefixCacheHome`].
    pub fn with_cache_home(mut self, home: &'a PrefixCacheHome) -> Self {
        self.prefix = Some(home.checkout());
        self.home = Some(home);
        self
    }

    /// The prefix cache's reuse counters so far (`None` when reuse is disabled).
    pub fn prefix_stats(&self) -> Option<PrefixStats> {
        self.prefix.as_ref().map(|c| c.stats())
    }

    /// The number of rounds `p` this objective's parameter vector describes is decided by
    /// the caller (the flat vector has length `2p`); the simulator itself is round-count
    /// agnostic, so `dim` is not meaningful here and optimizers must take the dimension
    /// from their starting point instead.
    pub fn simulator(&self) -> &Simulator {
        self.sim
    }

    /// Total expectation-value evaluations (simulations) performed, including those
    /// hidden inside finite-difference gradients.  This is the cost unit of Figure 5.
    pub fn simulation_count(&self) -> usize {
        self.evals
    }
}

impl Objective for QaoaObjective<'_> {
    fn dim(&self) -> usize {
        // The parameter dimension is a property of the starting point (2p), not of the
        // problem; optimizers never rely on this value for QAOA objectives.
        0
    }

    fn value(&mut self, x: &[f64]) -> f64 {
        self.evals += 1;
        KERNELS.objective_evals.inc();
        let angles = Angles::from_flat(x);
        let e = match self.prefix.as_mut() {
            Some(cache) => self.sim.expectation_cached(&angles, &mut self.ws, cache),
            None => self.sim.expectation_with(&angles, &mut self.ws),
        };
        -e.expect("simulator and angles are mutually consistent")
    }

    fn value_and_gradient(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        let angles = Angles::from_flat(x);
        match self.gradient_method {
            GradientMethod::Adjoint => {
                // One reverse sweep ≈ a small constant number of forward passes; the
                // forward pass reuses any checkpoint prefix (commonly the full state
                // from a just-evaluated value at the same point).
                self.evals += 1;
                KERNELS.objective_evals.inc();
                let g = match self.prefix.as_mut() {
                    Some(cache) => adjoint_gradient_cached(self.sim, &angles, &mut self.ws, cache),
                    None => adjoint_gradient(self.sim, &angles, &mut self.ws),
                }
                .expect("simulator and angles are mutually consistent");
                for (dst, src) in grad.iter_mut().zip(g.to_flat()) {
                    *dst = -src;
                }
                -g.expectation
            }
            GradientMethod::FiniteDifference { eps } => {
                let f0 = self.value(x);
                let mut xp = x.to_vec();
                for i in 0..x.len() {
                    xp[i] = x[i] + eps;
                    let fp = self.value(&xp);
                    xp[i] = x[i] - eps;
                    let fm = self.value(&xp);
                    xp[i] = x[i];
                    grad[i] = (fp - fm) / (2.0 * eps);
                }
                f0
            }
        }
    }

    fn evaluations(&self) -> usize {
        self.evals
    }
}

impl Drop for QaoaObjective<'_> {
    fn drop(&mut self) {
        if let (Some(home), Some(cache)) = (self.home, self.prefix.take()) {
            home.check_in(cache);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juliqaoa_graphs::erdos_renyi;
    use juliqaoa_mixers::Mixer;
    use juliqaoa_problems::{precompute_full, MaxCut};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_sim() -> Simulator {
        let graph = erdos_renyi(5, 0.5, &mut StdRng::seed_from_u64(12));
        let obj = precompute_full(&MaxCut::new(graph));
        Simulator::new(obj, Mixer::transverse_field(5)).unwrap()
    }

    #[test]
    fn fn_objective_counts_and_evaluates() {
        let mut o = FnObjective::new(2, |x: &[f64]| x[0] * x[0] + x[1] * x[1]);
        assert_eq!(o.dim(), 2);
        assert_eq!(o.value(&[3.0, 4.0]), 25.0);
        assert_eq!(o.evaluations(), 1);
        let mut g = vec![0.0; 2];
        let v = o.value_and_gradient(&[1.0, 2.0], &mut g);
        assert!((v - 5.0).abs() < 1e-12);
        assert!((g[0] - 2.0).abs() < 1e-4);
        assert!((g[1] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn fn_objective_with_analytic_gradient() {
        let mut o = FnObjective::with_gradient(
            2,
            |x: &[f64]| x[0] * x[0] + 3.0 * x[1] * x[1],
            |x: &[f64], g: &mut [f64]| {
                g[0] = 2.0 * x[0];
                g[1] = 6.0 * x[1];
                x[0] * x[0] + 3.0 * x[1] * x[1]
            },
        );
        let mut g = vec![0.0; 2];
        let v = o.value_and_gradient(&[1.0, -1.0], &mut g);
        assert_eq!(v, 4.0);
        assert_eq!(g, vec![2.0, -6.0]);
    }

    #[test]
    fn qaoa_objective_is_negated_expectation() {
        let sim = small_sim();
        let mut obj = QaoaObjective::new(&sim);
        let angles = juliqaoa_core::Angles::random(2, &mut StdRng::seed_from_u64(3));
        let flat = angles.to_flat();
        let direct = sim.expectation(&angles).unwrap();
        assert!((obj.value(&flat) + direct).abs() < 1e-12);
        assert_eq!(obj.simulation_count(), 1);
        assert!(obj.simulator().dim() == 32);
    }

    #[test]
    fn adjoint_and_finite_difference_gradients_agree() {
        let sim = small_sim();
        let angles = juliqaoa_core::Angles::random(3, &mut StdRng::seed_from_u64(4));
        let flat = angles.to_flat();

        let mut adj = QaoaObjective::with_gradient_method(&sim, GradientMethod::Adjoint);
        let mut g_adj = vec![0.0; flat.len()];
        let v_adj = adj.value_and_gradient(&flat, &mut g_adj);

        let mut fd = QaoaObjective::with_gradient_method(
            &sim,
            GradientMethod::FiniteDifference { eps: 1e-5 },
        );
        let mut g_fd = vec![0.0; flat.len()];
        let v_fd = fd.value_and_gradient(&flat, &mut g_fd);

        assert!((v_adj - v_fd).abs() < 1e-9);
        for (a, b) in g_adj.iter().zip(g_fd.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
        // Finite differences cost 1 + 2·dim simulations, adjoint costs 1.
        assert_eq!(adj.simulation_count(), 1);
        assert_eq!(fd.simulation_count(), 1 + 2 * flat.len());
    }

    #[test]
    fn cached_and_uncached_objectives_are_bit_identical() {
        let sim = small_sim();
        let mut cached = QaoaObjective::new(&sim);
        let mut cold = QaoaObjective::new(&sim).without_prefix_reuse();
        let base = juliqaoa_core::Angles::random(3, &mut StdRng::seed_from_u64(8)).to_flat();
        // A suffix sweep plus exact repeats: the cached objective takes checkpoint
        // paths, the cold one re-evolves, and every value must match bit-for-bit.
        for step in 0..10 {
            let mut x = base.clone();
            x[2] += 0.05 * (step % 5) as f64;
            let a = cached.value(&x);
            let b = cold.value(&x);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let stats = cached.prefix_stats().expect("cache enabled");
        assert!(stats.hits > 0, "sweep must reuse prefixes");
        assert!(cold.prefix_stats().is_none());
    }

    #[test]
    fn finite_difference_gradient_reuses_prefixes_bit_identically() {
        let sim = small_sim();
        let eps = 1e-6;
        let mut cached =
            QaoaObjective::with_gradient_method(&sim, GradientMethod::FiniteDifference { eps });
        let mut cold =
            QaoaObjective::with_gradient_method(&sim, GradientMethod::FiniteDifference { eps })
                .without_prefix_reuse();
        let x = juliqaoa_core::Angles::random(3, &mut StdRng::seed_from_u64(21)).to_flat();
        let mut g_cached = vec![0.0; x.len()];
        let mut g_cold = vec![0.0; x.len()];
        let v_cached = cached.value_and_gradient(&x, &mut g_cached);
        let v_cold = cold.value_and_gradient(&x, &mut g_cold);
        assert_eq!(v_cached.to_bits(), v_cold.to_bits());
        for (a, b) in g_cached.iter().zip(g_cold.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Perturbing one round at a time shares prefixes with neighbours.
        let stats = cached.prefix_stats().expect("cache enabled");
        assert!(stats.hits > 0, "FD gradient must reuse prefixes");
    }

    #[test]
    fn adjoint_gradient_after_value_is_a_full_prefix_hit() {
        let sim = small_sim();
        let mut obj = QaoaObjective::new(&sim);
        let x = juliqaoa_core::Angles::random(2, &mut StdRng::seed_from_u64(4)).to_flat();
        let v = obj.value(&x);
        let _ = obj.value(&x); // repeat: full hit
        let mut g = vec![0.0; x.len()];
        let vg = obj.value_and_gradient(&x, &mut g);
        assert_eq!(v.to_bits(), vg.to_bits());
        let stats = obj.prefix_stats().expect("cache enabled");
        assert!(stats.hits >= 1);
    }

    #[test]
    fn cache_home_round_trips_the_cache_and_aggregates_stats() {
        let sim = small_sim();
        let home = PrefixCacheHome::with_budget(1 << 20);
        let x = juliqaoa_core::Angles::random(2, &mut StdRng::seed_from_u64(6)).to_flat();
        {
            let mut obj = QaoaObjective::new(&sim).with_cache_home(&home);
            let _ = obj.value(&x);
            let _ = obj.value(&x);
        } // drop returns the cache
        assert!(home.stats().hits >= 1);
        {
            // The next objective inherits the warmed cache: an immediate full hit.
            let mut obj = QaoaObjective::new(&sim).with_cache_home(&home);
            let _ = obj.value(&x);
        }
        let stats = home.stats();
        assert!(stats.hits >= 2, "warm cache must survive the round trip");
    }

    #[test]
    fn optimize_result_max_convention() {
        let r = OptimizeResult {
            x: vec![0.0],
            value: -3.5,
            iterations: 1,
            function_evals: 1,
            gradient_evals: 0,
            converged: true,
        };
        assert_eq!(r.maximized_value(), 3.5);
    }
}
