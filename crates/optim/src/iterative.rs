//! The paper's iterative, extrapolation-seeded angle finder (`find_angles`).
//!
//! §2.3: high-quality angles for a `(p−1)`-round QAOA seed the `p`-round search; starting
//! from the extrapolated angles, basin hopping explores nearby local minima.  Progress is
//! saved per round so an interrupted run resumes where it stopped, and callers can skip
//! the iterative build-up by providing explicit starting angles.

use crate::basinhopping::{basinhopping, BasinHoppingOptions};
use crate::objective::{GradientMethod, QaoaObjective};
use crate::persistence::AngleProgress;
use juliqaoa_core::{Angles, Simulator};
use rand::Rng;
use std::path::PathBuf;

/// Options controlling [`find_angles`].
#[derive(Clone, Debug)]
pub struct IterativeOptions {
    /// The largest number of rounds to optimize up to.
    pub target_p: usize,
    /// Basin-hopping parameters used at every round.
    pub basinhopping: BasinHoppingOptions,
    /// Gradient method for the inner BFGS (adjoint by default).
    pub gradient_method: GradientMethod,
    /// Optional progress file: existing rounds are loaded, new rounds are appended
    /// (Listing 3's `file=` keyword).
    pub save_file: Option<PathBuf>,
    /// Optional explicit starting angles for `target_p` rounds; when given, the
    /// iterative build-up is skipped and basin hopping starts here directly (the
    /// `initial_angles` keyword).
    pub initial_angles: Option<Vec<f64>>,
    /// Number of random seeds tried at `p = 1` before the best is polished.
    pub p1_seeds: usize,
}

impl Default for IterativeOptions {
    fn default() -> Self {
        IterativeOptions {
            target_p: 1,
            basinhopping: BasinHoppingOptions::default(),
            gradient_method: GradientMethod::Adjoint,
            save_file: None,
            initial_angles: None,
            p1_seeds: 5,
        }
    }
}

/// The outcome of an iterative angle-finding run.
#[derive(Clone, Debug)]
pub struct IterativeResult {
    /// For every round count `1..=target_p`: the best flat angles and the expectation
    /// value they achieve.
    pub per_round: Vec<(usize, Vec<f64>, f64)>,
    /// Total number of simulator evaluations spent.
    pub simulations: usize,
}

impl IterativeResult {
    /// The best angles found for the largest round count.
    pub fn best_angles(&self) -> &[f64] {
        &self.per_round.last().expect("at least one round").1
    }

    /// The best expectation value at the largest round count.
    pub fn best_expectation(&self) -> f64 {
        self.per_round.last().expect("at least one round").2
    }
}

/// Finds high-quality angles for `1..=target_p` rounds by iterative extrapolation and
/// basin hopping, maximising the simulator's expectation value.
pub fn find_angles<R: Rng + ?Sized>(
    sim: &Simulator,
    opts: &IterativeOptions,
    rng: &mut R,
) -> IterativeResult {
    assert!(opts.target_p >= 1, "target_p must be at least 1");

    // Resume from saved progress when a file is given.
    let mut progress = match &opts.save_file {
        Some(path) => AngleProgress::load_or_default(path).unwrap_or_default(),
        None => AngleProgress::new(),
    };

    let mut objective = QaoaObjective::with_gradient_method(sim, opts.gradient_method);
    let mut per_round = Vec::new();

    // Explicit initial angles short-circuit the iterative build-up.
    if let Some(init) = &opts.initial_angles {
        assert_eq!(
            init.len(),
            2 * opts.target_p,
            "initial_angles must have length 2·target_p"
        );
        let res = basinhopping(&mut objective, init, &opts.basinhopping, rng);
        let expectation = -res.value;
        per_round.push((opts.target_p, res.x.clone(), expectation));
        if let Some(path) = &opts.save_file {
            progress.record(opts.target_p, res.x, expectation);
            let _ = progress.save(path);
        }
        return IterativeResult {
            per_round,
            simulations: objective.simulation_count(),
        };
    }

    let mut previous_best: Option<Vec<f64>> = None;
    for p in 1..=opts.target_p {
        // Re-use saved work when resuming.
        if let Some(saved) = progress.get(p) {
            per_round.push((p, saved.angles.clone(), saved.expectation));
            previous_best = Some(saved.angles.clone());
            continue;
        }

        let seed_flat = match &previous_best {
            Some(prev) => {
                // Two candidate seeds: linear extrapolation of the (p−1)-round schedule,
                // and the (p−1)-round angles with a zero round appended (which reproduces
                // the (p−1)-round circuit exactly and therefore guarantees no regression).
                let prev_angles = Angles::from_flat(prev);
                let extrapolated = prev_angles.extrapolate().to_flat();
                let padded = {
                    let mut betas = prev_angles.betas().to_vec();
                    let mut gammas = prev_angles.gammas().to_vec();
                    betas.push(0.0);
                    gammas.push(0.0);
                    Angles::new(betas, gammas).to_flat()
                };
                let (v_ext, v_pad) = {
                    use crate::objective::Objective;
                    (objective.value(&extrapolated), objective.value(&padded))
                };
                if v_ext <= v_pad {
                    extrapolated
                } else {
                    padded
                }
            }
            None => {
                // p = 1: take the best of a handful of random seeds as the start.
                let mut best: Option<(Vec<f64>, f64)> = None;
                for _ in 0..opts.p1_seeds.max(1) {
                    let candidate = Angles::random(1, rng).to_flat();
                    let value = {
                        use crate::objective::Objective;
                        objective.value(&candidate)
                    };
                    if best.as_ref().map(|(_, v)| value < *v).unwrap_or(true) {
                        best = Some((candidate, value));
                    }
                }
                best.expect("p1_seeds >= 1").0
            }
        };

        let res = basinhopping(&mut objective, &seed_flat, &opts.basinhopping, rng);
        let mut best_angles = res.x;
        let mut expectation = -res.value;

        // Monotonicity safeguard: a p-round QAOA can always reproduce the best
        // (p−1)-round result by zeroing the extra round, so never report worse.
        if let Some((_, prev_flat, prev_expectation)) = per_round.last() {
            if *prev_expectation > expectation {
                let prev_angles = Angles::from_flat(prev_flat);
                let mut betas = prev_angles.betas().to_vec();
                let mut gammas = prev_angles.gammas().to_vec();
                betas.push(0.0);
                gammas.push(0.0);
                best_angles = Angles::new(betas, gammas).to_flat();
                expectation = *prev_expectation;
            }
        }

        per_round.push((p, best_angles.clone(), expectation));
        previous_best = Some(best_angles.clone());

        if let Some(path) = &opts.save_file {
            progress.record(p, best_angles, expectation);
            let _ = progress.save(path);
        }
    }

    IterativeResult {
        per_round,
        simulations: objective.simulation_count(),
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

    fn small_sim(seed: u64) -> Simulator {
        let graph = erdos_renyi(6, 0.5, &mut StdRng::seed_from_u64(seed));
        let obj = precompute_full(&MaxCut::new(graph));
        Simulator::new(obj, Mixer::transverse_field(6)).unwrap()
    }

    fn quick_options(target_p: usize) -> IterativeOptions {
        IterativeOptions {
            target_p,
            basinhopping: BasinHoppingOptions {
                n_hops: 3,
                ..Default::default()
            },
            p1_seeds: 3,
            ..Default::default()
        }
    }

    #[test]
    fn expectation_improves_monotonically_with_rounds() {
        let sim = small_sim(17);
        let res = find_angles(&sim, &quick_options(3), &mut StdRng::seed_from_u64(1));
        assert_eq!(res.per_round.len(), 3);
        // Each added round can only help (the optimizer can always reproduce p−1 by
        // setting the extra angles to zero); allow a small numerical slack.
        for w in res.per_round.windows(2) {
            assert!(
                w[1].2 >= w[0].2 - 1e-6,
                "round {} expectation {} dropped below round {} expectation {}",
                w[1].0,
                w[1].2,
                w[0].0,
                w[0].2
            );
        }
        // And p = 3 should beat the uniform-superposition baseline comfortably.
        let mean = sim.objective_values().iter().sum::<f64>() / sim.dim() as f64;
        assert!(res.best_expectation() > mean);
        assert!(res.simulations > 0);
        assert_eq!(res.best_angles().len(), 6);
    }

    #[test]
    fn p1_angles_get_close_to_grid_optimum() {
        let sim = small_sim(23);
        let opts = IterativeOptions {
            target_p: 1,
            basinhopping: BasinHoppingOptions {
                n_hops: 30,
                step_size: 1.5,
                ..Default::default()
            },
            p1_seeds: 5,
            ..Default::default()
        };
        let res = find_angles(&sim, &opts, &mut StdRng::seed_from_u64(3));
        // Reference: dense grid over (β, γ).
        let mut best_grid = f64::NEG_INFINITY;
        for ib in 0..40 {
            for ig in 0..40 {
                let beta = ib as f64 * std::f64::consts::PI / 40.0;
                let gamma = ig as f64 * std::f64::consts::PI / 40.0;
                let e = sim
                    .expectation(&Angles::new(vec![beta], vec![gamma]))
                    .unwrap();
                best_grid = best_grid.max(e);
            }
        }
        assert!(
            res.best_expectation() >= best_grid - 0.05,
            "iterative p=1 result {} is far below grid optimum {}",
            res.best_expectation(),
            best_grid
        );
    }

    #[test]
    fn explicit_initial_angles_skip_the_buildup() {
        let sim = small_sim(29);
        let opts = IterativeOptions {
            target_p: 2,
            initial_angles: Some(vec![0.3, 0.2, 0.5, 0.6]),
            basinhopping: BasinHoppingOptions {
                n_hops: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let res = find_angles(&sim, &opts, &mut StdRng::seed_from_u64(4));
        assert_eq!(res.per_round.len(), 1);
        assert_eq!(res.per_round[0].0, 2);
        assert_eq!(res.best_angles().len(), 4);
    }

    #[test]
    fn progress_file_resumes_without_recomputation() {
        let sim = small_sim(31);
        let path = std::env::temp_dir().join(format!(
            "juliqaoa_iterative_test_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        let mut opts = quick_options(2);
        opts.save_file = Some(path.clone());
        let first = find_angles(&sim, &opts, &mut StdRng::seed_from_u64(5));
        assert!(path.exists());

        // Resume to a higher target: rounds 1 and 2 come from the file verbatim.
        let mut opts3 = quick_options(3);
        opts3.save_file = Some(path.clone());
        let second = find_angles(&sim, &opts3, &mut StdRng::seed_from_u64(999));
        assert_eq!(second.per_round[0].1, first.per_round[0].1);
        assert_eq!(second.per_round[1].1, first.per_round[1].1);
        assert_eq!(second.per_round.len(), 3);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic]
    fn zero_target_p_panics() {
        let sim = small_sim(2);
        let _ = find_angles(
            &sim,
            &IterativeOptions {
                target_p: 0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(0),
        );
    }
}
