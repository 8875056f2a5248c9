//! The result oracle, run after the timed window.
//!
//! A result passes only if it is `done`, its quality lies in `[0, 1]`, and its
//! exact expectation matches a recompute at the returned angles by a fresh
//! `Simulator` to 1e-9 relative (`sampling.exact_expectation` for sample jobs,
//! whose histogram must also sum to the shot count).  Transverse-field MaxCut
//! results must also match the gate-level circuit simulator.

use juliqaoa_circuit::maxcut_qaoa_expectation_gate_sim;
use juliqaoa_combinatorics::DickeSubspace;
use juliqaoa_core::{Angles, Simulator};
use juliqaoa_mixers::Mixer;
use juliqaoa_problems::{paper_maxcut_instance, precompute_dicke, precompute_full, Fnv64};
use juliqaoa_service::{BuiltProblem, JobResult, JobSpec, MixerSpec, ProblemSpec};
use std::collections::BTreeMap;
use std::time::Instant;

const REL_TOL: f64 = 1e-9;

/// A mixer's family name and `(n, k)`; `k` is 0 on the full space.
pub type MixerKey = (&'static str, usize, usize);

/// Reference mixers, built once per `(kind, n, k)`: a mixer depends only on its
/// shape, and the dense XY builds take seconds.  Build times are kept for the
/// per-layer report.
#[derive(Default)]
pub struct Reference {
    mixers: BTreeMap<MixerKey, (Mixer, f64)>,
}

impl Reference {
    pub fn mixer(&mut self, spec: MixerSpec, problem: &BuiltProblem) -> Result<&Mixer, String> {
        let key = (spec.kind(), problem.n, problem.subspace_k.unwrap_or(0));
        let built = match self.mixers.entry(key) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => {
                let started = Instant::now();
                let mixer = spec.build(problem)?;
                e.insert((mixer, started.elapsed().as_secs_f64()))
            }
        };
        Ok(&built.0)
    }

    /// `(key, mixer, build seconds)` of every mixer built so far.
    pub fn built(&self) -> impl Iterator<Item = (MixerKey, &Mixer, f64)> {
        self.mixers.iter().map(|(k, (m, s))| (*k, m, *s))
    }
}

/// The objective values of a realised problem in simulation order.
pub fn objective_values(problem: &BuiltProblem) -> Vec<f64> {
    match problem.subspace_k {
        Some(k) => precompute_dicke(problem.cost.as_ref(), &DickeSubspace::new(problem.n, k)),
        None => precompute_full(problem.cost.as_ref()),
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1e-12)
}

/// Checks one result against its spec.
pub fn check(spec: &JobSpec, result: &JobResult, refs: &mut Reference) -> Result<(), String> {
    if result.status != "done" {
        return Err(format!("status {:?}", result.status));
    }
    if result.id != spec.id || result.angles.len() != 2 * spec.p {
        return Err("result does not answer its spec".into());
    }
    // Rounding can put an optimal result a few ulps above 1.
    if !(-REL_TOL..=1.0 + REL_TOL).contains(&result.quality) {
        return Err(format!("quality {} outside [0, 1]", result.quality));
    }
    let problem = spec.problem.build()?;
    let values = objective_values(&problem);
    let mixer = refs.mixer(spec.mixer, &problem)?.clone();
    let angles = Angles::from_flat(&result.angles);
    let exact = Simulator::new(values.clone(), mixer)
        .and_then(|sim| sim.expectation(&angles))
        .map_err(|e| e.to_string())?;
    let claimed = match (&spec.sampling, &result.sampling) {
        (None, None) => result.expectation,
        (Some(asked), Some(report)) => {
            let drawn: u64 = report.ratio_histogram.iter().sum();
            if drawn != asked.shots {
                return Err(format!(
                    "histogram holds {drawn} shots, not {}",
                    asked.shots
                ));
            }
            report.exact_expectation
        }
        _ => return Err("sampling report does not match the spec".into()),
    };
    if !close(exact, claimed) {
        return Err(format!(
            "expectation {claimed} but a fresh simulator gives {exact}"
        ));
    }
    if let (ProblemSpec::MaxCutGnp { n, instance }, MixerSpec::TransverseField) =
        (&spec.problem, spec.mixer)
    {
        let gates = maxcut_qaoa_expectation_gate_sim(
            &paper_maxcut_instance(*n, *instance),
            angles.betas(),
            angles.gammas(),
            &values,
        );
        if !close(gates, claimed) {
            return Err(format!(
                "expectation {claimed} but the gate simulator gives {gates}"
            ));
        }
    }
    Ok(())
}

/// FNV-1a over the sorted `(id, expectation bits, angle bits)` of the results:
/// information only, so a reviewed numerical change is visible without failing
/// the benchmark.
pub fn digest<'a>(results: impl IntoIterator<Item = &'a JobResult>) -> String {
    let mut rows: Vec<(&str, u64, Vec<u64>)> = results
        .into_iter()
        .map(|r| {
            let bits = r.angles.iter().map(|a| a.to_bits()).collect();
            (r.id.as_str(), r.expectation.to_bits(), bits)
        })
        .collect();
    rows.sort();
    let mut h = Fnv64::new();
    for (id, expectation, angles) in rows {
        h.write_str(id);
        h.write_u64(expectation);
        angles.into_iter().for_each(|a| h.write_u64(a));
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{batch_round, grid_job, hot_job, Sizes};
    use juliqaoa_optim::RunControl;
    use juliqaoa_service::Engine;

    fn run(spec: &JobSpec) -> JobResult {
        Engine::new(4)
            .run_job(spec, &RunControl::new())
            .expect("job runs")
    }

    #[test]
    fn genuine_results_pass_and_tampered_ones_are_rejected() {
        let sizes = Sizes::tiny();
        let specs = vec![
            hot_job(7, &[1, 2], &sizes, 0),
            grid_job(7, &[3], &sizes, 0),
            batch_round(7, &sizes, 0).swap_remove(0),
        ];
        let mut refs = Reference::default();
        for spec in &specs {
            let result = run(spec);
            check(spec, &result, &mut refs).expect("a genuine result passes");

            let mut tampered = result.clone();
            match &mut tampered.sampling {
                Some(report) => report.exact_expectation *= 1.0 + 1e-6,
                None => tampered.expectation *= 1.0 + 1e-6,
            }
            assert!(check(spec, &tampered, &mut refs).is_err(), "{}", spec.id);

            let mut unfinished = result.clone();
            unfinished.status = "timed_out".into();
            assert!(check(spec, &unfinished, &mut refs).is_err());

            if let Some(report) = &result.sampling {
                let mut short = result.clone();
                let mut report = report.clone();
                report.ratio_histogram[0] += 1;
                short.sampling = Some(report);
                assert!(check(spec, &short, &mut refs).is_err());
            }
        }
    }

    #[test]
    fn digest_ignores_order_and_sees_every_bit() {
        let spec = hot_job(1, &[1], &Sizes::tiny(), 0);
        let a = run(&spec);
        let mut b = a.clone();
        b.id = "other".into();
        assert_eq!(digest([&a, &b]), digest([&b, &a]));
        let mut c = b.clone();
        c.expectation = f64::from_bits(c.expectation.to_bits() ^ 1);
        assert_ne!(digest([&a, &b]), digest([&a, &c]));
    }
}
