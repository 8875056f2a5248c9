//! Cache correctness: jobs sharing an instance hash must return bit-identical
//! energies while the expensive pre-computation (objective sweep + `PhaseClasses`
//! construction) happens exactly once.

use juliqaoa_optim::RunControl;
use juliqaoa_service::{Engine, JobSpec, MixerSpec, OptimizerSpec, ProblemSpec};

fn job(id: &str, problem: ProblemSpec, mixer: MixerSpec, seed: u64) -> JobSpec {
    JobSpec {
        id: id.into(),
        problem,
        mixer,
        p: 2,
        optimizer: OptimizerSpec::BasinHopping {
            n_hops: 3,
            step_size: 0.7,
            temperature: 1.0,
        },
        seed,
        sampling: None,
        timeout_ms: None,
    }
}

#[test]
fn same_instance_jobs_share_one_precomputation_and_agree_bitwise() {
    let engine = Engine::new(16);
    let problem = ProblemSpec::MaxCutGnp { n: 9, instance: 4 };
    let a = engine
        .run_job(
            &job("a", problem.clone(), MixerSpec::TransverseField, 7),
            &RunControl::new(),
        )
        .unwrap();
    let b = engine
        .run_job(
            &job("b", problem.clone(), MixerSpec::TransverseField, 7),
            &RunControl::new(),
        )
        .unwrap();

    // Same instance hash...
    assert_eq!(a.instance, b.instance);
    // ...one PhaseClasses/cost-vector construction (1 miss, then a hit)...
    let stats = engine.stats();
    assert_eq!(
        stats.cache_misses, 1,
        "precomputation must run exactly once"
    );
    assert_eq!(stats.cache_hits, 1);
    assert!(!a.cache_hit && b.cache_hit);
    // ...and bit-identical energies.
    assert_eq!(a.expectation.to_bits(), b.expectation.to_bits());
    assert_eq!(a.objective_max.to_bits(), b.objective_max.to_bits());
    assert_eq!(a.angles, b.angles);
}

#[test]
fn cached_results_match_a_cold_engine_exactly() {
    // A cache hit must not change results relative to computing from scratch.
    let warm = Engine::new(16);
    let cold = Engine::new(16);
    let problem = ProblemSpec::KSatRandom {
        n: 8,
        k: 3,
        density: 6.0,
        instance: 2,
    };
    // Warm the first engine's cache with a different job on the same instance.
    warm.run_job(
        &job("warmup", problem.clone(), MixerSpec::Grover, 123),
        &RunControl::new(),
    )
    .unwrap();
    let from_warm = warm
        .run_job(
            &job("x", problem.clone(), MixerSpec::Grover, 55),
            &RunControl::new(),
        )
        .unwrap();
    let from_cold = cold
        .run_job(
            &job("x", problem, MixerSpec::Grover, 55),
            &RunControl::new(),
        )
        .unwrap();
    assert!(from_warm.cache_hit);
    assert!(!from_cold.cache_hit);
    assert_eq!(
        from_warm.expectation.to_bits(),
        from_cold.expectation.to_bits()
    );
    assert_eq!(from_warm.angles, from_cold.angles);
    assert_eq!(from_warm.function_evals, from_cold.function_evals);
}

#[test]
fn different_mixers_share_the_instance_entry() {
    // The cache key is the instance, not (instance, mixer): a Dicke-constrained
    // problem reuses its objective vector across Grover/Clique/Ring jobs.
    let engine = Engine::new(16);
    let problem = ProblemSpec::DensestKSubgraphGnp {
        n: 8,
        k: 4,
        instance: 1,
    };
    for (i, mixer) in [MixerSpec::Grover, MixerSpec::Clique, MixerSpec::Ring]
        .into_iter()
        .enumerate()
    {
        engine
            .run_job(
                &job(&format!("m{i}"), problem.clone(), mixer, 9),
                &RunControl::new(),
            )
            .unwrap();
    }
    let stats = engine.stats();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 2);
}

#[test]
fn eviction_keeps_results_correct() {
    // A capacity-1 cache thrashes between two instances; results must still be
    // identical to a large-cache engine (the cache is an optimisation, never an input).
    let tiny = Engine::new(1);
    let big = Engine::new(16);
    let p0 = ProblemSpec::MaxCutGnp { n: 7, instance: 0 };
    let p1 = ProblemSpec::MaxCutGnp { n: 7, instance: 1 };
    for round in 0..2 {
        for (which, problem) in [p0.clone(), p1.clone()].into_iter().enumerate() {
            let id = format!("r{round}-i{which}");
            let spec = job(&id, problem, MixerSpec::TransverseField, 31 + which as u64);
            let a = tiny.run_job(&spec, &RunControl::new()).unwrap();
            let b = big.run_job(&spec, &RunControl::new()).unwrap();
            assert_eq!(a.expectation.to_bits(), b.expectation.to_bits());
        }
    }
    // The tiny cache must have evicted (more misses than distinct instances).
    assert!(tiny.stats().cache_misses > 2);
    assert_eq!(big.stats().cache_misses, 2);
}

#[test]
fn capacity_bounds_both_caches_exactly() {
    // `Engine::new(9)` promises at most 9 entries in each cache, whatever keys arrive.
    let engine = Engine::new(9);
    for instance in 0..27 {
        let spec = JobSpec {
            p: 1,
            optimizer: OptimizerSpec::GridSearch { resolution: 1 },
            ..job(
                &format!("distinct-{instance}"),
                ProblemSpec::MaxCutGnp { n: 6, instance },
                MixerSpec::TransverseField,
                1,
            )
        };
        engine.run_job(&spec, &RunControl::new()).unwrap();
    }
    assert_eq!(engine.stats().cache_misses, 27);
    assert_eq!(engine.cached_instances(), 9);
    assert_eq!(engine.cached_simulators(), 9);
}
