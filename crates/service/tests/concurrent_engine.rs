//! Concurrency contracts of the shared engine:
//!
//! * N threads hammering one `(instance, mixer)` slot produce results bit-identical
//!   to serial execution — caches change cost, never answers;
//! * instance preparation is single-flight: concurrent misses on one instance
//!   coalesce into exactly one build (asserted via the engine's build counter).

use juliqaoa_optim::RunControl;
use juliqaoa_problems::{CostFunction, InstanceId};
use juliqaoa_service::{
    BuiltProblem, Engine, JobSpec, MixerSpec, OptimizerSpec, ProblemSpec, ServiceError,
};
use std::sync::{Arc, Barrier, Mutex};

fn slot_job(id: &str, seed: u64) -> JobSpec {
    JobSpec {
        id: id.into(),
        problem: ProblemSpec::MaxCutGnp { n: 8, instance: 0 },
        mixer: MixerSpec::TransverseField,
        p: 2,
        optimizer: OptimizerSpec::BasinHopping {
            n_hops: 2,
            step_size: 0.6,
            temperature: 1.0,
        },
        seed,
        sampling: None,
        timeout_ms: None,
    }
}

#[test]
fn threads_hammering_one_slot_match_serial_execution_bit_for_bit() {
    let specs: Vec<JobSpec> = (0..8)
        .map(|i| slot_job(&format!("job-{i}"), 100 + i as u64))
        .collect();

    // Serial reference: one worker, jobs in order.
    let serial_engine = Engine::new(8);
    let serial: Vec<_> = specs
        .iter()
        .map(|spec| {
            let _guard = juliqaoa_linalg::enter_outer_parallelism();
            serial_engine.run_job(spec, &RunControl::new()).unwrap()
        })
        .collect();

    // Concurrent run: 4 worker threads released together, 2 jobs each, all on the
    // same (instance, mixer) slot.
    let engine = Arc::new(Engine::new(8));
    let results = Arc::new(Mutex::new(Vec::new()));
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let engine = engine.clone();
            let results = results.clone();
            let barrier = barrier.clone();
            let mine: Vec<JobSpec> = specs[2 * t..2 * t + 2].to_vec();
            std::thread::spawn(move || {
                let _guard = juliqaoa_linalg::enter_outer_parallelism();
                barrier.wait();
                for spec in mine {
                    let res = engine.run_job(&spec, &RunControl::new()).unwrap();
                    results.lock().unwrap().push(res);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let concurrent = results.lock().unwrap();
    assert_eq!(concurrent.len(), serial.len());
    for reference in &serial {
        let got = concurrent
            .iter()
            .find(|r| r.id == reference.id)
            .expect("every job finished");
        assert_eq!(
            got.expectation.to_bits(),
            reference.expectation.to_bits(),
            "{}: concurrent result diverged from serial",
            reference.id
        );
        assert_eq!(got.angles, reference.angles, "{}", reference.id);
    }

    let stats = engine.stats();
    assert_eq!(stats.jobs_executed, 8);
    // One distinct instance: exactly one build, however the 8 jobs interleaved.
    assert_eq!(
        stats.instance_builds, 1,
        "single-flight must coalesce builds"
    );
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 7);
    assert_eq!(engine.cached_instances(), 1);
    assert_eq!(engine.cached_simulators(), 1);
}

/// A cost function whose first evaluation announces the build has started, then
/// stalls — so the test can provably route every other worker into `prepare` while
/// the build is still in flight.
struct SlowCost {
    n: usize,
    started: Arc<std::sync::atomic::AtomicBool>,
}

impl CostFunction for SlowCost {
    fn num_qubits(&self) -> usize {
        self.n
    }

    fn evaluate(&self, state: u64) -> f64 {
        use std::sync::atomic::Ordering;
        if !self.started.swap(true, Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(150));
        }
        state.count_ones() as f64
    }
}

#[test]
fn concurrent_misses_on_one_instance_build_exactly_once() {
    const WORKERS: usize = 4;
    let engine = Arc::new(Engine::new(8));
    let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let problem = Arc::new(BuiltProblem {
        kind: "slow",
        n: 6,
        subspace_k: None,
        cost: Box::new(SlowCost {
            n: 6,
            started: started.clone(),
        }),
        instance_id: InstanceId::from_raw(0xC0A1E5CE),
    });

    // Worker 0 becomes the builder; its first cost evaluation raises the flag and
    // stalls the build.  The other workers call `prepare` only once the flag is up,
    // so their misses provably land while the build is in flight.
    let handles: Vec<_> = (0..WORKERS)
        .map(|t| {
            let engine = engine.clone();
            let problem = problem.clone();
            let started = started.clone();
            std::thread::spawn(move || {
                if t > 0 {
                    while !started.load(std::sync::atomic::Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                let (prepared, _hit) = engine.prepare(&problem);
                prepared
            })
        })
        .collect();
    let prepared: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Everyone holds the same shared build.
    for other in &prepared[1..] {
        assert!(Arc::ptr_eq(&prepared[0], other));
    }
    let stats = engine.stats();
    assert_eq!(stats.instance_builds, 1, "one build for {WORKERS} workers");
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits as usize, WORKERS - 1);
    assert_eq!(
        stats.prep_coalesced as usize,
        WORKERS - 1,
        "every non-builder must wait on the in-flight build, not duplicate it"
    );
}

#[test]
fn prepare_errors_do_not_leak_inflight_state() {
    // A spec error after a successful prepare must leave the engine reusable: the
    // same instance prepares again as a plain cache hit with no duplicate build.
    let engine = Engine::new(8);
    let mut bad = slot_job("bad-mixer", 1);
    bad.mixer = MixerSpec::Clique; // incompatible with an unconstrained problem
    assert!(matches!(
        engine.run_job(&bad, &RunControl::new()),
        Err(ServiceError::Spec(_))
    ));
    let ok = engine
        .run_job(&slot_job("ok", 2), &RunControl::new())
        .unwrap();
    assert_eq!(ok.status, "done");
    let stats = engine.stats();
    assert_eq!(stats.instance_builds, 1, "failed job's build is reused");
    assert!(ok.cache_hit);
}
