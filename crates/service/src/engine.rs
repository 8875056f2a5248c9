//! The shared job-execution engine behind both batch and serve front-ends.
//!
//! The engine owns the *instance cache*: a thread-safe LRU from [`InstanceId`] to the
//! expensive pre-computation a job needs — the objective-value vector over the feasible
//! set and its [`PhaseClasses`] compression.  Following the knowledge-compilation view
//! of binary polynomial optimization (compile the objective once, evaluate many times),
//! jobs over the same instance compile once and share: the second MaxCut job on graph
//! `G` pays a `memcpy` instead of a `2ⁿ`-state sweep plus a compression scan.
//!
//! Execution itself is stateless per job: build the cost function from the spec, fetch
//! or compute the prepared objective, assemble a [`Simulator`] via
//! [`Simulator::from_parts`], and drive the requested optimizer with the job's own
//! seeded RNG — so a job's result is a pure function of its spec, independent of
//! scheduling, thread count and cache state.
//!
//! Grover-mixer jobs, full or Dicke, run in *class space*: the slot's simulator is
//! [`Simulator::grover_classes`] over the cached values' degeneracy table, one amplitude
//! per distinct value (paper §2.4, fair sampling).  The optimizers, objectives, prefix
//! checkpoints and estimators run unchanged on it; only the readout's two state-level
//! fields need per-state draws, made inside the sampled classes (see
//! `class_space_draws`).
//!
//! Sample jobs draw each evaluation's shots as per-class counts whenever the
//! simulator has value classes (class space, or the phase classes of a full-state or
//! Dicke objective; see `SampledObjective`), so the estimate is `O(classes)` per
//! evaluation.  A full-state or Dicke readout resolves the best point's class counts
//! to member states in proportion to `|ψ_x|²` (see `member_draws`).
//!
//! Two caches sit under that statelessness, both transparent to results:
//!
//! 1. the **instance cache** above (objective vector + compression, keyed by
//!    [`InstanceId`]);
//! 2. the **simulator slot cache**: per `(instance, mixer)` pair, an immutable shared
//!    [`Simulator`], so repeat jobs skip re-cloning the `2ⁿ` objective and rebuilding
//!    the mixer (for Grover jobs, the class table and weighted mixer).
//!
//! Each cache is one [`LruCache`] behind one mutex, bounded to the engine's entry
//! capacity and [`DEFAULT_CACHE_BYTES`]; a job takes a cache lock a handful of times,
//! for microseconds each.  Instance preparation is **single-flight**: concurrent
//! misses on one [`InstanceId`] coalesce, one worker builds the `2ⁿ` pre-computation
//! while the rest block on the in-flight entry and share the result (counted in
//! `prep_coalesced`), so a thundering herd on a cold instance pays one build, not one
//! per worker.
//!
//! Prefix checkpoints belong to each objective's workspace and die with it; a job's
//! objectives and its sampling readout add their shots and prefix reuse to one
//! per-job [`EvalTally`], which feeds `JobResult.sampling.shots_total` and the
//! `engine_prefix_*` counters.  Prefix reuse is bit-identical by construction, so it
//! changes a job's cost, never its answer.

use crate::lru::LruCache;
use crate::spec::{
    BuiltProblem, EstimatorSpec, JobResult, JobSpec, JobTimings, MixerSpec, OptimizerSpec,
    SampleReport, SamplingSpec, RATIO_HISTOGRAM_BINS,
};
use juliqaoa_combinatorics::{derive_stream_seed, fold_bits, DickeSubspace};
use juliqaoa_core::{Angles, QaoaError, Simulator, ValueClasses};
use juliqaoa_linalg::Complex64;
use juliqaoa_optim::{
    basinhopping_with_control, grid_search_ordered, qaoa_axis_order, random_restart_with_control,
    BasinHoppingOptions, EvalTally, Objective, OptimizeResult, QaoaObjective, RandomRestartOptions,
    RunControl, SampledObjective, ShotDraw,
};
use juliqaoa_problems::{
    precompute_dicke, precompute_full, DegeneracyTable, InstanceId, PhaseClasses,
};
use juliqaoa_sampling::{estimator, multinomial, IndexMap, SampleCounts};
use juliqaoa_telemetry::{SpanCollector, Stage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};

/// Errors surfaced by job execution.
#[derive(Debug)]
pub enum ServiceError {
    /// The spec is invalid (unknown kind, incompatible mixer, out-of-range size…).
    Spec(String),
    /// The underlying simulator rejected the assembled pieces.
    Simulation(QaoaError),
    /// Reading or writing job/result files failed.
    Io(String),
    /// The job panicked mid-run and was converted to a structured failure by
    /// [`Engine::run_job_with_retry`].
    Panicked(String),
    /// The job's deadline expired before it produced even a partial result.  (A
    /// deadline that expires after some progress returns a `"timed_out"`
    /// [`JobResult`] carrying the best-so-far angles instead of this error.)
    TimedOut(String),
}

impl ServiceError {
    /// Whether a retry could plausibly succeed.  Panics (poisoned single-flight
    /// builds, chaos injection) and I/O errors are transient; spec and simulation
    /// errors are deterministic properties of the job, and a timeout would only
    /// burn its budget again.
    pub fn is_transient(&self) -> bool {
        matches!(self, ServiceError::Panicked(_) | ServiceError::Io(_))
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Spec(msg) => write!(f, "invalid job spec: {msg}"),
            ServiceError::Simulation(e) => write!(f, "simulation error: {e}"),
            ServiceError::Io(msg) => write!(f, "I/O error: {msg}"),
            ServiceError::Panicked(msg) => write!(f, "job panicked mid-run: {msg}"),
            ServiceError::TimedOut(msg) => write!(f, "job timed out: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<QaoaError> for ServiceError {
    fn from(e: QaoaError) -> Self {
        ServiceError::Simulation(e)
    }
}

/// The cached pre-computation for one problem instance.
pub struct PreparedObjective {
    /// Objective values over the feasible set, in simulation order.
    pub values: Vec<f64>,
    /// Phase-class compression of `values` (`None` for incompressible objectives).
    pub classes: Option<PhaseClasses>,
    /// Largest objective value.
    pub max: f64,
    /// Smallest objective value.
    pub min: f64,
    /// Whether every objective value is finite.  Degenerate instances (overflowing
    /// explicit weights) can realise `±∞` or NaN values; jobs on such instances are
    /// rejected with a structured error before any estimator or optimizer sees them.
    pub finite: bool,
}

impl PreparedObjective {
    fn compute(problem: &BuiltProblem) -> Self {
        let values = match problem.subspace_k {
            Some(k) => {
                let subspace = DickeSubspace::new(problem.n, k);
                precompute_dicke(problem.cost.as_ref(), &subspace)
            }
            None => precompute_full(problem.cost.as_ref()),
        };
        let classes = PhaseClasses::build(&values);
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        let mut finite = true;
        // One pass: `f64::max`/`min` silently skip NaN, so finiteness needs its own
        // check — a finite-looking (max, min) pair can hide NaN entries.
        for &v in &values {
            finite &= v.is_finite();
            max = max.max(v);
            min = min.min(v);
        }
        PreparedObjective {
            values,
            classes,
            max,
            min,
            finite,
        }
    }

    /// Approximate heap footprint, the weight charged against the cache's byte
    /// budget: the value vector plus the compression's index/value tables.
    pub fn approx_bytes(&self) -> u64 {
        let classes_bytes = self.classes.as_ref().map_or(0, PhaseClasses::bytes);
        (8 * self.values.len() + classes_bytes) as u64
    }
}

juliqaoa_telemetry::counter_set! {
    /// Monotonic engine counters, readable while jobs run.
    pub struct EngineCounters;
    /// A snapshot of the engine counters: the `engine` object of `GET /stats`.
    #[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize, PartialEq)]
    pub struct EngineStats;
    // Includes jobs cancelled part-way.
    jobs_executed: "engine_jobs_executed", "Jobs the engine ran to a result.";
    jobs_failed: "engine_jobs_failed", "Jobs that errored inside the engine.";
    cache_hits: "engine_cache_hits", "Instance-cache hits.";
    cache_misses: "engine_cache_misses", "Instance-cache misses.";
    // With single-flight coalescing this equals `cache_misses`: concurrent misses
    // on one instance produce one build, and the waiters count as hits.
    instance_builds: "engine_instance_builds",
        "Problem instances actually realised (misses minus coalesced preps).";
    prep_coalesced: "engine_prep_coalesced",
        "Concurrent builds of the same instance coalesced into one.";
    // A subset of `jobs_failed`.
    jobs_panicked: "engine_jobs_panicked",
        "Jobs that panicked and were converted to structured failures.";
    // Jobs that got far enough to report best-so-far angles count under
    // `jobs_executed` too; jobs that timed out before any evaluation count under
    // `jobs_failed`.
    jobs_timed_out: "engine_jobs_timed_out", "Jobs whose deadline expired inside the engine.";
    // One increment per re-run under a `RetryPolicy`, however it then fared.
    jobs_retried: "engine_jobs_retried", "Transiently-failed job attempts that were retried.";
    prefix_hits: "engine_prefix_hits", "Prefix-checkpoint cache hits.";
    prefix_misses: "engine_prefix_misses", "Prefix-checkpoint cache misses (cold starts).";
    prefix_rounds_saved: "engine_prefix_rounds_saved",
        "QAOA rounds skipped thanks to prefix checkpoints.";
    // Every sample job that reached the optimizer, timed-out ones included.
    sample_jobs: "engine_sample_jobs", "Jobs that ran shot-based sampling.";
    // Every optimizer evaluation plus each job's final readout.
    shots_drawn: "engine_shots_drawn", "Measurement shots drawn across all sample jobs.";
}

juliqaoa_telemetry::histogram_set! {
    /// Per-stage latency histograms the engine records for every job it runs.
    ///
    /// Observation-only: buckets are relaxed atomics (see
    /// [`juliqaoa_telemetry::Histogram`]), so results stay bit-identical with
    /// telemetry on or off.  The serving tier records the queue-wait and
    /// journal-write stages (the engine never sees a queue or a journal); the
    /// rest are recorded by [`Engine::run_job`] itself.
    pub struct EngineTelemetry;
    queue_wait_ms: "job_queue_wait_ms",
        "Milliseconds jobs spent queued before a worker picked them up.";
    prep_ms: "job_prep_ms",
        "Milliseconds spent realising the problem instance (cache misses included).";
    optimize_ms: "job_optimize_ms", "Milliseconds spent in the optimizer loop.";
    sampling_readout_ms: "job_sampling_readout_ms",
        "Milliseconds spent drawing shots and estimating sampled objectives.";
    journal_write_ms: "job_journal_write_ms",
        "Milliseconds spent appending results to the journal.";
    total_ms: "job_total_ms", "End-to-end milliseconds per job inside the engine.";
}

/// The shared simulator for one `(instance, mixer)` pair, immutable once built.
struct SimSlot {
    sim: Simulator,
    /// The degeneracy table a class-space (Grover) simulator was built from; class `c`
    /// of the simulator is entry `c`.  The readout draws member states from it.
    classes: Option<DegeneracyTable>,
}

impl SimSlot {
    /// The slot's LRU weight: what the simulator holds (its copy of the prepared data
    /// or, in class space, the class values and mixer reference; its mixers' hop tables
    /// or custom eigendecomposition) plus the degeneracy table.
    fn weight(&self) -> u64 {
        let classes = self
            .classes
            .as_ref()
            .map_or(0, |table| std::mem::size_of_val(table.entries.as_slice()));
        (self.sim.bytes() + classes) as u64
    }
}

/// Clones the value cached under `key` out of a locked LRU, marking it most recently
/// used; the lock is held only for the lookup.
fn lookup<K: Eq + Hash + Clone, V: Clone>(cache: &Mutex<LruCache<K, V>>, key: &K) -> Option<V> {
    cache
        .lock()
        .expect("engine cache poisoned")
        .get(key)
        .cloned()
}

/// Single-flight coordination for one in-progress instance preparation: the builder
/// publishes exactly once, waiters block on the condvar.
struct PrepFlight {
    /// `None` while building; `Some(Some(_))` once published; `Some(None)` when the
    /// builder panicked (waiters then retry, one becoming the new builder).
    result: Mutex<Option<Option<Arc<PreparedObjective>>>>,
    done: Condvar,
}

impl PrepFlight {
    fn new() -> Self {
        PrepFlight {
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn publish(&self, out: Option<Arc<PreparedObjective>>) {
        *self.result.lock().expect("prep flight poisoned") = Some(out);
        self.done.notify_all();
    }

    fn wait(&self) -> Option<Arc<PreparedObjective>> {
        let mut result = self.result.lock().expect("prep flight poisoned");
        loop {
            match &*result {
                Some(out) => return out.clone(),
                None => result = self.done.wait(result).expect("prep flight poisoned"),
            }
        }
    }
}

/// Renders a caught panic payload as text (the common `&str`/`String` payloads;
/// anything else gets a placeholder) for [`Engine::run_job_with_retry`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The shared execution engine: instance cache, simulator slots and counters.
pub struct Engine {
    cache: Mutex<LruCache<InstanceId, Arc<PreparedObjective>>>,
    /// In-flight preparations, for single-flight coalescing.  A plain mutex is fine
    /// here: it is touched only on instance-cache misses, and the expensive build
    /// happens outside it.
    inflight: Mutex<HashMap<InstanceId, Arc<PrepFlight>>>,
    sims: Mutex<LruCache<(InstanceId, MixerSpec), Arc<SimSlot>>>,
    counters: EngineCounters,
    telemetry: EngineTelemetry,
    /// Optional span collector: when the serving or batch tier installs one, the
    /// engine turns each job's timing stages (prep / optimize / sampling
    /// readout) into real child spans under the job's trace id.
    /// Observation-only — read once per job, never inside kernels.
    spans: Mutex<Option<Arc<SpanCollector>>>,
}

/// The per-worker objective a job's optimizer drives: exact expectation for plain
/// jobs, a shot estimator for `"sample"` jobs.  One enum so the three optimizer
/// drivers below stay single-path.
enum JobObjective<'a> {
    Exact(QaoaObjective<'a>),
    Sampled(SampledObjective<'a>),
}

impl JobObjective<'_> {
    fn build<'a>(
        sim: &'a Simulator,
        sampling: Option<&SamplingSpec>,
        tally: &'a EvalTally,
    ) -> JobObjective<'a> {
        match sampling {
            None => JobObjective::Exact(QaoaObjective::new(sim).with_tally(tally)),
            // Every draw is tallied — including the ones hidden inside FD gradient
            // probes — so the engine's shots_drawn counter is exact.  Shot streams
            // are derived per evaluation point, so results stay
            // schedule-independent.
            Some(s) => JobObjective::Sampled(
                SampledObjective::new(sim, s.shots, s.estimator.build(), s.seed).with_tally(tally),
            ),
        }
    }
}

impl Objective for JobObjective<'_> {
    fn dim(&self) -> usize {
        0
    }

    fn value(&mut self, x: &[f64]) -> f64 {
        match self {
            JobObjective::Exact(o) => o.value(x),
            JobObjective::Sampled(o) => o.value(x),
        }
    }

    fn value_and_gradient(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        match self {
            JobObjective::Exact(o) => o.value_and_gradient(x, grad),
            JobObjective::Sampled(o) => o.value_and_gradient(x, grad),
        }
    }

    fn evaluations(&self) -> usize {
        match self {
            JobObjective::Exact(o) => o.evaluations(),
            JobObjective::Sampled(o) => o.evaluations(),
        }
    }
}

/// Default entry capacity of each engine cache (instances and simulator slots).
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Byte budget for each of the engine's two caches (instances and simulator slots).
/// Entry count alone is the wrong bound: a prepared `n = 24` objective is ~170 MiB,
/// so [`DEFAULT_CACHE_CAPACITY`] of them would pin ~11 GiB.  Each cache evicts by
/// least-recent use until both bounds hold; typical `n ≈ 16` entries (~0.6 MiB) never
/// touch this limit.
pub const DEFAULT_CACHE_BYTES: u64 = 2 << 30;

impl Engine {
    /// An engine whose instance cache and simulator-slot cache each hold at most
    /// `cache_capacity` entries (at least one) and [`DEFAULT_CACHE_BYTES`].
    pub fn new(cache_capacity: usize) -> Self {
        let capacity = cache_capacity.max(1);
        Engine {
            cache: Mutex::new(LruCache::with_weight_budget(
                capacity,
                Some(DEFAULT_CACHE_BYTES),
            )),
            inflight: Mutex::new(HashMap::new()),
            sims: Mutex::new(LruCache::with_weight_budget(
                capacity,
                Some(DEFAULT_CACHE_BYTES),
            )),
            counters: EngineCounters::new(),
            telemetry: EngineTelemetry::default(),
            spans: Mutex::new(None),
        }
    }

    /// Installs a span collector; subsequent jobs emit `prep`/`optimize`/
    /// `sampling_readout` child spans under their trace's root span.
    pub fn set_span_collector(&self, spans: Arc<SpanCollector>) {
        *self.spans.lock().expect("span collector lock poisoned") = Some(spans);
    }

    /// The installed span collector, if any (cheap clone of an `Arc`).
    fn span_collector(&self) -> Option<Arc<SpanCollector>> {
        self.spans
            .lock()
            .expect("span collector lock poisoned")
            .clone()
    }

    /// The engine's per-stage latency histograms (shared with the serving tier,
    /// which also records the queue-wait and journal-write stages into it).
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    /// Fetches (or builds and caches) the shared simulator slot for a problem/mixer
    /// pair.
    fn simulator_slot(
        &self,
        problem: &BuiltProblem,
        mixer_spec: &MixerSpec,
        prepared: &PreparedObjective,
    ) -> Result<Arc<SimSlot>, ServiceError> {
        let key = (problem.instance_id, *mixer_spec);
        if let Some(slot) = lookup(&self.sims, &key) {
            return Ok(slot);
        }
        // Build outside the lock.  Two workers racing on one key may both build, and
        // the last insert wins; slots hold no mutable state, so either copy serves.
        let (sim, classes) = match mixer_spec {
            // Every Grover job runs in class space over the values' degeneracy table,
            // which the slot keeps for the readout's within-class draws.
            MixerSpec::Grover => {
                let values = prepared.values.iter().map(|&v| (v, 1));
                let table = DegeneracyTable::from_entries(values);
                (Simulator::grover_classes(&table)?, Some(table))
            }
            _ => {
                let sim = Simulator::from_parts(
                    prepared.values.clone(),
                    prepared.classes.clone(),
                    vec![mixer_spec.build(problem).map_err(ServiceError::Spec)?],
                )?;
                (sim, None)
            }
        };
        let slot = Arc::new(SimSlot { sim, classes });
        let weight = slot.weight();
        self.sims
            .lock()
            .expect("simulator slot cache poisoned")
            .insert_weighted(key, slot.clone(), weight);
        Ok(slot)
    }

    /// Fetches (or computes and caches) the pre-computation for a built problem.
    /// Returns the shared data plus whether it was a cache hit.
    ///
    /// Preparation is **single-flight**: when several workers miss on the same
    /// instance concurrently, exactly one builds (a cache miss) while the rest block
    /// on the in-flight entry and share its result (cache hits, tallied in
    /// `prep_coalesced`).  If a build panics, waiters wake, and retry; one of them
    /// becomes the new builder, so a poisoned build never wedges the instance.
    pub fn prepare(&self, problem: &BuiltProblem) -> (Arc<PreparedObjective>, bool) {
        loop {
            if let Some(found) = lookup(&self.cache, &problem.instance_id) {
                self.counters.cache_hits.inc();
                return (found, true);
            }
            // Miss: join the in-flight build for this instance, or start one.
            let (flight, this_worker_builds) = {
                let mut inflight = self.inflight.lock().expect("inflight table poisoned");
                match inflight.get(&problem.instance_id) {
                    Some(flight) => (flight.clone(), false),
                    None => {
                        // Re-check the cache while holding the inflight lock: a
                        // builder that finished between our miss above and this
                        // lock has already filled the cache (it inserts *before*
                        // retiring its flight), and registering as a new builder
                        // here would duplicate its 2ⁿ build.  Lock order is always
                        // inflight → cache, so this cannot deadlock.
                        if let Some(found) = lookup(&self.cache, &problem.instance_id) {
                            self.counters.cache_hits.inc();
                            return (found, true);
                        }
                        let flight = Arc::new(PrepFlight::new());
                        inflight.insert(problem.instance_id, flight.clone());
                        (flight, true)
                    }
                }
            };
            if !this_worker_builds {
                self.counters.prep_coalesced.inc();
                match flight.wait() {
                    Some(prepared) => {
                        // A coalesced miss is a hit for accounting: this worker paid
                        // a wait, not a build.
                        self.counters.cache_hits.inc();
                        return (prepared, true);
                    }
                    // The builder panicked; retry (the flight entry is gone, so some
                    // retrying worker becomes the new builder).
                    None => continue,
                }
            }
            // This worker builds, outside every lock, so a slow pre-computation
            // never serialises the pool.  Prepared data is a pure function of the
            // instance, so whoever builds, everyone reads the same values.
            self.counters.cache_misses.inc();
            self.counters.instance_builds.inc();
            // Chaos hook: an installed fault plan may stall the build here, widening
            // the coalescing window for single-flight and queue-deadline tests.
            crate::fault::delay_prep();
            let built = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Arc::new(PreparedObjective::compute(problem))
            }));
            match built {
                Ok(prepared) => {
                    // Order matters: fill the cache *before* retiring the flight.
                    // A new caller arriving in between then hits the cache instead
                    // of finding neither and starting a duplicate build.  Waiters
                    // hold the flight `Arc`, so publishing after removal still
                    // reaches every one of them.
                    let weight = prepared.approx_bytes();
                    self.cache
                        .lock()
                        .expect("instance cache poisoned")
                        .insert_weighted(problem.instance_id, prepared.clone(), weight);
                    self.inflight
                        .lock()
                        .expect("inflight table poisoned")
                        .remove(&problem.instance_id);
                    flight.publish(Some(prepared.clone()));
                    return (prepared, false);
                }
                Err(payload) => {
                    // Failure order is the reverse: retire the flight *before*
                    // waking the waiters, so a retrying waiter can never rejoin the
                    // dead flight — one of them becomes the new builder.
                    self.inflight
                        .lock()
                        .expect("inflight table poisoned")
                        .remove(&problem.instance_id);
                    flight.publish(None);
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }

    /// A snapshot of the engine counters.
    pub fn stats(&self) -> EngineStats {
        self.counters.snapshot()
    }

    /// Number of instances currently cached.
    pub fn cached_instances(&self) -> usize {
        self.cache.lock().expect("instance cache poisoned").len()
    }

    /// Number of `(instance, mixer)` simulator slots currently cached.
    pub fn cached_simulators(&self) -> usize {
        self.sims
            .lock()
            .expect("simulator slot cache poisoned")
            .len()
    }

    /// Records a transient-failure re-attempt performed *outside*
    /// [`Engine::run_job_with_retry`] — e.g. the batch journal retrying a failed
    /// append — so `jobs_retried` covers every retry the service performs.
    pub fn record_retry(&self) {
        self.counters.jobs_retried.inc();
    }

    /// [`Engine::run_job`] with panic isolation, under a retry policy.
    ///
    /// A job that panics mid-run returns [`ServiceError::Panicked`] (tallied in
    /// `jobs_failed`/`jobs_panicked`) instead of unwinding into the calling worker
    /// thread.  Both front-ends route job execution through this, so a hostile job
    /// can never shrink a worker pool or abort a batch.
    ///
    /// Transient failures — panics and I/O errors, per
    /// [`ServiceError::is_transient`] — are re-attempted up to `policy.max_retries`
    /// times, sleeping the policy's deterministic backoff between attempts (tallied
    /// in `jobs_retried`, one per re-run).  `on_retry` runs once per re-attempt
    /// (after the failure, before the backoff sleep) with the 0-based attempt index
    /// and the error that triggered it: the serving tier's hook for emitting `retry`
    /// trace events without the engine knowing about trace rings.  Spec/simulation
    /// errors and timeouts return immediately, as does any failure once the job's
    /// own deadline or cancel flag is set — retrying into a dead deadline only
    /// burns worker time.
    pub fn run_job_with_retry(
        &self,
        spec: &JobSpec,
        control: &RunControl,
        policy: &crate::retry::RetryPolicy,
        mut on_retry: impl FnMut(u32, &ServiceError),
    ) -> Result<JobResult, ServiceError> {
        let mut attempt = 0;
        loop {
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| self.run_job(spec, control)))
                    .unwrap_or_else(|payload| {
                        // `run_job` never returned, so its own failure accounting did
                        // not run: `jobs_failed` still covers every job that entered.
                        self.counters.jobs_failed.inc();
                        self.counters.jobs_panicked.inc();
                        Err(ServiceError::Panicked(panic_message(payload.as_ref())))
                    });
            match outcome {
                Err(e)
                    if e.is_transient()
                        && attempt < policy.max_retries
                        && !control.should_stop() =>
                {
                    self.counters.jobs_retried.inc();
                    on_retry(attempt, &e);
                    std::thread::sleep(policy.delay(&spec.id, attempt));
                    attempt += 1;
                }
                out => return out,
            }
        }
    }

    /// Executes one job to completion (or cancellation), returning its result.
    ///
    /// Deterministic: the result depends only on the spec (notably its seed), never on
    /// cache state, thread count or scheduling.
    pub fn run_job(&self, spec: &JobSpec, control: &RunControl) -> Result<JobResult, ServiceError> {
        let total = Stage::start(&self.telemetry.total_ms);
        let out = self.run_job_inner(spec, control, total);
        match &out {
            Ok(_) => self.counters.jobs_executed.inc(),
            Err(_) => self.counters.jobs_failed.inc(),
        };
        out
    }

    fn run_job_inner(
        &self,
        spec: &JobSpec,
        control: &RunControl,
        total: Stage<'_>,
    ) -> Result<JobResult, ServiceError> {
        if spec.p == 0 {
            return Err(ServiceError::Spec("p must be at least 1".into()));
        }
        // Sampling parameters are validated up front so a bad α or a zero shot count
        // fails as a structured spec error (4xx over HTTP), never a worker panic.
        if let Some(sampling) = &spec.sampling {
            sampling.validate().map_err(ServiceError::Spec)?;
        }
        let prep = Stage::start(&self.telemetry.prep_ms);
        let problem = spec.problem.build().map_err(ServiceError::Spec)?;
        // The job's trace id: the one the caller adopted (serve takes a router's
        // `X-Juliqaoa-Trace` header), else the deterministic one derived from the
        // spec, so the same id lands in the result whether this engine runs
        // under serve, batch or a routed backend.  Stage spans parent against
        // the trace's root span (id == trace id), which the front-end emits.
        let trace = control
            .trace()
            .unwrap_or_else(|| crate::spec::derive_trace_id(problem.instance_id.raw(), spec));
        let spans = self.span_collector();
        let (prepared, cache_hit) = self.prepare(&problem);
        // Hostile or degenerate instances (overflowing explicit weights) can realise
        // non-finite objective values; estimators and quality normalisation are
        // meaningless over them, so the job dies here with a structured error.
        if !prepared.finite {
            return Err(ServiceError::Spec(
                "instance realises non-finite objective values; \
                 check the problem's weights for overflow"
                    .into(),
            ));
        }
        // Chaos hook for tests and CI smoke: a [`crate::fault::FaultPlan`] panics
        // a named job mid-run for its first `times` attempts, exercising the
        // worker pool's panic isolation (and, with a retry policy, recovery).
        if crate::fault::job_should_panic(&spec.id) {
            // lint:allow(R3, intentional fault-injection hook - the panic is the feature under test)
            panic!("fault injection: job {:?} panicked mid-run", spec.id);
        }
        let slot = self.simulator_slot(&problem, &spec.mixer, &prepared)?;
        let sim = &slot.sim;
        let prep_ms = prep.finish_span(
            trace,
            spans.as_deref(),
            "prep",
            &[("job", &spec.id), ("cache_hit", &cache_hit.to_string())],
        );

        let mut rng = StdRng::seed_from_u64(spec.seed);
        let dim = 2 * spec.p;
        let tau = 2.0 * std::f64::consts::PI;
        // Exact count of every shot the job draws and of its prefix reuse, including
        // the evaluations the drivers hide inside finite-difference gradient probes
        // (which `res.function_evals` does not cover).
        let tally = EvalTally::default();
        let sampling = spec.sampling.as_ref();
        let optimize = Stage::start(&self.telemetry.optimize_ms);
        let res: OptimizeResult = match spec.optimizer {
            OptimizerSpec::RandomRestart { restarts } => {
                if restarts == 0 {
                    return Err(ServiceError::Spec("restarts must be at least 1".into()));
                }
                random_restart_with_control(
                    || JobObjective::build(sim, sampling, &tally),
                    dim,
                    &RandomRestartOptions {
                        restarts,
                        ..Default::default()
                    },
                    &mut rng,
                    control,
                )
            }
            OptimizerSpec::BasinHopping {
                n_hops,
                step_size,
                temperature,
            } => {
                let mut objective = JobObjective::build(sim, sampling, &tally);
                let x0: Vec<f64> = (0..dim)
                    .map(|_| rand::Rng::gen_range(&mut rng, 0.0..tau))
                    .collect();
                basinhopping_with_control(
                    &mut objective,
                    &x0,
                    &BasinHoppingOptions {
                        n_hops,
                        step_size,
                        temperature,
                        ..Default::default()
                    },
                    &mut rng,
                    control,
                )
            }
            OptimizerSpec::GridSearch { resolution } => {
                if resolution == 0 {
                    return Err(ServiceError::Spec(
                        "grid resolution must be positive".into(),
                    ));
                }
                let points = (resolution as u128).saturating_pow(dim as u32);
                if points > 100_000_000 {
                    return Err(ServiceError::Spec(format!(
                        "grid of {points} points exceeds the 10^8 limit"
                    )));
                }
                // Deepest round fastest: consecutive grid points share a (p−1)-round
                // circuit prefix, which the objective's cache replays incrementally.
                grid_search_ordered(
                    || JobObjective::build(sim, sampling, &tally),
                    dim,
                    0.0,
                    tau,
                    resolution,
                    &qaoa_axis_order(spec.p),
                    control,
                )
            }
        };

        let optimize_ms = optimize.finish_span(
            trace,
            spans.as_deref(),
            "optimize",
            &[
                ("job", &spec.id),
                ("evals", &res.function_evals.to_string()),
            ],
        );

        let timed_out = control.is_timed_out();
        if timed_out {
            self.counters.jobs_timed_out.inc();
        }

        // Sample jobs end with a readout at the best angles: the same seeded shot
        // streams the optimizer saw at that point, reported as a histogram plus the
        // best sampled bitstring (the answer a hardware run would hand back).  The
        // readout evaluates once, so it keeps no prefix checkpoints; its shots fold
        // into the job's tally.
        let readout = Stage::start(&self.telemetry.sampling_readout_ms);
        let sample_report = match sampling {
            None => None,
            // A timed-out sample job skips its readout — the time budget is spent,
            // and the partial result already carries the estimator's best value.
            Some(_) if timed_out => None,
            Some(s) => {
                let shot_estimator = s.estimator.build();
                let mut readout = SampledObjective::new(sim, s.shots, shot_estimator, s.seed)
                    .without_prefix_reuse()
                    .with_tally(&tally);
                let draw = readout.counts_at(&res.x);
                let (counts, values) = (&draw.counts, draw.values);
                // The finiteness gate above makes this infallible for instances the
                // engine admits; the checked boundary stays as a second line of
                // defence should a non-finite value ever reach the readout.
                let estimate = shot_estimator
                    .try_estimate(counts, values)
                    .map_err(ServiceError::Spec)?;
                let map = match problem.subspace_k {
                    Some(k) => IndexMap::dicke(problem.n, k),
                    None => IndexMap::full(problem.n),
                };
                let (best_outcome, best_objective) = estimator::best_sampled(counts, values);
                // A histogram over value classes counts values; the state-level
                // fields draw member states inside the sampled classes.
                let (best_state, distinct_outcomes) = match (&slot.classes, sim.value_classes()) {
                    (Some(table), _) => class_space_draws(
                        &prepared.values,
                        table,
                        counts,
                        best_outcome,
                        &res.x,
                        s.seed,
                    ),
                    (None, Some(ValueClasses::Indexed(classes))) => member_draws(
                        readout.state(),
                        classes.class_indices(),
                        &draw,
                        best_objective,
                        &res.x,
                        s.seed,
                    ),
                    _ => (best_outcome, counts.distinct_outcomes() as u64),
                };
                drop(readout);
                let exact_expectation = sim.expectation(&Angles::from_flat(&res.x))?;
                let (alpha, eta) = match s.estimator {
                    EstimatorSpec::Mean => (None, None),
                    EstimatorSpec::CVaR { alpha } => (Some(alpha), None),
                    EstimatorSpec::Gibbs { eta } => (None, Some(eta)),
                };
                // Every objective, the readout included, has added to the tally.
                let shots_total = tally.shots();
                Some(SampleReport {
                    shots: s.shots,
                    sample_seed: s.seed,
                    estimator: s.estimator.kind().to_string(),
                    alpha,
                    eta,
                    estimate,
                    exact_expectation,
                    best_bitstring: map.bitstring_label(best_state),
                    best_objective,
                    optimal_frequency: estimator::optimal_frequency(counts, values),
                    distinct_outcomes,
                    ratio_histogram: estimator::ratio_histogram(
                        counts,
                        values,
                        RATIO_HISTOGRAM_BINS,
                    ),
                    shots_total,
                })
            }
        };
        let sampling_readout_ms = if sample_report.is_some() {
            readout.finish_span(
                trace,
                spans.as_deref(),
                "sampling_readout",
                &[("job", &spec.id)],
            )
        } else {
            0.0
        };
        // Every sample job that reached the optimizer folds its draws into the engine
        // counters, a timed-out one included: its evaluations drew shots too.
        if sampling.is_some() {
            self.counters.sample_jobs.inc();
            self.counters.shots_drawn.add(tally.shots());
        }

        // A job whose deadline expired before the optimizer completed even one
        // evaluation has no partial result to report — and a ±∞ "best value" would
        // not survive JSON serialisation — so it dies here as a structured timeout
        // error.  A deadline that expired after some progress falls through and
        // reports `"timed_out"` with the best-so-far angles below.
        if timed_out && !res.value.is_finite() {
            return Err(ServiceError::TimedOut(format!(
                "deadline expired before job {:?} completed any evaluation",
                spec.id
            )));
        }

        // Every objective (and the readout) has been dropped; fold the job's reuse
        // counters into the engine.
        let pstats = tally.prefix_stats();
        self.counters.prefix_hits.add(pstats.hits);
        self.counters.prefix_misses.add(pstats.misses);
        self.counters.prefix_rounds_saved.add(pstats.rounds_saved);

        let expectation = -res.value;
        let quality = if prepared.max > prepared.min {
            (expectation - prepared.min) / (prepared.max - prepared.min)
        } else {
            1.0
        };
        // "cancelled" means *someone asked to stop*, never that the optimizer merely
        // hit an iteration cap — BFGS can report `converged: false` on a hard
        // landscape, and that is still a finished, resumable-as-done job.  A job
        // that was both cancelled and past its deadline reports the deadline: that
        // is the state a client can act on (resubmit with a bigger budget).
        let status = if timed_out {
            "timed_out"
        } else if control.is_cancelled() {
            "cancelled"
        } else {
            "done"
        };
        let total_ms = total.finish(trace);
        Ok(JobResult {
            id: spec.id.clone(),
            trace: trace.to_hex(),
            status: status.to_string(),
            instance: problem.instance_id,
            problem: problem.kind.to_string(),
            mixer: spec.mixer.kind().to_string(),
            p: spec.p,
            seed: spec.seed,
            dim: prepared.values.len(),
            expectation,
            angles: res.x,
            objective_max: prepared.max,
            objective_min: prepared.min,
            quality,
            function_evals: res.function_evals,
            converged: res.converged,
            cache_hit,
            elapsed_ms: total_ms,
            timings: JobTimings {
                // Filled in by the serving tier, which is where jobs queue.
                queue_wait_ms: 0.0,
                prep_ms,
                optimize_ms,
                sampling_readout_ms,
                total_ms,
            },
            sampling: sample_report,
        })
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

/// Domain tag for the within-class member draws of a readout over value classes (see
/// `juliqaoa_combinatorics::seeding`).
const MEMBER_DOMAIN: u64 = 0xC1A5;

/// The stream of class `class`'s member draws at readout point `x`.
fn member_stream(seed: u64, x: &[f64], class: usize) -> StdRng {
    let stream = fold_bits(x.iter().map(|v| v.to_bits()).chain([class as u64]));
    StdRng::seed_from_u64(derive_stream_seed(seed, MEMBER_DOMAIN, stream))
}

/// The two state-level readout fields of a full-state or Dicke job whose simulator
/// groups states into phase classes, as `(dense index of the best sampled state,
/// distinct states sampled)`.  `draw` counts shots per class of `class_idx`.
///
/// Class `c`'s `k_c` shots land on its members in proportion to `|ψ_x|²`: one
/// [`multinomial()`] over the members in index order, from a stream derived from the
/// sampling seed, the readout point `x` and `c` (as in `class_space_draws`).  Its
/// chain stops once the class's shots run out, so a class never costs more than its
/// member count.  Distinct outcomes are the members drawn at least once, and the best
/// state is the lowest-index member drawn among the classes of value `best_value`:
/// both fields are distributed exactly as a full-state draw's.  Listing the members
/// is the one `O(2ⁿ)` pass of the readout.
fn member_draws(
    state: &[Complex64],
    class_idx: &[u16],
    draw: &ShotDraw<'_>,
    best_value: f64,
    x: &[f64],
    seed: u64,
) -> (usize, u64) {
    // The sampled classes' members, each class in index order.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); draw.counts.dim()];
    for (i, &c) in class_idx.iter().enumerate() {
        if draw.counts.count(c as usize) > 0 {
            members[c as usize].push(i as u32);
        }
    }
    let mut distinct = 0;
    let mut best_state = usize::MAX;
    let mut probs = Vec::new();
    for (class, shots) in draw.counts.iter_nonzero() {
        let members = &members[class];
        probs.clear();
        probs.extend(members.iter().map(|&i| state[i as usize].norm_sqr()));
        let drawn = multinomial(&probs, shots, &mut member_stream(seed, x, class));
        distinct += drawn.distinct_outcomes() as u64;
        if draw.values[class] == best_value {
            if let Some((first, _)) = drawn.iter_nonzero().next() {
                best_state = best_state.min(members[first] as usize);
            }
        }
    }
    (best_state, distinct)
}

/// The two state-level readout fields of a class-space (Grover) job, as
/// `(dense index of the best sampled state, distinct states sampled)`.  `counts` is a
/// histogram over the entries of `table`, the classes of `values`.
///
/// Fair sampling makes every member of a class equally likely, so class `c`'s `k_c`
/// shots draw `k_c` uniform member ranks in `[0, d_c)`, from a stream derived from the
/// sampling seed, the readout point `x` and `c`.  Distinct outcomes are the distinct
/// `(class, rank)` pairs.  Members are ranked in dense-index order, so the best class's
/// smallest drawn rank is the full-state readout's "lowest sampled index"; one scan of
/// `values` unranks it.  Both fields are therefore distributed exactly as a full-state
/// draw's.  A class keeps at most `min(k_c, d_c)` ranks, and stops drawing once it has
/// seen all `d_c` members, after which no draw can change either field.
fn class_space_draws(
    values: &[f64],
    table: &DegeneracyTable,
    counts: &SampleCounts,
    best_class: usize,
    x: &[f64],
    seed: u64,
) -> (usize, u64) {
    let mut distinct = 0;
    let mut best_rank = 0;
    for (class, shots) in counts.iter_nonzero() {
        let mut rng = member_stream(seed, x, class);
        let degeneracy = table.entries[class].1;
        let mut seen = HashSet::with_capacity(shots.min(degeneracy) as usize);
        let mut min_rank = u64::MAX;
        for _ in 0..shots {
            let rank = rand::Rng::gen_range(&mut rng, 0..degeneracy);
            min_rank = min_rank.min(rank);
            seen.insert(rank);
            if seen.len() as u64 == degeneracy {
                break;
            }
        }
        distinct += seen.len() as u64;
        if class == best_class {
            best_rank = min_rank;
        }
    }
    let best_bits = table.entries[best_class].0.to_bits();
    let best_state = values
        .iter()
        .enumerate()
        .filter(|(_, v)| v.to_bits() == best_bits)
        .nth(best_rank as usize)
        .map(|(i, _)| i)
        // lint:allow(R3, ranks are drawn below the class's degeneracy, which counts exactly these members)
        .expect("the best class has a member at every drawn rank");
    (best_state, distinct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MixerSpec, ProblemSpec};

    fn quick_job(id: &str, instance: u64, seed: u64) -> JobSpec {
        JobSpec {
            id: id.into(),
            problem: ProblemSpec::MaxCutGnp { n: 7, instance },
            mixer: MixerSpec::TransverseField,
            p: 1,
            optimizer: OptimizerSpec::BasinHopping {
                n_hops: 2,
                step_size: 0.5,
                temperature: 1.0,
            },
            seed,
            sampling: None,
            timeout_ms: None,
        }
    }

    #[test]
    fn same_seed_jobs_are_bit_identical_and_share_the_cache() {
        let engine = Engine::new(8);
        let a = engine
            .run_job(&quick_job("a", 0, 42), &RunControl::new())
            .unwrap();
        let b = engine
            .run_job(&quick_job("b", 0, 42), &RunControl::new())
            .unwrap();
        assert_eq!(a.expectation.to_bits(), b.expectation.to_bits());
        assert_eq!(a.angles, b.angles);
        assert_eq!(a.instance, b.instance);
        assert!(!a.cache_hit);
        assert!(b.cache_hit);
        let stats = engine.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.jobs_executed, 2);
    }

    #[test]
    fn cache_is_keyed_by_instance_not_by_job() {
        let engine = Engine::new(8);
        let _ = engine
            .run_job(&quick_job("a", 0, 1), &RunControl::new())
            .unwrap();
        let other = engine
            .run_job(&quick_job("b", 1, 1), &RunControl::new())
            .unwrap();
        assert!(!other.cache_hit);
        assert_eq!(engine.cached_instances(), 2);
    }

    #[test]
    fn repeat_jobs_share_the_simulator_slot_and_record_prefix_reuse() {
        let engine = Engine::new(8);
        let a = engine
            .run_job(&quick_job("a", 0, 1), &RunControl::new())
            .unwrap();
        assert_eq!(engine.cached_simulators(), 1);
        let b = engine
            .run_job(&quick_job("b", 0, 2), &RunControl::new())
            .unwrap();
        // Different seeds explore different angles, but both jobs run on one shared
        // simulator slot, and each job's value→gradient pairs reuse prefixes.
        assert_eq!(engine.cached_simulators(), 1);
        let stats = engine.stats();
        assert!(
            stats.prefix_hits > 0,
            "optimizer evaluation patterns must produce prefix hits"
        );
        assert!(stats.prefix_hits + stats.prefix_misses > 0);
        // A different mixer on the same instance gets its own slot.
        let mut grover = quick_job("c", 0, 1);
        grover.mixer = MixerSpec::Grover;
        engine.run_job(&grover, &RunControl::new()).unwrap();
        assert_eq!(engine.cached_simulators(), 2);
        // Slot reuse never changes answers: same-seed re-runs stay bit-identical.
        let a2 = engine
            .run_job(&quick_job("a2", 0, 1), &RunControl::new())
            .unwrap();
        assert_eq!(a.expectation.to_bits(), a2.expectation.to_bits());
        assert_eq!(a.angles, a2.angles);
        drop(b);
    }

    #[test]
    fn slot_weight_charges_the_mixer_memory() {
        // A Clique job's slot must weigh at least its prepared data plus the mixer's
        // hop tables, so the byte budget sees the mixer memory.
        let engine = Engine::new(8);
        let job = JobSpec {
            id: "clique".into(),
            problem: ProblemSpec::DensestKSubgraphGnp {
                n: 8,
                k: 4,
                instance: 0,
            },
            mixer: MixerSpec::Clique,
            ..quick_job("clique", 0, 1)
        };
        engine.run_job(&job, &RunControl::new()).unwrap();
        let problem = job.problem.build().unwrap();
        let mixer_bytes = job.mixer.build(&problem).unwrap().bytes() as u64;
        let prepared_bytes = engine.prepare(&problem).0.approx_bytes();
        assert!(mixer_bytes > 0);
        assert_eq!(engine.cached_simulators(), 1);
        let weight = engine.sims.lock().unwrap().total_weight();
        assert!(
            weight >= prepared_bytes + mixer_bytes,
            "slot weight {weight} misses the mixer's {mixer_bytes} bytes"
        );

        // A Grover slot holds its class table, not the 2ⁿ prepared values, and is
        // charged for exactly that.
        let engine = Engine::new(8);
        let grover = JobSpec {
            problem: ProblemSpec::MaxCutGnp { n: 14, instance: 0 },
            mixer: MixerSpec::Grover,
            ..quick_job("grover", 0, 1)
        };
        engine.run_job(&grover, &RunControl::new()).unwrap();
        assert_eq!(engine.cached_simulators(), 1);
        let weight = engine.sims.lock().unwrap().total_weight();
        assert!(weight < 4096, "class-space slot weighs {weight}");
    }

    #[test]
    fn class_space_draws_keep_at_most_one_rank_per_member() {
        // Class 0.0 has 5 members, class 1.0 has 3 (interleaved in dense order).  Far
        // more shots than members must leave at most d_c distinct ranks per class and
        // a best state that is a member of the best class.
        let values = [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let table = DegeneracyTable::from_entries(values.iter().map(|&v| (v, 1)));
        let counts = juliqaoa_sampling::StateSampler::from_probabilities([0.7, 0.3].into_iter(), 9)
            .sample_counts(200_000);
        assert!(counts.count(0) > 1000 && counts.count(1) > 1000);
        let (best_state, distinct) = class_space_draws(&values, &table, &counts, 1, &[0.4], 3);
        assert_eq!(distinct, 5 + 3);
        // Every member was drawn, so the best class's smallest rank is its first member.
        assert_eq!(best_state, 1);

        // Fewer shots than members: never more distinct outcomes than shots.
        let counts = juliqaoa_sampling::StateSampler::from_probabilities([0.5, 0.5].into_iter(), 2)
            .sample_counts(1);
        let sampled = usize::from(counts.count(0) == 0);
        let (best_state, distinct) =
            class_space_draws(&values, &table, &counts, sampled, &[0.4], 3);
        assert_eq!(distinct, 1);
        assert_eq!(values[best_state], table.entries[sampled].0);
    }

    #[test]
    fn grid_jobs_reuse_prefixes_heavily() {
        // Pin the scan serial (as batch/serve workers do): block-parallel scans give
        // each worker its own cache, which would make the hit count depend on the
        // host's core count instead of on the access pattern under test.
        let _guard = juliqaoa_linalg::enter_outer_parallelism();
        let engine = Engine::new(8);
        let mut job = quick_job("grid", 0, 3);
        job.p = 2;
        job.optimizer = OptimizerSpec::GridSearch { resolution: 5 };
        let res = engine.run_job(&job, &RunControl::new()).unwrap();
        assert_eq!(res.function_evals, 625);
        let stats = engine.stats();
        // With the suffix-major axis order, the overwhelming majority of the 625
        // points resume from a checkpoint.
        assert!(
            stats.prefix_hits > 500,
            "expected heavy grid reuse, got {} hits / {} misses",
            stats.prefix_hits,
            stats.prefix_misses
        );
        assert!(stats.prefix_rounds_saved > 500);
    }

    #[test]
    fn prefix_reuse_does_not_depend_on_earlier_jobs() {
        // Checkpoints live and die with their job: three identical grid jobs on one
        // engine (and so one warm simulator slot) record the same prefix hits and
        // misses and the same result bits.  Serial scan (guard held) keeps the
        // counters deterministic.
        let _guard = juliqaoa_linalg::enter_outer_parallelism();
        let mut job = quick_job("grid", 0, 3);
        job.p = 2;
        job.optimizer = OptimizerSpec::GridSearch { resolution: 4 };
        let engine = Engine::new(8);
        let runs: Vec<_> = (0..3)
            .map(|_| {
                let before = engine.stats();
                let res = engine.run_job(&job, &RunControl::new()).unwrap();
                let after = engine.stats();
                let reuse = (
                    after.prefix_hits - before.prefix_hits,
                    after.prefix_misses - before.prefix_misses,
                );
                let bits: Vec<u64> = res.angles.iter().map(|a| a.to_bits()).collect();
                (reuse, res.expectation.to_bits(), bits)
            })
            .collect();
        assert!(runs[0].0 .0 > 0, "a grid job must reuse prefixes");
        assert_eq!(
            runs[1], runs[0],
            "the second job saw the first one's checkpoints"
        );
        assert_eq!(runs[2], runs[0], "the third job saw earlier checkpoints");
    }

    #[test]
    fn non_finite_instances_are_rejected_with_a_structured_error() {
        // Overflowing explicit weights realise ±∞ objective values; the engine must
        // refuse them with a spec error instead of feeding them to estimators.
        let engine = Engine::new(8);
        let graph = juliqaoa_graphs::Graph::from_weighted_edges(4, &[(0, 1, 1e308), (2, 3, 1e308)]);
        let mut job = quick_job("inf", 0, 1);
        job.problem = ProblemSpec::MaxCut { graph };
        match engine.run_job(&job, &RunControl::new()) {
            Err(ServiceError::Spec(msg)) => {
                assert!(msg.contains("non-finite"), "{msg}")
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
        assert_eq!(engine.stats().jobs_failed, 1);
    }

    #[test]
    fn invalid_specs_fail_cleanly_and_count_as_failures() {
        let engine = Engine::new(8);
        let mut bad = quick_job("bad", 0, 1);
        bad.p = 0;
        assert!(matches!(
            engine.run_job(&bad, &RunControl::new()),
            Err(ServiceError::Spec(_))
        ));
        let mut bad_mixer = quick_job("bad2", 0, 1);
        bad_mixer.mixer = MixerSpec::Clique;
        assert!(engine.run_job(&bad_mixer, &RunControl::new()).is_err());
        assert_eq!(engine.stats().jobs_failed, 2);
        // Explicit instances that bypassed their constructors' checks.
        for problem in crate::spec::tests::invalid_explicit_problems() {
            let mut bad_instance = quick_job("bad3", 0, 1);
            bad_instance.problem = problem;
            assert!(matches!(
                engine.run_job(&bad_instance, &RunControl::new()),
                Err(ServiceError::Spec(_))
            ));
        }
        assert_eq!(engine.stats().jobs_failed, 4);
    }

    #[test]
    fn grid_size_limit_is_enforced() {
        let engine = Engine::new(8);
        let mut huge = quick_job("huge", 0, 1);
        huge.p = 4;
        huge.optimizer = OptimizerSpec::GridSearch { resolution: 50 };
        let err = engine.run_job(&huge, &RunControl::new()).unwrap_err();
        assert!(err.to_string().contains("10^8"));
    }

    fn sample_job(id: &str, estimator: EstimatorSpec, shots: u64) -> JobSpec {
        let mut job = quick_job(id, 0, 5);
        job.optimizer = OptimizerSpec::GridSearch { resolution: 6 };
        job.sampling = Some(SamplingSpec {
            shots,
            seed: 77,
            estimator,
        });
        job
    }

    #[test]
    fn cvar_sample_job_runs_end_to_end_and_is_reproducible() {
        let grover = |id: &str, problem: ProblemSpec| {
            let mut spec = sample_job(id, EstimatorSpec::CVaR { alpha: 0.2 }, 2048);
            spec.problem = problem;
            spec.mixer = MixerSpec::Grover;
            spec
        };
        let dks = ProblemSpec::DensestKSubgraphGnp {
            n: 8,
            k: 4,
            instance: 0,
        };
        let clique = {
            let mut spec = grover("cvar-clique", dks.clone());
            spec.mixer = MixerSpec::Clique;
            spec
        };
        for spec in [
            // Phase classes over the full space and over a Dicke subspace (XY mixer).
            sample_job("cvar", EstimatorSpec::CVaR { alpha: 0.2 }, 2048),
            clique,
            // Class space, on the full space and on a Dicke subspace.
            grover("cvar-grover", ProblemSpec::MaxCutGnp { n: 7, instance: 0 }),
            grover("cvar-grover-dicke", dks.clone()),
        ] {
            let id = spec.id.as_str();
            let engine = Engine::new(8);
            let a = engine.run_job(&spec, &RunControl::new()).unwrap();
            assert_eq!(a.status, "done");
            let report = a.sampling.as_ref().expect("sample jobs carry a report");
            // The readout redraws the optimizer's own streams at the best point, so
            // the reported estimate IS the optimized value.
            assert_eq!(report.estimate.to_bits(), a.expectation.to_bits(), "{id}");
            assert_eq!(report.estimator, "cvar");
            assert_eq!(report.alpha, Some(0.2));
            assert_eq!(report.shots, 2048);
            assert_eq!(report.ratio_histogram.iter().sum::<u64>(), 2048);
            assert_eq!(report.shots_total, (a.function_evals as u64 + 1) * 2048);
            assert!(report.distinct_outcomes > 0);
            assert!(
                report.distinct_outcomes <= report.shots.min(a.dim as u64),
                "{id}"
            );
            assert!(report.best_objective <= a.objective_max);
            // The best bitstring is a feasible state of the reported objective, and
            // the result's dimension is the feasible set's.
            let problem = spec.problem.build().unwrap();
            assert_eq!(report.best_bitstring.len(), problem.n, "{id}");
            let state = u64::from_str_radix(&report.best_bitstring, 2).unwrap();
            assert_eq!(
                problem.cost.evaluate(state).to_bits(),
                report.best_objective.to_bits(),
                "{id}"
            );
            match problem.subspace_k {
                Some(k) => {
                    assert_eq!(state.count_ones() as usize, k, "{id}");
                    let dicke = juliqaoa_combinatorics::binomial(problem.n, k) as usize;
                    assert_eq!(a.dim, dicke, "{id}");
                }
                None => assert_eq!(a.dim, 1 << problem.n, "{id}"),
            }
            // CVaR-0.2 sits between the exact expectation and the objective maximum.
            assert!(report.estimate >= report.exact_expectation - 1e-9);
            assert!(report.estimate <= a.objective_max + 1e-9);
            // Bit-identical on a fresh engine (pure function of the spec).
            let engine2 = Engine::new(8);
            let b = engine2.run_job(&spec, &RunControl::new()).unwrap();
            assert_eq!(a.expectation.to_bits(), b.expectation.to_bits());
            assert_eq!(a.angles, b.angles);
            assert_eq!(a.sampling, b.sampling);
            // Counters: one sample job, every evaluation plus the readout drew shots.
            let stats = engine.stats();
            assert_eq!(stats.sample_jobs, 1);
            assert_eq!(stats.shots_drawn, report.shots_total);
        }
    }

    #[test]
    fn sample_jobs_run_through_every_optimizer() {
        let engine = Engine::new(8);
        for (id, optimizer) in [
            ("rr", OptimizerSpec::RandomRestart { restarts: 2 }),
            (
                "bh",
                OptimizerSpec::BasinHopping {
                    n_hops: 2,
                    step_size: 0.5,
                    temperature: 1.0,
                },
            ),
            ("grid", OptimizerSpec::GridSearch { resolution: 4 }),
        ] {
            let mut spec = sample_job(id, EstimatorSpec::Mean, 512);
            spec.optimizer = optimizer;
            let res = engine.run_job(&spec, &RunControl::new()).unwrap();
            let report = res.sampling.expect("report present");
            // The sample mean at the best angles lies inside the objective range.
            assert!(report.estimate <= res.objective_max + 1e-9, "{id}");
            assert!(report.estimate >= res.objective_min - 1e-9, "{id}");
            // Every evaluation plus the readout drew shots; gradient-based
            // optimizers draw *more* than function_evals suggests (FD probes), and
            // the tally must capture those too.
            assert!(
                report.shots_total >= (res.function_evals as u64 + 1) * 512,
                "{id}: shots_total {} < floor",
                report.shots_total
            );
            if id != "grid" {
                assert!(
                    report.shots_total > (res.function_evals as u64 + 1) * 512,
                    "{id}: FD gradient probes must be tallied"
                );
            }
        }
        assert_eq!(engine.stats().sample_jobs, 3);
        // Sampled forward passes ride the job's prefix cache as exact jobs do.
        assert!(engine.stats().prefix_hits > 0);
    }

    #[test]
    fn exact_jobs_carry_no_sample_report_and_do_not_bump_sample_counters() {
        let engine = Engine::new(8);
        let res = engine
            .run_job(&quick_job("exact", 0, 1), &RunControl::new())
            .unwrap();
        assert!(res.sampling.is_none());
        let stats = engine.stats();
        assert_eq!(stats.sample_jobs, 0);
        assert_eq!(stats.shots_drawn, 0);
    }

    #[test]
    fn invalid_sampling_specs_are_structured_errors_not_panics() {
        let engine = Engine::new(8);
        for (id, estimator, shots) in [
            ("zero-shots", EstimatorSpec::Mean, 0),
            ("alpha-zero", EstimatorSpec::CVaR { alpha: 0.0 }, 128),
            ("alpha-big", EstimatorSpec::CVaR { alpha: 1.5 }, 128),
            ("eta-neg", EstimatorSpec::Gibbs { eta: -2.0 }, 128),
        ] {
            let spec = sample_job(id, estimator, shots);
            match engine.run_job(&spec, &RunControl::new()) {
                Err(ServiceError::Spec(msg)) => {
                    assert!(!msg.is_empty(), "{id}: message must name the problem")
                }
                other => panic!("{id}: expected a spec error, got {other:?}"),
            }
        }
        assert_eq!(engine.stats().jobs_failed, 4);
    }

    #[test]
    fn an_expired_deadline_mid_grid_returns_a_partial_timed_out_result() {
        use std::time::Duration;
        // Serial scan so the deadline is polled on the one scanning thread.
        let _guard = juliqaoa_linalg::enter_outer_parallelism();
        let engine = Engine::new(8);
        let mut job = quick_job("deadline", 0, 3);
        job.p = 2;
        // 60⁴ ≈ 13M grid points: far more than 150 ms of scanning, so the deadline
        // expires mid-grid with real partial progress behind it.
        job.optimizer = OptimizerSpec::GridSearch { resolution: 60 };
        let control = RunControl::new().deadline_in(Duration::from_millis(150));
        let res = engine.run_job(&job, &control).unwrap();
        assert_eq!(res.status, "timed_out");
        assert!(!res.converged);
        assert!(
            res.expectation.is_finite(),
            "partial best must be reportable"
        );
        assert!(res.function_evals > 0, "some points were scanned");
        assert!(
            res.function_evals < 60usize.pow(4),
            "the grid was cut short"
        );
        let stats = engine.stats();
        assert_eq!(stats.jobs_timed_out, 1);
        assert_eq!(
            stats.jobs_executed, 1,
            "a partial result still counts as executed"
        );
        assert_eq!(stats.jobs_failed, 0);

        // A sample job cut short the same way skips its readout, but the shots its
        // evaluations drew still reach the engine's counters.
        let engine = Engine::new(8);
        let shots = 256;
        job.sampling = Some(SamplingSpec {
            shots,
            seed: 5,
            estimator: EstimatorSpec::Mean,
        });
        let control = RunControl::new().deadline_in(Duration::from_millis(150));
        let res = engine.run_job(&job, &control).unwrap();
        assert_eq!(res.status, "timed_out");
        assert!(res.sampling.is_none(), "a timed-out job skips its readout");
        assert!(res.function_evals > 0);
        let stats = engine.stats();
        assert_eq!(stats.sample_jobs, 1);
        assert!(
            stats.shots_drawn >= res.function_evals as u64 * shots,
            "{} shots for {} evaluations",
            stats.shots_drawn,
            res.function_evals
        );
    }

    #[test]
    fn a_deadline_expired_before_any_evaluation_is_a_structured_timeout_error() {
        use std::time::Duration;
        let engine = Engine::new(8);
        let mut job = quick_job("instant-deadline", 0, 3);
        job.optimizer = OptimizerSpec::GridSearch { resolution: 8 };
        let control = RunControl::new().deadline_in(Duration::ZERO);
        match engine.run_job(&job, &control) {
            Err(ServiceError::TimedOut(msg)) => assert!(msg.contains("instant-deadline")),
            other => panic!("expected a timeout error, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.jobs_timed_out, 1);
        assert_eq!(
            stats.jobs_failed, 1,
            "zero-progress timeouts count as failures"
        );
    }

    #[test]
    fn transient_panics_are_retried_under_a_policy_and_tallied() {
        let _plan = crate::fault::tests::PLAN_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let engine = Engine::new(8);
        // The job panics on its first attempt only; the retry must then succeed.
        crate::fault::install(crate::fault::FaultPlan {
            panic_jobs: vec![crate::fault::PanicFault {
                id: "flaky-once".into(),
                times: 1,
            }],
            ..Default::default()
        });
        let policy = crate::retry::RetryPolicy {
            max_retries: 2,
            base_delay_ms: 1,
            max_delay_ms: 2,
            jitter_seed: 0,
        };
        let mut retries = Vec::new();
        let res = engine.run_job_with_retry(
            &quick_job("flaky-once", 0, 1),
            &RunControl::new(),
            &policy,
            |attempt, _| retries.push(attempt),
        );
        crate::fault::clear();
        assert_eq!(res.unwrap().status, "done");
        assert_eq!(
            retries,
            [0],
            "the observer sees the one retry, at attempt 0"
        );
        let stats = engine.stats();
        assert_eq!(stats.jobs_panicked, 1);
        assert_eq!(stats.jobs_retried, 1);
        assert_eq!(stats.jobs_failed, 1, "the panicked first attempt");
        assert_eq!(stats.jobs_executed, 1, "the successful retry");
        // Deterministic errors are returned immediately, never retried.
        let mut bad = quick_job("bad-spec", 0, 1);
        bad.p = 0;
        assert!(matches!(
            engine.run_job_with_retry(&bad, &RunControl::new(), &policy, |_, _| {}),
            Err(ServiceError::Spec(_))
        ));
        assert_eq!(engine.stats().jobs_retried, 1, "spec errors must not retry");
    }

    #[test]
    fn quality_lies_in_unit_interval() {
        let engine = Engine::default();
        let res = engine
            .run_job(&quick_job("q", 2, 5), &RunControl::new())
            .unwrap();
        assert!((0.0..=1.0).contains(&res.quality));
        assert!(res.expectation <= res.objective_max + 1e-9);
        assert_eq!(res.status, "done");
        assert!(res.converged);
    }
}
