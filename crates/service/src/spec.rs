//! Job specifications: the JSON wire format of the service.
//!
//! A [`JobSpec`] names everything needed to run one QAOA experiment: a problem (either
//! an explicit instance or a seeded generator from the paper's instance families), a
//! mixer, the round count `p`, an optimizer and an RNG seed.  Specs are plain data —
//! building the actual cost function happens in [`ProblemSpec::build`], and two specs
//! that realise structurally identical instances share one [`InstanceId`] (and
//! therefore one cache entry) even if one was written as a generator reference and the
//! other as an explicit edge list.
//!
//! The wire format is derived.  The problem, mixer, optimizer and estimator enums
//! serialise as objects whose `"kind"` tag comes first, followed by the variant's
//! parameters in declaration order; on input a mixer or the `mean` estimator may also
//! be a bare string such as `"grover"`.  `JobSpec` omits `sampling` and `timeout_ms`
//! when they are `None`, and reads them as `None` when absent or `null`.  That JSON is
//! canonical: it is what the router forwards and what [`derive_trace_id`] folds.

use juliqaoa_combinatorics::seeding::{derive_stream_seed, fold_bits};
use juliqaoa_graphs::Graph;
use juliqaoa_problems::{
    paper_maxcut_instance, paper_sat_instance_with, CostFunction, DensestKSubgraph, InstanceId,
    KSat, MaxCut, MaxKVertexCover,
};
use juliqaoa_telemetry::TraceId;
use serde::{Deserialize, Serialize};

/// Frozen domain tag for trace-id derivation — see [`derive_trace_id`].
const TRACE_ID_DOMAIN: u64 = 0x7E1E_7ACE_5A9C_0DE5;

/// Derives a job's deterministic [`TraceId`] from its canonical instance id and
/// a byte fold of the spec's canonical JSON form.
///
/// The id is a pure function of the spec (including the job id), computed with
/// the workspace's frozen seeding scheme — so the router, a backend serve
/// process, a batch shard and the engine all derive the *same* id without
/// exchanging any state, and determinism diffs over results stay byte-clean
/// with tracing on.  The derived [`Serialize`] impls make the JSON form
/// canonical (fields in declaration order, absent optional fields omitted).
pub fn derive_trace_id(instance_raw: u64, spec: &JobSpec) -> TraceId {
    // lint:allow(R3, a JobSpec serialises through derived impls over plain data - no maps with non-string keys or fallible serializers)
    let json = serde_json::to_string(spec).expect("job specs always serialize");
    let spec_fold = fold_bits(json.bytes().map(u64::from));
    TraceId::from_raw(derive_stream_seed(
        TRACE_ID_DOMAIN ^ instance_raw,
        0,
        spec_fold,
    ))
}

/// A problem instance reference: explicit data or a seeded generator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ProblemSpec {
    /// The paper's seeded `G(n, 0.5)` MaxCut family.
    #[serde(rename = "maxcut_gnp")]
    MaxCutGnp {
        /// Number of vertices/qubits.
        n: usize,
        /// Index into the seeded instance family.
        instance: u64,
    },
    /// MaxCut on an explicit graph.
    #[serde(rename = "maxcut")]
    MaxCut {
        /// The graph.
        graph: Graph,
    },
    /// The paper's seeded random k-SAT family at a clause density.
    #[serde(rename = "ksat_random")]
    KSatRandom {
        /// Number of variables/qubits.
        n: usize,
        /// Clause width.
        k: usize,
        /// Clause density (`⌊density·n⌋` clauses).
        density: f64,
        /// Index into the seeded instance family.
        instance: u64,
    },
    /// An explicit k-SAT instance.
    #[serde(rename = "ksat")]
    KSat {
        /// The clauses.
        sat: KSat,
    },
    /// Densest-k-Subgraph on a seeded `G(n, 0.5)` graph (Dicke-subspace constrained).
    DensestKSubgraphGnp {
        /// Number of vertices/qubits.
        n: usize,
        /// Subset size (Hamming weight of feasible states).
        k: usize,
        /// Index into the seeded instance family.
        instance: u64,
    },
    /// Max-k-Vertex-Cover on a seeded `G(n, 0.5)` graph (Dicke-subspace constrained).
    MaxKVertexCoverGnp {
        /// Number of vertices/qubits.
        n: usize,
        /// Subset size (Hamming weight of feasible states).
        k: usize,
        /// Index into the seeded instance family.
        instance: u64,
    },
}

/// A problem realised into a runnable cost function plus its feasible-space shape.
pub struct BuiltProblem {
    /// Problem kind (the spec's `"kind"` string).
    pub kind: &'static str,
    /// Number of qubits.
    pub n: usize,
    /// `Some(k)` when the feasible set is the weight-`k` Dicke subspace.
    pub subspace_k: Option<usize>,
    /// The cost function.
    pub cost: Box<dyn CostFunction + Send + Sync>,
    /// Canonical fingerprint of the *realised* instance (generator references and
    /// explicit instances that realise the same data share an id).
    pub instance_id: InstanceId,
}

impl std::fmt::Debug for BuiltProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltProblem")
            .field("kind", &self.kind)
            .field("n", &self.n)
            .field("subspace_k", &self.subspace_k)
            .field("instance_id", &self.instance_id)
            .finish_non_exhaustive()
    }
}

impl ProblemSpec {
    /// The `"kind"` discriminant used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            ProblemSpec::MaxCutGnp { .. } => "maxcut_gnp",
            ProblemSpec::MaxCut { .. } => "maxcut",
            ProblemSpec::KSatRandom { .. } => "ksat_random",
            ProblemSpec::KSat { .. } => "ksat",
            ProblemSpec::DensestKSubgraphGnp { .. } => "densest_k_subgraph_gnp",
            ProblemSpec::MaxKVertexCoverGnp { .. } => "max_k_vertex_cover_gnp",
        }
    }

    /// Validates parameters and returns `(n, subspace_k)` *without* realising the
    /// instance — no graph/clause generation, no allocation proportional to `2ⁿ`.
    /// Explicit instances are checked against their constructors' invariants,
    /// since deserialising one bypasses the constructor.
    ///
    /// This is what request handlers should call: it is cheap enough for an accept
    /// loop, while [`ProblemSpec::build`] is worker-thread work.
    pub fn shape(&self) -> Result<(usize, Option<usize>), String> {
        match self {
            ProblemSpec::MaxCutGnp { n, .. } => {
                check_n(*n)?;
                Ok((*n, None))
            }
            ProblemSpec::MaxCut { graph } => {
                check_n(graph.num_vertices())?;
                graph.validate()?;
                Ok((graph.num_vertices(), None))
            }
            ProblemSpec::KSatRandom { n, k, density, .. } => {
                check_n(*n)?;
                if *k == 0 || *k > *n {
                    return Err(format!("clause width k={k} invalid for n={n}"));
                }
                if density.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err(format!("clause density {density} must be positive"));
                }
                Ok((*n, None))
            }
            ProblemSpec::KSat { sat } => {
                check_n(sat.num_qubits())?;
                sat.validate()?;
                Ok((sat.num_qubits(), None))
            }
            ProblemSpec::DensestKSubgraphGnp { n, k, .. }
            | ProblemSpec::MaxKVertexCoverGnp { n, k, .. } => {
                check_n(*n)?;
                check_subspace(*n, *k)?;
                Ok((*n, Some(*k)))
            }
        }
    }

    /// Realises the spec into a cost function, validating its parameters.
    ///
    /// The instance id is computed from the realised instance data (graph, clauses),
    /// never from generator parameters, so explicit and generated forms of the same
    /// instance are cache-equal.
    pub fn build(&self) -> Result<BuiltProblem, String> {
        self.shape()?;
        match self {
            ProblemSpec::MaxCutGnp { n, instance } => {
                let cost = MaxCut::new(paper_maxcut_instance(*n, *instance));
                Ok(BuiltProblem {
                    kind: self.kind(),
                    n: *n,
                    subspace_k: None,
                    instance_id: InstanceId::of("maxcut", &cost),
                    cost: Box::new(cost),
                })
            }
            ProblemSpec::MaxCut { graph } => {
                let cost = MaxCut::new(graph.clone());
                Ok(BuiltProblem {
                    kind: self.kind(),
                    n: graph.num_vertices(),
                    subspace_k: None,
                    instance_id: InstanceId::of("maxcut", &cost),
                    cost: Box::new(cost),
                })
            }
            ProblemSpec::KSatRandom {
                n,
                k,
                density,
                instance,
            } => {
                let sat = paper_sat_instance_with(*n, *k, *density, *instance);
                Ok(BuiltProblem {
                    kind: self.kind(),
                    n: *n,
                    subspace_k: None,
                    instance_id: InstanceId::of("ksat", &sat),
                    cost: Box::new(sat),
                })
            }
            ProblemSpec::KSat { sat } => Ok(BuiltProblem {
                kind: self.kind(),
                n: sat.num_qubits(),
                subspace_k: None,
                instance_id: InstanceId::of("ksat", sat),
                cost: Box::new(sat.clone()),
            }),
            ProblemSpec::DensestKSubgraphGnp { n, k, instance } => {
                let cost = DensestKSubgraph::new(paper_maxcut_instance(*n, *instance), *k);
                Ok(BuiltProblem {
                    kind: self.kind(),
                    n: *n,
                    subspace_k: Some(*k),
                    instance_id: InstanceId::of("densest_k_subgraph", &cost),
                    cost: Box::new(cost),
                })
            }
            ProblemSpec::MaxKVertexCoverGnp { n, k, instance } => {
                let cost = MaxKVertexCover::new(paper_maxcut_instance(*n, *instance), *k);
                Ok(BuiltProblem {
                    kind: self.kind(),
                    n: *n,
                    subspace_k: Some(*k),
                    instance_id: InstanceId::of("max_k_vertex_cover", &cost),
                    cost: Box::new(cost),
                })
            }
        }
    }
}

/// Largest exact-simulation size the service accepts (statevectors of `2²⁴` amplitudes
/// are ~½ GiB in the workspace set; beyond that a job would take the whole box down
/// rather than fail cleanly).
pub const MAX_QUBITS: usize = 24;

fn check_n(n: usize) -> Result<(), String> {
    if n == 0 {
        return Err("problem has zero qubits".into());
    }
    if n > MAX_QUBITS {
        return Err(format!(
            "n={n} exceeds the service limit of {MAX_QUBITS} qubits"
        ));
    }
    Ok(())
}

fn check_subspace(n: usize, k: usize) -> Result<(), String> {
    if k == 0 || k > n {
        return Err(format!("subset size k={k} invalid for n={n}"));
    }
    Ok(())
}

/// The mixer family to pair with the problem; dimensions come from the problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum MixerSpec {
    /// Transverse-field `Σ X_i` (unconstrained problems only).
    TransverseField,
    /// Grover mixer over the problem's feasible set (full space or Dicke subspace).
    Grover,
    /// Clique mixer on the weight-k subspace (constrained problems only).
    Clique,
    /// Ring mixer on the weight-k subspace (constrained problems only).
    Ring,
}

impl MixerSpec {
    /// The `"kind"` discriminant used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            MixerSpec::TransverseField => "transverse_field",
            MixerSpec::Grover => "grover",
            MixerSpec::Clique => "clique",
            MixerSpec::Ring => "ring",
        }
    }

    /// Checks that this mixer family fits a feasible space of the given shape,
    /// without constructing anything — accept-loop-cheap, like
    /// [`ProblemSpec::shape`].
    pub fn check_compatible(&self, subspace_k: Option<usize>) -> Result<(), String> {
        match (self, subspace_k) {
            (MixerSpec::TransverseField, Some(_)) => Err(
                "transverse-field mixer leaves the feasible subspace of a constrained problem"
                    .into(),
            ),
            (MixerSpec::Clique | MixerSpec::Ring, None) => Err(format!(
                "{} mixer requires a Hamming-weight-constrained problem",
                self.kind()
            )),
            _ => Ok(()),
        }
    }

    /// Builds the mixer for a problem's feasible space.
    pub fn build(&self, problem: &BuiltProblem) -> Result<juliqaoa_mixers::Mixer, String> {
        use juliqaoa_mixers::Mixer;
        self.check_compatible(problem.subspace_k)?;
        Ok(match (self, problem.subspace_k) {
            (MixerSpec::TransverseField, _) => Mixer::transverse_field(problem.n),
            (MixerSpec::Grover, None) => Mixer::grover_full(problem.n),
            (MixerSpec::Grover, Some(k)) => Mixer::grover_dicke(problem.n, k),
            (MixerSpec::Clique, Some(k)) => Mixer::clique(problem.n, k),
            (MixerSpec::Ring, Some(k)) => Mixer::ring(problem.n, k),
            // lint:allow(R3, check_compatible above already rejected subspace mixers without k)
            (MixerSpec::Clique | MixerSpec::Ring, None) => unreachable!("checked above"),
        })
    }
}

/// The shot estimator a sampled job optimizes (see `juliqaoa_sampling::estimator`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum EstimatorSpec {
    /// The sample mean of the measured objective values.
    Mean,
    /// CVaR-α: the mean of the best `⌈α·shots⌉` samples, `0 < α ≤ 1`.
    #[serde(rename = "cvar")]
    CVaR {
        /// Tail fraction.
        alpha: f64,
    },
    /// The Gibbs soft-max `(1/η)·ln⟨e^{ηC}⟩`, `0 < η < ∞`.
    Gibbs {
        /// Inverse-temperature weighting.
        eta: f64,
    },
}

impl EstimatorSpec {
    /// The `"kind"` discriminant used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            EstimatorSpec::Mean => "mean",
            EstimatorSpec::CVaR { .. } => "cvar",
            EstimatorSpec::Gibbs { .. } => "gibbs",
        }
    }

    /// The runnable estimator.
    pub fn build(&self) -> juliqaoa_sampling::ShotEstimator {
        use juliqaoa_sampling::ShotEstimator;
        match *self {
            EstimatorSpec::Mean => ShotEstimator::Mean,
            EstimatorSpec::CVaR { alpha } => ShotEstimator::CVaR { alpha },
            EstimatorSpec::Gibbs { eta } => ShotEstimator::Gibbs { eta },
        }
    }

    /// Parameter validation (`0 < α ≤ 1`, `0 < η < ∞`) — accept-loop-cheap.
    pub fn validate(&self) -> Result<(), String> {
        self.build().validate()
    }
}

/// Most shots a single job may request per evaluation; a sampled grid job draws
/// `shots` per grid point, so this bound keeps one job from monopolising the box.
pub const MAX_SHOTS: u64 = 1 << 30;

/// The shot-sampling extension of a job: present ⇒ the job is a `"sample"` job whose
/// optimizer drives the shot estimator instead of the exact expectation, and whose
/// result carries the measured histogram and best sampled bitstring.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SamplingSpec {
    /// Shots per objective evaluation (and for the final readout at the best angles).
    pub shots: u64,
    /// Base seed for every shot stream the job draws (independent of the job's
    /// optimizer seed, so the same angle search can be re-measured under different
    /// shot noise).
    pub seed: u64,
    /// The estimator to optimize.
    pub estimator: EstimatorSpec,
}

impl SamplingSpec {
    /// Validates the sampling parameters without building anything; request handlers
    /// call this so invalid specs die with a structured 4xx at submission instead of
    /// a worker panic mid-job.
    pub fn validate(&self) -> Result<(), String> {
        if self.shots == 0 {
            return Err("sampling requires shots > 0".into());
        }
        if self.shots > MAX_SHOTS {
            return Err(format!(
                "shots={} exceeds the service limit of {MAX_SHOTS} per evaluation",
                self.shots
            ));
        }
        self.estimator.validate()
    }
}

/// The classical angle-finding strategy for a job.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum OptimizerSpec {
    /// BFGS from `restarts` random starting points (Listing 3's `find_angles_rand`).
    RandomRestart {
        /// Number of random starts.
        restarts: usize,
    },
    /// Basin hopping from a random start.
    #[serde(rename = "basinhopping")]
    BasinHopping {
        /// Number of hops.
        n_hops: usize,
        /// Perturbation half-width between hops.
        step_size: f64,
        /// Metropolis temperature.
        temperature: f64,
    },
    /// Brute-force grid scan over `[0, 2π)^{2p}`.
    #[serde(rename = "gridsearch")]
    GridSearch {
        /// Points per axis.
        resolution: usize,
    },
}

/// One QAOA experiment: problem × mixer × rounds × optimizer × seed, optionally
/// extended into a `"sample"` job by a [`SamplingSpec`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Client-chosen job identifier; unique within a batch / service run.
    pub id: String,
    /// The problem instance.
    pub problem: ProblemSpec,
    /// The mixer family.
    pub mixer: MixerSpec,
    /// Number of QAOA rounds.
    pub p: usize,
    /// The angle-finding strategy.
    pub optimizer: OptimizerSpec,
    /// Seed for every random draw the job makes (same seed ⇒ bit-identical result).
    pub seed: u64,
    /// `Some` ⇒ shot-based job: the optimizer drives the estimator over sampled
    /// bitstrings and the result reports the measured histogram.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sampling: Option<SamplingSpec>,
    /// Client-requested deadline on the job's execution, in milliseconds of run
    /// time (queue wait excluded).  The engine polls the deadline cooperatively at
    /// optimizer boundaries; an expired job reports `"timed_out"` with its partial
    /// best-so-far angles rather than an error.  `None` defers to the server's
    /// default; servers clamp requests to their configured maximum.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub timeout_ms: Option<u64>,
}

impl JobSpec {
    /// The job's deterministic trace id (see [`derive_trace_id`]).
    ///
    /// Realises the problem to obtain the canonical instance id — graph/clause
    /// generation and an FNV hash, no `2ⁿ` work — the same cost the router
    /// already pays per submission for its consistent-hash routing key.
    pub fn trace_id(&self) -> Result<TraceId, String> {
        Ok(derive_trace_id(
            self.problem.build()?.instance_id.raw(),
            self,
        ))
    }
}

/// A batch of jobs, the top-level shape of a job file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobFile {
    /// The jobs, executed in spec order (modulo parallel scheduling).
    pub jobs: Vec<JobSpec>,
}

/// The outcome of one executed job; one JSONL line in batch output.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The job id from the spec.
    pub id: String,
    /// The job's trace id, 16 lowercase hex digits: the one serve adopted from
    /// an `X-Juliqaoa-Trace` header, else the deterministic [`derive_trace_id`].
    /// The router sends the derived id, so identical specs carry identical ids
    /// and determinism diffs need no exclusion.  Feed it to `GET /trace/:id`
    /// for the job's span tree.
    pub trace: String,
    /// Terminal state: `"done"` (also the resume marker), `"cancelled"`, or
    /// `"timed_out"` (deadline expired mid-run; the result carries the best
    /// angles found before the deadline).
    pub status: String,
    /// Canonical instance fingerprint (cache key).
    pub instance: InstanceId,
    /// Problem kind.
    pub problem: String,
    /// Mixer kind.
    pub mixer: String,
    /// Number of QAOA rounds.
    pub p: usize,
    /// The job's seed.
    pub seed: u64,
    /// Feasible-set dimension (statevector length).
    pub dim: usize,
    /// Best value of the maximised objective found: the exact `⟨C⟩` for plain jobs,
    /// the shot-estimator value (e.g. CVaR-α, which systematically exceeds `⟨C⟩`)
    /// for `"sample"` jobs — compare across job kinds via
    /// `sampling.exact_expectation`, not this field.
    pub expectation: f64,
    /// Best flat angle vector `[β…, γ…]`.
    pub angles: Vec<f64>,
    /// Largest objective value over the feasible set.
    pub objective_max: f64,
    /// Smallest objective value over the feasible set.
    pub objective_min: f64,
    /// Normalised quality `(expectation − min)/(max − min)`; 1.0 is the optimum.
    /// For `"sample"` jobs this normalises the *estimator* value (see
    /// `expectation` above), so it is not comparable with an exact job's quality.
    pub quality: f64,
    /// Simulator evaluations spent by the optimizer.
    pub function_evals: usize,
    /// Whether the optimizer's own convergence criterion was met (false when the
    /// run was cancelled *or* when an inner minimiser hit its iteration cap; only
    /// `status` distinguishes cancellation).
    pub converged: bool,
    /// Whether the instance pre-computation came from the cache.
    pub cache_hit: bool,
    /// Wall-clock execution time in milliseconds.
    pub elapsed_ms: f64,
    /// Per-stage timing spans (queue wait is filled in by the serving tier; it
    /// stays 0.0 in batch mode, where jobs never queue behind admission).
    pub timings: JobTimings,
    /// Shot-based readout at the best angles (`Some` for `"sample"` jobs).
    pub sampling: Option<SampleReport>,
}

/// Per-stage wall-clock spans of one executed job, in milliseconds.
///
/// These are observability data, not results: they vary run to run and are
/// excluded from every determinism digest (the bench FNV digests and the CI
/// worker-count diffs both skip them).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct JobTimings {
    /// Time spent queued before a worker picked the job up (serving tier only).
    pub queue_wait_ms: f64,
    /// Instance preparation: problem realisation, precompute, simulator build
    /// (near zero on a cache hit).
    pub prep_ms: f64,
    /// The optimizer's angle search.
    pub optimize_ms: f64,
    /// Shot-based readout at the best angles (0.0 for exact jobs).
    pub sampling_readout_ms: f64,
    /// End-to-end execution (prep through readout, queue wait excluded); equal
    /// to `elapsed_ms`.
    pub total_ms: f64,
}

/// Number of bins in a [`SampleReport`]'s approximation-ratio histogram.
pub const RATIO_HISTOGRAM_BINS: usize = 20;

/// The measured readout of a `"sample"` job at its best angles.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SampleReport {
    /// Shots per evaluation (and in this readout).
    pub shots: u64,
    /// The sampling base seed.
    pub sample_seed: u64,
    /// Estimator kind (`"mean"` / `"cvar"` / `"gibbs"`).
    pub estimator: String,
    /// CVaR tail fraction, when the estimator is `"cvar"`.
    pub alpha: Option<f64>,
    /// Gibbs weighting, when the estimator is `"gibbs"`.
    pub eta: Option<f64>,
    /// The estimator's value on the readout histogram (what the optimizer maximised).
    pub estimate: f64,
    /// The exact `⟨C⟩` at the same angles, for estimator-vs-exact comparison.
    pub exact_expectation: f64,
    /// The best sampled basis state, as an `n`-character binary ket label: the
    /// lowest-indexed sampled state of the best sampled value.  Grover jobs sample
    /// value classes; each of a class's shots then draws a uniform member rank inside
    /// the class (fair sampling), and this is the best class's smallest drawn rank.
    pub best_bitstring: String,
    /// The objective value of the best sampled state.
    pub best_objective: f64,
    /// Empirical frequency of sampling a globally optimal state.
    pub optimal_frequency: f64,
    /// Distinct basis states measured; for Grover jobs, the distinct
    /// `(class, member rank)` pairs of the within-class draws.
    pub distinct_outcomes: u64,
    /// Histogram of normalised sample quality `(C−min)/(max−min)` over
    /// [`RATIO_HISTOGRAM_BINS`] equal bins (last bin closed).
    pub ratio_histogram: Vec<u64>,
    /// Total shots drawn by the whole job (every optimizer evaluation plus the
    /// readout).
    pub shots_total: u64,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Explicit instances that break their constructors' invariants: a MaxCut
    /// edge endpoint `≥ n`, and a k-SAT variable `≥ n` plus an empty clause.
    pub(crate) fn invalid_explicit_problems() -> [ProblemSpec; 2] {
        [
            r#"{"kind":"maxcut","graph":{"n":4,"edges":[{"u":0,"v":1,"weight":1},{"u":0,"v":70,"weight":1}],"adjacency":[[1,70],[0],[],[]]}}"#,
            r#"{"kind":"ksat","sat":{"n":4,"clauses":[[{"var":9,"negated":false}],[]]}}"#,
        ]
        .map(|json| serde_json::from_str(json).unwrap())
    }

    fn sample_jobs() -> Vec<JobSpec> {
        vec![
            JobSpec {
                id: "mc".into(),
                problem: ProblemSpec::MaxCutGnp { n: 8, instance: 0 },
                mixer: MixerSpec::TransverseField,
                p: 2,
                optimizer: OptimizerSpec::BasinHopping {
                    n_hops: 4,
                    step_size: 0.5,
                    temperature: 1.0,
                },
                seed: 7,
                sampling: None,
                timeout_ms: None,
            },
            JobSpec {
                id: "sat".into(),
                problem: ProblemSpec::KSatRandom {
                    n: 8,
                    k: 3,
                    density: 6.0,
                    instance: 1,
                },
                mixer: MixerSpec::Grover,
                p: 1,
                optimizer: OptimizerSpec::GridSearch { resolution: 12 },
                seed: 8,
                sampling: Some(SamplingSpec {
                    shots: 2048,
                    seed: 99,
                    estimator: EstimatorSpec::CVaR { alpha: 0.2 },
                }),
                timeout_ms: Some(120_000),
            },
            JobSpec {
                id: "dks".into(),
                problem: ProblemSpec::DensestKSubgraphGnp {
                    n: 8,
                    k: 4,
                    instance: 2,
                },
                mixer: MixerSpec::Clique,
                p: 1,
                optimizer: OptimizerSpec::RandomRestart { restarts: 5 },
                seed: 9,
                sampling: None,
                timeout_ms: None,
            },
        ]
    }

    #[test]
    fn trace_ids_are_pure_functions_of_the_spec() {
        let jobs = sample_jobs();
        // Stable across calls, 16 hex digits, and distinct per spec.
        for spec in &jobs {
            assert_eq!(spec.trace_id().unwrap(), spec.trace_id().unwrap());
            assert_eq!(spec.trace_id().unwrap().to_hex().len(), 16);
        }
        let distinct: std::collections::HashSet<u64> = jobs
            .iter()
            .map(|spec| spec.trace_id().unwrap().raw())
            .collect();
        assert_eq!(distinct.len(), jobs.len());
        // Any spec change — even just the id string — re-derives the trace id,
        // because the canonical JSON feeds the fold.
        let base = &jobs[0];
        let mut reseeded = base.clone();
        reseeded.seed += 1;
        assert_ne!(base.trace_id().unwrap(), reseeded.trace_id().unwrap());
        let mut renamed = base.clone();
        renamed.id = "mc-renamed".into();
        assert_ne!(base.trace_id().unwrap(), renamed.trace_id().unwrap());
    }

    #[test]
    fn trace_id_derivation_is_frozen() {
        // Golden value: router, server and batch tiers derive trace ids
        // independently and must agree across versions.  If this breaks, the
        // wire-visible derivation changed — that is a compatibility break, not
        // a refactor.
        let spec = &sample_jobs()[0];
        assert_eq!(spec.trace_id().unwrap().to_hex(), "b47200a07c2ae7d9");
    }

    #[test]
    fn job_file_round_trips() {
        let file = JobFile {
            jobs: sample_jobs(),
        };
        let json = serde_json::to_string_pretty(&file).unwrap();
        let back: JobFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn job_specs_without_a_sampling_field_still_load() {
        // The wire format before the sampling subsystem existed — must stay valid.
        let json = r#"{
            "id": "legacy",
            "problem": {"kind": "maxcut_gnp", "n": 8, "instance": 0},
            "mixer": "grover",
            "p": 1,
            "optimizer": {"kind": "gridsearch", "resolution": 4},
            "seed": 3
        }"#;
        let spec: JobSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec.sampling, None);
        assert_eq!(spec.timeout_ms, None);
        // Exact jobs serialise without the optional fields, so legacy files
        // round-trip.
        let round = serde_json::to_string(&spec).unwrap();
        assert!(!round.contains("sampling"));
        assert!(!round.contains("timeout_ms"));
    }

    #[test]
    fn estimator_specs_round_trip_in_both_forms() {
        let m: EstimatorSpec = serde_json::from_str("\"mean\"").unwrap();
        assert_eq!(m, EstimatorSpec::Mean);
        let c: EstimatorSpec =
            serde_json::from_str("{\"kind\": \"cvar\", \"alpha\": 0.1}").unwrap();
        assert_eq!(c, EstimatorSpec::CVaR { alpha: 0.1 });
        let g: EstimatorSpec = serde_json::from_str("{\"kind\": \"gibbs\", \"eta\": 2.5}").unwrap();
        assert_eq!(g, EstimatorSpec::Gibbs { eta: 2.5 });
        assert!(serde_json::from_str::<EstimatorSpec>("{\"kind\": \"cvar\"}").is_err());
        assert!(serde_json::from_str::<EstimatorSpec>("{\"kind\": \"median\"}").is_err());
        for spec in [m, c, g] {
            let json = serde_json::to_string(&spec).unwrap();
            assert_eq!(serde_json::from_str::<EstimatorSpec>(&json).unwrap(), spec);
        }
    }

    #[test]
    fn sampling_spec_validation_catches_bad_parameters() {
        let ok = SamplingSpec {
            shots: 1024,
            seed: 1,
            estimator: EstimatorSpec::CVaR { alpha: 0.5 },
        };
        assert!(ok.validate().is_ok());
        assert!(SamplingSpec { shots: 0, ..ok }.validate().is_err());
        assert!(SamplingSpec {
            shots: MAX_SHOTS + 1,
            ..ok
        }
        .validate()
        .is_err());
        for alpha in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(
                SamplingSpec {
                    estimator: EstimatorSpec::CVaR { alpha },
                    ..ok
                }
                .validate()
                .is_err(),
                "α = {alpha} must be rejected"
            );
        }
        assert!(SamplingSpec {
            estimator: EstimatorSpec::Gibbs { eta: -1.0 },
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn mixer_accepts_bare_string_form() {
        let m: MixerSpec = serde_json::from_str("\"grover\"").unwrap();
        assert_eq!(m, MixerSpec::Grover);
        let m: MixerSpec = serde_json::from_str("{\"kind\": \"ring\"}").unwrap();
        assert_eq!(m, MixerSpec::Ring);
        assert!(serde_json::from_str::<MixerSpec>("{\"kind\": \"warp\"}").is_err());
    }

    #[test]
    fn unknown_kinds_are_rejected_with_the_kind_named() {
        let err = serde_json::from_str::<ProblemSpec>("{\"kind\": \"tsp\"}").unwrap_err();
        assert!(err.to_string().contains("tsp"));
        let err = serde_json::from_str::<OptimizerSpec>("{\"kind\": \"adam\"}").unwrap_err();
        assert!(err.to_string().contains("adam"));
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let err = serde_json::from_str::<ProblemSpec>("{\"kind\": \"maxcut_gnp\"}").unwrap_err();
        assert!(err.to_string().contains('n'));
    }

    #[test]
    fn generator_and_explicit_forms_share_an_instance_id() {
        let generated = ProblemSpec::MaxCutGnp { n: 8, instance: 3 }
            .build()
            .unwrap();
        let explicit = ProblemSpec::MaxCut {
            graph: paper_maxcut_instance(8, 3),
        }
        .build()
        .unwrap();
        assert_eq!(generated.instance_id, explicit.instance_id);
        // A different instance index realises a different graph.
        let other = ProblemSpec::MaxCutGnp { n: 8, instance: 4 }
            .build()
            .unwrap();
        assert_ne!(generated.instance_id, other.instance_id);
    }

    #[test]
    fn mixer_problem_compatibility_is_validated() {
        let unconstrained = ProblemSpec::MaxCutGnp { n: 6, instance: 0 }
            .build()
            .unwrap();
        let constrained = ProblemSpec::DensestKSubgraphGnp {
            n: 6,
            k: 3,
            instance: 0,
        }
        .build()
        .unwrap();
        assert!(MixerSpec::TransverseField.build(&unconstrained).is_ok());
        assert!(MixerSpec::TransverseField.build(&constrained).is_err());
        assert!(MixerSpec::Clique.build(&unconstrained).is_err());
        assert_eq!(MixerSpec::Clique.build(&constrained).unwrap().dim(), 20);
        assert_eq!(MixerSpec::Grover.build(&constrained).unwrap().dim(), 20);
        assert_eq!(MixerSpec::Grover.build(&unconstrained).unwrap().dim(), 64);
    }

    #[test]
    fn explicit_instances_are_validated_by_shape() {
        let [graph, sat] = invalid_explicit_problems();
        let err = graph.shape().unwrap_err();
        assert!(err.contains("(0, 70)"), "{err}");
        let err = sat.shape().unwrap_err();
        assert!(err.contains("variable 9"), "{err}");
        // Valid explicit instances still pass.
        let graph = ProblemSpec::MaxCut {
            graph: paper_maxcut_instance(6, 1),
        };
        assert_eq!(graph.shape(), Ok((6, None)));
        let sat = ProblemSpec::KSat {
            sat: KSat::new(4, vec![vec![juliqaoa_problems::Literal::pos(3)]]),
        };
        assert_eq!(sat.shape(), Ok((4, None)));
    }

    #[test]
    fn oversized_problems_are_rejected() {
        let err = ProblemSpec::MaxCutGnp {
            n: MAX_QUBITS + 1,
            instance: 0,
        }
        .build()
        .unwrap_err();
        assert!(err.contains("exceeds"));
    }
}
