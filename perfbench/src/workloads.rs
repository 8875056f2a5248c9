//! The three seeded workloads.
//!
//! Every input is a pure function of the workload seed, derived through the
//! workspace's frozen seeding scheme (`juliqaoa_combinatorics::seeding`): the
//! instance indices, the job seeds, the shot seeds and the open-loop arrival
//! schedule.  The service only ever receives the generated job specs.

use juliqaoa_combinatorics::seeding::derive_stream_seed;
use juliqaoa_service::{
    EstimatorSpec, JobSpec, MixerSpec, OptimizerSpec, ProblemSpec, SamplingSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream families (the `scale` argument of `derive_stream_seed`), one per kind
/// of generated value, so no two kinds of value share a stream.
const STREAM_INSTANCE: u64 = 1;
const STREAM_JOB_SEED: u64 = 2;
const STREAM_SHOT_SEED: u64 = 3;
const STREAM_SCHEDULE: u64 = 4;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Why: the paper's headline unconstrained job.  Optimize is dominated by
    /// Walsh–Hadamard passes and prep is ~0 on a warm cache, so WHT, phase-kernel
    /// and serving-path changes show here, while mixer-build or prep changes must
    /// not.  Open loop over HTTP through the router at a fixed arrival rate.
    MaxcutTfHot,
    /// Why: constrained problems set JuliQAOA apart, and the dense XY mixer build
    /// is the paper's named limit.  Every job is a fresh instance, so prep,
    /// `precompute_dicke`, the dense XY build/apply and the batch journal do the
    /// work and no WHT runs.  Subspace dims 252, 924 and 12870 sit on both sides
    /// of any dense-versus-matrix-free crossover.  Closed: job files through
    /// `qaoa-service batch`.
    DickeColdBatch,
    /// Why: many cheap evaluations per job, so the sampling layer, prefix
    /// checkpoint reuse, fused Grover rounds and per-eval optimizer overhead
    /// dominate.  Closed loop over HTTP with two jobs outstanding, which also
    /// measures saturated serving throughput.
    SampledGrid,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "maxcut-tf-hot" => Some(Workload::MaxcutTfHot),
            "dicke-cold-batch" => Some(Workload::DickeColdBatch),
            "sampled-grid" => Some(Workload::SampledGrid),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MaxcutTfHot => "maxcut-tf-hot",
            Workload::DickeColdBatch => "dicke-cold-batch",
            Workload::SampledGrid => "sampled-grid",
        }
    }
}

/// Sizes that shrink for the self-check's tiny pass; the real benchmark uses
/// [`Sizes::full`].
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Qubits of the MaxCut instances: 14, not the paper's headline 16, so a
    /// run holds ~60 jobs and the medians settle; Walsh–Hadamard passes still
    /// dominate optimize at this size.
    pub maxcut_n: usize,
    /// Qubits of the 3-SAT instances.
    pub sat_n: usize,
    /// Grid points per axis of the sampled jobs.
    pub grid_resolution: usize,
    /// `(n, k)` of the small and the large XY-mixer subspace.
    pub xy_small: (usize, usize),
    pub xy_large: (usize, usize),
    /// `(n, k)` of the Grover-Dicke jobs.
    pub grover_dicke: (usize, usize),
    /// Instances each backend owns in `maxcut-tf-hot`: many, so that the
    /// instance draw of one seed moves the figures little.
    pub hot_instances_per_backend: usize,
    /// Instances each backend owns in `sampled-grid`: few, so that every
    /// instance's parked prefix checkpoints are reused from job to job.
    pub grid_instances_per_backend: usize,
    /// Open-loop arrival rate of `maxcut-tf-hot`, jobs per second.
    pub hot_rate_per_s: f64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            maxcut_n: 14,
            sat_n: 14,
            grid_resolution: 6,
            xy_small: (10, 5),
            xy_large: (12, 6),
            grover_dicke: (16, 8),
            hot_instances_per_backend: 12,
            grid_instances_per_backend: 4,
            // Well inside the two single-worker backends' capacity (~0.13 s of
            // engine time per job).  At 4 jobs/s, or at 16 qubits and a third of
            // capacity, the rare job whose optimizer runs 3x longer and the
            // queue behind it set the tail percentile, which then swung by up
            // to 30 % between seeds; here every spread stays under 8 %.
            hot_rate_per_s: 2.0,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            maxcut_n: 8,
            sat_n: 6,
            grid_resolution: 2,
            xy_small: (4, 2),
            xy_large: (5, 2),
            grover_dicke: (6, 3),
            hot_instances_per_backend: 1,
            grid_instances_per_backend: 1,
            hot_rate_per_s: 10.0,
        }
    }
}

fn stream(seed: u64, family: u64, index: u64) -> u64 {
    derive_stream_seed(seed, family, index)
}

/// The `i`-th candidate instance index of a workload.  HTTP workloads walk the
/// candidates until each backend owns enough of them (see `cluster::place`).
pub fn candidate_instance(seed: u64, i: u64) -> u64 {
    stream(seed, STREAM_INSTANCE, i)
}

/// A cheap exact job on an instance: one grid point.  Used to warm the
/// instance cache and to learn which backend the router places the instance on.
pub fn probe_job(id: String, problem: ProblemSpec, mixer: MixerSpec) -> JobSpec {
    JobSpec {
        id,
        problem,
        mixer,
        p: 1,
        optimizer: OptimizerSpec::GridSearch { resolution: 1 },
        seed: 0,
        sampling: None,
        timeout_ms: None,
    }
}

pub fn maxcut_problem(sizes: &Sizes, instance: u64) -> ProblemSpec {
    ProblemSpec::MaxCutGnp {
        n: sizes.maxcut_n,
        instance,
    }
}

pub fn sat_problem(sizes: &Sizes, instance: u64) -> ProblemSpec {
    ProblemSpec::KSatRandom {
        n: sizes.sat_n,
        k: 3,
        density: 6.0,
        instance,
    }
}

/// Job `j` of `maxcut-tf-hot`: MaxCut G(n,½), transverse-field mixer, p = 1,
/// two-hop basin hopping, cycling over the placed instances.
pub fn hot_job(seed: u64, instances: &[u64], sizes: &Sizes, j: u64) -> JobSpec {
    JobSpec {
        id: format!("hot-{j}"),
        problem: maxcut_problem(sizes, instances[j as usize % instances.len()]),
        mixer: MixerSpec::TransverseField,
        p: 1,
        optimizer: OptimizerSpec::BasinHopping {
            n_hops: 2,
            step_size: 0.8,
            temperature: 1.0,
        },
        seed: stream(seed, STREAM_JOB_SEED, j),
        sampling: None,
        timeout_ms: None,
    }
}

/// Job `j` of `sampled-grid`: CVaR α = 0.2 sample job, 2048 shots, random 3-SAT
/// at clause density 6, Grover mixer, p = 2, grid search.
pub fn grid_job(seed: u64, instances: &[u64], sizes: &Sizes, j: u64) -> JobSpec {
    JobSpec {
        id: format!("grid-{j}"),
        problem: sat_problem(sizes, instances[j as usize % instances.len()]),
        mixer: MixerSpec::Grover,
        p: 2,
        optimizer: OptimizerSpec::GridSearch {
            resolution: sizes.grid_resolution,
        },
        seed: stream(seed, STREAM_JOB_SEED, j),
        sampling: Some(SamplingSpec {
            shots: 2048,
            seed: stream(seed, STREAM_SHOT_SEED, j),
            estimator: EstimatorSpec::CVaR { alpha: 0.2 },
        }),
        timeout_ms: None,
    }
}

/// One round of `dicke-cold-batch`: twelve jobs, every one on a fresh instance.
///
/// The batch executor splits its job list into one contiguous piece per
/// thread, so the round is two halves of identical composition: each half has
/// one Clique and one Ring job at the large subspace (where the dense XY build
/// dominates), one of each at the small subspace, and two Grover-Dicke jobs.
/// Rounds are then equally balanced across the two CPUs whatever the seed.
pub fn batch_round(seed: u64, sizes: &Sizes, round: u64) -> Vec<JobSpec> {
    use MixerSpec::{Clique, Grover, Ring};
    let half = |dks_first: bool| {
        let (a, b) = if dks_first {
            (true, false)
        } else {
            (false, true)
        };
        [
            (a, Clique, sizes.xy_large, 1),
            (b, Ring, sizes.xy_large, 2),
            (a, Ring, sizes.xy_small, 1),
            (b, Clique, sizes.xy_small, 2),
            (a, Grover, sizes.grover_dicke, 1),
            (b, Grover, sizes.grover_dicke, 2),
        ]
    };
    half(true)
        .into_iter()
        .chain(half(false))
        .enumerate()
        .map(|(slot, (densest, mixer, (n, k), p))| {
            let j = round * 100 + slot as u64;
            let instance = stream(seed, STREAM_INSTANCE, j);
            let problem = if densest {
                ProblemSpec::DensestKSubgraphGnp { n, k, instance }
            } else {
                ProblemSpec::MaxKVertexCoverGnp { n, k, instance }
            };
            JobSpec {
                id: format!("dicke-{round}-{slot}"),
                problem,
                mixer,
                p,
                optimizer: OptimizerSpec::BasinHopping {
                    n_hops: 2,
                    step_size: 0.8,
                    temperature: 1.0,
                },
                seed: stream(seed, STREAM_JOB_SEED, j),
                sampling: None,
                timeout_ms: None,
            }
        })
        .collect()
}

/// Open-loop send offsets (seconds from the window start) over `seconds`: a
/// fixed mean rate with each gap jittered uniformly in ±50 % of the mean, so
/// arrivals neither phase-lock with job completions nor burst like a Poisson
/// stream whose tail would swamp the latency figures.
pub fn arrival_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(stream(seed, STREAM_SCHEDULE, 0));
    let mean_gap = 1.0 / rate_per_s;
    let mut t = rng.gen_range(0.0..mean_gap);
    let mut out = Vec::new();
    while t < seconds {
        out.push(t);
        t += mean_gap * rng.gen_range(0.5..1.5);
    }
    out
}
