//! The traced run's per-layer breakdown, measured from outside the program.
//!
//! Three sources: the benchmark's own timestamps around its calls (`runs`),
//! the program's outputs (`JobResult.timings`, `/metrics` deltas, `/stats`),
//! and standalone timings of each layer's public functions at the workload's
//! shapes, taken here after the service processes have stopped.  A "computed"
//! metric multiplies a count by a standalone per-call time.  A layer the
//! workload does not pass through reports 0.

use crate::oracle::{objective_values, MixerKey, Reference};
use crate::runs::{JobRecord, Measured};
use crate::stats::{counter_delta, histogram_delta_quantile, mean, median, quantile, tail, Scrape};
use crate::workloads::{batch_round, Sizes, Workload};
use juliqaoa_core::{Angles, Simulator};
use juliqaoa_linalg::vector::{apply_phases, apply_phases_indexed, build_phase_table};
use juliqaoa_linalg::walsh::walsh_hadamard;
use juliqaoa_linalg::Complex64;
use juliqaoa_optim::RunControl;
use juliqaoa_problems::PhaseClasses;
use juliqaoa_sampling::{AliasTable, StateSampler};
use juliqaoa_service::{Engine, FsyncPolicy, JobSpec, Journal};
use juliqaoa_telemetry::kernels;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Shots a sampled job draws per evaluation.
const SHOTS: u64 = 2048;

/// Median seconds per call of `f`, from batches of calls lasting ~10 ms each,
/// for about `budget_s` seconds (at least five batches).
fn per_call_s(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-8);
    let reps = ((0.01 / one).ceil() as usize).clamp(1, 1_000_000);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (started.elapsed().as_secs_f64() < budget_s && samples.len() < 200) {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / reps as f64);
    }
    median(&samples)
}

/// A normalised pseudo-random state (fixed pattern; the kernels' cost does not
/// depend on the amplitudes).
fn state(dim: usize) -> Vec<Complex64> {
    let norm = (dim as f64).sqrt();
    (0..dim)
        .map(|i| Complex64::cis(i as f64 * 0.618_034) * (1.0 / norm))
        .collect()
}

/// The distinct job shapes of a run, each with one representative spec and
/// the number of jobs of that shape.
fn shapes(jobs: &[JobRecord]) -> Vec<(JobSpec, usize)> {
    let mut by_shape: BTreeMap<String, (JobSpec, usize)> = BTreeMap::new();
    for r in jobs {
        let s = &r.spec;
        let (n, k) = s.problem.shape().unwrap_or((0, None));
        let key = format!("{}/{n}/{k:?}/{}/{}", s.problem.kind(), s.mixer.kind(), s.p);
        by_shape.entry(key).or_insert_with(|| (s.clone(), 0)).1 += 1;
    }
    by_shape.into_values().collect()
}

/// Job-weighted mean of `f` over the shapes.
fn weighted(shapes: &[(JobSpec, usize)], mut f: impl FnMut(&JobSpec) -> f64) -> f64 {
    let total: usize = shapes.iter().map(|s| s.1).sum();
    shapes
        .iter()
        .map(|(spec, w)| f(spec) * *w as f64)
        .sum::<f64>()
        / total.max(1) as f64
}

/// Kernel and engine counters over a window of work.
#[derive(Default)]
struct Counts {
    jobs: f64,
    evals: f64,
    wht_passes: f64,
    phase_applies: f64,
    grover_rounds: f64,
    prefix_rounds_saved: f64,
    prefix_hits: f64,
    prefix_misses: f64,
}

impl Counts {
    /// `sampled_evals`: evaluations of sample jobs, which the kernel counter of
    /// objective evaluations does not see; taken from their results.
    fn from_scrapes(pairs: &[(Scrape, Scrape)], jobs: f64, sampled_evals: f64) -> Counts {
        let d = |series: &str| counter_delta(pairs, series);
        Counts {
            jobs,
            evals: d("kernel_objective_evals") + sampled_evals,
            wht_passes: d("kernel_wht_passes"),
            phase_applies: d("kernel_phase_table_applies") + d("kernel_dense_phase_applies"),
            grover_rounds: d("kernel_fused_grover_rounds"),
            prefix_rounds_saved: d("kernel_prefix_rounds_saved"),
            prefix_hits: d("engine_prefix_hits"),
            prefix_misses: d("engine_prefix_misses"),
        }
    }

    /// Batch exposes no counters: replay the round's small-subspace and
    /// Grover-Dicke jobs in-process through the service's engine and read the
    /// process-wide kernel counters around it.
    fn from_replay(seed: u64, sizes: &Sizes) -> Counts {
        let specs: Vec<JobSpec> = batch_round(seed, sizes, 0)
            .into_iter()
            .filter(|s| s.problem.shape().map(|(n, _)| n) != Ok(sizes.xy_large.0))
            .collect();
        let engine = Engine::new(specs.len());
        let before = kernels::snapshot();
        for spec in &specs {
            let _ = engine.run_job(spec, &RunControl::new());
        }
        let k = kernels::snapshot().delta(&before);
        let stats = engine.stats();
        Counts {
            jobs: specs.len() as f64,
            evals: k.objective_evals as f64,
            wht_passes: k.wht_passes as f64,
            phase_applies: (k.phase_table_applies + k.dense_phase_applies) as f64,
            grover_rounds: k.fused_grover_rounds as f64,
            prefix_rounds_saved: k.prefix_rounds_saved as f64,
            prefix_hits: stats.prefix_hits as f64,
            prefix_misses: stats.prefix_misses as f64,
        }
    }

    fn per_eval(&self, x: f64) -> f64 {
        if self.evals > 0.0 {
            x / self.evals
        } else {
            0.0
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of the traced run, as `(name, value, unit)`.
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    wl: Workload,
    seed: u64,
    sizes: &Sizes,
    m: &Measured,
    done: &[&JobRecord],
    refs: &mut Reference,
    dir: &Path,
    info: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let http = wl != Workload::DickeColdBatch;
    let results: Vec<_> = done.iter().filter_map(|r| r.result.as_ref()).collect();
    let ms = |s: f64| s * 1e3;
    let timing = |f: fn(&juliqaoa_service::JobTimings) -> f64| -> Vec<f64> {
        results.iter().map(|r| f(&r.timings)).collect()
    };

    // --- standalone timings at the workload's shapes -----------------------
    let shapes = shapes(&m.jobs);
    let journal_path = dir.join("standalone-journal.jsonl");
    let journal =
        Journal::open(&journal_path, FsyncPolicy::default()).map_err(|e| e.to_string())?;
    let lines: Vec<String> = results
        .iter()
        .map(|r| serde_json::to_string(*r).expect("results serialise"))
        .collect();
    let mut i = 0;
    let journal_ms = ms(per_call_s(0.2, || {
        journal
            .append(&lines[i % lines.len().max(1)])
            .expect("journal append");
        i += 1;
    }));
    let build_ms = ms(weighted(&shapes, |s| {
        per_call_s(0.1, || drop(black_box(s.problem.build())))
    }));
    let precompute_ms = ms(weighted(&shapes, |s| {
        let problem = s.problem.build().expect("workload specs build");
        per_call_s(0.2, || {
            let values = objective_values(&problem);
            black_box(PhaseClasses::build(&values));
        })
    }));

    // Mixers: one build per (kind, n, k) the workload needs — the oracle has
    // built each already — and the apply of each, weighted by jobs.
    let mut apply_us: BTreeMap<MixerKey, f64> = BTreeMap::new();
    // Per shape: (jobs, mixer apply µs, evaluation µs).
    let mut per_shape = Vec::new();
    for (spec, jobs) in &shapes {
        let problem = spec.problem.build()?;
        let mixer = refs.mixer(spec.mixer, &problem)?.clone();
        let key = (
            spec.mixer.kind(),
            problem.n,
            problem.subspace_k.unwrap_or(0),
        );
        let mut psi = state(mixer.dim());
        let mut scratch = state(mixer.dim());
        let us = 1e6 * per_call_s(0.2, || mixer.apply_evolution(0.3, &mut psi, &mut scratch));
        apply_us.insert(key, us);
        let sim = Simulator::new(objective_values(&problem), mixer).map_err(|e| e.to_string())?;
        let angles = Angles::from_flat(&vec![0.4; 2 * spec.p]);
        let mut ws = sim.workspace();
        let eval = 1e6
            * per_call_s(0.3, || {
                black_box(sim.expectation_with(&angles, &mut ws).expect("evaluation"));
            });
        per_shape.push((*jobs as f64, us, eval));
    }
    let total_jobs: f64 = per_shape.iter().map(|s| s.0).sum();
    let mixer_apply_us = per_shape.iter().map(|s| s.0 * s.1).sum::<f64>() / total_jobs;
    let eval_us = per_shape.iter().map(|s| s.0 * s.2).sum::<f64>() / total_jobs;
    let (mut mixer_build_ms, mut dense_bytes) = (0.0, 0.0);
    for (key, mixer, build_s) in refs.built() {
        let needed = apply_us.contains_key(&key);
        if needed {
            mixer_build_ms += ms(build_s);
            if key.0 == "clique" || key.0 == "ring" {
                dense_bytes += (mixer.dim() * mixer.dim() * 8) as f64;
            }
            info.push(format!(
                "mixer {}({},{}): build {:.3} ms, apply {:.2} us",
                key.0,
                key.1,
                key.2,
                ms(build_s),
                apply_us[&key]
            ));
        }
    }

    // Kernels at the workload's full-space size (the MaxCut size where it has none).
    let wht_n = if wl == Workload::SampledGrid {
        sizes.sat_n
    } else {
        sizes.maxcut_n
    };
    let mut psi = state(1 << wht_n);
    let wht_s = per_call_s(0.3, || walsh_hadamard(&mut psi));
    let wht_gb_per_s = (2.0 * 16.0 * (1u64 << wht_n) as f64 * wht_n as f64) / wht_s / 1e9;
    let phase_values = objective_values(&shapes[0].0.problem.build()?);
    let mut psi = state(phase_values.len());
    let phase_us = 1e6
        * match PhaseClasses::build(&phase_values) {
            Some(classes) => {
                let mut table = Vec::new();
                build_phase_table(classes.distinct_values(), 0.7, &mut table);
                per_call_s(0.2, || {
                    apply_phases_indexed(&mut psi, classes.class_indices(), &table)
                })
            }
            None => per_call_s(0.2, || apply_phases(&mut psi, &phase_values, 0.7)),
        };
    let probs: Vec<f64> = state(1 << 14).iter().map(|a| a.norm_sqr()).collect();
    let alias_us = 1e6
        * per_call_s(0.2, || {
            drop(black_box(AliasTable::new(probs.iter().copied())))
        });
    let sampler = StateSampler::from_probabilities(probs.iter().copied(), seed);
    let ns_per_shot =
        1e9 * per_call_s(0.2, || drop(black_box(sampler.sample_counts(SHOTS)))) / SHOTS as f64;

    // --- counts from the program ---------------------------------------------
    let counts = if http {
        let pairs: Vec<(Scrape, Scrape)> = m.backends.iter().map(|b| b.metrics.clone()).collect();
        let sampled_evals: usize = results
            .iter()
            .filter(|r| r.sampling.is_some())
            .map(|r| r.function_evals)
            .sum();
        Counts::from_scrapes(&pairs, done.len() as f64, sampled_evals as f64)
    } else {
        Counts::from_replay(seed, sizes)
    };
    let evals_per_job = ratio(counts.evals, counts.jobs);
    let optimize_ms = timing(|t| t.optimize_ms);
    let optimize_mean = mean(&optimize_ms);
    let eval_ms_per_job = evals_per_job * eval_us / 1e3;
    let kernel_ms_per_job = ratio(
        counts.wht_passes * wht_s + counts.phase_applies * phase_us / 1e6,
        counts.jobs,
    ) * 1e3;

    // --- client, router, server ----------------------------------------------
    let late: Vec<f64> = m.jobs.iter().map(|r| ms(r.sent_s - r.due_s)).collect();
    let poll_delay: Vec<f64> = done
        .iter()
        .map(|r| ms(r.seen_s - r.pending_poll_s))
        .collect();
    let queue_ms: Vec<f64> = if http {
        timing(|t| t.queue_wait_ms)
    } else {
        // When each job started, from when its line appeared and how long it ran.
        done.iter()
            .filter_map(|r| Some(ms(r.seen_s - r.sent_s) - r.result.as_ref()?.timings.total_ms))
            .map(|q| q.max(0.0))
            .collect()
    };
    let (overhead_ms, route_submit_ms, max_share) = if http {
        let overhead: Vec<f64> = done
            .iter()
            .filter_map(|r| {
                let t = &r.result.as_ref()?.timings;
                Some(ms(r.fetched_s - r.sent_s) - t.queue_wait_ms - t.total_ms - journal_ms)
            })
            .collect();
        let router = m
            .router
            .clone()
            .ok_or("traced run without router scrapes")?;
        let submitted: Vec<f64> = m.backends.iter().map(|b| b.jobs_submitted).collect();
        (
            median(&overhead),
            histogram_delta_quantile(&[router], "route_submit_ms", 0.5),
            ratio(
                submitted.iter().copied().fold(0.0, f64::max),
                submitted.iter().sum(),
            ),
        )
    } else {
        (0.0, 0.0, 1.0)
    };

    // --- reconciliation ---------------------------------------------------------
    let latency_share = if http {
        let (mut latency, mut covered) = (0.0, 0.0);
        for r in done {
            let Some(result) = &r.result else { continue };
            let t = &result.timings;
            latency += ms(r.fetched_s - r.sent_s);
            covered += ms(r.acked_s - r.sent_s)
                + t.queue_wait_ms
                + t.total_ms
                + journal_ms
                + ms(r.fetched_s - r.seen_s);
        }
        1.0 - ratio(covered, latency)
    } else {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let busy: f64 = timing(|t| t.total_ms).iter().sum();
        let wall: f64 = m.rounds.iter().map(|(a, b)| ms(b - a)).sum();
        1.0 - ratio(busy, threads * wall)
    };
    let latency_mean = if http {
        mean(
            &done
                .iter()
                .map(|r| ms(r.fetched_s - r.sent_s))
                .collect::<Vec<_>>(),
        )
    } else {
        mean(&timing(|t| t.total_ms))
    };
    let optimize_share = ratio(eval_ms_per_job - kernel_ms_per_job, optimize_mean);
    let unattributed = ratio(
        latency_share * latency_mean + optimize_share * optimize_mean,
        latency_mean,
    );

    let shots: Vec<f64> = results
        .iter()
        .map(|r| r.sampling.as_ref().map_or(0.0, |s| s.shots_total as f64))
        .collect();
    let cache_hits: Vec<f64> = results
        .iter()
        .map(|r| f64::from(u8::from(r.cache_hit)))
        .collect();
    info.push(format!(
        "counts over {} jobs: {} evals, {} WHT passes, {} phase applies, {} fused Grover rounds{}",
        counts.jobs,
        counts.evals,
        counts.wht_passes,
        counts.phase_applies,
        counts.grover_rounds,
        if http {
            ""
        } else {
            " (in-process replay of round 0 without the large-subspace jobs)"
        }
    ));

    Ok(vec![
        ("loadgen.late_ms_p99", quantile(&late, 0.99), "ms"),
        ("loadgen.poll_delay_ms_p50", median(&poll_delay), "ms"),
        ("router.overhead_ms_p50", overhead_ms, "ms"),
        ("router.route_submit_ms_p50", route_submit_ms, "ms"),
        ("router.max_backend_share", max_share, "ratio"),
        ("server.queue_wait_ms_p50", median(&queue_ms), "ms"),
        ("server.queue_wait_ms_tail", tail(&queue_ms).1, "ms"),
        ("journal.write_ms_p50", journal_ms, "ms"),
        ("engine.prep_ms_p50", median(&timing(|t| t.prep_ms)), "ms"),
        ("engine.optimize_ms_p50", median(&optimize_ms), "ms"),
        (
            "engine.readout_ms_p50",
            median(&timing(|t| t.sampling_readout_ms)),
            "ms",
        ),
        (
            "engine.prefix_hit_ratio",
            ratio(
                counts.prefix_hits,
                counts.prefix_hits + counts.prefix_misses,
            ),
            "ratio",
        ),
        ("engine.cache_hit_ratio", mean(&cache_hits), "ratio"),
        ("problems.build_ms", build_ms, "ms"),
        ("problems.precompute_ms", precompute_ms, "ms"),
        ("mixers.build_ms", mixer_build_ms, "ms"),
        ("mixers.apply_us", mixer_apply_us, "us"),
        ("mixers.dense_bytes_computed", dense_bytes, "bytes"),
        (
            "linalg.wht_passes_per_eval",
            counts.per_eval(counts.wht_passes),
            "count",
        ),
        ("linalg.wht_us_per_pass", wht_s * 1e6, "us"),
        ("linalg.wht_gb_per_s_computed", wht_gb_per_s, "GB/s"),
        (
            "linalg.phase_applies_per_eval",
            counts.per_eval(counts.phase_applies),
            "count",
        ),
        ("linalg.phase_table_us_per_apply", phase_us, "us"),
        ("core.eval_us", eval_us, "us"),
        (
            "core.prefix_rounds_saved_per_eval",
            counts.per_eval(counts.prefix_rounds_saved),
            "count",
        ),
        (
            "core.grover_rounds_per_eval",
            counts.per_eval(counts.grover_rounds),
            "count",
        ),
        ("optim.evals_per_job", evals_per_job, "count"),
        (
            "optim.overhead_share_computed",
            1.0 - ratio(eval_ms_per_job, optimize_mean),
            "ratio",
        ),
        ("sampling.shots_per_job", mean(&shots), "count"),
        ("sampling.alias_build_us", alias_us, "us"),
        ("sampling.ns_per_shot", ns_per_shot, "ns"),
        ("trace.unattributed_share", unattributed, "ratio"),
        ("trace.unattributed_latency_share", latency_share, "ratio"),
        ("trace.unattributed_optimize_share", optimize_share, "ratio"),
        (
            "trace.overhead_share",
            ratio(m.trace_work_s, m.window_s),
            "ratio",
        ),
    ])
}
