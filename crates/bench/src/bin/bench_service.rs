//! Service throughput snapshot: jobs/sec through the batch engine, written to
//! `BENCH_service.json`.
//!
//! Workloads, separating engine overhead from cache value from concurrency scaling:
//!
//! 1. **hot-cache** — many jobs over a handful of instances (the serving steady
//!    state: clients sweep seeds/optimizers over shared problems);
//! 2. **cold-cache** — every job on a distinct instance (worst case: each job pays
//!    the full `2ⁿ` pre-computation);
//! 3. **hot-cache-w{1,2,4}** — the *worker sweep*: the hot workload at 1, 2 and 4
//!    workers, each in a child process (the rayon thread count is latched per
//!    process).  The snapshot records per-point speedup and scaling efficiency,
//!    and every row carries a digest of its results — the sweep asserts the
//!    digests are identical, so worker-count independence is checked on every run;
//! 4. **shards-{1,2,3}** — the *shard sweep*: the hot workload through
//!    `qaoa-service batch --shard-workers N` (each shard a separate OS process,
//!    merged through the checksummed journal).  Digests are asserted identical
//!    across node counts and against the in-process row — the cluster tier's
//!    topology-independence contract, measured on every run.
//!
//! Throughput assertions (non-smoke): with ≥ 4 CPUs visible, 4 workers must beat
//! 1 worker by ≥ 1.3×; with ≥ 2 CPUs, 4 workers must at least match 1 worker.  On
//! a single visible CPU the scaling assertion is *skipped and recorded as such* —
//! four CPU-bound workers time-slicing one core cannot beat a serial run, and
//! pretending otherwise would just make the snapshot lie.
//!
//! Every row records the rayon thread count it ran under; the snapshot also records
//! the effective `JULIQAOA_PAR_THRESHOLD` and the visible CPU count so behaviour is
//! reproducible from the JSON alone.
//!
//! Usage: `cargo run --release -p juliqaoa_bench --bin bench_service [output.json] [--smoke]`

use juliqaoa_problems::Fnv64;
use juliqaoa_service::{
    run_batch, Engine, JobFile, JobResult, JobSpec, MixerSpec, OptimizerSpec, ProblemSpec,
};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Worker counts the sweep measures.  Each runs in its own child process.
const SWEEP_WORKERS: [usize; 3] = [1, 2, 4];

/// Shard-process counts the cluster sweep measures, via `qaoa-service batch
/// --shard-workers N` (each shard is a separate OS process).
const SHARD_SWEEP: [usize; 3] = [1, 2, 3];

#[derive(Serialize, Deserialize)]
struct WorkloadRow {
    label: String,
    n: usize,
    /// Rayon pool size the row actually ran under.
    threads: usize,
    /// Requested worker count (equals `threads` for sweep rows).
    workers: usize,
    jobs: usize,
    distinct_instances: usize,
    elapsed_s: f64,
    jobs_per_sec: f64,
    cache_hits: u64,
    cache_misses: u64,
    /// Prepared-objective builds actually performed (single-flight: concurrent
    /// misses coalesce, so this stays at `distinct_instances` at any worker count).
    instance_builds: u64,
    prefix_hits: u64,
    prefix_misses: u64,
    /// FNV-1a digest over the sorted `(id, expectation bits, angle bits)` results:
    /// equal digests across worker counts prove bit-identical results.
    results_digest: String,
    /// Median end-to-end job latency (from the engine's `job_total_ms` histogram).
    job_total_ms_p50: f64,
    /// 95th-percentile end-to-end job latency.
    job_total_ms_p95: f64,
    /// 99th-percentile end-to-end job latency.
    job_total_ms_p99: f64,
}

#[derive(Serialize)]
struct SweepPoint {
    workers: usize,
    jobs_per_sec: f64,
    speedup_vs_1_worker: f64,
    /// `speedup / workers`: 1.0 is perfect linear scaling.
    scaling_efficiency: f64,
}

#[derive(Serialize)]
struct ShardPoint {
    /// Number of shard child processes the batch fanned out over.
    shard_workers: usize,
    elapsed_s: f64,
    jobs_per_sec: f64,
    /// Same digest as [`WorkloadRow::results_digest`] — asserted identical
    /// across all node counts and against the in-process hot-cache row.
    results_digest: String,
}

#[derive(Serialize)]
struct Snapshot {
    description: String,
    threads: usize,
    par_threshold: usize,
    available_cpus: usize,
    smoke: bool,
    workloads: Vec<WorkloadRow>,
    worker_sweep: Vec<SweepPoint>,
    results_bit_identical_across_workers: bool,
    scaling_assertion: String,
    /// The same hot job list through `qaoa-service batch --shard-workers N`
    /// child processes — the cluster tier's process-fan-out path.
    shard_sweep: Vec<ShardPoint>,
    shard_assertion: String,
}

fn jobs_for(n: usize, count: usize, distinct_instances: usize) -> Vec<JobSpec> {
    (0..count)
        .map(|i| JobSpec {
            id: format!("bench-{i}"),
            problem: ProblemSpec::MaxCutGnp {
                n,
                instance: (i % distinct_instances) as u64,
            },
            mixer: MixerSpec::TransverseField,
            p: 1,
            optimizer: OptimizerSpec::BasinHopping {
                n_hops: 2,
                step_size: 0.8,
                temperature: 1.0,
            },
            seed: i as u64,
            sampling: None,
            timeout_ms: None,
        })
        .collect()
}

/// FNV-1a (via the workspace's pinned [`Fnv64`]) over the sorted deterministic
/// result fields; `elapsed_ms` and the scheduling-dependent `cache_hit` flag are
/// deliberately excluded.
fn digest_results(path: &Path) -> String {
    let mut results: Vec<(String, u64, Vec<u64>)> = std::fs::read_to_string(path)
        .expect("results file readable")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str::<JobResult>(l).expect("result line parses"))
        .map(|r| {
            (
                r.id.clone(),
                r.expectation.to_bits(),
                r.angles.iter().map(|a| a.to_bits()).collect(),
            )
        })
        .collect();
    results.sort();
    let mut hasher = Fnv64::new();
    for (id, expectation, angles) in &results {
        hasher.write_str(id);
        hasher.write_u64(*expectation);
        for bits in angles {
            hasher.write_u64(*bits);
        }
    }
    format!("{:016x}", hasher.finish())
}

fn run_workload(
    label: &str,
    n: usize,
    count: usize,
    distinct_instances: usize,
    workers: usize,
) -> WorkloadRow {
    let out = std::env::temp_dir().join(format!(
        "juliqaoa_bench_service_{label}_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let jobs = jobs_for(n, count, distinct_instances);
    let engine = Engine::new(distinct_instances.max(1));
    let summary = run_batch(&engine, &jobs, &out, false).expect("batch runs");
    assert_eq!(summary.failed, 0, "benchmark jobs must not fail");
    let stats = engine.stats();
    // The engine is fresh per workload, so its `total_ms` histogram holds
    // exactly this row's jobs — no delta against an earlier snapshot needed.
    let latency = engine.telemetry().total_ms.snapshot();
    let results_digest = digest_results(&out);
    let _ = std::fs::remove_file(&out);
    eprintln!(
        "{label:>14}  n={n}  {count:>3} jobs over {distinct_instances:>3} instances  \
         {:.2}s  {:.2} jobs/s  p50/p95/p99 {:.1}/{:.1}/{:.1} ms  cache {}/{}  builds {}  prefix {}/{}",
        summary.elapsed_s,
        summary.jobs_per_sec,
        latency.quantile(0.50),
        latency.quantile(0.95),
        latency.quantile(0.99),
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
        stats.instance_builds,
        stats.prefix_hits,
        stats.prefix_hits + stats.prefix_misses,
    );
    WorkloadRow {
        label: label.to_string(),
        n,
        threads: rayon::current_num_threads(),
        workers,
        jobs: count,
        distinct_instances,
        elapsed_s: summary.elapsed_s,
        jobs_per_sec: summary.jobs_per_sec,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        instance_builds: stats.instance_builds,
        prefix_hits: stats.prefix_hits,
        prefix_misses: stats.prefix_misses,
        results_digest,
        job_total_ms_p50: latency.quantile(0.50),
        job_total_ms_p95: latency.quantile(0.95),
        job_total_ms_p99: latency.quantile(0.99),
    }
}

/// The sibling `qaoa-service` binary, expected next to this benchmark in the
/// same target directory (build with `cargo build --release -p juliqaoa_service`).
fn service_exe() -> std::path::PathBuf {
    let mut path = std::env::current_exe().expect("current exe");
    path.set_file_name("qaoa-service");
    path
}

/// One point of the shard sweep: the job file through `qaoa-service batch
/// --shard-workers N`, timed end-to-end (process spawn and merge included).
fn run_shard_point(service: &Path, job_path: &Path, shards: usize, jobs: usize) -> ShardPoint {
    let out = std::env::temp_dir().join(format!(
        "juliqaoa_bench_service_shard{shards}_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let started = std::time::Instant::now();
    let output = std::process::Command::new(service)
        .arg("batch")
        .arg(job_path)
        .arg("--out")
        .arg(&out)
        .arg("--shard-workers")
        .arg(shards.to_string())
        .output()
        .expect("spawn qaoa-service batch");
    assert!(
        output.status.success(),
        "sharded batch ({shards} shards) failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let elapsed = started.elapsed().as_secs_f64();
    let results_digest = digest_results(&out);
    let _ = std::fs::remove_file(&out);
    eprintln!(
        "{:>14}  {jobs:>3} jobs across {shards} shard process(es)  {elapsed:.2}s  {:.2} jobs/s",
        format!("shards-{shards}"),
        jobs as f64 / elapsed,
    );
    ShardPoint {
        shard_workers: shards,
        elapsed_s: elapsed,
        jobs_per_sec: jobs as f64 / elapsed,
        results_digest,
    }
}

/// Re-runs this binary as a child with a forced `RAYON_NUM_THREADS` (the rayon
/// thread count is latched on first use, so each pool size needs its own process)
/// and parses the single row the child prints on stdout.
fn run_workload_in_child(
    label: &str,
    n: usize,
    count: usize,
    distinct_instances: usize,
    threads: usize,
) -> WorkloadRow {
    let exe = std::env::current_exe().expect("current exe");
    let output = std::process::Command::new(exe)
        .env(
            "BENCH_SERVICE_ROW_SPEC",
            format!("{label}:{n}:{count}:{distinct_instances}:{threads}"),
        )
        .env("RAYON_NUM_THREADS", threads.to_string())
        .output()
        .expect("spawn child workload");
    assert!(
        output.status.success(),
        "child workload {label:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    serde_json::from_str(String::from_utf8_lossy(&output.stdout).trim()).expect("child row parses")
}

fn main() {
    // Child mode: run exactly one workload and print its row as JSON on stdout.
    if let Ok(spec) = std::env::var("BENCH_SERVICE_ROW_SPEC") {
        let parts: Vec<&str> = spec.split(':').collect();
        assert_eq!(
            parts.len(),
            5,
            "row spec must be label:n:count:distinct:workers"
        );
        let row = run_workload(
            parts[0],
            parts[1].parse().expect("n"),
            parts[2].parse().expect("count"),
            parts[3].parse().expect("distinct"),
            parts[4].parse().expect("workers"),
        );
        println!("{}", serde_json::to_string(&row).expect("row serialises"));
        return;
    }

    let mut output = "BENCH_service.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            // A typoed flag must fail loudly, not silently become the output path
            // and arm the full multi-minute non-smoke run.
            other if other.starts_with('-') => {
                panic!("unknown flag {other:?} (only --smoke is supported)")
            }
            other => output = other.to_string(),
        }
    }

    // Smoke keeps CI fast (and is what shared runners should use: their timing is
    // too noisy for throughput assertions); the full run is the recorded snapshot.
    let (n, hot_jobs, hot_distinct, cold_jobs) = if smoke {
        (10, 12, 2, 6)
    } else {
        (16, 48, 4, 24)
    };
    let available_cpus = std::thread::available_parallelism().map_or(1, |c| c.get());

    let ambient = rayon::current_num_threads();
    let mut workloads = vec![
        run_workload("hot-cache", n, hot_jobs, hot_distinct, ambient),
        run_workload("cold-cache", n, cold_jobs, cold_jobs, ambient),
    ];

    // The worker sweep: every point in its own child process, same job list.
    let mut sweep_rows = Vec::new();
    for workers in SWEEP_WORKERS {
        let row = run_workload_in_child(
            &format!("hot-cache-w{workers}"),
            n,
            hot_jobs,
            hot_distinct,
            workers,
        );
        sweep_rows.push(row);
    }

    // Bit-identity across worker counts is asserted unconditionally — this is the
    // determinism contract, not a performance property.
    let digest_1 = sweep_rows[0].results_digest.clone();
    for row in &sweep_rows[1..] {
        assert_eq!(
            row.results_digest, digest_1,
            "results at {} workers differ from the 1-worker run",
            row.workers
        );
    }

    let base_jps = sweep_rows[0].jobs_per_sec;
    let worker_sweep: Vec<SweepPoint> = sweep_rows
        .iter()
        .map(|row| SweepPoint {
            workers: row.workers,
            jobs_per_sec: row.jobs_per_sec,
            speedup_vs_1_worker: row.jobs_per_sec / base_jps,
            scaling_efficiency: row.jobs_per_sec / base_jps / row.workers as f64,
        })
        .collect();
    let speedup_4 = worker_sweep
        .iter()
        .find(|p| p.workers == 4)
        .expect("sweep covers 4 workers")
        .speedup_vs_1_worker;

    let scaling_assertion = if smoke {
        format!("skipped: smoke run (speedup at 4 workers: {speedup_4:.2}x)")
    } else if available_cpus >= 4 {
        assert!(
            speedup_4 >= 1.3,
            "hot-cache at 4 workers must be ≥ 1.3× the 1-worker row \
             on ≥ 4 CPUs (got {speedup_4:.2}x)"
        );
        format!("enforced: ≥ 1.3x at 4 workers on {available_cpus} CPUs (got {speedup_4:.2}x)")
    } else if available_cpus >= 2 {
        assert!(
            speedup_4 >= 1.0,
            "hot-cache at 4 workers must not fall below the 1-worker row \
             on ≥ 2 CPUs (got {speedup_4:.2}x)"
        );
        format!("enforced: ≥ 1.0x at 4 workers on {available_cpus} CPUs (got {speedup_4:.2}x)")
    } else {
        eprintln!(
            "NOTE: only 1 CPU visible — 4 CPU-bound workers cannot beat a serial \
             run here; scaling assertion skipped (speedup at 4 workers: {speedup_4:.2}x)"
        );
        format!("skipped: 1 CPU visible (speedup at 4 workers: {speedup_4:.2}x)")
    };

    // The shard sweep: the identical hot job list fanned across {1, 2, 3}
    // `qaoa-service batch` shard processes.  Digest identity across node
    // counts — and against the in-process hot-cache row — is the cluster
    // tier's topology-independence contract.
    let mut shard_sweep = Vec::new();
    let service = service_exe();
    let shard_assertion = if service.exists() {
        let job_path = std::env::temp_dir().join(format!(
            "juliqaoa_bench_service_jobs_{}.json",
            std::process::id()
        ));
        let job_file = JobFile {
            jobs: jobs_for(n, hot_jobs, hot_distinct),
        };
        std::fs::write(
            &job_path,
            serde_json::to_string(&job_file).expect("job file serialises"),
        )
        .expect("write job file");
        for shards in SHARD_SWEEP {
            shard_sweep.push(run_shard_point(&service, &job_path, shards, hot_jobs));
        }
        let _ = std::fs::remove_file(&job_path);
        let hot_digest = &workloads[0].results_digest;
        for point in &shard_sweep {
            assert_eq!(
                &point.results_digest, hot_digest,
                "results at {} shard processes differ from the in-process run",
                point.shard_workers
            );
        }
        format!(
            "enforced: digests identical across {SHARD_SWEEP:?} shard processes \
             and the in-process hot-cache row"
        )
    } else {
        eprintln!(
            "NOTE: {} not built — shard sweep skipped \
             (cargo build --release -p juliqaoa_service)",
            service.display()
        );
        format!("skipped: {} not built", service.display())
    };

    workloads.extend(sweep_rows);
    let snapshot = Snapshot {
        description: format!(
            "qaoa-service batch throughput at n = {n} (p = 1 MaxCut, 2-hop basin \
             hopping); per-row `threads` is the rayon pool the row ran under; \
             hot-cache-w* rows sweep the worker count over the same job list and \
             are asserted bit-identical"
        ),
        threads: ambient,
        par_threshold: juliqaoa_linalg::par_threshold(),
        available_cpus,
        smoke,
        workloads,
        worker_sweep,
        results_bit_identical_across_workers: true,
        scaling_assertion,
        shard_sweep,
        shard_assertion,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("serialise snapshot");
    std::fs::write(&output, json).expect("write snapshot");
    eprintln!("wrote {output}");
}
