//! The `qaoa-service` binary: batch, serve and route front-ends over the shared
//! engine.
//!
//! ```text
//! qaoa-service batch <jobs.json> [--out results.jsonl] [--no-resume] [--cache N]
//!                    [--retries N] [--fsync flush|every-line] [--shard-workers N]
//!                    [--trace-out trace.jsonl]
//! qaoa-service serve [--addr 127.0.0.1:7878] [--workers N] [--queue N] [--cache N]
//!                    [--out results.jsonl] [--trace-out trace.jsonl]
//!                    [--trace-ring-cap N] [--read-timeout-ms N] [--write-timeout-ms N]
//!                    [--default-timeout-ms N] [--max-timeout-ms N] [--queue-wait-ms N]
//!                    [--drain-ms N] [--retries N] [--fsync flush|every-line]
//!                    [--max-body-bytes N]
//! qaoa-service route --backends host:port,host:port,... [--addr 127.0.0.1:7979]
//!                    [--probe-interval-ms N] [--probe-timeout-ms N] [--trip-after N]
//!                    [--backend-timeout-ms N] [--retries N]
//!                    [--max-body-bytes N] [--trace-out trace.jsonl] [--trace-ring-cap N]
//!                    [--read-timeout-ms N] [--write-timeout-ms N]
//! qaoa-service example-jobs <path> [--count N] [--n QUBITS]
//! ```
//!
//! `serve` and `route` share the listener and trace flags (`--addr`,
//! `--read-timeout-ms`, `--write-timeout-ms`, `--max-body-bytes`, `--trace-out`,
//! `--trace-ring-cap`), and both list their endpoints at `GET /`.  They install a
//! SIGTERM handler, which raises [`STOP_REQUESTED`].  On it serve refuses new jobs
//! with a `503` but keeps answering reads and probes while its in-flight jobs
//! drain under the `--drain-ms` budget, then exits; route stops its prober and
//! exits.

use juliqaoa_service::{
    load_job_file, run_batch_sharded, run_batch_with, BatchOptions, Engine, FsyncPolicy, JobFile,
    JobSpec, MixerSpec, OpsConfig, OptimizerSpec, ProblemSpec, RetryPolicy, Router, RouterConfig,
    Server, ServerConfig,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the SIGTERM handler.  The tier's accept loop blocks in `accept()`;
/// its stop watcher sees this flag within 20 ms and wakes it.
static STOP_REQUESTED: AtomicBool = AtomicBool::new(false);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let out = match command.as_str() {
        "batch" => cmd_batch(rest),
        "serve" => cmd_serve(rest),
        "route" => cmd_route(rest),
        "example-jobs" => cmd_example_jobs(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match out {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("qaoa-service: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  qaoa-service batch <jobs.json> [--out results.jsonl] [--no-resume] [--cache N]
                     [--retries N] [--fsync flush|every-line] [--shard-workers N]
                     [--trace-out trace.jsonl]
  qaoa-service serve [--addr 127.0.0.1:7878] [--workers N] [--queue N] [--cache N]
                     [--out results.jsonl] [--trace-out trace.jsonl]
                     [--trace-ring-cap N] [--read-timeout-ms N] [--write-timeout-ms N]
                     [--default-timeout-ms N] [--max-timeout-ms N] [--queue-wait-ms N]
                     [--drain-ms N] [--retries N] [--fsync flush|every-line]
                     [--max-body-bytes N]
  qaoa-service route --backends host:port,host:port,... [--addr 127.0.0.1:7979]
                     [--probe-interval-ms N] [--probe-timeout-ms N] [--trip-after N]
                     [--backend-timeout-ms N] [--retries N]
                     [--max-body-bytes N] [--trace-out trace.jsonl] [--trace-ring-cap N]
                     [--read-timeout-ms N] [--write-timeout-ms N]
  qaoa-service example-jobs <path> [--count N] [--n QUBITS]";

/// Pulls the value after a `--flag`, parsing it with `parse`.
fn flag_value<T>(
    args: &[String],
    i: &mut usize,
    flag: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    *i += 1;
    let raw = args
        .get(*i)
        .ok_or_else(|| format!("{flag} requires a value"))?;
    parse(raw).ok_or_else(|| format!("invalid value {raw:?} for {flag}"))
}

/// Applies `args[*i]` when it is one of the listener/trace flags `serve` and
/// `route` share; `Ok(false)` when it is not.
fn ops_flag(ops: &mut OpsConfig, args: &[String], i: &mut usize) -> Result<bool, String> {
    match args[*i].as_str() {
        "--addr" => ops.addr = flag_value(args, i, "--addr", |s| Some(s.to_string()))?,
        "--read-timeout-ms" => {
            ops.read_timeout_ms = flag_value(args, i, "--read-timeout-ms", |s| s.parse().ok())?
        }
        "--write-timeout-ms" => {
            ops.write_timeout_ms = flag_value(args, i, "--write-timeout-ms", |s| s.parse().ok())?
        }
        "--max-body-bytes" => {
            ops.max_body_bytes = flag_value(args, i, "--max-body-bytes", |s| s.parse().ok())?
        }
        "--trace-out" => {
            ops.trace_path = Some(flag_value(args, i, "--trace-out", |s| {
                Some(PathBuf::from(s))
            })?)
        }
        "--trace-ring-cap" => {
            ops.trace_ring_cap = flag_value(args, i, "--trace-ring-cap", |s| s.parse().ok())?
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_fsync(s: &str) -> Option<FsyncPolicy> {
    match s {
        "flush" => Some(FsyncPolicy::Flush),
        "every-line" => Some(FsyncPolicy::EveryLine),
        _ => None,
    }
}

/// Installs a SIGTERM handler that raises [`STOP_REQUESTED`].  The libc crate
/// is not vendored, so this binds `signal(2)` directly; the handler only
/// stores to an atomic, which is async-signal-safe.
#[cfg(unix)]
fn install_stop_signal() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        STOP_REQUESTED.store(true, Ordering::SeqCst);
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_stop_signal() {}

fn cmd_batch(args: &[String]) -> Result<(), String> {
    let mut jobs_path: Option<PathBuf> = None;
    let mut out_path = PathBuf::from("results.jsonl");
    let mut opts = BatchOptions {
        resume: true,
        ..Default::default()
    };
    let mut cache = juliqaoa_service::DEFAULT_CACHE_CAPACITY;
    let mut shard_workers = 0usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out_path = flag_value(args, &mut i, "--out", |s| Some(PathBuf::from(s)))?,
            "--no-resume" => opts.resume = false,
            "--cache" => cache = flag_value(args, &mut i, "--cache", |s| s.parse().ok())?,
            "--retries" => {
                opts.retry =
                    RetryPolicy::with_retries(flag_value(args, &mut i, "--retries", |s| {
                        s.parse().ok()
                    })?)
            }
            "--fsync" => opts.fsync = flag_value(args, &mut i, "--fsync", parse_fsync)?,
            "--trace-out" => {
                opts.trace_path = Some(flag_value(args, &mut i, "--trace-out", |s| {
                    Some(PathBuf::from(s))
                })?)
            }
            "--shard-workers" => {
                shard_workers = flag_value(args, &mut i, "--shard-workers", |s| s.parse().ok())?
            }
            other if jobs_path.is_none() && !other.starts_with("--") => {
                jobs_path = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
        i += 1;
    }
    let jobs_path = jobs_path.ok_or("batch requires a job file path")?;
    let jobs = load_job_file(&jobs_path).map_err(|e| e.to_string())?;
    eprintln!(
        "batch: {} jobs from {}, results -> {}",
        jobs.len(),
        jobs_path.display(),
        out_path.display()
    );
    if shard_workers > 1 {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let summary = run_batch_sharded(&exe, &jobs, &out_path, &opts, shard_workers, cache)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "batch: executed {} (skipped {}, failed {}) across {shard_workers} shard processes in {:.2}s — {:.2} jobs/s",
            summary.executed, summary.skipped, summary.failed, summary.elapsed_s, summary.jobs_per_sec,
        );
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
        );
        if summary.failed > 0 {
            return Err(format!(
                "{} job(s) failed — see {}",
                summary.failed,
                out_path.display()
            ));
        }
        return Ok(());
    }
    let engine = Engine::new(cache);
    let summary = run_batch_with(&engine, &jobs, &out_path, &opts).map_err(|e| e.to_string())?;
    let stats = engine.stats();
    eprintln!(
        "batch: executed {} (skipped {}, failed {}) in {:.2}s — {:.2} jobs/s, cache {}/{} hit",
        summary.executed,
        summary.skipped,
        summary.failed,
        summary.elapsed_s,
        summary.jobs_per_sec,
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
    );
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
    );
    if summary.failed > 0 {
        return Err(format!(
            "{} job(s) failed — see {}",
            summary.failed,
            out_path.display()
        ));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            _ if ops_flag(&mut config.ops, args, &mut i)? => {}
            "--workers" => {
                config.workers = flag_value(args, &mut i, "--workers", |s| s.parse().ok())?
            }
            "--queue" => {
                config.queue_capacity = flag_value(args, &mut i, "--queue", |s| s.parse().ok())?
            }
            "--cache" => {
                config.cache_capacity = flag_value(args, &mut i, "--cache", |s| s.parse().ok())?
            }
            "--out" => {
                config.results_path = Some(flag_value(args, &mut i, "--out", |s| {
                    Some(PathBuf::from(s))
                })?)
            }
            "--default-timeout-ms" => {
                config.default_timeout_ms =
                    Some(flag_value(args, &mut i, "--default-timeout-ms", |s| {
                        s.parse().ok()
                    })?)
            }
            "--max-timeout-ms" => {
                config.max_timeout_ms = Some(flag_value(args, &mut i, "--max-timeout-ms", |s| {
                    s.parse().ok()
                })?)
            }
            "--queue-wait-ms" => {
                config.queue_wait_ms = Some(flag_value(args, &mut i, "--queue-wait-ms", |s| {
                    s.parse().ok()
                })?)
            }
            "--drain-ms" => {
                config.drain_ms = flag_value(args, &mut i, "--drain-ms", |s| s.parse().ok())?
            }
            "--retries" => {
                config.retry = RetryPolicy::with_retries(flag_value(args, &mut i, "--retries", {
                    |s| s.parse().ok()
                })?)
            }
            "--fsync" => config.fsync = flag_value(args, &mut i, "--fsync", parse_fsync)?,
            other => return Err(format!("unexpected argument {other:?}")),
        }
        i += 1;
    }
    install_stop_signal();
    let server = Server::bind(config).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("qaoa-service listening on http://{addr} (GET / lists the endpoints)");
    server.run_until(&STOP_REQUESTED).map_err(|e| e.to_string())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    let mut config = RouterConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            _ if ops_flag(&mut config.ops, args, &mut i)? => {}
            "--backends" => {
                config.cluster.backends = flag_value(args, &mut i, "--backends", |s| {
                    let list: Vec<String> = s
                        .split(',')
                        .map(str::trim)
                        .filter(|a| !a.is_empty())
                        .map(str::to_string)
                        .collect();
                    (!list.is_empty()).then_some(list)
                })?
            }
            "--probe-interval-ms" => {
                config.cluster.probe_interval_ms =
                    flag_value(args, &mut i, "--probe-interval-ms", |s| s.parse().ok())?
            }
            "--probe-timeout-ms" => {
                config.cluster.probe_timeout_ms =
                    flag_value(args, &mut i, "--probe-timeout-ms", |s| s.parse().ok())?
            }
            "--trip-after" => {
                config.cluster.trip_after =
                    flag_value(args, &mut i, "--trip-after", |s| s.parse().ok())?
            }
            "--backend-timeout-ms" => {
                config.backend_timeout_ms =
                    flag_value(args, &mut i, "--backend-timeout-ms", |s| s.parse().ok())?
            }
            "--retries" => {
                config.cluster.retry =
                    RetryPolicy::with_retries(flag_value(args, &mut i, "--retries", {
                        |s| s.parse().ok()
                    })?)
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
        i += 1;
    }
    if config.cluster.backends.is_empty() {
        return Err("route requires --backends host:port[,host:port...]".into());
    }
    install_stop_signal();
    let router = Router::bind(config).map_err(|e| format!("bind failed: {e}"))?;
    let addr = router.local_addr().map_err(|e| e.to_string())?;
    eprintln!("qaoa-service routing on http://{addr} (GET / lists the endpoints)");
    router.run_until(&STOP_REQUESTED).map_err(|e| e.to_string())
}

/// Writes a small mixed-problem job file, used by the CI smoke test and as a starting
/// point for hand-written specs.
fn cmd_example_jobs(args: &[String]) -> Result<(), String> {
    let mut path: Option<PathBuf> = None;
    let mut count = 3usize;
    let mut n = 8usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--count" => count = flag_value(args, &mut i, "--count", |s| s.parse().ok())?,
            "--n" => n = flag_value(args, &mut i, "--n", |s| s.parse().ok())?,
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
        i += 1;
    }
    let path = path.ok_or("example-jobs requires an output path")?;
    let jobs = example_jobs(count, n);
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&JobFile { jobs }).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {count} example jobs to {}", path.display());
    Ok(())
}

/// A deterministic mixed workload cycling through the paper's problem/mixer pairs.
fn example_jobs(count: usize, n: usize) -> Vec<JobSpec> {
    (0..count)
        .map(|i| {
            let instance = (i / 4) as u64;
            let (problem, mixer) = match i % 4 {
                0 => (
                    ProblemSpec::MaxCutGnp { n, instance },
                    MixerSpec::TransverseField,
                ),
                1 => (
                    ProblemSpec::KSatRandom {
                        n,
                        k: 3,
                        density: 6.0,
                        instance,
                    },
                    MixerSpec::Grover,
                ),
                2 => (
                    ProblemSpec::DensestKSubgraphGnp {
                        n,
                        k: n / 2,
                        instance,
                    },
                    MixerSpec::Clique,
                ),
                _ => (
                    ProblemSpec::MaxKVertexCoverGnp {
                        n,
                        k: n / 2,
                        instance,
                    },
                    MixerSpec::Ring,
                ),
            };
            JobSpec {
                id: format!("example-{i}"),
                problem,
                mixer,
                p: 1 + (i % 2),
                optimizer: OptimizerSpec::BasinHopping {
                    n_hops: 3,
                    step_size: 0.8,
                    temperature: 1.0,
                },
                seed: 1000 + i as u64,
                sampling: None,
                timeout_ms: None,
            }
        })
        .collect()
}
