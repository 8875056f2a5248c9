//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --service-bin <path to release qaoa-service> --work-dir <dir> [--tiny]
//! ```
//!
//! It launches the real `qaoa-service` processes, drives one seeded workload
//! (see `workloads.rs`) from this process with at most two threads and two open
//! connections, checks every result with the oracle outside the timed window,
//! and prints informational `#` lines followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer breakdown.
//!
//! End-to-end metrics:
//! * `setup_s` — median over repeated set-ups in the run of the time from
//!   process launch until the first timed job can be sent (cluster up, ready,
//!   instances placed and warmed; for batch, a one-job batch start to exit).
//! * `jobs_per_s` — completed, oracle-passing jobs per second of the window
//!   (for batch, over the makespans of its back-to-back job files).
//! * `job_latency_p50_ms`, `job_latency_tail_ms` — as the client sees a job:
//!   from the scheduled send (open loop) or the submit (closed loop) until the
//!   result fetch returns; for batch, from handing the job file to a new batch
//!   process until the job's line is in its results journal.  The tail is the
//!   highest percentile with at least ten samples beyond it (printed with its
//!   sample count).
//! * `cpu_s_per_job` — user plus system CPU of every service process over the
//!   window, per completed job.
//! * `peak_rss_mb` — highest peak resident set of any service process.
//!
//! Failed, rejected, shed, timed-out and oracle-rejected jobs are counted in
//! `failed`; a run with any of them reports `"correct": false`.

mod layers;
mod oracle;
mod procs;
mod runs;
mod stats;
mod workloads;

use runs::JobRecord;
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Sizes, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    service_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("{flag} is required"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    Ok(Args {
        workload: Workload::parse(value("--workload")?).ok_or("unknown --workload")?,
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        tiny: argv.iter().any(|a| a == "--tiny"),
        service_bin: PathBuf::from(value("--service-bin")?),
        work_dir: PathBuf::from(value("--work-dir")?),
    })
}

/// The overrides the service processes run without; removed here too, so the
/// stamp and the standalone layer timings describe the same defaults.
fn clear_overrides() {
    for (key, _) in std::env::vars_os() {
        let name = key.to_string_lossy();
        if name.starts_with("JULIQAOA_") || name == "RAYON_NUM_THREADS" {
            std::env::remove_var(&key);
        }
    }
}

fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--tags", "--always", "--dirty"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::Num(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn run(args: &Args) -> Result<String, String> {
    clear_overrides();
    let sizes = if args.tiny {
        Sizes::tiny()
    } else {
        Sizes::full()
    };
    let wl = args.workload;
    let dir = runs::fresh_dir(&args.work_dir, wl.name())?;
    let measured = match wl {
        Workload::DickeColdBatch => {
            runs::run_batch(&args.service_bin, &dir, args.seed, args.seconds, &sizes)
        }
        _ => runs::run_http(
            &args.service_bin,
            &dir,
            wl,
            args.seed,
            args.seconds,
            &sizes,
            args.trace,
        ),
    };
    let result = measured.and_then(|m| report(args, &sizes, &dir, m));
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn report(
    args: &Args,
    sizes: &Sizes,
    dir: &std::path::Path,
    m: runs::Measured,
) -> Result<String, String> {
    let wl = args.workload;
    let mut info = vec![format!(
        "stamp: workload={} seed={} nproc={} git={} service_git={} par_threshold={} prefix_budget={}",
        wl.name(),
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_describe(),
        m.service_git,
        juliqaoa_linalg::par_threshold(),
        juliqaoa_core::prefix::default_prefix_budget(),
    )];

    // The oracle, outside the timed window.
    let mut refs = oracle::Reference::default();
    let mut rejected = Vec::new();
    let done: Vec<&JobRecord> = m
        .jobs
        .iter()
        .filter(|r| match (&r.result, &r.error) {
            (Some(result), None) => match oracle::check(&r.spec, result, &mut refs) {
                Ok(()) => true,
                Err(e) => {
                    rejected.push(format!("{}: oracle: {e}", r.spec.id));
                    false
                }
            },
            (_, error) => {
                rejected.push(format!(
                    "{}: {}",
                    r.spec.id,
                    error.as_deref().unwrap_or("no result")
                ));
                false
            }
        })
        .collect();
    let attempted = m.jobs.len();
    let failed = attempted - done.len();
    info.extend(rejected.iter().take(5).map(|e| format!("failed {e}")));
    info.push(format!(
        "failed_fraction {} ({failed} of {attempted}); result digest {} over the \
         oracle-passing jobs (information only)",
        failed as f64 / attempted.max(1) as f64,
        oracle::digest(done.iter().filter_map(|r| r.result.as_ref())),
    ));
    if done.is_empty() {
        return Err(format!("no job completed: {}", rejected.join("; ")));
    }

    let latency_ms: Vec<f64> = done
        .iter()
        .map(|r| match wl {
            Workload::MaxcutTfHot => (r.fetched_s - r.due_s) * 1e3,
            _ => (r.fetched_s - r.sent_s) * 1e3,
        })
        .collect();
    let (tail_pct, tail_ms) = stats::tail(&latency_ms);
    info.push(format!(
        "latency over {} jobs: p50 {:.1} ms, tail p{tail_pct} {tail_ms:.1} ms; window {:.2} s; setups {:?} s",
        latency_ms.len(),
        stats::median(&latency_ms),
        m.window_s,
        m.setup_s,
    ));

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        layers::per_layer(wl, args.seed, sizes, &m, &done, &mut refs, dir, &mut info)?
    } else {
        let completed = done.len() as f64;
        vec![
            ("setup_s", stats::median(&m.setup_s), "s"),
            ("jobs_per_s", completed / m.window_s, "1/s"),
            ("job_latency_p50_ms", stats::median(&latency_ms), "ms"),
            ("job_latency_tail_ms", tail_ms, "ms"),
            ("cpu_s_per_job", m.cpu_s / completed, "s"),
            ("peak_rss_mb", m.peak_rss_mb, "MB"),
        ]
    };
    for line in &info {
        println!("# {line}");
    }
    let out = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(attempted as u64)),
        ("failed".into(), Value::UInt(failed as u64)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .into_iter()
                    .map(|(n, v, u)| (n.to_string(), metric(v, u)))
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string(&out).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
