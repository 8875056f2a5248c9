//! Deterministic fault injection: a seeded, replayable chaos plan.
//!
//! A [`FaultPlan`] is a small declarative plan covering the failure surface the
//! service actually has:
//!
//! * **`panic_jobs`** — panic a named job mid-run, for its first `times` attempts
//!   (so `times: 1` + a retry policy exercises *recovery*, not just isolation, and
//!   `times: 4294967295` panics every attempt — the CI panic-isolation smoke);
//! * **`fail_writes`** — inject an I/O error on the `k`-th journal write (0-based,
//!   counted process-wide), exercising the batch writer's retry path;
//! * **`torn_write_at`** — on the `k`-th journal write, write only a prefix of the
//!   line (no newline), force it to disk and abort the process — a deterministic
//!   stand-in for `SIGKILL` landing mid-`write(2)`, used by the kill-mid-batch CI
//!   smoke to manufacture a torn trailing line at a seeded point;
//! * **`prep_delay_ms`** — stall every instance preparation, widening race windows
//!   for single-flight and queue-deadline tests;
//! * **`kill_after_jobs`** — abort the whole process once the `k`-th job reaches a
//!   terminal state (counted process-wide), the cluster chaos suite's way of killing
//!   a backend mid-batch at a deterministic point;
//! * **`probe_blackhole`** — drop `/healthz` and `/readyz` connections without
//!   answering, so the router's health prober sees timeouts rather than refusals
//!   (the failure mode of a wedged, not dead, backend);
//! * **`slow_response_ms`** — stall every HTTP response, widening the window the
//!   router's hedged reads are designed to cover;
//! * **`seed`** — labels the plan (folded into nothing at runtime yet, but recorded
//!   so two chaos runs can assert they replayed the same plan).
//!
//! Every trigger is counter-based, never clock- or scheduling-based, so a plan
//! replays bit-identically at one worker; at several workers the *set* of injected
//! faults is fixed even when interleaving varies.
//!
//! Plans load once per process from the `JULIQAOA_FAULT_PLAN` environment variable
//! (inline JSON, or `@path` to a JSON file) — the right hook for spawned-process CI
//! smokes — or are installed in-process by tests via [`install`]/[`clear`], which
//! must be used instead of mutating the environment (`set_var` racing `getenv` is
//! undefined behaviour on glibc).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

/// Panic a named job for its first `times` attempts.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PanicFault {
    /// The job id to hit.
    pub id: String,
    /// How many attempts panic before the job is allowed to succeed
    /// (`u32::MAX` ⇒ every attempt: a job that always panics).  Defaults to 1.
    #[serde(default = "one")]
    pub times: u32,
}

fn one() -> u32 {
    1
}

/// A declarative, seeded set of faults to inject into this process.  Every field
/// is optional on the wire: a missing one takes its [`Default`] value.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultPlan {
    /// Plan label, echoed in logs so reruns can assert they replayed one plan.
    pub seed: u64,
    /// Jobs to panic mid-run.
    pub panic_jobs: Vec<PanicFault>,
    /// 0-based journal-write indices that fail with an injected I/O error.
    pub fail_writes: Vec<u64>,
    /// Journal write at which to write a torn prefix and abort the process.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub torn_write_at: Option<u64>,
    /// Milliseconds to stall every instance preparation.
    pub prep_delay_ms: u64,
    /// Abort the process once this many jobs (counted process-wide) have reached a
    /// terminal state — the deterministic backend-kill for cluster chaos tests.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub kill_after_jobs: Option<u64>,
    /// Drop health-probe connections (`/healthz`, `/readyz`) without responding.
    pub probe_blackhole: bool,
    /// Milliseconds to stall every HTTP response before it is written.
    pub slow_response_ms: u64,
}

impl FaultPlan {
    /// Parses a plan from inline JSON or, with a leading `@`, a JSON file path.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let json = match text.strip_prefix('@') {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("reading fault plan {path}: {e}"))?,
            None => text.to_string(),
        };
        serde_json::from_str(&json).map_err(|e| format!("parsing fault plan: {e}"))
    }
}

/// The effect the journal must apply to one write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// Write normally.
    None,
    /// Fail this write with an injected I/O error (the bytes never reach the file).
    IoError,
    /// Write a torn prefix of the line, sync it to disk, then abort the process.
    TornAbort,
}

/// Live injection state: the plan plus its consumption counters.
struct FaultState {
    plan: FaultPlan,
    /// Process-wide journal-write counter (indexes `fail_writes`/`torn_write_at`).
    writes: AtomicU64,
    /// Attempts seen per panic-fault job id.
    attempts: Mutex<HashMap<String, u32>>,
    /// Process-wide terminal-job counter (triggers `kill_after_jobs`).
    jobs_finished: AtomicU64,
}

/// The installed plan, if any.  A `Mutex<Option<Arc<_>>>` (not `OnceLock`) so tests
/// can install and clear plans per-test; the environment is consulted exactly once.
static ACTIVE: Mutex<Option<Arc<FaultState>>> = Mutex::new(None);
static ENV_LOADED: Once = Once::new();

fn active() -> Option<Arc<FaultState>> {
    ENV_LOADED.call_once(|| {
        if let Ok(text) = std::env::var("JULIQAOA_FAULT_PLAN") {
            match FaultPlan::parse(&text) {
                Ok(plan) => {
                    eprintln!(
                        "fault injection: plan seed {} active ({} panic job(s), {} failed write(s){})",
                        plan.seed,
                        plan.panic_jobs.len(),
                        plan.fail_writes.len(),
                        match plan.torn_write_at {
                            Some(k) => format!(", torn abort at write {k}"),
                            None => String::new(),
                        },
                    );
                    install(plan);
                }
                Err(e) => eprintln!("fault injection: ignoring JULIQAOA_FAULT_PLAN: {e}"),
            }
        }
    });
    ACTIVE.lock().expect("fault plan lock poisoned").clone()
}

/// Installs a plan in-process (tests/CI harnesses), replacing any previous one and
/// resetting all consumption counters.
pub fn install(plan: FaultPlan) {
    *ACTIVE.lock().expect("fault plan lock poisoned") = Some(Arc::new(FaultState {
        plan,
        writes: AtomicU64::new(0),
        attempts: Mutex::new(HashMap::new()),
        jobs_finished: AtomicU64::new(0),
    }));
}

/// Removes the installed plan (faults stop firing).
pub fn clear() {
    // Make sure the env var cannot resurrect a plan after an explicit clear.
    ENV_LOADED.call_once(|| {});
    *ACTIVE.lock().expect("fault plan lock poisoned") = None;
}

/// Engine hook: should this attempt of `job_id` panic?  Consumes one `times` charge.
pub fn job_should_panic(job_id: &str) -> bool {
    let Some(state) = active() else { return false };
    let Some(fault) = state.plan.panic_jobs.iter().find(|f| f.id == job_id) else {
        return false;
    };
    let mut attempts = state.attempts.lock().expect("fault attempts lock poisoned");
    let seen = attempts.entry(job_id.to_string()).or_insert(0);
    if *seen < fault.times {
        *seen = seen.saturating_add(1);
        true
    } else {
        false
    }
}

/// Engine hook: stall an instance preparation per the plan (no-op without one).
pub fn delay_prep() {
    if let Some(state) = active() {
        if state.plan.prep_delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(state.plan.prep_delay_ms));
        }
    }
}

/// Serving hook: called once per job that reaches a terminal state.  Aborts the
/// process when the plan's `kill_after_jobs` count is reached — the cluster chaos
/// suite's deterministic stand-in for `SIGKILL` landing on a backend mid-batch.
/// The abort happens *after* the k-th job completed (and its result was journaled
/// or made pollable), so the killed backend's observable state is well-defined.
pub fn maybe_kill_after_job() {
    let Some(state) = active() else { return };
    let Some(kill_at) = state.plan.kill_after_jobs else {
        return;
    };
    let finished = state.jobs_finished.fetch_add(1, Ordering::SeqCst) + 1;
    if finished >= kill_at {
        eprintln!("fault injection: killing process after {finished} finished job(s)");
        std::process::abort();
    }
}

/// Probe hook: should health endpoints (`/healthz`, `/readyz`) drop the connection
/// without answering?  Models a wedged backend whose sockets accept but never reply.
pub fn probe_blackholed() -> bool {
    active().is_some_and(|state| state.plan.probe_blackhole)
}

/// Response hook: stall per the plan's `slow_response_ms` before any HTTP response
/// is written (no-op without a plan).
pub fn delay_response() {
    if let Some(state) = active() {
        if state.plan.slow_response_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                state.plan.slow_response_ms,
            ));
        }
    }
}

/// Journal hook: the fault (if any) to apply to the next write.  Each call consumes
/// one write index, matching the journal's own append numbering.
pub fn next_write_fault() -> WriteFault {
    let Some(state) = active() else {
        return WriteFault::None;
    };
    let index = state.writes.fetch_add(1, Ordering::SeqCst);
    if state.plan.torn_write_at == Some(index) {
        WriteFault::TornAbort
    } else if state.plan.fail_writes.contains(&index) {
        WriteFault::IoError
    } else {
        WriteFault::None
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serialises the unit tests that install a plan: they share one test
    /// binary, and each [`install`] replaces the process-global plan.
    pub(crate) static PLAN_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn plans_round_trip_and_tolerate_missing_fields() {
        let plan = FaultPlan {
            seed: 42,
            panic_jobs: vec![PanicFault {
                id: "boom".into(),
                times: 2,
            }],
            fail_writes: vec![0, 3],
            torn_write_at: Some(5),
            prep_delay_ms: 10,
            kill_after_jobs: Some(4),
            probe_blackhole: true,
            slow_response_ms: 25,
        };
        let json = serde_json::to_string(&plan).unwrap();
        assert_eq!(FaultPlan::parse(&json).unwrap(), plan);
        // An empty object is the empty plan; `times` defaults to 1.
        assert_eq!(FaultPlan::parse("{}").unwrap(), FaultPlan::default());
        let sparse = FaultPlan::parse(r#"{"panic_jobs": [{"id": "x"}]}"#).unwrap();
        assert_eq!(
            sparse.panic_jobs,
            vec![PanicFault {
                id: "x".into(),
                times: 1
            }]
        );
        assert!(FaultPlan::parse("[1, 2]").is_err());
        assert!(FaultPlan::parse("@/no/such/fault_plan.json").is_err());
        // The sparse plans CI and the cluster chaos suite send.
        let sparse_plans = [
            (
                r#"{"panic_jobs":[{"id":"ci-panic","times":4294967295}]}"#,
                FaultPlan {
                    panic_jobs: vec![PanicFault {
                        id: "ci-panic".into(),
                        times: u32::MAX,
                    }],
                    ..FaultPlan::default()
                },
            ),
            (
                r#"{"seed": 1, "torn_write_at": 2}"#,
                FaultPlan {
                    seed: 1,
                    torn_write_at: Some(2),
                    ..FaultPlan::default()
                },
            ),
            (
                r#"{"kill_after_jobs": 2}"#,
                FaultPlan {
                    kill_after_jobs: Some(2),
                    ..FaultPlan::default()
                },
            ),
            (
                r#"{"slow_response_ms": 300}"#,
                FaultPlan {
                    slow_response_ms: 300,
                    ..FaultPlan::default()
                },
            ),
            (
                r#"{"probe_blackhole": true}"#,
                FaultPlan {
                    probe_blackhole: true,
                    ..FaultPlan::default()
                },
            ),
        ];
        for (json, expected) in sparse_plans {
            assert_eq!(FaultPlan::parse(json).unwrap(), expected, "{json}");
        }
    }

    // The consumption counters are process-global, so the behavioural tests
    // (install → faults fire in order → clear) live in the serial integration
    // suite `tests/fault_injection.rs`, not here where tests run concurrently.
}
