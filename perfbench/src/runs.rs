//! The load generators: the route + serve cluster driven over HTTP (open or closed
//! loop), and `qaoa-service batch` driven with job files.  Every timestamp is
//! taken by the benchmark itself, in seconds from the start of the timed window.

use crate::procs::{self, http, http_ok, Service};
use crate::stats::Scrape;
use crate::workloads::{self, Sizes, Workload};
use juliqaoa_service::{JobFile, JobResult, JobSpec, JobStatusBody, MetricsBody};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Times the set-up is repeated in one run; `setup_s` is the median.
const HTTP_SETUPS: usize = 3;
const BATCH_SETUPS: usize = 9;
/// Pause between two sweeps of status polls over the outstanding jobs.
const POLL: Duration = Duration::from_millis(10);
/// Jobs kept outstanding by the closed loop: one per backend worker.
const CLOSED_LOOP_DEPTH: usize = 2;
/// Longest the benchmark waits for outstanding jobs after the window closes.
const DRAIN_LIMIT_S: f64 = 60.0;

/// One job as the benchmark saw it.
pub struct JobRecord {
    pub spec: JobSpec,
    /// When the send was due: the schedule slot (open loop) or the moment the
    /// previous job in the slot finished (closed loop).
    pub due_s: f64,
    /// When the submit (or the batch process spawn) started.
    pub sent_s: f64,
    /// When the submit returned.
    pub acked_s: f64,
    /// The last status poll that still saw the job unfinished.
    pub pending_poll_s: f64,
    /// The poll that first saw the job finished (for batch: the poll of the
    /// results file that first found its line).
    pub seen_s: f64,
    /// When the result fetch returned.
    pub fetched_s: f64,
    pub result: Option<JobResult>,
    pub error: Option<String>,
}

impl JobRecord {
    fn new(spec: JobSpec, due_s: f64, sent_s: f64) -> JobRecord {
        JobRecord {
            spec,
            due_s,
            sent_s,
            acked_s: sent_s,
            pending_poll_s: sent_s,
            seen_s: 0.0,
            fetched_s: 0.0,
            result: None,
            error: None,
        }
    }

    fn open(&self) -> bool {
        self.result.is_none() && self.error.is_none()
    }
}

/// Counters of one service process at the window edges (traced runs only).
pub struct ProcessScrapes {
    pub metrics: (Scrape, Scrape),
    /// `jobs_submitted` from `/stats`, backends only.
    pub jobs_submitted: f64,
}

/// Everything one run measured.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub window_s: f64,
    pub jobs: Vec<JobRecord>,
    /// User plus system CPU of every service process over the window.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Backend scrapes (traced HTTP runs).
    pub backends: Vec<ProcessScrapes>,
    /// Router scrape (traced HTTP runs).
    pub router: Option<(Scrape, Scrape)>,
    /// Wall time the client spent on trace-only work inside the window.
    pub trace_work_s: f64,
    /// Batch rounds as `(spawn, exit)` times.
    pub rounds: Vec<(f64, f64)>,
    /// `GET /version` of a service process (or the batch binary's build).
    pub service_git: String,
}

fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("benchmark values serialise")
}

/// Route tier in front of two single-worker serve backends, journaling.
struct Cluster {
    router: Service,
    backends: Vec<Service>,
}

/// Fixed local ports for the two backends and the router.  The router places
/// jobs by hashing backend addresses, so fixed addresses make the placement,
/// and with it the instance set a seed selects, the same on every run.
const PORTS: [u16; 3] = [47311, 47312, 47313];

impl Cluster {
    fn start(bin: &Path, dir: &Path) -> Result<Cluster, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let backends = (0..2)
            .map(|k| {
                let out = dir.join(format!("journal-{k}.jsonl"));
                let args = ["serve", "--workers", "1", "--out"].map(String::from);
                let mut args = args.to_vec();
                args.push(out.display().to_string());
                start_on(bin, &args, PORTS[k], dir.join(format!("serve-{k}.log")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let list = backends
            .iter()
            .map(|b| b.addr.as_str())
            .collect::<Vec<_>>()
            .join(",");
        let router = start_on(
            bin,
            &["route".into(), "--backends".into(), list],
            PORTS[2],
            dir.join("route.log"),
        )?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while http(&router.addr, "GET", "/readyz", None).map(|r| r.0) != Ok(200) {
            if Instant::now() > deadline {
                return Err("router never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(Cluster { router, backends })
    }

    fn processes(&self) -> impl Iterator<Item = &Service> {
        std::iter::once(&self.router).chain(&self.backends)
    }

    fn shutdown(self) {
        // Router first, so it stops probing backends that are going away.
        self.router.shutdown();
        self.backends.into_iter().for_each(Service::shutdown);
    }
}

/// Starts a service on `port`, or on any free port if that one is taken.
fn start_on(bin: &Path, args: &[String], port: u16, log: PathBuf) -> Result<Service, String> {
    Service::start(bin, args, &format!("127.0.0.1:{port}"), log.clone()).or_else(|e| {
        eprintln!("perfbench: port {port} unavailable ({e}); using a free port");
        Service::start(bin, args, "127.0.0.1:0", log)
    })
}

/// Refuses a debug build of the service and returns its `git` stamp.
fn release_build(addr: &str) -> Result<String, String> {
    let body = http_ok(addr, "GET", "/version", None)?;
    let v: serde::Value = serde_json::from_str(&body).map_err(|e| e.to_string())?;
    match v.get_field("profile").and_then(serde::Value::as_str) {
        Some("release") => {}
        other => {
            return Err(format!(
                "service at {addr} is a {other:?} build; need release"
            ))
        }
    }
    Ok(v.get_field("git")
        .and_then(serde::Value::as_str)
        .unwrap_or("none")
        .to_string())
}

/// Submits and waits for a cheap probe job per candidate instance until every
/// backend owns its share of instances, asking each backend directly which
/// one the router placed the probe on.  The probes also warm each instance's
/// cache entry.  Returns the instances interleaved across backends.
fn place(c: &Cluster, seed: u64, sizes: &Sizes, wl: Workload) -> Result<Vec<u64>, String> {
    const CHUNK: u64 = 8;
    let per = match wl {
        Workload::MaxcutTfHot => sizes.hot_instances_per_backend,
        _ => sizes.grid_instances_per_backend,
    };
    let mut owned: Vec<Vec<u64>> = vec![Vec::new(); c.backends.len()];
    // Probing a fixed number of candidates (more only in the rare draw that
    // leaves a backend short) keeps the warmed caches, and so the backends'
    // memory and the set-up time, the same size whatever the seed.
    let floor = (4 * per).max(24) as u64;
    let mut next = 0u64;
    while next < floor || owned.iter().any(|o| o.len() < per) {
        if next >= 256 {
            return Err("placement: 256 candidates did not fill every backend".into());
        }
        let chunk: Vec<(u64, String)> = (next..next + CHUNK)
            .map(|i| (workloads::candidate_instance(seed, i), format!("probe-{i}")))
            .collect();
        next += CHUNK;
        for (instance, id) in &chunk {
            let (problem, mixer) = match wl {
                Workload::MaxcutTfHot => (
                    workloads::maxcut_problem(sizes, *instance),
                    juliqaoa_service::MixerSpec::TransverseField,
                ),
                _ => (
                    workloads::sat_problem(sizes, *instance),
                    juliqaoa_service::MixerSpec::Grover,
                ),
            };
            let spec = workloads::probe_job(id.clone(), problem, mixer);
            http_ok(&c.router.addr, "POST", "/jobs", Some(&json(&spec)))?;
        }
        for (instance, id) in &chunk {
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                let body = http_ok(&c.router.addr, "GET", &format!("/jobs/{id}"), None)?;
                let status: JobStatusBody =
                    serde_json::from_str(&body).map_err(|e| e.to_string())?;
                match status.status.as_str() {
                    "done" => break,
                    "queued" | "running" if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2))
                    }
                    other => return Err(format!("probe {id} ended {other}")),
                }
            }
            let owner = c
                .backends
                .iter()
                .position(|b| {
                    http(&b.addr, "GET", &format!("/jobs/{id}"), None).map(|r| r.0) == Ok(200)
                })
                .ok_or_else(|| format!("no backend holds probe {id}"))?;
            if owned[owner].len() < per {
                owned[owner].push(*instance);
            }
        }
    }
    Ok((0..per)
        .flat_map(|i| owned.iter().map(move |o| o[i]))
        .collect())
}

/// Polls every open job once: status, then the result of finished ones.
fn poll_sweep(router: &str, jobs: &Mutex<Vec<JobRecord>>, start: Instant) {
    let open: Vec<(usize, String)> = {
        let jobs = jobs.lock().expect("job list lock");
        jobs.iter()
            .enumerate()
            .filter(|(_, r)| r.open())
            .map(|(i, r)| (i, r.spec.id.clone()))
            .collect()
    };
    for (i, id) in open {
        let polled = http_ok(router, "GET", &format!("/jobs/{id}"), None)
            .and_then(|b| serde_json::from_str::<JobStatusBody>(&b).map_err(|e| e.to_string()));
        let now = since(start);
        let outcome = match polled {
            Ok(s) if s.status == "queued" || s.status == "running" => None,
            Ok(s) if s.status == "done" => Some(
                http_ok(router, "GET", &format!("/jobs/{id}/result"), None)
                    .and_then(|b| serde_json::from_str::<JobResult>(&b).map_err(|e| e.to_string())),
            ),
            Ok(s) => Some(Err(format!("job ended {}", s.status))),
            Err(e) => Some(Err(e)),
        };
        let mut jobs = jobs.lock().expect("job list lock");
        let record = &mut jobs[i];
        match outcome {
            None => record.pending_poll_s = now,
            Some(fetched) => {
                record.seen_s = now;
                record.fetched_s = since(start);
                match fetched {
                    Ok(result) => record.result = Some(result),
                    Err(e) => record.error = Some(e),
                }
            }
        }
    }
}

/// The job list once the loop ends; jobs still open failed to finish in time.
fn unfinished_fail(jobs: Mutex<Vec<JobRecord>>) -> Vec<JobRecord> {
    let mut jobs = jobs.into_inner().expect("job list lock");
    for r in jobs.iter_mut().filter(|r| r.open()) {
        r.error = Some("still unfinished when the drain limit passed".into());
    }
    jobs
}

fn submit(router: &str, record: &mut JobRecord, start: Instant) {
    if let Err(e) = http_ok(router, "POST", "/jobs", Some(&json(&record.spec))) {
        record.error = Some(e);
    }
    record.acked_s = since(start);
}

/// Open loop: one thread sends on the seeded schedule while this one polls.
fn open_loop(
    router: &str,
    schedule: &[f64],
    make: impl Fn(u64) -> JobSpec + Sync,
    start: Instant,
) -> Vec<JobRecord> {
    let jobs = Mutex::new(Vec::new());
    let sender_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for (j, &due) in schedule.iter().enumerate() {
                let wait = due - since(start);
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                let mut record = JobRecord::new(make(j as u64), due, since(start));
                submit(router, &mut record, start);
                jobs.lock().expect("job list lock").push(record);
            }
            sender_done.store(true, Ordering::SeqCst);
        });
        let limit = schedule.last().copied().unwrap_or(0.0) + DRAIN_LIMIT_S;
        loop {
            let done = sender_done.load(Ordering::SeqCst);
            poll_sweep(router, &jobs, start);
            let open = jobs
                .lock()
                .expect("job list lock")
                .iter()
                .any(JobRecord::open);
            if done && !open {
                break;
            }
            if since(start) > limit {
                break;
            }
            std::thread::sleep(POLL);
        }
    });
    unfinished_fail(jobs)
}

/// Closed loop: `CLOSED_LOOP_DEPTH` jobs outstanding; each finished job's slot
/// is refilled at once until the window closes.
fn closed_loop(
    router: &str,
    seconds: f64,
    make: impl Fn(u64) -> JobSpec,
    start: Instant,
) -> Vec<JobRecord> {
    let jobs = Mutex::new(Vec::new());
    let mut next = 0u64;
    let mut send = |due: f64, jobs: &Mutex<Vec<JobRecord>>| {
        let mut record = JobRecord::new(make(next), due, since(start));
        next += 1;
        submit(router, &mut record, start);
        jobs.lock().expect("job list lock").push(record);
    };
    for _ in 0..CLOSED_LOOP_DEPTH {
        send(0.0, &jobs);
    }
    // Jobs whose slot has been handed on already.
    let mut refilled: Vec<bool> = Vec::new();
    loop {
        poll_sweep(router, &jobs, start);
        let freed: Vec<f64> = {
            let list = jobs.lock().expect("job list lock");
            refilled.resize(list.len(), false);
            list.iter()
                .zip(refilled.iter_mut())
                .filter(|(r, done)| !r.open() && !**done)
                .map(|(r, done)| {
                    *done = true;
                    r.fetched_s.max(r.acked_s)
                })
                .collect()
        };
        for due in freed {
            if since(start) < seconds {
                send(due, &jobs);
            }
        }
        let open = jobs
            .lock()
            .expect("job list lock")
            .iter()
            .any(JobRecord::open);
        if !open || since(start) > seconds + DRAIN_LIMIT_S {
            break;
        }
        std::thread::sleep(POLL);
    }
    unfinished_fail(jobs)
}

fn scrape_all(c: &Cluster) -> Result<(Scrape, Vec<(Scrape, f64)>), String> {
    let router = Scrape::parse(&http_ok(&c.router.addr, "GET", "/metrics", None)?);
    let backends = c
        .backends
        .iter()
        .map(|b| {
            let metrics = Scrape::parse(&http_ok(&b.addr, "GET", "/metrics", None)?);
            let stats: MetricsBody =
                serde_json::from_str(&http_ok(&b.addr, "GET", "/stats", None)?)
                    .map_err(|e| e.to_string())?;
            Ok((metrics, stats.jobs_submitted as f64))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((router, backends))
}

/// `maxcut-tf-hot` and `sampled-grid`: the cluster over HTTP.
pub fn run_http(
    bin: &Path,
    dir: &Path,
    wl: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    trace: bool,
) -> Result<Measured, String> {
    let mut setup_s = Vec::new();
    let mut cluster: Option<Cluster> = None;
    let mut instances = Vec::new();
    for attempt in 0..HTTP_SETUPS {
        if let Some(previous) = cluster.take() {
            previous.shutdown();
        }
        let started = Instant::now();
        let c = Cluster::start(bin, &dir.join(format!("cluster-{attempt}")))?;
        instances = place(&c, seed, sizes, wl)?;
        setup_s.push(since(started));
        cluster = Some(c);
    }
    let c = cluster.expect("at least one set-up");
    let mut service_git = String::new();
    for p in c.processes() {
        service_git = release_build(&p.addr)?;
    }

    let start = Instant::now();
    let before = if trace { Some(scrape_all(&c)?) } else { None };
    let mut trace_work_s = since(start);
    let cpu_before: Vec<f64> = c.processes().map(|p| procs::cpu_s(p.pid())).collect();
    let jobs = match wl {
        Workload::MaxcutTfHot => {
            let schedule = workloads::arrival_schedule(seed, sizes.hot_rate_per_s, seconds);
            open_loop(
                &c.router.addr,
                &schedule,
                |j| workloads::hot_job(seed, &instances, sizes, j),
                start,
            )
        }
        _ => closed_loop(
            &c.router.addr,
            seconds,
            |j| workloads::grid_job(seed, &instances, sizes, j),
            start,
        ),
    };
    let window_s = jobs
        .iter()
        .map(|r| r.fetched_s.max(r.acked_s))
        .fold(0.0, f64::max);
    let cpu_s: f64 = c
        .processes()
        .zip(cpu_before)
        .map(|(p, before)| procs::cpu_s(p.pid()) - before)
        .sum();
    let (mut backends, mut router) = (Vec::new(), None);
    if let Some((router_before, backends_before)) = before {
        let scraped = Instant::now();
        let (router_after, backends_after) = scrape_all(&c)?;
        trace_work_s += since(scraped);
        router = Some((router_before, router_after));
        backends = backends_before
            .into_iter()
            .zip(backends_after)
            .map(|((m0, j0), (m1, j1))| ProcessScrapes {
                metrics: (m0, m1),
                jobs_submitted: j1 - j0,
            })
            .collect();
    }
    let peak_rss_mb = c
        .processes()
        .map(|p| procs::peak_rss_mb(p.pid()))
        .fold(0.0, f64::max);
    c.shutdown();
    Ok(Measured {
        setup_s,
        window_s,
        jobs,
        cpu_s,
        peak_rss_mb,
        backends,
        router,
        trace_work_s,
        rounds: Vec::new(),
        service_git,
    })
}

/// Runs one `qaoa-service batch` over `jobs`, polling its results file and
/// memory every few milliseconds.  Returns the records and the peak RSS.
fn batch_process(
    bin: &Path,
    file: &Path,
    out: &Path,
    jobs: Vec<JobSpec>,
    due: f64,
    start: Instant,
) -> Result<(Vec<JobRecord>, f64), String> {
    std::fs::write(file, json(&JobFile { jobs: jobs.clone() })).map_err(|e| e.to_string())?;
    let sent = since(start);
    let mut records: Vec<JobRecord> = jobs
        .into_iter()
        .map(|s| JobRecord::new(s, due, sent))
        .collect();
    let mut child = procs::service_command(bin)
        .arg("batch")
        .arg(file)
        .arg("--out")
        .arg(out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning batch: {e}"))?;
    let mut peak = 0.0f64;
    let mut last_poll = sent;
    let read_lines = |records: &mut Vec<JobRecord>, last_poll: f64| {
        let now = since(start);
        let text = std::fs::read_to_string(out).unwrap_or_default();
        // Only complete lines: the journal flushes one whole line per job.
        for line in text.split_inclusive('\n').filter(|l| l.ends_with('\n')) {
            let Ok(result) = serde_json::from_str::<JobResult>(line.trim()) else {
                continue;
            };
            if let Some(r) = records
                .iter_mut()
                .find(|r| r.spec.id == result.id && r.open())
            {
                r.pending_poll_s = last_poll;
                r.seen_s = now;
                r.fetched_s = now;
                r.result = Some(result);
            }
        }
        now
    };
    let status = loop {
        peak = peak.max(procs::peak_rss_mb(child.id()));
        last_poll = read_lines(&mut records, last_poll);
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if since(start) - sent < 150.0 => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("batch ran for more than 150 s".into());
            }
            Err(e) => return Err(e.to_string()),
        }
    };
    read_lines(&mut records, last_poll);
    for r in records.iter_mut().filter(|r| r.open()) {
        r.error = Some(format!("no result line (batch exited {status})"));
    }
    Ok((records, peak))
}

/// A one-job file: the batch tier's fixed cost, process start to exit.
fn batch_setup(bin: &Path, dir: &Path, attempt: usize) -> Result<f64, String> {
    let spec = workloads::probe_job(
        format!("setup-{attempt}"),
        juliqaoa_service::ProblemSpec::MaxCutGnp {
            n: 4,
            instance: attempt as u64,
        },
        juliqaoa_service::MixerSpec::TransverseField,
    );
    let start = Instant::now();
    let (records, _) = batch_process(
        bin,
        &dir.join(format!("setup-{attempt}.json")),
        &dir.join(format!("setup-{attempt}.jsonl")),
        vec![spec],
        0.0,
        start,
    )?;
    match &records[0].error {
        Some(e) => Err(e.clone()),
        None => Ok(since(start)),
    }
}

/// `dicke-cold-batch`: rounds of fresh-instance job files through batch until
/// the window closes.
pub fn run_batch(
    bin: &Path,
    dir: &Path,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
) -> Result<Measured, String> {
    let setup_s = (0..BATCH_SETUPS)
        .map(|attempt| batch_setup(bin, dir, attempt))
        .collect::<Result<Vec<_>, _>>()?;
    // Batch has no HTTP surface: ask a short-lived serve process of the same
    // binary for its build profile.
    let probe = Service::start(
        bin,
        &["serve".into(), "--workers".into(), "1".into()],
        "127.0.0.1:0",
        dir.join("version.log"),
    )?;
    let service_git = release_build(&probe.addr);
    probe.shutdown();
    let service_git = service_git?;
    let start = Instant::now();
    let cpu_before = procs::children_cpu_s();
    let (mut jobs, mut rounds, mut peak_rss_mb) = (Vec::new(), Vec::new(), 0.0f64);
    let mut due = 0.0;
    for round in 0.. {
        if round > 0 && since(start) >= seconds {
            break;
        }
        let (records, peak) = batch_process(
            bin,
            &dir.join(format!("round-{round}.json")),
            &dir.join(format!("round-{round}.jsonl")),
            workloads::batch_round(seed, sizes, round),
            due,
            start,
        )?;
        let spawned = records[0].sent_s;
        due = since(start);
        rounds.push((spawned, due));
        peak_rss_mb = peak_rss_mb.max(peak);
        jobs.extend(records);
    }
    Ok(Measured {
        setup_s,
        window_s: since(start),
        jobs,
        cpu_s: procs::children_cpu_s() - cpu_before,
        peak_rss_mb,
        backends: Vec::new(),
        router: None,
        trace_work_s: 0.0,
        rounds,
        service_git,
    })
}

/// A fresh, empty working directory for one run.
pub fn fresh_dir(root: &Path, tag: &str) -> Result<PathBuf, String> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = root.join(format!("{tag}-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
