//! Cluster membership: the consistent-hash ring and per-backend health machinery
//! the router routes over.
//!
//! Two concerns live here, both deterministic by construction:
//!
//! * **Placement** ([`HashRing`]): backends own arcs of a 64-bit ring via FNV-hashed
//!   virtual nodes.  A job's routing key (its canonical `InstanceId` hash) maps to
//!   the first vnode clockwise, and [`HashRing::candidates`] returns *every* backend
//!   in ring order from there — the failover sequence is part of placement, not a
//!   runtime coin flip.  Placement depends only on the backend address list, so any
//!   two routers configured with the same `--backends` agree on every route, and a
//!   job's instance keeps hitting the same backend's caches (its instance cache,
//!   single-flight prep and simulator slots become per-shard for free).
//! * **Health** ([`Backend`]): an Up/Degraded/Down state machine driven by probe
//!   and proxy outcomes, with a circuit breaker — `trip_after` consecutive failures
//!   open the circuit (Down), and after a *seeded* cooldown derived from the shared
//!   [`RetryPolicy`] the breaker goes half-open: one probe is allowed through, and
//!   its outcome closes the circuit (Up) or re-opens it with the next backoff step.
//!   Because the cooldown schedule is `RetryPolicy::delay(addr, trip)` — a pure
//!   function of the policy seed, the address and the trip count — two routers with
//!   the same configuration replay identical recovery schedules.
//!
//! Nothing here does I/O: the router owns sockets and feeds outcomes in, which is
//! what makes the state machine unit-testable without a cluster.

use crate::retry::RetryPolicy;
use juliqaoa_problems::Fnv64;
use juliqaoa_telemetry::Counter;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Virtual nodes per backend: enough to spread load within a few percent at 2–16
/// backends while keeping ring construction trivially cheap.
const VNODES_PER_BACKEND: usize = 64;

/// Consistent-hash ring over backend indices.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point, backend index)` sorted by point.
    points: Vec<(u64, usize)>,
    backends: usize,
}

/// Final avalanche mix (the splitmix64 finalizer).  FNV-1a diffuses new bytes
/// into the low bits far faster than the high ones, and ring lookups compare
/// full `u64`s — without this, sequential vnode replicas produce clustered
/// points and growing the cluster reshuffles much more than `1/n` of the
/// keyspace.  Applied to both ring points and lookup keys, so `InstanceId`
/// hashes (themselves FNV outputs) land uniformly too.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl HashRing {
    /// Builds the ring for `addrs` (order defines backend indices).
    pub fn new(addrs: &[String]) -> HashRing {
        let mut points = Vec::with_capacity(addrs.len() * VNODES_PER_BACKEND);
        for (index, addr) in addrs.iter().enumerate() {
            for replica in 0..VNODES_PER_BACKEND {
                let mut h = Fnv64::new();
                h.write_str(addr);
                h.write_u64(replica as u64);
                points.push((mix(h.finish()), index));
            }
        }
        // Ties (astronomically unlikely with FNV-64 over distinct addresses) break
        // by backend index so the ring is still a pure function of the input.
        points.sort_unstable();
        HashRing {
            points,
            backends: addrs.len(),
        }
    }

    /// Number of backends on the ring.
    pub fn len(&self) -> usize {
        self.backends
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.backends == 0
    }

    /// Every backend index in ring order starting from `key`'s successor vnode:
    /// `candidates(key)[0]` is the primary placement, the rest is the deterministic
    /// failover order.  Always returns all backends exactly once.
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.backends);
        if self.points.is_empty() {
            return order;
        }
        let key = mix(key);
        let start = self
            .points
            .partition_point(|&(point, _)| point < key)
            .rem_euclid(self.points.len().max(1))
            % self.points.len();
        for offset in 0..self.points.len() {
            let (_, backend) = self.points[(start + offset) % self.points.len()];
            if !order.contains(&backend) {
                order.push(backend);
                if order.len() == self.backends {
                    break;
                }
            }
        }
        order
    }

    /// The primary backend for `key` (`None` on an empty ring).
    pub fn primary(&self, key: u64) -> Option<usize> {
        self.candidates(key).first().copied()
    }
}

/// Health of one backend as the router sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendState {
    /// Probes and proxied requests are succeeding.
    Up,
    /// Recent failures below the trip threshold: still routable, watched.
    Degraded,
    /// Circuit open: consecutive failures reached `trip_after`.  Not routable
    /// until a half-open probe succeeds.
    Down,
}

impl BackendState {
    /// Stable lowercase name (used in traces and metrics labels).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendState::Up => "up",
            BackendState::Degraded => "degraded",
            BackendState::Down => "down",
        }
    }
}

/// A state transition worth tracing: `(event name, detail)`.
pub type HealthTransition = (&'static str, String);

/// Mutable health fields, guarded by one mutex per backend.
#[derive(Debug)]
struct Health {
    state: BackendState,
    consecutive_failures: u32,
    /// Times the breaker has tripped since start (indexes the cooldown schedule).
    trips: u32,
    /// When the breaker last opened (cooldown reference point).
    down_since: Option<Instant>,
    /// A half-open probe is in flight; further probes hold off until it lands.
    half_open_inflight: bool,
}

/// One backend: its address, circuit-breaker state and observability counters.
#[derive(Debug)]
pub struct Backend {
    /// The backend's `host:port`.
    pub addr: String,
    health: Mutex<Health>,
    /// Health probes attempted.
    pub probes: Counter,
    /// Health probes that failed (timeout, refusal, non-200).
    pub probe_failures: Counter,
    /// Times the circuit breaker tripped this backend Down.
    pub trips_total: Counter,
}

impl Backend {
    fn new(addr: String) -> Backend {
        Backend {
            addr,
            health: Mutex::new(Health {
                state: BackendState::Up,
                consecutive_failures: 0,
                trips: 0,
                down_since: None,
                half_open_inflight: false,
            }),
            probes: Counter::new(),
            probe_failures: Counter::new(),
            trips_total: Counter::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BackendState {
        self.health.lock().expect("backend health lock").state
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.health
            .lock()
            .expect("backend health lock")
            .consecutive_failures
    }

    /// Routable means the circuit is closed (Up or Degraded).
    pub fn is_live(&self) -> bool {
        self.state() != BackendState::Down
    }
}

/// Knobs for cluster health checking and failover pacing.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Backend addresses (`host:port`); order defines ring indices.
    pub backends: Vec<String>,
    /// Milliseconds between health-probe rounds.
    pub probe_interval_ms: u64,
    /// Per-probe timeout in milliseconds.
    pub probe_timeout_ms: u64,
    /// Consecutive failures that trip a backend's circuit breaker Down.
    pub trip_after: u32,
    /// Seeded pacing shared by failover re-routes and half-open cooldowns, so a
    /// chaos run's failover schedule replays exactly.
    pub retry: RetryPolicy,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            backends: Vec::new(),
            probe_interval_ms: 250,
            probe_timeout_ms: 1_000,
            trip_after: 3,
            retry: RetryPolicy {
                max_retries: 3,
                base_delay_ms: 25,
                max_delay_ms: 2_000,
                jitter_seed: 0,
            },
        }
    }
}

/// The ring plus per-backend health, shared by the router's accept loop and its
/// prober thread.
pub struct Cluster {
    ring: HashRing,
    backends: Vec<Backend>,
    config: ClusterConfig,
}

impl Cluster {
    /// Builds the cluster view from its config.
    pub fn new(config: ClusterConfig) -> Cluster {
        Cluster {
            ring: HashRing::new(&config.backends),
            backends: config.backends.iter().cloned().map(Backend::new).collect(),
            config,
        }
    }

    /// The configuration the cluster was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// All backends, ring-index order.
    pub fn backends(&self) -> &[Backend] {
        &self.backends
    }

    /// One backend by ring index.
    pub fn backend(&self, index: usize) -> &Backend {
        &self.backends[index]
    }

    /// Backends currently routable.
    pub fn live_count(&self) -> usize {
        self.backends.iter().filter(|b| b.is_live()).count()
    }

    /// Deterministic candidate order for a routing key (primary first, then the
    /// failover sequence); includes down backends — callers skip them, so a key's
    /// placement does not shift when an unrelated backend flaps.
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        self.ring.candidates(key)
    }

    /// The ring successor of `index` (hedge target), or `None` with fewer than
    /// two backends.
    pub fn successor(&self, index: usize) -> Option<usize> {
        if self.backends.len() < 2 {
            return None;
        }
        Some((index + 1) % self.backends.len())
    }

    /// Records a successful probe or proxied request: failures reset, circuit
    /// closes.  Returns the transition to trace, if one happened.
    pub fn record_success(&self, index: usize) -> Option<HealthTransition> {
        let backend = &self.backends[index];
        let mut h = backend.health.lock().expect("backend health lock");
        h.consecutive_failures = 0;
        h.half_open_inflight = false;
        h.down_since = None;
        if h.state != BackendState::Up {
            let was = h.state;
            h.state = BackendState::Up;
            return Some((
                "backend_up",
                format!("{} recovered from {}", backend.addr, was.as_str()),
            ));
        }
        None
    }

    /// Records a failed probe or proxied request.  Trips the breaker Down once
    /// `trip_after` consecutive failures accumulate; a failure during half-open
    /// re-opens the circuit and advances the cooldown schedule.  Returns the
    /// transition to trace, if one happened.
    pub fn record_failure(&self, index: usize, why: &str) -> Option<HealthTransition> {
        let backend = &self.backends[index];
        let mut h = backend.health.lock().expect("backend health lock");
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        let failures = h.consecutive_failures;
        if h.state == BackendState::Down {
            // A failed half-open probe: stay Down, restart the cooldown clock on
            // the next step of the seeded schedule.
            if h.half_open_inflight {
                h.half_open_inflight = false;
                h.trips = h.trips.saturating_add(1);
                h.down_since = Some(Instant::now());
            }
            return None;
        }
        if failures >= self.config.trip_after.max(1) {
            h.state = BackendState::Down;
            h.trips = h.trips.saturating_add(1);
            h.down_since = Some(Instant::now());
            h.half_open_inflight = false;
            backend.trips_total.inc();
            Some((
                "backend_tripped",
                format!(
                    "{} down after {failures} consecutive failures: {why}",
                    backend.addr
                ),
            ))
        } else {
            let was = h.state;
            h.state = BackendState::Degraded;
            (was == BackendState::Up).then(|| {
                (
                    "backend_degraded",
                    format!(
                        "{} failure {failures}/{}: {why}",
                        backend.addr, self.config.trip_after
                    ),
                )
            })
        }
    }

    /// The seeded cooldown before trip number `trip` allows a half-open probe.
    /// Pure function of `(retry seed, backend addr, trip)` — the recovery schedule
    /// replays exactly across runs and across routers sharing a config.
    pub fn half_open_cooldown(&self, index: usize, trip: u32) -> Duration {
        self.config
            .retry
            .delay(&self.backends[index].addr, trip.min(16))
    }

    /// Whether the prober should probe this backend right now.  Up/Degraded
    /// backends are always probed; a Down backend is probed only when its seeded
    /// cooldown has elapsed (the half-open slot), and only one half-open probe is
    /// outstanding at a time.
    pub fn should_probe(&self, index: usize) -> bool {
        let backend = &self.backends[index];
        let mut h = backend.health.lock().expect("backend health lock");
        if h.state != BackendState::Down {
            return true;
        }
        if h.half_open_inflight {
            return false;
        }
        let cooldown = self.half_open_cooldown(index, h.trips.saturating_sub(1));
        let elapsed = h.down_since.map(|t| t.elapsed()).unwrap_or(Duration::MAX);
        if elapsed >= cooldown {
            h.half_open_inflight = true;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect()
    }

    #[test]
    fn ring_candidates_are_deterministic_complete_and_distinct() {
        let ring = HashRing::new(&addrs(3));
        for key in [0u64, 1, 42, u64::MAX, 0xdead_beef_cafe_f00d] {
            let a = ring.candidates(key);
            let b = ring.candidates(key);
            assert_eq!(a, b, "same key must route identically");
            assert_eq!(a.len(), 3, "all backends appear");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "each backend exactly once");
        }
        // Two rings built from the same address list agree on every route.
        let other = HashRing::new(&addrs(3));
        for key in 0..512u64 {
            let key = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(ring.candidates(key), other.candidates(key));
        }
    }

    #[test]
    fn ring_spreads_keys_across_backends() {
        let ring = HashRing::new(&addrs(3));
        let mut counts = [0usize; 3];
        for key in 0..3000u64 {
            let key = key.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(17);
            counts[ring.primary(key).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 300,
                "backend {i} owns too little of the ring: {counts:?}"
            );
        }
    }

    #[test]
    fn adding_a_backend_moves_only_part_of_the_keyspace() {
        // The consistency property that makes the ring worth its salt: growing the
        // cluster must not reshuffle every placement (that would cold every cache).
        let small = HashRing::new(&addrs(3));
        let big = HashRing::new(&addrs(4));
        let mut moved = 0usize;
        let total = 4000usize;
        for key in 0..total as u64 {
            let key = key.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(3);
            if small.primary(key) != big.primary(key) {
                moved += 1;
            }
        }
        // Ideal is 1/4 of keys moving; allow generous slack but far below "all".
        assert!(
            moved < total / 2,
            "adding one backend moved {moved}/{total} keys"
        );
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::new(&[]);
        assert!(ring.is_empty());
        assert!(ring.candidates(7).is_empty());
        assert_eq!(ring.primary(7), None);
    }

    fn test_cluster(n: usize, trip_after: u32) -> Cluster {
        Cluster::new(ClusterConfig {
            backends: addrs(n),
            trip_after,
            retry: RetryPolicy {
                max_retries: 3,
                base_delay_ms: 0, // zero cooldown: half-open opens immediately in tests
                max_delay_ms: 0,
                jitter_seed: 5,
            },
            ..Default::default()
        })
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_recovers_via_half_open() {
        let cluster = test_cluster(2, 3);
        assert_eq!(cluster.backend(0).state(), BackendState::Up);
        assert!(cluster.record_failure(0, "timeout").is_some()); // Up -> Degraded
        assert_eq!(cluster.backend(0).state(), BackendState::Degraded);
        assert!(cluster.record_failure(0, "timeout").is_none()); // still Degraded
        let (event, _) = cluster.record_failure(0, "timeout").unwrap();
        assert_eq!(event, "backend_tripped");
        assert_eq!(cluster.backend(0).state(), BackendState::Down);
        assert!(!cluster.backend(0).is_live());
        assert_eq!(cluster.live_count(), 1);
        assert_eq!(cluster.backend(0).trips_total.get(), 1);

        // Zero cooldown: the half-open slot opens at once, but only one probe at
        // a time may use it.
        assert!(cluster.should_probe(0));
        assert!(!cluster.should_probe(0), "half-open admits a single probe");
        let (event, _) = cluster.record_success(0).unwrap();
        assert_eq!(event, "backend_up");
        assert_eq!(cluster.backend(0).state(), BackendState::Up);
        assert_eq!(cluster.backend(0).consecutive_failures(), 0);
    }

    #[test]
    fn failed_half_open_probe_reopens_the_circuit() {
        let cluster = test_cluster(1, 2);
        cluster.record_failure(0, "x");
        cluster.record_failure(0, "x");
        assert_eq!(cluster.backend(0).state(), BackendState::Down);
        assert!(cluster.should_probe(0));
        assert!(cluster.record_failure(0, "still dead").is_none());
        assert_eq!(cluster.backend(0).state(), BackendState::Down);
        // The slot reopens (cooldown is zero here) for the next half-open probe.
        assert!(cluster.should_probe(0));
    }

    #[test]
    fn intermittent_success_resets_the_failure_count() {
        let cluster = test_cluster(1, 3);
        cluster.record_failure(0, "x");
        cluster.record_failure(0, "x");
        cluster.record_success(0);
        assert_eq!(cluster.backend(0).consecutive_failures(), 0);
        cluster.record_failure(0, "x");
        assert_eq!(
            cluster.backend(0).state(),
            BackendState::Degraded,
            "count restarted; one failure after a success must not trip"
        );
    }

    #[test]
    fn half_open_cooldowns_replay_the_seeded_schedule() {
        let a = test_cluster(2, 3);
        let b = test_cluster(2, 3);
        for trip in 0..6 {
            assert_eq!(
                a.half_open_cooldown(0, trip),
                b.half_open_cooldown(0, trip),
                "same config must produce the same recovery schedule"
            );
        }
        // Distinct backends de-synchronise their recovery attempts.
        let policy = RetryPolicy {
            max_retries: 3,
            base_delay_ms: 100,
            max_delay_ms: 60_000,
            jitter_seed: 9,
        };
        let c = Cluster::new(ClusterConfig {
            backends: addrs(2),
            retry: policy,
            ..Default::default()
        });
        assert_ne!(c.half_open_cooldown(0, 1), c.half_open_cooldown(1, 1));
    }
}
