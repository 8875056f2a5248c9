//! Telemetry primitives for the juliqaoa stack.
//!
//! Everything here is observation-only and near-zero-cost: counters and histogram
//! buckets are relaxed atomics (one `fetch_add` per event, no locks on any hot
//! path), so instrumented kernels produce bit-identical numbers at the same speed.
//! The crate deliberately has **no dependencies** — it sits below `juliqaoa_linalg`
//! in the workspace graph so even the innermost Walsh–Hadamard butterfly can record
//! a pass.
//!
//! Six pieces:
//!
//! * [`Counter`] / [`Gauge`] — monotonic and point-in-time scalars;
//! * [`Histogram`] — fixed-bucket latency histograms with lock-free recording,
//!   cumulative snapshots and quantile estimation (p50/p95/p99 for the benches);
//! * [`encode`] — the Prometheus text-exposition (version 0.0.4) encoder the
//!   service's `GET /metrics` endpoint serves;
//! * [`registry`] — the metric registry: [`counter_set!`] and [`histogram_set!`]
//!   declare each metric once (field, exposition name, help), generating the
//!   counters, their snapshots and deltas, [`LatencyHistogram`]s with their
//!   exemplars, and the exposition; and the [`Stage`] guard, which times one
//!   stage of a traced job once and feeds its histogram, exemplar and span;
//! * [`kernels`] — process-wide profiling counters threaded through the simulator
//!   core (phase-table applications, WHT passes, dense fallbacks, prefix
//!   checkpoint reuse, shots drawn);
//! * [`span`] — distributed-tracing spans (trace/span ids, parent links, a
//!   bounded [`span::SpanCollector`]) behind the service's `GET /trace` ring,
//!   `GET /trace/:id` span trees, `--trace-out` journals and cross-process
//!   trace propagation.  Lifecycle events are zero-duration spans in the same
//!   ring.

pub mod encode;
pub mod hist;
pub mod kernels;
pub mod registry;
pub mod span;
mod trace;

pub use encode::PromWriter;
pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{LatencyHistogram, Stage};
pub use span::{Span, SpanCollector, SpanId, TraceId};

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter (relaxed atomic; safe to record from any
/// thread, including inside simulation kernels).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter, usable in `static` position.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        // relaxed: monotone metric counter; adds commute and readers only report.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            // relaxed: monotone metric counter; adds commute and readers only report.
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        // relaxed: monitoring read; may lag concurrent increments by design.
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value (queue depth, resident caches, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge, usable in `static` position.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: u64) {
        // relaxed: last-writer-wins gauge; scrapes need no ordering with other data.
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        // relaxed: monitoring read; may observe any recent set, which is fine.
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_and_gauges_hold() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        c.add(0);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn concurrent_counter_increments_lose_nothing() {
        let c = std::sync::Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}
