//! Cooperative cancellation and progress reporting for optimizer runs.
//!
//! The angle-finding drivers are long-running: hundreds of BFGS restarts, thousands of
//! grid points.  A job service needs to (a) stop a run promptly when a client cancels
//! the job and (b) surface how far along a run is.  [`RunControl`] carries both
//! capabilities into the drivers without changing their hot loops: cancellation is a
//! shared atomic flag polled at candidate/hop/block boundaries (never inside a
//! simulation), and progress is an optional callback invoked with `(done, total)` work
//! units from whichever worker thread finishes a unit.
//!
//! A default [`RunControl`] is free: no flag to poll, no callback to invoke, and the
//! plain driver entry points (`random_restart`, `basinhopping`, `grid_search`) use
//! exactly that, so existing callers see identical behaviour.
//!
//! # Deadlines
//!
//! A control may also carry a **deadline** ([`RunControl::with_deadline`] /
//! [`RunControl::deadline_in`]).  Drivers poll [`RunControl::should_stop`] at the
//! exact points they already polled the cancel flag, so a run whose deadline expires
//! stops at the next unit boundary and returns the best of the work it finished —
//! the caller distinguishes the two stop reasons via [`RunControl::is_cancelled`]
//! vs [`RunControl::is_timed_out`].  A pathological job (a huge grid, a hard
//! landscape) therefore costs bounded wall-clock, never a stuck worker.

use juliqaoa_telemetry::TraceId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared handle that can cancel a running optimization, bound its wall-clock time,
/// observe its progress and name the trace its stages are recorded under.
#[derive(Clone, Default)]
pub struct RunControl {
    cancel: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    progress: Option<Arc<dyn Fn(u64, u64) + Send + Sync>>,
    trace: Option<TraceId>,
}

impl RunControl {
    /// A control that never cancels and reports nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// A control driven by a shared cancellation flag (set it from any thread to stop
    /// the run at the next unit boundary).
    pub fn with_cancel(flag: Arc<AtomicBool>) -> Self {
        RunControl {
            cancel: Some(flag),
            ..Self::default()
        }
    }

    /// Attaches an absolute deadline; the run stops cooperatively at the first unit
    /// boundary at or after it.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a deadline `timeout` from now.
    pub fn deadline_in(self, timeout: Duration) -> Self {
        // lint:allow(R1, deadline anchor only - the Instant bounds wall-clock, it never enters a computed result)
        self.with_deadline(Instant::now() + timeout)
    }

    /// Attaches a progress callback, invoked with `(completed, total)` work units.
    ///
    /// Units are driver-specific (restarts, hops, grid blocks).  The callback runs on
    /// worker threads and must be cheap and non-blocking.
    pub fn on_progress(mut self, f: impl Fn(u64, u64) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(f));
        self
    }

    /// Attaches the trace id the run's timing stages are recorded under — one a
    /// caller adopted upstream (e.g. from a request header).  Observation only:
    /// the drivers never read it.
    pub fn with_trace(mut self, trace: TraceId) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The attached trace id, if any.
    pub fn trace(&self) -> Option<TraceId> {
        self.trace
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            // relaxed: advisory stop flag polled at unit boundaries; a stale read only
            // delays the stop by one unit and orders against no other data.
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// Whether the deadline (if any) has passed.
    pub fn is_timed_out(&self) -> bool {
        // lint:allow(R1, deadline comparison only - affects when we stop, never what we compute)
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether the run should stop at the next unit boundary — cancelled *or* past
    /// its deadline.  This is what drivers poll; without a flag or deadline it is a
    /// pair of `None` checks, so the default control stays free.
    pub fn should_stop(&self) -> bool {
        self.is_cancelled() || self.is_timed_out()
    }

    /// Reports `done` of `total` work units complete.
    pub fn report(&self, done: u64, total: u64) {
        if let Some(f) = &self.progress {
            f(done, total);
        }
    }
}

impl std::fmt::Debug for RunControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("cancellable", &self.cancel.is_some())
            .field("has_deadline", &self.deadline.is_some())
            .field("has_progress", &self.progress.is_some())
            .field("trace", &self.trace)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn default_control_never_cancels() {
        let c = RunControl::new();
        assert!(!c.is_cancelled());
        assert!(!c.is_timed_out());
        assert!(!c.should_stop());
        c.report(1, 2); // no callback: must be a no-op, not a panic
        assert_eq!(c.trace(), None);
        let traced = c.with_trace(TraceId::from_raw(7));
        assert_eq!(traced.clone().trace(), Some(TraceId::from_raw(7)));
    }

    #[test]
    fn deadlines_expire_and_compose_with_cancellation() {
        // A deadline far in the future does not stop the run.
        let future = RunControl::new().deadline_in(Duration::from_secs(3600));
        assert!(!future.is_timed_out());
        assert!(!future.should_stop());
        // An already-past deadline stops it immediately.
        let past = RunControl::new().with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(past.is_timed_out());
        assert!(past.should_stop());
        assert!(!past.is_cancelled(), "timeout is not cancellation");
        // Cancellation still stops a run whose deadline has not passed.
        let flag = Arc::new(AtomicBool::new(true));
        let both = RunControl::with_cancel(flag).deadline_in(Duration::from_secs(3600));
        assert!(both.should_stop());
        assert!(both.is_cancelled());
        assert!(!both.is_timed_out());
    }

    #[test]
    fn cancel_flag_is_observed() {
        let flag = Arc::new(AtomicBool::new(false));
        let c = RunControl::with_cancel(flag.clone());
        assert!(!c.is_cancelled());
        flag.store(true, Ordering::Relaxed);
        assert!(c.is_cancelled());
    }

    #[test]
    fn progress_callback_receives_units() {
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        let c = RunControl::new().on_progress(move |done, total| {
            assert!(done <= total);
            seen2.store(done, Ordering::Relaxed);
        });
        c.report(3, 10);
        assert_eq!(seen.load(Ordering::Relaxed), 3);
    }
}
