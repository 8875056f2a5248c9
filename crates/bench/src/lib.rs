//! Shared infrastructure for the figure-regeneration binaries and the perf-snapshot
//! binaries (`bench_kernels`, `bench_sampling`, `bench_service`, `bench_sweep`).
//!
//! Each `fig*` binary under `src/bin/` regenerates one figure of the paper, on the
//! seeded instances of `juliqaoa_problems::paper_instances`; this library holds the
//! pieces they share: repeated-measurement timing, the `git describe` stamp of the
//! committed `BENCH_*.json` snapshots, plain-text series output, and job-file export.

pub mod harness;
pub mod jobs;

pub use harness::{git_describe, BenchTimer, Series, Timing};
pub use jobs::write_job_file;
