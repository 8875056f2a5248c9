//! Shared infrastructure for the figure-regeneration binaries and criterion benches.
//!
//! Each binary under `src/bin/` regenerates one figure of the paper (see DESIGN.md for
//! the experiment index); this library holds the pieces they share: seeded instance
//! generation matching the paper's setups, wall-clock timing helpers, and plain-text
//! series output that can be redirected into EXPERIMENTS.md.

pub mod harness;
pub mod instances;
pub mod jobs;

pub use harness::{git_describe, time_it, BenchTimer, Series};
pub use instances::{paper_maxcut_instance, paper_sat_instance};
pub use jobs::write_job_file;
