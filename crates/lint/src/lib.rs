//! `juliqaoa_lint` — the workspace invariant checker behind the `qaoa-lint`
//! binary.
//!
//! The repo's value proposition is bit-identical determinism across thread
//! counts, topologies and crash/resume cycles.  The invariants that guarantee
//! it — frozen seed derivation, no wall-clock in kernels, `total_cmp` float
//! ordering, justified `Relaxed` atomics, panic-free serving paths — used to
//! live only in reviewers' heads, and got re-broken (PR 5's CVaR
//! `partial_cmp` NaN panic).  Following the knowledge-compilation stance of
//! making implicit structure explicit and checkable, this crate compiles those
//! contracts into a dependency-free static-analysis pass that runs in tier-1
//! tests (`crates/lint/tests/lint_clean.rs`) and CI.
//!
//! # Rules
//!
//! | Rule | Contract |
//! |------|----------|
//! | R1 | no wall-clock / ambient randomness in determinism-critical crates |
//! | R2 | float ordering via `total_cmp`, never `partial_cmp(..).unwrap()` |
//! | R3 | no unannotated panics in `crates/service` serving paths |
//! | R4 | every `Ordering::Relaxed` carries a `// relaxed:` justification |
//! | R5 | lexical lock-order audit — no acquisition-order cycles per file |
//! | R6 | Prometheus metric names match `[a-z_]+` statically |
//! | R7 | seed arithmetic only in `combinatorics::seeding` |
//! | R8 | HTTP responses only via the shared `http::write_json*` helpers |
//! | R9 | no `sleep` on the request path (`ops`, `server`, `router`, `http`, `cluster`) |
//!
//! Suppress a finding with `// lint:allow(RN, reason)` on its line or one of
//! the two lines above; the reason is mandatory and checked.
//!
//! The analyzer is a hand-rolled lexer ([`strip`] + [`tokens`]) — no `syn`,
//! no `regex`, no network, consistent with the workspace's vendored-shim
//! discipline.  It scrubs comments, strings and `#[cfg(test)]` items before
//! any rule runs, so tests keep their freedom and commented-out code never
//! fires a rule.

pub mod json;
pub mod rules;
pub mod strip;
pub mod tokens;
pub mod walk;

pub use rules::{FileReport, Finding};

use std::io;
use std::path::Path;

/// The aggregated result of linting a workspace.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed findings across all files, in (file, line, rule) order.
    pub findings: Vec<Finding>,
    /// Total findings silenced by `lint:allow` directives.
    pub suppressed: usize,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The human-readable rendering: one rustc-style line per finding plus a
    /// trailing summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "qaoa-lint: {} file(s) scanned, {} finding(s), {} suppressed\n",
            self.files_scanned,
            self.findings.len(),
            self.suppressed
        ));
        out
    }

    /// The machine-readable rendering (schema frozen by `tests/json_golden.rs`).
    pub fn render_json(&self) -> String {
        json::render(&self.findings, self.files_scanned, self.suppressed)
    }
}

/// The crate directory name owning a workspace-relative path
/// (`crates/service/src/http.rs` → `Some("service")`).
pub fn crate_of(rel_path: &str) -> Option<&str> {
    rel_path.strip_prefix("crates/")?.split('/').next()
}

/// Lints one in-memory source file.  `rel_path` determines crate context
/// (which rules apply), so fixtures can pose as any workspace location.
pub fn analyze_source(rel_path: &str, source: &str) -> FileReport {
    let sc = strip::scrub(source);
    let toks = tokens::tokenize(&sc);
    let ctx = rules::FileCtx {
        rel_path,
        crate_name: crate_of(rel_path),
        sc: &sc,
        toks: &toks,
    };
    rules::run_all(&ctx)
}

/// Lints every in-scope file of the workspace at `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let files = walk::workspace_files(root)?;
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let files_scanned = files.len();
    for path in &files {
        let source = std::fs::read_to_string(path)?;
        let rel = walk::rel_path(root, path);
        let report = analyze_source(&rel, &source);
        suppressed += report.suppressed;
        findings.extend(report.findings);
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(Report {
        findings,
        suppressed,
        files_scanned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_resolves_workspace_paths() {
        assert_eq!(crate_of("crates/service/src/http.rs"), Some("service"));
        assert_eq!(crate_of("crates/core/src/prefix.rs"), Some("core"));
        assert_eq!(crate_of("src/lib.rs"), None);
    }

    #[test]
    fn analyze_source_is_clean_on_trivial_code() {
        let r = analyze_source("crates/core/src/x.rs", "pub fn f() -> u32 { 7 }\n");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 0);
    }
}
