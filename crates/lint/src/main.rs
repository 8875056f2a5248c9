//! `qaoa-lint` — the workspace invariant checker CLI.
//!
//! ```text
//! qaoa-lint [--root <path>] [--json] [--list-rules]
//! ```
//!
//! Walks the workspace sources (root `src/` + every `crates/*/src/`), runs
//! rules R1–R9, and prints findings as rustc-style `file:line: rule[RN]:
//! message` lines (or the frozen JSON schema with `--json`).  Exit status: `0`
//! clean, `1` findings, `2` usage or I/O error.  Run it from anywhere inside
//! the repo; the workspace root is auto-discovered.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: qaoa-lint [--root <path>] [--json] [--list-rules]\n\
     \n\
     Checks the workspace's determinism/panic-safety/atomics contracts:\n\
     rules R1..R9 (see README \"Static analysis\" or --list-rules).\n\
     Exit status: 0 clean, 1 findings, 2 error."
}

fn list_rules() -> &'static str {
    "R1  no wall-clock/ambient randomness in determinism-critical crates\n\
     R2  float ordering via total_cmp, never partial_cmp(..).unwrap()\n\
     R3  no unannotated panics in crates/service serving paths\n\
     R4  every Ordering::Relaxed carries a // relaxed: justification\n\
     R5  lexical lock-order audit: no acquisition-order cycles per file\n\
     R6  Prometheus metric names match [a-z_]+ statically\n\
     R7  seed arithmetic only in combinatorics::seeding\n\
     R8  HTTP responses only via the shared http::write_json* helpers\n\
     R9  no sleep on the request path (service ops/server/router/http/cluster)\n\
     \n\
     Suppress with: // lint:allow(RN, reason) — the reason is mandatory."
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                println!("{}", list_rules());
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match juliqaoa_lint::walk::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "qaoa-lint: no [workspace] Cargo.toml above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match juliqaoa_lint::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qaoa-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
