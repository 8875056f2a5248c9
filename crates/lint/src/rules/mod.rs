//! The rule set: each module implements one named contract check over a
//! scrubbed, tokenized source file.  Dispatch, suppression handling and the
//! shared [`FileCtx`]/[`Finding`] types live here.
//!
//! # Suppression
//!
//! `// lint:allow(RN, reason)` on the finding's line or one of the two lines
//! above it suppresses that rule there.  The reason is mandatory: an allow
//! without one (or naming an unknown rule) is itself reported under `R0`, so
//! suppressions stay auditable instead of rotting into bare switch-offs.

pub mod r1_wallclock;
pub mod r2_float_cmp;
pub mod r3_panic_paths;
pub mod r4_relaxed;
pub mod r5_lock_order;
pub mod r6_metric_names;
pub mod r7_seed_arith;
pub mod r8_http_responses;
pub mod r9_request_path_sleep;

use crate::strip::Scrubbed;
use crate::tokens::Tok;
use std::collections::HashMap;

/// Every enforceable rule id (R0 is the meta-rule for malformed suppressions).
pub const RULE_IDS: [&str; 9] = ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9"];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id (`R1`..`R9`, or `R0` for malformed suppressions).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The rustc-style single-line rendering: `file:line: rule[RN]: message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: rule[{}]: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Everything a rule sees about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    /// The owning crate directory name (`core`, `service`, …); `None` for the
    /// root facade sources.
    pub crate_name: Option<&'a str>,
    pub sc: &'a Scrubbed,
    pub toks: &'a [Tok],
}

impl FileCtx<'_> {
    /// Whether this file belongs to the named workspace crate.
    pub fn in_crate(&self, name: &str) -> bool {
        self.crate_name == Some(name)
    }

    /// The file name (final path component).
    pub fn file_name(&self) -> &str {
        self.rel_path.rsplit('/').next().unwrap_or(self.rel_path)
    }

    /// Emits a finding for this file.
    pub fn finding(&self, line: usize, rule: &'static str, message: String) -> Finding {
        Finding {
            file: self.rel_path.to_string(),
            line,
            rule,
            message,
        }
    }
}

/// Parsed `lint:allow` directives: line → rule ids allowed there.
struct Allows {
    by_line: HashMap<usize, Vec<String>>,
    malformed: Vec<(usize, String)>,
}

/// Whether `id` has directive shape: `R` followed by digits.  Prose mentions
/// of the syntax (e.g. "lint:allow(RN, reason)" in docs) deliberately do not,
/// and are ignored rather than reported as malformed.
fn is_rule_shaped(id: &str) -> bool {
    let mut chars = id.chars();
    chars.next() == Some('R') && {
        let rest = chars.as_str();
        !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit())
    }
}

fn parse_allows(sc: &Scrubbed) -> Allows {
    let mut by_line: HashMap<usize, Vec<String>> = HashMap::new();
    let mut malformed = Vec::new();
    for (line, text) in &sc.comments {
        let mut rest = text.as_str();
        while let Some(pos) = rest.find("lint:allow(") {
            let inner = &rest[pos + "lint:allow(".len()..];
            let Some(close) = inner.find(')') else {
                break;
            };
            let args = &inner[..close];
            rest = &inner[close + 1..];
            let (rule, reason) = match args.split_once(',') {
                Some((r, why)) => (r.trim(), why.trim()),
                None => (args.trim(), ""),
            };
            if !is_rule_shaped(rule) {
                continue;
            }
            if !RULE_IDS.contains(&rule) {
                malformed.push((*line, format!("lint:allow names unknown rule {rule:?}")));
                continue;
            }
            if reason.is_empty() {
                malformed.push((
                    *line,
                    format!("lint:allow({rule}) is missing a reason — write down why"),
                ));
                continue;
            }
            by_line.entry(*line).or_default().push(rule.to_string());
        }
    }
    Allows { by_line, malformed }
}

/// Lines whose comments carry a `relaxed:` justification (rule R4).
pub fn relaxed_justified_lines(sc: &Scrubbed) -> std::collections::HashSet<usize> {
    sc.comments
        .iter()
        .filter(|(_, t)| t.contains("relaxed:"))
        .map(|(l, _)| *l)
        .collect()
}

/// Result of running every rule over one file.
pub struct FileReport {
    /// Findings that survived suppression, sorted by (line, rule).
    pub findings: Vec<Finding>,
    /// How many findings a `lint:allow` suppressed.
    pub suppressed: usize,
}

/// Runs all rules over one file and applies suppressions.
pub fn run_all(ctx: &FileCtx) -> FileReport {
    let mut raw: Vec<Finding> = Vec::new();
    r1_wallclock::check(ctx, &mut raw);
    r2_float_cmp::check(ctx, &mut raw);
    r3_panic_paths::check(ctx, &mut raw);
    r4_relaxed::check(ctx, &mut raw);
    r5_lock_order::check(ctx, &mut raw);
    r6_metric_names::check(ctx, &mut raw);
    r7_seed_arith::check(ctx, &mut raw);
    r8_http_responses::check(ctx, &mut raw);
    r9_request_path_sleep::check(ctx, &mut raw);

    let allows = parse_allows(ctx.sc);
    let allowed = |line: usize, rule: &str| {
        (line.saturating_sub(2)..=line).any(|l| {
            allows
                .by_line
                .get(&l)
                .is_some_and(|rs| rs.iter().any(|r| r == rule))
        })
    };
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for f in raw {
        if allowed(f.line, f.rule) {
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }
    for (line, msg) in allows.malformed {
        findings.push(ctx.finding(line, "R0", msg));
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup();
    FileReport {
        findings,
        suppressed,
    }
}
