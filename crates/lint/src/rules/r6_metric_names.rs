//! R6 — Prometheus metric-name legality, checked statically.
//!
//! `PromWriter` `debug_assert`s that metric names contain no digits (a digit
//! would silently truncate the exposition line-shape the CI smoke greps for),
//! but debug asserts vanish in release builds — the builds that actually
//! serve `/metrics`.  This rule checks against `[a-z_]+` at lint time, so an
//! illegal name can never reach an exposition:
//!
//! * every string literal passed as the name argument of a `PromWriter`
//!   emission call;
//! * every name literal in a metric declaration — the `field: "name"` entries
//!   of a `counter_set!` or `histogram_set!` invocation.

use super::{FileCtx, Finding};
use crate::tokens::{is_punct, matching_tok, text, Tok, TokKind};

/// `PromWriter` methods whose first argument is a metric name.
const NAME_SINKS: [&str; 7] = [
    "counter",
    "gauge",
    "gauge_f64",
    "counter_family",
    "gauge_family",
    "histogram",
    "exemplar",
];

/// Declaration macros whose `field: "name", "help";` entries name metrics.
const DECLARATIONS: [&str; 2] = ["counter_set", "histogram_set"];

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let sc = ctx.sc;
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let ident = text(sc, &toks[i]);
        // Method-call shape: `.name("literal"` — the receiver keeps plain
        // function calls (and unrelated `histogram(` locals) out of scope.
        if i > 0
            && is_punct(toks, i - 1, b'.')
            && is_punct(toks, i + 1, b'(')
            && NAME_SINKS.contains(&ident)
        {
            if let Some(arg) = toks.get(i + 2) {
                check_name(ctx, arg, out);
            }
        }
        // Declaration shape: `counter_set! { … field: "name", "help"; … }`.
        if DECLARATIONS.contains(&ident)
            && is_punct(toks, i + 1, b'!')
            && is_punct(toks, i + 2, b'{')
        {
            let close = matching_tok(toks, i + 2, b'{', b'}').unwrap_or(toks.len());
            for k in i + 3..close {
                if is_punct(toks, k - 1, b':') && toks[k - 2].kind == TokKind::Ident {
                    check_name(ctx, &toks[k], out);
                }
            }
        }
    }
}

/// Reports `tok` when it is a string literal outside `[a-z_]+`.
fn check_name(ctx: &FileCtx, tok: &Tok, out: &mut Vec<Finding>) {
    if tok.kind != TokKind::Str {
        return;
    }
    let Some(lit) = ctx.sc.strings.iter().find(|s| s.start == tok.start) else {
        return;
    };
    let legal = !lit.content.is_empty()
        && lit
            .content
            .chars()
            .all(|c| c.is_ascii_lowercase() || c == '_');
    if !legal {
        out.push(ctx.finding(
            tok.line,
            "R6",
            format!(
                "metric name {:?} violates the frozen exposition contract [a-z_]+ \
                 (no digits, no uppercase — CI greps the 0.0.4 line shape)",
                lit.content
            ),
        ));
    }
}
