//! R9 — no sleeping on the request path.
//!
//! Both HTTP tiers serve from one accept thread, so a sleep there is latency
//! every client pays: the 10 ms accept poll both tiers once had cost a status
//! read 10 ms straight to `serve` and 20 ms through `route`, against well
//! under 1 ms of real work.  Waits on the request path block on an event
//! instead (a blocking `accept()`, a channel's `recv_timeout`, a condvar).
//! The rule covers the modules that make up that path: the ops layer, both
//! tiers, the HTTP helpers and the cluster state.  The sanctioned sleeps carry
//! `// lint:allow(R9, reason)`: the stop watcher (the one poller, which no
//! request waits on) and the router's seeded failover backoff.  Fault
//! injection and batch mode are outside the rule's scope.

use super::{FileCtx, Finding};
use crate::tokens::{is_ident, is_punct, text, TokKind};

/// The files of `crates/service/src` the rule applies to.
const REQUEST_PATH_FILES: [&str; 5] = ["ops.rs", "server.rs", "router.rs", "http.rs", "cluster.rs"];

const MESSAGE: &str = "sleep on the request path — block on the event instead (accept, a \
     channel's recv_timeout, a condvar); every client behind this thread waits out the sleep";

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let in_scope = ctx
        .rel_path
        .strip_prefix("crates/service/src/")
        .is_some_and(|file| REQUEST_PATH_FILES.contains(&file));
    if !in_scope {
        return;
    }
    let sc = ctx.sc;
    let toks = ctx.toks;
    for i in 0..toks.len() {
        // `sleep(` as a free or path-qualified call (`thread::sleep(`,
        // `std::thread::sleep(`, an imported `sleep(`); not a method call and
        // not a definition.
        let call = toks[i].kind == TokKind::Ident
            && text(sc, &toks[i]) == "sleep"
            && is_punct(toks, i + 1, b'(')
            && !(i > 0 && (is_punct(toks, i - 1, b'.') || is_ident(sc, toks, i - 1, "fn")));
        if call {
            out.push(ctx.finding(toks[i].line, "R9", MESSAGE.to_string()));
        }
    }
}
