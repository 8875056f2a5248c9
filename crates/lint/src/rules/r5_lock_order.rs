//! R5 — lexical lock-order audit.
//!
//! Deadlocks in this codebase would hide where one thread holds two locks:
//! the engine's single-flight prep, which takes the in-flight table before the
//! instance cache, or a `PrefixCacheHome`, whose stats and parking slot are
//! separate locks — wherever one thread takes lock A then B while another takes
//! B then A.  This rule extracts
//! every `.lock()` acquisition per file, tracks which guards are lexically
//! still live (a guard dies when its enclosing brace block closes), records the
//! order edges `held → acquired`, and flags every edge that participates in a
//! cycle.
//!
//! The analysis is deliberately conservative: guards bound to temporaries are
//! assumed held until the end of the block, and receivers are named by their
//! final field/variable identifier (`self.shards[i].lock()` → `shards`).  A
//! flagged site that is provably ordered (e.g. shard locks taken in index
//! order, never two at once) documents that with `// lint:allow(R5, …)`.

use super::{FileCtx, Finding};
use crate::tokens::{is_punct, receiver_ident, text, TokKind};
use std::collections::{HashMap, HashSet};

#[derive(Debug)]
struct Edge {
    from: String,
    to: String,
    line: usize,
}

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let sc = ctx.sc;
    let toks = ctx.toks;

    // Collect acquisition-order edges with a lexical held-guard stack.
    let mut held: Vec<(String, i64)> = Vec::new();
    let mut depth = 0i64;
    let mut edges: Vec<Edge> = Vec::new();
    for i in 0..toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
                depth -= 1;
                held.retain(|(_, d)| *d <= depth);
            }
            TokKind::Ident if text(sc, &toks[i]) == "lock" => {
                if i == 0 || !is_punct(toks, i - 1, b'.') || !is_punct(toks, i + 1, b'(') {
                    continue;
                }
                let Some(recv) = receiver_ident(sc, toks, i - 1) else {
                    continue;
                };
                let recv = recv.to_string();
                for (holder, _) in &held {
                    if *holder != recv {
                        edges.push(Edge {
                            from: holder.clone(),
                            to: recv.clone(),
                            line: toks[i].line,
                        });
                    }
                }
                held.push((recv, depth));
            }
            _ => {}
        }
    }
    if edges.is_empty() {
        return;
    }

    // Adjacency + reachability: an edge a→b is part of a cycle iff b reaches a.
    let mut adj: HashMap<&str, HashSet<&str>> = HashMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: HashSet<&str> = HashSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };

    let mut reported: HashSet<(String, String, usize)> = HashSet::new();
    for e in &edges {
        if !reaches(&e.to, &e.from) {
            continue;
        }
        if !reported.insert((e.from.clone(), e.to.clone(), e.line)) {
            continue;
        }
        out.push(ctx.finding(
            e.line,
            "R5",
            format!(
                "lock-order cycle risk: `{}` is held while acquiring `{}`, and the \
                 reverse order also occurs in this file — pick one global order or \
                 justify with // lint:allow(R5, reason)",
                e.from, e.to
            ),
        ));
    }
}
