//! Pass 4: wait-annotation coverage.
//!
//! `Sim::deadlock_report()` reconstructs wait-for graphs from
//! `Ctx::annotate_wait` calls. A blocking primitive reached without any
//! annotation on the call path produces a silently incomplete report —
//! the scheduler still detects the stall, but the cycle it prints is
//! missing an edge. This pass finds every indefinitely blocking kernel
//! primitive call site (`ctx.park()` and untimed `ctx.call(..)`; the
//! timed variants and `recv` wake up on their own and are deliberately
//! out of scope) and checks that either the enclosing function annotates
//! before the block site, or every non-test path in the reverse call
//! graph passes through a function that calls `annotate_wait`.
//!
//! The traversal is name-based: callers are matched by callee name, so
//! it over-approximates the real call graph. That errs toward finding
//! an annotating caller (suppressing the diagnostic), which is the safe
//! direction for a gating lint.

use std::collections::HashSet;

use super::{CallSite, FnId, Workspace};
use crate::{Finding, Rule};

/// Whether the call site is an indefinitely blocking kernel primitive.
fn is_block_site(call: &CallSite) -> bool {
    let on_ctx = (call.recv_root.as_deref() == Some("ctx") && call.recv_chain.is_empty())
        || call.recv_chain.last().map(String::as_str) == Some("ctx");
    on_ctx && matches!(call.name.as_str(), "park" | "call")
}

/// Names of functions that annotate: `annotate_wait` itself plus the
/// transitive closure of functions calling an annotating function (so a
/// small `fn annotate(&self, ctx, ..)` helper wrapping `annotate_wait`
/// counts).
fn annotating_names(ws: &Workspace) -> HashSet<String> {
    let mut names: HashSet<String> = HashSet::new();
    names.insert("annotate_wait".to_string());
    loop {
        let mut changed = false;
        for fi in 0..ws.files.len() {
            for idx in 0..ws.files[fi].fns.len() {
                let id = FnId { file: fi, idx };
                let fname = &ws.fn_def(id).name;
                if names.contains(fname) {
                    continue;
                }
                if ws.calls_of(id).iter().any(|c| names.contains(&c.name)) {
                    names.insert(fname.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            return names;
        }
    }
}

/// Token index of the first annotating call in the function, if any.
fn first_annotate(ws: &Workspace, id: FnId, ann: &HashSet<String>) -> Option<usize> {
    ws.calls_of(id).iter().find(|c| ann.contains(&c.name)).map(|c| c.at)
}

/// Walks the reverse call graph from `start` looking for a root function
/// (one with no non-test callers) reachable without passing an
/// annotating function. Returns a description of one such root.
fn uncovered_root(ws: &Workspace, start: FnId, ann: &HashSet<String>) -> Option<String> {
    let mut visited: HashSet<FnId> = HashSet::new();
    visited.insert(start);
    let mut stack = vec![start];
    while let Some(id) = stack.pop() {
        let name = &ws.fn_def(id).name;
        let mut has_caller = false;
        for (caller, _) in ws.callers_of(name) {
            if caller == id {
                continue; // direct recursion is not a caller
            }
            has_caller = true;
            let cdef = ws.fn_def(caller);
            // A test or bench driving the blocking call directly is fine:
            // deadlock reports only matter for simulated scenarios, and
            // those are started by exactly this kind of harness code.
            if cdef.is_test || ws.exempt_file(caller.file) {
                continue;
            }
            if !visited.insert(caller) {
                continue;
            }
            if first_annotate(ws, caller, ann).is_some() {
                continue; // this path is covered
            }
            stack.push(caller);
        }
        if !has_caller && id != start {
            let f = ws.fn_def(id);
            return Some(format!("{} ({}:{})", f.name, ws.files[id.file].path, f.line));
        }
        if !has_caller && id == start {
            return Some("it has no callers and does not annotate".to_string());
        }
    }
    None
}

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let ann = annotating_names(ws);
    for fi in 0..ws.files.len() {
        if ws.exempt_file(fi) {
            continue;
        }
        for idx in 0..ws.files[fi].fns.len() {
            let id = FnId { file: fi, idx };
            let fdef = ws.fn_def(id);
            if fdef.is_test || fdef.body.is_none() {
                continue;
            }
            let annotate_at = first_annotate(ws, id, &ann);
            for call in ws.calls_of(id) {
                if !is_block_site(call) {
                    continue;
                }
                // Untimed `call` only: `call_timeout` has its own wakeup.
                if annotate_at.is_some_and(|a| a < call.at) {
                    continue; // self-annotating before the block site
                }
                if ws.allowed(fi, Rule::WaitAnnotation, call.line as usize) {
                    continue;
                }
                if let Some(root) = uncovered_root(ws, id, &ann) {
                    findings.push(Finding {
                        file: ws.files[fi].path.clone(),
                        line: call.line as usize,
                        rule: Rule::WaitAnnotation,
                        msg: format!(
                            "blocking ctx.{}(..) is reachable without any Ctx::annotate_wait \
                             on the path (via {root}); deadlock reports will be incomplete",
                            call.name
                        ),
                    });
                }
            }
        }
    }
    findings
}
