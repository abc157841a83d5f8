//! The benchmark's own recorder: spans around each call the benchmark
//! makes into a layer's public API, plus the outcomes its output checks
//! produce.
//!
//! Cloud-thread bodies run inside the simulated FaaS platform from a
//! deserialized payload, so they cannot carry a handle to the recorder;
//! it is therefore process-global. That is sound because the benchmark
//! runs exactly one simulation at a time and [`reset`]s between runs.
//! Spans are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use simcore::{Ctx, SimTime};

use crate::stats::Outcome;

/// One timed call, on the virtual clock and (in traced runs) the host
/// clock. Ids are indices into [`Log::spans`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// The unit (request, op or cloud thread) this span belongs to.
    pub unit: u64,
    /// Index of the enclosing span; `None` for the unit's root.
    pub parent: Option<u32>,
    /// `<layer>.<what>`, e.g. `dso.read`.
    pub name: &'static str,
    /// Virtual start, ns.
    pub v0: u64,
    /// Virtual end, ns.
    pub v1: u64,
    /// Host start, ns since the first traced span (0 in untraced runs).
    pub h0: u64,
    /// Host end, ns since the first traced span (0 in untraced runs).
    pub h1: u64,
}

/// Everything recorded during one run.
#[derive(Debug, Default)]
pub struct Log {
    /// Spans, in the order they were opened.
    pub spans: Vec<Span>,
    /// Virtual ns the master spent in each `join_all` (bsp_fanout).
    pub join_ns: Vec<u64>,
    /// Open-loop requests: due time (ns) and outcome (serve_open).
    pub requests: Vec<(u64, Outcome)>,
    /// Open-loop requests the generator made due.
    pub sent: u64,
    /// The most any request was issued after its due time, virtual ns.
    pub gen_lag_max_ns: u64,
    /// Units whose call into the program returned an error.
    pub failed_units: u64,
    /// Workload-defined tallies for the output checks (acknowledged
    /// increments per user, threads released per barrier). They survive
    /// [`end_setup`], since checks span the whole run.
    pub tally: BTreeMap<u64, u64>,
    /// Output-check violations; a correct run leaves this empty.
    pub violations: Vec<String>,
}

static LOG: Mutex<Log> = Mutex::new(Log {
    spans: Vec::new(),
    join_ns: Vec::new(),
    requests: Vec::new(),
    sent: 0,
    gen_lag_max_ns: 0,
    failed_units: 0,
    tally: BTreeMap::new(),
    violations: Vec::new(),
});
static TRACED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The recorder; a panic while it was held already failed the run.
pub fn log() -> MutexGuard<'static, Log> {
    LOG.lock().expect("recorder poisoned by a failed run")
}

/// Clears the recorder before a run; `traced` turns on host timestamps.
pub fn reset(traced: bool) {
    *log() = Log::default();
    TRACED.store(traced, Ordering::Relaxed);
}

/// Drops the samples the untimed set-up recorded, keeping the tallies
/// and violations the output checks need. A call that failed during
/// set-up is a violation: set-up must not fail either.
pub fn end_setup() {
    let mut g = log();
    if g.failed_units > 0 {
        let msg = format!("set-up: {} calls into the program failed", g.failed_units);
        g.violations.push(msg);
    }
    let keep = Log {
        tally: std::mem::take(&mut g.tally),
        violations: std::mem::take(&mut g.violations),
        ..Log::default()
    };
    *g = keep;
}

/// Takes everything recorded since the last [`reset`].
pub fn take() -> Log {
    std::mem::take(&mut *log())
}

fn host_ns() -> u64 {
    if TRACED.load(Ordering::Relaxed) {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    } else {
        0
    }
}

/// Opens a span at the current virtual time.
pub fn open(ctx: &Ctx, unit: u64, parent: Option<u32>, name: &'static str) -> u32 {
    open_at(ctx.now(), unit, parent, name)
}

/// Opens a span at virtual time `at` (for spans that began before the
/// recording process observed them, such as an open-loop due time).
pub fn open_at(at: SimTime, unit: u64, parent: Option<u32>, name: &'static str) -> u32 {
    let h = host_ns();
    let mut g = log();
    let id = g.spans.len() as u32;
    let v = at.as_nanos();
    g.spans.push(Span { unit, parent, name, v0: v, v1: v, h0: h, h1: h });
    id
}

/// Moves the start of span `id` to the current virtual time (for a span
/// whose id had to exist before it began, such as a cloud thread's
/// invoke, which its serialized body must name as its parent).
pub fn restart(ctx: &Ctx, id: u32) {
    let h = host_ns();
    let mut g = log();
    let s = &mut g.spans[id as usize];
    s.v0 = ctx.now().as_nanos();
    s.h0 = h;
}

/// Closes span `id` at the current virtual time.
pub fn close(ctx: &Ctx, id: u32) {
    let h = host_ns();
    let mut g = log();
    let s = &mut g.spans[id as usize];
    s.v1 = ctx.now().as_nanos();
    s.h1 = h;
}

/// Records an output-check violation.
pub fn violation(msg: String) {
    let mut g = log();
    // A broken run can violate once per unit; the first few explain it.
    if g.violations.len() < 16 {
        g.violations.push(msg);
    }
}

/// Adds one to tally `key`.
pub fn tally(key: u64) {
    *log().tally.entry(key).or_default() += 1;
}

/// Records a unit whose call into the program failed.
pub fn failed_unit() {
    log().failed_units += 1;
}
