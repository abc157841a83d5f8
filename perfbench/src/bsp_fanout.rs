//! `bsp_fanout` — the §6.2 k-means shape: a master forks N cloud threads
//! per round and waits for all of them, for R rounds (closed loop).
//!
//! Each thread charges fixed compute through `FnEnv::compute`, ships one
//! `AtomicLong::add_and_get` to a 2-node DSO tier (rf = 1, so no SMR) and
//! waits on that round's server-side `CyclicBarrier`; the master then
//! calls `join_all`. One unit is one cloud thread. Round 0 pays the
//! classic cold starts and is untimed warm-up. The workload loads core's
//! sequential thread start, FaaS warm dispatch and billing, and blocking
//! sync objects, and bypasses SMR and durability.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crucial::{
    join_all, AtomicLong, CrucialConfig, Ctx, CyclicBarrier, Deployment, FnEnv, RunResult,
    Runnable, ThreadFactory,
};

use crate::cost::Mark;
use crate::harness::{Harness, RunOut};
use crate::json::Json;
use crate::rec;

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// DSO nodes.
    pub nodes: u32,
    /// Cloud threads per round.
    pub threads: u32,
    /// Timed rounds (after one warm-up round).
    pub rounds: u64,
    /// Compute each thread charges.
    pub compute: Duration,
}

impl Params {
    /// The benchmark's parameters.
    pub fn new() -> Params {
        Params { nodes: 2, threads: 64, rounds: 24, compute: Duration::from_millis(100) }
    }

    /// The parameters, for the provenance block.
    pub fn json(&self) -> Json {
        Json::obj([
            ("loop", Json::str("closed")),
            ("dso_nodes", Json::Num(self.nodes.into())),
            ("replication", Json::Num(1.0)),
            ("threads_per_round", Json::Num(self.threads.into())),
            ("timed_rounds", Json::Num(self.rounds as f64)),
            ("warmup_rounds", Json::Num(1.0)),
            ("compute_ms", Json::Num(self.compute.as_secs_f64() * 1e3)),
            ("cold_start_policy", Json::str("Classic")),
        ])
    }
}

/// One cloud thread of a round.
#[derive(Serialize, Deserialize)]
struct Step {
    unit: u64,
    /// The master's `faas.invoke` span for this thread.
    parent: u32,
    round: u64,
    compute_us: u64,
    total: AtomicLong,
    barrier: CyclicBarrier,
}

impl Runnable for Step {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let (unit, parent) = (self.unit, Some(self.parent));
        let s = rec::open(env.ctx(), unit, parent, "app.compute");
        env.compute(Duration::from_micros(self.compute_us));
        rec::close(env.ctx(), s);
        let (ctx, dso) = env.dso();
        let s = rec::open(ctx, unit, parent, "dso.write");
        let added = self.total.add_and_get(ctx, dso, 1);
        rec::close(ctx, s);
        added.map_err(|e| e.to_string())?;
        let s = rec::open(ctx, unit, parent, "dso.barrier");
        let generation = self.barrier.wait(ctx, dso);
        rec::close(ctx, s);
        match generation.map_err(|e| e.to_string())? {
            0 => rec::tally(self.round),
            g => rec::violation(format!("round {}: barrier released generation {g}", self.round)),
        }
        Ok(())
    }
}

fn total() -> AtomicLong {
    AtomicLong::new("bsp-total")
}

/// The master's rounds `rounds`: start every thread, then join them all.
fn master(ctx: &mut Ctx, threads: &ThreadFactory, p: &Params, rounds: std::ops::Range<u64>) {
    let n = u64::from(p.threads);
    for round in rounds {
        let barrier = CyclicBarrier::new(&format!("round-{round}"), p.threads);
        let mut handles = Vec::with_capacity(n as usize);
        let mut spans = Vec::with_capacity(n as usize);
        for i in 0..n {
            let unit = round * n + i;
            let root = rec::open(ctx, unit, None, "bench.unit");
            let start = rec::open(ctx, unit, Some(root), "core.start");
            let invoke = rec::open(ctx, unit, Some(root), "faas.invoke");
            let step = Step {
                unit,
                parent: invoke,
                round,
                compute_us: p.compute.as_micros() as u64,
                total: total(),
                barrier: barrier.clone(),
            };
            handles.push(threads.start(ctx, &step));
            rec::close(ctx, start);
            rec::restart(ctx, invoke);
            spans.push((root, invoke));
        }
        let j0 = ctx.now();
        let joined = join_all(ctx, handles);
        rec::log().join_ns.push((ctx.now() - j0).as_nanos() as u64);
        for (root, invoke) in spans {
            rec::close(ctx, invoke);
            rec::close(ctx, root);
        }
        if let Err(e) = joined {
            // join_all reports the first failure only; charge the round.
            rec::violation(format!("round {round}: {e}"));
            (0..n).for_each(|_| rec::failed_unit());
        }
    }
}

/// One run of the workload.
pub fn run(seed: u64, p: &Params, traced: bool) -> RunOut {
    let mut h = Harness::new(seed, traced);
    let cfg = CrucialConfig { dso_nodes: p.nodes, ..CrucialConfig::default() };
    let dep = Deployment::start(&h.sim, cfg);
    dep.register::<Step>();
    let threads = dep.threads();

    // Warm-up: round 0 provisions every container (classic cold starts).
    let (t, q) = (threads.clone(), p.clone());
    h.sim.spawn("master-warmup", move |ctx| master(ctx, &t, &q, 0..1));
    h.phase("set-up");

    let start = Mark::read(dep.faas.billing(), None, h.sim.now());
    let (t, q) = (threads.clone(), p.clone());
    let region = h.timed(|sim| {
        sim.spawn("master", move |ctx| master(ctx, &t, &q, 1..q.rounds + 1));
    });
    let units = u64::from(p.threads) * p.rounds;
    let extra = Mark::read(dep.faas.billing(), None, region.v1).since(start, units);

    // Check: the aggregate is N x rounds and every barrier released N.
    let (handle, n, rounds) = (dep.dso_handle(), u64::from(p.threads), p.rounds + 1);
    h.sim.spawn("check", move |ctx| {
        let mut cli = handle.connect();
        match total().get(ctx, &mut cli) {
            Ok(v) if v as u64 == n * rounds => {}
            Ok(v) => rec::violation(format!("aggregate {v}, expected {}", n * rounds)),
            Err(e) => rec::violation(format!("aggregate unreadable: {e}")),
        }
        let released: Vec<u64> =
            (0..rounds).map(|r| rec::log().tally.get(&r).copied().unwrap_or(0)).collect();
        if let Some(r) = released.iter().position(|&k| k != n) {
            rec::violation(format!("round {r}: barrier released {} of {n} threads", released[r]));
        }
    });
    h.phase("checks");
    h.finish(region, extra)
}
