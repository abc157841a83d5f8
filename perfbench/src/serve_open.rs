//! `serve_open` — open-loop serving: the Fig 8 shape over the durable,
//! snapshot-restoring stack.
//!
//! One seeded generator makes requests due as Poisson arrivals at a short
//! ladder of fixed rates; each request runs in a fresh simulated process
//! that starts one cloud thread and joins it. The thread reads four 1 KB
//! model objects (rf = 2) and increments its user's counter (rf = 2). The
//! 3-node DSO tier logs every write under `DurabilityLevel::Sync`, so a
//! write is acknowledged only after its WAL group commit reached the S3
//! model; FaaS starts containers through the `SnapshotRestore` tier with a
//! short idle timeout, so the rate steps retire containers and later
//! restore them inside the timed region. Latency counts from the due
//! time; the latency limit is [`SLO`].

use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crucial::{
    spawn_s3, AtomicByteArray, AtomicLong, ColdStartPolicy, CrucialConfig, Ctx, Deployment,
    DsoConfig, FaasConfig, FnEnv, RunResult, Runnable, S3Config, SimTime, SnapshotConfig,
    ThreadFactory,
};
use dso::{DurabilityConfig, DurabilityLevel, DurabilityStore};

use crate::cost::Mark;
use crate::harness::{Harness, RunOut};
use crate::inputs::{read_tag, tagged_value, Rng};
use crate::json::Json;
use crate::rec;
use crate::stats::{slo_ok, Outcome};

/// The latency limit, from the due time.
pub const SLO: Duration = Duration::from_millis(250);

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// DSO nodes.
    pub nodes: u32,
    /// Distinct users (one durable counter each).
    pub users: u32,
    /// Model objects every request reads.
    pub models: u32,
    /// Model object size, bytes.
    pub model_len: usize,
    /// Untimed warm-up: `(rate per s, seconds)`.
    pub warmup: (f64, f64),
    /// Timed rate ladder: `(rate per s, seconds)` steps.
    pub ladder: Vec<(f64, f64)>,
    /// FaaS container idle timeout.
    pub idle_timeout: Duration,
}

impl Params {
    /// The benchmark's parameters.
    pub fn new() -> Params {
        Params {
            nodes: 3,
            users: 128,
            models: 4,
            model_len: 1_024,
            warmup: (20.0, 1.0),
            ladder: vec![(100.0, 2.0), (400.0, 1.5), (40.0, 2.0), (400.0, 1.5)],
            idle_timeout: Duration::from_secs(1),
        }
    }

    /// The parameters, for the provenance block.
    pub fn json(&self) -> Json {
        let steps = self
            .ladder
            .iter()
            .map(|&(r, s)| Json::obj([("rate_per_s", Json::Num(r)), ("seconds", Json::Num(s))]));
        Json::obj([
            ("loop", Json::str("open")),
            ("arrivals", Json::str("poisson")),
            ("dso_nodes", Json::Num(self.nodes.into())),
            ("replication", Json::Num(2.0)),
            ("durability", Json::str("Sync")),
            ("cold_start_policy", Json::str("SnapshotRestore")),
            ("idle_timeout_ms", Json::Num(self.idle_timeout.as_secs_f64() * 1e3)),
            ("users", Json::Num(self.users.into())),
            ("model_objects", Json::Num(self.models.into())),
            ("model_bytes", Json::Num(self.model_len as f64)),
            ("warmup_rate_per_s", Json::Num(self.warmup.0)),
            ("warmup_seconds", Json::Num(self.warmup.1)),
            ("ladder", Json::Arr(steps.collect())),
            ("slo_ms", Json::Num(SLO.as_secs_f64() * 1e3)),
        ])
    }
}

/// Marks a model object's (never overwritten) value.
const MODEL_WRITER: u32 = u32::MAX;

/// One request's cloud thread.
#[derive(Serialize, Deserialize)]
struct Serve {
    unit: u64,
    /// The request's `faas.invoke` span.
    parent: u32,
    user: u32,
    model_len: usize,
    models: Vec<AtomicByteArray>,
    counter: AtomicLong,
}

impl Runnable for Serve {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let (unit, parent) = (self.unit, Some(self.parent));
        let (ctx, dso) = env.dso();
        for (j, m) in self.models.iter().enumerate() {
            let s = rec::open(ctx, unit, parent, "dso.read");
            let v = m.get(ctx, dso);
            rec::close(ctx, s);
            let v = v.map_err(|e| e.to_string())?;
            if read_tag(&v, self.model_len) != Some((j as u32, MODEL_WRITER, 0)) {
                rec::violation(format!("request {unit}: model {j} read back wrong"));
            }
        }
        let s = rec::open(ctx, unit, parent, "dso.write");
        let added = self.counter.add_and_get(ctx, dso, 1);
        rec::close(ctx, s);
        added.map_err(|e| e.to_string())?;
        rec::tally(self.user.into());
        Ok(())
    }
}

fn user_counter(u: u32) -> AtomicLong {
    AtomicLong::persistent(&format!("user-{u}"), 0, 2)
}

/// Seeded arrivals: `(offset from the generator's start, user)`.
fn arrivals(seed: u64, stream: u64, steps: &[(f64, f64)], users: u32) -> Vec<(Duration, u32)> {
    let mut r = Rng::new(seed, stream);
    let (mut out, mut step_start) = (Vec::new(), 0.0);
    for &(rate, secs) in steps {
        let mut t = step_start + r.exp(1.0 / rate);
        while t < step_start + secs {
            out.push((Duration::from_secs_f64(t), r.below(users.into()) as u32));
            t += r.exp(1.0 / rate);
        }
        step_start += secs;
    }
    out
}

/// Everything a request process needs, shared by the generator.
struct Shared {
    threads: ThreadFactory,
    models: Vec<AtomicByteArray>,
    model_len: usize,
}

/// Makes each arrival due on schedule, in a fresh process per request.
fn generator(ctx: &mut Ctx, shared: Arc<Shared>, arrivals: Vec<(Duration, u32)>, unit0: u64) {
    let t0 = ctx.now();
    for (i, (offset, user)) in arrivals.into_iter().enumerate() {
        let due = t0 + offset;
        if ctx.now() < due {
            ctx.sleep(due - ctx.now());
        }
        {
            let mut g = rec::log();
            g.sent += 1;
            g.gen_lag_max_ns = g.gen_lag_max_ns.max((ctx.now() - due).as_nanos() as u64);
        }
        let shared = shared.clone();
        let unit = unit0 + i as u64;
        ctx.spawn(&format!("request-{unit}"), move |c| request(c, &shared, due, unit, user));
    }
}

fn request(ctx: &mut Ctx, shared: &Shared, due: SimTime, unit: u64, user: u32) {
    let root = rec::open_at(due, unit, None, "bench.unit");
    let lag = rec::open_at(due, unit, Some(root), "bench.gen_lag");
    rec::close(ctx, lag);
    let start = rec::open(ctx, unit, Some(root), "core.start");
    let invoke = rec::open(ctx, unit, Some(root), "faas.invoke");
    let body = Serve {
        unit,
        parent: invoke,
        user,
        model_len: shared.model_len,
        models: shared.models.clone(),
        counter: user_counter(user),
    };
    let handle = shared.threads.start(ctx, &body);
    rec::close(ctx, start);
    rec::restart(ctx, invoke);
    let joined = handle.join(ctx);
    rec::close(ctx, invoke);
    rec::close(ctx, root);
    let outcome = match joined {
        Ok(()) => Outcome::Done(ctx.now().as_nanos()),
        Err(_) => {
            rec::failed_unit();
            Outcome::Failed
        }
    };
    rec::log().requests.push((due.as_nanos(), outcome));
}

/// One run of the workload.
pub fn run(seed: u64, p: &Params, traced: bool) -> RunOut {
    let mut h = Harness::new(seed, traced);
    let s3 = spawn_s3(&h.sim, S3Config::default());
    let store = DurabilityStore::new(s3, "serve");
    let mut durability = DurabilityConfig::new(store.clone());
    durability.level = DurabilityLevel::Sync;
    let faas = FaasConfig::builder()
        .cold_start_policy(ColdStartPolicy::SnapshotRestore)
        .snapshot(SnapshotConfig::default())
        .container_idle_timeout(p.idle_timeout)
        .build()
        .expect("valid FaaS configuration");
    let cfg = CrucialConfig {
        dso_nodes: p.nodes,
        dso: DsoConfig { durability: Some(durability), ..DsoConfig::default() },
        faas,
        ..CrucialConfig::default()
    };
    let dep = Deployment::start(&h.sim, cfg);
    dep.register::<Serve>();
    let models: Vec<AtomicByteArray> = (0..p.models)
        .map(|j| {
            let v = tagged_value(p.model_len, j, MODEL_WRITER, 0);
            AtomicByteArray::persistent(&format!("model-{j}"), v, 2)
        })
        .collect();
    let shared =
        Arc::new(Shared { threads: dep.threads(), models: models.clone(), model_len: p.model_len });

    // Set-up: create the model and every user's counter, then an untimed
    // warm-up that cold-starts the function and captures its snapshot.
    const LOADERS: u32 = 4;
    for l in 0..LOADERS {
        let (handle, models, users, len) = (dep.dso_handle(), models.clone(), p.users, p.model_len);
        h.sim.spawn(&format!("preload-{l}"), move |ctx| {
            let mut cli = handle.connect();
            if let Some(m) = models.get(l as usize) {
                match m.get(ctx, &mut cli) {
                    Ok(v) if read_tag(&v, len) == Some((l, MODEL_WRITER, 0)) => {}
                    _ => rec::violation(format!("set-up: model {l} unreadable")),
                }
            }
            for u in (l..users).step_by(LOADERS as usize) {
                if user_counter(u).get(ctx, &mut cli) != Ok(0) {
                    rec::violation(format!("set-up: user {u} counter not created at 0"));
                }
            }
        });
    }
    h.phase("set-up");
    let warm = arrivals(seed, 1 << 20, &[p.warmup], p.users);
    let sh = shared.clone();
    h.sim.spawn("generator-warmup", move |ctx| generator(ctx, sh, warm, 1 << 40));
    h.phase("warm-up");

    let start = Mark::read(dep.faas.billing(), Some(&store), h.sim.now());
    let plan = arrivals(seed, 0, &p.ladder, p.users);
    let sent = plan.len() as u64;
    let region = h.timed(|sim| {
        sim.spawn("generator", move |ctx| generator(ctx, shared, plan, 0));
    });
    let mut extra = Mark::read(dep.faas.billing(), Some(&store), region.v1).since(start, sent);

    // Check: every user's counter equals its acknowledged increments.
    let (handle, users) = (dep.dso_handle(), p.users);
    h.sim.spawn("check", move |ctx| {
        let mut cli = handle.connect();
        for u in 0..users {
            let acked = rec::log().tally.get(&u64::from(u)).copied().unwrap_or(0);
            match user_counter(u).get(ctx, &mut cli) {
                Ok(v) if v as u64 == acked => {}
                Ok(v) => rec::violation(format!("user {u}: counter {v}, {acked} increments acked")),
                Err(e) => rec::violation(format!("user {u}: counter unreadable: {e}")),
            }
        }
    });
    h.phase("checks");

    // The on-time share at each rate of the ladder, with its base.
    let v0 = region.v0.as_nanos();
    let mut out = h.finish(region, Vec::new());
    let mut step_start = 0.0;
    for (i, &(rate, secs)) in p.ladder.iter().enumerate() {
        let lo = v0 + (step_start * 1e9) as u64;
        let hi = v0 + ((step_start + secs) * 1e9) as u64;
        let in_step: Vec<_> =
            out.log.requests.iter().copied().filter(|&(due, _)| due >= lo && due < hi).collect();
        let r = slo_ok(&in_step, SLO.as_nanos() as u64, in_step.len());
        extra.push((format!("slo_ok_ratio@step{i}"), r.value()));
        extra.push((format!("requests@step{i}"), r.den));
        extra.push((format!("rate_per_s@step{i}"), rate));
        step_start += secs;
    }
    if out.log.sent != sent {
        out.log.violations.push(format!("generator sent {} of {sent} requests", out.log.sent));
    }
    out.extra.extend(extra);
    out
}
