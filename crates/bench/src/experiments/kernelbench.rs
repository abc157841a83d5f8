//! `kernel-bench` — raw kernel speed baseline, gated in CI.
//!
//! Four sections, coarse to fine:
//!
//! 1. **wheel_raw** — the timing wheel alone: pop an expiry, push a
//!    replacement, across seven delay magnitudes. No kernel, no threads;
//!    this is the data-structure ceiling.
//! 2. **timer_churn** — empty-cycle timer churn through the full kernel:
//!    eight daemons sleeping on co-prime periods. Every event is a wake,
//!    so the cost measured is queue + context-switch, no application work.
//! 3. **ping_ring** — message passing: a hop-countdown token circulating
//!    a ring of processes, one delivery event per hop.
//! 4. **dso_smoke** — end-to-end: a 2-node DSO cluster serving
//!    `AtomicLong` increments and reads, many kernel events per op.
//!
//! Each section is wall-clock timed (the one legitimate use of host time
//! in the workspace: measuring the simulator itself) and reports kernel
//! events/sec, computed from [`simcore::EventQueueStats`] — total pushes
//! (fresh allocations + free-list recycles) minus events still pending —
//! plus the run-token handoff counts from the same stats: `handoffs`
//! (the token moved to another process thread, a host context switch)
//! and `self_handoffs` (the blocking process was picked again and kept
//! running). Results go to `BENCH_kernel.json` with a `host` block (CPU
//! count, build profile, scale); `simcheck`'s `benchcheck` bin asserts
//! the file is well-formed and each section clears a conservative sanity
//! floor (~1/10 of typical release-build numbers), so a silent 10x
//! regression in kernel speed fails CI without flaking on host noise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use simcore::{Msg, Sim, SimTime, TimingWheel};

use crucial::{AtomicLong, DsoCluster, DsoConfig, ObjectRegistry};

use super::Scale;
use crate::report::{fmt_dur, Table};

/// One measured section of the kernel bench.
#[derive(Clone, Debug)]
pub struct Section {
    /// Section name (stable; `benchcheck` keys on it).
    pub name: &'static str,
    /// Application-level work units and what they are.
    pub work: u64,
    /// What one work unit is.
    pub work_unit: &'static str,
    /// Kernel events processed (for `wheel_raw`: wheel pop/push cycles).
    pub events: u64,
    /// Host wall time for the timed region.
    pub elapsed: Duration,
    /// Run-token passes between process threads (0 for `wheel_raw`).
    pub handoffs: u64,
    /// Scheduling steps that kept the token on the blocking process.
    pub self_handoffs: u64,
}

impl Section {
    /// Events per wall-clock second.
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// All sections, in run order.
#[derive(Clone, Debug)]
pub struct KernelBenchReport {
    /// Measured sections.
    pub sections: Vec<Section>,
}

impl KernelBenchReport {
    /// Looks up a section by name.
    pub fn section(&self, name: &str) -> &Section {
        self.sections.iter().find(|s| s.name == name).expect("known section name")
    }
}

/// Times `f` on the host clock.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    // simlint: allow(wall-clock, reason = "kernel-bench measures the simulator's own host-time throughput; the reading never flows into simulated state")
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// A section measured through the full kernel: events fired (total
/// pushes minus still-pending) and handoffs come from `sim`'s stats.
fn sim_section(
    name: &'static str,
    work: u64,
    work_unit: &'static str,
    sim: &Sim,
    elapsed: Duration,
) -> Section {
    let s = sim.event_queue_stats();
    let events = (s.allocated_nodes + s.recycled_pushes).saturating_sub(s.len as u64);
    Section {
        name,
        work,
        work_unit,
        events,
        elapsed,
        handoffs: s.handoffs,
        self_handoffs: s.self_handoffs,
    }
}

/// Sleep periods for the churn daemons: co-prime-ish and spanning wheel
/// levels 0-3, so cascades and slot reuse both stay hot.
const PERIODS_NS: [u64; 8] = [700, 1_024, 3_000, 17_000, 65_536, 250_000, 1_000_000, 4_194_304];

fn wheel_raw(scale: Scale) -> Section {
    let cycles: u64 = scale.pick(500_000, 5_000_000);
    let delays_ns: [u64; 7] = [700, 1_024, 9_999, 65_536, 1_000_000, 33_554_432, 2_000_000_000];
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut seq = 0u64;
    // Prime a realistic pending population before timing starts.
    for i in 0..4096u64 {
        wheel.push(SimTime::from_nanos(1 + i * 37), seq, i);
        seq += 1;
    }
    let (_, elapsed) = timed(|| {
        for i in 0..cycles {
            let (t, _, v) = wheel.pop().expect("wheel stays primed");
            let d = delays_ns[i as usize % delays_ns.len()];
            wheel.push(t + Duration::from_nanos(d), seq, v);
            seq += 1;
        }
    });
    let stats = wheel.stats();
    assert_eq!(stats.len, 4096, "pop/push pairs keep the population fixed");
    assert!(
        stats.recycled_pushes > cycles / 2,
        "steady-state churn must recycle slab nodes, got {stats:?}"
    );
    Section {
        name: "wheel_raw",
        work: cycles,
        work_unit: "timer cycles",
        events: cycles,
        elapsed,
        handoffs: 0,
        self_handoffs: 0,
    }
}

fn timer_churn(scale: Scale) -> Section {
    let run = Duration::from_millis(scale.pick(150, 1_500));
    let mut sim = Sim::new(1);
    for (i, period_ns) in PERIODS_NS.into_iter().enumerate() {
        sim.spawn_daemon(&format!("tick-{i}"), move |ctx| loop {
            ctx.sleep(Duration::from_nanos(period_ns));
        });
    }
    let (_, elapsed) = timed(|| sim.run_for(run));
    let s = sim_section("timer_churn", 0, "timer wakes", &sim, elapsed);
    assert!(s.events > 1_000, "churn must fire many timer events, got {}", s.events);
    Section { work: s.events, ..s }
}

fn ping_ring(scale: Scale) -> Section {
    let nodes: usize = 16;
    let rounds: u64 = scale.pick(4_000, 40_000);
    let hops = rounds * nodes as u64;
    let lat = Duration::from_micros(1);
    let mut sim = Sim::new(2);
    let mbs: Vec<_> = (0..nodes).map(|i| sim.mailbox(&format!("ring-{i}"))).collect();
    for i in 0..nodes {
        let rx = mbs[i];
        let tx = mbs[(i + 1) % nodes];
        sim.spawn(&format!("node-{i}"), move |ctx| {
            if i == 0 {
                // The token counts remaining hops down to zero; each node
                // therefore receives it exactly `rounds` times.
                ctx.send(tx, Msg::new(hops - 1), lat);
            }
            for _ in 0..rounds {
                let v = ctx.recv(rx).take::<u64>();
                if v > 0 {
                    ctx.send(tx, Msg::new(v - 1), lat);
                }
            }
        });
    }
    let (out, elapsed) = timed(|| sim.run_until_idle());
    out.expect_quiescent();
    let s = sim_section("ping_ring", hops, "message hops", &sim, elapsed);
    assert!(s.events >= hops, "every hop is at least one kernel event");
    s
}

fn dso_smoke(scale: Scale) -> Section {
    let writers: u64 = 4;
    let readers: u64 = 2;
    let incs: u64 = scale.pick(300, 3_000);
    let reads: u64 = scale.pick(150, 1_500);
    let mut sim = Sim::new(3);
    let cluster = DsoCluster::start(&sim, 2, DsoConfig::default(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let high_water: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
    for w in 0..writers {
        let handle = handle.clone();
        let high_water = high_water.clone();
        sim.spawn(&format!("writer-{w}"), move |ctx| {
            let mut cli = handle.connect();
            let counter = AtomicLong::new("bench-counter");
            for _ in 0..incs {
                let v = counter.increment_and_get(ctx, &mut cli).expect("cluster reachable");
                high_water.fetch_max(v as u64, Ordering::Relaxed);
            }
        });
    }
    for r in 0..readers {
        let handle = handle.clone();
        sim.spawn(&format!("reader-{r}"), move |ctx| {
            let mut cli = handle.connect();
            let counter = AtomicLong::new("bench-counter");
            for _ in 0..reads {
                counter.get(ctx, &mut cli).expect("cluster reachable");
            }
        });
    }
    let (out, elapsed) = timed(|| sim.run_until_idle());
    out.expect_quiescent();
    assert_eq!(
        high_water.load(Ordering::Relaxed),
        writers * incs,
        "every increment must land exactly once"
    );
    let ops = writers * incs + readers * reads;
    sim_section("dso_smoke", ops, "object ops", &sim, elapsed)
}

/// Runs every section, renders the table, writes `BENCH_kernel.json`.
pub fn kernel_bench(scale: Scale) -> (Table, KernelBenchReport) {
    let report = KernelBenchReport {
        sections: vec![wheel_raw(scale), timer_churn(scale), ping_ring(scale), dso_smoke(scale)],
    };
    let mut t = Table::new(
        "kernel-bench — event-queue and kernel throughput",
        &[
            "Section",
            "Work",
            "Kernel events",
            "Handoffs",
            "Self-handoffs",
            "Wall time",
            "Events/sec",
        ],
    );
    for s in &report.sections {
        t.row(&[
            s.name.into(),
            format!("{} {}", s.work, s.work_unit),
            s.events.to_string(),
            s.handoffs.to_string(),
            s.self_handoffs.to_string(),
            fmt_dur(s.elapsed),
            format!("{:.0}", s.events_per_s()),
        ]);
    }
    if let Err(e) = write_json(scale, &report) {
        eprintln!("could not write BENCH_kernel.json: {e}");
    }
    (t, report)
}

fn write_json(scale: Scale, report: &KernelBenchReport) -> std::io::Result<()> {
    let sections = report
        .sections
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"work\": {}, \"work_unit\": \"{}\", \
                 \"events\": {}, \"elapsed_s\": {:.6}, \"events_per_s\": {:.1}, \
                 \"handoffs\": {}, \"self_handoffs\": {}}}",
                s.name,
                s.work,
                s.work_unit,
                s.events,
                s.elapsed.as_secs_f64(),
                s.events_per_s(),
                s.handoffs,
                s.self_handoffs,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"kernel\",\n  \"host\": {{\"nproc\": {}, \"build_profile\": \"{}\", \
         \"scale\": \"{}\"}},\n  \"sections\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        match scale {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        },
        sections,
    );
    std::fs::write("BENCH_kernel.json", &json)?;
    println!("wrote BENCH_kernel.json");
    Ok(())
}
