//! One run of a workload: a fresh simulation driven through set-up, the
//! timed region and the output checks, each a phase run until every
//! non-daemon simulated process has exited.
//!
//! Host time is read only here, around whole phases, from outside the
//! simulation; the kernel runs one simulated process at a time, so the
//! host time of a phase is the simulator's cost of that phase.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use simcore::{MetricsRegistry, Sim, SimTime, Tracer};

use crate::host::{self, Cpu, ThreadSampler};
use crate::rec::{self, Log};

/// Registry series whose peak inside the timed region is reported.
pub const PEAK_SERIES: [&str; 2] = ["dso.queue_depth", "dso.wal_backlog"];

/// A simulation plus the measurement hooks around it.
pub struct Harness {
    /// The simulation.
    pub sim: Sim,
    started: Instant,
    registry: Option<MetricsRegistry>,
    tracer: Option<Tracer>,
}

/// What the timed region measured.
#[derive(Debug)]
pub struct Region {
    /// Host time from the start of the run to the timed region.
    pub setup: Duration,
    /// Host time of the timed region.
    pub host: Duration,
    /// Virtual time the timed region began.
    pub v0: SimTime,
    /// Virtual time the timed region ended.
    pub v1: SimTime,
    /// Kernel events fired inside the region.
    pub events: u64,
    /// Event-queue arena high-water mark: the pending population reached.
    pub pending_max: usize,
    /// Process CPU time spent in the region.
    pub cpu: Cpu,
    /// Largest OS thread count sampled in the region.
    pub threads_max: u64,
    /// Registry counter increments inside the region (traced runs).
    pub counters: BTreeMap<String, u64>,
    /// Peak of each [`PEAK_SERIES`] inside the region (traced runs).
    pub peaks: BTreeMap<&'static str, f64>,
}

/// Everything one run produced.
pub struct RunOut {
    /// Timed-region measurements.
    pub region: Region,
    /// The benchmark's own spans and check outcomes.
    pub log: Log,
    /// Workload-specific virtual-time figures (cost, SLO steps, ...).
    pub extra: Vec<(String, f64)>,
    /// The program's own spans (traced runs).
    pub tracer: Option<Tracer>,
    /// Process peak RSS (`VmHWM`) when this run ended, MiB.
    pub peak_rss_mb: f64,
}

/// Kernel events fired so far: total pushes minus still-pending.
fn events_fired(sim: &Sim) -> u64 {
    let s = sim.event_queue_stats();
    (s.allocated_nodes + s.recycled_pushes).saturating_sub(s.len as u64)
}

impl Harness {
    /// Starts a run: clears the recorder and builds the simulation, with
    /// the program's metrics registry and tracer installed when `traced`.
    pub fn new(seed: u64, traced: bool) -> Harness {
        let started = Instant::now();
        rec::reset(traced);
        let sim = Sim::new(seed);
        let (registry, tracer) = if traced {
            let (r, t) = (MetricsRegistry::new(), Tracer::new());
            sim.set_metrics(&r);
            sim.set_tracer(&t);
            (Some(r), Some(t))
        } else {
            (None, None)
        };
        Harness { sim, started, registry, tracer }
    }

    /// Runs until every non-daemon process has exited. A process left
    /// blocked forever fails the run's output check.
    pub fn phase(&mut self, what: &str) {
        let out = self.sim.run_until_idle();
        if !out.blocked.is_empty() {
            let n = out.blocked.len();
            let some: Vec<_> = out.blocked.into_iter().take(4).collect();
            rec::violation(format!("{what}: {n} processes blocked forever, e.g. {some:?}"));
        }
    }

    fn counters(&self) -> BTreeMap<String, u64> {
        self.registry.as_ref().map(|r| r.counters().into_iter().collect()).unwrap_or_default()
    }

    /// The timed region: the processes `spawn` starts, run to quiescence.
    pub fn timed(&mut self, spawn: impl FnOnce(&Sim)) -> Region {
        rec::end_setup();
        let before = self.counters();
        let events0 = events_fired(&self.sim);
        let v0 = self.sim.now();
        let sampler = ThreadSampler::start();
        let cpu0 = Cpu::now();
        let h0 = Instant::now();
        let setup = h0 - self.started;
        spawn(&self.sim);
        self.phase("timed region");
        let host = h0.elapsed();
        let cpu = Cpu::now().since(cpu0);
        let threads_max = sampler.stop();
        let v1 = self.sim.now();
        let mut counters = self.counters();
        for (k, v) in counters.iter_mut() {
            *v -= before.get(k).copied().unwrap_or(0);
        }
        let peaks = self
            .registry
            .as_ref()
            .map(|r| {
                PEAK_SERIES
                    .into_iter()
                    .map(|name| {
                        let pts = r.series(name).points();
                        let peak = pts.iter().filter(|(t, _)| *t >= v0).map(|(_, v)| *v);
                        (name, peak.fold(0.0, f64::max))
                    })
                    .collect()
            })
            .unwrap_or_default();
        Region {
            setup,
            host,
            v0,
            v1,
            events: events_fired(&self.sim) - events0,
            pending_max: self.sim.event_queue_stats().capacity,
            cpu,
            threads_max,
            counters,
            peaks,
        }
    }

    /// Ends the run after the output-check phase.
    pub fn finish(self, region: Region, extra: Vec<(String, f64)>) -> RunOut {
        let log = rec::take();
        RunOut { region, log, extra, tracer: self.tracer, peak_rss_mb: host::peak_rss_mb() }
    }
}
