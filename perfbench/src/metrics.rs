//! From runs to named metrics. Virtual-time metrics are exact functions of
//! the seed; host-time metrics are medians over repeated runs.

use std::collections::BTreeMap;

use crate::harness::RunOut;
use crate::host;
use crate::json::Json;
use crate::micro::{self, Calls};
use crate::rec::Span;
use crate::stats::{self, median, tail, Ratio};

/// The end-to-end metrics of the final line, as declared in
/// `BENCHMARK.json`; every workload reports all of them.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "host_ops_per_s",
    "peak_rss_mb",
    "ops_per_s",
    "lat_p50_ms",
    "lat_p99_ms",
    "write_p50_ms",
    "write_p99_ms",
];

/// The per-layer metrics of the final line of a traced invocation, as
/// declared in `BENCHMARK.json`. A layer a workload bypasses reads 0.
pub const PER_LAYER: &[&str] = &[
    "simcore.events_per_op",
    "simcore.host_ns_per_event",
    "simcore.sys_cpu_share",
    "simcore.cpu_us_per_op",
    "simcore.os_threads_max",
    "simcore.codec_ns_per_op",
    "simcore.wheel_ns_per_event",
    "simcore.host_residual_share",
    "dso.read_p50_ms",
    "dso.read_p99_ms",
    "dso.write_p99_ms",
    "dso.exec_host_ns",
    "dso.smr_rounds_per_write",
    "dso.invokes_per_op",
    "dso.retries_per_op",
    "dso.queue_depth_max",
    "dso.wal_records_per_put",
    "dso.wal_backlog_max",
    "dso.self_ms_per_op",
    "dso.smr_round_ms_per_write",
    "cloudstore.s3_requests_per_kop",
    "cloudstore.s3_bytes_per_op",
    "faas.invoke_p50_ms",
    "faas.invoke_p99_ms",
    "faas.cold_start_ratio",
    "faas.restore_share",
    "faas.gb_s_per_op",
    "faas.idle_gb_s_share",
    "faas.self_ms_per_op",
    "core.start_ms_per_thread",
    "core.join_wait_ms",
    "core.barrier_wait_p99_ms",
    "core.thread_retries_per_start",
    "core.self_ms_per_op",
    "app.self_ms_per_op",
    "bench.gen_lag_max_ms",
    "bench.trace_overhead",
    "bench.attribution_gap",
];

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, with the percentile actually reported for tails.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Support: sample counts, percentile, ratio base.
    pub detail: Vec<(&'static str, f64)>,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit, detail: Vec::new() }
    }

    fn with(mut self, key: &'static str, v: f64) -> Metric {
        self.detail.push((key, v));
        self
    }

    fn ratio(name: &str, r: Ratio) -> Metric {
        Metric::new(name, r.value(), "ratio").with("num", r.num).with("base", r.den)
    }

    /// The support, as `key=value` pairs.
    pub fn note(&self) -> String {
        self.detail.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
    }
}

/// Metrics as a JSON object keyed by name.
pub fn to_json(ms: &[Metric]) -> Json {
    Json::Obj(
        ms.iter()
            .map(|m| {
                let mut j = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                for (k, v) in &m.detail {
                    j.push(k, Json::Num(*v));
                }
                (m.name.clone(), j)
            })
            .collect(),
    )
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn label(p: f64) -> String {
    if p.fract() == 0.0 {
        format!("p{p}")
    } else {
        format!("p{p}").replace('.', "_")
    }
}

/// The median and tail of virtual latencies (ns), in ms. The tail is
/// named after the percentile that has at least ten samples beyond it.
fn latency(prefix: &str, p: f64, samples_ns: &[u64]) -> Option<Metric> {
    let v: Vec<f64> = samples_ns.iter().map(|&n| ms(n)).collect();
    let pct = if p == 50.0 {
        median(&v).map(|m| stats::Pct { p, value: m, n: v.len(), beyond: v.len() / 2 })
    } else {
        // A tail that falls back to the median is already reported.
        tail(&v, p).filter(|t| t.p > 50.0)
    }?;
    Some(
        Metric::new(&format!("{prefix}_{}_ms", label(pct.p)), pct.value, "ms")
            .with("percentile", pct.p)
            .with("samples", pct.n as f64)
            .with("beyond", pct.beyond as f64),
    )
}

/// [`latency`] of a call the workload may not make: 0 when it never
/// made it (the layer is bypassed), absent when too few samples.
fn latency_if_used(prefix: &str, p: f64, samples_ns: &[u64]) -> Option<Metric> {
    if samples_ns.is_empty() {
        return Some(Metric::new(&format!("{prefix}_{}_ms", label(p)), 0.0, "ms"));
    }
    latency(prefix, p, samples_ns)
}

fn durations<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = u64> + 'a {
    spans.iter().filter(move |s| s.name == name).map(|s| s.v1 - s.v0)
}

fn roots(run: &RunOut) -> Vec<u64> {
    run.log.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.v1 - s.v0).collect()
}

fn extra(run: &RunOut, key: &str) -> Option<f64> {
    run.extra.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

/// Units attempted and failed in the timed region.
pub fn attempted_failed(run: &RunOut) -> (u64, u64) {
    let units = roots(run).len() as u64;
    (units.max(run.log.sent), run.log.failed_units)
}

/// The virtual-time end-to-end metrics of one run; exact for a seed.
fn virtual_e2e(name: &str, run: &RunOut) -> Vec<Metric> {
    let lat = roots(run);
    let writes: Vec<u64> = durations(&run.log.spans, "dso.write").collect();
    let (attempted, failed) = attempted_failed(run);
    let virt = (run.region.v1 - run.region.v0).as_secs_f64();
    let mut m = vec![Metric::new("ops_per_s", lat.len() as f64 / virt, "1/s")
        .with("units", lat.len() as f64)
        .with("virtual_s", virt)];
    m.extend(latency("lat", 50.0, &lat));
    m.extend(latency("lat", 99.0, &lat));
    m.extend(latency("write", 50.0, &writes));
    m.extend(latency("write", 99.0, &writes));
    m.push(Metric::ratio("error_ratio", Ratio::new(failed as f64, attempted as f64)));
    if name == "serve_open" {
        let limit = crate::serve_open::SLO.as_nanos() as u64;
        m.push(Metric::ratio(
            "slo_ok_ratio",
            stats::slo_ok(&run.log.requests, limit, run.log.sent as usize),
        ));
        for (k, v) in &run.extra {
            if let Some(step) = k.strip_prefix("slo_ok_ratio@") {
                let base = extra(run, &format!("requests@{step}")).unwrap_or(0.0);
                let rate = extra(run, &format!("rate_per_s@{step}")).unwrap_or(0.0);
                m.push(Metric::new(k, *v, "ratio").with("base", base).with("rate_per_s", rate));
            }
        }
    }
    if let Some(c) = extra(run, "cost_usd_per_1k").filter(|_| name != "kv_mix") {
        m.push(Metric::new("cost_usd_per_1k", c, "USD").with("units", lat.len() as f64));
    }
    m
}

/// A digest of everything virtual a run produced: its metrics, kernel
/// event count, ledgers and every span's virtual interval. Runs of one
/// seed must agree on it exactly.
pub fn virtual_fingerprint(run: &RunOut) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for m in virtual_e2e("", run) {
        eat(&format!("{}={:?};", m.name, m.value));
    }
    eat(&format!("events={};v={:?};", run.region.events, run.region.v1 - run.region.v0));
    for (k, v) in &run.extra {
        eat(&format!("{k}={v:?};"));
    }
    for s in &run.log.spans {
        eat(&format!("{}:{}:{}:{};", s.unit, s.name, s.v0, s.v1));
    }
    format!("{h:016x}")
}

fn median_of(runs: &[RunOut], f: impl Fn(&RunOut) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>()).expect("at least one run")
}

fn host_ops_per_s(run: &RunOut) -> f64 {
    roots(run).len() as f64 / run.region.host.as_secs_f64()
}

/// The untraced run with the shortest timed region. Every repeat does the
/// same work, and the host's other load can only add time to it, so the
/// fastest repeat is the closest reading of the simulator's own cost.
fn fastest_run(runs: &[RunOut]) -> &RunOut {
    runs.iter().min_by_key(|r| r.region.host).expect("at least one run")
}

/// The end-to-end metrics: virtual ones from the first run, `setup_s` as
/// the median over all runs, `host_ops_per_s` from the fastest run.
pub fn end_to_end(name: &str, runs: &[RunOut]) -> Vec<Metric> {
    let n = runs.len() as f64;
    let mut m = vec![
        Metric::new("setup_s", median_of(runs, |r| r.region.setup.as_secs_f64()), "s")
            .with("runs", n),
        Metric::new("host_ops_per_s", host_ops_per_s(fastest_run(runs)), "1/s")
            .with("runs", n)
            .with("median", median_of(runs, host_ops_per_s)),
        // The first run's peak: repeating the same run only adds allocator
        // fragmentation, which would make the figure depend on host speed.
        Metric::new("peak_rss_mb", runs[0].peak_rss_mb, "MiB").with("at_exit", host::peak_rss_mb()),
    ];
    m.extend(virtual_e2e(name, &runs[0]));
    m
}

/// The per-layer metrics: counts and virtual times from the traced run,
/// host costs from the fastest untraced run and from direct calls.
pub fn per_layer(calls: Calls, runs: &[RunOut], traced: &RunOut) -> Vec<Metric> {
    let u = fastest_run(runs);
    let t = traced;
    let units = roots(t).len().max(1) as f64;
    let spans = &t.log.spans;
    let counter = |k: &str| t.region.counters.get(k).copied().unwrap_or(0) as f64;
    let ex = |k: &str| extra(t, k).unwrap_or(0.0);
    let per = |num: f64, den: f64| Ratio::new(num, den);
    let writes = durations(spans, "dso.write").count() as f64;
    let mut m = Vec::new();

    // simcore: host cost, measured on the untraced run.
    let host_ns = u.region.host.as_nanos() as f64;
    let events = u.region.events as f64;
    let u_units = roots(u).len().max(1) as f64;
    let cpu = u.region.cpu;
    let codec = micro::codec_ns_per_unit(calls);
    let exec = micro::exec_ns_per_unit(calls);
    let wheel = micro::wheel_ns_per_event(u.region.pending_max);
    m.push(Metric::new("simcore.events_per_op", events / u_units, "count").with("events", events));
    m.push(Metric::new("simcore.host_ns_per_event", host_ns / events.max(1.0), "ns"));
    m.push(Metric::ratio("simcore.sys_cpu_share", per(cpu.sys_s, cpu.user_s + cpu.sys_s)));
    m.push(Metric::new("simcore.cpu_us_per_op", (cpu.user_s + cpu.sys_s) * 1e6 / u_units, "us"));
    m.push(Metric::new("simcore.os_threads_max", u.region.threads_max as f64, "count"));
    m.push(Metric::new("simcore.codec_ns_per_op", codec, "ns"));
    m.push(
        Metric::new("simcore.wheel_ns_per_event", wheel, "ns")
            .with("population", u.region.pending_max as f64),
    );
    let explained = wheel * events + (codec + exec) * u_units;
    m.push(Metric::ratio("simcore.host_residual_share", per(host_ns - explained, host_ns)));

    // dso: latencies of the calls the benchmark made, counters per unit.
    let reads: Vec<u64> = durations(spans, "dso.read").collect();
    let dso_writes: Vec<u64> = durations(spans, "dso.write").collect();
    m.extend(latency_if_used("dso.read", 50.0, &reads));
    m.extend(latency_if_used("dso.read", 99.0, &reads));
    m.extend(latency("dso.write", 99.0, &dso_writes));
    m.push(Metric::new("dso.exec_host_ns", exec, "ns"));
    m.push(Metric::ratio("dso.smr_rounds_per_write", per(counter("dso.smr_rounds"), writes)));
    m.push(Metric::ratio("dso.invokes_per_op", per(counter("dso.invokes"), units)));
    let retries = counter("dso.retries") + counter("dso.overloaded");
    m.push(Metric::ratio("dso.retries_per_op", per(retries, units)));
    m.push(Metric::new("dso.queue_depth_max", t.region.peaks["dso.queue_depth"], "count"));
    m.push(Metric::ratio(
        "dso.wal_records_per_put",
        per(counter("dso.wal_records"), counter("dso.wal_appends")),
    ));
    m.push(Metric::new("dso.wal_backlog_max", t.region.peaks["dso.wal_backlog"], "count"));

    // cloudstore: durable-store traffic per unit.
    m.push(Metric::new(
        "cloudstore.s3_requests_per_kop",
        ex("cloudstore.s3_requests") * 1e3 / units,
        "count",
    ));
    m.push(Metric::new("cloudstore.s3_bytes_per_op", ex("cloudstore.s3_bytes") / units, "bytes"));

    // faas: the cloud thread's time outside the calls timed inside it.
    let selfs = stats::self_times(spans);
    let invoke_self: Vec<u64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "faas.invoke")
        .map(|(_, &v)| v)
        .collect();
    m.extend(latency_if_used("faas.invoke", 50.0, &invoke_self));
    m.extend(latency_if_used("faas.invoke", 99.0, &invoke_self));
    let inv = ex("faas.invocations");
    m.push(Metric::ratio("faas.cold_start_ratio", per(ex("faas.cold_starts"), inv)));
    m.push(Metric::ratio("faas.restore_share", per(ex("faas.restores"), inv)));
    m.push(Metric::new("faas.gb_s_per_op", ex("faas.gb_s") / units, "GB-s"));
    let (gb_s, idle) = (ex("faas.gb_s"), ex("faas.idle_gb_s"));
    m.push(Metric::ratio("faas.idle_gb_s_share", per(idle, gb_s + idle)));

    // core: the master's side of fork/join.
    let mean = |v: Vec<u64>| if v.is_empty() { 0.0 } else { ms(v.iter().sum()) / v.len() as f64 };
    m.push(Metric::new(
        "core.start_ms_per_thread",
        mean(durations(spans, "core.start").collect()),
        "ms",
    ));
    m.push(Metric::new("core.join_wait_ms", mean(t.log.join_ns.clone()), "ms"));
    let waits: Vec<u64> = durations(spans, "dso.barrier").collect();
    m.extend(latency_if_used("core.barrier_wait", 99.0, &waits));
    m.push(Metric::ratio(
        "core.thread_retries_per_start",
        per(counter("core.thread_retries"), counter("core.thread_starts")),
    ));

    // Virtual self time per layer, per unit; the layers tile each unit.
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *by_layer.entry(layer).or_default() += own;
    }
    for layer in ["dso", "faas", "core", "app", "bench"] {
        let v = by_layer.get(layer).copied().unwrap_or(0);
        m.push(Metric::new(&format!("{layer}.self_ms_per_op"), ms(v) / units, "ms"));
    }
    if let Some(tr) = &t.tracer {
        // The program's own SMR spans, read from its trace export.
        let v0 = t.region.v0;
        let smr: u64 = tr
            .spans_named("dso.smr_round")
            .iter()
            .filter(|s| s.start >= v0)
            .map(|s| s.duration().as_nanos() as u64)
            .sum();
        m.push(Metric::new("dso.smr_round_ms_per_write", ms(smr) / writes.max(1.0), "ms"));
    }

    // bench: the validity of the numbers above.
    m.push(Metric::new("bench.gen_lag_max_ms", ms(t.log.gen_lag_max_ns), "ms"));
    let overhead = host_ops_per_s(u) / host_ops_per_s(t);
    m.push(Metric::new("bench.trace_overhead", overhead, "ratio"));
    m.push(Metric::new("bench.attribution_gap", stats::attribution_gap(spans, &selfs), "ratio"));
    m
}
