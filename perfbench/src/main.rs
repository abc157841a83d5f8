//! The repository benchmark: one named workload, one seed, every metric
//! printed by name with its unit, and a non-zero exit when the workload's
//! output check fails.
//!
//! ```text
//! perfbench --workload <kv_mix|bsp_fanout|serve_open> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` repeats the workload's seeded run until `--seconds` of host
//! time have passed (at least twice) and reports the end-to-end metrics:
//! virtual-time figures from the first run (every repeat must reproduce
//! them exactly), `setup_s` as the median over the repeats and
//! `host_ops_per_s` from the fastest repeat. The process pins itself to
//! one CPU first (see `host::pin_to_current_cpu`).
//! `--trace 1` adds one run with the program's metrics registry and tracer
//! installed and reports the per-layer metrics; its spans are written to
//! `<out>/<workload>-seed<n>.spans.jsonl`. The last line of standard
//! output is always one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/README.md` for every metric's definition.

mod bsp_fanout;
mod cost;
mod harness;
mod host;
mod inputs;
mod json;
mod kv_mix;
mod metrics;
mod micro;
mod rec;
mod serve_open;
mod stats;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::RunOut;
use json::Json;
use metrics::Metric;

/// A workload and its parameters.
enum Workload {
    KvMix(kv_mix::Params),
    BspFanout(bsp_fanout::Params),
    ServeOpen(serve_open::Params),
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "kv_mix" => Some(Workload::KvMix(kv_mix::Params::new())),
            "bsp_fanout" => Some(Workload::BspFanout(bsp_fanout::Params::new())),
            "serve_open" => Some(Workload::ServeOpen(serve_open::Params::new())),
            _ => None,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Workload::KvMix(_) => "kv_mix",
            Workload::BspFanout(_) => "bsp_fanout",
            Workload::ServeOpen(_) => "serve_open",
        }
    }

    fn params(&self) -> Json {
        match self {
            Workload::KvMix(p) => p.json(),
            Workload::BspFanout(p) => p.json(),
            Workload::ServeOpen(p) => p.json(),
        }
    }

    fn run(&self, seed: u64, traced: bool) -> RunOut {
        match self {
            Workload::KvMix(p) => kv_mix::run(seed, p, traced),
            Workload::BspFanout(p) => bsp_fanout::run(seed, p, traced),
            Workload::ServeOpen(p) => serve_open::run(seed, p, traced),
        }
    }

    fn calls(&self) -> micro::Calls {
        match self {
            Workload::KvMix(_) => micro::Calls::KvMix,
            Workload::BspFanout(_) => micro::Calls::BspFanout,
            Workload::ServeOpen(_) => micro::Calls::ServeOpen,
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <kv_mix|bsp_fanout|serve_open> --seed <n> \
                     --seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let num = |flag: &str| -> Result<u64, String> {
        let v = value(flag).ok_or_else(|| format!("missing {flag}"))?;
        v.parse().map_err(|_| format!("{flag}: not a whole number: {v}"))
    };
    let name = value("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let out = PathBuf::from(value("--out").unwrap_or("perfbench/out"));
    Ok(Args { workload, seed: num("--seed")?, seconds, trace, out })
}

/// Runs the seeded workload repeatedly until `budget` has passed, at
/// least `min` times.
fn repeat(w: &Workload, seed: u64, budget: Duration, min: usize) -> Vec<RunOut> {
    let t0 = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < min || t0.elapsed() < budget {
        runs.push(w.run(seed, false));
        let r = &runs[runs.len() - 1].region;
        eprintln!(
            "perfbench: {} run {}: set-up {:.3} s, timed {:.3} s host ({:.2} s CPU) / {:.3} s virtual",
            w.name(),
            runs.len(),
            r.setup.as_secs_f64(),
            r.host.as_secs_f64(),
            r.cpu.user_s + r.cpu.sys_s,
            (r.v1 - r.v0).as_secs_f64()
        );
    }
    runs
}

fn write_spans(args: &Args, run: &RunOut) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&args.out)?;
    let path = args.out.join(format!("{}-seed{}.spans.jsonl", args.workload.name(), args.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let selfs = stats::self_times(&run.log.spans);
    for (i, (s, own)) in run.log.spans.iter().zip(selfs).enumerate() {
        let j = Json::obj([
            ("id", Json::Num(i as f64)),
            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p.into()))),
            ("unit", Json::Num(s.unit as f64)),
            ("name", Json::str(s.name)),
            ("v_start_ns", Json::Num(s.v0 as f64)),
            ("v_end_ns", Json::Num(s.v1 as f64)),
            ("v_self_ns", Json::Num(own as f64)),
            ("h_start_ns", Json::Num(s.h0 as f64)),
            ("h_end_ns", Json::Num(s.h1 as f64)),
        ]);
        writeln!(f, "{j}")?;
    }
    f.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any simulation starts a thread, so that all inherit it.
    let pinned = host::pin_to_current_cpu();
    let w = &args.workload;
    let budget = Duration::from_secs(args.seconds);
    let provenance = host::provenance(w.name(), args.seed, w.params(), pinned);

    // End-to-end metrics always come from untraced runs. A traced
    // invocation spends half its budget on them.
    let runs = if args.trace {
        repeat(w, args.seed, budget / 2, 1)
    } else {
        repeat(w, args.seed, budget, 2)
    };
    let traced = args.trace.then(|| w.run(args.seed, true));

    let mut violations: Vec<String> = Vec::new();
    for r in runs.iter().chain(&traced) {
        violations.extend(r.log.violations.iter().cloned());
    }
    // Determinism: every run of this seed, traced or not, must reproduce
    // the first run's virtual-time figures exactly.
    let reference = metrics::virtual_fingerprint(&runs[0]);
    for (i, r) in runs.iter().chain(&traced).enumerate().skip(1) {
        let fp = metrics::virtual_fingerprint(r);
        if fp != reference {
            violations.push(format!(
                "run {} diverged from run 1 on the same seed: {fp} vs {reference}",
                i + 1
            ));
        }
    }
    violations.sort();
    violations.dedup();

    let e2e = metrics::end_to_end(w.name(), &runs);
    let layers = traced.as_ref().map(|t| metrics::per_layer(w.calls(), &runs, t));
    let (attempted, failed) = metrics::attempted_failed(&runs[0]);
    // Each traced unit's per-layer self times must add up to its latency.
    let gap = layers.iter().flatten().find(|m| m.name == "bench.attribution_gap");
    if let Some(g) = gap.filter(|g| g.value > 0.01) {
        violations
            .push(format!("per-layer self times miss unit latency by {:.2}%", g.value * 100.0));
    }

    let mut report = Json::obj([("provenance", provenance)]);
    report.push("end_to_end", metrics::to_json(&e2e));
    if let Some(l) = &layers {
        report.push("per_layer", metrics::to_json(l));
    }
    report.push("runs", Json::Num(runs.len() as f64));
    report.push("violations", Json::Arr(violations.iter().map(|v| Json::str(v)).collect()));
    if let Some(t) = &traced {
        match write_spans(&args, t) {
            Ok(p) => report.push("spans", Json::Str(p.display().to_string())),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    for m in e2e.iter().chain(layers.iter().flatten()) {
        println!("{:<34} {:>16.6} {:<10} {}", m.name, m.value, m.unit, m.note());
    }
    println!("{}", Json::obj([("report", report)]));

    // The contract line: the declared metrics of the requested kind.
    let chosen: &[Metric] = match &layers {
        Some(l) => l,
        None => &e2e,
    };
    let declared = if args.trace { metrics::PER_LAYER } else { metrics::END_TO_END };
    let mut out = Vec::new();
    for name in declared {
        match chosen.iter().find(|m| m.name == *name) {
            Some(m) => out.push((
                *name,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )),
            None => violations.push(format!("metric {name}: too few samples to compute it")),
        }
    }
    let correct = violations.is_empty();
    for v in &violations {
        eprintln!("perfbench: CHECK FAILED: {v}");
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::obj(out)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
