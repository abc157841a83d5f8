//! CI gate: validates the `BENCH_*.json` reports written by the
//! `experiments` bin, dispatching on the top-level `bench` field.
//!
//! Usage: `cargo run -p simcheck --bin benchcheck -- [--json] <BENCH_*.json>`
//!
//! Checks, with the shared parser in [`simcheck::json`]:
//!
//! * `"bench": "kernel"` (`experiments kernel-bench`) — every expected
//!   section is present with positive `work`, `events`, `elapsed_s`, and
//!   `events_per_s`, and each section's `events_per_s` clears a hard
//!   sanity floor, set at roughly 1/10 of a typical release-build run so
//!   host noise cannot flake the gate but an order-of-magnitude kernel
//!   regression (a reintroduced hot-path allocation, an accidental O(n)
//!   queue scan) fails CI. The report must also say where it ran (a
//!   `host` block with `nproc`, `build_profile` and `scale`), and every
//!   section run through the kernel must record run-token handoffs
//!   (`handoffs + self_handoffs > 0`).
//! * `"bench": "consistency"` (`experiments consistency-ablate`) — every
//!   cell of the mode × cache matrix is present with a positive
//!   `reads_per_s`, and the relational claims of the ablation hold:
//!   replica reads beat primary-only reads, and the host-shared node
//!   cache beats the per-client cache under client churn. These are
//!   *claims the docs make*; the gate keeps them true.
//! * `"bench": "coldstart"` (`experiments coldstart`) — the three start
//!   tiers (`classic`, `snapshot`, `fork`) are present with positive
//!   `starts` and `mean_start_ms`, and the tier claims hold: a snapshot
//!   restore collapses the classic cold start by at least 4×, and a fork
//!   undercuts the snapshot restore by at least 2×.
//! * `"bench": "recovery"` (`experiments recovery`) — every checkpoint
//!   cadence row has a positive `recovery_ms` and full `objects`, every
//!   durability level appears in the `overhead` table, and the
//!   durability claims hold: checkpoints at a 500 ms cadence cut
//!   crash-recovery time by at least 1.2× and shrink the replayed log
//!   versus running on the WAL alone, while async group commit stays off
//!   the write path (within 1.2× of no durability at all).
//!
//! Exits non-zero listing each violation — as human-readable lines, or
//! with `--json` as a JSON array of `{section, observed, floor, msg}`
//! objects for tooling to consume.

use std::process::ExitCode;

use simcheck::json::{escape, parse, Json};

/// (section name, minimum events/sec) — the sanity floors.
///
/// Reference numbers from a release build of this workspace's container:
/// wheel_raw ~30M events/s (pure data structure), timer_churn and
/// ping_ring ~150-400k events/s (each event wakes an OS thread, so these
/// are context-switch bound), dso_smoke in the same range with many
/// events per object op. Floors sit an order of magnitude below.
const FLOORS: [(&str, f64); 4] = [
    ("wheel_raw", 2_000_000.0),
    ("timer_churn", 15_000.0),
    ("ping_ring", 15_000.0),
    ("dso_smoke", 15_000.0),
];

/// The one kernel section that bypasses the kernel (the bare timing
/// wheel), so it passes no run token.
const WHEEL_ONLY: &str = "wheel_raw";

/// One gate failure, structured so `--json` output carries the numbers
/// (not just prose) for dashboards and trend tooling.
#[derive(Debug)]
struct Violation {
    /// The bench section at fault; empty for document-level problems.
    section: String,
    /// The offending measured value, when one exists.
    observed: Option<f64>,
    /// The floor it had to clear, for floor violations.
    floor: Option<f64>,
    /// Human-readable description.
    msg: String,
}

impl Violation {
    fn doc(msg: impl Into<String>) -> Violation {
        Violation { section: String::new(), observed: None, floor: None, msg: msg.into() }
    }

    fn section(name: &str, msg: impl Into<String>) -> Violation {
        Violation { section: name.to_string(), observed: None, floor: None, msg: msg.into() }
    }

    /// Human-readable one-liner (the pre-`--json` output format).
    fn human(&self) -> String {
        if self.section.is_empty() {
            self.msg.clone()
        } else {
            format!("{}: {}", self.section, self.msg)
        }
    }

    /// One JSON object; `observed`/`floor` are `null` when inapplicable.
    fn json(&self) -> String {
        let num = |v: Option<f64>| v.map_or("null".to_string(), |n| format!("{n}"));
        format!(
            "{{\"section\": \"{}\", \"observed\": {}, \"floor\": {}, \"msg\": \"{}\"}}",
            escape(&self.section),
            num(self.observed),
            num(self.floor),
            escape(&self.msg)
        )
    }
}

/// The cells `consistency-ablate` must report, and the relational claims
/// over them: `(faster, slower, margin)` — `faster`'s `reads_per_s` must
/// exceed `slower`'s by at least `margin`×.
const CONSISTENCY_ROWS: [&str; 6] = [
    "linearizable/none",
    "replica-reads/none",
    "causal/none",
    "replica-reads/client_cache",
    "bounded-staleness/client_cache",
    "replica-reads/node_cache",
];
const CONSISTENCY_CLAIMS: [(&str, &str, f64); 2] = [
    ("replica-reads/none", "linearizable/none", 1.1),
    ("replica-reads/node_cache", "replica-reads/client_cache", 1.2),
];

/// The start tiers `coldstart` must report, and the latency claims over
/// them: `(slower, faster, margin)` — `slower`'s `mean_start_ms` must be
/// at least `margin`× `faster`'s.
const COLDSTART_MODES: [&str; 3] = ["classic", "snapshot", "fork"];
const COLDSTART_CLAIMS: [(&str, &str, f64); 2] =
    [("classic", "snapshot", 4.0), ("snapshot", "fork", 2.0)];

/// The checkpoint-cadence cells and durability levels `recovery` must
/// report. The claims: recovering from the WAL alone (`none`) must take
/// at least 1.2× as long as recovering atop a 500 ms checkpoint cadence,
/// a tight cadence must replay strictly fewer WAL bytes, and `async`
/// group commit must keep the mean write within 1.2× of no durability.
const RECOVERY_ROWS: [&str; 4] = ["none", "ckpt_2000ms", "ckpt_1000ms", "ckpt_500ms"];
const RECOVERY_LEVELS: [&str; 3] = ["none", "async", "sync"];
const RECOVERY_SPEEDUP: f64 = 1.2;
const ASYNC_OVERHEAD_CAP: f64 = 1.2;

/// Validates the document, dispatching on the `bench` field; returns
/// violations (empty = clean).
fn validate(doc: &Json) -> Vec<Violation> {
    match doc.get("bench").and_then(Json::as_str) {
        Some("kernel") => validate_kernel(doc),
        Some("consistency") => validate_consistency(doc),
        Some("coldstart") => validate_coldstart(doc),
        Some("recovery") => validate_recovery(doc),
        Some(other) => vec![Violation::doc(format!("unknown bench kind \"{other}\""))],
        None => vec![Violation::doc("top-level object lacks a `bench` string")],
    }
}

fn validate_kernel(doc: &Json) -> Vec<Violation> {
    let mut errs = Vec::new();
    let Some(Json::Arr(sections)) = doc.get("sections") else {
        errs.push(Violation::doc("top-level object lacks a `sections` array"));
        return errs;
    };
    let host = doc.get("host");
    if !host.and_then(|h| h.get("nproc")).and_then(Json::as_num).is_some_and(|n| n > 0.0) {
        errs.push(Violation::doc("`host` block lacks a positive `nproc`"));
    }
    for key in ["build_profile", "scale"] {
        if host.and_then(|h| h.get(key)).and_then(Json::as_str).is_none() {
            errs.push(Violation::doc(format!("`host` block lacks a `{key}` string")));
        }
    }
    for (name, floor) in FLOORS {
        let Some(sec) =
            sections.iter().find(|s| s.get("name").and_then(Json::as_str) == Some(name))
        else {
            errs.push(Violation::section(name, "section missing"));
            continue;
        };
        for key in ["work", "events", "elapsed_s", "events_per_s"] {
            match sec.get(key).and_then(Json::as_num) {
                Some(v) if v > 0.0 => {}
                Some(v) => errs.push(Violation {
                    observed: Some(v),
                    ..Violation::section(name, format!("`{key}` must be positive, got {v}"))
                }),
                None => errs.push(Violation::section(name, format!("missing numeric `{key}`"))),
            }
        }
        let handoffs: Option<f64> = ["handoffs", "self_handoffs"]
            .into_iter()
            .map(|key| sec.get(key).and_then(Json::as_num))
            .sum();
        match handoffs {
            None => {
                errs.push(Violation::section(name, "missing numeric `handoffs`/`self_handoffs`"))
            }
            Some(n) if n <= 0.0 && name != WHEEL_ONLY => errs.push(Violation {
                observed: Some(n),
                ..Violation::section(name, "no run-token handoffs recorded through the kernel")
            }),
            Some(_) => {}
        }
        if let Some(rate) = sec.get("events_per_s").and_then(Json::as_num) {
            if rate < floor {
                errs.push(Violation {
                    observed: Some(rate),
                    floor: Some(floor),
                    ..Violation::section(
                        name,
                        format!(
                            "events_per_s {rate:.0} is below the sanity floor {floor:.0} — \
                             kernel throughput regressed by an order of magnitude"
                        ),
                    )
                });
            }
        }
    }
    errs
}

fn validate_consistency(doc: &Json) -> Vec<Violation> {
    let mut errs = Vec::new();
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        errs.push(Violation::doc("top-level object lacks a `rows` array"));
        return errs;
    };
    let rate = |name: &str| -> Option<f64> {
        rows.iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|r| r.get("reads_per_s").and_then(Json::as_num))
    };
    for name in CONSISTENCY_ROWS {
        match rate(name) {
            Some(v) if v > 0.0 => {}
            Some(v) => errs.push(Violation {
                observed: Some(v),
                ..Violation::section(name, format!("`reads_per_s` must be positive, got {v}"))
            }),
            None => {
                errs.push(Violation::section(name, "row missing (or lacks numeric `reads_per_s`)"))
            }
        }
    }
    for (faster, slower, margin) in CONSISTENCY_CLAIMS {
        let (Some(f), Some(s)) = (rate(faster), rate(slower)) else {
            continue; // already reported as missing above
        };
        if f < s * margin {
            errs.push(Violation {
                observed: Some(f),
                floor: Some(s * margin),
                ..Violation::section(
                    faster,
                    format!(
                        "reads_per_s {f:.0} does not beat {slower} ({s:.0}) by the \
                         documented {margin}x margin — the ablation's claim regressed"
                    ),
                )
            });
        }
    }
    errs
}

fn validate_coldstart(doc: &Json) -> Vec<Violation> {
    let mut errs = Vec::new();
    let Some(Json::Arr(modes)) = doc.get("modes") else {
        errs.push(Violation::doc("top-level object lacks a `modes` array"));
        return errs;
    };
    let field = |mode: &str, key: &str| -> Option<f64> {
        modes
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(mode))
            .and_then(|m| m.get(key).and_then(Json::as_num))
    };
    for name in COLDSTART_MODES {
        match field(name, "mean_start_ms") {
            Some(v) if v > 0.0 => {}
            Some(v) => errs.push(Violation {
                observed: Some(v),
                ..Violation::section(name, format!("`mean_start_ms` must be positive, got {v}"))
            }),
            None => errs
                .push(Violation::section(name, "mode missing (or lacks numeric `mean_start_ms`)")),
        }
        match field(name, "starts") {
            Some(v) if v > 0.0 => {}
            Some(v) => errs.push(Violation {
                observed: Some(v),
                ..Violation::section(name, format!("`starts` must be positive, got {v}"))
            }),
            None => errs.push(Violation::section(name, "missing numeric `starts`")),
        }
    }
    for (slower, faster, margin) in COLDSTART_CLAIMS {
        let (Some(s), Some(f)) = (field(slower, "mean_start_ms"), field(faster, "mean_start_ms"))
        else {
            continue; // already reported as missing above
        };
        if f * margin > s {
            errs.push(Violation {
                observed: Some(f),
                floor: Some(s / margin),
                ..Violation::section(
                    faster,
                    format!(
                        "mean_start_ms {f:.1} does not undercut {slower} ({s:.1}) by the \
                         documented {margin}x margin — the cold-start tier's claim regressed"
                    ),
                )
            });
        }
    }
    errs
}

fn validate_recovery(doc: &Json) -> Vec<Violation> {
    let mut errs = Vec::new();
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        errs.push(Violation::doc("top-level object lacks a `rows` array"));
        return errs;
    };
    let row = |name: &str, key: &str| -> Option<f64> {
        rows.iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|r| r.get(key).and_then(Json::as_num))
    };
    for name in RECOVERY_ROWS {
        match row(name, "recovery_ms") {
            Some(v) if v > 0.0 => {}
            Some(v) => errs.push(Violation {
                observed: Some(v),
                ..Violation::section(name, format!("`recovery_ms` must be positive, got {v}"))
            }),
            None => {
                errs.push(Violation::section(name, "row missing (or lacks numeric `recovery_ms`)"))
            }
        }
        match row(name, "objects") {
            Some(v) if v > 0.0 => {}
            Some(v) => errs.push(Violation {
                observed: Some(v),
                ..Violation::section(
                    name,
                    format!("`objects` must be positive, got {v} — recovery lost state"),
                )
            }),
            None => errs.push(Violation::section(name, "missing numeric `objects`")),
        }
    }
    if let (Some(none), Some(ckpt)) = (row("none", "recovery_ms"), row("ckpt_500ms", "recovery_ms"))
    {
        if none < ckpt * RECOVERY_SPEEDUP {
            errs.push(Violation {
                observed: Some(none),
                floor: Some(ckpt * RECOVERY_SPEEDUP),
                ..Violation::section(
                    "none",
                    format!(
                        "recovery_ms {none:.0} is not at least {RECOVERY_SPEEDUP}x \
                         ckpt_500ms ({ckpt:.0}) — checkpoints stopped buying down recovery"
                    ),
                )
            });
        }
    }
    if let (Some(none), Some(ckpt)) =
        (row("none", "replayed_bytes"), row("ckpt_500ms", "replayed_bytes"))
    {
        if ckpt >= none {
            errs.push(Violation {
                observed: Some(ckpt),
                floor: Some(none),
                ..Violation::section(
                    "ckpt_500ms",
                    format!(
                        "replayed_bytes {ckpt:.0} is not below none ({none:.0}) — \
                         checkpoint GC stopped truncating the WAL"
                    ),
                )
            });
        }
    }
    let Some(Json::Arr(overhead)) = doc.get("overhead") else {
        errs.push(Violation::doc("top-level object lacks an `overhead` array"));
        return errs;
    };
    let level = |name: &str, key: &str| -> Option<f64> {
        overhead
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|r| r.get(key).and_then(Json::as_num))
    };
    for name in RECOVERY_LEVELS {
        for key in ["mean_write_ms", "writes"] {
            match level(name, key) {
                Some(v) if v > 0.0 => {}
                Some(v) => errs.push(Violation {
                    observed: Some(v),
                    ..Violation::section(
                        name,
                        format!("overhead `{key}` must be positive, got {v}"),
                    )
                }),
                None => errs
                    .push(Violation::section(name, format!("overhead row lacks numeric `{key}`"))),
            }
        }
    }
    if let (Some(none), Some(async_)) =
        (level("none", "mean_write_ms"), level("async", "mean_write_ms"))
    {
        if async_ > none * ASYNC_OVERHEAD_CAP {
            errs.push(Violation {
                observed: Some(async_),
                floor: Some(none * ASYNC_OVERHEAD_CAP),
                ..Violation::section(
                    "async",
                    format!(
                        "mean_write_ms {async_:.3} exceeds {ASYNC_OVERHEAD_CAP}x the \
                         no-durability mean ({none:.3}) — async logging leaked onto \
                         the write path"
                    ),
                )
            });
        }
    }
    errs
}

/// Prints the violations in the selected format and returns the exit
/// code. With `--json` even read/parse failures come out as a one-element
/// violation array, so a consumer can always parse stdout.
fn report(path: &str, errs: &[Violation], json: bool) -> ExitCode {
    if json {
        let body = errs.iter().map(Violation::json).collect::<Vec<_>>().join(",\n  ");
        if errs.is_empty() {
            println!("[]");
        } else {
            println!("[\n  {body}\n]");
        }
    } else {
        for e in errs {
            println!("{path}: {}", e.human());
        }
        if errs.is_empty() {
            println!("benchcheck: {path}: clean");
        } else {
            println!("benchcheck: {path}: {} violation(s)", errs.len());
        }
    }
    if errs.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = true;
        } else {
            path = Some(arg);
        }
    }
    let Some(path) = path else {
        eprintln!("usage: benchcheck [--json] <BENCH_kernel.json>");
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            return report(&path, &[Violation::doc(format!("cannot read {path}: {e}"))], json);
        }
    };
    let doc = match parse(&src) {
        Ok(d) => d,
        Err(e) => {
            return report(&path, &[Violation::doc(format!("malformed JSON: {e}"))], json);
        }
    };
    report(&path, &validate(&doc), json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rate: f64) -> String {
        let sections = FLOORS
            .iter()
            .map(|(name, _)| {
                format!(
                    "{{\"name\": \"{name}\", \"work\": 1000, \"work_unit\": \"x\", \
                     \"events\": 1000, \"elapsed_s\": 0.001, \"events_per_s\": {rate}, \
                     \"handoffs\": 10, \"self_handoffs\": 5}}"
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!("{{\"bench\": \"kernel\", {HOST}, \"sections\": [{sections}]}}")
    }

    const HOST: &str =
        "\"host\": {\"nproc\": 2, \"build_profile\": \"release\", \"scale\": \"quick\"}";

    #[test]
    fn accepts_a_healthy_report() {
        let errs = validate(&parse(&doc(50_000_000.0)).unwrap());
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn rejects_a_throughput_collapse() {
        let errs = validate(&parse(&doc(10.0)).unwrap());
        assert_eq!(errs.len(), FLOORS.len(), "{:?}", humans(&errs));
        assert!(errs[0].msg.contains("below the sanity floor"));
        // Floor violations carry the numbers, not just prose.
        assert_eq!(errs[0].section, "wheel_raw");
        assert_eq!(errs[0].observed, Some(10.0));
        assert_eq!(errs[0].floor, Some(2_000_000.0));
    }

    #[test]
    fn rejects_a_report_without_host_or_handoffs() {
        let src = doc(50_000_000.0).replace(HOST, "\"scale\": \"quick\"");
        let errs = validate(&parse(&src).unwrap());
        assert_eq!(errs.len(), 3, "{:?}", humans(&errs));
        assert!(errs.iter().all(|e| e.section.is_empty() && e.msg.contains("`host` block")));
        // Zero handoffs is only plausible for the wheel-only section.
        let src = doc(50_000_000.0).replace(
            "\"handoffs\": 10, \"self_handoffs\": 5",
            "\"handoffs\": 0, \"self_handoffs\": 0",
        );
        let errs = validate(&parse(&src).unwrap());
        assert_eq!(errs.len(), FLOORS.len() - 1, "{:?}", humans(&errs));
        assert!(errs.iter().all(|e| e.section != WHEEL_ONLY && e.msg.contains("handoffs")));
        let src = doc(50_000_000.0).replacen("\"self_handoffs\": 5", "\"self\": 5", 1);
        let errs = validate(&parse(&src).unwrap());
        assert_eq!(errs.len(), 1, "{:?}", humans(&errs));
        assert!(errs[0].msg.contains("missing numeric `handoffs`/`self_handoffs`"));
    }

    #[test]
    fn rejects_missing_sections_and_fields() {
        let src = format!("{{\"bench\": \"kernel\", {HOST}, \"sections\": []}}");
        let errs = validate(&parse(&src).unwrap());
        assert_eq!(errs.len(), FLOORS.len());
        let src = "{\"bench\": \"elastic\", \"sections\": [{\"name\": \"wheel_raw\", \
                    \"events_per_s\": 1e9}]}";
        let errs = validate(&parse(src).unwrap());
        assert!(
            errs.iter().any(|e| e.msg.contains("unknown bench kind \"elastic\"")),
            "{:?}",
            humans(&errs)
        );
        let src = "{\"bench\": \"kernel\", \"sections\": [{\"name\": \"wheel_raw\", \
                    \"events_per_s\": 1e9}]}";
        let errs = validate(&parse(src).unwrap());
        assert!(
            errs.iter()
                .any(|e| e.section == "wheel_raw" && e.msg.contains("missing numeric `work`")),
            "{:?}",
            humans(&errs)
        );
    }

    /// A consistency report with every required row, `node` and `client`
    /// setting the two cache-tier rates (the rest fixed and healthy).
    fn consistency_doc(node: f64, client: f64) -> String {
        let rate = |name: &str| match name {
            "replica-reads/node_cache" => node,
            "replica-reads/client_cache" => client,
            "linearizable/none" => 30_000.0,
            _ => 40_000.0,
        };
        let rows = CONSISTENCY_ROWS
            .iter()
            .map(|name| {
                format!(
                    "{{\"name\": \"{name}\", \"mode\": \"x\", \"cache\": \"x\", \
                     \"reads_per_s\": {}, \"mean_read_latency_s\": 0.0001}}",
                    rate(name)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!("{{\"bench\": \"consistency\", \"scale\": \"quick\", \"rows\": [{rows}]}}")
    }

    #[test]
    fn accepts_a_healthy_consistency_report() {
        let errs = validate(&parse(&consistency_doc(700_000.0, 120_000.0)).unwrap());
        assert!(errs.is_empty(), "{:?}", humans(&errs));
    }

    #[test]
    fn rejects_a_node_cache_that_stopped_beating_the_client_cache() {
        let errs = validate(&parse(&consistency_doc(120_000.0, 120_000.0)).unwrap());
        assert_eq!(errs.len(), 1, "{:?}", humans(&errs));
        assert_eq!(errs[0].section, "replica-reads/node_cache");
        assert!(errs[0].msg.contains("does not beat replica-reads/client_cache"));
        assert_eq!(errs[0].observed, Some(120_000.0));
        assert_eq!(errs[0].floor, Some(120_000.0 * 1.2));
    }

    #[test]
    fn rejects_missing_or_stalled_consistency_rows() {
        let errs = validate(&parse("{\"bench\": \"consistency\", \"rows\": []}").unwrap());
        assert_eq!(errs.len(), CONSISTENCY_ROWS.len(), "{:?}", humans(&errs));
        assert!(errs[0].msg.contains("row missing"));
        let doc = consistency_doc(700_000.0, 0.0);
        let errs = validate(&parse(&doc).unwrap());
        assert!(
            errs.iter()
                .any(|e| e.section == "replica-reads/client_cache"
                    && e.msg.contains("must be positive")),
            "{:?}",
            humans(&errs)
        );
    }

    fn humans(errs: &[Violation]) -> Vec<String> {
        errs.iter().map(Violation::human).collect()
    }

    /// A coldstart report with all three tiers at the given means.
    fn coldstart_doc(classic: f64, snapshot: f64, fork: f64) -> String {
        let mean = |name: &str| match name {
            "classic" => classic,
            "snapshot" => snapshot,
            _ => fork,
        };
        let modes = COLDSTART_MODES
            .iter()
            .map(|name| {
                format!(
                    "{{\"name\": \"{name}\", \"starts\": 48, \"mean_start_ms\": {}, \
                     \"p50_ms\": 1.0, \"p90_ms\": 2.0, \"p99_ms\": 3.0, \"cdf_ms\": [1.0], \
                     \"gb_seconds\": 10.0, \"idle_gb_seconds\": 0.0, \
                     \"snapshot_gb_seconds\": 0.0, \"faas_cost_usd\": 0.01}}",
                    mean(name)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!("{{\"bench\": \"coldstart\", \"phase_secs\": 15, \"modes\": [{modes}]}}")
    }

    #[test]
    fn accepts_a_healthy_coldstart_report() {
        let errs = validate(&parse(&coldstart_doc(1500.0, 210.0, 25.0)).unwrap());
        assert!(errs.is_empty(), "{:?}", humans(&errs));
    }

    #[test]
    fn rejects_a_restore_that_stopped_collapsing_the_cold_start() {
        let errs = validate(&parse(&coldstart_doc(1500.0, 600.0, 25.0)).unwrap());
        assert_eq!(errs.len(), 1, "{:?}", humans(&errs));
        assert_eq!(errs[0].section, "snapshot");
        assert!(errs[0].msg.contains("does not undercut classic"));
        assert_eq!(errs[0].observed, Some(600.0));
        assert_eq!(errs[0].floor, Some(1500.0 / 4.0));
    }

    #[test]
    fn rejects_a_fork_that_stopped_undercutting_the_restore() {
        let errs = validate(&parse(&coldstart_doc(1500.0, 210.0, 150.0)).unwrap());
        assert_eq!(errs.len(), 1, "{:?}", humans(&errs));
        assert_eq!(errs[0].section, "fork");
        assert!(errs[0].msg.contains("does not undercut snapshot"));
    }

    #[test]
    fn rejects_missing_or_stalled_coldstart_modes() {
        let errs = validate(&parse("{\"bench\": \"coldstart\", \"modes\": []}").unwrap());
        assert_eq!(errs.len(), COLDSTART_MODES.len() * 2, "{:?}", humans(&errs));
        assert!(errs[0].msg.contains("mode missing"));
        let errs = validate(&parse(&coldstart_doc(1500.0, 0.0, 25.0)).unwrap());
        assert!(
            errs.iter().any(|e| e.section == "snapshot" && e.msg.contains("must be positive")),
            "{:?}",
            humans(&errs)
        );
    }

    /// A recovery report with the `none` and `ckpt_500ms` recovery times
    /// and the async mean write latency as knobs (the rest healthy).
    fn recovery_doc(none_ms: f64, ckpt500_ms: f64, async_write_ms: f64) -> String {
        let rows = RECOVERY_ROWS
            .iter()
            .map(|name| {
                let (ms, bytes) = match *name {
                    "none" => (none_ms, 50_000),
                    "ckpt_500ms" => (ckpt500_ms, 13_000),
                    _ => (5_000.0, 26_000),
                };
                format!(
                    "{{\"name\": \"{name}\", \"checkpoint_ms\": 500, \"recovery_ms\": {ms}, \
                     \"replayed_bytes\": {bytes}, \"wal_segments\": 100, \"objects\": 16}}"
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let overhead = RECOVERY_LEVELS
            .iter()
            .map(|name| {
                let ms = match *name {
                    "async" => async_write_ms,
                    "sync" => 55.0,
                    _ => 0.4,
                };
                format!("{{\"name\": \"{name}\", \"mean_write_ms\": {ms}, \"writes\": 1000}}")
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"bench\": \"recovery\", \"scale\": \"quick\", \"rows\": [{rows}], \
             \"overhead\": [{overhead}]}}"
        )
    }

    #[test]
    fn accepts_a_healthy_recovery_report() {
        let errs = validate(&parse(&recovery_doc(8_600.0, 3_500.0, 0.41)).unwrap());
        assert!(errs.is_empty(), "{:?}", humans(&errs));
    }

    #[test]
    fn rejects_checkpoints_that_stopped_buying_down_recovery() {
        let errs = validate(&parse(&recovery_doc(3_600.0, 3_500.0, 0.41)).unwrap());
        assert_eq!(errs.len(), 1, "{:?}", humans(&errs));
        assert_eq!(errs[0].section, "none");
        assert!(errs[0].msg.contains("checkpoints stopped buying down recovery"));
        assert_eq!(errs[0].observed, Some(3_600.0));
        assert_eq!(errs[0].floor, Some(3_500.0 * RECOVERY_SPEEDUP));
    }

    #[test]
    fn rejects_async_logging_that_leaked_onto_the_write_path() {
        let errs = validate(&parse(&recovery_doc(8_600.0, 3_500.0, 5.0)).unwrap());
        assert_eq!(errs.len(), 1, "{:?}", humans(&errs));
        assert_eq!(errs[0].section, "async");
        assert!(errs[0].msg.contains("leaked onto"));
    }

    #[test]
    fn rejects_missing_or_lossy_recovery_rows() {
        let errs =
            validate(&parse("{\"bench\": \"recovery\", \"rows\": [], \"overhead\": []}").unwrap());
        assert_eq!(
            errs.len(),
            RECOVERY_ROWS.len() * 2 + RECOVERY_LEVELS.len() * 2,
            "{:?}",
            humans(&errs)
        );
        assert!(errs[0].msg.contains("row missing"));
        // A cadence row that came back with zero objects is lost state.
        let doc = recovery_doc(8_600.0, 3_500.0, 0.41)
            .replace("\"ckpt_500ms\", \"checkpoint_ms\": 500, \"recovery_ms\": 3500, \"replayed_bytes\": 13000, \"wal_segments\": 100, \"objects\": 16", "\"ckpt_500ms\", \"checkpoint_ms\": 500, \"recovery_ms\": 3500, \"replayed_bytes\": 13000, \"wal_segments\": 100, \"objects\": 0");
        let errs = validate(&parse(&doc).unwrap());
        assert!(
            errs.iter().any(|e| e.section == "ckpt_500ms" && e.msg.contains("lost state")),
            "{:?}",
            humans(&errs)
        );
    }

    #[test]
    fn json_output_is_parseable_and_structured() {
        let errs = validate(&parse(&doc(10.0)).unwrap());
        let body = errs.iter().map(Violation::json).collect::<Vec<_>>().join(",");
        let arr = parse(&format!("[{body}]")).expect("emitted JSON parses");
        let Json::Arr(items) = arr else { panic!("array expected") };
        assert_eq!(items.len(), FLOORS.len());
        let first = &items[0];
        assert_eq!(first.get("section").and_then(Json::as_str), Some("wheel_raw"));
        assert_eq!(first.get("observed").and_then(Json::as_num), Some(10.0));
        assert_eq!(first.get("floor").and_then(Json::as_num), Some(2_000_000.0));
        assert!(first.get("msg").and_then(Json::as_str).unwrap().contains("sanity floor"));
        // A doc-level violation nulls the inapplicable fields.
        let v = Violation::doc("malformed").json();
        let obj = parse(&v).unwrap();
        assert_eq!(obj.get("section").and_then(Json::as_str), Some(""));
        assert_eq!(obj.get("observed"), Some(&Json::Null));
    }
}
