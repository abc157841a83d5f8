//! Runs the benchmark binary twice per workload on one seed and checks
//! that every virtual-time metric prints identically; only host-clock
//! metrics may differ. The binary runs at its measured sizes with
//! `--seconds 1` (two repeats per invocation), so run these tests with
//! `--release`: kv_mix takes about 8 s per invocation there.

use std::process::Command;

/// Host-clock metrics: the only ones allowed to differ between runs.
const HOST_CLOCK: &[&str] = &["setup_s", "host_ops_per_s", "peak_rss_mb"];

/// The `end_to_end` object of the report line, as `name -> raw JSON`.
fn end_to_end(workload: &str, seed: &str) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with(r#"{"correct": true"#), "{last}");
    let report = stdout.lines().find(|l| l.starts_with(r#"{"report""#)).expect("a report line");
    let e2e = &report[report.find(r#""end_to_end": {"#).expect("end_to_end section")..];
    // Each metric is `"name": {...}` with no nested braces inside.
    let body = &e2e[e2e.find('{').expect("object") + 1..];
    let mut metrics = Vec::new();
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let name_end = rest[q + 1..].find('"').expect("closing quote") + q + 1;
        let name = rest[q + 1..name_end].to_string();
        let open = rest[name_end..].find('{').expect("metric object") + name_end;
        let close = rest[open..].find('}').expect("metric end") + open;
        metrics.push((name, rest[open..=close].to_string()));
        rest = &rest[close + 1..];
        if rest.trim_start().starts_with('}') {
            break;
        }
    }
    metrics
}

fn virtual_only(m: Vec<(String, String)>) -> Vec<(String, String)> {
    m.into_iter().filter(|(k, _)| !HOST_CLOCK.contains(&k.as_str())).collect()
}

#[test]
fn virtual_metrics_depend_on_the_seed_alone() {
    for w in ["kv_mix", "bsp_fanout", "serve_open"] {
        let a = virtual_only(end_to_end(w, "11"));
        let b = virtual_only(end_to_end(w, "11"));
        assert!(a.len() >= 5, "{w}: too few metrics parsed: {a:?}");
        assert_eq!(a, b, "{w}: virtual metrics differ between two runs of seed 11");
        if w == "kv_mix" {
            let c = virtual_only(end_to_end(w, "12"));
            assert_ne!(a, c, "seed must change the generated inputs");
        }
    }
}
