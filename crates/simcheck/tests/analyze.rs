//! Meta-tests for the analyzer (`simcheck::analyze`): each fixture tree
//! yields exactly its planted findings — including the chain a
//! line-regex provably cannot catch — reasoned allow directives are
//! honored and reasonless ones are not, the good tree proves the planted
//! methods pure, and the shipped workspace itself analyzes clean (the
//! gate `simanalyze` enforces in CI).

use std::path::{Path, PathBuf};

use simcheck::analyze::{analyze_tree, Analysis};
use simcheck::Rule;

fn fixture(sub: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(sub)
}

/// `(file name, line, rule)` for every finding, sorted.
fn finding_set(analysis: &Analysis) -> Vec<(String, usize, Rule)> {
    let mut got: Vec<(String, usize, Rule)> = analysis
        .findings
        .iter()
        .map(|f| (f.file.rsplit('/').next().unwrap_or(&f.file).to_string(), f.line, f.rule))
        .collect();
    got.sort();
    got
}

fn owned(want: &[(&str, usize, Rule)]) -> Vec<(String, usize, Rule)> {
    let mut want: Vec<(String, usize, Rule)> =
        want.iter().map(|&(f, l, r)| (f.to_string(), l, r)).collect();
    want.sort();
    want
}

#[test]
fn fixture_tree_yields_exactly_the_planted_findings() {
    let analysis = analyze_tree(&fixture("tree")).expect("walk fixtures");
    let want = owned(&[
        ("bad_allow.rs", 5, Rule::BadAllow),
        ("bad_allow.rs", 6, Rule::WallClock),
        ("panics.rs", 6, Rule::NoPanic),
        ("panics.rs", 10, Rule::NoPanic),
        ("protocol.rs", 7, Rule::SerdeDerive),
        ("reconcile.rs", 7, Rule::WallClock),
        ("sneaky.rs", 7, Rule::ReadonlyImpure),
        ("threads.rs", 4, Rule::NativeThread),
        ("traced.rs", 6, Rule::TraceTime),
        ("wall.rs", 5, Rule::WallClock),
        ("wall.rs", 6, Rule::WallClock),
        ("wheel.rs", 12, Rule::WallClock),
    ]);
    assert_eq!(finding_set(&analysis), want, "full findings: {:#?}", analysis.findings);
    // allowed.rs is covered by the absence of any finding for it above,
    // and traced.rs:8 by its reasoned trace-time allow: `t0.elapsed()` is
    // a method call and never resolves to wall.rs's free `elapsed()`.
    assert!(!analysis.findings.iter().any(|f| f.file.contains("allowed.rs")));
}

#[test]
fn fixture_findings_carry_lines_and_messages() {
    let analysis = analyze_tree(&fixture("tree")).expect("walk fixtures");
    let sneaky =
        analysis.findings.iter().find(|f| f.rule == Rule::ReadonlyImpure).expect("planted");
    assert!(sneaky.msg.contains("peek"), "{}", sneaky.msg);
    let wall: Vec<usize> =
        analysis.findings.iter().filter(|f| f.file.contains("wall.rs")).map(|f| f.line).collect();
    assert_eq!(wall, vec![5, 6], "one finding per offending line");
}

#[test]
fn bad_tree_yields_exactly_the_planted_findings() {
    let analysis = analyze_tree(&fixture("analyze/bad")).expect("walk fixtures");
    let want = owned(&[
        ("impure.rs", 11, Rule::ReadonlyImpure),
        ("lease.rs", 9, Rule::WallClock),
        ("lease.rs", 15, Rule::DeterminismTaint),
        ("nondet.rs", 13, Rule::DeterminismTaint),
        ("protocol.rs", 4, Rule::SerdeDerive),
        ("protocol.rs", 9, Rule::SerdeDerive),
        ("protocol.rs", 14, Rule::SerdeDerive),
        ("protocol.rs", 19, Rule::SerdeDerive),
        ("restore.rs", 10, Rule::WallClock),
        ("restore.rs", 20, Rule::DeterminismTaint),
        ("taint_chain.rs", 7, Rule::WallClock),
        ("taint_chain.rs", 16, Rule::DeterminismTaint),
        ("waits.rs", 6, Rule::WaitAnnotation),
        ("walseg.rs", 11, Rule::WallClock),
        ("walseg.rs", 16, Rule::DeterminismTaint),
    ]);
    assert_eq!(finding_set(&analysis), want, "full findings: {:#?}", analysis.findings);
    // The lying object must not be certified pure.
    assert!(analysis.pure.entries.is_empty(), "bad tree proved: {:?}", analysis.pure.entries);
}

#[test]
fn interprocedural_taint_is_beyond_any_line_regex() {
    let analysis = analyze_tree(&fixture("analyze/bad")).expect("walk fixtures");
    let f = analysis
        .findings
        .iter()
        .find(|f| f.file.ends_with("taint_chain.rs") && f.rule == Rule::DeterminismTaint)
        .expect("planted chain finding");
    // The finding sits in `announce`, two calls away from the clock read:
    // no token of the flagged construct names a clock API, and the trace
    // in the message walks the chain back to the true source.
    assert!(f.msg.contains("Announce"), "{}", f.msg);
    assert!(f.msg.contains("stamp_ms"), "{}", f.msg);
    assert!(f.msg.contains("raw_clock_ms"), "{}", f.msg);
    assert!(f.msg.contains("SystemTime::now"), "{}", f.msg);
}

#[test]
fn wall_clock_laundered_into_a_lease_field_is_caught() {
    let analysis = analyze_tree(&fixture("analyze/bad")).expect("walk fixtures");
    let f = analysis
        .findings
        .iter()
        .find(|f| f.file.ends_with("lease.rs") && f.rule == Rule::DeterminismTaint)
        .expect("planted lease finding");
    // The finding sits at the `ReadStamp` wire literal, and the trace
    // names the laundering helper and the true clock source.
    assert!(f.msg.contains("ReadStamp"), "{}", f.msg);
    assert!(f.msg.contains("lease_deadline_ms"), "{}", f.msg);
    assert!(f.msg.contains("SystemTime::now"), "{}", f.msg);
}

#[test]
fn wall_clock_laundered_into_a_restore_cost_is_caught() {
    let analysis = analyze_tree(&fixture("analyze/bad")).expect("walk fixtures");
    let f = analysis
        .findings
        .iter()
        .find(|f| f.file.ends_with("restore.rs") && f.rule == Rule::DeterminismTaint)
        .expect("planted restore finding");
    // The finding sits at the `RestoreBill` wire literal; the trace walks
    // through the cost helper and the dirty-page estimator back to the
    // true clock source.
    assert!(f.msg.contains("RestoreBill"), "{}", f.msg);
    assert!(f.msg.contains("restore_cost_ms"), "{}", f.msg);
    assert!(f.msg.contains("pages_since_snapshot"), "{}", f.msg);
    assert!(f.msg.contains("SystemTime::now"), "{}", f.msg);
}

#[test]
fn wall_clock_laundered_into_a_wal_header_is_caught() {
    let analysis = analyze_tree(&fixture("analyze/bad")).expect("walk fixtures");
    let f = analysis
        .findings
        .iter()
        .find(|f| f.file.ends_with("walseg.rs") && f.rule == Rule::DeterminismTaint)
        .expect("planted WAL-header finding");
    // The finding sits at the `WalSegmentHeader` wire literal; the trace
    // names the seal-time helper and the true clock source.
    assert!(f.msg.contains("WalSegmentHeader"), "{}", f.msg);
    assert!(f.msg.contains("sealed_at_ms"), "{}", f.msg);
    assert!(f.msg.contains("SystemTime::now"), "{}", f.msg);
}

#[test]
fn marked_nondet_source_taints_through_a_local() {
    let analysis = analyze_tree(&fixture("analyze/bad")).expect("walk fixtures");
    let f = analysis
        .findings
        .iter()
        .find(|f| f.file.ends_with("nondet.rs") && f.rule == Rule::DeterminismTaint)
        .expect("planted marker finding");
    assert!(f.msg.contains("host_entropy"), "{}", f.msg);
    assert!(f.msg.contains("send"), "{}", f.msg);
}

#[test]
fn good_tree_is_clean_and_proves_purity() {
    let analysis = analyze_tree(&fixture("analyze/good")).expect("walk fixtures");
    // Its only finding is the line rule on the derive-less wire type; the
    // interprocedural passes find nothing.
    let want = owned(&[("protocol.rs", 3, Rule::SerdeDerive)]);
    assert_eq!(finding_set(&analysis), want, "full findings: {:#?}", analysis.findings);
    // The honest readonly methods — including the one that delegates to a
    // `&self` helper — are certified pure.
    assert!(analysis.pure.entries.contains(&("Counter".to_string(), "get".to_string())));
    assert!(analysis.pure.entries.contains(&("Counter".to_string(), "summary".to_string())));
    // Purity certificates cover declared-readonly methods only.
    assert!(!analysis.pure.entries.contains(&("Counter".to_string(), "bump".to_string())));
}

#[test]
fn pure_report_text_round_trips() {
    let analysis = analyze_tree(&fixture("analyze/good")).expect("walk fixtures");
    let text = analysis.pure.to_text();
    assert!(text.starts_with('#'), "header comment first: {text}");
    assert!(text.contains("Counter get\n"), "{text}");
    assert!(text.contains("Counter summary\n"), "{text}");
}

#[test]
fn allow_census_stays_at_three() {
    // Every `simlint: allow` escape hatch in shipped code, by file. The
    // census keeps the list deliberate: a new allow (or a directive that
    // stopped being needed) must update this test alongside its reason.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let files = simcheck::analyze::read_tree(&root).expect("walk crates");
    let mut allows: Vec<String> = Vec::new();
    for (path, src) in &files {
        for t in simcheck::lex::lex(src) {
            if !matches!(t.kind, simcheck::lex::TokKind::LineComment) {
                continue;
            }
            let body = t.text(src).trim_start_matches('/').trim();
            if body.starts_with("simlint: allow(") {
                // read_tree shows paths relative to the walk root's
                // parent; keep only the crate-relative tail.
                allows.push(path.trim_start_matches("../").to_string());
            }
        }
    }
    allows.sort();
    assert_eq!(
        allows,
        vec![
            "apps/ports/monte_carlo_local.rs".to_string(),
            "bench/src/bin/experiments.rs".to_string(),
            "bench/src/experiments/kernelbench.rs".to_string(),
        ],
        "unexpected allow census"
    );
}

#[test]
fn workspace_analyzes_clean() {
    // The real gate: the shipped sources must pass every pass — line
    // rules included — the same invariant `simanalyze` enforces in ci.sh.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let analysis = analyze_tree(&root).expect("walk crates");
    assert!(
        analysis.findings.is_empty(),
        "workspace analyzer violations:\n{}",
        analysis.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    // The purity pass keeps certifying the builtin read-only surface the
    // DSO runtime consumes (spot-check a few anchors, not the full list,
    // so adding objects does not churn this test).
    for (ty, m) in [("AtomicLong", "get"), ("MapObject", "size"), ("ListObject", "get")] {
        assert!(
            analysis.pure.entries.contains(&(ty.to_string(), m.to_string())),
            "expected {ty}::{m} proven pure; got {:?}",
            analysis.pure.entries
        );
    }
}
