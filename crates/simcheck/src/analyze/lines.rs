//! Pass 1: token-local convention rules.
//!
//! Each rule matches the file's code tokens (comments skipped; a literal
//! is a single token, so text inside a string never matches) and reports
//! at most one finding per line:
//!
//! - `wall-clock` — `<Clock>::now` or `std::time::<Clock>` for a host
//!   clock type in [`CLOCK_TYPES`], anywhere: simulated code must use
//!   virtual time.
//! - `native-thread` — `thread::spawn` / `thread::Builder` outside
//!   `simcore/src/kernel.rs` (the kernel's processes *are* OS threads;
//!   everything else spawns simulation processes).
//! - `no-panic` — `.unwrap()`, `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!` in non-test `dso/src` code, and `.expect(` there
//!   without an `// invariant:` comment within the three lines above. A
//!   panicking worker wedges the whole simulated node.
//! - `serde-derive` — a `pub struct`/`pub enum` in a `protocol.rs` without
//!   `#[derive(Serialize, Deserialize)]`: wire types must survive a real
//!   codec boundary.
//! - `trace-time` — a trace or metric sink call ([`sink_kind`]) on the
//!   same line as a host clock (a [`CLOCK_TYPES`] name or `.elapsed()`).
//!   One host-derived duration in a histogram makes exports differ run to
//!   run, and the leak is reachable even where the clock read itself
//!   carries a `wall-clock` allow (the bench driver's operator timer).

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;

use super::taint::{sink_kind, CLOCK_TYPES, METRICS, TRACE};
use super::Workspace;
use crate::lex::{lex, Tok, TokKind};
use crate::syntax::FileAst;
use crate::{Finding, Rule};

/// Panicking constructs banned on the DSO path.
const PANICS: [&str; 5] = [".unwrap()", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for fi in 0..ws.files.len() {
        check_file(ws, fi, &mut findings);
    }
    findings
}

/// A file's code tokens: everything but comments.
struct Code<'a> {
    src: &'a str,
    toks: Vec<&'a Tok>,
}

impl Code<'_> {
    /// Lines where the code spells one of `pats` (whitespace between
    /// tokens ignored), each mapped to the first pattern in `pats` order
    /// found on it.
    fn lines<'p, S: AsRef<str>>(&self, pats: &'p [S]) -> BTreeMap<usize, &'p str> {
        let mut out = BTreeMap::new();
        for pat in pats {
            let pat = pat.as_ref();
            let want: Vec<&str> = lex(pat).iter().map(|t| t.text(pat)).collect();
            for w in self.toks.windows(want.len()) {
                if w.iter().zip(&want).all(|(t, p)| t.text(self.src) == *p) {
                    out.entry(w[0].line as usize).or_insert(pat);
                }
            }
        }
        out
    }
}

fn check_file(ws: &Workspace, fi: usize, findings: &mut Vec<Finding>) {
    let file = &ws.files[fi];
    let path = file.path.as_str();
    let src = file.src.as_str();
    let code = Code {
        src,
        toks: file
            .toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect(),
    };
    let mut report = |rule: Rule, line: usize, msg: String| {
        if !ws.allowed(fi, rule, line) {
            findings.push(Finding { file: path.to_string(), line, rule, msg });
        }
    };

    let clock_reads: Vec<String> = CLOCK_TYPES
        .iter()
        .map(|c| format!("{c}::now"))
        .chain(CLOCK_TYPES.iter().map(|c| format!("std::time::{c}")))
        .collect();
    for (line, pat) in code.lines(&clock_reads) {
        let msg = format!("wall-clock read ({pat}) breaks determinism; use virtual time");
        report(Rule::WallClock, line, msg);
    }

    if !path.ends_with("simcore/src/kernel.rs") {
        for line in code.lines(&["thread::spawn", "thread::Builder"]).into_keys() {
            let msg = "native thread spawn outside the kernel; spawn a simulation process";
            report(Rule::NativeThread, line, msg.to_string());
        }
    }

    if path.contains("dso/src") {
        let tests = test_lines(file);
        let invariant = invariant_lines(file);
        let panics = code.lines(&PANICS);
        let expects = code.lines(&[".expect("]);
        let lines: BTreeSet<usize> = panics.keys().chain(expects.keys()).copied().collect();
        for line in lines.into_iter().filter(|l| !tests.contains(l)) {
            if let Some(pat) = panics.get(&line) {
                let msg =
                    format!("{pat}..) on the DSO path; return a DsoError/ObjectError instead");
                report(Rule::NoPanic, line, msg);
            } else if !invariant.contains(&line) {
                let msg =
                    ".expect() without an `// invariant:` comment documenting why it cannot fail";
                report(Rule::NoPanic, line, msg.to_string());
            }
        }
    }

    if Path::new(path).file_name().is_some_and(|n| n == "protocol.rs") {
        for s in file.structs.iter().filter(|s| s.is_pub && !s.is_test) {
            let derives = |d: &str| s.derives.iter().any(|x| x == d);
            if !(derives("Serialize") && derives("Deserialize")) {
                let msg =
                    format!("protocol type {} lacks #[derive(Serialize, Deserialize)]", s.name);
                report(Rule::SerdeDerive, s.line as usize, msg);
            }
        }
    }

    let host_clocks: Vec<&str> = CLOCK_TYPES.iter().copied().chain([".elapsed()"]).collect();
    let hosts = code.lines(&host_clocks);
    let mut sinks = BTreeMap::new();
    for w in code.toks.windows(2) {
        let name = w[0].text(src);
        if w[0].kind == TokKind::Ident
            && w[1].is_punct(src, b'(')
            && matches!(sink_kind(name), Some(TRACE | METRICS))
        {
            sinks.entry(w[0].line as usize).or_insert(name);
        }
    }
    for (line, sink) in sinks {
        if let Some(host) = hosts.get(&line) {
            let msg = format!("{sink} fed from {host}; stamp spans/metrics with SimTime only");
            report(Rule::TraceTime, line, msg);
        }
    }
}

/// Lines spanned by test fns (`#[test]`, or inside a `#[cfg(test)]` mod).
fn test_lines(file: &FileAst) -> HashSet<usize> {
    let spans = file.fns.iter().filter(|f| f.is_test).filter_map(|f| {
        let (_, hi) = f.body?;
        Some(f.line as usize..=file.toks[hi - 1].line as usize)
    });
    spans.flatten().collect()
}

/// Lines covered by an `// invariant:` comment: its own and the next
/// three, since the comment may run a few lines before the `expect`.
fn invariant_lines(file: &FileAst) -> HashSet<usize> {
    file.comment_lines()
        .filter(|(_, text)| text.contains("invariant:"))
        .flat_map(|(line, _)| line..=line + 3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::analyze_src;
    use crate::Rule;

    #[test]
    fn wall_clock_flagged_and_allowed() {
        let f = analyze_src("crates/x/src/a.rs", "let t = Instant::now();\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::WallClock);
        assert_eq!(f[0].line, 1);
        let src = "// simlint: allow(wall-clock, reason = \"operator wall time\")\nlet t = Instant::now();\n";
        assert!(analyze_src("crates/x/src/a.rs", src).is_empty());
        // In a string or comment it is no violation at all.
        let src = "let t = \"Instant::now\"; // Instant::now()\n";
        assert!(analyze_src("crates/x/src/a.rs", src).is_empty());
        // A `std::time` path names the clock even without `::now`.
        let f = analyze_src("crates/x/src/a.rs", "fn f(t: std::time::SystemTime) {}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("std::time::SystemTime"), "{}", f[0].msg);
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = "// simlint: allow(wall-clock)\nlet t = Instant::now();\n";
        let f = analyze_src("crates/x/src/a.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::BadAllow), "{f:?}");
        assert!(f.iter().any(|f| f.rule == Rule::WallClock), "unreasoned allow must not suppress");
        let src = "// simlint: allow(frobnicate, reason = \"x\")\n";
        let f = analyze_src("crates/x/src/a.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::BadAllow && f.msg.contains("unknown rule")));
        // The retired regex rule's name is no longer a rule.
        let src = "// simlint: allow(readonly-mutation, reason = \"x\")\n";
        let f = analyze_src("crates/x/src/a.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::BadAllow && f.msg.contains("unknown rule")));
    }

    #[test]
    fn trace_time_flagged_and_allowed() {
        let f = analyze_src("crates/x/src/a.rs", "ctx.metric_record(\"m\", t0.elapsed());\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::TraceTime);
        assert!(f[0].msg.contains("SimTime"), "{}", f[0].msg);
        let src = "// simlint: allow(trace-time, reason = \"host duration\")\n\
                   ctx.metric_record(\"m\", t0.elapsed());\n";
        assert!(analyze_src("crates/x/src/a.rs", src).is_empty());
        // SimTime-derived durations are no violation.
        let ok = "ctx.metric_record(\"m\", ctx.now() - t0);\n";
        assert!(analyze_src("crates/x/src/a.rs", ok).is_empty());
        // Raw tracer/histogram calls are covered too.
        let f = analyze_src("crates/x/src/a.rs", "hist.record(timer.elapsed());\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::TraceTime);
    }

    #[test]
    fn native_thread_scoped_to_non_kernel() {
        let src = "std::thread::spawn(|| {});\n";
        assert_eq!(analyze_src("crates/x/src/a.rs", src).len(), 1);
        assert!(analyze_src("crates/simcore/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn no_panic_scoped_and_test_excluded() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let f = analyze_src("crates/dso/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(analyze_src("crates/simcore/src/a.rs", src).is_empty(), "only dso scoped");
    }

    #[test]
    fn expect_needs_invariant_comment() {
        let bad = "fn f() { x.expect(\"y\"); }\n";
        assert_eq!(analyze_src("crates/dso/src/a.rs", bad).len(), 1);
        let good = "fn f() {\n    // invariant: x was set above.\n    x.expect(\"y\");\n}\n";
        assert!(analyze_src("crates/dso/src/a.rs", good).is_empty());
    }

    #[test]
    fn serde_derive_scoped_to_protocol() {
        let src = "#[derive(Debug)]\npub struct Msg { pub x: u8 }\n";
        let f = analyze_src("crates/x/src/protocol.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::SerdeDerive);
        assert!(analyze_src("crates/x/src/other.rs", src).is_empty());
        let ok = "#[derive(Debug, Serialize, Deserialize)]\npub struct Msg { pub x: u8 }\n";
        assert!(analyze_src("crates/x/src/protocol.rs", ok).is_empty());
        // Restricted visibility is not part of the wire surface.
        let scoped = "#[derive(Debug)]\npub(crate) struct Msg { pub x: u8 }\n";
        assert!(analyze_src("crates/x/src/protocol.rs", scoped).is_empty());
    }
}
