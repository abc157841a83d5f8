//! Correctness tooling for the workspace: one static analyzer
//! ([`analyze`], the `simanalyze` binary), the schedule explorer, and the
//! trace and bench-file validators.
//!
//! The simulation's guarantees rest on conventions a compiler cannot see:
//! no wall-clock reads inside simulated code, no native threads outside the
//! kernel, no panics on the DSO request path, serializable protocol types,
//! and `is_readonly` declarations that are actually true. `simanalyze`
//! enforces those conventions over `crates/**/*.rs` with a hand-rolled
//! lexer and item parser (no external parser) and fails CI on violations.
//!
//! Escape hatches:
//!
//! - `// simlint: allow(<rule>, reason = "...")` on the offending line or
//!   the line above suppresses a finding; a missing or empty reason is
//!   itself a finding ([`Rule::BadAllow`]).
//! - `.expect(...)` in DSO sources is accepted when a `// invariant: ...`
//!   comment within the three preceding lines documents why the value is
//!   always present.

use std::fmt;

pub mod analyze;
pub mod json;
pub mod lex;
pub mod syntax;

/// A rule enforced by `simanalyze`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads (`Instant::now`, `SystemTime`) — nondeterministic.
    WallClock,
    /// Native thread spawns outside the simulation kernel.
    NativeThread,
    /// `unwrap`/`expect`/`panic!` on the DSO request path (non-test code).
    NoPanic,
    /// A protocol type without serde derives.
    SerdeDerive,
    /// A span or metric stamped from a non-`SimTime` source.
    TraceTime,
    /// A malformed `simlint: allow` directive (unknown rule, no reason).
    BadAllow,
    /// A nondeterministic value flowing interprocedurally into kernel
    /// state, a protocol message, or trace/metric ordering.
    DeterminismTaint,
    /// A declared-readonly `SharedObject` method proven to mutate.
    ReadonlyImpure,
    /// A blocking primitive reachable without `Ctx::annotate_wait` on the
    /// path.
    WaitAnnotation,
}

impl Rule {
    /// The rule's directive name, as written in `allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::NativeThread => "native-thread",
            Rule::NoPanic => "no-panic",
            Rule::SerdeDerive => "serde-derive",
            Rule::TraceTime => "trace-time",
            Rule::BadAllow => "bad-allow",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::ReadonlyImpure => "readonly-impure",
            Rule::WaitAnnotation => "wait-annotation",
        }
    }

    /// Parses a directive name back into a rule.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "wall-clock" => Some(Rule::WallClock),
            "native-thread" => Some(Rule::NativeThread),
            "no-panic" => Some(Rule::NoPanic),
            "serde-derive" => Some(Rule::SerdeDerive),
            "trace-time" => Some(Rule::TraceTime),
            "determinism-taint" => Some(Rule::DeterminismTaint),
            "readonly-impure" => Some(Rule::ReadonlyImpure),
            "wait-annotation" => Some(Rule::WaitAnnotation),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path of the offending file, as given to
    /// [`analyze::Workspace::build`].
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}
