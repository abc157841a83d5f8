//! `simanalyze`: the workspace's one static checker — token-local
//! convention rules plus syntax-aware, interprocedural determinism and
//! purity analysis.
//!
//! Four passes run on a [`Workspace`] built from the lexer/parser
//! ([`crate::lex`], [`crate::syntax`]):
//!
//! 1. **Line rules** ([`lines`]) — conventions visible in one line of
//!    code tokens: no wall-clock reads, no native threads outside the
//!    kernel, no panics on the DSO path, serde derives on protocol types,
//!    no host time in spans or metrics.
//! 2. **Determinism taint** ([`taint`]) — values originating from
//!    wall-clock reads, OS randomness or thread identity may not flow
//!    (through locals, call returns or struct fields) into protocol
//!    message types, trace/metric recording, or kernel time/messaging
//!    primitives.
//! 3. **Read-only purity** ([`purity`]) — every `SharedObject` method
//!    declared in `is_readonly` is checked to never mutate `self`,
//!    directly or through helper methods, and to never reach interior
//!    mutability. Clean methods are emitted as a machine-readable
//!    [`PureReport`] the DSO runtime can consult to skip its
//!    snapshot-compare verification.
//! 4. **Wait-annotation coverage** ([`waits`]) — every indefinitely
//!    blocking kernel primitive call (`ctx.park()`, untimed `ctx.call`)
//!    must be reachable only through code that calls
//!    `Ctx::annotate_wait`, so `deadlock_report()` wait-for graphs are
//!    never silently incomplete.
//!
//! All passes honour `// simlint: allow(<rule>, reason = "...")`
//! suppressions; a reasoned `wall-clock` allow on a source line also stops
//! taint from originating there, and a malformed directive is itself a
//! `bad-allow` finding. The interprocedural passes exempt test code
//! (`#[cfg(test)]` mods, `#[test]` fns, `tests/` and `benches/`
//! directories) and the kernel's own internals (`simcore/src/kernel.rs` —
//! the determinism boundary itself); the line rules carry their own
//! scopes. Vendored `compat/` shims are never read.
//!
//! The analysis is name-based and conservative-by-construction where it
//! matters (any candidate callee tainting a call, any field of a name
//! tainting that field name), but it is an *analysis of conventions*,
//! not a soundness proof: receiver types are resolved heuristically, so
//! DESIGN.md §"Static analysis" documents the contract.

pub mod lines;
pub mod purity;
pub mod taint;
pub mod waits;

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::Path;

use crate::lex::TokKind;
use crate::syntax::{match_close, FileAst, FnDef, SelfKind, StructDef};
use crate::{Finding, Rule};

/// Identifies one function: (file index, fn index within the file).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct FnId {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's [`FileAst::fns`].
    pub idx: usize,
}

/// One extracted call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The callee's final name segment.
    pub name: String,
    /// Full path segments for path calls (`simcore::codec::to_bytes` →
    /// `["simcore", "codec", "to_bytes"]`); empty for method calls.
    pub path: Vec<String>,
    /// For method calls: the leftmost ident of the receiver chain
    /// (`self.items.push(…)` → `self`); `None` when the receiver is a
    /// complex expression.
    pub recv_root: Option<String>,
    /// Field idents between root and method (`self.items.push` →
    /// `["items"]`).
    pub recv_chain: Vec<String>,
    /// Whether this is a `.method(…)` call.
    pub is_method: bool,
    /// Token-index ranges of the top-level arguments.
    pub args: Vec<(usize, usize)>,
    /// Token index of the callee name.
    pub at: usize,
    /// 1-based source line of the callee name.
    pub line: u32,
}

/// The parsed workspace plus the cross-file indexes the passes share.
pub struct Workspace {
    /// Parsed files.
    pub files: Vec<FileAst>,
    /// Per file: line → rules allowed there by a reasoned directive.
    pub allows: Vec<HashMap<usize, HashSet<Rule>>>,
    /// Function name → definitions with that name, workspace-wide.
    pub fn_index: HashMap<String, Vec<FnId>>,
    /// Struct/enum name → defining (file, struct index).
    pub struct_index: HashMap<String, (usize, usize)>,
    /// Types defined in `protocol.rs` files (wire-message types).
    pub protocol_types: BTreeSet<String>,
    /// Per file: fn indices carrying a `// simanalyze: nondet_source`
    /// marker comment.
    pub nondet_marks: Vec<HashSet<usize>>,
    /// Per [`FnId`] (flattened): extracted call sites.
    calls: HashMap<FnId, Vec<CallSite>>,
    /// `bad-allow` findings for malformed directives.
    bad_allows: Vec<Finding>,
}

impl Workspace {
    /// Builds a workspace from `(path, source)` pairs.
    pub fn build(sources: Vec<(String, String)>) -> Workspace {
        let mut files = Vec::new();
        let mut allows = Vec::new();
        let mut nondet_marks = Vec::new();
        let mut bad_allows = Vec::new();
        for (path, src) in sources {
            let ast = crate::syntax::parse_file(&path, &src);
            allows.push(parse_allows(&ast, &mut bad_allows));
            let marker_lines: HashSet<usize> = ast
                .comment_lines()
                .filter(|(_, text)| text.contains("simanalyze: nondet_source"))
                .map(|(line, _)| line)
                .collect();
            let marks: HashSet<usize> = ast
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| {
                    (1..=3).any(|d| marker_lines.contains(&(f.line as usize).saturating_sub(d)))
                })
                .map(|(i, _)| i)
                .collect();
            nondet_marks.push(marks);
            files.push(ast);
        }
        let mut fn_index: HashMap<String, Vec<FnId>> = HashMap::new();
        let mut struct_index = HashMap::new();
        let mut protocol_types = BTreeSet::new();
        for (fi, file) in files.iter().enumerate() {
            for (i, f) in file.fns.iter().enumerate() {
                fn_index.entry(f.name.clone()).or_default().push(FnId { file: fi, idx: i });
            }
            let is_protocol = Path::new(&file.path).file_name().is_some_and(|n| n == "protocol.rs");
            for (si, s) in file.structs.iter().enumerate() {
                struct_index.entry(s.name.clone()).or_insert((fi, si));
                if is_protocol {
                    protocol_types.insert(s.name.clone());
                }
            }
        }
        let mut ws = Workspace {
            files,
            allows,
            fn_index,
            struct_index,
            protocol_types,
            nondet_marks,
            calls: HashMap::new(),
            bad_allows,
        };
        let mut calls = HashMap::new();
        for fi in 0..ws.files.len() {
            for i in 0..ws.files[fi].fns.len() {
                let id = FnId { file: fi, idx: i };
                if let Some(body) = ws.files[fi].fns[i].body {
                    calls.insert(id, extract_calls(&ws.files[fi], body));
                }
            }
        }
        ws.calls = calls;
        ws
    }

    /// The function's definition.
    pub fn fn_def(&self, id: FnId) -> &FnDef {
        &self.files[id.file].fns[id.idx]
    }

    /// The function's extracted call sites (empty for bodyless fns).
    pub fn calls_of(&self, id: FnId) -> &[CallSite] {
        self.calls.get(&id).map_or(&[], Vec::as_slice)
    }

    /// The struct definition by name, if the workspace defines it.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.struct_index.get(name).map(|&(fi, si)| &self.files[fi].structs[si])
    }

    /// Whether `rule` is allowed at `line` of file `fi`.
    pub fn allowed(&self, fi: usize, rule: Rule, line: usize) -> bool {
        self.allows[fi].get(&line).is_some_and(|s| s.contains(&rule))
    }

    /// Whether the file is exempt from analysis findings: test and bench
    /// trees, and the kernel's own internals.
    pub fn exempt_file(&self, fi: usize) -> bool {
        let p = &self.files[fi].path;
        p.contains("/tests/") || p.contains("/benches/") || p.ends_with("simcore/src/kernel.rs")
    }

    /// Resolves a call site to candidate definitions. Name-based with
    /// three narrowing rules: a `.name(…)` method call only reaches fns
    /// taking `self`; an explicit `Type::name` path keeps only impls of
    /// `Type`; a `self.name(…)` call inside an impl keeps only impls of
    /// the caller's `Self` type when any exist.
    pub fn resolve(&self, caller: FnId, call: &CallSite) -> Vec<FnId> {
        let Some(cands) = self.fn_index.get(&call.name) else { return Vec::new() };
        let cands: Vec<FnId> = cands
            .iter()
            .copied()
            .filter(|id| !call.is_method || self.fn_def(*id).self_kind != SelfKind::None)
            .collect();
        if call.path.len() >= 2 {
            let qual = &call.path[call.path.len() - 2];
            if qual.chars().next().is_some_and(char::is_uppercase) {
                let narrowed: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|id| self.fn_def(*id).impl_type.as_deref() == Some(qual))
                    .collect();
                if !narrowed.is_empty() {
                    return narrowed;
                }
            }
        }
        if call.is_method && call.recv_root.as_deref() == Some("self") && call.recv_chain.is_empty()
        {
            if let Some(ty) = &self.fn_def(caller).impl_type {
                let narrowed: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|id| self.fn_def(*id).impl_type.as_deref() == Some(ty.as_str()))
                    .collect();
                if !narrowed.is_empty() {
                    return narrowed;
                }
            }
        }
        cands
    }

    /// Reverse edges: every (caller, call-site index) whose callee name is
    /// `name`.
    pub fn callers_of(&self, name: &str) -> Vec<(FnId, usize)> {
        let mut out = Vec::new();
        for (&id, sites) in &self.calls {
            for (ci, c) in sites.iter().enumerate() {
                if c.name == name {
                    out.push((id, ci));
                }
            }
        }
        out.sort_by_key(|(id, ci)| (id.file, id.idx, *ci));
        out
    }
}

/// Parses the file's `simlint: allow(...)` directives into line → rules.
/// Only comment tokens are read, so directive text inside a string
/// literal is inert; requiring the directive to *start* the comment keeps
/// prose that merely mentions the syntax (like this crate's docs) inert
/// too. Malformed directives become [`Rule::BadAllow`] findings.
fn parse_allows(file: &FileAst, findings: &mut Vec<Finding>) -> HashMap<usize, HashSet<Rule>> {
    let mut allows: HashMap<usize, HashSet<Rule>> = HashMap::new();
    for (line, raw) in file.comment_lines() {
        let comment = raw.trim_start().trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = comment.strip_prefix("simlint: allow(") else { continue };
        let mut bad = |msg: String| {
            findings.push(Finding { file: file.path.clone(), line, rule: Rule::BadAllow, msg });
        };
        let Some(close) = rest.rfind(')') else {
            bad("unterminated allow directive".to_string());
            continue;
        };
        let body = &rest[..close];
        let rule_name = body.split(',').next().unwrap_or("").trim();
        let Some(rule) = Rule::from_name(rule_name) else {
            bad(format!("unknown rule {rule_name:?} in allow directive"));
            continue;
        };
        // A reason is mandatory: allows without rationale rot.
        let reason_ok = body
            .find("reason")
            .map(|r| &body[r + "reason".len()..])
            .and_then(|after| after.trim_start().strip_prefix('='))
            .map(|after| after.trim_start())
            .and_then(|after| after.strip_prefix('"'))
            .is_some_and(|quoted| quoted.find('"').is_some_and(|end| end > 0));
        if !reason_ok {
            bad(format!("allow({rule_name}) needs a non-empty reason = \"...\""));
            continue;
        }
        // The directive covers its own line (trailing comment) and the next.
        allows.entry(line).or_default().insert(rule);
        allows.entry(line + 1).or_default().insert(rule);
    }
    allows
}

/// Extracts call sites from a body token range.
fn extract_calls(file: &FileAst, body: (usize, usize)) -> Vec<CallSite> {
    let toks = &file.toks;
    let src = &file.src;
    let mut out = Vec::new();
    let (lo, hi) = body;
    for i in lo..hi {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // A call is `name (…)`, allowing a turbofish in between; a macro
        // (`name!(…)`) is not a call.
        let mut j = i + 1;
        if j < hi && toks[j].is_punct(src, b':') && j + 1 < hi && toks[j + 1].is_punct(src, b':') {
            // `name::<T>(…)` turbofish, or a longer path — the path case
            // is handled when the *last* segment is visited.
            if j + 2 < hi && toks[j + 2].is_punct(src, b'<') {
                let mut depth = 0i32;
                j += 2;
                while j < hi {
                    if toks[j].is_punct(src, b'<') {
                        depth += 1;
                    } else if toks[j].is_punct(src, b'>') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            } else {
                continue;
            }
        }
        if j >= hi || !toks[j].is_punct(src, b'(') {
            continue;
        }
        if i + 1 < hi && toks[i + 1].is_punct(src, b'!') {
            continue; // macro
        }
        let close = match_close(toks, src, j, hi);
        // Split the argument tokens at depth-1 commas.
        let mut args = Vec::new();
        let mut depth = 0i32;
        let mut start = j + 1;
        for (k, tk) in toks.iter().enumerate().take(close).skip(j) {
            if tk.kind == TokKind::Punct {
                match src.as_bytes()[tk.lo] {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' | b'}' => depth -= 1,
                    b',' if depth == 1 => {
                        args.push((start, k));
                        start = k + 1;
                    }
                    _ => {}
                }
            }
        }
        if start < close {
            args.push((start, close));
        }
        // Walk backwards: path segments or a receiver chain.
        let mut path = vec![toks[i].text(src).to_string()];
        let mut k = i;
        while k >= 2
            && toks[k - 1].is_punct(src, b':')
            && toks[k - 2].is_punct(src, b':')
            && k >= 3
            && toks[k - 3].kind == TokKind::Ident
        {
            path.insert(0, toks[k - 3].text(src).to_string());
            k -= 3;
        }
        let (is_method, recv_root, recv_chain) =
            if path.len() == 1 && k >= 1 && toks[k - 1].is_punct(src, b'.') {
                // Receiver chain: `.`-separated idents going left.
                let mut chain = Vec::new();
                let mut m = k - 1;
                let mut root = None;
                while m >= 1 && toks[m].is_punct(src, b'.') && toks[m - 1].kind == TokKind::Ident {
                    let ident = toks[m - 1].text(src).to_string();
                    if m >= 2 && toks[m - 2].is_punct(src, b'.') {
                        chain.insert(0, ident);
                        m -= 2;
                    } else {
                        root = Some(ident);
                        break;
                    }
                }
                (true, root, chain)
            } else {
                (false, None, Vec::new())
            };
        let name = path.last().cloned().unwrap_or_default();
        out.push(CallSite {
            name,
            path: if is_method { Vec::new() } else { path },
            recv_root,
            recv_chain,
            is_method,
            args,
            at: i,
            line: toks[i].line,
        });
    }
    out
}

/// Walks `.rs` files under `root` (skipping build output, fixtures,
/// vendored compat shims), producing `(path, source)` pairs with paths
/// shown relative to `root`'s parent.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn read_tree(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !matches!(name.as_ref(), "target" | "fixtures" | ".git" | "compat") {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let shown = path.strip_prefix(root.parent().unwrap_or(root)).unwrap_or(&path);
        out.push((shown.display().to_string(), src));
    }
    Ok(out)
}

/// The full analysis result.
pub struct Analysis {
    /// Diagnostics from all passes, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Proven-pure `(type, method)` pairs from the purity pass.
    pub pure: purity::PureReport,
}

/// Runs every pass over a built workspace.
pub fn analyze(ws: &Workspace) -> Analysis {
    let mut findings = ws.bad_allows.clone();
    findings.extend(lines::run(ws));
    findings.extend(taint::run(ws));
    let pure = purity::run(ws, &mut findings);
    findings.extend(waits::run(ws));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Analysis { findings, pure }
}

/// Convenience: read a tree, build the workspace, run the passes.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn analyze_tree(root: &Path) -> std::io::Result<Analysis> {
    let ws = Workspace::build(read_tree(root)?);
    Ok(analyze(&ws))
}

/// Analyzes one in-memory source file.
#[cfg(test)]
fn analyze_src(path: &str, src: &str) -> Vec<Finding> {
    analyze(&Workspace::build(vec![(path.to_string(), src.to_string())])).findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNEAKY: &str = r#"
impl SharedObject for Sneaky {
    fn invoke(&mut self, call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            "peek" => {
                self.count += 1;
                Effects::value(&self.count)
            }
            "get" => Effects::value(&self.count),
            other => Err(ObjErr::MethodNotFound(other.to_string())),
        }
    }
    fn is_readonly(&self, method: &str) -> bool {
        matches!(method, "peek" | "get")
    }
}
"#;

    #[test]
    fn readonly_impure_caught() {
        let f = analyze_src("crates/x/src/obj.rs", SNEAKY);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ReadonlyImpure);
        assert!(f[0].msg.contains("peek"), "{}", f[0].msg);
        // An honest read-only arm ("get") is not flagged.
        assert!(!f.iter().any(|f| f.msg.contains("\"get\"")));
    }

    #[test]
    fn readonly_impure_allow_honored() {
        let allowed = SNEAKY.replace(
            "            \"peek\" =>",
            "            // simlint: allow(readonly-impure, reason = \"test fixture\")\n            \"peek\" =>",
        );
        assert!(analyze_src("crates/x/src/obj.rs", &allowed).is_empty());
    }

    #[test]
    fn readonly_method_call_mutators_caught() {
        let src = r#"
impl SharedObject for S {
    fn invoke(&mut self, call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            "size" => { self.items.push(1); Effects::value(&0) }
            other => Err(ObjErr::MethodNotFound(other.to_string())),
        }
    }
    fn is_readonly(&self, method: &str) -> bool { matches!(method, "size") }
}
"#;
        let f = analyze_src("crates/x/src/obj.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ReadonlyImpure);
        assert!(f[0].msg.contains("push"), "{}", f[0].msg);
    }

    #[test]
    fn method_calls_never_resolve_to_free_fns() {
        // A free `elapsed()` declared nondeterministic must taint its own
        // callers only, not an unrelated `t0.elapsed()` method call.
        let ws = Workspace::build(vec![
            ("a/src/wall.rs".into(), "// simanalyze: nondet_source\nfn elapsed() -> u64 { 0 }\n".into()),
            (
                "a/src/traced.rs".into(),
                "fn traced(ctx: &Ctx, t0: Timer) {\n    ctx.metric_record(\"a\", t0.elapsed());\n    ctx.metric_record(\"b\", elapsed());\n}\n"
                    .into(),
            ),
        ]);
        let traced = FnId { file: 1, idx: 0 };
        let resolved: Vec<(bool, usize)> = ws
            .calls_of(traced)
            .iter()
            .filter(|c| c.name == "elapsed")
            .map(|c| (c.is_method, ws.resolve(traced, c).len()))
            .collect();
        assert_eq!(resolved, vec![(true, 0), (false, 1)]);
        let tainted: Vec<usize> = analyze(&ws)
            .findings
            .iter()
            .filter(|f| f.rule == Rule::DeterminismTaint)
            .map(|f| f.line)
            .collect();
        assert_eq!(tainted, vec![3], "only the free call is a source");
    }
}
