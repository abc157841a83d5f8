//! Pass 3: read-only purity of `SharedObject` methods.
//!
//! For every `impl SharedObject for T`, the method names quoted in
//! `is_readonly` are located as match arms inside `invoke` and each arm
//! is checked — transitively through `self.helper()` calls resolved to
//! the same `Self` type — for anything that could mutate the object:
//! field assignments, known container mutators, `&mut self` escapes,
//! `mem::take`/`replace`/`swap` on self, and interior-mutability entry
//! points. A provably-mutating arm is a [`Rule::ReadonlyImpure`]
//! finding.
//!
//! The pass also produces the positive artifact: a [`PureReport`] of
//! `(type, method)` pairs whose arms are *proven* clean (and whose
//! struct has no interior-mutability fields). The DSO runtime loads this
//! report to skip the snapshot-compare `verify_readonly` check for
//! proven methods — the static proof subsumes the runtime one. Methods
//! the analysis cannot prove either way (unresolvable helpers, unknown
//! receiver types) are simply left out of the report: no finding, no
//! skipped snapshot.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use super::{FnId, Workspace};
use crate::lex::TokKind;
use crate::{Finding, Rule};

/// Container methods that mutate their receiver.
const MUTATORS: [&str; 16] = [
    "push",
    "push_back",
    "push_front",
    "insert",
    "remove",
    "pop",
    "pop_front",
    "pop_back",
    "clear",
    "drain",
    "truncate",
    "retain",
    "extend",
    "swap",
    "sort",
    "dedup",
];

/// Interior-mutability entry points: callable through `&self` yet able to
/// mutate.
const INTERIOR: [&str; 12] = [
    "borrow_mut",
    "lock",
    "write",
    "store",
    "set",
    "replace",
    "take",
    "get_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
];

/// Read-only container methods safe to call on a nested `self` field.
const READONLY_OK: [&str; 18] = [
    "len",
    "is_empty",
    "get",
    "contains",
    "contains_key",
    "iter",
    "keys",
    "values",
    "first",
    "last",
    "front",
    "back",
    "peek",
    "capacity",
    "clone",
    "to_vec",
    "as_slice",
    "binary_search",
];

/// The outcome of checking one arm (or helper body).
enum Verdict {
    /// No mutation found; every reached construct is understood.
    Pure,
    /// No mutation found, but something could not be resolved — not a
    /// finding, but not provably pure either. Carries what blocked proof.
    Unproven(String),
    /// A mutation was found; carries the description.
    Impure(String),
}

/// Machine-readable list of proven-pure readonly methods.
#[derive(Default)]
pub struct PureReport {
    /// `(type name, method name)` pairs, sorted.
    pub entries: BTreeSet<(String, String)>,
}

impl PureReport {
    /// Renders the report: one `Type method` pair per line, sorted. The
    /// format is deliberately trivial so the `dso` crate (which simcheck
    /// depends on for nothing, and which must not depend back on
    /// simcheck) can parse it with `str::split_whitespace`.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# simanalyze proven-pure readonly methods: <Type> <method>\n");
        for (ty, m) in &self.entries {
            let _ = writeln!(out, "{ty} {m}");
        }
        out
    }
}

/// Runs the pass: findings for provably impure readonly arms, plus the
/// pure report.
pub fn run(ws: &Workspace, findings: &mut Vec<Finding>) -> PureReport {
    let mut report = PureReport::default();
    for fi in 0..ws.files.len() {
        for idx in 0..ws.files[fi].fns.len() {
            let f = &ws.files[fi].fns[idx];
            if f.name != "is_readonly"
                || f.impl_trait.as_deref() != Some("SharedObject")
                || f.body.is_none()
                || f.is_test
            {
                continue;
            }
            let Some(ty) = f.impl_type.clone() else { continue };
            check_impl(ws, FnId { file: fi, idx }, &ty, findings, &mut report);
        }
    }
    report
}

/// Checks one `impl SharedObject for <ty>` given its `is_readonly` fn.
fn check_impl(
    ws: &Workspace,
    ro_fn: FnId,
    ty: &str,
    findings: &mut Vec<Finding>,
    report: &mut PureReport,
) {
    let file = &ws.files[ro_fn.file];
    let src = &file.src;
    // Declared-readonly method names: string literals in the body.
    let (lo, hi) = ws.fn_def(ro_fn).body.expect("checked by caller");
    let names: Vec<String> = file.toks[lo..hi]
        .iter()
        .filter(|t| t.kind == TokKind::Str)
        .map(|t| t.str_content(src).to_string())
        .collect();
    if names.is_empty() {
        return;
    }
    // The sibling `invoke` of the same impl type.
    let invoke = file.fns.iter().position(|g| {
        g.name == "invoke"
            && g.impl_type.as_deref() == Some(ty)
            && g.impl_trait.as_deref() == Some("SharedObject")
            && g.body.is_some()
    });
    let Some(invoke_idx) = invoke else { return };
    let inv_id = FnId { file: ro_fn.file, idx: invoke_idx };
    let (ilo, ihi) = ws.fn_def(inv_id).body.expect("position filtered on body");
    let interior_struct = ws.struct_def(ty).map(|s| s.has_interior_mut);
    for name in &names {
        let Some((arm, str_line)) = find_arm(file, (ilo, ihi), name) else { continue };
        let mut visited = BTreeSet::new();
        match check_tokens(ws, ro_fn.file, ty, arm, 0, &mut visited) {
            Verdict::Impure(why) => {
                if !ws.allowed(ro_fn.file, Rule::ReadonlyImpure, str_line)
                    && !ws.exempt_file(ro_fn.file)
                {
                    findings.push(Finding {
                        file: file.path.clone(),
                        line: str_line,
                        rule: Rule::ReadonlyImpure,
                        msg: format!("method \"{name}\" of {ty} is declared read-only but {why}"),
                    });
                }
            }
            Verdict::Unproven(_) => {}
            Verdict::Pure => {
                if interior_struct == Some(false) {
                    report.entries.insert((ty.to_string(), name.clone()));
                }
            }
        }
    }
}

/// Locates the match arm whose pattern contains the string literal
/// `name` inside the `invoke` body; returns the arm's token range and
/// the literal's line.
fn find_arm(
    file: &crate::syntax::FileAst,
    body: (usize, usize),
    name: &str,
) -> Option<((usize, usize), usize)> {
    let src = &file.src;
    let (lo, hi) = body;
    for i in lo..hi {
        let t = &file.toks[i];
        if t.kind != TokKind::Str || t.str_content(src) != name {
            continue;
        }
        // Scan forward over the alternation (`"a" | "b"`) to a `=>`.
        let mut j = i + 1;
        while j < hi && (file.toks[j].kind == TokKind::Str || file.toks[j].is_punct(src, b'|')) {
            j += 1;
        }
        let arrow = j + 1 < hi
            && file.toks[j].is_punct(src, b'=')
            && file.toks[j + 1].is_punct(src, b'>')
            && file.toks[j].glued(&file.toks[j + 1]);
        if !arrow {
            continue; // a string used in an expression, not an arm pattern
        }
        let start = j + 2;
        if start >= hi {
            return None;
        }
        let end = if file.toks[start].is_punct(src, b'{') {
            crate::syntax::match_close(&file.toks, src, start, hi) + 1
        } else {
            // Up to the first comma at arm depth.
            let mut depth = 0i32;
            let mut e = start;
            while e < hi {
                let te = &file.toks[e];
                if te.kind == TokKind::Punct {
                    match src.as_bytes()[te.lo] {
                        b'(' | b'[' | b'{' => depth += 1,
                        b')' | b']' | b'}' => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        b',' if depth == 0 => break,
                        _ => {}
                    }
                }
                e += 1;
            }
            e
        };
        return Some(((start, end.min(hi)), t.line as usize));
    }
    None
}

/// Scans a token range for mutations of `self`, recursing through
/// `self.helper()` calls resolved within the same impl type.
fn check_tokens(
    ws: &Workspace,
    fi: usize,
    ty: &str,
    range: (usize, usize),
    depth: usize,
    visited: &mut BTreeSet<String>,
) -> Verdict {
    if depth > 8 {
        return Verdict::Unproven("helper call chain deeper than 8".to_string());
    }
    let file = &ws.files[fi];
    let src = &file.src;
    let mut unproven: Option<String> = None;
    let mut i = range.0;
    while i < range.1 {
        let t = &file.toks[i];
        // `&mut self` anywhere (method signature escape or a `&mut
        // self.field` argument).
        if t.is_punct(src, b'&')
            && i + 2 < range.1
            && file.toks[i + 1].kind == TokKind::Ident
            && file.toks[i + 1].text(src) == "mut"
            && file.toks[i + 2].kind == TokKind::Ident
            && file.toks[i + 2].text(src) == "self"
        {
            return Verdict::Impure("passes &mut self".to_string());
        }
        // `mem::take(&mut self…)` / replace / swap.
        if t.kind == TokKind::Ident
            && t.text(src) == "mem"
            && i + 3 < range.1
            && file.toks[i + 1].is_punct(src, b':')
            && file.toks[i + 2].is_punct(src, b':')
            && matches!(file.toks[i + 3].text(src), "take" | "replace" | "swap")
        {
            return Verdict::Impure(format!("calls mem::{} on self", file.toks[i + 3].text(src)));
        }
        if t.kind == TokKind::Ident && t.text(src) == "self" {
            if let Some(v) = check_self_use(ws, fi, ty, range, i, depth, visited) {
                match v {
                    Verdict::Impure(_) => return v,
                    Verdict::Unproven(why) => unproven.get_or_insert(why),
                    Verdict::Pure => unreachable!("check_self_use never returns Pure in Some"),
                };
            }
        }
        i += 1;
    }
    match unproven {
        Some(why) => Verdict::Unproven(why),
        None => Verdict::Pure,
    }
}

/// Inspects one `self`-rooted expression starting at token `i` (which is
/// the `self` ident). Returns `None` when the use is harmless.
fn check_self_use(
    ws: &Workspace,
    fi: usize,
    ty: &str,
    range: (usize, usize),
    i: usize,
    depth: usize,
    visited: &mut BTreeSet<String>,
) -> Option<Verdict> {
    let file = &ws.files[fi];
    let src = &file.src;
    let b = src.as_bytes();
    // Walk the dotted chain: self(.ident)*
    let mut chain: Vec<&str> = Vec::new();
    let mut j = i;
    while j + 2 < range.1
        && file.toks[j + 1].is_punct(src, b'.')
        && file.toks[j + 2].kind == TokKind::Ident
    {
        chain.push(file.toks[j + 2].text(src));
        j += 2;
    }
    // `self` alone (e.g. a plain `&self` borrow) is harmless.
    let after = j + 1;
    if chain.is_empty() {
        return None;
    }
    let last = *chain.last().expect("chain checked non-empty");
    let path = chain.join(".");
    if after < range.1 && file.toks[after].is_punct(src, b'(') {
        // A method call.
        if MUTATORS.contains(&last) {
            return Some(Verdict::Impure(format!("calls self.{path}(..)")));
        }
        if INTERIOR.contains(&last) {
            return Some(Verdict::Impure(format!(
                "reaches interior mutability via self.{path}(..)"
            )));
        }
        if chain.len() == 1 {
            // A helper on Self: resolve within the same impl type.
            let helpers: Vec<FnId> = ws
                .fn_index
                .get(last)
                .map(|v| {
                    v.iter()
                        .copied()
                        .filter(|id| ws.fn_def(*id).impl_type.as_deref() == Some(ty))
                        .collect()
                })
                .unwrap_or_default();
            if helpers.is_empty() {
                return Some(Verdict::Unproven(format!("cannot resolve self.{last}()")));
            }
            if !visited.insert(last.to_string()) {
                return None; // already checked along this path
            }
            for h in helpers {
                let hdef = ws.fn_def(h);
                if matches!(
                    hdef.self_kind,
                    crate::syntax::SelfKind::RefMut | crate::syntax::SelfKind::Value
                ) {
                    return Some(Verdict::Impure(format!(
                        "calls self.{last}(), which takes {} self",
                        if hdef.self_kind == crate::syntax::SelfKind::RefMut {
                            "&mut"
                        } else {
                            "owned"
                        }
                    )));
                }
                let Some(hbody) = hdef.body else {
                    return Some(Verdict::Unproven(format!("self.{last}() has no body here")));
                };
                match check_tokens(ws, h.file, ty, hbody, depth + 1, visited) {
                    Verdict::Impure(why) => {
                        return Some(Verdict::Impure(format!("calls self.{last}(), which {why}")))
                    }
                    Verdict::Unproven(why) => return Some(Verdict::Unproven(why)),
                    Verdict::Pure => {}
                }
            }
            return None;
        }
        if READONLY_OK.contains(&last) {
            return None;
        }
        // An unknown method on a nested field: type unknown, so unproven.
        return Some(Verdict::Unproven(format!("cannot classify self.{path}(..)")));
    }
    // An assignment: `self.path = …` or a compound `self.path op= …`.
    let mut k = after;
    if k + 1 < range.1
        && file.toks[k].kind == TokKind::Punct
        && file.toks[k].glued(&file.toks[k + 1])
    {
        match b[file.toks[k].lo] {
            b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^' => k += 1,
            c @ (b'<' | b'>') => {
                // `<<=`/`>>=` are compound assigns; `<=`/`>=` compare.
                if b[file.toks[k + 1].lo] == c
                    && k + 2 < range.1
                    && file.toks[k + 1].glued(&file.toks[k + 2])
                {
                    k += 2;
                } else {
                    return None;
                }
            }
            _ => {}
        }
    }
    if k < range.1 && file.toks[k].is_punct(src, b'=') {
        let is_eq = k + 1 < range.1
            && file.toks[k + 1].is_punct(src, b'=')
            && file.toks[k].glued(&file.toks[k + 1]);
        let is_arrow = k + 1 < range.1
            && file.toks[k + 1].is_punct(src, b'>')
            && file.toks[k].glued(&file.toks[k + 1]);
        if !is_eq && !is_arrow {
            if k == after {
                return Some(Verdict::Impure(format!("assigns self.{path}")));
            }
            return Some(Verdict::Impure(format!("compound-assigns self.{path}")));
        }
    }
    None
}
