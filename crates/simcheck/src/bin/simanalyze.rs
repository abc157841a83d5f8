//! CI gate: runs every `simcheck::analyze` pass (line-local convention
//! rules, determinism taint, readonly purity, wait annotations) over every
//! `.rs` file under `crates/`. Exits non-zero when any finding survives.
//!
//! Usage:
//! `cargo run -p simcheck --bin simanalyze [-- [--json] [--readonly-report PATH] [<root>]]`
//!
//! - `--json` prints findings as a JSON array (`file`, `line`, `rule`,
//!   `msg`) instead of human-readable lines, for machine-parseable CI
//!   logs.
//! - `--readonly-report PATH` writes the proven-pure readonly method
//!   report (one `Type method` per line); the DSO runtime loads it via
//!   `DsoConfig::pure_methods` to skip snapshot verification for proven
//!   methods.
//! - `<root>` defaults to the workspace root (the current directory if
//!   it contains `crates/`, otherwise two levels above this crate's
//!   manifest).

use std::path::PathBuf;
use std::process::ExitCode;

use simcheck::json::escape as esc;

struct Args {
    json: bool,
    report: Option<PathBuf>,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut json = false;
    let mut report = None;
    let mut root = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--json" => json = true,
            "--readonly-report" => {
                let p = argv.next().ok_or("--readonly-report needs a path")?;
                report = Some(PathBuf::from(p));
            }
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ => root = Some(PathBuf::from(a)),
        }
    }
    let root = root.unwrap_or_else(|| {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        if cwd.join("crates").is_dir() {
            cwd
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        }
    });
    Ok(Args { json, report, root })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simanalyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = args.root.join("crates");
    let analysis = match simcheck::analyze::analyze_tree(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simanalyze: cannot walk {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.report {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, analysis.pure.to_text()) {
            eprintln!("simanalyze: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if args.json {
        let items: Vec<String> = analysis
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"msg\":\"{}\"}}",
                    esc(&f.file),
                    f.line,
                    f.rule,
                    esc(&f.msg)
                )
            })
            .collect();
        println!("[{}]", items.join(","));
    } else {
        for f in &analysis.findings {
            println!("{f}");
        }
    }
    if analysis.findings.is_empty() {
        if !args.json {
            println!(
                "simanalyze: clean ({} proven-pure readonly methods)",
                analysis.pure.entries.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        if !args.json {
            println!("simanalyze: {} finding(s)", analysis.findings.len());
        }
        ExitCode::FAILURE
    }
}
