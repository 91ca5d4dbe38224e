//! `check-bench` — the CI guard over the library bench suites' reports.
//!
//! Two jobs, both judged by [`pw_bench::report`]:
//!
//! 1. **Committed reports.**  Every `BENCH_*.json` at the root (discovered, not listed)
//!    must keep its guard tables within their embedded bounds, with every verdict
//!    true, and a `speedup_vs_baseline` table whose every row clears the floor
//!    (default `0.9`).  A committed report below the floor means someone committed a
//!    measured regression.
//! 2. **Smoke reports.**  The reports passed as positional arguments (the suites'
//!    `--smoke` runs earlier in the CI job) must carry a `BENCH_*` tag and
//!    `"smoke": true`, keep their guard tables within the smoke bounds, and hold at
//!    least one well-formed result row with a known mode.
//!
//! An unreadable, empty or unparsable report fails loudly instead of being skipped.
//!
//! Usage:
//!   check-bench [--root DIR] [--min-speedup X] [SMOKE_REPORT.json ...]
//!
//! Exits non-zero with a message per violation.

use pw_bench::report::{check_committed, check_smoke};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Read `path` and judge it with `check`, recording the outcome.
fn judge(
    path: &Path,
    check: impl FnOnce(&str) -> Result<String, Vec<String>>,
    failures: &mut Vec<String>,
) {
    let verdict = std::fs::read_to_string(path)
        .map_err(|e| vec![format!("unreadable: {e}")])
        .and_then(|raw| check(&raw));
    match verdict {
        Ok(summary) => println!("ok: {} ({summary})", path.display()),
        Err(found) => failures.extend(found.iter().map(|f| format!("{}: {f}", path.display()))),
    }
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut min_speedup = 0.9;
    let mut smoke_reports: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map_or(root, PathBuf::from),
            "--min-speedup" => {
                min_speedup = args.next().and_then(|v| v.parse().ok()).unwrap_or(0.9);
            }
            _ => smoke_reports.push(PathBuf::from(arg)),
        }
    }

    let mut failures = Vec::new();
    // A directory we cannot read is a loud failure, not an empty result.
    let mut committed: Vec<PathBuf> = match std::fs::read_dir(&root) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => {
            failures.push(format!("cannot list {}: {e}", root.display()));
            Vec::new()
        }
    };
    committed.sort();
    if committed.is_empty() {
        failures.push(format!(
            "no committed BENCH_*.json found under {}",
            root.display()
        ));
    }
    for path in &committed {
        judge(path, |raw| check_committed(raw, min_speedup), &mut failures);
    }
    for path in &smoke_reports {
        judge(path, check_smoke, &mut failures);
    }

    if failures.is_empty() {
        println!(
            "bench-regression guard: {} committed report(s), {} smoke report(s) — all green",
            committed.len(),
            smoke_reports.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
