//! # The library bench suites' report format
//!
//! `bench-pr2` … `bench-pr8` and `bench-stream` write one report shape and
//! `check-bench` reads it back; this module is the only code that knows the shape.
//!
//! * [`Args`] parses the shared flags `--smoke`, `--out`, `--sweeps` and `--baseline`.
//! * [`Tally`] summarises a batch's outcomes for the `answers` column.
//! * [`Report`] writes a report through [`pw_serve::json::Json`]: the header keys
//!   `bench`, `description`, `threads`, `iterations` and `smoke`, the `results` rows,
//!   at most one guard table, an optional embedded `baseline`, and the
//!   `speedup_vs_baseline` table.  Milliseconds are rounded to three decimals
//!   ([`ms`]) and ratios to two ([`ratio`]).
//! * [`check_committed`] and [`check_smoke`] parse a report with [`Json::parse`] and
//!   judge it: every table named in `GUARDS` row by row, then the
//!   `speedup_vs_baseline` floor or the smoke shape.

use pw_decide::DecisionOutcome;
use pw_serve::json::Json;

/// The shared command line of the bench suites.
pub struct Args {
    args: Vec<String>,
    /// `--smoke`: tiny sizes and few iterations, so CI checks the shape in seconds.
    pub smoke: bool,
    /// `--out FILE`, else the suite's committed report name.
    pub out: String,
}

impl Args {
    /// Parse the process arguments; `default_out` is the suite's committed report.
    pub fn parse(default_out: &str) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut parsed = Args {
            smoke: args.iter().any(|a| a == "--smoke"),
            args,
            out: default_out.to_owned(),
        };
        if let Some(out) = parsed.value("--out") {
            parsed.out = out;
        }
        parsed
    }

    /// The value following flag `name`, if given.
    pub fn value(&self, name: &str) -> Option<String> {
        let at = self.args.iter().position(|a| a == name)?;
        self.args.get(at + 1).cloned()
    }

    /// Whether flag `name` was passed.
    pub fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// `--sweeps N` (at least 1), else `default`.
    pub fn sweeps(&self, default: usize) -> usize {
        self.value("--sweeps")
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
            .max(1)
    }

    /// `--baseline FILE`, read and parsed.  Panics on an unreadable or malformed file.
    pub fn baseline(&self) -> Option<Json> {
        let path = self.value("--baseline")?;
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        Some(Json::parse(&text).unwrap_or_else(|e| panic!("baseline {path}: {e}")))
    }
}

/// Outcome counts of one or more batches: definite yes, definite no, and errors
/// (budget or deadline exhausted, cancelled, panicked).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// `Ok(true)` outcomes.
    pub yes: usize,
    /// `Ok(false)` outcomes.
    pub no: usize,
    /// `Err(_)` outcomes.
    pub exhausted: usize,
}

impl Tally {
    /// The counts of one batch.
    pub fn of(outcomes: &[DecisionOutcome]) -> Tally {
        let mut tally = Tally::default();
        tally.add(outcomes);
        tally
    }

    /// Count one more batch.
    pub fn add(&mut self, outcomes: &[DecisionOutcome]) {
        for o in outcomes {
            match o.answer {
                Ok(true) => self.yes += 1,
                Ok(false) => self.no += 1,
                Err(_) => self.exhausted += 1,
            }
        }
    }

    /// `["true:t, false:f, exhausted:x"]`: one string with every count.
    pub fn summary(&self) -> Vec<String> {
        vec![format!(
            "true:{}, false:{}, exhausted:{}",
            self.yes, self.no, self.exhausted
        )]
    }

    /// The non-zero counts as separate strings (`"true:t"`, `"false:f"`,
    /// `"budget:x"`): the spelling the committed `BENCH_PR3/4/5/10.json` pin.
    pub fn nonzero(&self) -> Vec<String> {
        [
            ("true", self.yes),
            ("false", self.no),
            ("budget", self.exhausted),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(label, n)| format!("{label}:{n}"))
        .collect()
    }
}

/// A number rounded to `places` decimals, as the reports print it.
pub fn rounded(x: f64, places: usize) -> Json {
    Json::Float(format!("{x:.places$}").parse().unwrap_or(x))
}

/// Milliseconds, rounded to three decimals.
pub fn ms(x: f64) -> Json {
    rounded(x, 3)
}

/// A ratio (speedup or overhead), rounded to two decimals.
pub fn ratio(x: f64) -> Json {
    rounded(x, 2)
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn object(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// One `speedup_vs_baseline` row: `baseline_ms / current_ms`.
pub fn speedup_row(
    problem: &str,
    workload: &str,
    mode: &str,
    baseline_ms: f64,
    current_ms: f64,
) -> Json {
    object([
        ("problem", Json::str(problem)),
        ("workload", Json::str(workload)),
        ("mode", Json::str(mode)),
        ("baseline_ms", ms(baseline_ms)),
        ("current_ms", ms(current_ms)),
        ("speedup", ratio(baseline_ms / current_ms.max(1e-6))),
    ])
}

/// One `results` row.
#[derive(Clone, Debug)]
pub struct Row {
    /// The decision problem, or `"standing"` for a standing-query stream.
    pub problem: &'static str,
    /// The workload label.
    pub workload: String,
    /// The measured mode (`sequential`, `fresh`, `plain`, `push`, …).
    pub mode: &'static str,
    /// The row's wall time.
    pub wall_ms: f64,
    /// Suite-specific fields written between `wall_ms` and `answers`.
    pub extra: Vec<(&'static str, Json)>,
    /// The answers column (see [`Tally`]).
    pub answers: Vec<String>,
}

impl Row {
    /// A row without suite-specific fields.
    pub fn new(
        problem: &'static str,
        workload: impl Into<String>,
        mode: &'static str,
        wall_ms: f64,
        answers: Vec<String>,
    ) -> Row {
        Row {
            problem,
            workload: workload.into(),
            mode,
            wall_ms,
            extra: Vec::new(),
            answers,
        }
    }

    fn to_json(&self) -> Json {
        let head = [
            ("problem", Json::str(self.problem)),
            ("workload", Json::str(&self.workload)),
            ("mode", Json::str(self.mode)),
            ("wall_ms", ms(self.wall_ms)),
        ];
        let answers = Json::Array(self.answers.iter().map(Json::str).collect());
        object(
            head.into_iter()
                .chain(self.extra.iter().cloned())
                .chain([("answers", answers)]),
        )
    }
}

/// A report under construction; [`Report::write`] emits it.
pub struct Report {
    members: Vec<(String, Json)>,
    results: Vec<Row>,
}

impl Report {
    /// The header and the `results` rows.
    pub fn new(
        bench: &str,
        description: &str,
        threads: usize,
        iterations: usize,
        smoke: bool,
        results: Vec<Row>,
    ) -> Report {
        let header = [
            ("bench", Json::str(bench)),
            ("description", Json::str(description)),
            ("threads", Json::Int(threads as i64)),
            ("iterations", Json::Int(iterations as i64)),
            ("smoke", Json::Bool(smoke)),
            (
                "results",
                Json::Array(results.iter().map(Row::to_json).collect()),
            ),
        ];
        Report {
            members: header.map(|(k, v)| (k.to_owned(), v)).into(),
            results,
        }
    }

    /// Append a table: a guard table, or `speedup_vs_baseline`.
    pub fn table(mut self, name: &str, rows: Vec<Json>) -> Report {
        self.members.push((name.to_owned(), Json::Array(rows)));
        self
    }

    /// Embed `baseline` (an earlier run of the same suite) and append the
    /// `speedup_vs_baseline` table: one row per result whose `(problem, workload,
    /// mode)` the baseline's `results` also carry.
    pub fn against(mut self, baseline: Json) -> Report {
        let base = rows(&baseline, "results").unwrap_or(&[]);
        let speedups = self
            .results
            .iter()
            .filter_map(|r| {
                let b = base.iter().find(|b| {
                    text(b, "problem") == r.problem
                        && text(b, "workload") == r.workload
                        && text(b, "mode") == r.mode
                })?;
                let base_ms = num(b, "wall_ms")?;
                Some(speedup_row(
                    r.problem,
                    &r.workload,
                    r.mode,
                    base_ms,
                    r.wall_ms,
                ))
            })
            .collect();
        self.members.push(("baseline".to_owned(), baseline));
        self.table("speedup_vs_baseline", speedups)
    }

    /// The report's text: one top-level key or table row per line.
    fn render(&self) -> String {
        let mut out = String::new();
        pretty(&Json::Object(self.members.clone()), 0, &mut out);
        out.push('\n');
        out
    }

    /// Write the report to `path`.  Panics if the file cannot be written.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

/// Whether `v` holds an object below it, and so spreads over several lines.
fn nested(v: &Json) -> bool {
    match v {
        Json::Object(members) => members
            .iter()
            .any(|(_, m)| nested(m) || m.as_object().is_some()),
        Json::Array(items) => items.iter().any(|i| i.as_object().is_some()),
        _ => false,
    }
}

/// Lay `v` out with one member or element per line wherever it nests objects; rows
/// of scalars stay on one line.
fn pretty(v: &Json, depth: usize, out: &mut String) {
    let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match v {
        Json::Object(members) if nested(v) => (
            '{',
            '}',
            members.iter().map(|(k, m)| (Some(k.as_str()), m)).collect(),
        ),
        Json::Array(elements) if nested(v) => {
            ('[', ']', elements.iter().map(|e| (None, e)).collect())
        }
        _ => {
            out.push_str(&v.to_string());
            return;
        }
    };
    let pad = "  ".repeat(depth + 1);
    out.push(open);
    for (i, (key, item)) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&pad);
        if let Some(key) = key {
            out.push_str(&format!("{}: ", Json::str(*key)));
        }
        pretty(item, depth + 1, out);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

/// One guard table: every row's `value` field must stay on the right side of the
/// row's own `bound` field, and its `verdict` field must be `true`.
struct Guard {
    /// The table's key in the report.
    table: &'static str,
    /// The measured ratio.
    value: &'static str,
    /// The bound the row embeds.
    bound: &'static str,
    /// `true`: the bound is a floor (value ≥ bound); `false`: a ceiling (value ≤ bound).
    floor: bool,
    /// The audit flag: answers matched, or certificates verified.
    verdict: &'static str,
}

/// Every guard table a suite can write: bench-pr5, pr6, pr7, pr8 and bench-stream.
const GUARDS: [Guard; 5] = [
    Guard {
        table: "incremental_guard",
        value: "speedup",
        bound: "floor",
        floor: true,
        verdict: "answers_match",
    },
    Guard {
        table: "certify_overhead",
        value: "overhead",
        bound: "ceiling",
        floor: false,
        verdict: "verified",
    },
    Guard {
        table: "robustness_guard",
        value: "overhead",
        bound: "ceiling",
        floor: false,
        verdict: "answers_match",
    },
    Guard {
        table: "stealing_guard",
        value: "speedup",
        bound: "floor",
        floor: true,
        verdict: "answers_match",
    },
    Guard {
        table: "stream_guard",
        value: "speedup",
        bound: "floor",
        floor: true,
        verdict: "answers_match",
    },
];

/// Slack for the two-decimal rounding: a printed `0.90` must clear a `0.9` floor.
const EPSILON: f64 = 1e-9;

/// The modes a `results` row may name.
const MODES: [&str; 11] = [
    "sequential",
    "parallel",
    "fresh",
    "incremental",
    "plain",
    "certified",
    "hardened",
    "static",
    "stealing",
    "push",
    "redecide",
];

/// The rows of table `name`, if `report` carries one.
fn rows<'a>(report: &'a Json, name: &str) -> Option<&'a [Json]> {
    report.get(name)?.as_array()
}

fn num(row: &Json, field: &str) -> Option<f64> {
    row.get(field)?.as_f64()
}

fn text<'a>(row: &'a Json, field: &str) -> &'a str {
    row.get(field).and_then(Json::as_str).unwrap_or("")
}

fn label(row: &Json) -> String {
    let mut label = format!("{} / {}", text(row, "problem"), text(row, "workload"));
    if let Some(metric) = row.get("metric").and_then(Json::as_str) {
        label.push_str(&format!(" ({metric})"));
    }
    label
}

fn parse(raw: &str) -> Result<Json, Vec<String>> {
    if raw.trim().is_empty() {
        return Err(vec!["empty report".to_owned()]);
    }
    Json::parse(raw).map_err(|e| vec![e.to_string()])
}

/// Judge every [`GUARDS`] table `report` carries at its top level; returns the number
/// of rows judged.
fn check_guards(report: &Json, failures: &mut Vec<String>) -> usize {
    let mut judged = 0;
    for g in &GUARDS {
        let Some(table) = report.get(g.table) else {
            continue;
        };
        let table = table.as_array().unwrap_or(&[]);
        if table.is_empty() {
            failures.push(format!("{} table has no rows", g.table));
        }
        for row in table {
            judged += 1;
            let label = label(row);
            if row.get(g.verdict).and_then(Json::as_bool) != Some(true) {
                failures.push(format!("{}: {label}: {} is not true", g.table, g.verdict));
            }
            match (num(row, g.value), num(row, g.bound)) {
                (Some(value), Some(bound)) => {
                    let holds = if g.floor {
                        value >= bound - EPSILON
                    } else {
                        value <= bound + EPSILON
                    };
                    if !holds {
                        let side = if g.floor { "below" } else { "above" };
                        failures.push(format!(
                            "{}: {label}: {} {value}x {side} its {} {bound}x",
                            g.table, g.value, g.bound
                        ));
                    }
                }
                _ => failures.push(format!(
                    "{}: {label}: missing {} or {}",
                    g.table, g.value, g.bound
                )),
            }
        }
    }
    judged
}

/// Judge a committed report: its guard tables, and a top-level `speedup_vs_baseline`
/// table whose every row clears `min_speedup`.  Returns a one-line summary, or every
/// failure.
pub fn check_committed(raw: &str, min_speedup: f64) -> Result<String, Vec<String>> {
    let report = parse(raw)?;
    let mut failures = Vec::new();
    let judged = check_guards(&report, &mut failures);
    let speedups = rows(&report, "speedup_vs_baseline").unwrap_or(&[]);
    if report.get("speedup_vs_baseline").is_none() {
        failures.push(
            "committed report has no speedup_vs_baseline table (lost its baseline?)".to_owned(),
        );
    } else if speedups.is_empty() {
        failures.push("speedup_vs_baseline table has no rows".to_owned());
    }
    for row in speedups {
        let speedup = num(row, "speedup");
        if !speedup.is_some_and(|s| s >= min_speedup - EPSILON) {
            failures.push(format!(
                "{} / {}: speedup {speedup:?} below the floor {min_speedup}x",
                label(row),
                text(row, "mode")
            ));
        }
    }
    if failures.is_empty() {
        Ok(format!(
            "{judged} guard rows within bounds, {} speedup rows ≥ {min_speedup}x",
            speedups.len()
        ))
    } else {
        Err(failures)
    }
}

/// Judge a fresh smoke report: a `BENCH_*` tag, `"smoke": true`, its guard tables,
/// and at least one well-formed `results` row with a known mode.  Returns a one-line
/// summary, or every failure.
pub fn check_smoke(raw: &str) -> Result<String, Vec<String>> {
    let report = parse(raw)?;
    let mut failures = Vec::new();
    if !text(&report, "bench").starts_with("BENCH_") {
        failures.push("missing/odd \"bench\" tag".to_owned());
    }
    if report.get("smoke").and_then(Json::as_bool) != Some(true) {
        failures.push("not a smoke run".to_owned());
    }
    let judged = check_guards(&report, &mut failures);
    let results = rows(&report, "results").unwrap_or(&[]);
    if results.is_empty() {
        failures.push("smoke run produced no measurements".to_owned());
    }
    for row in results {
        let well_formed = row.get("problem").and_then(Json::as_str).is_some()
            && row.get("workload").and_then(Json::as_str).is_some()
            && num(row, "wall_ms").is_some()
            && row.get("answers").and_then(Json::as_array).is_some()
            && MODES.contains(&text(row, "mode"));
        if !well_formed {
            failures.push(format!("malformed result row: {row}"));
        }
    }
    if failures.is_empty() {
        Ok(format!(
            "{} smoke rows, {judged} guard rows within bounds",
            results.len()
        ))
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RESULTS: &str = r#""results": [{"problem": "membership", "workload": "w", "mode": "fresh", "wall_ms": 1.5, "answers": ["true:1"]}]"#;

    /// A report with the standard header, one result row and `tables` appended.
    fn report(bench: &str, smoke: bool, tables: &str) -> String {
        let mut raw = format!(
            r#"{{"bench": "{bench}", "description": "d", "threads": 1, "iterations": 1, "smoke": {smoke}, {RESULTS}"#
        );
        if !tables.is_empty() {
            raw.push_str(", ");
            raw.push_str(tables);
        }
        raw.push('}');
        raw
    }

    const SPEEDUPS: &str = r#""speedup_vs_baseline": [{"problem": "membership", "workload": "w", "mode": "fresh", "baseline_ms": 2.0, "current_ms": 1.0, "speedup": 2.00}]"#;

    /// A committed report carrying `guard` and the passing speedup table.
    fn committed(guard: &str) -> Result<String, Vec<String>> {
        check_committed(
            &report("BENCH_X", false, &format!("{guard}, {SPEEDUPS}")),
            0.9,
        )
    }

    fn guard_row(table: &str, fields: &str) -> String {
        format!(r#""{table}": [{{"problem": "p", "workload": "w", {fields}}}]"#)
    }

    fn fails_with(verdict: Result<String, Vec<String>>, needle: &str) {
        let failures = verdict.expect_err("the report must fail");
        assert!(
            failures.iter().any(|f| f.contains(needle)),
            "no failure mentions {needle:?}: {failures:?}"
        );
    }

    #[test]
    fn a_false_verdict_fails_every_guard() {
        for g in &GUARDS {
            let row = guard_row(
                g.table,
                &format!(
                    r#""{}": 1.0, "{}": 1.0, "{}": false"#,
                    g.value, g.bound, g.verdict
                ),
            );
            fails_with(committed(&row), g.verdict);
            let passing = guard_row(
                g.table,
                &format!(
                    r#""{}": 1.0, "{}": 1.0, "{}": true"#,
                    g.value, g.bound, g.verdict
                ),
            );
            assert!(committed(&passing).is_ok(), "{}", g.table);
        }
        let missing = guard_row("stream_guard", r#""speedup": 12.0, "floor": 10"#);
        fails_with(committed(&missing), "answers_match");
    }

    #[test]
    fn a_value_past_its_bound_fails_floors_and_ceilings() {
        let below_floor = guard_row(
            "incremental_guard",
            r#""speedup": 9.99, "floor": 10, "answers_match": true"#,
        );
        fails_with(committed(&below_floor), "below its floor");
        let above_ceiling = guard_row(
            "certify_overhead",
            r#""overhead": 1.51, "ceiling": 1.5, "verified": true"#,
        );
        fails_with(committed(&above_ceiling), "above its ceiling");
        let missing_bound = guard_row(
            "robustness_guard",
            r#""overhead": 1.0, "answers_match": true"#,
        );
        fails_with(committed(&missing_bound), "missing overhead or ceiling");
    }

    #[test]
    fn a_printed_bound_is_met_at_equality() {
        let at_floor = guard_row(
            "stealing_guard",
            r#""speedup": 0.90, "floor": 0.9, "answers_match": true"#,
        );
        assert!(committed(&at_floor).is_ok());
        let at_ceiling = guard_row(
            "robustness_guard",
            r#""overhead": 1.05, "ceiling": 1.05, "answers_match": true"#,
        );
        assert!(committed(&at_ceiling).is_ok());
        let speedup = SPEEDUPS.replace("2.00}", "0.90}");
        assert!(check_committed(&report("BENCH_X", false, &speedup), 0.9).is_ok());
        let speedup = SPEEDUPS.replace("2.00}", "0.89}");
        fails_with(
            check_committed(&report("BENCH_X", false, &speedup), 0.9),
            "below the floor",
        );
    }

    #[test]
    fn empty_tables_fail() {
        fails_with(
            committed(r#""stream_guard": []"#),
            "stream_guard table has no rows",
        );
        fails_with(
            check_committed(
                &report("BENCH_X", false, r#""speedup_vs_baseline": []"#),
                0.9,
            ),
            "speedup_vs_baseline table has no rows",
        );
    }

    #[test]
    fn a_committed_report_without_speedups_fails() {
        fails_with(
            check_committed(&report("BENCH_X", false, ""), 0.9),
            "no speedup_vs_baseline table",
        );
    }

    #[test]
    fn empty_and_unparsable_reports_fail() {
        fails_with(check_committed("", 0.9), "empty report");
        fails_with(check_smoke(" \n"), "empty report");
        fails_with(check_committed("{\"bench\": ", 0.9), "invalid JSON");
        fails_with(check_smoke("not json"), "invalid JSON");
    }

    #[test]
    fn smoke_reports_must_be_smoke_runs_with_a_tag_and_known_modes() {
        assert!(check_smoke(&report("BENCH_X", true, "")).is_ok());
        fails_with(
            check_smoke(&report("BENCH_X", false, "")),
            "not a smoke run",
        );
        fails_with(check_smoke(&report("PR_X", true, "")), "\"bench\" tag");
        let odd_mode = report("BENCH_X", true, "").replace("\"fresh\"", "\"warp\"");
        fails_with(check_smoke(&odd_mode), "malformed result row");
        let no_rows = report("BENCH_X", true, "").replace(RESULTS, r#""results": []"#);
        fails_with(check_smoke(&no_rows), "no measurements");
        let bad_guard = guard_row(
            "incremental_guard",
            r#""speedup": 0.5, "floor": 0.9, "answers_match": true"#,
        );
        fails_with(
            check_smoke(&report("BENCH_X", true, &bad_guard)),
            "below its floor",
        );
    }

    #[test]
    fn an_embedded_baseline_is_not_judged() {
        let failing = SPEEDUPS.replace("2.00}", "0.10}");
        let baseline = report("BENCH_X", false, &failing);
        let outer = format!(r#""baseline": {baseline}, {SPEEDUPS}"#);
        assert!(check_committed(&report("BENCH_X", false, &outer), 0.9).is_ok());
        let inverted = format!(
            r#""baseline": {}, {failing}"#,
            report("BENCH_X", false, SPEEDUPS)
        );
        fails_with(
            check_committed(&report("BENCH_X", false, &inverted), 0.9),
            "below the floor",
        );
    }

    #[test]
    fn written_reports_read_back() {
        let measured = vec![
            Row::new("membership", "w", "sequential", 2.0004, vec!["true".into()]),
            Row::new("membership", "w", "parallel", 1.0, vec!["false".into()]),
        ];
        let baseline = Report::new("BENCH_X", "d", 1, 1, true, measured.clone()).render();
        let faster: Vec<Row> = measured
            .into_iter()
            .map(|r| Row {
                wall_ms: r.wall_ms / 4.0,
                ..r
            })
            .collect();
        let guard = object([
            ("problem", Json::str("all")),
            ("workload", Json::str("suite")),
            ("overhead", ratio(1.0 / 3.0)),
            ("ceiling", Json::Float(1.5)),
            ("verified", Json::Bool(true)),
        ]);
        let text = Report::new("BENCH_X", "d", 1, 1, true, faster)
            .table("certify_overhead", vec![guard])
            .against(Json::parse(&baseline).unwrap())
            .render();
        assert!(check_smoke(&text).is_ok(), "{text}");
        assert!(check_committed(&text, 0.9).is_ok(), "{text}");
        assert!(text.contains(r#""wall_ms":2.0,"#), "{baseline}");
        assert!(text.contains(r#""overhead":0.33,"#), "{text}");
        let parsed = Json::parse(&text).unwrap();
        let speedups = rows(&parsed, "speedup_vs_baseline").unwrap();
        assert_eq!(speedups.len(), 2);
        assert_eq!(num(&speedups[0], "speedup"), Some(4.0));
        // Results, guard, baseline results and speedups: one row per line.
        let row_lines = text
            .lines()
            .filter(|l| l.trim_start().starts_with(r#"{"problem""#))
            .count();
        assert_eq!(row_lines, 2 + 1 + 2 + 2, "{text}");
    }

    #[test]
    fn tallies_render_both_spellings() {
        let tally = Tally {
            yes: 2,
            no: 0,
            exhausted: 1,
        };
        assert_eq!(tally.summary(), ["true:2, false:0, exhausted:1"]);
        assert_eq!(tally.nonzero(), ["true:2", "budget:1"]);
    }
}
