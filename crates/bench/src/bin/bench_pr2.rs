//! `bench-pr2` — the interned-symbol benchmark: per-problem wall time on the standard
//! string-heavy workloads, sequential and parallel, emitted as machine-readable JSON.
//!
//! Every decision procedure bottoms out in term comparisons; this harness measures them
//! where they hurt — constants are strings with a long shared prefix (see
//! `pw_workloads::strings`) so a structural compare walks most of the string.  The same
//! binary is run before and after a hot-path change; `--baseline <file>` embeds the prior
//! run's numbers and reports per-row speedups, which is how `BENCH_PR2.json` records the
//! before/after of the interning PR.
//!
//! Usage:
//!   cargo run --release --bin bench-pr2 -- [--smoke] [--out FILE] [--baseline FILE]
//!
//! `--smoke` shrinks the workloads to a few rows and one iteration so CI can check the
//! harness and the JSON shape in seconds.

use pw_bench::report::{Args, Report, Row};
use pw_bench::suite::PROBLEMS;
use pw_core::{CDatabase, View};
use pw_decide::batch::{decide_all_with, DecisionRequest};
use pw_decide::{Budget, EngineConfig};
use pw_relational::{Instance, Relation};
use pw_workloads::{
    member_instance, non_member_instance, random_codd_table, random_ctable, random_etable,
    random_gtable, random_itable, stringify_database, stringify_instance, TableParams,
};
use std::time::Instant;

/// A workload: a database plus the instances the requests are phrased against.
struct Workload {
    label: String,
    db: CDatabase,
    member: Instance,
    non_member: Instance,
}

type TableBuilder = Box<dyn Fn(&TableParams) -> pw_core::CTable>;

fn build_workloads(smoke: bool) -> Vec<Workload> {
    let rows = |full: usize| if smoke { 6 } else { full };
    let mut out = Vec::new();
    let specs: Vec<(&str, usize, TableBuilder)> = vec![
        ("codd", rows(64), Box::new(|p| random_codd_table("T", p))),
        ("e-table", rows(48), Box::new(|p| random_etable("T", p))),
        ("i-table", rows(48), Box::new(|p| random_itable("T", p))),
        ("g-table", rows(48), Box::new(|p| random_gtable("T", p))),
        ("c-table", rows(40), Box::new(|p| random_ctable("T", p))),
    ];
    for (name, n, build) in specs {
        let params = TableParams::with_rows(n, 0xC0FFEE ^ n as u64);
        let db = CDatabase::single(build(&params));
        let member = member_instance(&db, &params);
        let non_member = non_member_instance(&db, &params);
        out.push(Workload {
            label: format!("{name}-{n}"),
            db: stringify_database(&db),
            member: stringify_instance(&member),
            non_member: stringify_instance(&non_member),
        });
    }
    out
}

/// The first few facts of a member instance — a "possible pattern" for POSS.
fn pattern_of(member: &Instance, keep: usize) -> Instance {
    let mut out = Instance::new();
    for (name, rel) in member.iter() {
        let mut small = Relation::empty(rel.arity());
        for fact in rel.iter().take(keep) {
            small.insert(fact.clone()).expect("arity preserved");
        }
        out.insert_relation(name.clone(), small);
    }
    out
}

/// Per-problem request lists against one workload.
fn requests_for(problem: &str, w: &Workload) -> Vec<DecisionRequest> {
    let view = View::identity(w.db.clone());
    match problem {
        "membership" => vec![
            DecisionRequest::Membership {
                view: view.clone(),
                instance: w.member.clone(),
            },
            DecisionRequest::Membership {
                view,
                instance: w.non_member.clone(),
            },
        ],
        "possibility" => vec![
            DecisionRequest::Possibility {
                view: view.clone(),
                facts: pattern_of(&w.member, 4),
            },
            DecisionRequest::Possibility {
                view,
                facts: pattern_of(&w.non_member, 4),
            },
        ],
        "certainty" => vec![
            DecisionRequest::Certainty {
                view: view.clone(),
                facts: pattern_of(&w.member, 2),
            },
            DecisionRequest::Certainty {
                view,
                facts: pattern_of(&w.non_member, 2),
            },
        ],
        "uniqueness" => vec![DecisionRequest::Uniqueness {
            view,
            instance: w.member.clone(),
        }],
        "containment" => vec![DecisionRequest::Containment {
            left: view.clone(),
            right: view,
        }],
        other => unreachable!("unknown problem {other}"),
    }
}

fn measure(
    problem: &'static str,
    workload: &Workload,
    mode: &'static str,
    cfg: &EngineConfig,
    iters: usize,
) -> Row {
    let requests = requests_for(problem, workload);
    // Median-of-iters wall time; answers from the last run (they are deterministic).
    let mut times = Vec::with_capacity(iters);
    let mut answers = Vec::new();
    for _ in 0..iters {
        let start = Instant::now();
        let outcomes = decide_all_with(&requests, cfg);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        answers = outcomes
            .iter()
            .map(|o| match o.answer {
                Ok(b) => b.to_string(),
                Err(_) => "budget".to_owned(),
            })
            .collect();
    }
    times.sort_by(f64::total_cmp);
    Row::new(
        problem,
        &workload.label,
        mode,
        times[times.len() / 2],
        answers,
    )
}

fn main() {
    let args = Args::parse("BENCH_PR2.json");
    let baseline = args.baseline();
    let iters = if args.smoke { 1 } else { 5 };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = Budget(2_000_000);
    let sequential = EngineConfig::sequential(budget);
    let parallel = EngineConfig::with_threads(threads, budget);

    let workloads = build_workloads(args.smoke);
    let mut rows = Vec::new();
    for w in &workloads {
        for problem in PROBLEMS {
            for (mode, cfg) in [("sequential", &sequential), ("parallel", &parallel)] {
                let m = measure(problem, w, mode, cfg, iters);
                eprintln!(
                    "{:<12} {:<12} {:<10} {:>10.3} ms  [{}]",
                    m.problem,
                    m.workload,
                    m.mode,
                    m.wall_ms,
                    m.answers.join(", ")
                );
                rows.push(m);
            }
        }
    }

    let mut report = Report::new(
        "BENCH_PR2",
        "per-problem wall time on string-heavy standard workloads (see crates/bench/src/bin/bench_pr2.rs)",
        threads,
        iters,
        args.smoke,
        rows,
    );
    if let Some(baseline) = baseline {
        report = report.against(baseline);
    }
    report.write(&args.out);
}
