//! `bench-pr4` — the shard-group benchmark: batch wall time on *decoupled
//! multi-relation* workloads — single requests whose instances span many
//! variable-disjoint relations — emitted as machine-readable JSON.
//!
//! `bench-pr2` stressed constant comparisons and `bench-pr3` relation addressing; this
//! harness stresses the **search-tree shape**.  A database of `k` variable-disjoint
//! relations makes the joint backtracking searches interleave all `k` relations' choice
//! points in one tree — a "no" answer near the end of the work list multiplies through
//! every earlier relation's alternatives — while the shard-group paths introduced with
//! this benchmark solve each coupling group independently and merge, turning the
//! multiplicative tree into a sum of small ones.  The same binary is run before and
//! after the engine change; `--baseline <file>` embeds the prior run's numbers and
//! reports per-row speedups, which is how `BENCH_PR4.json` records the before/after of
//! the per-shard PR.  Answers must be bit-identical between the two runs — a speedup
//! that flips an answer is a bug, and the report pins the aggregated answers per row.
//!
//! Usage:
//!   cargo run --release --bin bench-pr4 -- [--smoke] [--sweeps N] [--out FILE] [--baseline FILE]
//!
//! `--smoke` shrinks the workloads to a few relations and one iteration so CI can check
//! the harness and the JSON shape in seconds.  `--sweeps N` repeats the whole sweep N
//! times and keeps each row's minimum, cancelling machine drift.

use pw_bench::report::{Args, Report, Row, Tally};
use pw_bench::suite::median_batch_ms;
use pw_core::{CDatabase, View};
use pw_decide::batch::DecisionRequest;
use pw_decide::{Budget, EngineConfig};
use pw_relational::{Constant, Instance, Relation, Tuple};
use pw_workloads::{decoupled_multirelation, member_instance, TableParams};

/// A decoupled workload: the multi-relation database plus the instances the requests are
/// phrased against.
///
/// The "no" instances are engineered to make the joint search pay its multiplicative
/// price *without* blowing the budget: the low null density gives every earlier relation
/// a small number of alternative row↔fact assignments, and the **last** relation (in the
/// instance iteration order the searches follow) is made infeasible — so the joint tree
/// re-discovers the tail's failure once per combination of the earlier relations'
/// alternatives, while a per-shard search fails the tail group once.
struct Workload {
    label: String,
    db: CDatabase,
    /// A guaranteed member of `rep(db)` spanning every relation.
    member: Instance,
    /// The member instance with one extra unproducible fact appended to the last
    /// relation — a non-member discovered only at the tail of the joint row assignment.
    tail_non_member: Instance,
    /// Two member facts per relation (a coverable pattern — possibility "yes").
    pattern: Instance,
    /// The same pattern with an unproducible fact appended to the last relation
    /// (possibility "no", discovered at the tail).
    poisoned_pattern: Instance,
}

/// The i-th poison fact: pairwise distinct, outside the generator's constant pool.
fn poison_fact(i: usize) -> Tuple {
    let i = i as i64;
    Tuple::new([Constant::Int(-1 - 2 * i), Constant::Int(-2 - 2 * i)])
}

/// Make the relation infeasible by *counting*: pad it past the table's row count with
/// distinct poison facts.  A table of `rows` rows produces at most `rows` distinct facts
/// (membership maps each row onto one fact; possibility needs a distinct producing row
/// per fact), so the padded relation is a guaranteed "no" at any null density — the
/// joint search still has to exhaust the earlier relations' alternatives to see it.
fn pad_past_rows(rel: &Relation, rows: usize) -> Relation {
    let mut out = rel.clone();
    let mut i = 0;
    while out.len() <= rows {
        out.insert(poison_fact(i)).expect("arity 2");
        i += 1;
    }
    out
}

fn build_workload(relations: usize, seed: u64) -> Workload {
    // Moderate null density: most rows are ground, one or two per relation carry nulls
    // and are therefore compatible with several facts — that bounded per-relation
    // branching is the multiplicative factor the joint "no" searches pay across
    // relations, sized so the sweep completes within the budget.
    let params = TableParams {
        rows: 5,
        arity: 2,
        constants: 3,
        null_density: 0.5,
        seed,
    };
    let db = decoupled_multirelation(relations, &params);
    let member = member_instance(&db, &params);
    let last = db.tables().last().expect("non-empty workload").name();

    let mut tail_non_member = Instance::new();
    let mut pattern = Instance::new();
    let mut poisoned = Instance::new();
    for (name, rel) in member.iter() {
        // Membership: the member instance with the last relation padded past its row
        // count — a non-member discovered only at the tail of the joint assignment.
        let m = if name == last {
            pad_past_rows(rel, params.rows)
        } else {
            rel.clone()
        };
        tail_non_member.insert_relation(name.clone(), m);

        // Possibility: two member facts per relation; the poisoned twin pads the last
        // relation past its row count.
        let mut p = Relation::empty(rel.arity());
        for fact in rel.iter().take(2) {
            p.insert(fact.clone()).expect("arity preserved");
        }
        pattern.insert_relation(name.clone(), p.clone());
        let q = if name == last {
            pad_past_rows(&p, params.rows)
        } else {
            p
        };
        poisoned.insert_relation(name.clone(), q);
    }

    Workload {
        label: format!("decoupled-{relations}"),
        db,
        member,
        tail_non_member,
        pattern,
        poisoned_pattern: poisoned,
    }
}

/// Containment sweeps get their own (smaller) sizes: the joint fallback is the Π₂ᵖ
/// canonical-valuation enumeration over *all* variables of the left database, so the
/// pre-shard baseline only completes on small databases — which is exactly the point the
/// per-group decomposition makes.
fn build_containment_workload(relations: usize, seed: u64) -> Workload {
    let params = TableParams {
        rows: 2,
        arity: 2,
        constants: 3,
        null_density: 0.5,
        seed,
    };
    let db = decoupled_multirelation(relations, &params);
    let member = member_instance(&db, &params);
    Workload {
        label: format!("decoupled-small-{relations}"),
        db,
        tail_non_member: member.clone(),
        pattern: member.clone(),
        poisoned_pattern: member.clone(),
        member,
    }
}

fn build_workloads(smoke: bool) -> Vec<Workload> {
    let sizes: &[usize] = if smoke { &[3] } else { &[6, 8, 10] };
    sizes.iter().map(|&n| build_workload(n, 1987)).collect()
}

fn build_containment_workloads(smoke: bool) -> Vec<Workload> {
    let sizes: &[usize] = if smoke { &[2] } else { &[2, 3] };
    sizes
        .iter()
        .map(|&n| build_containment_workload(n, 2024))
        .collect()
}

/// Per-problem request lists.  Every request spans the whole multi-relation database, so
/// the joint search interleaves all relations and the per-shard paths split per group.
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
                instance: w.tail_non_member.clone(),
            },
        ],
        "possibility" => vec![
            DecisionRequest::Possibility {
                view: view.clone(),
                facts: w.pattern.clone(),
            },
            DecisionRequest::Possibility {
                view,
                facts: w.poisoned_pattern.clone(),
            },
        ],
        "certainty" => vec![DecisionRequest::Certainty {
            view,
            facts: w.pattern.clone(),
        }],
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

const PROBLEMS: [&str; 4] = ["membership", "possibility", "certainty", "uniqueness"];

fn main() {
    let args = Args::parse("BENCH_PR4.json");
    let baseline = args.baseline();
    let iters = if args.smoke { 1 } else { 7 };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Ample enough that the joint searches on the largest workload complete rather than
    // exhaust — "budget" rows would make the before/after wall times incomparable.
    let budget = Budget(20_000_000);
    let sequential = EngineConfig::sequential(budget);
    let parallel = EngineConfig::with_threads(threads, budget);

    let sweeps = args.sweeps(1);
    let workloads = build_workloads(args.smoke);
    let containment_workloads = build_containment_workloads(args.smoke);
    // The full measurement plan: (problem, workload) pairs — containment runs on its own
    // smaller sweep (see `build_containment_workload`).
    let plan: Vec<(&'static str, &Workload)> = workloads
        .iter()
        .flat_map(|w| PROBLEMS.iter().map(move |&p| (p, w)))
        .chain(containment_workloads.iter().map(|w| ("containment", w)))
        .collect();
    let mut rows: Vec<Row> = Vec::new();
    for sweep in 0..sweeps {
        let mut row = 0;
        for &(problem, w) in &plan {
            for (mode, cfg) in [("sequential", &sequential), ("parallel", &parallel)] {
                let requests = requests_for(problem, w);
                let (wall_ms, outcomes) = median_batch_ms(&requests, cfg, iters);
                let m = Row::new(
                    problem,
                    &w.label,
                    mode,
                    wall_ms,
                    Tally::of(&outcomes).nonzero(),
                );
                eprintln!(
                    "sweep {}/{sweeps}: {:<12} {:<18} {:<10} {:>10.3} ms  [{}]",
                    sweep + 1,
                    m.problem,
                    m.workload,
                    m.mode,
                    m.wall_ms,
                    m.answers.join(", ")
                );
                if sweep == 0 {
                    rows.push(m);
                } else if m.wall_ms < rows[row].wall_ms {
                    rows[row] = m;
                }
                row += 1;
            }
        }
    }

    let mut report = Report::new(
        "BENCH_PR4",
        "batch wall time on decoupled multi-relation workloads: joint search vs shard-group fan-out (see crates/bench/src/bin/bench_pr4.rs)",
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
