//! `bench-pr3` — the relation-catalog benchmark: batch wall time on *name-lookup-heavy*
//! workloads — many small requests fanned out across many relations — emitted as
//! machine-readable JSON.
//!
//! `bench-pr2` stressed constant comparisons; this harness stresses the other string
//! axis: **relation addressing**.  A database holds dozens of relations whose names share
//! a long common prefix (the worst case for string hashing and comparison), and every
//! request touches a single relation, so per-request costs are dominated by boundary
//! resolution — `db.table(name)` lookups, base-store cache keys, dispatch.  The same
//! binary is run before and after a catalog change; `--baseline <file>` embeds the prior
//! run's numbers and reports per-row speedups, which is how `BENCH_PR3.json` records the
//! before/after of the `RelId` catalog PR.
//!
//! Usage:
//!   cargo run --release --bin bench-pr3 -- [--smoke] [--sweeps N] [--out FILE] [--baseline FILE]
//!
//! `--smoke` shrinks the workloads to a few relations and one iteration so CI can check
//! the harness and the JSON shape in seconds.  `--sweeps N` repeats the whole measurement
//! sweep N times and keeps each row's minimum — batches here are tens of microseconds to
//! tens of milliseconds, so a single ~30 s sweep is exposed to machine drift that
//! per-row minima across sweeps cancel out.

use pw_bench::report::{Args, Report, Row, Tally};
use pw_bench::suite::median_batch_ms;
use pw_condition::{Term, VarGen};
use pw_core::{CDatabase, CTable, View};
use pw_decide::batch::DecisionRequest;
use pw_decide::{Budget, EngineConfig};
use pw_relational::{Instance, Relation, Tuple};

/// A name-heavy workload: one database of `relations` small tables plus, per relation,
/// the instances the requests are phrased against.
struct Workload {
    label: String,
    db: CDatabase,
    /// Per relation: (name, member instance, possible pattern, certain fact, uncertain fact).
    per_relation: Vec<RelationFixtures>,
}

struct RelationFixtures {
    name: String,
    member: Instance,
    non_member: Instance,
    pattern: Instance,
    certain: Instance,
    uncertain: Instance,
}

/// Relation names share a long prefix and differ only in the trailing digits — a string
/// hash walks the whole name and a comparison walks most of it.
fn relation_name(r: usize) -> String {
    format!("warehouse-eu-central-inventory-snapshot-{r:05}")
}

fn sku(r: usize, i: usize) -> Term {
    Term::from(format!("sku-{r:05}-{i:05}").as_str())
}

fn sku_fact(r: usize, i: usize, qty: i64) -> Tuple {
    Tuple::new([
        pw_relational::Constant::str(format!("sku-{r:05}-{i:05}")),
        pw_relational::Constant::int(qty),
    ])
}

fn build_workload(relations: usize) -> Workload {
    let mut g = VarGen::new();
    let mut tables = Vec::with_capacity(relations);
    let mut per_relation = Vec::with_capacity(relations);
    for r in 0..relations {
        let name = relation_name(r);
        // Three ground rows plus one open row (an unknown quantity report).
        let x = g.fresh();
        let rows = vec![
            vec![sku(r, 0), Term::from(10)],
            vec![sku(r, 1), Term::from(20)],
            vec![sku(r, 2), Term::from(30)],
            vec![sku(r, 3), Term::Var(x)],
        ];
        tables.push(CTable::codd(&name, 2, rows).expect("distinct fresh variables"));

        let mut member = Instance::new();
        let mut rel = Relation::empty(2);
        for (i, qty) in [(0, 10), (1, 20), (2, 30), (3, 99)] {
            rel.insert(sku_fact(r, i, qty)).expect("arity 2");
        }
        member.insert_relation(&name, rel);

        // Perturb one ground quantity: the ground row (sku-0, 10) can no longer be mapped
        // onto any fact, so this instance is outside the represented worlds.
        let mut non_member_rel = Relation::empty(2);
        for (i, qty) in [(0, 11), (1, 20), (2, 30), (3, 99)] {
            non_member_rel.insert(sku_fact(r, i, qty)).expect("arity 2");
        }
        let non_member = Instance::single(&name, non_member_rel);

        let mut pattern_rel = Relation::empty(2);
        pattern_rel.insert(sku_fact(r, 0, 10)).expect("arity 2");
        pattern_rel.insert(sku_fact(r, 3, 55)).expect("arity 2");
        let pattern = Instance::single(&name, pattern_rel);

        let mut certain_rel = Relation::empty(2);
        certain_rel.insert(sku_fact(r, 0, 10)).expect("arity 2");
        let certain = Instance::single(&name, certain_rel);

        let mut uncertain_rel = Relation::empty(2);
        uncertain_rel.insert(sku_fact(r, 3, 42)).expect("arity 2");
        let uncertain = Instance::single(&name, uncertain_rel);

        per_relation.push(RelationFixtures {
            name,
            member,
            non_member,
            pattern,
            certain,
            uncertain,
        });
    }
    Workload {
        label: format!("relations-{relations}"),
        db: CDatabase::new(tables),
        per_relation,
    }
}

fn build_workloads(smoke: bool) -> Vec<Workload> {
    let sizes: &[usize] = if smoke { &[4] } else { &[8, 24, 64] };
    sizes.iter().map(|&n| build_workload(n)).collect()
}

/// Per-problem request lists: one (or two) small requests per relation, so the batch size
/// scales with the relation count while every individual search stays tiny.
fn requests_for(problem: &str, w: &Workload) -> Vec<DecisionRequest> {
    let view = View::identity(w.db.clone());
    let mut out = Vec::new();
    for fx in &w.per_relation {
        match problem {
            // Membership is asked through a single-relation identity view: the request
            // names one relation of the many-relation database and the dispatcher has to
            // resolve it at the boundary — the name-lookup pattern this bench stresses.
            "membership" => {
                let narrow = View::new(
                    pw_query::Query::identity([(fx.name.clone(), 2)]),
                    w.db.clone(),
                );
                out.push(DecisionRequest::Membership {
                    view: narrow.clone(),
                    instance: fx.member.clone(),
                });
                out.push(DecisionRequest::Membership {
                    view: narrow,
                    instance: fx.non_member.clone(),
                });
            }
            "possibility" => out.push(DecisionRequest::Possibility {
                view: view.clone(),
                facts: fx.pattern.clone(),
            }),
            "certainty" => {
                out.push(DecisionRequest::Certainty {
                    view: view.clone(),
                    facts: fx.certain.clone(),
                });
                out.push(DecisionRequest::Certainty {
                    view: view.clone(),
                    facts: fx.uncertain.clone(),
                });
            }
            other => unreachable!("unknown problem {other}"),
        }
    }
    out
}

const PROBLEMS: [&str; 3] = ["membership", "possibility", "certainty"];

fn main() {
    let args = Args::parse("BENCH_PR3.json");
    let baseline = args.baseline();
    let iters = if args.smoke { 1 } else { 7 };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = Budget(2_000_000);
    let sequential = EngineConfig::sequential(budget);
    let parallel = EngineConfig::with_threads(threads, budget);

    // `--sweeps N` keeps each row's minimum across N whole sweeps (see the module doc).
    let sweeps = args.sweeps(1);
    let workloads = build_workloads(args.smoke);
    let mut rows: Vec<Row> = Vec::new();
    for sweep in 0..sweeps {
        let mut row = 0;
        for w in &workloads {
            for problem in PROBLEMS {
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
                        "sweep {}/{sweeps}: {:<12} {:<14} {:<10} {:>10.3} ms  [{}]",
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
    }

    let mut report = Report::new(
        "BENCH_PR3",
        "batch wall time on name-lookup-heavy workloads: many small requests across many relations (see crates/bench/src/bin/bench_pr3.rs)",
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
