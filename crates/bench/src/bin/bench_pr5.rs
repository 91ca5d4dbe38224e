//! `bench-pr5` — the incremental re-decision benchmark: *decide, mutate, re-decide* on
//! mutation-stream workloads, comparing the delta-aware path against a from-scratch
//! decide, emitted as machine-readable JSON.
//!
//! `bench-pr4` proved that a decision over a decoupled multi-relation database fans out
//! across its shard groups; this harness proves the serving-side consequence: after a
//! **single-group delta** ([`pw_workloads::mutations`]), a [`pw_decide::Session`]
//! re-decision replays the memoized verdicts of every untouched group and re-searches
//! only the dirty one, while the from-scratch path (a fresh `decide_all_with` per
//! mutation, exactly what a service without the delta layer would run) rebuilds the
//! coupling graph, the base stores and every group's search from nothing.
//!
//! Each measured row covers one (problem, workload) pair and one *mutation stream*: the
//! same K deltas are applied along two identical database chains; the `fresh` mode
//! decides each mutated database from scratch, the `incremental` mode re-decides through
//! one long-lived session.  Answers must be bit-identical between the modes — the report
//! records `answers_match` per row, and the `incremental_guard` table (consumed by
//! `check-bench` in CI) enforces both the match and a per-row speedup floor.
//!
//! Usage:
//!   cargo run --release --bin bench-pr5 -- [--smoke] [--sweeps N] [--out FILE]
//!
//! `--smoke` shrinks the stream to a few relations and deltas so CI can check the
//! harness and the JSON shape in seconds (the smoke floor only asserts "not slower than
//! from-scratch"; the committed full run carries the real ≥10× floor).

use pw_bench::report::{ms, object, ratio, speedup_row, Args, Report, Row, Tally};
use pw_bench::suite::same_verdicts;
use pw_core::{CDatabase, View};
use pw_decide::batch::{decide_all_with, DecisionRequest};
use pw_decide::{Budget, DecisionOutcome, EngineConfig, Session};
use pw_relational::{Constant, Instance, Relation, Tuple};
use pw_serve::json::Json;
use pw_workloads::{decoupled_multirelation, member_instance, stable_delta_stream, TableParams};
use std::time::Instant;

/// The fixed request instances of one workload (standing queries of the stream).
struct Workload {
    label: String,
    /// The base database: `relations − 1` light mutable head shards plus one heavy
    /// *stable* tail shard (the accumulated knowledge the deltas never touch).
    base: CDatabase,
    /// The answer-stable single-group deltas, all targeting head shards.
    deltas: Vec<pw_core::Delta>,
    member: Instance,
    tail_non_member: Instance,
    certain_facts: Instance,
    pattern: Instance,
    poisoned_pattern: Instance,
}

/// The poison fact: unproducible (constants far outside the generator's pool) and
/// sorting *after* every pool-valued fact, so fact-ordered searches (the covering
/// search) reach it only after exhausting the genuine facts' alternatives.  Content
/// poisoning keeps the fact count at or below the row count — a padded relation would
/// be rejected by the per-group searches' counting prune in O(1), proving nothing.
fn poison_fact() -> Tuple {
    Tuple::new([Constant::Int(1001), Constant::Int(1002)])
}

/// Replace one fact of the relation with the poison fact (same cardinality).
fn poison_one(rel: &Relation) -> Relation {
    let mut facts: Vec<Tuple> = rel.iter().cloned().collect();
    facts.pop();
    facts.push(poison_fact());
    Relation::from_tuples(rel.arity(), facts)
}

/// The heavy tail shard: a c-table whose first half is repeated-null rows `(x, x)`
/// guarded by a two-atom local condition on a private switch variable, followed by
/// ground rows.  The shape is chosen so that
///
/// * the poison fact `(1001, 1002)` is unproducible by *every* row — a `(x, x)` row
///   only yields equal pairs, a ground row only its own pool constants — so the "no"
///   refutations genuinely exhaust the group's assignment tree instead of being
///   disposed of by a counting prune or absorbed by a free null row;
/// * the ground rows (whose facts are the certain answers) come *after* the null rows,
///   so a certainty refutation must branch through every null row's four reasons
///   (two positions, two condition atoms) before its own row kills the path;
/// * the local conditions make the database a c-table, so every problem dispatches
///   through the per-shard searches rather than the polynomial special cases.
fn build_tail(name: &str, rows: usize, constants: i64) -> pw_core::CTable {
    use pw_condition::{Atom, Conjunction, Term, VarGen};
    let mut vars = VarGen::new();
    let table_rows: Vec<pw_core::CTuple> = (0..rows)
        .map(|i| {
            if i < rows / 2 {
                let x = vars.fresh();
                let y = vars.fresh();
                pw_core::CTuple::with_condition(
                    [Term::Var(x), Term::Var(x)],
                    Conjunction::new([Atom::neq(y, -1), Atom::neq(y, -2)]),
                )
            } else {
                let c = (i as i64) % constants;
                pw_core::CTuple::of_terms([Term::constant(c), Term::constant((c + 1) % constants)])
            }
        })
        .collect();
    pw_core::CTable::new(name, 2, Conjunction::truth(), table_rows).expect("well-formed c-table")
}

/// Build the serving-shaped base database: `relations − 1` light head shards (the
/// mutable working set) plus one heavier conditional tail shard (the accumulated stable
/// knowledge the deltas never touch — the QuaQue/Vadalog setting the delta layer
/// targets).
fn build_base(relations: usize, head: &TableParams, tail_rows: usize) -> CDatabase {
    let head_db = decoupled_multirelation(relations - 1, head);
    let tail_name = format!("R{:02}", relations - 1);
    let tables: Vec<pw_core::CTable> = head_db
        .tables()
        .iter()
        .cloned()
        .chain([build_tail(&tail_name, tail_rows, head.constants as i64)])
        .collect();
    CDatabase::new(tables)
}

fn build_workload(
    label: &str,
    relations: usize,
    head_rows: usize,
    tail_rows: usize,
    deltas: usize,
    seed: u64,
) -> Workload {
    // Moderate null density: each relation's rows stay compatible with several facts, so
    // every group's sub-search has genuine branching for the fresh path to re-pay.
    let head = TableParams {
        rows: head_rows,
        arity: 2,
        constants: 3,
        null_density: 0.5,
        seed,
    };
    let base = build_base(relations, &head, tail_rows);
    let mutable: Vec<usize> = (0..relations - 1).collect();
    let deltas = stable_delta_stream(&base, &mutable, seed, deltas);
    let member = member_instance(&base, &head);
    let last = base
        .tables()
        .last()
        .expect("non-empty workload")
        .name()
        .to_owned();

    // Certain facts: the outputs of ground unconditional rows — true in every world, so
    // certainty must *exhaustively* refute "some world misses one" in every group, with
    // the heavy tail dominating.
    let mut certain = Instance::new();
    for table in base.tables() {
        let cap = if table.name() == last { usize::MAX } else { 2 };
        let mut rel = Relation::empty(table.arity());
        for row in table.tuples().iter().filter(|r| r.has_trivial_condition()) {
            if let Some(fact) = row
                .terms
                .iter()
                .map(|t| t.as_sym().map(|s| s.constant()))
                .collect::<Option<Vec<Constant>>>()
            {
                rel.insert(Tuple::new(fact)).expect("arity preserved");
                if rel.len() >= cap {
                    break;
                }
            }
        }
        if !rel.is_empty() {
            certain.insert_relation(table.name().to_owned(), rel);
        }
    }

    let mut tail_non_member = Instance::new();
    let mut pattern = Instance::new();
    let mut poisoned = Instance::new();
    for (name, rel) in member.iter() {
        // Membership/uniqueness "no" case: the member instance with one *tail* fact
        // replaced by the unproducible poison — a non-member whose refutation must
        // exhaust the heavy tail group's row↔fact assignments.
        let m = if *name == last {
            poison_one(rel)
        } else {
            rel.clone()
        };
        tail_non_member.insert_relation(name.clone(), m);

        // Possibility pattern: two facts per head relation, more from the tail (the
        // covering search's alternatives multiply across the tail facts *before* the
        // poison, which sorts last).
        let take = if *name == last { tail_rows / 2 + 1 } else { 2 };
        let mut p = Relation::empty(rel.arity());
        for fact in rel.iter().take(take) {
            p.insert(fact.clone()).expect("arity preserved");
        }
        pattern.insert_relation(name.clone(), p.clone());
        if *name == last {
            p.insert(poison_fact()).expect("arity 2");
        }
        poisoned.insert_relation(name.clone(), p);
    }

    Workload {
        label: format!("{label}-{relations}"),
        base,
        deltas,
        member,
        tail_non_member,
        certain_facts: certain,
        pattern,
        poisoned_pattern: poisoned,
    }
}

/// The NP-complete problems share one workload family; containment gets a smaller one —
/// its condition-coupled groups fall back to the Π₂ᵖ canonical-valuation enumeration,
/// which only completes on few-row groups (the same split `bench-pr4` makes).
fn build_workloads(smoke: bool) -> Vec<(Vec<&'static str>, Workload)> {
    let search_problems = vec!["membership", "possibility", "certainty", "uniqueness"];
    let (sizes, deltas): (&[usize], usize) = if smoke { (&[6], 3) } else { (&[8, 12], 6) };
    let (head_rows, tail_rows) = if smoke { (4, 8) } else { (5, 10) };
    let mut out: Vec<(Vec<&'static str>, Workload)> = sizes
        .iter()
        .map(|&n| {
            (
                search_problems.clone(),
                build_workload("mutation", n, head_rows, tail_rows, deltas, 2026),
            )
        })
        .collect();
    let cont_sizes: &[usize] = if smoke { &[6] } else { &[8, 12] };
    let cont_tail = 5;
    out.extend(cont_sizes.iter().map(|&n| {
        (
            vec!["containment"],
            build_workload("mutation-small", n, 2, cont_tail, deltas, 2027),
        )
    }));
    out
}

/// The standing requests of one problem, phrased against `db`.
fn requests_for(problem: &str, w: &Workload, db: &CDatabase) -> Vec<DecisionRequest> {
    let view = View::identity(db.clone());
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
            facts: w.certain_facts.clone(),
        }],
        "uniqueness" => vec![DecisionRequest::Uniqueness {
            view,
            instance: w.tail_non_member.clone(),
        }],
        "containment" => vec![DecisionRequest::Containment {
            left: view.clone(),
            right: view,
        }],
        other => unreachable!("unknown problem {other}"),
    }
}

struct StreamResult {
    fresh_ms: f64,
    redecide_ms: f64,
    fresh_answers: Tally,
    incr_answers: Tally,
    answers_match: bool,
}

/// Run one (problem, workload) pair down the mutation stream in both modes.
fn run_stream(problem: &'static str, w: &Workload, cfg: &EngineConfig) -> StreamResult {
    // Fresh mode: apply each delta, then decide the mutated database from scratch —
    // engine, coupling graph, base stores and every group search rebuilt per mutation.
    let mut fresh_ms = 0.0;
    let mut fresh_answers = Tally::default();
    let mut fresh_outcomes: Vec<Vec<DecisionOutcome>> = Vec::new();
    let mut cur = w.base.clone();
    for delta in &w.deltas {
        let (next, _) = cur.apply(delta).expect("stream deltas apply in sequence");
        let requests = requests_for(problem, w, &next);
        let start = Instant::now();
        let outcomes = decide_all_with(&requests, cfg);
        fresh_ms += start.elapsed().as_secs_f64() * 1e3;
        fresh_answers.add(&outcomes);
        fresh_outcomes.push(outcomes);
        cur = next;
    }

    // Incremental mode: one long-lived session; the base decide (untimed) populates the
    // per-group memo, then every delta re-decides through `redecide_all`, whose timing
    // includes the delta application itself.
    let session = Session::sized(cfg, requests_for(problem, w, &w.base).len());
    let mut cur = w.base.clone();
    let _ = session.decide_all(&requests_for(problem, w, &cur));
    let mut redecide_ms = 0.0;
    let mut incr_answers = Tally::default();
    let mut answers_match = true;
    for (i, delta) in w.deltas.iter().enumerate() {
        let requests = requests_for(problem, w, &cur);
        let start = Instant::now();
        let redecision = session
            .redecide_all(&cur, delta, &requests)
            .expect("stream deltas apply in sequence");
        redecide_ms += start.elapsed().as_secs_f64() * 1e3;
        incr_answers.add(&redecision.outcomes);
        answers_match &= same_verdicts(&redecision.outcomes, &fresh_outcomes[i]);
        cur = redecision.db;
    }

    StreamResult {
        fresh_ms,
        redecide_ms,
        fresh_answers,
        incr_answers,
        answers_match,
    }
}

fn main() {
    let args = Args::parse("BENCH_PR5.json");
    let smoke = args.smoke;
    let sweeps = args.sweeps(if smoke { 1 } else { 3 });
    // Single-threaded searches: the comparison is about *work avoided*, not about
    // parallel speedup, and sequential timings are the stable ones.  Ample budget so
    // both modes complete rather than exhaust.
    let cfg = EngineConfig::sequential(Budget(20_000_000));
    // The committed full run enforces the acceptance floor; the smoke run (tiny stream,
    // cold CI machine) only asserts the incremental path is not slower than scratch.
    let floor = if smoke { 0.9 } else { 10.0 };

    let workloads = build_workloads(smoke);
    let mut rows: Vec<Row> = Vec::new();
    let mut guard: Vec<Json> = Vec::new();
    let mut speedups: Vec<Json> = Vec::new();
    for (problems, w) in &workloads {
        for &problem in problems {
            let mut best: Option<StreamResult> = None;
            for sweep in 0..sweeps {
                let r = run_stream(problem, w, &cfg);
                eprintln!(
                    "sweep {}/{sweeps}: {:<12} {:<12} fresh {:>9.3} ms  redecide {:>9.3} ms  ({:.1}x, match: {})",
                    sweep + 1,
                    problem,
                    w.label,
                    r.fresh_ms,
                    r.redecide_ms,
                    r.fresh_ms / r.redecide_ms.max(1e-6),
                    r.answers_match,
                );
                // Keep the sweep with the *least favourable* speedup, so the committed
                // numbers are the conservative ones — except that a mismatch always
                // dominates: once any sweep observed diverging answers, it must stay
                // visible in the report and can never be papered over by a later
                // matching sweep.
                let keep = match &best {
                    None => true,
                    Some(b) => match (r.answers_match, b.answers_match) {
                        (false, true) => true,
                        (true, false) => false,
                        _ => {
                            r.fresh_ms / r.redecide_ms.max(1e-6)
                                < b.fresh_ms / b.redecide_ms.max(1e-6)
                        }
                    },
                };
                if keep {
                    best = Some(r);
                }
            }
            let r = best.expect("at least one sweep");
            rows.push(Row::new(
                problem,
                &w.label,
                "fresh",
                r.fresh_ms,
                r.fresh_answers.nonzero(),
            ));
            rows.push(Row::new(
                problem,
                &w.label,
                "incremental",
                r.redecide_ms,
                r.incr_answers.nonzero(),
            ));
            // The guard: answers must match between the modes, and the
            // fresh/redecide speedup must clear the embedded floor.
            guard.push(object([
                ("problem", Json::str(problem)),
                ("workload", Json::str(&w.label)),
                ("fresh_ms", ms(r.fresh_ms)),
                ("redecide_ms", ms(r.redecide_ms)),
                ("speedup", ratio(r.fresh_ms / r.redecide_ms.max(1e-6))),
                ("floor", Json::Float(floor)),
                ("answers_match", Json::Bool(r.answers_match)),
            ]));
            // The from-scratch path is this report's embedded baseline.
            speedups.push(speedup_row(
                problem,
                &w.label,
                "incremental",
                r.fresh_ms,
                r.redecide_ms,
            ));
        }
    }

    Report::new(
        "BENCH_PR5",
        "decide/mutate/re-decide on mutation-stream workloads: from-scratch decide vs delta-aware session re-decision (see crates/bench/src/bin/bench_pr5.rs)",
        1,
        sweeps,
        smoke,
        rows,
    )
    .table("incremental_guard", guard)
    .table("speedup_vs_baseline", speedups)
    .write(&args.out);
}
