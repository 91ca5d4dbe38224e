//! # Measurement helpers shared by the library bench suites
//!
//! The serving-shaped workloads of `bench-pr6`, `bench-pr7` and `bench-pr8` (one
//! builder, each suite passing its own seed) and the batch timers the suites share.

use pw_core::{CDatabase, View};
use pw_decide::batch::{decide_all_with, DecisionRequest};
use pw_decide::{DecisionOutcome, EngineConfig};
use pw_relational::{Constant, Instance, Relation, Tuple};
use pw_workloads::{
    decoupled_multirelation, member_instance, non_member_instance, random_codd_table,
    random_ctable, TableParams,
};
use std::time::Instant;

/// One serving-shaped database together with its request ingredients.
pub struct ServingWorkload {
    /// `codd`, `ctable` or `sharded`.
    pub label: &'static str,
    /// The database.
    pub db: CDatabase,
    /// A member of `rep(db)`.
    pub member: Instance,
    /// An instance outside `rep(db)`.
    pub non_member: Instance,
    /// Two facts of `member` per relation (a possibility pattern).
    pub pattern: Instance,
    /// `pattern` with one unproducible fact added to its first relation.
    pub poisoned: Instance,
}

/// The three serving families drawn from `seed`: a Codd table, a c-table and a
/// decoupled multi-relation database.  Codd decides are polynomial, so that table is
/// large; c-table decides are NP/coNP searches that dominate at small sizes (and
/// become intractable well before 20 rows).
pub fn serving_workloads(smoke: bool, seed: u64) -> Vec<ServingWorkload> {
    let codd = TableParams {
        rows: if smoke { 8 } else { 256 },
        arity: 2,
        constants: 4,
        null_density: 0.4,
        seed,
    };
    let ctable = TableParams {
        rows: if smoke { 8 } else { 10 },
        ..codd
    };
    let shard = TableParams {
        rows: if smoke { 4 } else { 8 },
        ..codd
    };
    vec![
        serving_workload(
            "codd",
            CDatabase::single(random_codd_table("R", &codd)),
            &codd,
        ),
        serving_workload(
            "ctable",
            CDatabase::single(random_ctable("R", &ctable)),
            &ctable,
        ),
        serving_workload(
            "sharded",
            decoupled_multirelation(if smoke { 3 } else { 4 }, &shard),
            &shard,
        ),
    ]
}

fn serving_workload(label: &'static str, db: CDatabase, params: &TableParams) -> ServingWorkload {
    let member = member_instance(&db, params);
    let non_member = non_member_instance(&db, params);
    let mut pattern = Instance::new();
    let mut poisoned = Instance::new();
    for (position, (name, rel)) in member.iter().enumerate() {
        let mut p = Relation::empty(rel.arity());
        for fact in rel.iter().take(2) {
            p.insert(fact.clone()).expect("arity preserved");
        }
        pattern.insert_relation(name.clone(), p.clone());
        if position == 0 {
            // The poison fact: constants far outside the generator's pool, so no
            // ground row produces it and only null-valued components can absorb it.
            let fact = Tuple::new((0..p.arity()).map(|i| Constant::Int(9_000 + i as i64)));
            p.insert(fact).expect("arity preserved");
        }
        poisoned.insert_relation(name.clone(), p);
    }
    ServingWorkload {
        label,
        db,
        member,
        non_member,
        pattern,
        poisoned,
    }
}

/// The batch of one (problem, workload) pair in `bench-pr6` and `bench-pr7`: a
/// yes-leaning and a no-leaning request wherever the workload offers both.
pub fn serving_requests(problem: &str, w: &ServingWorkload) -> Vec<DecisionRequest> {
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
                facts: w.pattern.clone(),
            },
            DecisionRequest::Possibility {
                view,
                facts: w.poisoned.clone(),
            },
        ],
        "certainty" => vec![
            DecisionRequest::Certainty {
                view: view.clone(),
                facts: Instance::new(),
            },
            DecisionRequest::Certainty {
                view,
                facts: w.pattern.clone(),
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

/// The five problems, in report order.
pub const PROBLEMS: [&str; 5] = [
    "membership",
    "possibility",
    "certainty",
    "uniqueness",
    "containment",
];

/// Time one batch `iters` times: (mean ms per batch, last outcomes).
fn time_batch(
    requests: &[DecisionRequest],
    cfg: &EngineConfig,
    iters: usize,
) -> (f64, Vec<DecisionOutcome>) {
    let start = Instant::now();
    let mut last = Vec::new();
    for _ in 0..iters {
        last = decide_all_with(requests, cfg);
    }
    (start.elapsed().as_secs_f64() * 1e3 / iters as f64, last)
}

/// One batch timed under configuration `a`, then under `b`.  The repeat count is
/// calibrated off one untimed `a` batch: micro-second batches repeat up to
/// `max_iters` times for a stable mean, while a batch that already costs tens of
/// milliseconds is its own stable measurement and repeats only `min_iters` times.
pub fn time_pair(
    requests: &[DecisionRequest],
    a: &EngineConfig,
    b: &EngineConfig,
    min_iters: usize,
    max_iters: usize,
) -> [(f64, Vec<DecisionOutcome>); 2] {
    let calibration = Instant::now();
    decide_all_with(requests, a);
    let batch_ms = calibration.elapsed().as_secs_f64() * 1e3;
    let max_iters = max_iters.max(1);
    let iters = ((20.0 / batch_ms.max(1e-6)) as usize).clamp(min_iters.min(max_iters), max_iters);
    [
        time_batch(requests, a, iters),
        time_batch(requests, b, iters),
    ]
}

/// The median of `results` by `ratio`, after `sweeps` runs: a single descheduled
/// sample must not decide the committed number in either direction.
pub fn median_by<T>(mut results: Vec<T>, ratio: impl Fn(&T) -> f64) -> T {
    results.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    results.swap_remove(results.len() / 2)
}

/// Whether two runs of one batch agree on every answer and strategy.
pub fn same_verdicts(a: &[DecisionOutcome], b: &[DecisionOutcome]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.answer == y.answer && x.strategy == y.strategy)
}

/// The median batch time of `iters` samples (`bench-pr3`, `bench-pr4`).  One untimed
/// warm-up picks an inner repeat count so every timed sample lasts at least ~2 ms —
/// sub-millisecond batches are pure scheduler noise otherwise.  Returns the median ms
/// per batch and the last outcomes.
pub fn median_batch_ms(
    requests: &[DecisionRequest],
    cfg: &EngineConfig,
    iters: usize,
) -> (f64, Vec<DecisionOutcome>) {
    let warmup = Instant::now();
    let _ = decide_all_with(requests, cfg);
    let once_ms = warmup.elapsed().as_secs_f64() * 1e3;
    let reps = if iters == 1 {
        1
    } else {
        ((2.0 / once_ms.max(1e-4)).ceil() as usize).clamp(1, 512)
    };
    let mut times = Vec::with_capacity(iters);
    let mut outcomes = Vec::new();
    for _ in 0..iters {
        let start = Instant::now();
        for _ in 0..reps {
            outcomes = decide_all_with(requests, cfg);
        }
        times.push(start.elapsed().as_secs_f64() * 1e3 / reps as f64);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], outcomes)
}
