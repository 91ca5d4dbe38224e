//! The three seeded workloads: what each registers during set-up and the operations
//! it sends afterwards.  The server only ever receives these generated inputs.

use crate::net;
use pw_condition::{Atom, Conjunction, Term, VarGen};
use pw_core::{CDatabase, CTuple, Delta, View};
use pw_decide::DecisionRequest;
use pw_relational::{Instance, Relation};
use pw_serve::json::Json;
use pw_serve::wire;
use pw_workloads::{
    decoupled_multirelation, flip_sparse_stream, member_instance, non_member_instance,
    StreamProblem, TableParams,
};
use std::net::SocketAddr;

/// `stream-sparse`: generated deltas.  A run stops early if it sends them all; at
/// today's per-delta cost a run sends well under a tenth of them.
const DELTA_CAP: usize = 40_000;

/// `stream-sparse`: relations of the flip-sparse base (one shard group each).
const STREAM_RELATIONS: usize = 256;
/// `stream-sparse`: rows per relation.
const STREAM_ROWS: usize = 4;

/// `decide-fresh`: relations, rows and arity of the decoupled base.  At 16 rows every
/// batch exhausts the default search budget; 12 is the size that yields answers.
const FRESH_RELATIONS: usize = 32;
const FRESH_ROWS: usize = 12;
const FRESH_ARITY: usize = 3;
/// `decide-fresh`: the databases are fixed and only the questions follow `--seed`.
/// Containment out of most 12-row bases exhausts the default budget whatever the
/// right-hand side, and a budget-exceeded verdict is never memoized, so every batch
/// would fail it again; out of this base into this 4-row database it is decided in
/// about 2 ms.  A fixed base also keeps a run's cost from swinging with the seed.
const FRESH_BASE_SEED: u64 = 1;
const FRESH_RIGHT_SEED: u64 = 100;
const FRESH_RIGHT_ROWS: usize = 4;

/// `mixed-hot`: relations and rows of the mutation-stream base.
const MIXED_RELATIONS: usize = 32;
const MIXED_ROWS: usize = 6;
/// `mixed-hot`: every `MIXED_DELTA_EVERY`-th operation is a delta, the rest are reads.
const MIXED_DELTA_EVERY: usize = 8;
/// `mixed-hot`: questions per read batch, drawn from a pool of `MIXED_POOL`.
const MIXED_BATCH: usize = 16;
const MIXED_POOL: usize = 24;
/// `mixed-hot`: the base is fixed; the question pool, the read draws and the deltas
/// follow `--seed`.
const MIXED_BASE_SEED: u64 = 1;
/// `mixed-hot`: stream-inserted rows a relation may hold at once.
const MIXED_MAX_INSERTED: usize = 2;

/// The workload names, as the command line spells them.
pub const NAMES: [&str; 3] = ["stream-sparse", "decide-fresh", "mixed-hot"];

/// One question, independent of the database version it is asked against: the server
/// decodes it against its current value of the addressed database, the mirror binds it
/// to its own current value.
#[derive(Clone, Debug)]
pub enum Question {
    /// Is the instance a possible world?
    Membership(Instance),
    /// Is the instance the only possible world?
    Uniqueness(Instance),
    /// Do the facts hold together in some world?
    Possibility(Instance),
    /// Do the facts hold in every world?
    Certainty(Instance),
    /// Is every world of the addressed database a world of `right`, registered as
    /// `right_id`?
    Containment {
        /// The right-hand database's registered id.
        right_id: u64,
        /// The right-hand database.
        right: CDatabase,
    },
}

impl Question {
    /// The wire name of the problem.
    pub fn problem(&self) -> &'static str {
        match self {
            Question::Membership(_) => "membership",
            Question::Uniqueness(_) => "uniqueness",
            Question::Possibility(_) => "possibility",
            Question::Certainty(_) => "certainty",
            Question::Containment { .. } => "containment",
        }
    }

    /// The library request against `db`.
    pub fn request(&self, db: &CDatabase) -> DecisionRequest {
        let view = View::identity(db.clone());
        match self {
            Question::Membership(i) => DecisionRequest::Membership {
                view,
                instance: i.clone(),
            },
            Question::Uniqueness(i) => DecisionRequest::Uniqueness {
                view,
                instance: i.clone(),
            },
            Question::Possibility(f) => DecisionRequest::Possibility {
                view,
                facts: f.clone(),
            },
            Question::Certainty(f) => DecisionRequest::Certainty {
                view,
                facts: f.clone(),
            },
            Question::Containment { right, .. } => DecisionRequest::Containment {
                left: view,
                right: View::identity(right.clone()),
            },
        }
    }

    /// The wire spelling of the request.
    pub fn wire(&self) -> Json {
        let problem = ("problem".to_string(), Json::str(self.problem()));
        let payload = match self {
            Question::Membership(i) | Question::Uniqueness(i) => {
                ("instance".to_string(), wire::encode_instance(i))
            }
            Question::Possibility(f) | Question::Certainty(f) => {
                ("facts".to_string(), wire::encode_instance(f))
            }
            Question::Containment { right_id, .. } => {
                ("right".to_string(), Json::Int(*right_id as i64))
            }
        };
        Json::Object(vec![problem, payload])
    }
}

/// What one operation carries: the library value the mirror replays.
#[derive(Clone, Debug)]
pub enum Payload {
    /// `POST …/delta`.
    Delta(Delta),
    /// `POST …/decide`; `standing` registers the batch as the database's standing set.
    Decide {
        /// The questions, in request order.
        questions: Vec<Question>,
        /// The `standing` flag of the body.
        standing: bool,
    },
}

/// One generated operation: the HTTP request and the library value behind it.
#[derive(Clone, Debug)]
pub struct Op {
    /// Request path.
    pub path: String,
    /// Request body.
    pub body: String,
    /// The library payload.
    pub payload: Payload,
}

impl Op {
    /// Is this a delta?
    pub fn is_delta(&self) -> bool {
        matches!(self.payload, Payload::Delta(_))
    }

    fn delta(db_id: u64, delta: Delta) -> Op {
        let body = Json::Object(vec![
            ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
            ("delta".into(), wire::encode_delta(&delta)),
        ]);
        Op {
            path: format!("/v1/databases/{db_id}/delta"),
            body: body.to_string(),
            payload: Payload::Delta(delta),
        }
    }

    pub(crate) fn decide(db_id: u64, questions: Vec<Question>, standing: bool) -> Op {
        let mut members = vec![("schema_version".into(), Json::Int(wire::SCHEMA_VERSION))];
        if standing {
            members.push(("standing".into(), Json::Bool(true)));
        }
        members.push((
            "requests".into(),
            Json::Array(questions.iter().map(Question::wire).collect()),
        ));
        Op {
            path: format!("/v1/databases/{db_id}/decide"),
            body: Json::Object(members).to_string(),
            payload: Payload::Decide {
                questions,
                standing,
            },
        }
    }
}

/// How a workload keeps questions standing.
#[derive(Clone, Debug)]
pub enum Standing {
    /// Nothing standing.
    None,
    /// `POST /v1/subscriptions`: the session's subscription index (verdict flips).
    Subscribe(Vec<Question>),
    /// `POST …/decide {"standing": true}`: re-decided from JSON on every delta.
    Decide(Vec<Question>),
}

/// What set-up registered on one server, with the replies the mirror checks.
#[derive(Clone, Debug)]
pub struct Registered {
    /// The addressed database's id.
    pub db_id: u64,
    /// The containment right-hand database's id, if registered.
    pub right_id: Option<u64>,
    /// The subscription id, if one was opened.
    pub sub_id: Option<u64>,
    /// The standing registration's reply (subscription or standing decide).
    pub standing_reply: Option<Json>,
}

enum Source {
    /// Send the deltas in order.
    Stream { deltas: Vec<Delta>, next: usize },
    /// Build a fresh six-question batch per operation.
    Fresh { seed: u64, next: u64 },
    /// Skewed reads from a fixed pool, a delta every `MIXED_DELTA_EVERY`-th operation.
    Mixed {
        mutations: Mutator,
        pool: Vec<Question>,
        rng: SplitMix,
        ops: usize,
    },
}

/// A seeded workload.
pub struct Workload {
    /// Its name (one of [`NAMES`]).
    pub name: &'static str,
    /// The addressed database.
    pub base: CDatabase,
    /// The containment right-hand database, when the workload asks containment.
    pub right: Option<CDatabase>,
    /// The standing set registered during set-up.
    pub standing: Standing,
    source: Source,
}

impl Workload {
    /// Generate workload `name` from `seed`; `None` for an unknown name.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "stream-sparse" => Some(stream_sparse(seed)),
            "decide-fresh" => Some(decide_fresh(seed)),
            "mixed-hot" => Some(mixed_hot(seed)),
            _ => None,
        }
    }

    /// Register the databases and the standing set on a fresh server.  This is the
    /// timed part of set-up.
    pub fn register(&self, addr: SocketAddr) -> Result<Registered, String> {
        let db_id = register_db(addr, &self.base)?;
        let right_id = match &self.right {
            Some(right) => Some(register_db(addr, right)?),
            None => None,
        };
        let (sub_id, standing_reply) = match &self.standing {
            Standing::None => (None, None),
            Standing::Subscribe(questions) => {
                let body = Json::Object(vec![
                    ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
                    ("database".into(), Json::Int(db_id as i64)),
                    (
                        "requests".into(),
                        Json::Array(questions.iter().map(Question::wire).collect()),
                    ),
                ]);
                let reply = net::post_json(addr, "/v1/subscriptions", &body.to_string())?;
                let sub = reply
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or("subscription reply without an id")?;
                (Some(sub), Some(reply))
            }
            Standing::Decide(questions) => {
                let op = Op::decide(db_id, questions.clone(), true);
                (None, Some(net::post_json(addr, &op.path, &op.body)?))
            }
        };
        Ok(Registered {
            db_id,
            right_id,
            sub_id,
            standing_reply,
        })
    }

    /// The next operation, or `None` once the generated stream is used up.
    pub fn next_op(&mut self, reg: &Registered) -> Option<Op> {
        match &mut self.source {
            Source::Stream { deltas, next } => {
                let delta = deltas.get(*next)?.clone();
                *next += 1;
                Some(Op::delta(reg.db_id, delta))
            }
            Source::Fresh { seed, next } => {
                let batch = fresh_batch(&self.base, self.right.as_ref(), reg, *seed, *next);
                *next += 1;
                Some(Op::decide(reg.db_id, batch, false))
            }
            Source::Mixed {
                mutations,
                pool,
                rng,
                ops,
            } => {
                *ops += 1;
                if *ops % MIXED_DELTA_EVERY == 0 {
                    return Some(Op::delta(reg.db_id, mutations.next()));
                }
                let batch = (0..MIXED_BATCH)
                    .map(|_| pool[rng.zipf(pool.len())].clone())
                    .collect();
                Some(Op::decide(reg.db_id, batch, false))
            }
        }
    }
}

fn register_db(addr: SocketAddr, db: &CDatabase) -> Result<u64, String> {
    let body = Json::Object(vec![
        ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
        ("database".into(), wire::encode_cdatabase(db)),
    ]);
    net::post_json(addr, "/v1/databases", &body.to_string())?
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| "registration reply without an id".to_string())
}

/// The flip-sparse stream: three standing questions per relation through the
/// subscription index, then one single-relation delta per operation.
fn stream_sparse(seed: u64) -> Workload {
    let w = flip_sparse_stream(STREAM_RELATIONS, STREAM_ROWS, DELTA_CAP, seed);
    let questions = w
        .requests
        .iter()
        .map(|r| match r.problem {
            StreamProblem::Possibility => Question::Possibility(r.facts.clone()),
            StreamProblem::Certainty => Question::Certainty(r.facts.clone()),
        })
        .collect();
    Workload {
        name: "stream-sparse",
        base: w.base,
        right: None,
        standing: Standing::Subscribe(questions),
        source: Source::Stream {
            deltas: w.deltas,
            next: 0,
        },
    }
}

fn fresh_params(seed: u64) -> TableParams {
    TableParams {
        rows: FRESH_ROWS,
        arity: FRESH_ARITY,
        constants: 16,
        null_density: 0.3,
        seed,
    }
}

/// Fresh decisions: a decoupled base and a second database for containment; every
/// batch asks six questions built from its own seeds, so the memo almost never helps.
fn decide_fresh(seed: u64) -> Workload {
    Workload {
        name: "decide-fresh",
        base: decoupled_multirelation(FRESH_RELATIONS, &fresh_params(FRESH_BASE_SEED)),
        right: Some(decoupled_multirelation(
            FRESH_RELATIONS,
            &TableParams {
                rows: FRESH_RIGHT_ROWS,
                ..fresh_params(FRESH_RIGHT_SEED)
            },
        )),
        standing: Standing::None,
        source: Source::Fresh { seed, next: 0 },
    }
}

/// Batch `index` of `decide-fresh`: membership yes/no, uniqueness, possibility,
/// certainty and containment, the instances drawn from batch-specific seeds.
fn fresh_batch(
    base: &CDatabase,
    right: Option<&CDatabase>,
    reg: &Registered,
    seed: u64,
    index: u64,
) -> Vec<Question> {
    let mut seeds = SplitMix::new(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let yes = member_instance(base, &fresh_params(seeds.next_u64()));
    let no = non_member_instance(base, &fresh_params(seeds.next_u64()));
    let other = member_instance(base, &fresh_params(seeds.next_u64()));
    let mut batch = vec![
        Question::Membership(yes.clone()),
        Question::Membership(no),
        Question::Uniqueness(yes.clone()),
        Question::Possibility(sample_facts(&other, 4)),
        Question::Certainty(sample_facts(&yes, 4)),
    ];
    if let (Some(right), Some(right_id)) = (right, reg.right_id) {
        batch.push(Question::Containment {
            right_id,
            right: right.clone(),
        });
    }
    batch
}

/// Reads beside writes on one database: a pool of questions read with Zipf skew, a
/// single-relation delta every `MIXED_DELTA_EVERY`-th operation, and a standing set
/// registered through `/decide {"standing": true}`.
fn mixed_hot(seed: u64) -> Workload {
    let mut seeds = SplitMix::new(seed);
    let params = TableParams {
        rows: MIXED_ROWS,
        arity: 2,
        constants: 8,
        null_density: 0.3,
        seed: MIXED_BASE_SEED,
    };
    let base = decoupled_multirelation(MIXED_RELATIONS, &params);
    let mut pool = Vec::with_capacity(MIXED_POOL);
    while pool.len() < MIXED_POOL {
        let p = TableParams {
            seed: seeds.next_u64(),
            ..params
        };
        let world = member_instance(&base, &p);
        pool.push(match pool.len() % 4 {
            0 => Question::Membership(world),
            1 => Question::Possibility(sample_facts(&world, 3)),
            2 => Question::Certainty(sample_facts(&world, 5)),
            _ => Question::Membership(non_member_instance(&base, &p)),
        });
    }
    let standing = pool[..6].to_vec();
    Workload {
        name: "mixed-hot",
        base: base.clone(),
        right: None,
        standing: Standing::Decide(standing),
        source: Source::Mixed {
            mutations: Mutator::new(&base, params.constants, seeds.next_u64()),
            pool,
            rng: SplitMix::new(seeds.next_u64()),
            ops: 0,
        },
    }
}

/// Single-relation deltas in `mutation_stream`'s op mix — insert a ground row,
/// strengthen a row's condition with an inert inequality on a fresh variable, retract
/// the youngest row — kept *stationary*: a relation holds at most
/// `MIXED_MAX_INSERTED` stream-inserted rows, and only those are strengthened or
/// retracted, so a retraction sheds the accumulated condition.  `mutation_stream`
/// itself grows its tables without bound; a run that got through more deltas would
/// then search larger tables, and the cost of a run would depend on its own speed.
struct Mutator {
    /// Per relation: name, arity and base row count.
    tables: Vec<(String, usize, usize)>,
    /// Stream-inserted rows per relation; they sit after the base rows.
    inserted: Vec<usize>,
    constants: i64,
    vars: VarGen,
    rng: SplitMix,
}

impl Mutator {
    fn new(base: &CDatabase, constants: usize, seed: u64) -> Mutator {
        Mutator {
            tables: base
                .tables()
                .iter()
                .map(|t| (t.name().to_string(), t.arity(), t.len()))
                .collect(),
            inserted: vec![0; base.table_count()],
            constants: constants as i64,
            vars: VarGen::new(),
            rng: SplitMix::new(seed),
        }
    }

    fn next(&mut self) -> Delta {
        let r = (self.rng.next_u64() % self.tables.len() as u64) as usize;
        let (name, arity, base_rows) = self.tables[r].clone();
        let n = self.inserted[r];
        match self.rng.next_u64() % 10 {
            roll if n == 0 || (roll < 5 && n < MIXED_MAX_INSERTED) => {
                let cells: Vec<Term> = (0..arity)
                    .map(|_| Term::constant((self.rng.next_u64() % self.constants as u64) as i64))
                    .collect();
                self.inserted[r] += 1;
                Delta::new().insert(name, CTuple::of_terms(cells))
            }
            roll if roll < 8 => {
                let v = self.vars.fresh();
                Delta::new().conjoin(
                    name,
                    base_rows + n - 1,
                    Conjunction::single(Atom::neq(v, -1)),
                )
            }
            _ => {
                self.inserted[r] -= 1;
                Delta::new().retract(name, base_rows + n - 1)
            }
        }
    }
}

/// The first fact of every `stride`-th relation of `world`.
fn sample_facts(world: &Instance, stride: usize) -> Instance {
    let mut out = Instance::new();
    for (name, relation) in world.iter().step_by(stride) {
        if let Some(fact) = relation.iter().next() {
            out.insert_relation(
                name.clone(),
                Relation::from_tuples(relation.arity(), [fact.clone()]),
            );
        }
    }
    out
}

/// A small deterministic generator for the benchmark's own draws (seeds, skew).
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// An index in `0..n` drawn with Zipf(1) skew: index `i` has weight `1/(i+1)`.
    pub fn zipf(&mut self, n: usize) -> usize {
        let harmonic: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
        let mut target = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * harmonic;
        for i in 0..n {
            target -= 1.0 / (i + 1) as f64;
            if target < 0.0 {
                return i;
            }
        }
        n - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = SplitMix::new(3);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[rng.zipf(8)] += 1;
        }
        assert!(counts[0] > 2 * counts[3], "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn same_seed_same_inputs() {
        // Fresh nulls come from a process-wide counter, so delta bodies are compared by
        // shape; decide bodies hold constants only and must repeat exactly.
        let render = |name: &str, seed: u64| {
            let mut w = Workload::build(name, seed).expect("known workload");
            let reg = Registered {
                db_id: 1,
                right_id: Some(2),
                sub_id: None,
                standing_reply: None,
            };
            let ops: Vec<String> = (0..12)
                .map(|_| {
                    let op = w.next_op(&reg).expect("ops");
                    if op.is_delta() {
                        op.path
                    } else {
                        op.body
                    }
                })
                .collect();
            (ops, w.base.row_count())
        };
        for name in NAMES {
            assert_eq!(render(name, 5), render(name, 5), "{name}");
        }
        assert_ne!(render("decide-fresh", 5), render("decide-fresh", 6));
        assert!(Workload::build("nope", 1).is_none());
    }
}
