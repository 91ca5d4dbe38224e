//! The in-process library mirror: a `Session` configured like the server's replays
//! every operation the server accepted, in order, and every wire reply must equal what
//! the wire encoder derives from the mirror's decisions — answers, strategies, flips
//! and their sequence numbers alike.
//!
//! In a traced run the mirror also times the server's steps on the same input, from
//! outside: `Json::parse` of the request body, the `wire` decode, the `Session` call,
//! the `wire` encode and `Json::to_string` of the reply, plus `CDatabase::apply` and
//! the first `shard_groups()` on a copy, and single-problem sub-batches on a probe
//! session.

use crate::stats::Ending;
use crate::trace::Tracer;
use crate::workloads::{Op, Payload, Question, Registered, Standing, Workload};
use pw_core::CDatabase;
use pw_decide::{Budget, DecisionOutcome, DecisionRequest, EngineConfig, Session};
use pw_serve::json::Json;
use pw_serve::{wire, ServerConfig};
use std::collections::HashMap;
use std::time::Instant;

/// Where a traced step records its spans.
pub struct Trace<'a> {
    /// The recorder.
    pub tracer: &'a mut Tracer,
    /// The operation's request id.
    pub request: u64,
    /// The span the mirror's spans hang under.
    pub parent: usize,
}

/// Per-delta counters the mirror's session reports, summed since the last reset.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Deltas replayed.
    pub deltas: u64,
    /// Standing requests `push_delta` re-decided.
    pub redecided: u64,
    /// Standing requests `push_delta` skipped.
    pub skipped: u64,
    /// Shard groups of the database after each delta.
    pub groups: u64,
    /// Dirty shard groups of each delta.
    pub dirty_groups: u64,
}

/// The result of one replayed operation.
pub struct Step {
    /// How the operation ended (typed per-request errors included).
    pub ending: Ending,
    /// The traced step's `mirror` span, whose children are the server's steps.
    pub mirror_span: Option<usize>,
}

/// The library mirror of one server database.
pub struct Mirror {
    session: Session,
    /// Times single-problem sub-batches (`<problem>.decide`) without disturbing the
    /// mirror session's memo.
    probe: Option<Session>,
    db: CDatabase,
    db_id: u64,
    /// Registered databases by id, for containment's right-hand side.
    dbs: HashMap<u64, CDatabase>,
    standing: Vec<Question>,
    standing_wire: Vec<Json>,
    subscribed: bool,
    flips_emitted: u64,
    /// Every flip event the subscription should have queued, in order.
    pub events: Vec<Json>,
    /// Per-delta counters.
    pub counters: Counters,
    /// `engine.retire` per traced delta with no standing requests, in µs.
    pub retire_us: Vec<f64>,
}

/// The engine configuration `pw-serve` gives a registered database's session.
fn server_engine_config() -> EngineConfig {
    let defaults = ServerConfig::default();
    EngineConfig::with_threads(defaults.session_threads.max(1), Budget(defaults.budget))
}

fn span<T>(trace: &mut Option<Trace<'_>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.tracer.time(name, Some(t.parent), t.request, f).0,
        None => f(),
    }
}

/// Open a span under the trace's parent and make it the parent of what follows.
fn open(trace: &mut Option<Trace<'_>>, name: &'static str) -> Option<(usize, usize)> {
    let t = trace.as_mut()?;
    let now = Instant::now();
    let index = t.tracer.record(name, now, now, Some(t.parent), t.request);
    let outer = std::mem::replace(&mut t.parent, index);
    Some((index, outer))
}

/// Close a span [`open`] returned and restore the previous parent.
fn close(trace: &mut Option<Trace<'_>>, opened: Option<(usize, usize)>) {
    if let (Some(t), Some((index, outer))) = (trace.as_mut(), opened) {
        t.tracer.close(index);
        t.parent = outer;
    }
}

fn encode_outcomes(outcomes: &[DecisionOutcome]) -> Json {
    Json::Array(outcomes.iter().map(wire::encode_decision).collect())
}

fn ending_of<'a>(outcomes: impl IntoIterator<Item = &'a DecisionOutcome>) -> Ending {
    if outcomes.into_iter().any(|o| o.answer.is_err()) {
        Ending::TypedError
    } else {
        Ending::Ok
    }
}

fn expect_field(reply: &Json, field: &str, expected: &Json) -> Result<(), String> {
    match reply.get(field) {
        Some(got) if got == expected => Ok(()),
        got => Err(format!(
            "wire/library mismatch in '{field}': wire {} vs library {expected}",
            got.map_or("<missing>".to_string(), Json::to_string)
        )),
    }
}

impl Mirror {
    /// A mirror of the server state `reg` describes, before the standing set is
    /// adopted.  `per_problem` adds the probe session for `<problem>.decide` spans.
    pub fn new(workload: &Workload, reg: &Registered, per_problem: bool) -> Mirror {
        let cfg = server_engine_config();
        let mut dbs = HashMap::new();
        dbs.insert(reg.db_id, workload.base.clone());
        if let (Some(id), Some(right)) = (reg.right_id, &workload.right) {
            dbs.insert(id, right.clone());
        }
        Mirror {
            session: Session::new(&cfg),
            probe: per_problem.then(|| Session::new(&cfg)),
            db: workload.base.clone(),
            db_id: reg.db_id,
            dbs,
            standing: Vec::new(),
            standing_wire: Vec::new(),
            subscribed: false,
            flips_emitted: 0,
            events: Vec::new(),
            counters: Counters::default(),
            retire_us: Vec::new(),
        }
    }

    /// Register the workload's standing set on the mirror and check the server's
    /// registration reply.  Returns the library registration time in µs.
    pub fn adopt(&mut self, workload: &Workload, reg: &Registered) -> Result<f64, String> {
        let reply = reg.standing_reply.as_ref();
        match (&workload.standing, reply) {
            (Standing::None, _) => Ok(0.0),
            (Standing::Subscribe(questions), Some(reply)) => {
                let requests: Vec<DecisionRequest> =
                    questions.iter().map(|q| q.request(&self.db)).collect();
                let start = Instant::now();
                let (ids, baselines) = self.session.register_standing(&self.db, &requests);
                let us = start.elapsed().as_secs_f64() * 1e6;
                expect_field(
                    reply,
                    "request_ids",
                    &Json::Array(ids.iter().map(|&i| Json::Int(i as i64)).collect()),
                )?;
                expect_field(reply, "baseline", &encode_outcomes(&baselines))?;
                self.subscribed = true;
                Ok(us)
            }
            (Standing::Decide(questions), Some(reply)) => {
                let op = Op::decide(reg.db_id, questions.clone(), true);
                let start = Instant::now();
                self.step(&op, reply, None)?;
                Ok(start.elapsed().as_secs_f64() * 1e6)
            }
            (_, None) => Err("the standing registration sent no reply".to_string()),
        }
    }

    /// Replay one operation the server answered 2xx and check its reply.
    pub fn step(
        &mut self,
        op: &Op,
        reply: &Json,
        mut trace: Option<Trace<'_>>,
    ) -> Result<Step, String> {
        let mirror = open(&mut trace, "mirror");
        let parsed = span(&mut trace, "json.parse", || Json::parse(&op.body))
            .map_err(|e| format!("request body does not parse: {e}"))?;
        let ending = match &op.payload {
            Payload::Delta(delta) => self.delta(delta, &parsed, reply, &mut trace, mirror)?,
            Payload::Decide {
                questions,
                standing,
            } => self.decide(questions, *standing, &parsed, reply, &mut trace, mirror)?,
        };
        Ok(Step {
            ending,
            mirror_span: mirror.map(|(index, _)| index),
        })
    }

    fn delta(
        &mut self,
        delta: &pw_core::Delta,
        parsed: &Json,
        reply: &Json,
        trace: &mut Option<Trace<'_>>,
        mirror: Option<(usize, usize)>,
    ) -> Result<Ending, String> {
        let decoded = span(trace, "wire.decode_delta", || {
            parsed.get("delta").map(wire::decode_delta)
        });
        if !matches!(decoded, Some(Ok(_))) {
            return Err("the delta body does not decode".to_string());
        }
        let prev = self.db.clone();
        if !self.standing_wire.is_empty() {
            let dbs = &self.dbs;
            let lookup = |id: u64| dbs.get(&id).cloned();
            let decoded = span(trace, "wire.decode_standing", || {
                self.standing_wire
                    .iter()
                    .map(|j| wire::decode_request(j, &prev, &lookup))
                    .collect::<Result<Vec<_>, _>>()
            });
            decoded.map_err(|e| format!("a standing request no longer decodes: {e}"))?;
        }
        let standing: Vec<DecisionRequest> =
            self.standing.iter().map(|q| q.request(&prev)).collect();
        let session = &mut self.session;
        let redecision = span(trace, "session.redecide_all", || {
            session.redecide_all(&prev, delta, &standing)
        })
        .map_err(|e| format!("the library rejects a delta the server applied: {e}"))?;
        let update = if self.subscribed {
            let update = span(trace, "session.push_delta", || session.push_delta(delta))
                .map_err(|e| format!("push_delta rejects a delta the server applied: {e}"))?;
            Some(update)
        } else {
            None
        };
        let seq_base = self.flips_emitted;
        let (outcomes, flips) = span(trace, "wire.encode_outcomes", || {
            let flips = update.as_ref().map_or_else(Vec::new, |u| {
                u.flips
                    .iter()
                    .enumerate()
                    .map(|(i, f)| wire::encode_flip(seq_base + i as u64 + 1, f))
                    .collect()
            });
            (encode_outcomes(&redecision.outcomes), flips)
        });
        span(trace, "json.emit", || reply.to_string());
        close(trace, mirror);

        if let Some(t) = trace.as_mut() {
            // The graph-free share of `redecide_all`: apply and the new value's first
            // shard-group computation, timed again on a copy.
            let probe = t.tracer.record(
                "probe",
                Instant::now(),
                Instant::now(),
                Some(t.parent),
                t.request,
            );
            let start = Instant::now();
            let applied = prev.apply(delta);
            let applied_at = Instant::now();
            let groups = applied.as_ref().map(|(db, _)| db.shard_groups().len());
            let end = Instant::now();
            t.tracer
                .record("database.apply", start, applied_at, Some(probe), t.request);
            t.tracer.record(
                "database.shard_groups",
                applied_at,
                end,
                Some(probe),
                t.request,
            );
            t.tracer.close(probe);
            if standing.is_empty() && groups.is_ok() {
                let redecide = t
                    .tracer
                    .spans()
                    .iter()
                    .rev()
                    .find(|s| s.name == "session.redecide_all" && s.request == t.request)
                    .map_or(0, |s| s.duration());
                let retire = redecide as f64 - (end - start).as_nanos() as f64;
                self.retire_us.push(retire / 1e3);
            }
        }

        expect_field(reply, "noop", &Json::Bool(redecision.change.is_noop()))?;
        expect_field(reply, "outcomes", &outcomes)?;
        expect_field(reply, "flips", &Json::Array(flips.clone()))?;
        let (redecided, skipped) = update.as_ref().map_or((0, 0), |u| (u.redecided, u.skipped));
        expect_field(reply, "redecided", &Json::Int(redecided as i64))?;
        expect_field(reply, "skipped", &Json::Int(skipped as i64))?;

        self.counters.deltas += 1;
        self.counters.redecided += redecided as u64;
        self.counters.skipped += skipped as u64;
        self.counters.groups += redecision.db.shard_groups().len() as u64;
        self.counters.dirty_groups += redecision.change.dirty_groups.len() as u64;
        self.flips_emitted += flips.len() as u64;
        self.events.extend(flips);
        self.db = redecision.db;
        self.dbs.insert(self.db_id, self.db.clone());
        let new_flips = update.iter().flat_map(|u| u.flips.iter().map(|f| &f.new));
        Ok(ending_of(redecision.outcomes.iter().chain(new_flips)))
    }

    fn decide(
        &mut self,
        questions: &[Question],
        standing: bool,
        parsed: &Json,
        reply: &Json,
        trace: &mut Option<Trace<'_>>,
        mirror: Option<(usize, usize)>,
    ) -> Result<Ending, String> {
        let requests_json = parsed
            .get("requests")
            .and_then(Json::as_array)
            .ok_or("the decide body has no requests")?;
        let dbs = &self.dbs;
        let lookup = |id: u64| dbs.get(&id).cloned();
        let db = &self.db;
        let decoded = span(trace, "wire.decode_requests", || {
            requests_json
                .iter()
                .map(|j| wire::decode_request(j, db, &lookup))
                .collect::<Result<Vec<_>, _>>()
        });
        decoded.map_err(|e| format!("a request does not decode: {e}"))?;
        let requests: Vec<DecisionRequest> = questions.iter().map(|q| q.request(db)).collect();
        let session = &self.session;
        let outcomes = span(trace, "session.decide_all", || {
            session.decide_all(&requests)
        });
        let expected = span(trace, "wire.encode_outcomes", || encode_outcomes(&outcomes));
        span(trace, "json.emit", || reply.to_string());
        close(trace, mirror);

        if let (Some(t), Some(probe)) = (trace.as_mut(), self.probe.as_ref()) {
            let root = t.tracer.record(
                "probe",
                Instant::now(),
                Instant::now(),
                Some(t.parent),
                t.request,
            );
            for problem in PROBLEMS {
                let sub: Vec<DecisionRequest> = questions
                    .iter()
                    .zip(&requests)
                    .filter(|(q, _)| q.problem() == problem.0)
                    .map(|(_, r)| r.clone())
                    .collect();
                if !sub.is_empty() {
                    t.tracer
                        .time(problem.1, Some(root), t.request, || probe.decide_all(&sub));
                }
            }
            t.tracer.close(root);
        }

        expect_field(reply, "outcomes", &expected)?;
        if standing {
            self.standing = questions.to_vec();
            self.standing_wire = requests_json.to_vec();
        }
        Ok(ending_of(&outcomes))
    }
}

/// The five problems and their span names.
pub const PROBLEMS: [(&str, &str); 5] = [
    ("membership", "membership.decide"),
    ("uniqueness", "uniqueness.decide"),
    ("containment", "containment.decide"),
    ("possibility", "possibility.decide"),
    ("certainty", "certainty.decide"),
];
