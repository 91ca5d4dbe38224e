//! `bench-stream` — the standing-query stream benchmark: verdict-flip subscriptions
//! ([`Session::push_delta`]) against a replay-everything baseline
//! ([`Session::redecide_all`] over the same standing requests), on the
//! [`pw_workloads::streams`] flip-sparse and flip-heavy delta streams.
//!
//! `bench-pr5` proved that a delta-aware re-decision beats a from-scratch decide by
//! replaying clean groups from the memo.  This harness measures the next layer: a
//! *subscription index* (dirty shard groups → affected standing requests) lets
//! `push_delta` skip unaffected requests **outright** — no memo probe, no rebind —
//! where the replay baseline still walks every standing request on every delta.  On
//! the flip-sparse family (flips are 1 op in 16, deltas touch one of many relations)
//! almost every request is skipped on almost every delta, which is the regime a
//! serving deployment with many standing queries lives in.
//!
//! Each measured row drives one workload down its delta stream in both modes through
//! long-lived sessions (baselines untimed), recording wall clock, per-delta latency
//! and deltas/s.  The modes must agree **bit-identically**: every verdict flip
//! `push_delta` reports must equal the answer diff of the replay baseline's
//! consecutive outcomes (same positions, same old/new answers, same strategies), and
//! every standing verdict must match after every delta.  The report records
//! `answers_match` per row, and the `stream_guard` table (consumed by
//! `check-bench` in CI) enforces both the match and a per-row speedup floor.
//! Larger push-only rows extend the deltas/s sweep beyond what the replay baseline
//! can cover in CI time; they carry no guard row.
//!
//! Usage:
//!   cargo run --release --bin bench-stream -- [--smoke] [--sweeps N] [--out FILE]
//!
//! `--smoke` shrinks the streams to a few relations and deltas so CI can check the
//! harness and the JSON shape in seconds (the smoke floor only asserts "not slower
//! than replay"; the committed full run carries the real ≥10× floor).

use pw_bench::report::{ms, object, ratio, rounded, speedup_row, Args, Report, Row, Tally};
use pw_core::{CDatabase, View};
use pw_decide::batch::DecisionRequest;
use pw_decide::{Budget, DecisionOutcome, EngineConfig, Session};
use pw_serve::json::Json;
use pw_workloads::{flip_heavy_stream, flip_sparse_stream, StreamProblem, StreamWorkload};
use std::time::Instant;

/// Bind a workload's request specs to identity views of `db`.
fn bind_requests(w: &StreamWorkload, db: &CDatabase) -> Vec<DecisionRequest> {
    w.requests
        .iter()
        .map(|spec| {
            let view = View::identity(db.clone());
            match spec.problem {
                StreamProblem::Possibility => DecisionRequest::Possibility {
                    view,
                    facts: spec.facts.clone(),
                },
                StreamProblem::Certainty => DecisionRequest::Certainty {
                    view,
                    facts: spec.facts.clone(),
                },
            }
        })
        .collect()
}

/// A flip as both modes report it: (request position, old answer, new answer) with the
/// strategies that produced the answers — compared bit for bit across the modes.
type Flip = (
    usize,
    Result<bool, String>,
    Result<bool, String>,
    pw_decide::Strategy,
);

fn answer_of(o: &DecisionOutcome) -> Result<bool, String> {
    o.answer.clone().map_err(|e| format!("{e:?}"))
}

/// The replay-everything baseline: one long-lived session, every standing request
/// re-decided via `redecide_all` on every delta.  Returns the timed wall clock and
/// the per-delta outcomes (the oracle the push mode must reproduce).
fn run_redecide(w: &StreamWorkload, cfg: &EngineConfig) -> (f64, Vec<Vec<DecisionOutcome>>) {
    let session = Session::sized(cfg, w.requests.len());
    let mut cur = w.base.clone();
    let _ = session.decide_all(&bind_requests(w, &cur));
    let mut wall_ms = 0.0;
    let mut per_delta = Vec::with_capacity(w.deltas.len());
    for delta in &w.deltas {
        let requests = bind_requests(w, &cur);
        let start = Instant::now();
        let redecision = session
            .redecide_all(&cur, delta, &requests)
            .expect("stream deltas apply in sequence");
        wall_ms += start.elapsed().as_secs_f64() * 1e3;
        cur = redecision.db;
        per_delta.push(redecision.outcomes);
    }
    (wall_ms, per_delta)
}

/// The subscription path: register once, then `push_delta` per delta.  Returns the
/// timed wall clock, the flips observed, and — when an oracle is supplied — whether
/// every flip and every standing verdict matched it bit for bit.
fn run_push(
    w: &StreamWorkload,
    cfg: &EngineConfig,
    oracle: Option<&[Vec<DecisionOutcome>]>,
) -> (f64, Vec<Flip>, bool) {
    let mut session = Session::sized(cfg, w.requests.len());
    let requests = bind_requests(w, &w.base);
    let (ids, baselines) = session.register_standing(&w.base, &requests);
    let position_of = |id: u64| ids.iter().position(|&i| i == id).expect("registered id");

    let mut wall_ms = 0.0;
    let mut flips: Vec<Flip> = Vec::new();
    let mut answers_match = true;
    let mut prev = baselines;
    for (tick, delta) in w.deltas.iter().enumerate() {
        let start = Instant::now();
        let update = session
            .push_delta(delta)
            .expect("stream deltas apply in sequence");
        wall_ms += start.elapsed().as_secs_f64() * 1e3;
        for flip in &update.flips {
            flips.push((
                position_of(flip.request_id),
                answer_of(&flip.old),
                answer_of(&flip.new),
                flip.new.strategy,
            ));
        }
        if let Some(oracle) = oracle {
            let want = &oracle[tick];
            // The oracle's flips for this delta: positions whose answer changed.
            let expected: Vec<Flip> = prev
                .iter()
                .zip(want)
                .enumerate()
                .filter(|(_, (old, new))| old.answer != new.answer)
                .map(|(p, (old, new))| (p, answer_of(old), answer_of(new), new.strategy))
                .collect();
            let got: Vec<Flip> = update
                .flips
                .iter()
                .map(|f| {
                    (
                        position_of(f.request_id),
                        answer_of(&f.old),
                        answer_of(&f.new),
                        f.new.strategy,
                    )
                })
                .collect();
            if got != expected {
                answers_match = false;
            }
            // Every standing verdict — skipped ones included — must equal the
            // replay's, answer and strategy both.
            for (p, (&id, want)) in ids.iter().zip(want).enumerate() {
                let got = session.standing_outcome(id).expect("registered id");
                if got.answer != want.answer || got.strategy != want.strategy {
                    answers_match = false;
                    let _ = p;
                }
            }
            prev = want.clone();
        }
    }
    (wall_ms, flips, answers_match)
}

/// Final standing answers of a fresh replay of the whole stream (for the `answers`
/// column: both modes end at the same verdicts, so the push mode's are reported).
fn final_answers(w: &StreamWorkload, cfg: &EngineConfig) -> Vec<String> {
    let mut cur = w.base.clone();
    for delta in &w.deltas {
        cur = cur.apply(delta).expect("stream deltas apply").0;
    }
    let outcomes = pw_decide::batch::decide_all_with(&bind_requests(w, &cur), cfg);
    Tally::of(&outcomes).nonzero()
}

/// One workload spec: builder, sizes, and whether the replay baseline runs (guarded
/// rows) or the row is a push-only throughput extension.
struct Spec {
    family: &'static str,
    relations: usize,
    rows: usize,
    deltas: usize,
    guarded: bool,
    /// The committed-run speedup floor for this row (the flip-sparse rows carry the
    /// headline ≥10×; flip-heavy measures notification latency, where every delta
    /// re-decides its relation in both modes, so its floor only asserts "faster than
    /// replay").  Smoke runs override every floor down to 0.9.
    floor: f64,
}

fn build(spec: &Spec) -> StreamWorkload {
    let builder = match spec.family {
        "flip-sparse" => flip_sparse_stream,
        _ => flip_heavy_stream,
    };
    builder(spec.relations, spec.rows, spec.deltas, 2026)
}

fn main() {
    let args = Args::parse("BENCH_PR10.json");
    let smoke = args.smoke;
    let sweeps = args.sweeps(1);
    // Single-threaded sessions: the comparison is about *requests skipped*, not about
    // parallel speedup, and sequential timings are the stable ones.
    let cfg = EngineConfig::sequential(Budget(20_000_000));

    let specs: Vec<Spec> = if smoke {
        vec![
            Spec {
                family: "flip-sparse",
                relations: 6,
                rows: 4,
                deltas: 120,
                guarded: true,
                floor: 0.9,
            },
            Spec {
                family: "flip-heavy",
                relations: 4,
                rows: 4,
                deltas: 60,
                guarded: true,
                floor: 0.9,
            },
        ]
    } else {
        vec![
            Spec {
                family: "flip-sparse",
                relations: 64,
                rows: 4,
                deltas: 5_000,
                guarded: true,
                floor: 10.0,
            },
            Spec {
                family: "flip-sparse",
                relations: 96,
                rows: 4,
                deltas: 3_000,
                guarded: true,
                floor: 10.0,
            },
            Spec {
                family: "flip-heavy",
                relations: 8,
                rows: 6,
                deltas: 2_000,
                guarded: true,
                floor: 1.5,
            },
            // Push-only throughput extension: the replay baseline would dominate the
            // run time without changing the verdicts, so this row carries no guard.
            Spec {
                family: "flip-sparse",
                relations: 48,
                rows: 4,
                deltas: 50_000,
                guarded: false,
                floor: 0.0,
            },
        ]
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut guard: Vec<Json> = Vec::new();
    let mut speedups: Vec<Json> = Vec::new();
    for spec in &specs {
        let w = build(spec);
        let answers = final_answers(&w, &cfg);
        // Keep the sweep with the least favourable speedup, except that a mismatch
        // always dominates — diverging verdicts can never be papered over.
        let mut best: Option<(f64, f64, usize, bool)> = None;
        for sweep in 0..sweeps {
            let (redecide_ms, oracle) = if spec.guarded {
                let (wall_ms, oracle) = run_redecide(&w, &cfg);
                (wall_ms, Some(oracle))
            } else {
                (0.0, None)
            };
            let (push_ms, flips, answers_match) = run_push(&w, &cfg, oracle.as_deref());
            eprintln!(
                "sweep {}/{sweeps}: {:<28} push {:>10.3} ms  redecide {:>10.3} ms  flips {:>5}  ({:.1}x, match: {})",
                sweep + 1,
                w.label,
                push_ms,
                redecide_ms,
                flips.len(),
                redecide_ms / push_ms.max(1e-6),
                answers_match,
            );
            let keep = match &best {
                None => true,
                Some((b_push, b_red, _, b_match)) => match (answers_match, *b_match) {
                    (false, true) => true,
                    (true, false) => false,
                    _ => redecide_ms / push_ms.max(1e-6) < b_red / b_push.max(1e-6),
                },
            };
            if keep {
                best = Some((push_ms, redecide_ms, flips.len(), answers_match));
            }
        }
        let (push_ms, redecide_ms, flips, answers_match) = best.expect("at least one sweep");
        let deltas = w.deltas.len();
        let modes: &[(&str, f64)] = if spec.guarded {
            &[("push", push_ms), ("redecide", redecide_ms)]
        } else {
            &[("push", push_ms)]
        };
        for &(mode, wall_ms) in modes {
            rows.push(Row {
                extra: vec![
                    ("deltas", Json::Int(deltas as i64)),
                    ("flips", Json::Int(flips as i64)),
                    ("per_delta_ms", rounded(wall_ms / deltas.max(1) as f64, 4)),
                    (
                        "deltas_per_sec",
                        rounded(deltas as f64 / (wall_ms / 1e3).max(1e-9), 1),
                    ),
                ],
                ..Row::new("standing", &w.label, mode, wall_ms, answers.clone())
            });
        }
        if spec.guarded {
            // The guard: flips and verdicts must match the replay baseline bit for
            // bit, and the redecide/push speedup must clear the embedded floor.
            guard.push(object([
                ("problem", Json::str("standing")),
                ("workload", Json::str(&w.label)),
                ("push_ms", ms(push_ms)),
                ("redecide_ms", ms(redecide_ms)),
                ("flips", Json::Int(flips as i64)),
                ("speedup", ratio(redecide_ms / push_ms.max(1e-6))),
                ("floor", Json::Float(if smoke { 0.9 } else { spec.floor })),
                ("answers_match", Json::Bool(answers_match)),
            ]));
            // The replay baseline is this report's embedded baseline.
            speedups.push(speedup_row(
                "standing",
                &w.label,
                "push",
                redecide_ms,
                push_ms,
            ));
        }
    }

    Report::new(
        "BENCH_PR10",
        "standing queries over delta streams: push_delta subscription index vs replay-everything redecide_all (see crates/bench/src/bin/bench_stream.rs)",
        1,
        sweeps,
        smoke,
        rows,
    )
    .table("stream_guard", guard)
    .table("speedup_vs_baseline", speedups)
    .write(&args.out);
}
