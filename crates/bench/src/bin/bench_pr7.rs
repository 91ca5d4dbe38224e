//! `bench-pr7` — the serving-hardening overhead benchmark: the same batch of
//! decisions with the resilience layer disarmed and fully armed, emitted as
//! machine-readable JSON.
//!
//! PR 7 gives the engine wall-clock deadlines, cooperative cancellation, per-request
//! panic isolation, a bounded decision memo, and deterministic fault injection.  The
//! design promise is that all of it is (close to) free when it does not fire: the
//! deadline/cancel/fault hooks run on an amortized slow path (once every 1024 budget
//! ticks), the memo capacity check is one comparison per insert, and a `FaultPlan`
//! that is absent costs one `Option` test.  This harness prices exactly that — each
//! result row times `decide_all_with` over one (problem, workload) pair twice, once
//! under the plain configuration and once under a fully *armed* configuration (a far
//! wall-clock deadline, a live-but-never-cancelled token, and a bounded-but-ample
//! memo capacity, so every hardened code path executes without ever firing) — and
//! emits a `robustness_guard` table (consumed by `check-bench` in CI)
//! aggregated over the suite, embedding the allowed ceiling: the armed session may
//! cost at most `ceiling ×` the plain session on the mixed batch.  The per-request
//! `catch_unwind` boundary is unconditional (isolation must not be opt-in), so both
//! sides of the comparison carry it; the guarded delta is the armed limit checks.
//!
//! The harness also audits what it measures: per row it asserts the armed session's
//! answers and strategies are bit-identical to the plain session's — the
//! `answers_match` flag in the table records this, and CI fails on
//! `answers_match: false` just as it fails on an overhead above the ceiling.
//!
//! Usage:
//!   cargo run --release --bin bench-pr7 -- [--smoke] [--sweeps N] [--out FILE]
//!
//! `--smoke` shrinks the tables and iteration counts so CI can check the harness and
//! the JSON shape in seconds; micro-second decides on a cold CI machine are noisy, so
//! the smoke ceiling is relaxed (`3.0`) while the committed full run carries the real
//! `1.05` acceptance ceiling.

use pw_bench::report::{ms, object, ratio, speedup_row, Args, Report, Row, Tally};
use pw_bench::suite::{
    median_by, same_verdicts, serving_requests, serving_workloads, time_pair, PROBLEMS,
};
use pw_decide::{Budget, CancelToken, DecisionOutcome, EngineConfig};
use pw_serve::json::Json;
use std::sync::Arc;
use std::time::Duration;

/// The armed configuration: every hardened code path executes, none ever fires.  The
/// two-hour deadline polls the wall clock on every amortized check without plausibly
/// expiring; the token is live but never cancelled; the memo is bounded far above the
/// suite's working set, so the capacity check runs on every insert and never evicts.
fn arm(cfg: &EngineConfig) -> EngineConfig {
    cfg.clone()
        .with_deadline(Duration::from_secs(7_200))
        .with_cancel(Arc::new(CancelToken::new()))
        .with_memo_capacity(1 << 20)
}

struct PairResult {
    plain_ms: f64,
    hardened_ms: f64,
    plain_answers: Vec<DecisionOutcome>,
    answers_match: bool,
}

impl PairResult {
    fn overhead(&self) -> f64 {
        self.hardened_ms / self.plain_ms.max(1e-6)
    }
}

fn main() {
    let args = Args::parse("BENCH_PR7.json");
    let smoke = args.smoke;
    let sweeps = args.sweeps(if smoke { 1 } else { 5 });
    let iters = if smoke { 2 } else { 40 };
    // Single-threaded decides: the comparison is about the armed limit checks riding
    // on an identical search, and sequential timings are the stable ones.
    let cfg = EngineConfig::sequential(Budget(20_000_000));
    let ceiling = if smoke { 3.0 } else { 1.05 };

    let mut rows: Vec<Row> = Vec::new();
    let (mut sum_plain, mut sum_hardened) = (0.0f64, 0.0f64);
    let mut suite_matches = true;
    for w in &serving_workloads(smoke, 2077) {
        for problem in PROBLEMS {
            let requests = serving_requests(problem, w);
            // Median overhead across the sweeps: the armed delta is the signal — but an
            // answer mismatch in *any* sweep always dominates.
            let results: Vec<PairResult> = (0..sweeps)
                .map(|sweep| {
                    let [(plain_ms, plain), (hardened_ms, hardened)] =
                        time_pair(&requests, &cfg, &arm(&cfg), 3, iters);
                    let r = PairResult {
                        plain_ms,
                        hardened_ms,
                        answers_match: same_verdicts(&plain, &hardened),
                        plain_answers: plain,
                    };
                    eprintln!(
                        "sweep {}/{sweeps}: {:<12} {:<8} plain {:>9.3} ms  hardened {:>9.3} ms  ({:.2}x, answers_match: {})",
                        sweep + 1,
                        problem,
                        w.label,
                        r.plain_ms,
                        r.hardened_ms,
                        r.overhead(),
                        r.answers_match,
                    );
                    r
                })
                .collect();
            suite_matches &= results.iter().all(|r| r.answers_match);
            let r = median_by(results, PairResult::overhead);
            let answers = Tally::of(&r.plain_answers).summary();
            rows.push(Row::new(
                problem,
                w.label,
                "plain",
                r.plain_ms,
                answers.clone(),
            ));
            rows.push(Row::new(
                problem,
                w.label,
                "hardened",
                r.hardened_ms,
                answers,
            ));
            sum_plain += r.plain_ms;
            sum_hardened += r.hardened_ms;
        }
    }

    // The guard: armed ≤ ceiling × plain, answers and strategies bit-identical.  It is
    // one row over the whole suite because the amortized limit check is a per-tick
    // property of the hot loop; a micro-second polynomial decide shows a noisy ratio
    // while adding only nanoseconds, so per-problem ratios stay visible in `results`
    // only.  The speedup table treats the ceiling-scaled plain run as the budget the
    // armed run must fit: speedup ≥ 1.0 exactly when the guard holds.
    let guard = object([
        ("problem", Json::str("all")),
        ("workload", Json::str("suite")),
        ("plain_ms", ms(sum_plain)),
        ("hardened_ms", ms(sum_hardened)),
        ("overhead", ratio(sum_hardened / sum_plain.max(1e-6))),
        ("ceiling", Json::Float(ceiling)),
        ("answers_match", Json::Bool(suite_matches)),
    ]);
    let speedup = speedup_row(
        "all",
        "suite",
        "hardened",
        sum_plain * ceiling,
        sum_hardened,
    );
    Report::new(
        "BENCH_PR7",
        "serving-hardening overhead: decide_all with the resilience layer disarmed vs fully armed (deadline + cancel token + bounded memo, none firing), answers audited bit-identical (see crates/bench/src/bin/bench_pr7.rs)",
        1,
        iters,
        smoke,
        rows,
    )
    .table("robustness_guard", vec![guard])
    .table("speedup_vs_baseline", vec![speedup])
    .write(&args.out);
}
