//! `bench-pr6` — the certificate-extraction overhead benchmark: the same batch of
//! decisions with and without proof-carrying verdicts, emitted as machine-readable
//! JSON.
//!
//! PR 6 makes every decision optionally return a [`pw_decide::Certificate`] that the
//! independent checker `pw_check` verifies in polynomial time.  Certificates are only
//! useful if extracting them is cheap: the certified path must reuse the witnesses the
//! searches already construct rather than re-deciding.  This harness measures exactly
//! that — each result row times `decide_all_with` over one (problem, workload) pair
//! twice, once under the plain configuration and once under
//! [`pw_decide::EngineConfig::certified`] — and emits a `certify_overhead` table
//! (consumed by `check-bench` in CI) aggregated per workload across the five
//! problems, each row embedding the allowed ceiling: the certified session may cost
//! at most `ceiling ×` the plain session on the mixed batch.
//!
//! The harness also *audits* what it measures: per row it asserts the certified
//! answers and strategies are identical to the plain ones, that every certified
//! outcome carries a certificate, and that `pw_check::verify` accepts each one — the
//! `verified` flag in the table records this, and CI fails on `verified: false` just
//! as it fails on an overhead above the ceiling.
//!
//! Usage:
//!   cargo run --release --bin bench-pr6 -- [--smoke] [--sweeps N] [--out FILE]
//!
//! `--smoke` shrinks the tables and iteration counts so CI can check the harness and
//! the JSON shape in seconds; micro-second decides on a cold CI machine are noisy, so
//! the smoke ceiling is relaxed (`3.0`) while the committed full run carries the real
//! `1.5` acceptance ceiling.

use pw_bench::report::{ms, object, ratio, speedup_row, Args, Report, Row, Tally};
use pw_bench::suite::{
    median_by, same_verdicts, serving_requests, serving_workloads, time_pair, PROBLEMS,
};
use pw_check::{Claim, Problem};
use pw_decide::batch::DecisionRequest;
use pw_decide::{Budget, DecisionOutcome, EngineConfig};
use pw_serve::json::Json;

/// Check one certified outcome against its request: answer present, certificate
/// present, checker accepts.
fn outcome_verifies(request: &DecisionRequest, outcome: &DecisionOutcome) -> bool {
    let Ok(answer) = outcome.answer else {
        return false;
    };
    let Some(certificate) = &outcome.certificate else {
        return false;
    };
    let problem = match request {
        DecisionRequest::Membership { view, instance } => Problem::Membership { view, instance },
        DecisionRequest::Uniqueness { view, instance } => Problem::Uniqueness { view, instance },
        DecisionRequest::Containment { left, right } => Problem::Containment { left, right },
        DecisionRequest::Possibility { view, facts } => Problem::Possibility { view, facts },
        DecisionRequest::Certainty { view, facts } => Problem::Certainty { view, facts },
    };
    pw_check::verify(&Claim { problem, answer }, certificate).is_ok()
}

struct PairResult {
    plain_ms: f64,
    certified_ms: f64,
    plain_answers: Vec<DecisionOutcome>,
    verified: bool,
}

impl PairResult {
    fn overhead(&self) -> f64 {
        self.certified_ms / self.plain_ms.max(1e-6)
    }
}

/// Time one batch plain and certified, and audit the certified outcomes: answers and
/// strategies match the plain ones, every outcome carries a certificate, and
/// `pw_check` accepts each one.
fn run_pair(requests: &[DecisionRequest], cfg: &EngineConfig, max_iters: usize) -> PairResult {
    let [(plain_ms, plain), (certified_ms, certified)] =
        time_pair(requests, cfg, &cfg.clone().certified(), 3, max_iters);
    let verified = same_verdicts(&plain, &certified)
        && requests
            .iter()
            .zip(&certified)
            .all(|(r, o)| outcome_verifies(r, o));
    PairResult {
        plain_ms,
        certified_ms,
        plain_answers: plain,
        verified,
    }
}

fn main() {
    let args = Args::parse("BENCH_PR6.json");
    let smoke = args.smoke;
    let sweeps = args.sweeps(if smoke { 1 } else { 5 });
    let iters = if smoke { 2 } else { 40 };
    // Single-threaded decides: the comparison is about the *extraction* cost riding on
    // an identical search, and sequential timings are the stable ones.
    let cfg = EngineConfig::sequential(Budget(20_000_000));
    let ceiling = if smoke { 3.0 } else { 1.5 };

    let mut rows: Vec<Row> = Vec::new();
    let (mut sum_plain, mut sum_certified) = (0.0f64, 0.0f64);
    let mut suite_verified = true;
    for w in &serving_workloads(smoke, 2061) {
        for problem in PROBLEMS {
            let requests = serving_requests(problem, w);
            // Median overhead across the sweeps: extraction cost is the signal — but an
            // audit failure in *any* sweep always dominates.
            let results: Vec<PairResult> = (0..sweeps)
                .map(|sweep| {
                    let r = run_pair(&requests, &cfg, iters);
                    eprintln!(
                        "sweep {}/{sweeps}: {:<12} {:<8} plain {:>9.3} ms  certified {:>9.3} ms  ({:.2}x, verified: {})",
                        sweep + 1,
                        problem,
                        w.label,
                        r.plain_ms,
                        r.certified_ms,
                        r.overhead(),
                        r.verified,
                    );
                    r
                })
                .collect();
            suite_verified &= results.iter().all(|r| r.verified);
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
                "certified",
                r.certified_ms,
                answers,
            ));
            sum_plain += r.plain_ms;
            sum_certified += r.certified_ms;
        }
    }

    // The guard: certified ≤ ceiling × plain, and every certified outcome audited.  It
    // is one row over the whole suite because certify is a session-level switch; a
    // micro-second polynomial decide can show a high ratio while adding only
    // microseconds, so per-problem ratios stay visible in `results` only.  The speedup
    // table treats the ceiling-scaled plain run as the
    // budget the certified run must fit: speedup ≥ 1.0 exactly when the guard holds.
    let guard = object([
        ("problem", Json::str("all")),
        ("workload", Json::str("suite")),
        ("plain_ms", ms(sum_plain)),
        ("certified_ms", ms(sum_certified)),
        ("overhead", ratio(sum_certified / sum_plain.max(1e-6))),
        ("ceiling", Json::Float(ceiling)),
        ("verified", Json::Bool(suite_verified)),
    ]);
    let speedup = speedup_row(
        "all",
        "suite",
        "certified",
        sum_plain * ceiling,
        sum_certified,
    );
    Report::new(
        "BENCH_PR6",
        "certificate-extraction overhead: decide_all with and without proof-carrying verdicts, every certified answer re-checked by pw_check (see crates/bench/src/bin/bench_pr6.rs)",
        1,
        iters,
        smoke,
        rows,
    )
    .table("certify_overhead", vec![guard])
    .table("speedup_vs_baseline", vec![speedup])
    .write(&args.out);
}
