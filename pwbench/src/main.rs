//! `pwbench`: the end-to-end benchmark of the decision service.
//!
//! Starts `pw-serve` as its own process, drives it over loopback HTTP with one seeded
//! workload in a closed loop (one client, one connection at a time), checks every reply
//! against an in-process library mirror, and prints every metric by name and unit.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//!
//! ```text
//! pwbench --server PATH --workload stream-sparse|decide-fresh|mixed-hot
//!         --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics.  `--trace 1` replays every operation on
//! the mirror in lockstep, times every other one layer by layer from outside, reports
//! the per-layer metrics and writes the spans to `.bench_out/`.  See README.md.

mod mirror;
mod net;
mod stats;
mod trace;
mod workloads;

use mirror::{Mirror, Trace, PROBLEMS};
use net::{Exchange, ServerProcess};
use pw_serve::json::Json;
use stats::{Ending, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Op, Registered, Workload};

/// Set-ups per run; `setup_s` is their median.  Only the last server is measured.
const SETUP_REPEATS: usize = 9;
/// Operations sent and checked before the timed window, so lazily built state (the
/// coupling graphs, the memo's first entries) is not charged to the first samples.
const WARMUP_OPS: usize = 16;
/// `peak_rss_mb` is read after this many timed operations (or at the end of a shorter
/// window), so a faster server that completes more operations — and grows the memo
/// further — in the same seconds is not charged more memory for it.
const RSS_AT_OPS: usize = 512;
/// Operations per block behind `ops_per_s`, the median block rate.  A multiple of
/// `mixed-hot`'s delta period, so every block holds the same op mix.
const RATE_BLOCK: usize = 64;
/// Untraced replies held before the mirror checks them (each decide operation holds
/// its generated instances, up to a few hundred KiB).
const VERIFY_EVERY: usize = 128;
/// `/healthz` round trips behind `http.healthz_rtt_us`.
const HEALTHZ_PROBES: usize = 64;
/// Upper bound on `pw-serve` worker threads; the benchmark never asks for more than
/// the host's cores.
const MAX_WORKERS: usize = 4;
/// Every strategy label the wire can carry, for the `strategy.<label>` counts.
const STRATEGIES: [&str; 9] = [
    "codd-matching",
    "g-table-normalization",
    "pos-exist-e-table",
    "freeze",
    "c-table-algebra",
    "naive-evaluation",
    "backtracking",
    "world-enumeration",
    "per-shard",
];

const USAGE: &str = "usage: pwbench --server PATH --workload stream-sparse|decide-fresh|mixed-hot \
                     --seed N --seconds S --trace 0|1";

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        server: server.ok_or("missing --server")?,
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("pwbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(outcome) => {
            for m in outcome.report.metrics() {
                eprintln!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
            }
            let metrics = outcome
                .report
                .metrics()
                .iter()
                .map(|m| {
                    let value = Json::Object(vec![
                        ("value".into(), Json::Float(m.value)),
                        ("unit".into(), Json::str(m.unit)),
                    ]);
                    (m.name.clone(), value)
                })
                .collect();
            let result = Json::Object(vec![
                ("correct".into(), Json::Bool(true)),
                ("attempted".into(), Json::Int(outcome.attempted as i64)),
                ("failed".into(), Json::Int(outcome.failed as i64)),
                ("metrics".into(), Json::Object(metrics)),
            ]);
            println!("{result}");
        }
        Err(e) => {
            eprintln!("pwbench: {e}");
            std::process::exit(1);
        }
    }
}

struct Outcome {
    attempted: usize,
    failed: usize,
    report: Report,
}

/// One timed operation.
struct Sample {
    latency_ms: f64,
    delta: bool,
    traced: bool,
    ending: Ending,
}

/// Per-layer values a traced run collects outside the spans.
#[derive(Default)]
struct Layers {
    req_bytes: Vec<f64>,
    resp_bytes: Vec<f64>,
    server_self_us: Vec<f64>,
    strategies: BTreeMap<&'static str, u64>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut workload = Workload::build(&args.workload, args.seed).expect("name was validated");
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(MAX_WORKERS);

    // Set-up: spawn → /healthz 200 → registration → standing set with baselines.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<(ServerProcess, Registered)> = None;
    for _ in 0..SETUP_REPEATS {
        // The previous server is dropped (killed and reaped) before the next starts.
        drop(kept.take());
        let start = Instant::now();
        let server = ServerProcess::start(&args.server, workers)?;
        let reg = workload.register(server.addr)?;
        setup_s.push(start.elapsed().as_secs_f64());
        kept = Some((server, reg));
    }
    let (server, reg) = kept.expect("at least one set-up");
    let addr = server.addr;

    let mut mirror = Mirror::new(&workload, &reg, args.trace);
    let register_standing_us = mirror.adopt(&workload, &reg)?;
    for _ in 0..WARMUP_OPS {
        let Some(op) = workload.next_op(&reg) else {
            break;
        };
        let x = net::exchange(addr, "POST", &op.path, &op.body)
            .map_err(|e| format!("warm-up {}: {e}", op.path))?;
        if !x.ok() {
            return Err(format!("warm-up {}: {} {}", op.path, x.status, x.body));
        }
        let reply = parse_reply(&x)?;
        mirror.step(&op, &reply, None)?;
    }
    mirror.counters = Default::default();
    let stats_path = format!("/v1/databases/{}/stats", reg.db_id);
    let stats_before = net::get_json(addr, &stats_path)?;

    // The timed window: `--seconds` of sending.  The pauses in which the mirror checks
    // the replies collected so far do not count, and they keep the replies held small.
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut unverified: Vec<(usize, Op, Json)> = Vec::new();
    let window = Duration::from_secs(args.seconds);
    let mut sending = Duration::ZERO;
    let mut resumed = Instant::now();
    let mut request = 0u64;
    // Every other operation of each kind is traced, so a periodic op mix cannot
    // leave one kind untraced.
    let mut sent = [0u64; 2];
    let mut typed_errors = 0usize;
    let mut peak_rss_kib = None;
    while sending + resumed.elapsed() < window {
        let Some(op) = workload.next_op(&reg) else {
            break;
        };
        request += 1;
        sent[usize::from(op.is_delta())] += 1;
        let traced = args.trace && sent[usize::from(op.is_delta())] % 2 == 1;
        let x = match net::exchange(addr, "POST", &op.path, &op.body) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("pwbench: {}: {e}", op.path);
                samples.push(Sample {
                    latency_ms: f64::INFINITY,
                    delta: op.is_delta(),
                    traced,
                    ending: Ending::Transport,
                });
                if op.is_delta() {
                    // The server may or may not have applied it: the mirror cannot
                    // follow, so the window ends here.
                    break;
                }
                continue;
            }
        };
        let mut sample = Sample {
            latency_ms: x.latency().as_secs_f64() * 1e3,
            delta: op.is_delta(),
            traced,
            ending: Ending::Status(x.status),
        };
        if !x.ok() {
            // Refused: the server applied nothing, so the mirror skips it too.
            sample.latency_ms = f64::INFINITY;
            samples.push(sample);
            continue;
        }
        let reply = parse_reply(&x)?;
        count_strategies(&reply, &mut layers.strategies);
        report_typed_errors(&op, &reply, &mut typed_errors);
        if args.trace {
            let root = traced.then(|| record_exchange(&mut tracer, &x, request));
            let trace = root.map(|parent| Trace {
                tracer: &mut tracer,
                request,
                parent,
            });
            let step = mirror.step(&op, &reply, trace)?;
            if let Some(root) = root {
                tracer.close(root);
            }
            sample.ending = step.ending;
            if let Some(mirror_span) = step.mirror_span {
                layers.req_bytes.push(x.req_bytes as f64);
                layers.resp_bytes.push(x.resp_bytes as f64);
                let mirrored: u64 = tracer
                    .spans()
                    .iter()
                    .filter(|s| s.parent == Some(mirror_span))
                    .map(|s| s.duration())
                    .sum();
                let wait = (x.t_first_byte - x.t_written).as_nanos() as f64;
                layers.server_self_us.push((wait - mirrored as f64) / 1e3);
            }
        } else {
            unverified.push((samples.len(), op, reply));
        }
        samples.push(sample);
        if samples.len() == RSS_AT_OPS {
            peak_rss_kib = Some(read_peak_rss(&server)?);
        }
        if unverified.len() == VERIFY_EVERY {
            sending += resumed.elapsed();
            verify(&mut mirror, &mut unverified, &mut samples)?;
            resumed = Instant::now();
        }
    }
    let peak_rss_kib = match peak_rss_kib {
        Some(kib) => kib,
        None => read_peak_rss(&server)?,
    };

    verify(&mut mirror, &mut unverified, &mut samples)?;
    if let Some(sub) = reg.sub_id {
        check_flip_queue(addr, sub, &mirror.events)?;
    }
    let stats_after = net::get_json(addr, &stats_path)?;
    let healthz_us = if args.trace {
        healthz_rtt_us(addr)?
    } else {
        0.0
    };
    server.shutdown()?;

    let endings: Vec<Ending> = samples.iter().map(|s| s.ending).collect();
    let attempted = samples.len();
    if attempted == 0 {
        return Err("no operation completed in the timed window".to_string());
    }
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let summary = stats::summarize(&latencies).expect("non-empty");
    let finished: Vec<f64> = latencies
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect();
    let ops_per_s = stats::block_rate(&finished, RATE_BLOCK);
    eprintln!(
        "pwbench: {} seed {} — {} ops timed, p50 {:.3} ms, p{:.2} {:.3} ms ({} samples), {} failed",
        workload.name,
        args.seed,
        attempted,
        summary.p50,
        summary.tail_pct,
        summary.tail,
        summary.n,
        stats::failed_count(&endings),
    );

    let mut report = Report::default();
    if !args.trace {
        report.push("setup_s", stats::median(&setup_s), "s");
        report.push("p50_ms", summary.p50, "ms");
        report.push("ops_per_s", ops_per_s, "1/s");
        report.push("peak_rss_mb", peak_rss_kib as f64 / 1024.0, "MiB");
    } else {
        per_layer_metrics(
            &mut report,
            &PerLayerInput {
                samples: &samples,
                summary,
                tracer: &tracer,
                layers: &layers,
                mirror: &mirror,
                register_standing_us,
                healthz_us,
                stats_before: &stats_before,
                stats_after: &stats_after,
            },
        );
        write_trace(&tracer, &args.workload, args.seed)?;
    }
    Ok(Outcome {
        attempted,
        failed: stats::failed_count(&endings),
        report,
    })
}

/// Check the collected replies against the mirror, in order, and record how each
/// operation ended.
fn verify(
    mirror: &mut Mirror,
    unverified: &mut Vec<(usize, Op, Json)>,
    samples: &mut [Sample],
) -> Result<(), String> {
    for (index, op, reply) in unverified.drain(..) {
        samples[index].ending = mirror.step(&op, &reply, None)?.ending;
    }
    Ok(())
}

fn read_peak_rss(server: &ServerProcess) -> Result<u64, String> {
    server
        .peak_rss_kib()
        .ok_or_else(|| "cannot read the server's VmHWM".to_string())
}

fn parse_reply(x: &Exchange) -> Result<Json, String> {
    Json::parse(&x.body).map_err(|e| format!("a 2xx reply is not JSON: {e}: {}", x.body))
}

/// Record one exchange as an `op` root (closed after the mirror's spans) with its
/// `http` phases underneath.
fn record_exchange(tracer: &mut Tracer, x: &Exchange, request: u64) -> usize {
    let root = tracer.record("op", x.t_start, x.t_end, None, request);
    let http = tracer.record("http", x.t_start, x.t_end, Some(root), request);
    tracer.record(
        "http.connect",
        x.t_start,
        x.t_connected,
        Some(http),
        request,
    );
    tracer.record(
        "http.write",
        x.t_connected,
        x.t_written,
        Some(http),
        request,
    );
    tracer.record(
        "http.wait",
        x.t_written,
        x.t_first_byte,
        Some(http),
        request,
    );
    tracer.record("http.read", x.t_first_byte, x.t_end, Some(http), request);
    root
}

/// The strategy label of one encoded decision (`{"per-shard": …}` → `per-shard`).
fn strategy_label(decision: &Json) -> Option<&'static str> {
    let label = match decision.get("strategy")? {
        Json::Str(s) => s.as_str(),
        Json::Object(members) => members.first()?.0.as_str(),
        _ => return None,
    };
    STRATEGIES.iter().copied().find(|s| *s == label)
}

/// Print the first few per-request errors a reply carries, with the question asked.
fn report_typed_errors(op: &Op, reply: &Json, printed: &mut usize) {
    const SHOWN: usize = 3;
    let outcomes = reply
        .get("outcomes")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    for (i, outcome) in outcomes.iter().enumerate() {
        if let (Some(error), true) = (outcome.get("error"), *printed < SHOWN) {
            *printed += 1;
            let asked = match &op.payload {
                workloads::Payload::Decide { questions, .. } => questions
                    .get(i)
                    .map_or("standing request", workloads::Question::problem),
                workloads::Payload::Delta(_) => "standing request",
            };
            eprintln!("pwbench: {} {asked} failed: {error}", op.path);
        }
    }
}

fn count_strategies(reply: &Json, counts: &mut BTreeMap<&'static str, u64>) {
    let outcomes = reply
        .get("outcomes")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    let flips = reply.get("flips").and_then(Json::as_array).unwrap_or(&[]);
    let decisions = outcomes
        .iter()
        .chain(flips.iter().filter_map(|f| f.get("new")));
    for label in decisions.filter_map(strategy_label) {
        *counts.entry(label).or_default() += 1;
    }
}

/// Long-poll the subscription's queue dry and compare it with the mirror's flips: the
/// same events, in order, with the same sequence numbers — minus what the bounded
/// queue reports it dropped from the front.
fn check_flip_queue(addr: std::net::SocketAddr, sub: u64, expected: &[Json]) -> Result<(), String> {
    let mut events = Vec::new();
    let mut dropped = 0u64;
    loop {
        let page = net::get_json(addr, &format!("/v1/subscriptions/{sub}/flips?max=256"))?;
        dropped += page.get("dropped").and_then(Json::as_u64).unwrap_or(0);
        let batch = page
            .get("events")
            .and_then(Json::as_array)
            .ok_or("flips reply without events")?;
        if batch.is_empty() {
            break;
        }
        events.extend_from_slice(batch);
    }
    let tail = expected.get(dropped as usize..).unwrap_or(&[]);
    if events != tail {
        return Err(format!(
            "wire/library mismatch in the flip queue: {} events (+{dropped} dropped) vs {} expected",
            events.len(),
            expected.len()
        ));
    }
    Ok(())
}

fn healthz_rtt_us(addr: std::net::SocketAddr) -> Result<f64, String> {
    let mut rtts = Vec::with_capacity(HEALTHZ_PROBES);
    for _ in 0..HEALTHZ_PROBES {
        let x = net::exchange(addr, "GET", "/healthz", "").map_err(|e| format!("/healthz: {e}"))?;
        rtts.push(x.latency().as_secs_f64() * 1e6);
    }
    Ok(stats::median(&rtts))
}

struct PerLayerInput<'a> {
    samples: &'a [Sample],
    summary: stats::Summary,
    tracer: &'a Tracer,
    layers: &'a Layers,
    mirror: &'a Mirror,
    register_standing_us: f64,
    healthz_us: f64,
    stats_before: &'a Json,
    stats_after: &'a Json,
}

/// Mean per traced operation of the summed durations of spans named `name`, over the
/// operations that have at least one; 0 when none has.
fn span_mean_us(tracer: &Tracer, name: &str) -> f64 {
    let mut per_request: BTreeMap<u64, u64> = BTreeMap::new();
    for s in tracer.spans().iter().filter(|s| s.name == name) {
        *per_request.entry(s.request).or_default() += s.duration();
    }
    let values: Vec<f64> = per_request.values().map(|&ns| ns as f64 / 1e3).collect();
    stats::mean(&values)
}

fn stat(stats: &Json, section: &str, field: &str) -> f64 {
    let value = if section.is_empty() {
        stats.get(field)
    } else {
        stats.get(section).and_then(|s| s.get(field))
    };
    value.and_then(Json::as_i64).unwrap_or(0) as f64
}

fn per_layer_metrics(report: &mut Report, input: &PerLayerInput<'_>) {
    let tracer = input.tracer;
    let layers = input.layers;
    let span = |name: &str| span_mean_us(tracer, name);
    let grew = |section: &str, field: &str| {
        stat(input.stats_after, section, field) - stat(input.stats_before, section, field)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let latencies = |pick: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        input
            .samples
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.latency_ms)
            .collect()
    };
    let endings: Vec<Ending> = input.samples.iter().map(|s| s.ending).collect();

    report.push("run.samples", input.summary.n as f64, "count");
    report.push("run.p90_ms", input.summary.p90, "ms");
    report.push("run.p99_ms", input.summary.tail, "ms");
    report.push("run.tail_pct", input.summary.tail_pct, "%");
    report.push("failed_share", stats::failed_share(&endings), "ratio");
    report.push(
        "op.delta_p50_ms",
        stats::median(&latencies(&|s: &Sample| s.delta)),
        "ms",
    );
    report.push(
        "op.decide_p50_ms",
        stats::median(&latencies(&|s: &Sample| !s.delta)),
        "ms",
    );
    let traced_p50 = stats::median(&latencies(&|s: &Sample| s.traced));
    let untraced_p50 = stats::median(&latencies(&|s: &Sample| !s.traced));
    report.push("trace.overhead_us", (traced_p50 - untraced_p50) * 1e3, "us");

    report.push("http.connect_us", span("http.connect"), "us");
    report.push("http.wait_us", span("http.wait"), "us");
    report.push("http.req_bytes", stats::mean(&layers.req_bytes), "bytes");
    report.push("http.resp_bytes", stats::mean(&layers.resp_bytes), "bytes");
    report.push("http.healthz_rtt_us", input.healthz_us, "us");

    report.push("json.parse_us", span("json.parse"), "us");
    report.push("json.emit_us", span("json.emit"), "us");

    report.push("wire.decode_delta_us", span("wire.decode_delta"), "us");
    report.push(
        "wire.decode_requests_us",
        span("wire.decode_requests"),
        "us",
    );
    report.push(
        "wire.encode_outcomes_us",
        span("wire.encode_outcomes"),
        "us",
    );
    report.push(
        "wire.decode_standing_us",
        span("wire.decode_standing"),
        "us",
    );

    report.push("server.self_us", stats::mean(&layers.server_self_us), "us");
    report.push("server.shed", stats::shed_count(&endings) as f64, "count");
    report.push("server.deltas_applied", grew("", "deltas_applied"), "count");
    report.push("server.flips_emitted", grew("", "flips_emitted"), "count");

    let c = input.mirror.counters;
    let per_delta = |v: u64| ratio(v as f64, c.deltas as f64);
    report.push(
        "session.redecide_all_us",
        span("session.redecide_all"),
        "us",
    );
    report.push("session.push_delta_us", span("session.push_delta"), "us");
    report.push("session.decide_all_us", span("session.decide_all"), "us");
    report.push(
        "session.register_standing_us",
        input.register_standing_us,
        "us",
    );
    report.push("session.redecided", per_delta(c.redecided), "count");
    report.push("session.skipped", per_delta(c.skipped), "count");
    report.push(
        "session.skip_ratio",
        ratio(c.skipped as f64, (c.skipped + c.redecided) as f64),
        "ratio",
    );

    report.push("database.apply_us", span("database.apply"), "us");
    report.push(
        "database.shard_groups_us",
        span("database.shard_groups"),
        "us",
    );
    report.push("database.groups", per_delta(c.groups), "count");
    report.push("database.dirty_groups", per_delta(c.dirty_groups), "count");

    let hits = grew("memo", "hits");
    let misses = grew("memo", "misses");
    report.push(
        "engine.retire_us",
        stats::mean(&input.mirror.retire_us),
        "us",
    );
    report.push("engine.memo_hits", hits, "count");
    report.push("engine.memo_misses", misses, "count");
    report.push("engine.memo_hit_ratio", ratio(hits, hits + misses), "ratio");
    report.push(
        "engine.memo_entries",
        stat(input.stats_after, "memo", "entries"),
        "count",
    );
    report.push(
        "engine.busy_total_ns",
        grew("engine", "busy_total_ns"),
        "ns",
    );
    report.push(
        "engine.steals_attempted",
        grew("engine", "steals_attempted"),
        "count",
    );
    report.push(
        "engine.steals_succeeded",
        grew("engine", "steals_succeeded"),
        "count",
    );

    for (problem, span_name) in PROBLEMS {
        report.push(format!("{problem}.decide_us"), span(span_name), "us");
    }
    for label in STRATEGIES {
        let count = layers.strategies.get(label).copied().unwrap_or(0);
        report.push(format!("strategy.{label}"), count as f64, "count");
    }
}

/// Write the spans and the self-time report to `.bench_out/` and print the report.
fn write_trace(tracer: &Tracer, workload: &str, seed: u64) -> Result<(), String> {
    eprintln!(
        "{:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, row) in trace::self_time_report(tracer.spans()) {
        eprintln!(
            "{:<28} {:>8} {:>12.3} {:>12.3}",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    std::fs::write(&path, tracer.to_json().to_string())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
