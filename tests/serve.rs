//! Loopback integration tests for `pw-serve`: a real server on `127.0.0.1`, a real
//! TCP client, and the library as the oracle.
//!
//! * **Bit-identical answers** — a wire batch covering all five decision problems
//!   (plus one delta → re-decide cycle over standing requests) must produce, for
//!   every request, exactly the JSON the wire encoder derives from the in-process
//!   [`batch::Session`] run of the same workload: answers, strategies, certificates
//!   and error shapes alike.
//! * **Bounded admission** — with one worker and a depth-1 queue, a third concurrent
//!   client is refused immediately with `429` and a `Retry-After` header, never
//!   queued or hung; after shutdown begins, late clients get a typed `503` while
//!   admitted work drains.
//! * **Typed refusals** — malformed JSON and oversized bodies answer `400`/`413`
//!   error bodies, and the server survives to serve the next request.
//! * **One apply per delta** — a delta the database rejects answers `400 bad-delta`
//!   and leaves a subscribed database, its standing set and its window untouched; with
//!   legacy standing requests and a subscription on one database, every `/delta` reply
//!   equals `redecide_all` + `push_delta` on a fresh library session.

use possible_worlds::core::Delta;
use possible_worlds::decide::{batch, EngineConfig};
use possible_worlds::prelude::*;
use possible_worlds::workloads::{
    flip_heavy_stream, member_instance, non_member_instance, random_ctable, random_gtable,
    StreamProblem, TableParams,
};
use pw_serve::json::Json;
use pw_serve::{client, wire, Server, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn params(seed: u64) -> TableParams {
    TableParams {
        rows: 4,
        arity: 2,
        constants: 3,
        null_density: 0.4,
        seed,
    }
}

fn quiet_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        lame_duck: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

/// The engine configuration the server builds for a registered database — answers
/// compared against the wire must come from an identically configured session.
fn server_session() -> batch::Session {
    let config = ServerConfig::default();
    batch::Session::new(&EngineConfig::with_threads(
        config.session_threads,
        Budget(config.budget),
    ))
}

fn register(addr: std::net::SocketAddr, db: &CDatabase) -> u64 {
    let body = Json::Object(vec![
        ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
        ("database".into(), wire::encode_cdatabase(db)),
    ]);
    let response = client::post_json(addr, "/v1/databases", &body).expect("register reachable");
    assert_eq!(response.status, 201, "register: {}", response.body);
    response
        .json()
        .expect("register body is JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("register body has an id")
}

fn versioned(fields: Vec<(&str, Json)>) -> Json {
    let mut body = vec![(
        "schema_version".to_string(),
        Json::Int(wire::SCHEMA_VERSION),
    )];
    body.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Object(body)
}

/// Post `delta` to database `id`; returns the status and the parsed reply.
fn post_delta(addr: std::net::SocketAddr, id: u64, delta: &Delta) -> (u16, Json) {
    let body = versioned(vec![("delta", wire::encode_delta(delta))]);
    let response = client::post_json(addr, &format!("/v1/databases/{id}/delta"), &body)
        .expect("delta reachable");
    let reply = response.json().expect("delta reply is JSON");
    (response.status, reply)
}

/// Open a subscription on database `id`; returns the registration reply.
fn subscribe(addr: std::net::SocketAddr, id: u64, requests: Vec<Json>) -> Json {
    let body = versioned(vec![
        ("database", Json::Int(id as i64)),
        ("requests", Json::Array(requests)),
    ]);
    let response =
        client::post_json(addr, "/v1/subscriptions", &body).expect("subscribe reachable");
    assert_eq!(response.status, 201, "subscribe: {}", response.body);
    response.json().expect("subscribe reply is JSON")
}

/// The `/delta` reply fields the library determines: `noop`, the replayed legacy
/// outcomes, the flips with their sequence numbers, and the subscription counters.
/// `flips_sent` is the number of flips the database emitted before this delta.
fn expected_delta_reply(
    noop: bool,
    outcomes: &[batch::DecisionOutcome],
    update: &batch::StandingUpdate,
    flips_sent: u64,
) -> Vec<(&'static str, Json)> {
    vec![
        ("noop", Json::Bool(noop)),
        (
            "outcomes",
            Json::Array(outcomes.iter().map(wire::encode_decision).collect()),
        ),
        (
            "flips",
            Json::Array(
                update
                    .flips
                    .iter()
                    .enumerate()
                    .map(|(i, f)| wire::encode_flip(flips_sent + i as u64 + 1, f))
                    .collect(),
            ),
        ),
        ("redecided", Json::Int(update.redecided as i64)),
        ("skipped", Json::Int(update.skipped as i64)),
    ]
}

fn assert_reply_fields(reply: &Json, expected: &[(&'static str, Json)], context: &str) {
    for (field, want) in expected {
        assert_eq!(reply.get(field), Some(want), "{context}: field '{field}'");
    }
}

fn request_json(problem: &str, field: &str, payload: Json) -> Json {
    Json::Object(vec![
        ("problem".to_string(), Json::str(problem)),
        (field.to_string(), payload),
    ])
}

#[test]
fn wire_answers_are_bit_identical_to_the_library() {
    // A mixed-class workload: a c-table and a g-table, plus a second database for
    // containment's right-hand side.
    let db = CDatabase::new([
        random_ctable("R", &params(11)),
        random_gtable("S", &params(12)),
    ]);
    let right = CDatabase::new([
        random_ctable("R", &params(21)),
        random_gtable("S", &params(22)),
    ]);
    let yes = member_instance(&db, &params(31));
    let no = non_member_instance(&db, &params(32));

    // The oracle: the same five requests through the library, on a session
    // configured exactly like the server's.
    let requests = vec![
        batch::DecisionRequest::Membership {
            view: View::identity(db.clone()),
            instance: yes.clone(),
        },
        batch::DecisionRequest::Uniqueness {
            view: View::identity(db.clone()),
            instance: yes.clone(),
        },
        batch::DecisionRequest::Containment {
            left: View::identity(db.clone()),
            right: View::identity(right.clone()),
        },
        batch::DecisionRequest::Possibility {
            view: View::identity(db.clone()),
            facts: no.clone(),
        },
        batch::DecisionRequest::Certainty {
            view: View::identity(db.clone()),
            facts: yes.clone(),
        },
    ];
    let session = server_session();
    let expected = session.decide_all(&requests);

    let server = Server::start(quiet_config()).expect("server starts");
    let addr = server.local_addr();
    let db_id = register(addr, &db);
    let right_id = register(addr, &right);

    let wire_requests = vec![
        request_json("membership", "instance", wire::encode_instance(&yes)),
        request_json("uniqueness", "instance", wire::encode_instance(&yes)),
        request_json("containment", "right", Json::Int(right_id as i64)),
        request_json("possibility", "facts", wire::encode_instance(&no)),
        request_json("certainty", "facts", wire::encode_instance(&yes)),
    ];
    let decide_body = Json::Object(vec![
        ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
        ("standing".into(), Json::Bool(true)),
        ("requests".into(), Json::Array(wire_requests)),
    ]);
    let response = client::post_json(addr, &format!("/v1/databases/{db_id}/decide"), &decide_body)
        .expect("decide reachable");
    assert_eq!(response.status, 200, "decide: {}", response.body);
    let outcomes = response.json().expect("decide body is JSON");
    let outcomes = outcomes
        .get("outcomes")
        .and_then(Json::as_array)
        .expect("decide body has outcomes");
    assert_eq!(outcomes.len(), expected.len());
    for (i, (wire_outcome, lib_outcome)) in outcomes.iter().zip(&expected).enumerate() {
        assert_eq!(
            *wire_outcome,
            wire::encode_decision(lib_outcome),
            "request {i}: wire and library disagree"
        );
    }

    // One delta → re-decide cycle: the standing requests replay against the mutated
    // database on both sides of the wire.
    let delta = Delta::new()
        .insert(
            "R",
            CTuple::of_terms([Term::constant(0), Term::constant(1)]),
        )
        .retract("R", 0);
    let expected_redecision = session
        .redecide_all(&db, &delta, &requests)
        .expect("library delta applies");
    let delta_body = Json::Object(vec![
        ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
        ("delta".into(), wire::encode_delta(&delta)),
    ]);
    let response = client::post_json(addr, &format!("/v1/databases/{db_id}/delta"), &delta_body)
        .expect("delta reachable");
    assert_eq!(response.status, 200, "delta: {}", response.body);
    let redecided = response.json().expect("delta body is JSON");
    // No subscription: the delta still goes through the session's (empty) standing
    // set, which re-decides and skips nothing.
    assert_reply_fields(
        &redecided,
        &[
            ("noop", Json::Bool(false)),
            ("redecided", Json::Int(0)),
            ("skipped", Json::Int(0)),
        ],
        "unsubscribed delta",
    );
    let redecided = redecided
        .get("outcomes")
        .and_then(Json::as_array)
        .expect("delta body has outcomes");
    assert_eq!(redecided.len(), expected_redecision.outcomes.len());
    for (i, (wire_outcome, lib_outcome)) in redecided
        .iter()
        .zip(&expected_redecision.outcomes)
        .enumerate()
    {
        assert_eq!(
            *wire_outcome,
            wire::encode_decision(lib_outcome),
            "standing request {i} after delta: wire and library disagree"
        );
    }

    // Typed refusals on the same live server: malformed JSON is a 400 with an error
    // body, an oversized body a 413 — and the server keeps serving afterwards.
    let bad = client::request(addr, "POST", "/v1/databases", &[], "{oops").expect("400 reachable");
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.json().unwrap().get("error").is_some());
    let huge = "x".repeat(2 << 20);
    let too_big =
        client::request(addr, "POST", "/v1/databases", &[], &huge).expect("413 reachable");
    assert_eq!(too_big.status, 413, "{}", too_big.body);
    let health = client::get(addr, "/healthz").expect("healthz reachable");
    assert_eq!(health.status, 200);

    // Graceful shutdown: the 200 acknowledges the drain; a late client inside the
    // lame-duck window gets a typed 503 with Retry-After; join() returns.
    let drain = client::post_json(
        addr,
        "/v1/shutdown",
        &Json::Object(vec![(
            "schema_version".into(),
            Json::Int(wire::SCHEMA_VERSION),
        )]),
    )
    .expect("shutdown reachable");
    assert_eq!(drain.status, 200, "{}", drain.body);
    let late = client::get(addr, "/healthz").expect("late client answered");
    assert_eq!(late.status, 503, "{}", late.body);
    assert_eq!(
        late.json()
            .unwrap()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("shutting-down")
    );
    assert!(late.header("retry-after").is_some());
    server.join();
}

#[test]
fn over_capacity_clients_are_shed_with_429_not_hangs() {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(5),
        lame_duck: Duration::from_secs(2),
        ..quiet_config()
    };
    let server = Server::start(config).expect("server starts");
    let addr = server.local_addr();

    // Occupy the single worker: a connection that sends only half a request keeps
    // the worker blocked in its (timed) read.
    let mut stalled_worker = TcpStream::connect(addr).expect("first client connects");
    stalled_worker
        .write_all(b"POST /healthz HTTP/1.1\r\n")
        .expect("partial request sent");
    std::thread::sleep(Duration::from_millis(300));

    // Fill the depth-1 admission queue with a second stalled connection.
    let mut stalled_queue = TcpStream::connect(addr).expect("second client connects");
    stalled_queue
        .write_all(b"POST /healthz HTTP/1.1\r\n")
        .expect("partial request sent");
    std::thread::sleep(Duration::from_millis(300));

    // The third client must be refused now — a typed 429 with Retry-After, not a
    // queue slot and not a hang.
    let shed = client::get(addr, "/healthz").expect("over-capacity client answered");
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert_eq!(
        shed.json()
            .unwrap()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("overloaded")
    );
    assert!(shed.header("retry-after").is_some());

    // Release the stalled connections; the worker unblocks and drains the queue.
    drop(stalled_worker);
    drop(stalled_queue);
    std::thread::sleep(Duration::from_millis(200));
    let health = client::get(addr, "/healthz").expect("healthz reachable after the squeeze");
    assert_eq!(health.status, 200, "{}", health.body);

    server.shutdown();
    server.join();
}

#[test]
fn a_bad_delta_leaves_a_subscribed_database_unchanged() {
    let workload = flip_heavy_stream(4, 4, 8, 3);
    let db = workload.base.clone();
    let (library_requests, wire_requests): (Vec<_>, Vec<_>) = workload
        .requests
        .iter()
        .map(|r| {
            let view = View::identity(db.clone());
            let facts = wire::encode_instance(&r.facts);
            match r.problem {
                StreamProblem::Possibility => (
                    batch::DecisionRequest::Possibility {
                        view,
                        facts: r.facts.clone(),
                    },
                    request_json("possibility", "facts", facts),
                ),
                StreamProblem::Certainty => (
                    batch::DecisionRequest::Certainty {
                        view,
                        facts: r.facts.clone(),
                    },
                    request_json("certainty", "facts", facts),
                ),
            }
        })
        .unzip();
    let mut library = server_session();
    let _ = library.register_standing(&db, &library_requests);

    let server = Server::start(quiet_config()).expect("server starts");
    let addr = server.local_addr();
    let id = register(addr, &db);
    let _ = subscribe(addr, id, wire_requests);
    let stats = |addr| {
        let response =
            client::get(addr, &format!("/v1/databases/{id}/stats")).expect("stats reachable");
        response.json().expect("stats reply is JSON")
    };
    let before = stats(addr);

    // A retraction past the end of a table: `apply` rejects it, so nothing moves.
    let bad = Delta::new().retract(db.tables()[0].name(), 99);
    let (status, reply) = post_delta(addr, id, &bad);
    assert_eq!(status, 400, "{reply}");
    let code = reply.get("error").and_then(|e| e.get("code"));
    assert_eq!(code.and_then(Json::as_str), Some("bad-delta"));
    let after = stats(addr);
    for field in [
        "deltas_applied",
        "flips_emitted",
        "subscribed_requests",
        "window",
        "window_pending",
        "memo",
    ] {
        assert_eq!(
            after.get(field),
            before.get(field),
            "a rejected delta changed '{field}'"
        );
    }

    // The valid stream that follows answers exactly like the library, which never saw
    // the bad delta: flips, their sequence numbers, redecided and skipped alike.
    let mut flips_sent = 0;
    for (i, delta) in workload.deltas.iter().enumerate() {
        let update = library.push_delta(delta).expect("stream deltas apply");
        let (status, reply) = post_delta(addr, id, delta);
        assert_eq!(status, 200, "delta {i}: {reply}");
        let expected = expected_delta_reply(update.change.is_noop(), &[], &update, flips_sent);
        assert_reply_fields(&reply, &expected, &format!("delta {i}"));
        flips_sent += update.flips.len() as u64;
    }
    assert!(flips_sent > 0, "the flip-heavy stream flips");
    server.shutdown();
    server.join();
}

#[test]
fn legacy_standing_and_a_subscription_share_one_apply() {
    let db = CDatabase::new([
        random_ctable("R", &params(41)),
        random_gtable("S", &params(42)),
    ]);
    let right = CDatabase::new([
        random_ctable("R", &params(51)),
        random_gtable("S", &params(52)),
    ]);
    let yes = member_instance(&db, &params(61));
    let no = non_member_instance(&db, &params(62));
    let legacy = |db: &CDatabase| {
        vec![
            batch::DecisionRequest::Membership {
                view: View::identity(db.clone()),
                instance: yes.clone(),
            },
            batch::DecisionRequest::Containment {
                left: View::identity(db.clone()),
                right: View::identity(right.clone()),
            },
            batch::DecisionRequest::Certainty {
                view: View::identity(db.clone()),
                facts: yes.clone(),
            },
        ]
    };
    let subscribed = vec![
        batch::DecisionRequest::Possibility {
            view: View::identity(db.clone()),
            facts: no.clone(),
        },
        batch::DecisionRequest::Certainty {
            view: View::identity(db.clone()),
            facts: yes.clone(),
        },
    ];
    let mut library = server_session();
    let _ = library.decide_all(&legacy(&db));
    let _ = library.register_standing(&db, &subscribed);

    let server = Server::start(quiet_config()).expect("server starts");
    let addr = server.local_addr();
    let id = register(addr, &db);
    let right_id = register(addr, &right);
    let decide = versioned(vec![
        ("standing", Json::Bool(true)),
        (
            "requests",
            Json::Array(vec![
                request_json("membership", "instance", wire::encode_instance(&yes)),
                request_json("containment", "right", Json::Int(right_id as i64)),
                request_json("certainty", "facts", wire::encode_instance(&yes)),
            ]),
        ),
    ]);
    let response = client::post_json(addr, &format!("/v1/databases/{id}/decide"), &decide)
        .expect("decide reachable");
    assert_eq!(response.status, 200, "decide: {}", response.body);
    let _ = subscribe(
        addr,
        id,
        vec![
            request_json("possibility", "facts", wire::encode_instance(&no)),
            request_json("certainty", "facts", wire::encode_instance(&yes)),
        ],
    );

    // Inserts, retractions and a no-op: each reply carries the legacy replay and the
    // subscription's flips, from one apply on the server and two on the library.
    let first = db.tables()[0].tuples()[0].clone();
    let deltas = [
        Delta::new().retract("R", 0),
        Delta::new().insert("R", first),
        Delta::new(),
        Delta::new()
            .insert(
                "S",
                CTuple::of_terms([Term::constant(0), Term::constant(1)]),
            )
            .retract("R", 0),
    ];
    let (mut prev, mut flips_sent) = (db.clone(), 0);
    for (i, delta) in deltas.iter().enumerate() {
        let redecision = library
            .redecide_all(&prev, delta, &legacy(&prev))
            .expect("library delta applies");
        let update = library.push_delta(delta).expect("library delta applies");
        let (status, reply) = post_delta(addr, id, delta);
        assert_eq!(status, 200, "delta {i}: {reply}");
        let expected = expected_delta_reply(
            redecision.change.is_noop(),
            &redecision.outcomes,
            &update,
            flips_sent,
        );
        assert_reply_fields(&reply, &expected, &format!("delta {i}"));
        flips_sent += update.flips.len() as u64;
        prev = redecision.db;
    }
    server.shutdown();
    server.join();
}
