//! Incremental re-decision end to end: the delta layer (`pw_core::CDatabase::apply`),
//! the engine's per-group decision memo, and the batch session's `redecide_all` —
//! exercised through the facade crate on the edge cases the subsystem must get right:
//!
//! * an **empty delta** replays every group from the memo (no new search work);
//! * **retracting the last row of a shard** leaves an empty shard whose group goes
//!   dirty, and the re-decision still matches a from-scratch decide;
//! * a delta that **couples two previously independent groups** merges them in the
//!   incremental coupling graph and invalidates both memo entries;
//! * the condition-satisfiability cache retains its entries across deltas (untouched
//!   conditions are never re-solved).

use possible_worlds::core::{CDatabase, Delta, View};
use possible_worlds::decide::batch::{DecisionRequest, Session};
use possible_worlds::decide::{Budget, EngineConfig};
use possible_worlds::prelude::*;
use possible_worlds::workloads::{
    coupling_delta, decoupled_multirelation, flip_sparse_stream, member_instance, mutation_stream,
    non_member_instance, single_shard_delta, StreamProblem, TableParams,
};
use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig};

fn params(seed: u64) -> TableParams {
    TableParams {
        rows: 3,
        arity: 2,
        constants: 3,
        null_density: 0.4,
        seed,
    }
}

/// Standing requests covering all five problems against `db`.
fn requests_for(db: &CDatabase, member: &Instance, other: &Instance) -> Vec<DecisionRequest> {
    let view = View::identity(db.clone());
    vec![
        DecisionRequest::Membership {
            view: view.clone(),
            instance: member.clone(),
        },
        DecisionRequest::Membership {
            view: view.clone(),
            instance: other.clone(),
        },
        DecisionRequest::Possibility {
            view: view.clone(),
            facts: member.clone(),
        },
        DecisionRequest::Certainty {
            view: view.clone(),
            facts: member.clone(),
        },
        DecisionRequest::Uniqueness {
            view: view.clone(),
            instance: member.clone(),
        },
        DecisionRequest::Containment {
            left: view.clone(),
            right: view,
        },
    ]
}

fn answers(
    outcomes: &[possible_worlds::decide::DecisionOutcome],
) -> Vec<(Result<bool, DecisionError>, Strategy)> {
    outcomes
        .iter()
        .map(|o| (o.answer.clone(), o.strategy))
        .collect()
}

#[test]
fn empty_delta_replays_every_group_from_the_memo() {
    let base = decoupled_multirelation(4, &params(11));
    let member = member_instance(&base, &params(11));
    let non_member = non_member_instance(&base, &params(11));
    let session = Session::sized(&EngineConfig::sequential(Budget(5_000_000)), 6);
    let first = session.decide_all(&requests_for(&base, &member, &non_member));

    let stats_before = session.engine().memo_stats();
    let redecision = session
        .redecide_all(
            &base,
            &Delta::new(),
            &requests_for(&base, &member, &non_member),
        )
        .expect("the empty delta applies");
    let stats_after = session.engine().memo_stats();

    assert!(redecision.change.is_noop());
    assert!(redecision.change.dirty_groups.is_empty());
    // The new database shares the table allocation with the old one.
    assert!(std::ptr::eq(
        base.tables().as_ptr(),
        redecision.db.tables().as_ptr()
    ));
    assert_eq!(answers(&first), answers(&redecision.outcomes));
    // Every per-group verdict replayed: the memo saw hits but not a single new miss —
    // no group search ran at all.
    assert_eq!(
        stats_after.misses, stats_before.misses,
        "an empty delta must not re-search any group"
    );
    assert!(stats_after.hits > stats_before.hits);
}

#[test]
fn retracting_the_last_row_of_a_shard_keeps_answers_fresh() {
    let base = decoupled_multirelation(4, &params(23));
    let member = member_instance(&base, &params(23));
    let non_member = non_member_instance(&base, &params(23));
    let cfg = EngineConfig::sequential(Budget(5_000_000));
    let session = Session::sized(&cfg, 6);
    let _ = session.decide_all(&requests_for(&base, &member, &non_member));

    // Empty out shard 2 row by row (3 rows in the generator parameters).
    let rows = base.tables()[2].len();
    let shard = base.tables()[2].name().to_owned();
    let mut delta = Delta::new();
    for _ in 0..rows {
        delta = delta.retract(shard.clone(), 0);
    }
    let redecision = session
        .redecide_all(&base, &delta, &requests_for(&base, &member, &non_member))
        .expect("retractions apply");
    assert!(redecision.db.table(&shard).unwrap().is_empty());
    assert_eq!(
        redecision.db.shard_groups().len(),
        4,
        "an emptied table is still a shard with its own group"
    );
    assert_eq!(redecision.change.dirty_groups, vec![2]);

    // Bit-identical to a from-scratch decide of the mutated database.
    let (fresh_db, _) = base.apply(&delta).unwrap();
    let fresh = possible_worlds::decide::batch::decide_all_with(
        &requests_for(&fresh_db, &member, &non_member),
        &cfg,
    );
    assert_eq!(answers(&redecision.outcomes), answers(&fresh));
    // The incremental coupling graph agrees with a fresh build.
    let rebuilt = CDatabase::new(redecision.db.tables().iter().cloned());
    assert_eq!(
        rebuilt.shard_group_index(),
        redecision.db.shard_group_index()
    );
}

#[test]
fn a_coupling_delta_merges_groups_and_invalidates_both_memos() {
    let base = decoupled_multirelation(4, &params(37));
    let member = member_instance(&base, &params(37));
    let non_member = non_member_instance(&base, &params(37));
    let cfg = EngineConfig::sequential(Budget(5_000_000));
    let session = Session::sized(&cfg, 6);
    let _ = session.decide_all(&requests_for(&base, &member, &non_member));

    let delta = coupling_delta(&base, 1, 3);
    let stats_before = session.engine().memo_stats();
    let redecision = session
        .redecide_all(&base, &delta, &requests_for(&base, &member, &non_member))
        .expect("the coupling delta applies");
    let stats_after = session.engine().memo_stats();

    assert_eq!(redecision.change.groups_before, 4);
    assert_eq!(redecision.change.groups_after, 3);
    assert_eq!(
        redecision.change.dirty_groups.len(),
        1,
        "the merged pair is one dirty group"
    );
    let merged = &redecision.db.shard_groups()[redecision.change.dirty_groups[0]];
    assert_eq!(merged.members(), &[1, 3], "groups 1 and 3 merged");
    assert!(
        stats_after.misses > stats_before.misses,
        "the merged group's verdicts cannot replay — both constituents invalidated"
    );

    // Answers match a from-scratch decide *and* the forced joint search.
    let (fresh_db, _) = base.apply(&delta).unwrap();
    let fresh = possible_worlds::decide::batch::decide_all_with(
        &requests_for(&fresh_db, &member, &non_member),
        &cfg,
    );
    assert_eq!(answers(&redecision.outcomes), answers(&fresh));
    // Cross-check against the forced joint search on the search problems.  Containment
    // is left out: its joint fallback is the Π₂ᵖ enumeration over *all* variables of
    // the database, which blows the test budget — removing exactly that exponent is
    // what the per-pair decomposition is for (the equivalence itself is pinned on
    // small inputs in tests/parallel_engine.rs).
    let joint_requests: Vec<DecisionRequest> = requests_for(&fresh_db, &member, &non_member)
        .into_iter()
        .filter(|r| !matches!(r, DecisionRequest::Containment { .. }))
        .collect();
    let joint =
        possible_worlds::decide::batch::decide_all_with(&joint_requests, &cfg.without_per_shard());
    for (a, b) in redecision.outcomes.iter().zip(&joint) {
        assert_eq!(
            a.answer, b.answer,
            "per-shard answer equals the joint answer"
        );
    }
}

#[test]
fn sat_cache_entries_survive_deltas_to_other_groups() {
    let base = decoupled_multirelation(5, &params(53));
    let member = member_instance(&base, &params(53));
    let non_member = non_member_instance(&base, &params(53));
    let session = Session::sized(&EngineConfig::sequential(Budget(5_000_000)), 6);
    let _ = session.decide_all(&requests_for(&base, &member, &non_member));

    // A ground-row insertion adds no new condition anywhere: re-deciding after it must
    // not re-solve a single conjunction — every satisfiability lookup hits the cache.
    let delta = Delta::new().insert(
        base.tables()[1].name().to_owned(),
        possible_worlds::core::CTuple::of_terms([Term::constant(1), Term::constant(2)]),
    );
    let sat_before = session.engine().sat_cache().stats();
    let redecision = session
        .redecide_all(&base, &delta, &requests_for(&base, &member, &non_member))
        .expect("the insertion applies");
    let sat_after = session.engine().sat_cache().stats();
    assert_eq!(redecision.change.dirty_groups.len(), 1);
    assert_eq!(
        sat_after.misses, sat_before.misses,
        "untouched conditions are never re-solved across a delta"
    );
}

#[test]
fn memo_replayed_answers_stay_certified_across_deltas() {
    use possible_worlds::{check, check_claim};

    let base = decoupled_multirelation(4, &params(97));
    let member = member_instance(&base, &params(97));
    let non_member = non_member_instance(&base, &params(97));
    let cfg = EngineConfig::sequential(Budget(5_000_000));
    let session = Session::certifying(&cfg, 6);

    let audit = |requests: &[DecisionRequest],
                 outcomes: &[possible_worlds::decide::DecisionOutcome],
                 when: &str| {
        for (request, outcome) in requests.iter().zip(outcomes) {
            let answer = *outcome.answer.as_ref().expect("the budget is ample");
            let certificate = outcome
                .certificate
                .as_ref()
                .unwrap_or_else(|| panic!("{when}: certifying session returned no certificate"));
            check::verify(&check_claim(request, answer), certificate)
                .unwrap_or_else(|e| panic!("{when}: pw_check rejected a certificate: {e}"));
        }
    };

    let requests = requests_for(&base, &member, &non_member);
    audit(&requests, &session.decide_all(&requests), "initial decide");

    // Pure replay: the empty delta answers every group from the memo, and the memo's
    // stored certificates must still satisfy the independent checker.
    let stats_before = session.engine().memo_stats();
    let replayed = session
        .redecide_all(&base, &Delta::new(), &requests)
        .expect("the empty delta applies");
    assert_eq!(
        session.engine().memo_stats().misses,
        stats_before.misses,
        "an empty delta must not re-search any group"
    );
    audit(&requests, &replayed.outcomes, "empty-delta replay");

    // A real delta: dirty groups re-search, clean groups replay from the memo, and
    // every stitched certificate must check against the *mutated* database — the
    // re-decision answers about the post-delta views, so the claims are rebuilt.
    let delta = single_shard_delta(&base, 2);
    let redecision = session
        .redecide_all(&base, &delta, &requests)
        .expect("the single-shard delta applies");
    let post_requests = requests_for(&redecision.db, &member, &non_member);
    audit(&post_requests, &redecision.outcomes, "single-shard delta");
}

/// The requests a hygiene case asks of a database version.
type RequestsFor = Box<dyn Fn(&CDatabase) -> Vec<DecisionRequest>>;

/// One cache-hygiene input: a base database, 50 deltas, and the standing requests
/// asked after each of them.
struct HygieneCase {
    label: &'static str,
    base: CDatabase,
    deltas: Vec<Delta>,
    /// A static database containment questions point into (never mutated).
    right: Option<CDatabase>,
    /// The search budget: small where a coupled group makes containment exhaust it, so
    /// the budget-exceeded outcome arrives fast (and must match the fresh session's).
    budget: Budget,
    requests: RequestsFor,
}

/// The databases a live cache entry may be keyed by: the current value, the static
/// right-hand database, and their shard groups (compared by value).
fn is_live(candidate: &CDatabase, cur: &CDatabase, right: Option<&CDatabase>) -> bool {
    std::iter::once(cur).chain(right).any(|db| {
        candidate == db
            || db
                .shard_groups()
                .iter()
                .any(|group| group.database() == candidate)
    })
}

fn hygiene_cases() -> Vec<HygieneCase> {
    const DELTAS: usize = 50;
    let mut cases = Vec::new();

    // Single-shard deltas round-robin over the shards, each condition shed again by
    // the next delta so the tables stay the same size.
    let base = decoupled_multirelation(3, &params(71));
    let (member, non_member) = (
        member_instance(&base, &params(71)),
        non_member_instance(&base, &params(71)),
    );
    let mut cur = base.clone();
    let mut deltas = Vec::new();
    for i in 0..DELTAS {
        let delta = if i % 2 == 0 {
            single_shard_delta(&cur, (i / 2) % 3)
        } else {
            shed_first_condition(&cur, (i / 2) % 3)
        };
        cur = cur.apply(&delta).expect("single-shard deltas apply").0;
        deltas.push(delta);
    }
    cases.push(HygieneCase {
        label: "single-shard",
        base,
        deltas,
        right: None,
        budget: Budget(5_000_000),
        requests: Box::new(move |db| requests_for(db, &member, &non_member)),
    });

    // The flip-sparse stream's standing set over its own deltas.
    let stream = flip_sparse_stream(6, 4, DELTAS, 5);
    let specs = stream.requests.clone();
    cases.push(HygieneCase {
        label: "flip-sparse",
        base: stream.base,
        deltas: stream.deltas,
        right: None,
        budget: Budget(5_000_000),
        requests: Box::new(move |db| {
            specs
                .iter()
                .map(|r| match r.problem {
                    StreamProblem::Possibility => DecisionRequest::Possibility {
                        view: View::identity(db.clone()),
                        facts: r.facts.clone(),
                    },
                    StreamProblem::Certainty => DecisionRequest::Certainty {
                        view: View::identity(db.clone()),
                        facts: r.facts.clone(),
                    },
                })
                .collect()
        }),
    });

    // A mutation stream interleaved with coupling merges, each split again two deltas
    // later; containment points into a static, ground right-hand database.
    let stream = mutation_stream(8, &params(73), DELTAS);
    let right = decoupled_multirelation(
        8,
        &TableParams {
            null_density: 0.0,
            ..params(74)
        },
    );
    let (member, non_member) = (
        member_instance(&stream.base, &params(73)),
        non_member_instance(&stream.base, &params(73)),
    );
    let mut cur = stream.base.clone();
    let mut deltas = Vec::new();
    let mut stream_deltas = stream.deltas.into_iter();
    while deltas.len() < DELTAS {
        let i = deltas.len();
        let groups = cur.shard_groups();
        let delta = match i % 5 {
            1 => coupling_delta(&cur, i % groups.len(), (i + 1) % groups.len()),
            3 => groups
                .iter()
                .filter(|g| g.members().len() > 1)
                .flat_map(|g| g.members())
                .flat_map(|&p| shed_first_condition(&cur, p).ops().to_vec())
                .collect(),
            _ => stream_deltas.next().expect("enough stream deltas"),
        };
        cur = cur.apply(&delta).expect("case deltas apply in sequence").0;
        deltas.push(delta);
    }
    let rhs = right.clone();
    cases.push(HygieneCase {
        label: "mutations+coupling+static-rhs",
        base: stream.base,
        deltas,
        right: Some(right),
        budget: Budget(20_000),
        requests: Box::new(move |db| {
            let view = View::identity(db.clone());
            let mut requests = vec![
                DecisionRequest::Membership {
                    view: view.clone(),
                    instance: member.clone(),
                },
                DecisionRequest::Possibility {
                    view: view.clone(),
                    facts: non_member.clone(),
                },
                DecisionRequest::Certainty {
                    view,
                    facts: member.clone(),
                },
            ];
            requests.push(DecisionRequest::Containment {
                left: View::identity(db.clone()),
                right: View::identity(rhs.clone()),
            });
            requests
        }),
    });
    cases
}

#[test]
fn a_session_retires_caches_of_dissolved_databases() {
    for case in hygiene_cases() {
        for capacity in [None, Some(24)] {
            let mut cfg = EngineConfig::sequential(case.budget);
            if let Some(capacity) = capacity {
                cfg = cfg.with_memo_capacity(capacity);
            }
            let label = format!("{} / memo capacity {capacity:?}", case.label);
            let mut session = Session::sized(&cfg, 6);
            let requests = (case.requests)(&case.base);
            let _ = session.register_standing(&case.base, &requests);
            let baseline = session.engine().cache_footprint();

            // Roll the deltas through both re-decision paths on one session, the way a
            // served database sees them: the retired versions must be dropped, not
            // accumulated one generation per delta.
            let mut cur = case.base.clone();
            for (i, delta) in case.deltas.iter().enumerate() {
                let redecision = session
                    .redecide_all(&cur, delta, &(case.requests)(&cur))
                    .expect("case deltas apply");
                let update = session.push_delta(delta).expect("case deltas apply");
                assert!(update.db == redecision.db, "{label}: one database value");
                cur = redecision.db;

                let fresh = Session::sized(&cfg, 6).decide_all(&(case.requests)(&cur));
                assert_eq!(
                    answers(&redecision.outcomes),
                    answers(&fresh),
                    "{label}: delta {i} re-decision equals a fresh session's"
                );
                for cached in session.engine().cached_databases() {
                    assert!(
                        is_live(&cached, &cur, case.right.as_ref()),
                        "{label}: delta {i} left a cache entry keyed by a retired database"
                    );
                }
            }

            let footprint = session.engine().cache_footprint();
            let live_dbs = 1
                + cur.shard_groups().len()
                + case
                    .right
                    .as_ref()
                    .map_or(0, |r| 1 + r.shard_groups().len());
            assert!(
                footprint.memo_entries <= baseline.memo_entries + 12,
                "{label}: memo entries stay bounded ({baseline:?} → {footprint:?})"
            );
            assert!(
                footprint.memo_databases <= live_dbs && footprint.base_stores <= live_dbs,
                "{label}: the per-database index and the base stores hold live databases \
                 only ({footprint:?}, {live_dbs} live)"
            );
            assert!(
                footprint.memo_rhs_links <= footprint.memo_entries,
                "{label}: the containment index is no larger than the memo ({footprint:?})"
            );
            match capacity {
                None => assert_eq!(footprint.memo_clock, 0, "{label}: no clock when unbounded"),
                Some(capacity) => assert!(
                    footprint.memo_entries <= capacity
                        && footprint.memo_clock <= 2 * footprint.memo_entries + 64,
                    "{label}: the bounded memo and its clock stay bounded ({footprint:?})"
                ),
            }
            assert!(
                footprint.sat_entries <= 2 * baseline.sat_entries + 32,
                "{label}: the satisfiability cache stays bounded ({baseline:?} → {footprint:?})"
            );
        }
    }
}

/// Replace row 0 of the table at `position` by its terms alone: the row's condition
/// (and any coupling it carried) goes, and the row moves to the end.
fn shed_first_condition(db: &CDatabase, position: usize) -> Delta {
    let table = &db.tables()[position];
    let row = CTuple::of_terms(table.tuples()[0].terms.clone());
    Delta::new()
        .retract(table.name(), 0)
        .insert(table.name(), row)
}

/// Couple group `b` into group `a` by changing only a table of `a`: row 0 of its first
/// member is conjoined with a variable `b` already mentions.  `b`'s tables are
/// untouched, so only the coupling graph's variable → group index finds `b` dissolved.
fn one_sided_coupling(db: &CDatabase, a: usize, b: usize) -> Option<Delta> {
    let groups = db.shard_groups();
    let v = *groups[b].variables().first()?;
    let table = &db.tables()[groups[a].members()[0]];
    let condition = Conjunction::single(Atom::neq(v, -1));
    (!table.is_empty()).then(|| Delta::new().conjoin(table.name(), 0, condition))
}

/// The dissolved-groups reference `DbDelta::dirty_old` replaces: an old group is
/// dissolved iff no group of the new coupling graph holds an equal sub-database.
/// O(G²) — kept here as the oracle.
fn dissolved_by_survivor_scan(prev: &CDatabase, next: &CDatabase) -> Vec<usize> {
    prev.shard_groups()
        .iter()
        .enumerate()
        .filter(|(_, old)| {
            !next
                .shard_groups()
                .iter()
                .any(|new| new.database() == old.database())
        })
        .map(|(g, _)| g)
        .collect()
}

// Over mutation streams interleaved with coupling deltas that merge groups (changing
// both sides, or one side only) and row replacements that split merged groups again,
// the dissolved old groups `apply` reports are exactly the ones the survivor scan finds.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dirty_old_groups_equal_the_survivor_scan(
        (seed, relations, count) in (0u64..10_000, 2usize..7, 4usize..30)
    ) {
        let stream = mutation_stream(relations, &params(seed), count);
        let mut db = stream.base.clone();
        for (i, delta) in stream.deltas.iter().enumerate() {
            let groups = db.shard_groups().len();
            let mut steps = vec![delta.clone()];
            if i % 3 == 0 && groups >= 2 {
                let a = (seed as usize + i) % groups;
                steps.insert(0, coupling_delta(&db, a, (a + 1) % groups));
            }
            if i % 3 == 1 && groups >= 2 {
                let a = (seed as usize + i) % groups;
                steps.extend(one_sided_coupling(&db, a, (a + 1) % groups));
            }
            if i % 4 == 1 {
                // Shed row 0's condition in a merged group: the group may split.
                if let Some(group) = db.shard_groups().iter().find(|g| g.members().len() > 1) {
                    steps.push(shed_first_condition(&db, group.members()[0]));
                }
            }
            for step in steps {
                let (next, change) = db.apply(&step).expect("stream deltas apply in sequence");
                // The scan is only an oracle over a correct graph: the incremental graph
                // must equal a fresh build first.
                let fresh = CDatabase::new(next.tables().iter().cloned());
                prop_assert_eq!(fresh.shard_group_index(), next.shard_group_index());
                prop_assert_eq!(change.dirty_old.clone(), dissolved_by_survivor_scan(&db, &next));
                db = next;
            }
        }
    }
}
