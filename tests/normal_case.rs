//! Integration tests: normal-case transaction processing (no faults).

use vsr_app::{bank, counter, kv, reservation};
use vsr_core::cohort::{AbortReason, TxnOutcome};
use vsr_core::messages::CallRefusal;
use vsr_core::module::NullModule;
use vsr_core::types::{GroupId, Mid};
use vsr_sim::world::{World, WorldBuilder};

const CLIENT: GroupId = GroupId(1);
const SERVER: GroupId = GroupId(2);
const SERVER2: GroupId = GroupId(3);

fn counter_world(seed: u64) -> World {
    WorldBuilder::new(seed)
        .group(CLIENT, &[Mid(10), Mid(11), Mid(12)], || Box::new(NullModule))
        .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(vsr_app::counter::CounterModule))
        .build()
}

fn committed_results(world: &World, req: u64) -> Vec<Vec<u8>> {
    match &world.result(req).expect("completed").outcome {
        TxnOutcome::Committed { results } => results.clone(),
        other => panic!("expected commit, got {other:?}"),
    }
}

#[test]
fn single_increment_commits() {
    let mut world = counter_world(1);
    let req = world.submit(CLIENT, vec![counter::incr(SERVER, 0, 5)]);
    world.run_for(2_000);
    let results = committed_results(&world, req);
    assert_eq!(counter::decode_value(&results[0]).unwrap(), 5);
    world.verify().unwrap();
}

#[test]
fn sequential_increments_accumulate() {
    let mut world = counter_world(2);
    for i in 1..=10u64 {
        let req = world.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
        world.run_for(2_000);
        let results = committed_results(&world, req);
        assert_eq!(counter::decode_value(&results[0]).unwrap(), i);
    }
    world.verify().unwrap();
}

#[test]
fn multi_call_transaction_single_group() {
    let mut world = counter_world(3);
    let req = world.submit(
        CLIENT,
        vec![counter::incr(SERVER, 0, 2), counter::incr(SERVER, 1, 3), counter::read(SERVER, 0)],
    );
    world.run_for(2_000);
    let results = committed_results(&world, req);
    assert_eq!(results.len(), 3);
    assert_eq!(counter::decode_value(&results[2]).unwrap(), 2, "reads own write");
    world.verify().unwrap();
}

#[test]
fn read_only_transaction_commits_without_phase_two() {
    let mut world = counter_world(4);
    let w = world.submit(CLIENT, vec![counter::incr(SERVER, 0, 7)]);
    world.run_for(2_000);
    committed_results(&world, w);
    let msgs_before = world.metrics().msgs.get("commit").copied().unwrap_or(0);
    let r = world.submit(CLIENT, vec![counter::read(SERVER, 0)]);
    world.run_for(2_000);
    let results = committed_results(&world, r);
    assert_eq!(counter::decode_value(&results[0]).unwrap(), 7);
    let msgs_after = world.metrics().msgs.get("commit").copied().unwrap_or(0);
    assert_eq!(
        msgs_before, msgs_after,
        "a read-only transaction sends no phase-two commit messages"
    );
    world.verify().unwrap();
}

#[test]
fn cross_group_two_phase_commit() {
    let mut world = WorldBuilder::new(5)
        .group(CLIENT, &[Mid(10)], || Box::new(NullModule))
        .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(vsr_app::counter::CounterModule))
        .group(SERVER2, &[Mid(4), Mid(5), Mid(6)], || Box::new(vsr_app::counter::CounterModule))
        .build();
    let req = world.submit(CLIENT, vec![counter::incr(SERVER, 0, 1), counter::incr(SERVER2, 0, 2)]);
    world.run_for(3_000);
    let results = committed_results(&world, req);
    assert_eq!(results.len(), 2);
    // Both groups observed the commit.
    let follow = world.submit(CLIENT, vec![counter::read(SERVER, 0), counter::read(SERVER2, 0)]);
    world.run_for(3_000);
    let results = committed_results(&world, follow);
    assert_eq!(counter::decode_value(&results[0]).unwrap(), 1);
    assert_eq!(counter::decode_value(&results[1]).unwrap(), 2);
    world.verify().unwrap();
}

#[test]
fn bank_transfer_conserves_money() {
    let mut world = WorldBuilder::new(6)
        .group(CLIENT, &[Mid(10)], || Box::new(NullModule))
        .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || {
            Box::new(bank::BankModule::with_accounts(vec![(0, 100), (1, 100)]))
        })
        .group(SERVER2, &[Mid(4), Mid(5), Mid(6)], || {
            Box::new(bank::BankModule::with_accounts(vec![(0, 100)]))
        })
        .build();
    let req =
        world.submit(CLIENT, vec![bank::withdraw(SERVER, 0, 30), bank::deposit(SERVER2, 0, 30)]);
    world.run_for(3_000);
    committed_results(&world, req);
    let audit =
        world.submit(CLIENT, vec![bank::audit(SERVER, &[0, 1]), bank::audit(SERVER2, &[0])]);
    world.run_for(3_000);
    let results = committed_results(&world, audit);
    let total =
        bank::decode_balance(&results[0]).unwrap() + bank::decode_balance(&results[1]).unwrap();
    assert_eq!(total, 300, "money conserved");
    let balances = world.submit(CLIENT, vec![bank::balance(SERVER, 0)]);
    world.run_for(3_000);
    let results = committed_results(&world, balances);
    assert_eq!(bank::decode_balance(&results[0]).unwrap(), 70);
    world.verify().unwrap();
}

#[test]
fn application_error_aborts_transaction() {
    let mut world = WorldBuilder::new(7)
        .group(CLIENT, &[Mid(10)], || Box::new(NullModule))
        .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || {
            Box::new(bank::BankModule::with_accounts(vec![(0, 10)]))
        })
        .build();
    let req = world.submit(CLIENT, vec![bank::withdraw(SERVER, 0, 11)]);
    world.run_for(3_000);
    match &world.result(req).unwrap().outcome {
        TxnOutcome::Aborted {
            reason: AbortReason::CallRefused { refusal: CallRefusal::Application(msg), .. },
        } => assert!(msg.contains("insufficient")),
        other => panic!("expected application abort, got {other:?}"),
    }
    // The failed withdrawal must not have changed the balance.
    let check = world.submit(CLIENT, vec![bank::balance(SERVER, 0)]);
    world.run_for(3_000);
    let results = committed_results(&world, check);
    assert_eq!(bank::decode_balance(&results[0]).unwrap(), 10);
    world.verify().unwrap();
}

#[test]
fn earlier_call_effects_rolled_back_on_later_failure() {
    // First call succeeds (deposit), second fails (overdraw): the whole
    // transaction aborts and the deposit must not persist.
    let mut world = WorldBuilder::new(8)
        .group(CLIENT, &[Mid(10)], || Box::new(NullModule))
        .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || {
            Box::new(bank::BankModule::with_accounts(vec![(0, 10), (1, 10)]))
        })
        .build();
    let req =
        world.submit(CLIENT, vec![bank::deposit(SERVER, 0, 5), bank::withdraw(SERVER, 1, 999)]);
    world.run_for(3_000);
    assert!(matches!(world.result(req).unwrap().outcome, TxnOutcome::Aborted { .. }));
    let check = world.submit(CLIENT, vec![bank::audit(SERVER, &[0, 1])]);
    world.run_for(3_000);
    let results = committed_results(&world, check);
    assert_eq!(bank::decode_balance(&results[0]).unwrap(), 20, "deposit rolled back");
    world.verify().unwrap();
}

#[test]
fn reservations_never_oversell() {
    let mut world = WorldBuilder::new(9)
        .group(CLIENT, &[Mid(10)], || Box::new(NullModule))
        .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || {
            Box::new(reservation::ReservationModule::with_flights(vec![(1, 3)]))
        })
        .build();
    let mut committed = 0;
    for _ in 0..5 {
        let req = world.submit(CLIENT, vec![reservation::reserve(SERVER, 1, 1)]);
        world.run_for(2_000);
        if matches!(world.result(req).unwrap().outcome, TxnOutcome::Committed { .. }) {
            committed += 1;
        }
    }
    assert_eq!(committed, 3, "exactly capacity bookings commit");
    world.verify().unwrap();
}

#[test]
fn kv_round_trip() {
    let mut world = WorldBuilder::new(10)
        .group(CLIENT, &[Mid(10)], || Box::new(NullModule))
        .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(kv::KvModule))
        .build();
    let put = world.submit(CLIENT, vec![kv::put(SERVER, 7, b"value-7")]);
    world.run_for(2_000);
    committed_results(&world, put);
    let get = world.submit(CLIENT, vec![kv::get(SERVER, 7)]);
    world.run_for(2_000);
    let results = committed_results(&world, get);
    assert_eq!(kv::decode_get(&results[0]).unwrap(), Some(b"value-7".to_vec()));
    let del = world.submit(CLIENT, vec![kv::delete(SERVER, 7)]);
    world.run_for(2_000);
    committed_results(&world, del);
    let get2 = world.submit(CLIENT, vec![kv::get(SERVER, 7)]);
    world.run_for(2_000);
    let results = committed_results(&world, get2);
    assert_eq!(kv::decode_get(&results[0]).unwrap(), None);
    world.verify().unwrap();
}

#[test]
fn empty_transaction_commits_trivially() {
    let mut world = counter_world(11);
    let req = world.submit(CLIENT, vec![]);
    world.run_for(500);
    let results = committed_results(&world, req);
    assert!(results.is_empty());
    world.verify().unwrap();
}

#[test]
fn concurrent_transactions_on_disjoint_objects() {
    let mut world = counter_world(12);
    let a = world.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
    let b = world.submit(CLIENT, vec![counter::incr(SERVER, 1, 1)]);
    let c = world.submit(CLIENT, vec![counter::incr(SERVER, 2, 1)]);
    world.run_for(3_000);
    for req in [a, b, c] {
        committed_results(&world, req);
    }
    world.verify().unwrap();
}

#[test]
fn conflicting_transactions_serialize() {
    // Two concurrent increments of the same counter: the second must see
    // the first's effect (no lost update).
    let mut world = counter_world(13);
    let a = world.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
    let b = world.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
    world.run_for(5_000);
    let ra = committed_results(&world, a);
    let rb = committed_results(&world, b);
    let va = counter::decode_value(&ra[0]).unwrap();
    let vb = counter::decode_value(&rb[0]).unwrap();
    let mut vals = [va, vb];
    vals.sort_unstable();
    assert_eq!(vals, [1, 2], "increments serialized, no lost update");
    world.verify().unwrap();
}

#[test]
fn normal_case_runs_are_deterministic() {
    let run = |seed| {
        let mut world = counter_world(seed);
        for _ in 0..5 {
            world.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
            world.run_for(1_000);
        }
        (
            world.metrics().total_msgs(),
            world.metrics().committed,
            world.metrics().commit_latency.clone(),
        )
    };
    assert_eq!(run(99), run(99));
}

#[test]
fn serial_increments_leave_no_participant_statuses() {
    // Each commit's record retires the participant's status as it is
    // applied (DESIGN §14): after 200 serial increments every server
    // cohort holds no status at all, and consecutive finished aids fold
    // into one run, so the snapshotted state stops growing with commits.
    // A one-group increment commits in one phase, so that run is a
    // one-phase run: kept until the coordinator's horizon passes it, but
    // still one entry.
    let mut world = counter_world(25);
    for i in 1..=200u64 {
        let req = world.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
        world.run_for(200);
        let results = committed_results(&world, req);
        assert_eq!(counter::decode_value(&results[0]).unwrap(), i);
    }
    world.run_for(2_000);
    for &mid in world.members_of(SERVER) {
        let gstate = world.cohort(mid).gstate();
        assert_eq!(gstate.status_count(), 0, "{mid} holds statuses");
        assert_eq!(gstate.finished_runs(), 0, "{mid}: no two-phase outcomes");
        assert_eq!(gstate.one_phase_runs().count(), 1, "{mid}: one run of consecutive aids");
        assert!(gstate.pending_txns().next().is_none(), "{mid}: nothing pending");
    }
    world.verify().unwrap();
}
