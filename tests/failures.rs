//! Integration tests: crashes, partitions, recoveries, and view changes.

use vsr_app::counter;
use vsr_core::cohort::TxnOutcome;
use vsr_core::module::NullModule;
use vsr_core::types::{GroupId, Mid};
use vsr_sim::world::{World, WorldBuilder};

const CLIENT: GroupId = GroupId(1);
const SERVER: GroupId = GroupId(2);

const C0: Mid = Mid(10);
const C1: Mid = Mid(11);
const C2: Mid = Mid(12);
const S0: Mid = Mid(1);
const S1: Mid = Mid(2);
const S2: Mid = Mid(3);

fn world(seed: u64) -> World {
    WorldBuilder::new(seed)
        .group(CLIENT, &[C0, C1, C2], || Box::new(NullModule))
        .group(SERVER, &[S0, S1, S2], || Box::new(counter::CounterModule))
        .build()
}

fn commit_value(world: &World, req: u64) -> Option<u64> {
    match &world.result(req)?.outcome {
        TxnOutcome::Committed { results } => {
            Some(counter::decode_value(&results[0]).expect("decodes"))
        }
        _ => None,
    }
}

/// Run one increment to completion, returning its committed value.
fn increment(world: &mut World, expect_within: u64) -> Option<u64> {
    let req = world.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
    world.run_for(expect_within);
    commit_value(world, req)
}

#[test]
fn backup_crash_does_not_block_commits() {
    let mut w = world(1);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    w.crash(S2); // one backup of three: sub-majority still reachable
    assert_eq!(increment(&mut w, 2_000), Some(2));
    assert_eq!(increment(&mut w, 2_000), Some(3));
    w.recover(S2);
    w.run_for(3_000);
    w.verify().unwrap();
}

#[test]
fn primary_crash_triggers_view_change_and_service_resumes() {
    let mut w = world(2);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    let old_primary = w.primary_of(SERVER).unwrap();
    w.crash(old_primary);
    // Give the group time to detect the failure and change views.
    w.run_for(2_000);
    let new_primary = w.primary_of(SERVER).expect("a new primary forms");
    assert_ne!(new_primary, old_primary);
    // Committed state survives: the next increment sees value 2.
    assert_eq!(increment(&mut w, 4_000), Some(2));
    w.recover(old_primary);
    w.run_for(4_000);
    w.verify().unwrap();
}

#[test]
fn crashed_primary_recovers_as_backup_and_catches_up() {
    let mut w = world(3);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    let old_primary = w.primary_of(SERVER).unwrap();
    w.crash(old_primary);
    w.run_for(2_000);
    assert_eq!(increment(&mut w, 4_000), Some(2));
    w.recover(old_primary);
    w.run_for(5_000);
    // The recovered cohort must be up to date again (it received a
    // newview record with the full gstate).
    assert!(w.cohort(old_primary).is_up_to_date(), "recovered cohort caught up");
    assert_eq!(increment(&mut w, 4_000), Some(3));
    w.verify().unwrap();
}

#[test]
fn majority_crash_blocks_commits_until_recovery() {
    // Crash both backups: the primary survives with full state but
    // cannot force anything to a sub-majority, so nothing commits.
    let mut w = world(4);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    let primary = w.primary_of(SERVER).unwrap();
    let backups: Vec<Mid> = [S0, S1, S2].into_iter().filter(|&m| m != primary).collect();
    w.crash(backups[0]);
    w.crash(backups[1]);
    w.run_for(3_000);
    let req = w.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
    w.run_for(3_000);
    assert!(
        commit_value(&w, req).is_none()
            || matches!(w.result(req).unwrap().outcome, TxnOutcome::Aborted { .. }),
        "no commit without a majority"
    );
    // Recovering one backup restores a majority. The crashed backup's
    // acceptance carries the same viewid as the surviving primary's, and
    // the primary of that view accepts normally — formation rule (3).
    w.recover(backups[0]);
    w.run_for(8_000);
    assert!(w.primary_of(SERVER).is_some(), "majority restored, view forms");
    assert_eq!(increment(&mut w, 8_000), Some(2));
    w.recover(backups[1]);
    w.run_for(3_000);
    w.verify().unwrap();
}

#[test]
fn partitioned_minority_primary_cannot_commit() {
    // Experiment E12's scenario: the old primary keeps running in a
    // minority partition. "The old primary will not be able to prepare
    // and commit user transactions, however, since it cannot force their
    // effects to the backups" (Section 4.1).
    let mut w = world(5);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    let old_primary = w.primary_of(SERVER).unwrap();
    let others: Vec<Mid> = [S0, S1, S2].into_iter().filter(|&m| m != old_primary).collect();
    // Isolate the old server primary (clients stay with the majority).
    let majority_side: Vec<Mid> = [C0, C1, C2].into_iter().chain(others.iter().copied()).collect();
    w.partition(&[vec![old_primary], majority_side]);
    w.run_for(3_000);
    // The majority side forms a new view and keeps committing.
    let new_primary = w.primary_of(SERVER).expect("majority side re-forms");
    assert_ne!(new_primary, old_primary);
    assert_eq!(increment(&mut w, 5_000), Some(2));
    w.heal();
    w.run_for(5_000);
    assert_eq!(increment(&mut w, 5_000), Some(3));
    w.verify().unwrap();
}

#[test]
fn committed_transactions_survive_view_changes() {
    let mut w = world(6);
    for expected in 1..=3u64 {
        assert_eq!(increment(&mut w, 3_000), Some(expected));
    }
    // Crash the primary; committed value 3 must survive into the new
    // view ("transactions … that committed will still be committed").
    let p = w.primary_of(SERVER).unwrap();
    w.crash(p);
    w.run_for(2_500);
    assert_eq!(increment(&mut w, 5_000), Some(4));
    w.recover(p);
    w.run_for(4_000);
    w.verify().unwrap();
}

#[test]
fn client_group_primary_crash_aborts_open_transactions() {
    let mut w = world(7);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    let client_primary = w.primary_of(CLIENT).unwrap();
    // Submit and immediately crash the coordinator before it can finish.
    let req = w.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
    w.crash(client_primary);
    w.run_for(6_000);
    // The client group re-forms and serves new transactions.
    w.recover(client_primary);
    w.run_for(4_000);
    assert!(w.primary_of(CLIENT).is_some());
    // The interrupted transaction either committed before the crash or
    // was aborted by it — never half-done. The next increments observe a
    // consistent counter.
    let probe = w.submit(CLIENT, vec![counter::read(SERVER, 0)]);
    w.run_for(3_000);
    let value = commit_value(&w, probe).expect("probe commits");
    assert!(value == 1 || value == 2, "counter is 1 (aborted) or 2 (committed), got {value}");
    let _ = req;
    w.verify().unwrap();
}

#[test]
fn repeated_primary_crashes_never_lose_commits() {
    let mut w = world(8);
    let mut expected = 0u64;
    for round in 0..3 {
        expected += 1;
        assert_eq!(increment(&mut w, 5_000), Some(expected), "round {round}");
        let p = w.primary_of(SERVER).unwrap();
        w.crash(p);
        w.run_for(2_500);
        w.recover(p);
        w.run_for(4_000);
    }
    expected += 1;
    assert_eq!(increment(&mut w, 5_000), Some(expected));
    w.verify().unwrap();
}

#[test]
fn view_change_observed_in_metrics() {
    let mut w = world(9);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    let formations_before = w.metrics().view_formations;
    let p = w.primary_of(SERVER).unwrap();
    w.crash(p);
    w.run_for(3_000);
    assert!(w.metrics().view_formations > formations_before, "a view formation was recorded");
    w.recover(p);
    w.run_for(3_000);
    w.verify().unwrap();
}

#[test]
fn full_group_crash_and_recovery_is_a_catastrophe_without_survivors() {
    // All three server cohorts crash simultaneously: every acceptance
    // after recovery is "crashed", so no view can ever form
    // (Section 4.2).
    let mut w = world(10);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    w.crash(S0);
    w.crash(S1);
    w.crash(S2);
    w.run_for(500);
    w.recover(S0);
    w.recover(S1);
    w.recover(S2);
    w.run_for(10_000);
    assert!(w.primary_of(SERVER).is_none(), "no view can form after total state loss");
    let req = w.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
    w.run_for(5_000);
    assert!(
        !matches!(w.result(req).map(|r| &r.outcome), Some(TxnOutcome::Committed { .. })),
        "nothing commits after a catastrophe"
    );
}

#[test]
fn backups_crash_and_recover_around_surviving_primary() {
    // Crash both backups; the primary keeps its state. After recovery the
    // crashed acceptances carry the primary's own viewid and the primary
    // accepts normally, so formation rule (3) admits the view.
    let mut w = world(11);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    let primary = w.primary_of(SERVER).unwrap();
    let backups: Vec<Mid> = [S0, S1, S2].into_iter().filter(|&m| m != primary).collect();
    w.crash(backups[0]);
    w.crash(backups[1]);
    w.run_for(1_000);
    w.recover(backups[0]);
    w.recover(backups[1]);
    w.run_for(10_000);
    assert!(w.primary_of(SERVER).is_some(), "view re-forms around the survivor");
    assert_eq!(increment(&mut w, 8_000), Some(2), "state survived");
    w.verify().unwrap();
}

#[test]
fn majority_crash_including_primary_is_conservative_catastrophe() {
    // The Section 4 A/B/C scenario, taken to its conclusion: if the
    // primary and one backup crash (losing volatile state), the surviving
    // backup alone cannot prove it knows all forced events — an event may
    // have been forced to the crashed backup only. The formation rule
    // refuses forever, even after the crashed cohorts recover:
    // crash-viewid equals normal-viewid and the primary of that view
    // accepted crashed.
    let mut w = world(14);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    let primary = w.primary_of(SERVER).unwrap();
    let backups: Vec<Mid> = [S0, S1, S2].into_iter().filter(|&m| m != primary).collect();
    w.crash(primary);
    w.crash(backups[0]);
    w.run_for(1_000);
    w.recover(primary);
    w.recover(backups[0]);
    w.run_for(15_000);
    assert!(
        w.primary_of(SERVER).is_none(),
        "no view forms when knowledge of forced events cannot be proven"
    );
}

#[test]
fn lossy_network_still_makes_progress() {
    let mut w = WorldBuilder::new(12)
        .net(vsr_simnet::NetConfig::lossy(12))
        .group(CLIENT, &[C0, C1, C2], || Box::new(NullModule))
        .group(SERVER, &[S0, S1, S2], || Box::new(counter::CounterModule))
        .build();
    let mut committed = 0u64;
    for _ in 0..10 {
        let req = w.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
        w.run_for(5_000);
        if commit_value(&w, req).is_some() {
            committed += 1;
        }
    }
    assert!(committed >= 5, "most transactions commit despite loss ({committed}/10)");
    w.run_for(10_000);
    w.verify().unwrap();
}

#[test]
fn random_fault_sweep_preserves_invariants() {
    use vsr_sim::fault::FaultPlan;
    for seed in 0..5u64 {
        let mut w = world(100 + seed);
        let server_mids = [S0, S1, S2];
        let plan = FaultPlan::random(seed, &server_mids, 1_000, 15_000, 8, 1, true);
        plan.apply(&mut w);
        for i in 0..20 {
            w.schedule_submit(500 + i * 800, CLIENT, vec![counter::incr(SERVER, i % 3, 1)]);
        }
        w.run_until(40_000);
        w.verify().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Liveness: after all faults heal, the system commits again.
        let req = w.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
        w.run_for(8_000);
        assert!(
            matches!(w.result(req).map(|r| &r.outcome), Some(TxnOutcome::Committed { .. })),
            "seed {seed}: system recovered"
        );
        w.verify().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn one_way_loss_of_primary_outbound_replaces_it_without_split_brain() {
    // Asymmetric failure: the primary can still *hear* the group but
    // none of its own messages get out. The backups stop receiving
    // heartbeats, suspect it, and must form a new view among
    // themselves; the old primary — which keeps receiving invitations
    // and newview messages on its working inbound path — must follow
    // the majority rather than linger as a split-brain primary.
    let mut w = world(21);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    let old_primary = w.primary_of(SERVER).unwrap();
    let others: Vec<Mid> = [S0, S1, S2].into_iter().filter(|&m| m != old_primary).collect();
    let everyone_else: Vec<Mid> = [C0, C1, C2].into_iter().chain(others.iter().copied()).collect();
    w.block_one_way(&[old_primary], &everyone_else);
    w.run_for(4_000);
    let new_primary = w.primary_of(SERVER).expect("backups form a view without the mute");
    assert_ne!(new_primary, old_primary, "mute primary must be replaced");
    // No split brain: anything the mute primary believes cannot commit,
    // because its prepares never reach a sub-majority. Commits keep
    // flowing through the new view.
    assert_eq!(increment(&mut w, 5_000), Some(2));
    w.heal_one_way();
    w.run_for(5_000);
    assert_eq!(increment(&mut w, 5_000), Some(3));
    w.verify().unwrap();
}

/// Ticks from crashing the primary until a replacement view has an
/// active primary, plus the number of view-change attempts spent.
fn convergence_after_primary_crash(seed: u64, backoff: bool) -> (u64, u64) {
    let mut cfg = vsr_core::config::CohortConfig::new();
    cfg.retry_backoff = backoff;
    let net = vsr_simnet::NetConfig {
        min_delay: 1,
        max_delay: 10,
        drop_prob: 0.20, // 20% symmetric loss on every link
        dup_prob: 0.0,
        seed,
    };
    let mut w = WorldBuilder::new(seed)
        .net(net)
        .cohorts(cfg)
        .group(CLIENT, &[C0], || Box::new(NullModule))
        .group(SERVER, &[S0, S1, S2], || Box::new(counter::CounterModule))
        .build();
    // Warm up until a commit lands (heavy loss can abort early attempts).
    let warmed = (0..3).any(|_| increment(&mut w, 6_000).is_some());
    assert!(warmed, "seed {seed}: no warmup commit under loss");
    let primary = w.primary_of(SERVER).unwrap();
    let attempts_before = w.metrics().view_change_attempts;
    w.crash(primary);
    let crashed_at = w.now();
    while w.primary_of(SERVER).is_none() {
        assert!(w.now() < crashed_at + 100_000, "seed {seed}: no view within 100k ticks");
        w.step();
    }
    (w.now() - crashed_at, w.metrics().view_change_attempts - attempts_before)
}

#[test]
fn backoff_converges_no_worse_than_fixed_retries_under_loss() {
    // The capped-backoff-plus-jitter retry policy must not slow down
    // view-change convergence relative to the fixed-interval policy it
    // replaced, even with 20% of all messages dropped; it should also
    // spend no more view-change attempts (that is the point of backing
    // off: fewer colliding managers).
    let seeds = [31u64, 32, 33, 34, 35];
    let (mut t_backoff, mut t_fixed) = (0u64, 0u64);
    let (mut a_backoff, mut a_fixed) = (0u64, 0u64);
    for &seed in &seeds {
        let (t, a) = convergence_after_primary_crash(seed, true);
        t_backoff += t;
        a_backoff += a;
        let (t, a) = convergence_after_primary_crash(seed, false);
        t_fixed += t;
        a_fixed += a;
    }
    assert!(
        t_backoff <= t_fixed * 11 / 10,
        "backoff convergence regressed: {t_backoff} ticks vs fixed {t_fixed}"
    );
    assert!(
        a_backoff <= a_fixed + seeds.len() as u64,
        "backoff spent more view-change attempts: {a_backoff} vs fixed {a_fixed}"
    );
}

/// A call's retry chain survives a view change that keeps the client
/// primary, so resuming coordination must not arm a second one: with
/// every call dropped, each of the call's 3 subaction generations is
/// sent exactly `call_attempts` times before the transaction aborts.
/// (Resuming used to re-arm the generation-0 call id, doubling the
/// chain at generation 0 and arming a dead timer after a redo.)
#[test]
fn same_primary_view_change_keeps_one_call_retry_chain() {
    let mut w = world(11);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    let primary = w.primary_of(CLIENT).expect("client primary");
    let calls_before = w.metrics().msgs.get("call").copied().unwrap_or(0);
    w.set_class_drop(&["call"]);
    let req = w.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
    w.run_for(5);
    // The primary suspects the crashed backup and forms a new view with
    // itself as primary again while the call is still retrying.
    let backup = [C0, C1, C2].into_iter().find(|&m| m != primary).expect("a backup");
    w.crash(backup);
    w.run_for(400);
    assert_eq!(w.primary_of(CLIENT), Some(primary), "same primary after the view change");
    assert!(w.cohort(primary).cur_viewid().counter > 0, "the client group changed views");
    w.run_for(10_000);
    assert!(
        matches!(
            w.result(req).map(|r| &r.outcome),
            Some(TxnOutcome::Aborted { reason: vsr_core::cohort::AbortReason::CallTimeout { .. } })
        ),
        "the call times out: {:?}",
        w.result(req)
    );
    let cfg = vsr_core::config::CohortConfig::new();
    let sends = w.metrics().msgs.get("call").copied().unwrap_or(0) - calls_before;
    assert_eq!(
        sends,
        u64::from(cfg.call_attempts * (cfg.call_redo_attempts + 1)),
        "one retry chain per call"
    );
}

/// A one-phase commit's coordinator that loses primaryship before the
/// only participant answers keeps asking that participant, and reports
/// its decision rather than `Unresolved` (DESIGN §14).
#[test]
fn deposed_one_phase_coordinator_reports_the_participants_decision() {
    let mut w = world(12);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    let primary = w.primary_of(CLIENT).expect("client primary");
    let backups: Vec<Mid> = [C0, C1, C2].into_iter().filter(|&m| m != primary).collect();
    // The participant commits, but its answer is lost; meanwhile the
    // coordinator is cut off from its own group (not from the servers),
    // the other two form a view without it, and it rejoins as a backup.
    w.set_class_drop(&["commit-done"]);
    let req = w.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
    w.run_for(40);
    w.block_one_way(&[primary], &backups);
    w.block_one_way(&backups, &[primary]);
    w.run_for(400);
    assert_ne!(w.primary_of(CLIENT), Some(primary), "the coordinator was deposed");
    w.heal_one_way();
    let rejoin_by = w.now() + 2_000;
    while !w.cohort(primary).cur_view().backups().contains(&primary) {
        assert!(w.now() < rejoin_by, "the old primary rejoins as a backup");
        w.step();
    }
    assert!(w.result(req).is_none(), "still asking: {:?}", w.result(req));
    w.clear_class_drop();
    w.run_for(3_000);
    assert_eq!(commit_value(&w, req), Some(2), "the participant's decision: {:?}", w.result(req));
    assert_eq!(increment(&mut w, 2_000), Some(3));
    w.verify().unwrap();
}

/// A one-group read commits through the coordinator's forced committing
/// record: the participant votes read-only and leaves its own committed
/// record unforced, so a crash that loses that record leaves the commit
/// durable (DESIGN §14). Answering "committed" from the participant
/// instead left no durable trace of such a read.
#[test]
fn one_group_read_survives_losing_its_unforced_committed_record() {
    let mut w = world(1);
    assert_eq!(increment(&mut w, 2_000), Some(1));
    let primary = w.primary_of(SERVER).expect("server primary");
    let backups: Vec<Mid> = [S0, S1, S2].into_iter().filter(|&m| m != primary).collect();
    let req = w.submit(CLIENT, vec![counter::read(SERVER, 0)]);
    let first = w.results().map(|(_, r)| r.aid).next().flatten().expect("the increment's aid");
    let aid = vsr_core::types::Aid { seq: first.seq + 1, ..first };
    let sent = |w: &World, class: &str| w.metrics().msgs.get(class).copied().unwrap_or(0);
    let (commits, votes) = (sent(&w, "prepare-commit"), sent(&w, "prepare-ok"));
    while sent(&w, "prepare-commit") == commits {
        w.step();
    }
    // The call record is at the backups; nothing the primary appends
    // from here on reaches them.
    w.block_one_way(&[primary], &backups);
    while sent(&w, "prepare-ok") == votes {
        w.step();
    }
    assert!(w.cohort(primary).gstate().one_phase_committed(aid), "committed at the participant");
    for &b in &backups {
        assert!(!w.cohort(b).gstate().is_finished(aid), "the record never reached {b}");
    }
    w.crash(primary);
    w.heal_one_way();
    w.run_for(3_000);
    assert_eq!(commit_value(&w, req), Some(1), "{:?}", w.result(req));
    w.recover(primary);
    w.run_for(3_000);
    w.verify().unwrap();
}
