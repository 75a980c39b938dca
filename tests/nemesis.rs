//! Nemesis sweep: seeded random adversarial fault plans checked against
//! both the safety oracles (serializability, durability, convergence)
//! and the liveness oracle (majority view re-formation, every
//! transaction decided) after the world heals.

use vsr_core::types::Mid;
use vsr_sim::fault::{FaultEvent, FaultPlan};
use vsr_sim::nemesis::{run_plan, sweep, NemesisConfig};
use vsr_store::FsyncPolicy;

/// Fixed-seed sweep of 50 random nemesis plans over a 5-cohort group.
/// Plans draw from the full fault vocabulary: crashes, symmetric and
/// one-way partitions, gray-slow nodes, timer skew, targeted
/// message-class drops, and lossy links. Every plan must pass both
/// oracles; on failure the driver shrinks the plan and prints a
/// ready-to-paste repro, so a regression here is self-diagnosing.
///
/// Plans that destroy the volatile state of every holder of forced
/// information wedge the group *by design* (the paper's Section 4.2
/// catastrophe — the formation rule refuses to serve with lost state);
/// the sweep counts those separately, and this test bounds them so the
/// sweep stays meaningful.
#[test]
fn fifty_random_plans_pass_both_oracles() {
    let cfg = NemesisConfig::default();
    match sweep(&cfg, 9_000, 50, 12, 2) {
        Ok(stats) => {
            assert_eq!(stats.passed + stats.catastrophic, 50);
            assert!(
                stats.catastrophic <= 10,
                "too many catastrophic plans ({}/50): the generator is wiping majorities \
                 so often the sweep no longer probes recovery",
                stats.catastrophic
            );
        }
        Err((plan, failure, repro)) => {
            panic!("nemesis sweep failed: {failure}\nminimal plan: {plan:?}\nrepro:\n{repro}");
        }
    }
}

/// The 50 sweep plans genuinely exercise the new fault classes — the
/// sweep is vacuous if the generator never draws them.
#[test]
fn sweep_seeds_cover_all_fault_classes() {
    let mids: Vec<Mid> = (1..=5).map(Mid).collect();
    let (mut one_way, mut slow, mut skew, mut class_drop, mut loss, mut partition) =
        (false, false, false, false, false, false);
    for seed in 9_000..9_050u64 {
        let plan = FaultPlan::random_nemesis(seed, &mids, 200, 8_000, 12, 2);
        for (_, event) in &plan.events {
            match event {
                FaultEvent::OneWay { .. } => one_way = true,
                FaultEvent::SlowNode { .. } => slow = true,
                FaultEvent::SkewTimers { .. } => skew = true,
                FaultEvent::DropClasses(_) => class_drop = true,
                FaultEvent::LinkLoss { .. } => loss = true,
                FaultEvent::Partition(_) => partition = true,
                _ => {}
            }
        }
    }
    assert!(one_way, "no one-way partition in 50 plans");
    assert!(slow, "no gray-slow node in 50 plans");
    assert!(skew, "no timer skew in 50 plans");
    assert!(class_drop, "no targeted message-class drop in 50 plans");
    assert!(loss, "no lossy link in 50 plans");
    assert!(partition, "no symmetric partition in 50 plans");
}

/// Fixed-seed sweep of 50 random plans with every cohort journaling to
/// a fault-injectable simulated disk (fsync-per-record). The plan
/// vocabulary gains crash-with-disk-loss, and the liveness oracle
/// tightens automatically: a group-wide crash with *intact* disks
/// recovers up to date and must re-form a view — wedging there is a
/// liveness bug, not an excusable catastrophe. The only excusable
/// catastrophes left are the ones that destroy the disks themselves, so
/// the bound drops sharply versus the no-disk sweep.
#[test]
fn fifty_durable_plans_pass_both_oracles() {
    let cfg =
        NemesisConfig { durability: Some(FsyncPolicy::EveryRecord), ..NemesisConfig::default() };
    match sweep(&cfg, 9_100, 50, 12, 2) {
        Ok(stats) => {
            eprintln!(
                "durable sweep: {} recovered, {} catastrophic (disk loss)",
                stats.passed, stats.catastrophic
            );
            assert_eq!(stats.passed + stats.catastrophic, 50);
            assert!(
                stats.catastrophic <= 5,
                "durable sweep should only wedge on disk-loss draws, got {}/50 catastrophes",
                stats.catastrophic
            );
        }
        Err((plan, failure, repro)) => {
            panic!(
                "durable nemesis sweep failed: {failure}\nminimal plan: {plan:?}\nrepro:\n{repro}"
            );
        }
    }
}

/// The durable sweep again, with the pipelining configuration: group
/// commit (`FsyncPolicy::Group`) instead of fsync-per-record. Records
/// now ride covering fsyncs issued at handler-pass boundaries, so a
/// crash can land between a record's append and its covering sync —
/// the durability oracle verifies nothing *acknowledged* is ever in
/// that window. The liveness and catastrophe bounds match the
/// fsync-per-record sweep: group commit batches syncs, it must not
/// change what survives a crash.
#[test]
fn fifty_group_commit_plans_pass_both_oracles() {
    let cfg = NemesisConfig {
        durability: Some(FsyncPolicy::Group { max_batch: 32, max_delay_ms: 5 }),
        ..NemesisConfig::default()
    };
    match sweep(&cfg, 9_100, 50, 12, 2) {
        Ok(stats) => {
            eprintln!(
                "group-commit sweep: {} recovered, {} catastrophic (disk loss)",
                stats.passed, stats.catastrophic
            );
            assert_eq!(stats.passed + stats.catastrophic, 50);
            assert!(
                stats.catastrophic <= 5,
                "group-commit sweep should only wedge on disk-loss draws, got {}/50 catastrophes",
                stats.catastrophic
            );
        }
        Err((plan, failure, repro)) => {
            panic!(
                "group-commit nemesis sweep failed: {failure}\nminimal plan: {plan:?}\nrepro:\n{repro}"
            );
        }
    }
}

/// Fixed-seed sweep of 50 one-phase commit plans (DESIGN §14): every
/// transaction is a one-group increment, so its only participant decides
/// it. The plans drop `PrepareCommit` and its answers, crash the
/// coordinator primary between the send and the answer, and cut off and
/// crash the participant primary after its committed record's append and
/// before the force; a tenth of all messages arrive twice. Every
/// `World::verify` oracle and the liveness oracle must hold: a re-sent
/// `PrepareCommit` hears the outcome the participant decided, and a
/// decision lost with its primary is never reported.
#[test]
fn fifty_one_phase_plans_pass_both_oracles() {
    let cfg = NemesisConfig { one_phase: true, ..NemesisConfig::default() };
    match sweep(&cfg, 9_300, 50, 0, 0) {
        Ok(stats) => {
            assert_eq!(stats.passed + stats.catastrophic, 50);
            assert_eq!(stats.catastrophic, 0, "one crash at a time never wedges a group");
        }
        Err((plan, failure, repro)) => {
            panic!(
                "one-phase nemesis sweep failed: {failure}\nminimal plan: {plan:?}\nrepro:\n{repro}"
            );
        }
    }
}

/// The one-phase plans draw every scenario they exist for.
#[test]
fn one_phase_sweep_seeds_cover_the_commit_window() {
    let cfg = NemesisConfig { one_phase: true, ..NemesisConfig::default() };
    let (servers, clients) = (cfg.server_mids(), cfg.client_mids());
    let (mut requests, mut answers, mut coordinator, mut participant) = (0, 0, 0, 0);
    for seed in 9_300..9_350u64 {
        let plan =
            FaultPlan::random_one_phase_nemesis(seed, &servers, &clients, cfg.window, cfg.txns);
        for (_, event) in &plan.events {
            match event {
                FaultEvent::DropClasses(classes) if classes[0] == "prepare-commit" => requests += 1,
                FaultEvent::DropClasses(classes) if classes[0] == "commit-done" => answers += 1,
                FaultEvent::Crash(mid) if clients.contains(mid) => coordinator += 1,
                FaultEvent::Crash(mid) if servers.contains(mid) => participant += 1,
                _ => {}
            }
        }
    }
    for (what, n) in [
        ("dropped PrepareCommit", requests),
        ("dropped answer", answers),
        ("coordinator crash", coordinator),
        ("participant crash", participant),
    ] {
        assert!(n >= 20, "only {n} plans events of kind {what} in 50 plans");
    }
}

/// Fixed-seed sweep of 50 *lease-targeted* plans with primary read
/// leases enabled: timer skew on sub-cohorts (within the configured
/// `lease_skew_bound`), crashes of the leaseholder mid-lease, and
/// one-way partitions during the ensuing view change — the three
/// ingredients of a stale read. The workload is read-heavy
/// (read-only transactions submitted straight to the server group, so
/// they ride the leased fast path), and [`World::verify`] runs the
/// stale-read oracle over every leased read. Any stale read shrinks to
/// a minimal repro and fails here; surviving counterexamples become
/// pinned regressions in this file.
#[test]
fn fifty_lease_plans_produce_no_stale_reads() {
    let cfg = NemesisConfig { lease_ticks: 400, ..NemesisConfig::default() };
    match sweep(&cfg, 9_200, 50, 12, 2) {
        Ok(stats) => {
            assert_eq!(stats.passed + stats.catastrophic, 50);
            // Lease plans crash at most one cohort at a time, which can
            // never wipe every holder of forced information in a
            // 5-cohort group — a catastrophe here means the generator
            // regressed.
            assert_eq!(stats.catastrophic, 0, "lease plans cannot wipe a majority");
        }
        Err((plan, failure, repro)) => {
            panic!(
                "lease nemesis sweep failed: {failure}\nminimal plan: {plan:?}\nrepro:\n{repro}"
            );
        }
    }
}

/// Regression: seed 9230's plan from the lease sweep above, pinned. A
/// participant keeps no status once it decides another group's
/// transaction (DESIGN §14); under this plan a duplicate prepare reaches
/// a server primary after the commit. Were a compatible prepare that
/// finds no status and no records to take the read-only path, it would
/// add a second `committed` record with no accesses, and the
/// serializability oracle would report that the cohorts disagree on the
/// transaction's effects. A prepare for a finished transaction writes no
/// record.
#[test]
fn lease_plan_9230_duplicate_prepare_writes_no_second_commit() {
    let cfg = NemesisConfig { lease_ticks: 400, seed: 9_230, ..NemesisConfig::default() };
    let (start, end) = cfg.window;
    let plan = FaultPlan::random_lease_nemesis(9_230, &cfg.server_mids(), start, end, 12);
    run_plan(&cfg, &plan).expect("seed 9230's lease plan passes both oracles");
}

/// The 50 lease-sweep plans genuinely combine skewed clocks,
/// leaseholder crashes, and one-way partitions — the stale-read sweep
/// is vacuous if the generator never draws its target scenarios.
#[test]
fn lease_sweep_seeds_cover_lease_scenarios() {
    let mids: Vec<Mid> = (1..=5).map(Mid).collect();
    let (mut skew, mut crash, mut one_way) = (false, false, false);
    for seed in 9_200..9_250u64 {
        let plan = FaultPlan::random_lease_nemesis(seed, &mids, 200, 8_000, 12);
        for (_, event) in &plan.events {
            match event {
                FaultEvent::SkewTimers { num, den, .. } if num != den => skew = true,
                FaultEvent::Crash(_) => crash = true,
                FaultEvent::OneWay { .. } => one_way = true,
                _ => {}
            }
        }
    }
    assert!(skew, "no timer skew in 50 lease plans");
    assert!(crash, "no leaseholder crash in 50 lease plans");
    assert!(one_way, "no one-way partition in 50 lease plans");
}

/// The durable generator actually draws crash-with-disk-loss — the
/// tightened sweep is vacuous if every crash keeps its disk.
#[test]
fn durable_sweep_seeds_cover_disk_loss() {
    let mids: Vec<Mid> = (1..=5).map(Mid).collect();
    let (mut kept, mut lost) = (false, false);
    for seed in 9_100..9_150u64 {
        let plan = FaultPlan::random_nemesis_durable(seed, &mids, 200, 8_000, 12, 2, true);
        for (_, event) in &plan.events {
            match event {
                FaultEvent::Crash(_) => kept = true,
                FaultEvent::CrashDiskLoss(_) => lost = true,
                _ => {}
            }
        }
    }
    assert!(kept, "no disk-intact crash in 50 durable plans");
    assert!(lost, "no crash-with-disk-loss in 50 durable plans");
}

/// Promoted regression (was an excused Section 4.2 catastrophe in the
/// no-disk design): crashing the *entire* group wipes every volatile
/// copy of forced information, but with fsync-per-record WALs intact the
/// cohorts replay their logs, answer normal acceptances, and re-form a
/// view with every committed transaction — this must now pass outright.
#[test]
fn shrunk_full_group_crash_with_intact_disks_recovers() {
    let cfg =
        NemesisConfig { durability: Some(FsyncPolicy::EveryRecord), ..NemesisConfig::default() };
    let plan = FaultPlan::new()
        .at(200, FaultEvent::Crash(Mid(1)))
        .at(200, FaultEvent::Crash(Mid(2)))
        .at(200, FaultEvent::Crash(Mid(3)))
        .at(200, FaultEvent::Crash(Mid(4)))
        .at(200, FaultEvent::Crash(Mid(5)))
        .at(2_000, FaultEvent::Crash(Mid(1)))
        .at(2_000, FaultEvent::Crash(Mid(2)));
    run_plan(&cfg, &plan).expect("whole-group crash with intact disks must recover");
}

/// The same whole-group crash with the disks destroyed reproduces the
/// paper's catastrophe even in a durable world: stable storage is gone,
/// so the formation rule refuses to form a view — and the oracle must
/// classify that as the specified catastrophe, not silently pass.
#[test]
fn full_group_crash_with_disk_loss_stays_catastrophic() {
    let cfg =
        NemesisConfig { durability: Some(FsyncPolicy::EveryRecord), ..NemesisConfig::default() };
    let mut plan = FaultPlan::new();
    for m in 1..=5 {
        plan = plan.at(200, FaultEvent::CrashDiskLoss(Mid(m)));
    }
    match run_plan(&cfg, &plan) {
        Err(vsr_sim::nemesis::NemesisFailure::Catastrophe(_)) => {}
        other => panic!("expected a catastrophe, got {other:?}"),
    }
}

/// Regression produced by the shrinker: with healing disabled, losing a
/// majority permanently is a liveness violation the oracle must catch.
#[test]
fn shrunk_majority_loss_repro_still_fails() {
    let cfg = NemesisConfig { heal_before_check: false, ..NemesisConfig::default() };
    let plan = FaultPlan::new()
        .at(200, FaultEvent::Crash(Mid(1)))
        .at(200, FaultEvent::Crash(Mid(2)))
        .at(200, FaultEvent::Crash(Mid(3)));
    assert!(run_plan(&cfg, &plan).is_err());
}

/// A sustained targeted drop of every commit message stalls decisions
/// while it lasts, but the group must fully recover once healed: all
/// transactions decided, majority view re-formed.
#[test]
fn commit_message_blackhole_recovers_after_heal() {
    let cfg = NemesisConfig::default();
    let plan = FaultPlan::new()
        .at(300, FaultEvent::DropClasses(vec!["commit".to_string()]))
        .at(6_000, FaultEvent::ClearDropClasses);
    run_plan(&cfg, &plan).expect("commit blackhole must heal cleanly");
}

/// Chunked state transfer under fire: a backup crashes and loses its
/// disk, so it rejoins *blank* — its state cannot hash to the newview's
/// base digest and it must fetch the snapshot chunk by chunk. While the
/// transfer runs, the nemesis corrupts one chunk in flight (the CRC must
/// catch it) and then partitions the fetcher away from the group (the
/// retry timer must resume the stop-and-wait after heal). The rejoiner
/// must install the fetched snapshot and the group must converge with
/// all pre-crash state intact.
#[test]
fn blank_cohort_catches_up_via_chunked_transfer_under_faults() {
    use vsr_app::counter;
    use vsr_core::cohort::TxnOutcome;
    use vsr_core::config::CohortConfig;
    use vsr_core::module::NullModule;
    use vsr_core::types::GroupId;
    use vsr_sim::world::WorldBuilder;

    const CLIENT: GroupId = GroupId(1);
    const SERVER: GroupId = GroupId(2);
    let mut cfg = CohortConfig::new();
    // Frequent boundaries and tiny chunks so the transfer spans many
    // round trips, giving the faults a real window to land in; a wide
    // underling timeout so one interrupted transfer can finish inside a
    // single view instead of racing the view-change fallback.
    cfg.snapshot_interval = 8;
    cfg.snapshot_chunk_bytes = 64;
    cfg.underling_timeout = 2_000;
    let mut w = WorldBuilder::new(77)
        .cohorts(cfg)
        .group(CLIENT, &[Mid(10), Mid(11), Mid(12)], || Box::new(NullModule))
        .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(counter::CounterModule))
        .build();
    // Grow real group state — enough distinct objects that the snapshot
    // is far larger than one chunk.
    for i in 0..40u64 {
        w.submit(CLIENT, vec![counter::incr(SERVER, i, 1)]);
        w.run_for(60);
    }
    w.run_for(3_000);
    assert!(w.metrics().snapshots_taken >= 1, "boundary snapshots must have fired");
    // Blank a server backup: crash it and destroy its disk.
    w.crash_disk_loss(Mid(3));
    w.run_for(1_500);
    w.recover(Mid(3));
    // The next chunk that crosses the network arrives with a flipped
    // payload byte.
    w.corrupt_chunks(1);
    let mut waited = 0u64;
    while !w.cohort(Mid(3)).fetch_in_progress() && waited < 20_000 {
        w.run_for(10);
        waited += 10;
    }
    assert!(w.cohort(Mid(3)).fetch_in_progress(), "blank rejoiner must start a chunked fetch");
    // Let a few chunks land, then cut the fetcher off mid-transfer;
    // keep the blackout shorter than the suspect timeout so the view
    // holds and the transfer itself has to do the recovering.
    w.run_for(30);
    w.partition(&[vec![Mid(1), Mid(2), Mid(10), Mid(11), Mid(12)], vec![Mid(3)]]);
    w.run_for(60);
    w.heal();
    w.run_for(8_000);

    let m = w.metrics();
    assert!(m.snapshot_chunks_corrupt >= 1, "the corrupted chunk must be caught and dropped");
    assert!(m.snapshot_chunk_retries >= 1, "lost/corrupt chunks must be re-requested");
    assert!(m.snapshots_installed >= 1, "the rejoiner must install a fetched snapshot");
    assert!(m.transfer_ticks.count() >= 1, "transfer duration must be recorded");
    assert!(
        m.snapshot_chunks_sent >= 2 && m.snapshot_chunks_received >= 2,
        "the snapshot must have crossed the network in multiple chunks \
         ({} sent, {} received)",
        m.snapshot_chunks_sent,
        m.snapshot_chunks_received
    );
    assert!(!w.cohort(Mid(3)).fetch_in_progress(), "no fetch left dangling");
    assert!(w.cohort(Mid(3)).is_up_to_date(), "the rejoiner must be fully caught up");
    // The rejoined group still serves the full pre-crash state.
    let probe = w.submit(CLIENT, vec![counter::read(SERVER, 7)]);
    w.run_for(4_000);
    match &w.result(probe).expect("probe decided").outcome {
        TxnOutcome::Committed { results } => {
            assert_eq!(counter::decode_value(&results[0]).unwrap(), 1);
        }
        other => panic!("probe failed: {other:?}"),
    }
    w.verify().expect("safety oracles after chunked catch-up");
    w.check_liveness().expect("liveness after chunked catch-up");
}
