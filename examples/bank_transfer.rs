//! Distributed bank transfers: atomic cross-group transactions through
//! two-phase commit, with a crash injected mid-workload.
//!
//! Two bank branches are separate replicated module groups; a transfer
//! is a client transaction that withdraws at one branch and deposits at
//! the other. Atomicity holds across crashes: the audit total never
//! changes.
//!
//! Run with: `cargo run --example bank_transfer`

use viewstamped_replication::app::bank::{self, BankModule};
use viewstamped_replication::core::cohort::TxnOutcome;
use viewstamped_replication::core::module::NullModule;
use viewstamped_replication::core::types::{GroupId, Mid};
use viewstamped_replication::sim::fault::FaultEvent;
use viewstamped_replication::sim::workload;
use viewstamped_replication::sim::WorldBuilder;

const CLIENT: GroupId = GroupId(1);
const BRANCH_A: GroupId = GroupId(2);
const BRANCH_B: GroupId = GroupId(3);
const ACCOUNTS: u64 = 4;
const INITIAL: u64 = 1_000;

fn main() {
    println!("== Distributed bank transfers over Viewstamped Replication ==\n");
    let mut world = WorldBuilder::new(2026)
        .group(CLIENT, &[Mid(10), Mid(11), Mid(12)], || Box::new(NullModule))
        .group(BRANCH_A, &[Mid(1), Mid(2), Mid(3)], || {
            Box::new(BankModule::with_accounts((0..ACCOUNTS).map(|a| (a, INITIAL)).collect()))
        })
        .group(BRANCH_B, &[Mid(4), Mid(5), Mid(6)], || {
            Box::new(BankModule::with_accounts((0..ACCOUNTS).map(|a| (a, INITIAL)).collect()))
        })
        .build();

    println!(
        "two branches, {ACCOUNTS} accounts each, {INITIAL} per account \
         (total = {})",
        workload::expected_total(2, ACCOUNTS, INITIAL)
    );

    // 60 cross-branch transfers, one every 400 ticks.
    let schedule = workload::transfers(&[BRANCH_A, BRANCH_B], ACCOUNTS, 60, 7, 500, 400);
    for (at, ops) in schedule {
        world.schedule_submit(at, CLIENT, ops);
    }

    // Crash branch A's primary mid-workload; recover it later.
    println!("scheduling: crash branch-A primary at t=8000, recover at t=14000\n");
    world.schedule(8_000, FaultEvent::Crash(Mid(1)));
    world.schedule(14_000, FaultEvent::Recover(Mid(1)));

    world.run_until(40_000);

    let m = world.metrics();
    println!("workload finished:");
    println!("  submitted:  {}", m.submitted);
    println!("  committed:  {}", m.committed);
    println!("  aborted:    {} (in-flight during the view change; re-runnable)", m.aborted);
    println!("  unresolved: {}", m.unresolved);
    println!("  view formations: {}", m.view_formations);

    // Audit both branches atomically.
    let audit = world.submit(
        CLIENT,
        vec![
            bank::audit(BRANCH_A, &(0..ACCOUNTS).collect::<Vec<_>>()),
            bank::audit(BRANCH_B, &(0..ACCOUNTS).collect::<Vec<_>>()),
        ],
    );
    world.run_for(5_000);
    match &world.result(audit).expect("audit completed").outcome {
        TxnOutcome::Committed { results } => {
            let a = bank::decode_balance(&results[0]).expect("decodes");
            let b = bank::decode_balance(&results[1]).expect("decodes");
            let expected = workload::expected_total(2, ACCOUNTS, INITIAL);
            println!("\naudit: branch A = {a}, branch B = {b}, total = {}", a + b);
            assert_eq!(a + b, expected, "money conserved across crash and view change");
            println!("money conserved: {} == {expected}", a + b);
        }
        other => println!("audit failed: {other:?}"),
    }

    world.verify().expect("one-copy serializability, durability, convergence");
    println!("\nall safety invariants verified. done.");
}
