//! Stress and soak tests: longer randomized runs over multiple groups,
//! checking end-to-end application invariants (FIFO order, conservation)
//! on top of the protocol-level safety checks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vsr_app::{bank, counter, queue};
use vsr_core::cohort::TxnOutcome;
use vsr_core::module::NullModule;
use vsr_core::types::{GroupId, Mid};
use vsr_runtime::ClusterBuilder;
use vsr_sim::fault::{FaultEvent, FaultPlan};
use vsr_sim::world::{World, WorldBuilder};
use vsr_simnet::NetConfig;
use vsr_store::FsyncPolicy;

const CLIENT: GroupId = GroupId(1);
const QUEUE: GroupId = GroupId(2);
const BANK_A: GroupId = GroupId(3);
const BANK_B: GroupId = GroupId(4);
const COUNTERS: GroupId = GroupId(5);

fn big_world(seed: u64, lossy: bool) -> World {
    let net = if lossy { NetConfig::lossy(seed) } else { NetConfig::reliable(seed) };
    WorldBuilder::new(seed)
        .net(net)
        .group(CLIENT, &[Mid(10), Mid(11), Mid(12)], || Box::new(NullModule))
        .group(QUEUE, &[Mid(1), Mid(2), Mid(3)], || Box::new(queue::QueueModule::new(128)))
        .group(BANK_A, &[Mid(4), Mid(5), Mid(6)], || {
            Box::new(bank::BankModule::with_accounts((0..4).map(|a| (a, 1_000)).collect()))
        })
        .group(BANK_B, &[Mid(7), Mid(8), Mid(9)], || {
            Box::new(bank::BankModule::with_accounts((0..4).map(|a| (a, 1_000)).collect()))
        })
        .group(COUNTERS, &[Mid(13), Mid(14), Mid(15)], || Box::new(counter::CounterModule))
        .build()
}

#[test]
fn queue_preserves_fifo_under_primary_crashes() {
    let mut w = big_world(1, false);
    // Enqueue 30 numbered items while the queue group's bootstrap
    // primary crashes and recovers twice; each enqueue is retried until
    // it commits so the intended sequence is fully enqueued.
    w.schedule(5_000, FaultEvent::Crash(Mid(1)));
    w.schedule(9_000, FaultEvent::Recover(Mid(1)));
    w.schedule(14_000, FaultEvent::Crash(Mid(1)));
    w.schedule(18_000, FaultEvent::Recover(Mid(1)));
    let mut enqueued = Vec::new();
    for i in 0..30u64 {
        let item = format!("item-{i}");
        loop {
            let req = w.submit(CLIENT, vec![queue::enqueue(QUEUE, item.as_bytes())]);
            w.run_for(2_500);
            match w.result(req).map(|r| &r.outcome) {
                Some(TxnOutcome::Committed { .. }) => break,
                Some(_) => continue, // re-run the aborted transaction
                None => {
                    w.run_for(5_000);
                    if matches!(
                        w.result(req).map(|r| &r.outcome),
                        Some(TxnOutcome::Committed { .. })
                    ) {
                        break;
                    }
                }
            }
        }
        enqueued.push(item);
    }
    // Drain and verify strict FIFO order of the committed enqueues.
    let mut drained = Vec::new();
    loop {
        let req = w.submit(CLIENT, vec![queue::dequeue(QUEUE)]);
        w.run_for(2_500);
        match w.result(req).map(|r| &r.outcome) {
            Some(TxnOutcome::Committed { results }) => {
                match queue::decode_item(&results[0]).unwrap() {
                    Some(item) => drained.push(String::from_utf8(item).unwrap()),
                    None => break,
                }
            }
            _ => continue,
        }
    }
    assert_eq!(drained, enqueued, "FIFO preserved across view changes");
    w.verify().unwrap();
}

#[test]
fn mixed_workload_soak_with_random_faults() {
    for seed in 0..3u64 {
        let mut w = big_world(100 + seed, false);
        // Faults on every server group (one concurrent crash max each).
        for (i, mids) in [
            vec![Mid(1), Mid(2), Mid(3)],
            vec![Mid(4), Mid(5), Mid(6)],
            vec![Mid(7), Mid(8), Mid(9)],
        ]
        .into_iter()
        .enumerate()
        {
            FaultPlan::random(seed * 7 + i as u64, &mids, 2_000, 30_000, 6, 1, i == 0)
                .apply(&mut w);
        }
        // Mixed traffic: transfers between banks, counter bumps, queue
        // traffic — 60 transactions.
        let transfers = vsr_sim::workload::transfers(&[BANK_A, BANK_B], 4, 20, seed, 500, 1_500);
        for (at, ops) in transfers {
            w.schedule_submit(at, CLIENT, ops);
        }
        for i in 0..20u64 {
            w.schedule_submit(800 + i * 1_500, CLIENT, vec![counter::incr(COUNTERS, i % 4, 1)]);
            w.schedule_submit(
                1_100 + i * 1_500,
                CLIENT,
                vec![queue::enqueue(QUEUE, format!("{seed}-{i}").as_bytes())],
            );
        }
        w.run_until(70_000);
        w.verify().unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        // Conservation across both banks, checked atomically.
        let audit = w.submit(
            CLIENT,
            vec![bank::audit(BANK_A, &[0, 1, 2, 3]), bank::audit(BANK_B, &[0, 1, 2, 3])],
        );
        w.run_for(8_000);
        if let Some(TxnOutcome::Committed { results }) = w.result(audit).map(|r| &r.outcome) {
            let total = bank::decode_balance(&results[0]).unwrap()
                + bank::decode_balance(&results[1]).unwrap();
            assert_eq!(total, 8_000, "seed {seed}: money conserved");
        } else {
            panic!("seed {seed}: audit did not commit");
        }
    }
}

#[test]
fn lossy_soak_with_duplication() {
    // Heavy duplication + loss: the duplicate-suppression and query
    // machinery must keep everything exactly-once.
    let mut w = WorldBuilder::new(77)
        .net(NetConfig { min_delay: 1, max_delay: 8, drop_prob: 0.08, dup_prob: 0.10, seed: 77 })
        .group(CLIENT, &[Mid(10), Mid(11), Mid(12)], || Box::new(NullModule))
        .group(COUNTERS, &[Mid(1), Mid(2), Mid(3)], || Box::new(counter::CounterModule))
        .build();
    let mut committed = 0u64;
    for _ in 0..25 {
        let req = w.submit(CLIENT, vec![counter::incr(COUNTERS, 0, 1)]);
        w.run_for(4_000);
        if matches!(w.result(req).map(|r| &r.outcome), Some(TxnOutcome::Committed { .. })) {
            committed += 1;
        }
    }
    w.run_for(20_000);
    let probe = w.submit(CLIENT, vec![counter::read(COUNTERS, 0)]);
    w.run_for(5_000);
    if let Some(TxnOutcome::Committed { results }) = w.result(probe).map(|r| &r.outcome) {
        let value = counter::decode_value(&results[0]).unwrap();
        assert_eq!(
            value, committed,
            "exactly-once despite duplication: {value} vs {committed} commits"
        );
    } else {
        panic!("probe failed");
    }
    w.verify().unwrap();
}

#[test]
fn five_group_world_stays_consistent_for_a_long_run() {
    let mut w = big_world(42, false);
    // 200 transactions spread over all groups with a mid-run partition
    // of the queue group's primary.
    for i in 0..50u64 {
        w.schedule_submit(200 + i * 400, CLIENT, vec![counter::incr(COUNTERS, i % 4, 1)]);
        w.schedule_submit(300 + i * 400, CLIENT, vec![queue::enqueue(QUEUE, b"x")]);
        if i % 5 == 0 {
            w.schedule_submit(
                400 + i * 400,
                CLIENT,
                vec![bank::withdraw(BANK_A, i % 4, 1), bank::deposit(BANK_B, i % 4, 1)],
            );
        }
    }
    w.schedule(
        8_000,
        FaultEvent::Partition(vec![
            vec![Mid(1)],
            vec![
                Mid(2),
                Mid(3),
                Mid(4),
                Mid(5),
                Mid(6),
                Mid(7),
                Mid(8),
                Mid(9),
                Mid(10),
                Mid(11),
                Mid(12),
                Mid(13),
                Mid(14),
                Mid(15),
            ],
        ]),
    );
    w.schedule(14_000, FaultEvent::Heal);
    w.run_until(60_000);
    w.verify().unwrap();
    let m = w.metrics();
    assert!(m.committed >= 100, "most of the workload committed: {}", m.committed);
    assert_eq!(m.unresolved, 0, "everything resolved after the heal");
}

/// Multi-client concurrent-submit soak on the live thread runtime with
/// commit pipelining enabled: N writer threads hammer a durable
/// group-commit cluster while a server cohort is killed and restarted
/// mid-batch (in-flight transactions parked on a covering fsync when
/// the crash lands). Two oracles:
///
/// * per-object monotonicity — each writer owns one counter object and
///   every committed increment returns the counter's new value, so the
///   values a writer observes must be strictly increasing across the
///   kill/restart; a regression means committed state was lost;
/// * zero lost commits — after the soak, a committed read of each
///   object must show at least the last value its writer was told was
///   committed (a timed-out submit that nevertheless committed may
///   legitimately push it higher).
#[test]
fn concurrent_submits_survive_kill_restart_without_losing_commits() {
    const CLIENT_MID: Mid = Mid(10);
    const SERVER: GroupId = GroupId(6);
    const SERVERS: [Mid; 3] = [Mid(1), Mid(2), Mid(3)];
    const WRITERS: u64 = 4;
    const COMMITS_PER_WRITER: usize = 12;
    let dir = std::env::temp_dir().join(format!("vsr-stress-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = ClusterBuilder::new()
        .durable_files(&dir, FsyncPolicy::Group { max_batch: 32, max_delay_ms: 5 })
        .submit_deadline(Duration::from_secs(2))
        .group(CLIENT, &[CLIENT_MID], || Box::new(NullModule))
        .group(SERVER, &SERVERS, || Box::new(counter::CounterModule))
        .start();

    // Bootstrap: one committed warm-up proves the view formed.
    let t0 = Instant::now();
    loop {
        match cluster.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]) {
            Ok(TxnOutcome::Committed { .. }) => break,
            _ => {
                assert!(t0.elapsed() < Duration::from_secs(60), "bootstrap view never formed");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }

    let total = AtomicU64::new(0);
    let finals: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for tid in 0..WRITERS {
            let (cluster, total, finals) = (&cluster, &total, &finals);
            s.spawn(move || {
                // Distinct objects per writer: the pipeline carries the
                // concurrency, not one object's value chain.
                let object = tid + 1;
                let mut values = Vec::with_capacity(COMMITS_PER_WRITER);
                let t0 = Instant::now();
                while values.len() < COMMITS_PER_WRITER {
                    assert!(
                        t0.elapsed() < Duration::from_secs(300),
                        "writer {tid} starved: {} commits after 300s (got {values:?})",
                        values.len()
                    );
                    if let Ok(TxnOutcome::Committed { results }) =
                        cluster.submit(CLIENT, vec![counter::incr(SERVER, object, 1)])
                    {
                        values.push(counter::decode_value(&results[0]).expect("counter decodes"));
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                }
                for pair in values.windows(2) {
                    assert!(
                        pair[1] > pair[0],
                        "writer {tid}: committed value regressed {} -> {} — a committed \
                         transaction was lost (full sequence: {values:?})",
                        pair[0],
                        pair[1]
                    );
                }
                finals.lock().unwrap().push((object, *values.last().unwrap()));
            });
        }
        // Nemesis: once the batch is mid-flight, kill a server cohort
        // (covering fsyncs in progress are abandoned with it), let the
        // survivors re-form, then restart it from its WAL.
        let (cluster, total) = (&cluster, &total);
        s.spawn(move || {
            let t0 = Instant::now();
            let half = WRITERS * COMMITS_PER_WRITER as u64 / 2;
            while total.load(Ordering::Relaxed) < half && t0.elapsed() < Duration::from_secs(120) {
                std::thread::sleep(Duration::from_millis(20));
            }
            cluster.crash(SERVERS[0]);
            std::thread::sleep(Duration::from_millis(500));
            cluster.recover(SERVERS[0]);
        });
    });

    // Zero lost commits: the durable state must cover every value a
    // writer was told was committed.
    for (object, last) in finals.into_inner().unwrap() {
        let t0 = Instant::now();
        loop {
            match cluster.submit(CLIENT, vec![counter::read(SERVER, object)]) {
                Ok(TxnOutcome::Committed { results }) => {
                    let value = counter::decode_value(&results[0]).expect("read decodes");
                    assert!(
                        value >= last,
                        "object {object}: final value {value} below last committed {last}"
                    );
                    break;
                }
                _ => {
                    assert!(t0.elapsed() < Duration::from_secs(60), "final audit never committed");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn buffer_stays_bounded_over_long_runs() {
    // The primary garbage-collects fully-acknowledged records, so the
    // communication buffer must not grow with the length of the run.
    let mut w = big_world(55, false);
    for i in 0..150u64 {
        w.schedule_submit(200 + i * 200, CLIENT, vec![counter::incr(COUNTERS, 0, 1)]);
    }
    w.run_until(60_000);
    assert!(w.metrics().committed >= 140);
    let primary = w.primary_of(COUNTERS).expect("healthy");
    let len = w.cohort(primary).buffer_len().unwrap_or(0);
    assert!(len < 50, "buffer bounded after 150 txns (hundreds of records generated): {len}");
    w.verify().unwrap();
}
