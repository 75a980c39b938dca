//! Group-commit durability across both harnesses.
//!
//! The simulator and the live runtime share one durability gate and one
//! rule for which stores get it (`Store::durability_gate`): only a
//! `FsyncPolicy::Group` store parks acknowledgements behind a covering
//! fsync, and only its cohort gets covering fsyncs from the harness.
//! These tests check that both harnesses touch the disk alike under
//! every other policy, that dropping those harness-issued fsyncs costs
//! no committed state, and that a failed covering fsync never lets an
//! uncovered acknowledgement out.

use std::time::{Duration, Instant};

use vsr_app::counter;
use vsr_core::cohort::TxnOutcome;
use vsr_core::module::NullModule;
use vsr_core::types::{GroupId, Mid};
use vsr_runtime::{Cluster, ClusterBuilder};
use vsr_sim::world::{World, WorldBuilder};
use vsr_store::{FsyncPolicy, Store, StoreMetrics};

const CLIENT: GroupId = GroupId(1);
const SERVER: GroupId = GroupId(2);
const CLIENT_MID: Mid = Mid(10);
const SERVERS: [Mid; 3] = [Mid(1), Mid(2), Mid(3)];
const INCREMENTS: u64 = 20;

/// Per-server (appends, fsyncs) made between two disk snapshots.
fn deltas(before: &[StoreMetrics], after: &[StoreMetrics]) -> Vec<(u64, u64)> {
    before.iter().zip(after).map(|(b, a)| (a.appends - b.appends, a.fsyncs - b.fsyncs)).collect()
}

/// Commit one increment in the simulator and let the group quiesce.
fn sim_increment(world: &mut World) {
    let req = world.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
    world.run_for(2_000);
    assert!(
        matches!(world.result(req).map(|r| &r.outcome), Some(TxnOutcome::Committed { .. })),
        "sim increment must commit"
    );
}

/// The script in the simulator: one warm-up commit, then serial
/// increments. Returns each server's disk deltas over the increments.
fn sim_script(policy: FsyncPolicy) -> Vec<(u64, u64)> {
    let mut world = WorldBuilder::new(7)
        .durable(policy)
        .group(CLIENT, &[CLIENT_MID], || Box::new(NullModule))
        .group(SERVER, &SERVERS, || Box::new(counter::CounterModule))
        .build();
    sim_increment(&mut world);
    let snapshot = |w: &World| -> Vec<StoreMetrics> {
        SERVERS.iter().map(|&m| w.disk(m).expect("durable world").metrics()).collect()
    };
    let before = snapshot(&world);
    for _ in 0..INCREMENTS {
        sim_increment(&mut world);
    }
    deltas(&before, &snapshot(&world))
}

/// What one runtime submission ended in, for the committed-value
/// oracle: `Committed`, or ambiguous (`Timeout`/`Unresolved` may or may
/// not have committed), or a definite abort.
#[derive(Debug, Default)]
struct Tally {
    committed: u64,
    ambiguous: u64,
}

impl Tally {
    fn submit_increment(&mut self, cluster: &Cluster) -> bool {
        match cluster.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]) {
            Ok(TxnOutcome::Committed { .. }) => {
                self.committed += 1;
                true
            }
            Ok(TxnOutcome::Aborted { .. }) => false,
            Ok(TxnOutcome::Unresolved) | Err(_) => {
                self.ambiguous += 1;
                false
            }
        }
    }

    /// Submit until one increment commits (within `patience`).
    fn commit_increment(&mut self, cluster: &Cluster, patience: Duration) {
        let t0 = Instant::now();
        while !self.submit_increment(cluster) {
            assert!(t0.elapsed() < patience, "no increment committed within {patience:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// A committed read of the counter must account for every committed
    /// increment, and may exceed them only by the ambiguous ones.
    fn check_read_back(&self, cluster: &Cluster) {
        let t0 = Instant::now();
        let value = loop {
            if let Ok(TxnOutcome::Committed { results }) =
                cluster.submit(CLIENT, vec![counter::read(SERVER, 0)])
            {
                break counter::decode_value(&results[0]).expect("read decodes");
            }
            assert!(t0.elapsed() < Duration::from_secs(60), "read-back never committed");
            std::thread::sleep(Duration::from_millis(100));
        };
        assert!(
            value >= self.committed && value <= self.committed + self.ambiguous,
            "read {value} after {} committed and {} ambiguous increments",
            self.committed,
            self.ambiguous
        );
    }
}

/// Wait until no server's disk counters move for a while, and return
/// them: the last commit's records reach the backups after the client
/// hears the outcome.
fn quiesced(cluster: &Cluster) -> Vec<StoreMetrics> {
    let snapshot = || -> Vec<StoreMetrics> {
        SERVERS.iter().map(|&m| cluster.store_metrics(m).expect("durable cluster")).collect()
    };
    let t0 = Instant::now();
    let mut last = snapshot();
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = snapshot();
        if now == last || t0.elapsed() > Duration::from_secs(10) {
            return now;
        }
        last = now;
    }
}

fn durable_cluster(policy: FsyncPolicy) -> Cluster {
    ClusterBuilder::new()
        .durable(policy)
        .group(CLIENT, &[CLIENT_MID], || Box::new(NullModule))
        .group(SERVER, &SERVERS, || Box::new(counter::CounterModule))
        .start()
}

/// One script — a warm-up commit, then 20 serial increments on a
/// 3-server group — run in `World` and in a `Cluster`: every server
/// makes the same appends and the same fsyncs in both harnesses. Before
/// the harnesses shared the gate rule, the runtime flushed once per
/// pass under the lazy policies (21 fsyncs per server against 0 in the
/// simulator under `OnStableViewIdOnly`). For the lazy policies the
/// runtime then crashes and recovers a backup and keeps committing: the
/// fsyncs it no longer makes were not what kept commits safe.
#[test]
fn both_harnesses_append_and_fsync_alike_under_every_ungated_policy() {
    for policy in [FsyncPolicy::EveryRecord, FsyncPolicy::OnForce, FsyncPolicy::OnStableViewIdOnly]
    {
        let sim = sim_script(policy);
        assert!(sim.iter().all(|&(appends, _)| appends > 0), "{}: sim appended", policy.name());

        let cluster = durable_cluster(policy);
        let mut tally = Tally::default();
        tally.commit_increment(&cluster, Duration::from_secs(60));
        let before = quiesced(&cluster);
        for _ in 0..INCREMENTS {
            assert!(tally.submit_increment(&cluster), "{}: increment must commit", policy.name());
        }
        let runtime = deltas(&before, &quiesced(&cluster));
        assert_eq!(runtime, sim, "{}: per-server (appends, fsyncs), runtime vs sim", policy.name());

        if policy != FsyncPolicy::EveryRecord {
            cluster.crash(SERVERS[2]);
            cluster.recover(SERVERS[2]);
            for _ in 0..5 {
                tally.commit_increment(&cluster, Duration::from_secs(60));
            }
            tally.check_read_back(&cluster);
        }
        cluster.shutdown();
    }
}

/// A failed covering fsync is fatal to the cohort and acknowledges
/// nothing it was meant to cover: the group fails over and keeps
/// committing, and after the failed cohort is crashed and recovered a
/// committed read shows every committed increment.
#[test]
fn failed_covering_fsync_fails_over_without_losing_commits() {
    let cluster = durable_cluster(FsyncPolicy::Group { max_batch: 32, max_delay_ms: 5 });
    let mut tally = Tally::default();
    tally.commit_increment(&cluster, Duration::from_secs(60));
    let first_view = cluster.stable_viewid(SERVERS[1]).expect("backup is live");
    cluster.fail_next_syncs(SERVERS[0], 1);
    let t0 = Instant::now();
    let mut committed_after = 0;
    while committed_after < 10 || cluster.stable_viewid(SERVERS[1]) == Some(first_view) {
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "no failover: {committed_after} commits, view {:?}",
            cluster.stable_viewid(SERVERS[1])
        );
        if tally.submit_increment(&cluster) {
            committed_after += 1;
        }
    }
    cluster.crash(SERVERS[0]);
    cluster.recover(SERVERS[0]);
    tally.check_read_back(&cluster);
    cluster.shutdown();
}
