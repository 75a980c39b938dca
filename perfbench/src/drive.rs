//! Drives one workload against a live `vsr-runtime` cluster: repeated
//! set-up, a warm-up, the measured window, then a primary crash
//! (failover) and its recovery (rejoin) with the clients still
//! submitting, and finally the read-back that feeds the output check.

use crate::check::{balance, check_counts, Bounds, ClusterCounts, Counts, Outcome, Session};
use crate::workload::{self, Op, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use vsr_app::counter;
use vsr_core::cohort::TxnOutcome;
use vsr_core::config::CohortConfig;
use vsr_core::module::NullModule;
use vsr_core::types::{GroupId, Mid, ViewId};
use vsr_net::AddrMap;
use vsr_obs::{Metrics, TraceEvent, TraceKind};
use vsr_runtime::{Cluster, ClusterBuilder, SubmitError};
use vsr_store::FsyncPolicy;

/// The one-cohort client group: coordinates every increment.
pub const CLIENT: GroupId = GroupId(1);
/// The three-cohort counter group.
pub const SERVER: GroupId = GroupId(2);
const CLIENT_MID: Mid = Mid(10);
/// Server cohorts; the first is the bootstrap primary.
pub const SERVERS: [Mid; 3] = [Mid(1), Mid(2), Mid(3)];

/// Read-lease length on `read_mostly_tcp`, in ticks (ms): long against
/// the 20-tick heartbeat, so piggybacked renewals keep the lease live.
pub const LEASE_TICKS: u64 = 400;

/// Group commit as the runtime's own pipelining experiment configures
/// it (the policy has no library default).
pub const GROUP_COMMIT: FsyncPolicy = FsyncPolicy::Group { max_batch: 32, max_delay_ms: 5 };

/// Unmeasured load before the window, so caches, allocator pools and
/// lease renewals reach their steady state.
const WARMUP: Duration = Duration::from_millis(1000);

/// Longest the benchmark waits for readiness, failover or rejoin
/// before declaring the run broken.
const PATIENCE: Duration = Duration::from_secs(30);

/// A recovered cohort that has not rejoined after this long is
/// restarted. Rejoins take well under half a second otherwise.
const REJOIN_PATIENCE: Duration = Duration::from_secs(2);

const PHASE_WARMUP: u8 = 0;
const PHASE_WINDOW: u8 = 1;
const PHASE_FAULT: u8 = 2;
const PHASE_STOP: u8 = 3;

/// Library-default cohort tuning, with read leases on when the
/// workload leases.
fn config(workload: Workload) -> CohortConfig {
    let mut cfg = CohortConfig::new();
    if workload.leased() {
        cfg.lease_ticks = LEASE_TICKS;
    }
    cfg
}

/// Build the workload's cluster with library defaults, plus what the
/// workload is about: file WALs with group commit, or loopback TCP with
/// read leases.
pub fn build(workload: Workload, dir: &Path, tracing: bool) -> Result<Cluster, String> {
    let mut builder = ClusterBuilder::new()
        .cohorts(config(workload))
        .group(CLIENT, &[CLIENT_MID], || Box::new(NullModule))
        .group(SERVER, &SERVERS, || Box::new(counter::CounterModule));
    if tracing {
        builder = builder.tracing();
    }
    Ok(match workload {
        Workload::WriteMem => builder.start(),
        Workload::WriteDurable => builder.durable_files(dir, GROUP_COMMIT).start(),
        Workload::ReadMostlyTcp => {
            let addrs = AddrMap::loopback(&[CLIENT_MID, SERVERS[0], SERVERS[1], SERVERS[2]])
                .map_err(|e| format!("bind loopback listeners: {e}"))?;
            builder.networked(addrs).start()
        }
    })
}

/// Submit one op: increments go through the client group (the
/// two-phase path), reads straight to the server group (the lease fast
/// path when a lease is held).
pub fn submit(cluster: &Cluster, op: Op) -> Result<TxnOutcome, SubmitError> {
    match op {
        Op::Incr { object, delta } => {
            cluster.submit(CLIENT, vec![counter::incr(SERVER, object, delta)])
        }
        Op::Read { object } => cluster.submit(SERVER, vec![counter::read(SERVER, object)]),
    }
}

fn value_of(result: &Result<TxnOutcome, SubmitError>) -> Option<u64> {
    match result {
        Ok(TxnOutcome::Committed { results }) => counter::decode_value(results.first()?).ok(),
        _ => None,
    }
}

/// Everything a run submitted to one cluster, for the output check.
#[derive(Debug, Default)]
pub struct Tally {
    /// Every submission's outcome.
    pub counts: Counts,
    /// What the increments allow the final values to be.
    pub bounds: Bounds,
    /// Monotonic-read / read-your-writes violations.
    pub violations: Vec<String>,
    session: Session,
}

impl Tally {
    /// Submit `op`, account it, and return how it ended and how long it
    /// took.
    pub fn run(&mut self, cluster: &Cluster, op: Op) -> (Outcome, Option<u64>, Duration) {
        let t0 = Instant::now();
        let result = submit(cluster, op);
        let took = t0.elapsed();
        let outcome = Outcome::of(&result);
        self.counts.record(outcome);
        let value = value_of(&result);
        if let Op::Incr { object, delta } = op {
            self.bounds.incr(object, delta, outcome, took);
        }
        let seen = match (op, value) {
            (Op::Incr { object, delta }, Some(v)) => self.session.incr(object, delta, v),
            (Op::Read { object }, Some(v)) => self.session.read(object, v),
            (_, None) => Ok(()),
        };
        if let Err(e) = seen {
            self.violations.push(e);
        }
        (outcome, value, took)
    }
}

/// Build the cluster and wait until it serves: the first committed
/// transaction, plus the first leased read when the workload leases.
/// Returns the cluster and the set-up time.
pub fn set_up(
    workload: Workload,
    dir: &Path,
    tracing: bool,
    tally: &mut Tally,
) -> Result<(Cluster, Duration), String> {
    let t0 = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cluster = build(workload, dir, tracing)?;
    let ready = |tally: &mut Tally, op: Op, done: &dyn Fn(&Cluster, Outcome) -> bool| {
        while t0.elapsed() < PATIENCE {
            let (outcome, _, _) = tally.run(&cluster, op);
            if done(&cluster, outcome) {
                return true;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        false
    };
    let committed = |_: &Cluster, o: Outcome| o == Outcome::Committed;
    if !ready(tally, Op::Incr { object: 0, delta: 1 }, &committed) {
        return Err("the cluster never committed its first transaction".into());
    }
    let leased = |c: &Cluster, _: Outcome| c.metrics().leased_reads > 0;
    if workload.leased() && !ready(tally, Op::Read { object: 0 }, &leased) {
        return Err("the primary never served a leased read".into());
    }
    Ok((cluster, t0.elapsed()))
}

/// A committed transaction of the measured window (its submit span).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The issuing client.
    pub client: u32,
    /// The transaction's position in that client's submission order.
    pub seq: u64,
    /// Whether it was a read.
    pub read: bool,
    /// Submission time, nanoseconds after the run's epoch.
    pub start_ns: u64,
    /// Submit-to-outcome latency in nanoseconds.
    pub latency_ns: u64,
}

/// One client thread's record of a run.
#[derive(Debug, Default)]
struct ClientLog {
    tally: Tally,
    measured: Counts,
    fault: Counts,
    samples: Vec<Sample>,
}

/// Named cluster-lifecycle spans (crash, recover) of a run.
#[derive(Debug, Clone)]
pub struct Span {
    /// What happened.
    pub name: &'static str,
    /// Start, nanoseconds after the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Trace-event counts drained from a traced cluster during the window.
#[derive(Debug, Clone, Default)]
pub struct TraceCounts {
    /// Events by kind name.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Forces completed (`force-fire` events' `fired`, summed).
    pub forces_fired: u64,
}

impl TraceCounts {
    fn add(&mut self, events: &[TraceEvent]) {
        for e in events {
            *self.by_kind.entry(e.kind.name()).or_default() += 1;
            if let TraceKind::ForceFire { fired } = e.kind {
                self.forces_fired += fired;
            }
        }
    }
}

/// What one measured run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Length of the measured window.
    pub window: Duration,
    /// Process CPU time spent during the window.
    pub window_cpu: Duration,
    /// Committed transactions of the window.
    pub samples: Vec<Sample>,
    /// Submissions of the window: the run's ops.
    pub measured: Counts,
    /// Submissions of the fault phase (crash, failover and rejoin),
    /// where a view change may abort or cut off whatever is in flight.
    pub fault: Counts,
    /// Crash of the primary to the first commit submitted after it.
    pub failover: Duration,
    /// Recovery of the crashed cohort to its return to a formed view.
    pub rejoin: Duration,
    /// Cluster metrics at the window's start and end, and at the end of
    /// the fault phase.
    pub metrics: [Metrics; 3],
    /// WAL records one server cohort appended during the run.
    pub wal_records: u64,
    /// Final counter values read back after the run.
    pub finals: BTreeMap<u64, u64>,
    /// Trace-event counts of the window (traced clusters only).
    pub trace: TraceCounts,
    /// Crash and recover spans.
    pub spans: Vec<Span>,
    /// Output-check violations; empty when the run is correct.
    pub violations: Vec<String>,
    /// Why the round was disturbed (a view formed before its crash):
    /// it has no failover, rejoin or read-back, and is run again.
    pub disturbed: Option<String>,
}

fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Run `workload` on an already set-up cluster for a `window`, then
/// crash and recover its primary, stop the clients and read every
/// counter back. A round in which a view formed before the crash is
/// returned as disturbed, without crash, rejoin or read-back. `tally`
/// holds the submissions set-up already made.
pub fn run(
    cluster: &Cluster,
    workload: Workload,
    seed: u64,
    round: usize,
    window: Duration,
    tracing: bool,
    mut tally: Tally,
) -> Result<RunResult, String> {
    let scripts: Vec<Vec<Op>> =
        (0..workload.clients()).map(|c| workload::script(workload, seed, round, c)).collect();
    let epoch = Instant::now();
    let phase = AtomicU8::new(PHASE_WARMUP);
    // Submissions in flight that may belong to the window: the crash
    // waits until none is left, so no window op meets it.
    let window_in_flight = AtomicUsize::new(0);
    // Nanoseconds after `epoch` at which the crash completed (0: not
    // yet), and at which the first commit submitted after it returned.
    let crashed_at = AtomicU64::new(0);
    let first_commit = AtomicU64::new(u64::MAX);
    let mut trace = TraceCounts::default();
    // No new primary serves before the failure detector's suspicion
    // timeout has run, nor, with leases, before the previous primary's
    // lease has provably expired (ticks are milliseconds). A crash
    // followed by a commit sooner than half that hit a backup.
    let cfg = config(workload);
    let min_failover = Duration::from_millis(if workload.leased() {
        cfg.lease_wait_ticks() / 2
    } else {
        cfg.suspect_timeout / 2
    });
    let mut spans = Vec::new();

    let (logs, window_len, window_cpu, metrics, faults) = std::thread::scope(|s| {
        let clients: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(c, script)| {
                let (phase, window_in_flight) = (&phase, &window_in_flight);
                let (crashed_at, first_commit) = (&crashed_at, &first_commit);
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    for (seq, &op) in script.iter().cycle().enumerate() {
                        window_in_flight.fetch_add(1, Ordering::SeqCst);
                        let now_phase = phase.load(Ordering::SeqCst);
                        if now_phase != PHASE_WINDOW {
                            window_in_flight.fetch_sub(1, Ordering::SeqCst);
                        }
                        if now_phase == PHASE_STOP {
                            break;
                        }
                        let crash_done = crashed_at.load(Ordering::SeqCst);
                        let start_ns = since(epoch);
                        let (outcome, _, took) = log.tally.run(cluster, op);
                        match now_phase {
                            PHASE_WARMUP => continue,
                            PHASE_WINDOW => {
                                log.measured.record(outcome);
                                window_in_flight.fetch_sub(1, Ordering::SeqCst);
                            }
                            _ => log.fault.record(outcome),
                        }
                        if outcome != Outcome::Committed {
                            continue;
                        }
                        if now_phase == PHASE_WINDOW {
                            log.samples.push(Sample {
                                client: c as u32,
                                seq: seq as u64,
                                read: matches!(op, Op::Read { .. }),
                                start_ns,
                                latency_ns: took.as_nanos() as u64,
                            });
                        } else if crash_done != 0
                            && start_ns >= crash_done
                            && crashed_at.load(Ordering::SeqCst) == crash_done
                        {
                            first_commit
                                .fetch_min(start_ns + took.as_nanos() as u64, Ordering::SeqCst);
                        }
                    }
                    log
                })
            })
            .collect();

        let mut outcome = || -> Result<_, String> {
            std::thread::sleep(WARMUP);
            cluster.trace_events();
            let m0 = cluster.metrics();
            let cpu0 = crate::env::process_cpu();
            let t0 = Instant::now();
            phase.store(PHASE_WINDOW, Ordering::SeqCst);
            while t0.elapsed() < window {
                std::thread::sleep(
                    Duration::from_millis(100).min(window.saturating_sub(t0.elapsed())),
                );
                if tracing {
                    trace.add(&cluster.trace_events());
                }
            }
            phase.store(PHASE_FAULT, Ordering::SeqCst);
            while window_in_flight.load(Ordering::SeqCst) != 0 {
                std::thread::sleep(Duration::from_micros(50));
            }
            let window_len = t0.elapsed();
            let window_cpu = crate::env::process_cpu().saturating_sub(cpu0);
            let m1 = cluster.metrics();
            if tracing {
                trace.add(&cluster.trace_events());
            }
            // A fresh cluster's primary is its bootstrap primary, m1,
            // until a view forms. Once one has formed (a stall long
            // enough for a suspicion), which cohort leads cannot be told
            // from outside the cluster, so the round is disturbed and is
            // run again on a fresh cluster. So is a round whose crash of
            // m1 interrupts service for less than `min_failover`: a view
            // formed without m1 just before the crash.
            if m1.view_formations != 0 {
                let views = SERVERS.map(|m| cluster.stable_viewid(m));
                let reason = format!(
                    "{} views formed before the crash (stable viewids {views:?})",
                    m1.view_formations
                );
                return Ok((window_len, window_cpu, [m0, m1], Err(reason)));
            }
            let victim = SERVERS[0];
            let failover = crash(cluster, victim, epoch, &crashed_at, &first_commit, &mut spans)?;
            if failover < min_failover {
                let reason = format!(
                    "service resumed {:.3} ms after crashing {victim}: it was not the primary",
                    failover.as_secs_f64() * 1e3
                );
                return Ok((window_len, window_cpu, [m0, m1], Err(reason)));
            }
            let rejoin = rejoin(cluster, victim, epoch, &mut spans)?;
            println!(
                "crashed {victim}: first commit after {:.3} ms, rejoined after {:.3} ms",
                failover.as_secs_f64() * 1e3,
                rejoin.as_secs_f64() * 1e3
            );
            Ok((window_len, window_cpu, [m0, m1], Ok((failover, rejoin))))
        };
        let outcome = outcome();
        phase.store(PHASE_STOP, Ordering::SeqCst);
        let logs: Vec<ClientLog> =
            clients.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        outcome
            .map(|(w, cpu, [m0, m1], faults)| (logs, w, cpu, [m0, m1, cluster.metrics()], faults))
    })?;
    if tracing {
        cluster.trace_events();
    }

    let mut measured = Counts::default();
    let mut fault = Counts::default();
    let mut samples = Vec::new();
    let mut violations = Vec::new();
    for log in logs {
        tally.counts.add(&log.tally.counts);
        tally.bounds.add(&log.tally.bounds);
        violations.extend(log.tally.violations);
        measured.add(&log.measured);
        fault.add(&log.fault);
        samples.extend(log.samples);
    }

    // A disturbed round is not read back: its outputs are checked for
    // everything but the final values.
    let ((failover, rejoin), disturbed) = match faults {
        Ok(times) => (times, None),
        Err(reason) => ((Duration::ZERO, Duration::ZERO), Some(reason)),
    };
    let finals = match disturbed {
        None => read_back(cluster, workload, &mut tally)?,
        Some(_) => BTreeMap::new(),
    };
    violations.append(&mut tally.violations);
    if disturbed.is_none() {
        violations.extend(tally.bounds.check(&finals));
    }
    let end = cluster.metrics();
    let theirs = ClusterCounts {
        submitted: end.submitted,
        committed: end.committed,
        aborted: end.aborted,
        unresolved: end.unresolved,
    };
    violations.extend(check_counts(&tally.counts, &theirs));
    violations.extend(balance(&measured));
    violations.extend(balance(&fault));
    let wal_records = cluster.store_metrics(SERVERS[1]).map_or(0, |m| m.appends);

    Ok(RunResult {
        window: window_len,
        window_cpu,
        samples,
        measured,
        fault,
        failover,
        rejoin,
        metrics,
        wal_records,
        finals,
        trace,
        spans,
        violations,
        disturbed,
    })
}

/// Read every counter the workload can touch (and set-up's object 0)
/// back through the full two-phase path, counting the reads in `tally`.
pub fn read_back(
    cluster: &Cluster,
    workload: Workload,
    tally: &mut Tally,
) -> Result<BTreeMap<u64, u64>, String> {
    let mut finals = BTreeMap::new();
    for object in std::iter::once(0).chain(workload::objects(workload)) {
        let deadline = Instant::now() + PATIENCE;
        loop {
            let t0 = Instant::now();
            let result = cluster.submit(CLIENT, vec![counter::read(SERVER, object)]);
            tally.counts.record(Outcome::of(&result));
            if let Some(v) = value_of(&result) {
                finals.insert(object, v);
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("could not read object {object} back: {result:?}"));
            }
            std::thread::sleep(Duration::from_millis(10).saturating_sub(t0.elapsed()));
        }
    }
    Ok(finals)
}

/// Crash `victim` under load. Returns the time from the crash to the
/// first commit submitted after it.
fn crash(
    cluster: &Cluster,
    victim: Mid,
    epoch: Instant,
    crashed_at: &AtomicU64,
    first_commit: &AtomicU64,
    spans: &mut Vec<Span>,
) -> Result<Duration, String> {
    crashed_at.store(0, Ordering::SeqCst);
    first_commit.store(u64::MAX, Ordering::SeqCst);
    let crash_start = since(epoch);
    cluster.crash(victim);
    let crash_end = since(epoch);
    spans.push(Span { name: "crash", start_ns: crash_start, dur_ns: crash_end - crash_start });
    crashed_at.store(crash_end, Ordering::SeqCst);
    let waited = Instant::now();
    while first_commit.load(Ordering::SeqCst) == u64::MAX {
        if waited.elapsed() > PATIENCE {
            return Err(format!("no commit within {PATIENCE:?} of crashing {victim}"));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(Duration::from_nanos(first_commit.load(Ordering::SeqCst) - crash_start))
}

/// Recover the crashed `victim` under load. Returns the time from the
/// recovery to its return to a formed view newer than the one the
/// others failed over to.
fn rejoin(
    cluster: &Cluster,
    victim: Mid,
    epoch: Instant,
    spans: &mut Vec<Span>,
) -> Result<Duration, String> {
    let failed_over_to = SERVERS
        .iter()
        .filter(|&&m| m != victim)
        .filter_map(|&m| cluster.stable_viewid(m))
        .max()
        .ok_or("no live server cohort after failover")?;
    let recover_start = since(epoch);
    let t0 = Instant::now();
    cluster.recover(victim);
    let rejoined = || {
        let views: Vec<Option<ViewId>> =
            SERVERS.iter().map(|&m| cluster.stable_viewid(m)).collect();
        views.iter().all(|v| *v == views[0]) && views[0] > Some(failed_over_to)
    };
    let mut restarted = Instant::now();
    while !rejoined() {
        if t0.elapsed() > PATIENCE {
            let views = SERVERS.map(|m| cluster.stable_viewid(m));
            return Err(format!(
                "{victim} did not rejoin within {PATIENCE:?}: stable viewids {views:?}, \
                 failed over to {failed_over_to:?}"
            ));
        }
        if restarted.elapsed() > REJOIN_PATIENCE {
            // A recovered cohort can stay in a view of its own while the
            // others, whose heartbeats it keeps answering, never suspect
            // it (RATIONALE.md, Findings). Restart it, as an operator
            // would; `rejoin_ms` keeps counting from the first recovery.
            let views = SERVERS.map(|m| cluster.stable_viewid(m));
            println!("{victim} still outside the group ({views:?}): restarting it");
            cluster.crash(victim);
            cluster.recover(victim);
            restarted = Instant::now();
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let rejoin = t0.elapsed();
    spans.push(Span { name: "recover", start_ns: recover_start, dur_ns: rejoin.as_nanos() as u64 });
    Ok(rejoin)
}

/// A fresh directory for one cluster's WALs under `root`.
pub fn cluster_dir(root: &Path, tag: &str, n: usize) -> PathBuf {
    root.join(format!("{tag}-{}-{n}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_live_cluster_passes_the_check_and_a_wrong_tally_fails_it() {
        let dir = std::env::temp_dir().join(format!("perfbench-check-{}", std::process::id()));
        let mut tally = Tally::default();
        let (cluster, _) = set_up(Workload::WriteMem, &dir, false, &mut tally).unwrap();
        for op in workload::script(Workload::WriteMem, 5, 0, 0).into_iter().take(40) {
            assert_eq!(tally.run(&cluster, op).0, Outcome::Committed);
        }
        let finals = read_back(&cluster, Workload::WriteMem, &mut tally).unwrap();
        let m = cluster.metrics();
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let theirs = ClusterCounts {
            submitted: m.submitted,
            committed: m.committed,
            aborted: m.aborted,
            unresolved: m.unresolved,
        };
        assert!(tally.violations.is_empty());
        assert_eq!(tally.bounds.check(&finals), Vec::<String>::new());
        assert_eq!(check_counts(&tally.counts, &theirs), Vec::<String>::new());

        // One acknowledged increment the cluster never saw...
        let mut wrong = tally.bounds.clone();
        wrong.incr(1, 1, Outcome::Committed, Duration::ZERO);
        assert!(!wrong.check(&finals).is_empty());
        // ...or one submission too many in the outcome counts.
        let mut counts = tally.counts;
        counts.record(Outcome::Committed);
        assert!(!check_counts(&counts, &theirs).is_empty());
    }
}
