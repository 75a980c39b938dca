//! Clusters give back what they took: after `shutdown`, every thread a
//! cluster started has ended and the process's resident set does not
//! climb from one cluster to the next.
//!
//! Its own test binary, with one test, so no other test's threads or
//! allocations share the process while it counts.

use std::time::{Duration, Instant};
use vsr_app::counter::{self, CounterModule};
use vsr_core::cohort::TxnOutcome;
use vsr_core::module::NullModule;
use vsr_core::types::{GroupId, Mid};
use vsr_net::AddrMap;
use vsr_runtime::{Cluster, ClusterBuilder};
use vsr_store::FsyncPolicy;

const CLIENT: GroupId = GroupId(1);
const SERVER: GroupId = GroupId(2);
const MIDS: [Mid; 4] = [Mid(10), Mid(1), Mid(2), Mid(3)];

/// Build/submit/shutdown cycles per mode.
const CYCLES: usize = 12;
/// How far the resident set may rise over the cycles after the first
/// of each mode, which pays for lazily initialized state (allocator
/// arenas, the first thread stacks, loaded code pages). A cluster that
/// kept its cohorts' state would add about 1 MiB per cycle.
const RSS_SLACK_KIB: u64 = 4 * 1024;

#[derive(Clone, Copy, Debug)]
enum Mode {
    InMemory,
    GroupCommit,
    Networked,
}

fn build(mode: Mode) -> Cluster {
    let builder = ClusterBuilder::new().group(CLIENT, &[MIDS[0]], || Box::new(NullModule)).group(
        SERVER,
        &MIDS[1..],
        || Box::new(CounterModule),
    );
    match mode {
        Mode::InMemory => builder.start(),
        Mode::GroupCommit => {
            builder.durable(FsyncPolicy::Group { max_batch: 64, max_delay_ms: 5 }).start()
        }
        Mode::Networked => {
            builder.networked(AddrMap::loopback(&MIDS).expect("bind loopback")).start()
        }
    }
}

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Wait (briefly) for the thread count to fall back to `baseline`.
fn settled_threads(baseline: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = threads();
        if n <= baseline || Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn shutdown_returns_threads_and_memory() {
    if threads() == 0 {
        return; // no /proc: nothing to count
    }
    let baseline = threads();
    for mode in [Mode::InMemory, Mode::GroupCommit, Mode::Networked] {
        let mut after_first = 0;
        for cycle in 0..CYCLES {
            let cluster = build(mode);
            for i in 0..20u64 {
                let outcome = cluster.submit(CLIENT, vec![counter::incr(SERVER, i % 4, 1)]);
                assert!(
                    matches!(outcome, Ok(TxnOutcome::Committed { .. })),
                    "{mode:?} cycle {cycle}: {outcome:?}"
                );
            }
            cluster.shutdown();
            let left = settled_threads(baseline);
            assert_eq!(left, baseline, "{mode:?} cycle {cycle}: threads outlived shutdown");
            if cycle == 0 {
                after_first = rss_kib();
            }
        }
        let grown = rss_kib().saturating_sub(after_first);
        println!("{mode:?}: resident set grew {grown} KiB over {} cycles", CYCLES - 1);
        assert!(
            grown <= RSS_SLACK_KIB,
            "{mode:?}: resident set grew {grown} KiB over {} cycles (bound {RSS_SLACK_KIB})",
            CYCLES - 1
        );
    }
}
