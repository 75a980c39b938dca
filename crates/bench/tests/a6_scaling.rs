//! A6's direction check: concurrent clients raise in-memory throughput.
//!
//! It compares two wall-clock windows on the live runtime, so it runs
//! in a test binary of its own. Every cohort of a cluster shares one
//! host thread, and in a debug build that thread is busy for most of a
//! single client's transaction; a second test in the same binary takes
//! the other core from the clients and the host and can turn the
//! comparison around.

use std::time::Duration;
use vsr_bench::experiments::a6::{measure, Setup};

#[test]
fn concurrent_clients_raise_in_memory_throughput() {
    let one = measure(Setup::InMemory, 1, Duration::from_millis(500));
    let eight = measure(Setup::InMemory, 8, Duration::from_millis(500));
    assert!(one.committed > 0 && eight.committed > 0, "both cells commit");
    // The release-mode `exp a6` run records the full ratio
    // (EXPERIMENTS.md A6); a debug-mode test on a loaded machine only
    // checks the direction of the effect.
    assert!(
        eight.throughput > one.throughput,
        "8 clients must out-commit 1 ({} vs {} tx/s)",
        eight.throughput,
        one.throughput
    );
}
