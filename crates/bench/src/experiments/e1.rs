//! E1 — Normal-case cost of replication (Section 3.7).
//!
//! Claim: "Remote calls in our system run only at the primary and need
//! not involve the backups and therefore their performance is the same
//! as in a non-replicated system."
//!
//! We measure commit latency and per-transaction messages for VR with
//! 3 and 5 cohorts against an unreplicated server (with and without
//! forced stable-storage writes). The expected shape: VR's *latency* is
//! close to the unreplicated no-disk server (the client-visible path is
//! one call round trip plus one forced buffer round trip) and clearly
//! better than an unreplicated server whose stable storage is slower
//! than the network; VR pays extra *background* messages for
//! replication.

use crate::helpers::{read_ops, run_sequential_batch, vr_world, write_ops};
use crate::table::{f2, Table};
use vsr_baselines::unreplicated::Unreplicated;
use vsr_core::config::CohortConfig;
use vsr_simnet::NetConfig;

/// Disk latency (ticks) for the "disk = 10× net" unreplicated row.
const SLOW_DISK: u64 = 20;

/// Run the experiment, returning the rendered table.
pub fn run() -> String {
    let mut table = Table::new(
        "E1 — Normal-case cost: VR vs unreplicated (50 write txns, 50 read txns)",
        &["system", "write latency", "write msgs/txn (fg)", "read latency", "read msgs/txn (fg)"],
    );

    for n in [3u64, 5] {
        let mut world = vr_world(n, n, NetConfig::reliable(n), CohortConfig::new());
        let writes = run_sequential_batch(&mut world, 50, write_ops);
        let mut world = vr_world(n + 10, n, NetConfig::reliable(n), CohortConfig::new());
        let reads = run_sequential_batch(&mut world, 50, read_ops);
        table.row([
            format!("VR n={n}"),
            f2(writes.mean_latency),
            format!("{} ({})", f2(writes.msgs_per_txn), f2(writes.fg_msgs_per_txn)),
            f2(reads.mean_latency),
            format!("{} ({})", f2(reads.msgs_per_txn), f2(reads.fg_msgs_per_txn)),
        ]);
    }

    for (label, disk) in
        [("unreplicated (ideal disk)", 1u64), ("unreplicated (disk=10x net)", SLOW_DISK)]
    {
        let mut sim = Unreplicated::new(NetConfig::reliable(1), disk);
        let mut wl = 0.0;
        let mut wm = 0.0;
        for _ in 0..50 {
            let s = sim.write_txn().stats().expect("completes");
            wl += s.latency as f64;
            wm += s.messages as f64;
        }
        let mut rl = 0.0;
        let mut rm = 0.0;
        for _ in 0..50 {
            let s = sim.read_txn().stats().expect("completes");
            rl += s.latency as f64;
            rm += s.messages as f64;
        }
        table.row([
            label.to_string(),
            f2(wl / 50.0),
            format!("{} ({})", f2(wm / 50.0), f2(wm / 50.0)),
            f2(rl / 50.0),
            format!("{} ({})", f2(rm / 50.0), f2(rm / 50.0)),
        ]);
    }

    table.note(
        "Claim (§3.7): calls execute only at the primary, so VR's client-visible \
         cost tracks the non-replicated system; commit is one forced buffer round \
         trip, beating an unreplicated system whose disk is slower than the network. \
         Background columns show the replication stream the backups receive.",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vr_write_latency_beats_slow_disk_unreplicated() {
        let mut world = vr_world(1, 3, NetConfig::reliable(1), CohortConfig::new());
        let vr = run_sequential_batch(&mut world, 20, write_ops);
        let mut unrep = Unreplicated::new(NetConfig::reliable(1), SLOW_DISK);
        let mut total = 0.0;
        for _ in 0..20 {
            total += unrep.write_txn().stats().unwrap().latency as f64;
        }
        let unrep_mean = total / 20.0;
        assert!(
            vr.mean_latency < unrep_mean,
            "VR ({}) should beat slow-disk unreplicated ({unrep_mean})",
            vr.mean_latency
        );
    }

    #[test]
    fn vr_one_group_txns_commit_in_four_foreground_messages() {
        // Reads used to skip phase two and writes did not; a one-group
        // transaction of either kind now commits in one phase: call,
        // reply, prepare-commit, commit-done (DESIGN §14).
        let mut world = vr_world(2, 3, NetConfig::reliable(1), CohortConfig::new());
        let writes = run_sequential_batch(&mut world, 20, write_ops);
        let mut world = vr_world(3, 3, NetConfig::reliable(1), CohortConfig::new());
        let reads = run_sequential_batch(&mut world, 20, read_ops);
        assert_eq!(writes.fg_msgs_per_txn, 4.0);
        assert_eq!(reads.fg_msgs_per_txn, 4.0);
    }

    #[test]
    fn vr_read_only_txns_commit_faster_than_writes() {
        // A read-only participant votes once its call records are at a
        // sub-majority (usually already true) and leaves its committed
        // record unforced; a write waits for that record's force.
        let mut world = vr_world(2, 3, NetConfig::reliable(1), CohortConfig::new());
        let writes = run_sequential_batch(&mut world, 20, write_ops);
        let mut world = vr_world(3, 3, NetConfig::reliable(1), CohortConfig::new());
        let reads = run_sequential_batch(&mut world, 20, read_ops);
        assert!(
            reads.mean_latency < writes.mean_latency,
            "reads ({}) should commit faster than writes ({})",
            reads.mean_latency,
            writes.mean_latency
        );
    }

    #[test]
    fn render_contains_all_rows() {
        let s = run();
        assert!(s.contains("VR n=3"));
        assert!(s.contains("VR n=5"));
        assert!(s.contains("unreplicated (ideal disk)"));
    }
}
