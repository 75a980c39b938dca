//! A7 — Leased reads: read-heavy throughput with and without the
//! primary read-lease fast path, on the live thread runtime (wall
//! clock, like A6).
//!
//! DESIGN.md §16: while the primary holds lease grants from a
//! sub-majority of backups, a read-only single-group transaction is
//! served from the primary's committed state directly — no buffer
//! record, no force, no WAL append, no backup round trip. This
//! experiment measures what that buys under read-heavy closed-loop
//! load, the regime the fast path exists for:
//!
//! * committed transactions per second and p50/p99 latency, per
//!   (setup × read mix × leases on/off) cell;
//! * how much of the committed work actually rode the fast path
//!   (`leased_reads / committed`), which keeps the comparison honest —
//!   a cell where leases never formed would show a share near zero.
//!
//! `exp a7 <path>` additionally writes the points as JSON — the
//! `BENCH_leases.json` trajectory recorded by CI. Wall-clock numbers
//! vary across machines; the claims are the *ratios* between the
//! leases-on and leases-off rows of the same setup and mix.

use super::a6::{self, Setup};
use crate::table::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use vsr_app::counter;
use vsr_core::cohort::TxnOutcome;
use vsr_core::types::GroupId;

const CLIENT: GroupId = GroupId(1);
const SERVER: GroupId = GroupId(2);

/// Closed-loop client threads per cell: enough concurrency that the
/// replicated write path is actually pipelined (A6's knee), so the
/// lease speedup is measured against the *optimized* baseline, not a
/// serial strawman.
pub const CLIENTS: u32 = 8;

/// Read fractions swept: "mostly reads" and "almost only reads" — the
/// two regimes a primary-copy store with cached reads actually serves.
pub const READ_PCTS: [u32; 2] = [90, 99];

/// Lease length in cohort ticks for the leases-on cells. Long relative
/// to the heartbeat interval (20 ticks) so renewals keep the lease
/// continuously live for the whole window.
pub const LEASE_TICKS: u64 = 400;

/// Setups compared. `DurableEvery` is omitted: A6 already shows group
/// commit dominates it, so the interesting durable baseline is
/// `DurableGroup`.
pub const SETUPS: [Setup; 3] = [Setup::InMemory, Setup::DurableGroup, Setup::Networked];

/// One measured (setup, read mix, leases) cell.
#[derive(Debug, Clone, Copy)]
pub struct LeasePoint {
    /// Which cluster configuration ran.
    pub setup: &'static str,
    /// Percentage of submissions that were read-only transactions.
    pub read_pct: u32,
    /// Whether the lease fast path was enabled (`lease_ticks > 0`).
    pub leases: bool,
    /// Transactions committed inside the measurement window.
    pub committed: u64,
    /// Measurement window in milliseconds (actual, not requested).
    pub elapsed_ms: u64,
    /// Committed transactions per second.
    pub throughput: u64,
    /// Median commit latency in milliseconds (µs-resolution samples).
    pub p50_ms: f64,
    /// 99th-percentile commit latency in milliseconds (µs-resolution
    /// samples).
    pub p99_ms: f64,
    /// Read-only transactions served from the lease fast path.
    pub leased_reads: u64,
    /// Reads that asked for the fast path but fell back (no lease held
    /// at that instant).
    pub lease_read_rejected: u64,
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vsr-a7-{}-{}-{}", std::process::id(), tag, n))
}

/// Run one (setup, read mix, leases) cell: [`CLIENTS`] closed-loop
/// threads submitting a deterministic read/write interleave for
/// `window` of wall time. Writes go through the client group (the
/// coordinated two-phase path); reads are submitted straight to the
/// server group, where the primary serves them from its lease when it
/// holds one and through full replication when it does not.
pub fn measure(setup: Setup, read_pct: u32, leases: bool, window: Duration) -> LeasePoint {
    let dir = unique_dir(setup.name());
    let mut cfg = vsr_core::config::CohortConfig::new();
    if leases {
        cfg.lease_ticks = LEASE_TICKS;
    }
    let cluster = a6::build_with(setup, &dir, cfg);

    // Warm up: one committed write proves the bootstrap view formed and
    // gives every read below a value to observe.
    let mut warmed = false;
    for _ in 0..50 {
        if matches!(
            cluster.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]),
            Ok(TxnOutcome::Committed { .. })
        ) {
            warmed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(warmed, "cluster never formed its bootstrap view");
    if leases {
        // Give the first grants (piggybacked on heartbeats) a moment to
        // arrive so the window measures the steady state, not the ramp.
        std::thread::sleep(Duration::from_millis(200));
    }

    let committed = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..CLIENTS {
            let cluster = &cluster;
            let committed = &committed;
            s.spawn(move || {
                let object = u64::from(tid) + 1;
                let mut i = 0u32;
                while t0.elapsed() < window {
                    // Deterministic interleave: out of every 100
                    // submissions, `100 - read_pct` are writes.
                    let write = i % 100 < 100 - read_pct;
                    i += 1;
                    let outcome = if write {
                        cluster.submit(CLIENT, vec![counter::incr(SERVER, object, 1)])
                    } else {
                        cluster.submit(SERVER, vec![counter::read(SERVER, object)])
                    };
                    if matches!(outcome, Ok(TxnOutcome::Committed { .. })) {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    let m = cluster.metrics();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let committed = committed.into_inner();
    let elapsed_ms = elapsed.as_millis().max(1) as u64;
    LeasePoint {
        setup: setup.name(),
        read_pct,
        leases,
        committed,
        elapsed_ms,
        throughput: committed * 1_000 / elapsed_ms,
        p50_ms: m.latency_percentile(0.50).unwrap_or(0) as f64 / 1_000.0,
        p99_ms: m.latency_percentile(0.99).unwrap_or(0) as f64 / 1_000.0,
        leased_reads: m.leased_reads,
        lease_read_rejected: m.lease_read_rejected,
    }
}

/// The full sweep: every setup × read mix × leases off/on.
pub fn measure_all(window: Duration) -> Vec<LeasePoint> {
    SETUPS
        .iter()
        .flat_map(|&setup| {
            READ_PCTS.iter().flat_map(move |&pct| {
                [false, true].into_iter().map(move |leases| measure(setup, pct, leases, window))
            })
        })
        .collect()
}

/// Render the measured points as the experiment table.
pub fn render(points: &[LeasePoint]) -> String {
    let mut table = Table::new(
        "A7 — Leased reads: read-heavy throughput with and without the primary \
         lease fast path (live runtime, wall clock)",
        &["setup", "reads", "leases", "tx/s", "p50 (ms)", "p99 (ms)", "leased reads", "rejected"],
    );
    for p in points {
        table.row([
            p.setup.to_string(),
            format!("{}%", p.read_pct),
            if p.leases { "on" } else { "off" }.to_string(),
            p.throughput.to_string(),
            format!("{:.3}", p.p50_ms),
            format!("{:.3}", p.p99_ms),
            p.leased_reads.to_string(),
            p.lease_read_rejected.to_string(),
        ]);
    }
    table.note(
        "Claim (DESIGN §16): while the primary holds grants from a sub-majority \
         of backups, read-only transactions bypass the buffer, the WAL, and the \
         backup round trip entirely, so read-heavy throughput decouples from \
         the durability and transport cost of the write path. The leases-on row \
         of each (setup, mix) pair should dominate its leases-off row, most \
         dramatically where writes are most expensive (durable-group, \
         networked) and reads most common (99%).",
    );
    table.render()
}

/// Serialize the points as the `BENCH_leases.json` trajectory.
pub fn to_json(points: &[LeasePoint]) -> String {
    let mut out = String::from(
        "{\n  \"experiment\": \"A7\",\n  \"title\": \
         \"leased reads: read-heavy throughput vs setup x mix x leases\",\n  \"points\": [\n",
    );
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"setup\": \"{}\", \"read_pct\": {}, \"leases\": {}, \
             \"committed\": {}, \"elapsed_ms\": {}, \"throughput\": {}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"leased_reads\": {}, \
             \"lease_read_rejected\": {}}}{}\n",
            p.setup,
            p.read_pct,
            p.leases,
            p.committed,
            p.elapsed_ms,
            p.throughput,
            p.p50_ms,
            p.p99_ms,
            p.leased_reads,
            p.lease_read_rejected,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Run the experiment with the standard window, returning the table.
pub fn run() -> String {
    render(&measure_all(Duration::from_millis(1_000)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leased_cell_takes_the_fast_path() {
        let p = measure(Setup::InMemory, 99, true, Duration::from_millis(500));
        assert!(p.committed > 0, "leased cell commits");
        assert!(
            p.leased_reads > 0,
            "reads must ride the lease fast path (rejected: {})",
            p.lease_read_rejected
        );
    }

    #[test]
    fn unleased_cell_never_takes_the_fast_path() {
        let p = measure(Setup::InMemory, 90, false, Duration::from_millis(300));
        assert!(p.committed > 0, "baseline cell commits");
        assert_eq!(p.leased_reads, 0, "no lease, no fast path");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let points = [measure(Setup::InMemory, 90, true, Duration::from_millis(200))];
        let json = to_json(&points);
        assert!(json.contains("\"experiment\": \"A7\""));
        assert!(json.contains("\"leases\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
