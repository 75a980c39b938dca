//! E8 — The prepare fast path (Section 3.7).
//!
//! Claim: "We expect that prepare messages are usually processed
//! entirely at the primary because the needed 'completed-call' event
//! records for remote calls of the preparing transaction will already be
//! stored at a sub-majority of cohorts; otherwise, the primary must wait
//! while the relevant part of the buffer is forced to the backups."
//!
//! The background flush interval controls how quickly records reach the
//! backups, and the transaction's shape controls how much slack each
//! record has before the prepare arrives. We sweep both and report the
//! fraction of prepares that completed without waiting for a force.
//!
//! Only a transaction that spans two groups prepares: a one-group
//! transaction commits in one phase at its participant, whose force is
//! on the committed record it has just appended (DESIGN §14). So every
//! transaction here first reads a counter at a second group, then makes
//! its calls at the server group.

use crate::helpers::{server_mids, CLIENT, SERVER};
use crate::table::{f2o, Table};
use vsr_app::counter;
use vsr_core::config::CohortConfig;
use vsr_core::module::NullModule;
use vsr_core::types::{GroupId, Mid};
use vsr_sim::world::WorldBuilder;
use vsr_simnet::NetConfig;

/// The second group each transaction reads from first.
const OTHER: GroupId = GroupId(3);

/// Flush intervals swept (ticks; 0 = send on every add).
pub const FLUSH_INTERVALS: [u64; 5] = [0, 2, 5, 10, 30];

/// Measure the fast-path fraction for a flush interval and per-txn call
/// count.
pub fn fast_fraction(flush: u64, calls_per_txn: u64, seed: u64) -> Option<f64> {
    let mut cfg = CohortConfig::new();
    cfg.buffer_flush_interval = flush;
    let mut world = WorldBuilder::new(seed)
        .net(NetConfig::reliable(seed))
        .cohorts(cfg)
        .group(CLIENT, &[Mid(100)], || Box::new(NullModule))
        .group(SERVER, &server_mids(3), || Box::new(counter::CounterModule))
        .group(OTHER, &[Mid(4), Mid(5), Mid(6)], || Box::new(counter::CounterModule))
        .build();
    for _ in 0..30 {
        let ops = std::iter::once(counter::read(OTHER, 0))
            .chain((0..calls_per_txn).map(|c| counter::incr(SERVER, c, 1)))
            .collect::<Vec<_>>();
        world.submit(CLIENT, ops);
        world.run_for(1_500);
    }
    world.metrics().prepare_fast_fraction()
}

/// Run the experiment, returning the rendered table.
pub fn run() -> String {
    let mut table = Table::new(
        "E8 — Fraction of prepares processed without waiting for a force",
        &["flush interval (ticks)", "1+1-call txns", "1+3-call txns", "1+5-call txns"],
    );
    for flush in FLUSH_INTERVALS {
        table.row([
            flush.to_string(),
            f2o(fast_fraction(flush, 1, flush + 1)),
            f2o(fast_fraction(flush, 3, flush + 2)),
            f2o(fast_fraction(flush, 5, flush + 3)),
        ]);
    }
    table.note(
        "Claim (§3.7): with prompt background streaming (small flush interval) and \
         multi-call transactions (earlier records have slack while later calls run), \
         most prepares find their records already at a sub-majority and answer \
         without waiting. A lazy flush or a single-call transaction forces the \
         prepare to wait. Each transaction reads at a second group first (the \
         '1+'), since a one-group transaction commits in one phase and sends no \
         prepare.",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prompt_flush_with_multicall_txns_is_mostly_fast() {
        let frac = fast_fraction(0, 3, 1).expect("prepares happened");
        assert!(frac > 0.5, "fast-path fraction {frac}");
    }

    #[test]
    fn lazy_flush_forces_waits() {
        let lazy = fast_fraction(30, 1, 2).expect("prepares happened");
        let prompt = fast_fraction(0, 3, 3).expect("prepares happened");
        assert!(lazy < prompt, "lazy flush ({lazy}) waits more often than prompt ({prompt})");
    }

    #[test]
    fn renders() {
        assert!(run().contains("E8"));
    }
}
