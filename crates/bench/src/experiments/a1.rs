//! A1 (ablation) — Failure-detection timeout tradeoff (Section 4.1).
//!
//! "To avoid such a situation, a manager should use a fairly long
//! timeout … Similarly, an underling should use a fairly long timeout
//! before it becomes a manager. In addition, it is worthwhile to mask
//! lost messages by sending duplicates, so that a lost message won't
//! trigger another view change."
//!
//! We sweep the suspicion timeout on a lossy network with one real
//! primary crash: a short timeout detects the crash quickly but
//! misfires on ordinary message loss (spurious view changes); a long
//! timeout is calm but slow to restore service.

use crate::helpers::{vr_world, CLIENT, SERVER};
use crate::table::{f2, Table};
use vsr_app::counter;
use vsr_core::cohort::TxnOutcome;
use vsr_core::config::CohortConfig;
use vsr_core::types::Mid;
use vsr_sim::fault::FaultEvent;
use vsr_simnet::NetConfig;

/// Suspicion timeouts swept (heartbeat interval is 20 ticks).
pub const TIMEOUTS: [u64; 4] = [40, 100, 250, 600];

/// One timeout's measurements, averaged over seeds.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeoutResult {
    /// View formations per run (1 is the necessary minimum for the
    /// injected crash; more is churn).
    pub view_formations: f64,
    /// Fraction of the 40 submissions that committed.
    pub availability: f64,
}

/// Measure one suspicion timeout over several seeds.
pub fn measure(suspect_timeout: u64, seeds: u64) -> TimeoutResult {
    let mut total = TimeoutResult::default();
    for seed in 0..seeds {
        let mut cfg = CohortConfig::new();
        cfg.suspect_timeout = suspect_timeout;
        // Lossy enough that short timeouts misfire.
        let net = NetConfig { min_delay: 1, max_delay: 12, drop_prob: 0.12, dup_prob: 0.0, seed };
        let mut world = vr_world(seed * 17 + suspect_timeout, 3, net, cfg);
        let mut reqs = Vec::new();
        for i in 0..40u64 {
            reqs.push(world.schedule_submit(
                300 + i * 500,
                CLIENT,
                vec![counter::incr(SERVER, 0, 1)],
            ));
        }
        world.schedule(8_000, FaultEvent::Crash(Mid(1)));
        world.schedule(16_000, FaultEvent::Recover(Mid(1)));
        world.run_until(35_000);
        let committed = reqs
            .iter()
            .filter(|&&r| {
                matches!(world.result(r).map(|x| &x.outcome), Some(TxnOutcome::Committed { .. }))
            })
            .count();
        total.view_formations += world.metrics().view_formations as f64;
        total.availability += committed as f64 / reqs.len() as f64;
    }
    TimeoutResult {
        view_formations: total.view_formations / seeds as f64,
        availability: total.availability / seeds as f64,
    }
}

/// Run the ablation, returning the rendered table.
pub fn run() -> String {
    let mut table = Table::new(
        "A1 — Suspicion timeout ablation (lossy net, one primary crash, 6 seeds)",
        &["suspect timeout (ticks)", "view formations / run", "availability"],
    );
    for timeout in TIMEOUTS {
        let r = measure(timeout, 6);
        table.row([timeout.to_string(), f2(r.view_formations), f2(r.availability)]);
    }
    table.note(
        "Claim (§4.1): short timeouts misread message loss as failure and churn \
         through needless view changes; very long timeouts keep the group calm but \
         stretch the outage after the real crash. The paper's advice — fairly long \
         timeouts plus retransmission masking — lands in the middle of this sweep.",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_timeout_churns_more() {
        let short = measure(40, 3);
        let long = measure(600, 3);
        assert!(
            short.view_formations > long.view_formations,
            "short {} vs long {}",
            short.view_formations,
            long.view_formations
        );
    }

    #[test]
    fn renders() {
        assert!(run().contains("A1"));
    }
}
