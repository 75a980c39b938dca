//! E5 — The force-on-call tradeoff (Section 6).
//!
//! Claim: "There is a tradeoff here between loss of information in view
//! changes and speed of processing calls. For example, if
//! 'completed call' records were forced to the backups before the call
//! returned, there would be no aborts due to view changes, but calls
//! would be processed more slowly."
//!
//! We run the same crash-laced workload in both modes
//! (`eager_force_calls` on/off) with a deliberately lazy background
//! flush, and measure commit latency and the abort breakdown.

use crate::helpers::{vr_world, CLIENT, SERVER};
use crate::table::{f2, f2o, Table};
use vsr_app::counter;
use vsr_core::cohort::{AbortReason, TxnOutcome};
use vsr_core::config::CohortConfig;
use vsr_core::types::Mid;
use vsr_sim::fault::FaultEvent;
use vsr_simnet::NetConfig;

/// Results of one mode's run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModeResult {
    /// Committed transactions.
    pub committed: u64,
    /// Aborts caused by information loss at prepare (refused prepares).
    pub prepare_refused: u64,
    /// Other aborts (timeouts during the outage window).
    pub other_aborts: u64,
    /// Mean commit latency.
    pub mean_latency: Option<f64>,
}

/// Run the crash-laced workload in one mode.
///
/// The transactions are long (six calls each) so that the crash of the
/// server primary lands *mid-transaction*: calls completed before the
/// crash have unforced records (in background mode) that die with the
/// primary, and the transaction — which survives the outage thanks to a
/// generous call-retry budget — is then refused at prepare because its
/// pset is incompatible with the new view's history.
pub fn run_mode(eager: bool, seed: u64) -> ModeResult {
    let mut cfg = CohortConfig::new();
    cfg.eager_force_calls = eager;
    // A very lazy background flush widens the window in which an
    // unforced completed-call record can be lost with its primary.
    cfg.buffer_flush_interval = 60;
    // Let calls ride out the reorganization instead of aborting.
    cfg.call_attempts = 8;
    let mut world = vr_world(seed, 3, NetConfig::reliable(seed), cfg);

    // 12 long transactions; crash the serving primary three times, timed
    // to land mid-transaction.
    let mut reqs = Vec::new();
    for i in 0..12u64 {
        let ops = (0..6).map(|c| counter::incr(SERVER, (i * 6 + c) % 8, 1)).collect();
        reqs.push(world.schedule_submit(500 + i * 1_500, CLIENT, ops));
    }
    for (crash_at, recover_at) in [(2_030, 5_000), (8_030, 11_000), (14_030, 17_000)] {
        // Crash the bootstrap primary id each time; if a view change has
        // moved the primary this still perturbs the group.
        world.schedule(crash_at, FaultEvent::Crash(Mid(1)));
        world.schedule(recover_at, FaultEvent::Recover(Mid(1)));
    }
    world.run_until(60_000);

    let mut result = ModeResult::default();
    let mut latencies = Vec::new();
    for req in reqs {
        match world.result(req).map(|r| (&r.outcome, r.completed_at, r.submitted_at)) {
            Some((TxnOutcome::Committed { .. }, done, start)) => {
                result.committed += 1;
                latencies.push(done - start);
            }
            Some((TxnOutcome::Aborted { reason: AbortReason::PrepareRefused { .. } }, _, _)) => {
                result.prepare_refused += 1
            }
            Some((TxnOutcome::Aborted { .. }, _, _)) => result.other_aborts += 1,
            _ => result.other_aborts += 1,
        }
    }
    if !latencies.is_empty() {
        result.mean_latency = Some(latencies.iter().sum::<u64>() as f64 / latencies.len() as f64);
    }
    result
}

/// Run the experiment, returning the rendered table.
pub fn run() -> String {
    let mut table = Table::new(
        "E5 — Forcing completed-call records before replying (12 six-call txns, 3 mid-txn primary crashes, lazy flush)",
        &[
            "mode",
            "committed",
            "aborts: prepare refused (info lost)",
            "aborts: other",
            "mean commit latency",
        ],
    );
    let mut refused = [0u64; 2];
    let mut latency = [0f64; 2];
    for (i, eager) in [false, true].into_iter().enumerate() {
        let mut total = ModeResult::default();
        let mut lat_sum = 0.0;
        let mut lat_n = 0u32;
        for seed in 0..5u64 {
            let r = run_mode(eager, seed * 31 + 7);
            total.committed += r.committed;
            total.prepare_refused += r.prepare_refused;
            total.other_aborts += r.other_aborts;
            if let Some(l) = r.mean_latency {
                lat_sum += l;
                lat_n += 1;
            }
        }
        let mean = (lat_n > 0).then(|| lat_sum / lat_n as f64);
        refused[i] = total.prepare_refused;
        latency[i] = mean.unwrap_or(f64::NAN);
        table.row([
            if eager { "force before reply (eager)" } else { "background (paper default)" }
                .to_string(),
            total.committed.to_string(),
            total.prepare_refused.to_string(),
            total.other_aborts.to_string(),
            f2o(mean),
        ]);
    }
    table.note(&format!(
        "Claim (§6): eager forcing eliminates information-loss aborts \
         ({} -> {} refused prepares across 5 seeds) at the cost of slower calls \
         (mean commit latency {} -> {}).",
        refused[0],
        refused[1],
        f2(latency[0]),
        f2(latency[1]),
    ));
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_mode_eliminates_refused_prepares() {
        let mut eager_refused = 0;
        for seed in 0..3 {
            eager_refused += run_mode(true, seed).prepare_refused;
        }
        assert_eq!(eager_refused, 0, "eager forcing loses no call records");
    }

    #[test]
    fn eager_mode_is_slower_in_the_normal_case() {
        // Compare pure normal-case latency (no crashes) directly.
        use crate::helpers::{run_sequential_batch, write_ops};
        let mut cfg = CohortConfig::new();
        cfg.buffer_flush_interval = 10;
        let mut lazy_world = vr_world(1, 3, NetConfig::reliable(1), cfg.clone());
        let lazy = run_sequential_batch(&mut lazy_world, 20, write_ops);
        cfg.eager_force_calls = true;
        let mut eager_world = vr_world(1, 3, NetConfig::reliable(1), cfg);
        let eager = run_sequential_batch(&mut eager_world, 20, write_ops);
        assert!(
            eager.mean_latency > lazy.mean_latency,
            "eager ({}) should be slower than background ({})",
            eager.mean_latency,
            lazy.mean_latency
        );
    }

    #[test]
    fn renders() {
        assert!(run().contains("E5"));
    }
}
