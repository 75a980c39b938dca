//! E6 — Availability under failures (Sections 1 and 5).
//!
//! Claims: VR masks up to `f` of `2f+1` crashes and partitions (with a
//! short reorganization outage); Tandem-style pairs "can survive only a
//! single failure"; write-all voting loses write availability when any
//! single cohort is down.
//!
//! Each scheme attempts a write every 500 ticks for 30 000 ticks under
//! four fault scenarios; availability is the fraction of attempts that
//! complete.

use crate::helpers::{vr_world, CLIENT, SERVER};
use crate::table::{f2, Table};
use vsr_app::counter;
use vsr_baselines::primary_pair::PrimaryPair;
use vsr_baselines::unreplicated::Unreplicated;
use vsr_baselines::voting::Voting;
use vsr_core::cohort::TxnOutcome;
use vsr_core::config::CohortConfig;
use vsr_core::types::Mid;
use vsr_sim::fault::FaultEvent;
use vsr_simnet::NetConfig;

/// Fault scenarios applied to each scheme's replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// No faults.
    Healthy,
    /// Replica #2 (a backup in VR's bootstrap view) is down the whole
    /// time.
    OneDown,
    /// Replica #1 (VR's bootstrap primary) crashes at t=5000 and
    /// recovers at t=20000.
    PrimaryCrash,
    /// Two replicas down from t=5000 to t=20000.
    TwoDown,
}

impl Scenario {
    /// All scenarios in table order.
    pub fn all() -> [Scenario; 4] {
        [Scenario::Healthy, Scenario::OneDown, Scenario::PrimaryCrash, Scenario::TwoDown]
    }

    /// Column label.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Healthy => "healthy",
            Scenario::OneDown => "1 backup down",
            Scenario::PrimaryCrash => "primary crash+recover",
            Scenario::TwoDown => "2 of 3 down (15k ticks)",
        }
    }
}

const ATTEMPTS: u64 = 60;
const INTERVAL: u64 = 500;
const END: u64 = ATTEMPTS * INTERVAL + 10_000;

/// VR availability under a scenario (n = 3).
pub fn vr_availability(scenario: Scenario, seed: u64) -> f64 {
    let mut world = vr_world(seed, 3, NetConfig::reliable(seed), CohortConfig::new());
    match scenario {
        Scenario::Healthy => {}
        Scenario::OneDown => world.crash(Mid(2)),
        Scenario::PrimaryCrash => {
            world.schedule(5_000, FaultEvent::Crash(Mid(1)));
            world.schedule(20_000, FaultEvent::Recover(Mid(1)));
        }
        Scenario::TwoDown => {
            world.schedule(5_000, FaultEvent::Crash(Mid(2)));
            world.schedule(5_000, FaultEvent::Crash(Mid(3)));
            world.schedule(20_000, FaultEvent::Recover(Mid(2)));
            world.schedule(20_000, FaultEvent::Recover(Mid(3)));
        }
    }
    let mut reqs = Vec::new();
    for i in 0..ATTEMPTS {
        reqs.push(world.schedule_submit(
            500 + i * INTERVAL,
            CLIENT,
            vec![counter::incr(SERVER, 0, 1)],
        ));
    }
    world.run_until(END);
    let committed = reqs
        .iter()
        .filter(|&&r| {
            matches!(world.result(r).map(|x| &x.outcome), Some(TxnOutcome::Committed { .. }))
        })
        .count();
    committed as f64 / ATTEMPTS as f64
}

fn baseline_availability(mut attempt: impl FnMut(u64) -> bool) -> f64 {
    let mut ok = 0u64;
    for i in 0..ATTEMPTS {
        if attempt(500 + i * INTERVAL) {
            ok += 1;
        }
    }
    ok as f64 / ATTEMPTS as f64
}

fn in_outage(t: u64) -> bool {
    (5_000..20_000).contains(&t)
}

/// Voting (write-all) availability.
pub fn voting_write_all_availability(scenario: Scenario) -> f64 {
    let mut v = Voting::read_one_write_all(NetConfig::reliable(1), 3);
    let mut down: Vec<u64> = Vec::new();
    baseline_availability(|t| {
        let want_down: Vec<u64> = match scenario {
            Scenario::Healthy => vec![],
            Scenario::OneDown => vec![2],
            Scenario::PrimaryCrash => {
                if in_outage(t) {
                    vec![1]
                } else {
                    vec![]
                }
            }
            Scenario::TwoDown => {
                if in_outage(t) {
                    vec![2, 3]
                } else {
                    vec![]
                }
            }
        };
        for &r in &down {
            if !want_down.contains(&r) {
                v.recover(r);
            }
        }
        for &r in &want_down {
            if !down.contains(&r) {
                v.crash(r);
            }
        }
        down = want_down;
        v.write().is_done()
    })
}

/// Voting (majority) availability.
pub fn voting_majority_availability(scenario: Scenario) -> f64 {
    let mut v = Voting::majority(NetConfig::reliable(1), 3);
    let mut down: Vec<u64> = Vec::new();
    baseline_availability(|t| {
        let want_down: Vec<u64> = match scenario {
            Scenario::Healthy => vec![],
            Scenario::OneDown => vec![2],
            Scenario::PrimaryCrash => {
                if in_outage(t) {
                    vec![1]
                } else {
                    vec![]
                }
            }
            Scenario::TwoDown => {
                if in_outage(t) {
                    vec![2, 3]
                } else {
                    vec![]
                }
            }
        };
        for &r in &down {
            if !want_down.contains(&r) {
                v.recover(r);
            }
        }
        for &r in &want_down {
            if !down.contains(&r) {
                v.crash(r);
            }
        }
        down = want_down;
        v.write().is_done()
    })
}

/// Primary/backup pair availability (only two replicas exist; the
/// "TwoDown" scenario kills both, which is fatal even after recovery).
pub fn pair_availability(scenario: Scenario) -> f64 {
    let mut p = PrimaryPair::new(NetConfig::reliable(1));
    let mut down: Vec<u64> = Vec::new();
    baseline_availability(|t| {
        let want_down: Vec<u64> = match scenario {
            Scenario::Healthy => vec![],
            Scenario::OneDown => vec![2],
            Scenario::PrimaryCrash => {
                if in_outage(t) {
                    vec![1]
                } else {
                    vec![]
                }
            }
            Scenario::TwoDown => {
                if in_outage(t) {
                    vec![1, 2]
                } else {
                    vec![]
                }
            }
        };
        for &r in &down {
            if !want_down.contains(&r) {
                p.recover(r);
            }
        }
        for &r in &want_down {
            if !down.contains(&r) {
                p.crash(r);
            }
        }
        down = want_down;
        p.write().is_done()
    })
}

/// Unreplicated availability (one server; any crash is an outage).
pub fn unreplicated_availability(scenario: Scenario) -> f64 {
    let mut u = Unreplicated::new(NetConfig::reliable(1), 5);
    baseline_availability(|t| {
        let server_down = match scenario {
            Scenario::Healthy => false,
            Scenario::OneDown => false, // "backup" concept doesn't exist
            Scenario::PrimaryCrash | Scenario::TwoDown => in_outage(t),
        };
        if server_down {
            false
        } else {
            u.write_txn().is_done()
        }
    })
}

/// Run the experiment, returning the rendered table.
pub fn run() -> String {
    let mut table = Table::new(
        "E6 — Write availability (fraction of 60 attempts over 30k ticks)",
        &[
            "scheme",
            Scenario::Healthy.label(),
            Scenario::OneDown.label(),
            Scenario::PrimaryCrash.label(),
            Scenario::TwoDown.label(),
        ],
    );
    let vr: Vec<f64> = Scenario::all().iter().map(|&s| vr_availability(s, 9)).collect();
    table.row(["VR (n=3)".to_string(), f2(vr[0]), f2(vr[1]), f2(vr[2]), f2(vr[3])]);
    type AvailabilityFn = fn(Scenario) -> f64;
    let rows: [(&str, AvailabilityFn); 4] = [
        ("voting W=all (n=3)", voting_write_all_availability),
        ("voting majority (n=3)", voting_majority_availability),
        ("primary/backup pair", pair_availability),
        ("unreplicated", unreplicated_availability),
    ];
    for (label, f) in rows {
        let vals: Vec<f64> = Scenario::all().iter().map(|&s| f(s)).collect();
        table.row([label.to_string(), f2(vals[0]), f2(vals[1]), f2(vals[2]), f2(vals[3])]);
    }
    table.note(
        "Claims: VR masks any single failure (short reorganization dip on a primary \
         crash, full service with a backup down). Write-all voting loses all write \
         availability with one cohort down (§5). The Tandem-style pair survives one \
         failure but never recovers from losing both (§5). VR also cannot operate \
         without a majority — but recovers when cohorts return.",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vr_full_availability_with_backup_down() {
        assert_eq!(vr_availability(Scenario::OneDown, 1), 1.0);
    }

    #[test]
    fn vr_recovers_after_primary_crash() {
        // The reorganization completes within the clients' retry budget,
        // so availability stays near-perfect; at most a couple of
        // attempts land inside the detection window and abort.
        let a = vr_availability(Scenario::PrimaryCrash, 2);
        assert!(a >= 0.9, "almost all attempts commit despite the outage: {a}");
    }

    #[test]
    fn write_all_voting_blocked_by_one_down() {
        assert_eq!(voting_write_all_availability(Scenario::OneDown), 0.0);
        assert!(voting_majority_availability(Scenario::OneDown) > 0.99);
    }

    #[test]
    fn pair_dies_permanently_after_double_failure() {
        let a = pair_availability(Scenario::TwoDown);
        // Available before the outage only; never again after both die.
        let before = 5_000 / INTERVAL;
        assert!(a <= before as f64 / ATTEMPTS as f64 + 0.01, "pair never recovers: {a}");
    }

    #[test]
    fn renders() {
        assert!(run().contains("E6"));
    }
}
