//! Fault injection plans: deterministic schedules of crashes,
//! recoveries, and partitions, including seeded random plans for
//! exploration-style testing (experiment E11).

use crate::world::World;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vsr_core::types::Mid;

/// One fault event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash a cohort (volatile state lost; its disk, if any, keeps the
    /// fsynced prefix).
    Crash(Mid),
    /// Crash a cohort and destroy its stable storage too: nothing
    /// survives, not even the Section 4.2 stable viewid.
    CrashDiskLoss(Mid),
    /// Recover a crashed cohort.
    Recover(Mid),
    /// Partition the network into the given groups.
    Partition(Vec<Vec<Mid>>),
    /// Heal all partitions.
    Heal,
    /// Block every directed link from a `from` member to a `to` member
    /// (asymmetric partition; reverse directions keep delivering).
    OneWay {
        /// Senders whose outbound traffic toward `to` is silenced.
        from: Vec<Mid>,
        /// Receivers that stop hearing from `from`.
        to: Vec<Mid>,
    },
    /// Remove all one-way blocks.
    HealOneWay,
    /// Override the loss probability of one link (both directions) to
    /// `permille`/1000. Stored per-mille so plans stay `Eq`/hashable.
    LinkLoss {
        /// One endpoint.
        a: Mid,
        /// The other endpoint.
        b: Mid,
        /// Loss probability in thousandths (500 = 50%).
        permille: u16,
    },
    /// Remove a per-link loss override.
    ClearLinkLoss {
        /// One endpoint.
        a: Mid,
        /// The other endpoint.
        b: Mid,
    },
    /// Make a node "gray": all its traffic takes `factor`× the sampled
    /// delay. `factor == 1` restores normal speed.
    SlowNode {
        /// The gray node.
        mid: Mid,
        /// Delay multiplier (1 = normal).
        factor: u64,
    },
    /// Skew the clocks of a cohort of nodes: timer offsets scale by
    /// `num / den`. `num == den` restores.
    SkewTimers {
        /// The skewed cohort members.
        mids: Vec<Mid>,
        /// Skew numerator.
        num: u64,
        /// Skew denominator.
        den: u64,
    },
    /// Silently drop every message whose wire name is listed (e.g.
    /// `"commit"`, `"init-view"`) until [`FaultEvent::ClearDropClasses`].
    DropClasses(Vec<String>),
    /// End a message-class drop window.
    ClearDropClasses,
    /// Corrupt the next `n` in-flight snapshot chunks (one flipped
    /// payload byte each). The per-chunk CRC must catch every one; a
    /// fetching cohort re-requests the affected index.
    CorruptChunks(u32),
}

/// A schedule of fault events at absolute times.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(time, event)` pairs; times need not be sorted.
    pub events: Vec<(u64, FaultEvent)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add an event.
    pub fn at(mut self, time: u64, event: FaultEvent) -> Self {
        self.events.push((time, event));
        self
    }

    /// Install every event into the world's control schedule.
    ///
    /// Application order is fully specified: events are sorted by time
    /// with a *stable* sort, so same-tick events run in the order they
    /// appear in [`events`](FaultPlan::events). A plan therefore means
    /// the same thing however its vector was assembled.
    pub fn apply(&self, world: &mut World) {
        let mut ordered: Vec<&(u64, FaultEvent)> = self.events.iter().collect();
        ordered.sort_by_key(|entry| entry.0);
        for (time, event) in ordered {
            world.schedule(*time, event.clone());
        }
    }

    /// Generate a seeded random plan over `mids` in the window
    /// `[start, end)`.
    ///
    /// Constraints that keep runs meaningful:
    ///
    /// * at most `max_concurrent_crashes` cohorts are down at once (pass
    ///   `f` for a `2f+1` group to stay within the protocol's tolerance);
    /// * every crashed cohort recovers, and partitions heal, by
    ///   `end + margin`, so the system can quiesce and be checked.
    pub fn random(
        seed: u64,
        mids: &[Mid],
        start: u64,
        end: u64,
        events: usize,
        max_concurrent_crashes: usize,
        allow_partitions: bool,
    ) -> Self {
        assert!(start < end, "empty fault window");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let mut crashed: Vec<Mid> = Vec::new();
        let mut partitioned = false;
        let mut times: Vec<u64> = (0..events).map(|_| rng.gen_range(start..end)).collect();
        // Stable sort: duplicate draws keep their draw order, so the
        // emitted event sequence — and hence the plan's meaning under
        // the stable-ordered `apply` — is a pure function of the seed.
        times.sort();
        for time in times {
            // Choose among the currently legal moves.
            let can_crash = crashed.len() < max_concurrent_crashes && crashed.len() < mids.len();
            let can_recover = !crashed.is_empty();
            let can_partition = allow_partitions && !partitioned && mids.len() >= 2;
            let can_heal = partitioned;
            let mut moves: Vec<u8> = Vec::new();
            if can_crash {
                moves.push(0);
            }
            if can_recover {
                moves.push(1);
            }
            if can_partition {
                moves.push(2);
            }
            if can_heal {
                moves.push(3);
            }
            if moves.is_empty() {
                continue;
            }
            match moves[rng.gen_range(0..moves.len())] {
                0 => {
                    let alive: Vec<Mid> =
                        mids.iter().copied().filter(|m| !crashed.contains(m)).collect();
                    let victim = alive[rng.gen_range(0..alive.len())];
                    crashed.push(victim);
                    plan.events.push((time, FaultEvent::Crash(victim)));
                }
                1 => {
                    let idx = rng.gen_range(0..crashed.len());
                    let back = crashed.remove(idx);
                    plan.events.push((time, FaultEvent::Recover(back)));
                }
                2 => {
                    // Random split into two non-empty sides.
                    let mut side_a = Vec::new();
                    let mut side_b = Vec::new();
                    for &m in mids {
                        if rng.gen_bool(0.5) {
                            side_a.push(m);
                        } else {
                            side_b.push(m);
                        }
                    }
                    if side_a.is_empty() || side_b.is_empty() {
                        continue;
                    }
                    partitioned = true;
                    plan.events.push((time, FaultEvent::Partition(vec![side_a, side_b])));
                }
                _ => {
                    partitioned = false;
                    plan.events.push((time, FaultEvent::Heal));
                }
            }
        }
        // Make the world whole again so invariants can be checked at
        // quiescence. The heal gets a tick of its own; recoveries start
        // one tick later so no tail event shares a tick with another
        // (generated events all land strictly before `end`).
        let margin = 1;
        if partitioned {
            plan.events.push((end + margin, FaultEvent::Heal));
        }
        for (i, mid) in crashed.into_iter().enumerate() {
            plan.events.push((end + margin + 1 + i as u64, FaultEvent::Recover(mid)));
        }
        plan
    }

    /// Generate a seeded *one-phase commit* plan (DESIGN §14): the
    /// faults land around the submissions of `txns` transactions spread
    /// evenly over `[start, end)`, in the windows where a one-group
    /// transaction's `PrepareCommit` and its answer are in flight. Per
    /// transaction, at most one of:
    ///
    /// * drop every `PrepareCommit`, or every answer (`CommitDone`,
    ///   `PrepareRefuse`), for a while, so the coordinator re-sends and
    ///   the participant must repeat its decision;
    /// * crash the coordinator primary (in `clients`) while its answer
    ///   is being dropped: between the send and the answer;
    /// * cut the participant primary off from its backups and crash it a
    ///   few ticks later: after its committed record's append and before
    ///   the force, or, earlier, after the call but before the
    ///   `PrepareCommit`, so the new primary refuses the lost records;
    ///   half the time the new primary's answers are then dropped for a
    ///   while, so the coordinator asks again after the decision.
    ///
    /// Every crash is recovered within the transaction's slot, and every
    /// drop window closes in it. Like the generic generator, the plan
    /// carries no cleanup tail.
    pub fn random_one_phase_nemesis(
        seed: u64,
        servers: &[Mid],
        clients: &[Mid],
        (start, end): (u64, u64),
        txns: usize,
    ) -> Self {
        assert!(start < end, "empty fault window");
        assert!(!servers.is_empty() && !clients.is_empty(), "one-phase plans need both groups");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let interval = (end - start) / txns.max(1) as u64;
        let answers = || vec!["commit-done".to_string(), "prepare-refuse".to_string()];
        for k in 0..txns as u64 {
            let t = start + k * interval;
            // The likely primary (the bootstrap one), or any member.
            let pick = |rng: &mut SmallRng, mids: &[Mid]| {
                if rng.gen_bool(0.7) {
                    mids[0]
                } else {
                    mids[rng.gen_range(0..mids.len())]
                }
            };
            match rng.gen_range(0..5u8) {
                0 => {}
                1 => {
                    plan.events
                        .push((t + 1, FaultEvent::DropClasses(vec!["prepare-commit".into()])));
                    plan.events
                        .push((t + rng.gen_range(100..400u64), FaultEvent::ClearDropClasses));
                }
                2 => {
                    plan.events.push((t + 1, FaultEvent::DropClasses(answers())));
                    plan.events
                        .push((t + rng.gen_range(100..400u64), FaultEvent::ClearDropClasses));
                }
                3 => {
                    let coordinator = pick(&mut rng, clients);
                    plan.events.push((t + 1, FaultEvent::DropClasses(answers())));
                    plan.events.push((t + rng.gen_range(6..30u64), FaultEvent::Crash(coordinator)));
                    plan.events.push((t + 60, FaultEvent::ClearDropClasses));
                    plan.events
                        .push((t + rng.gen_range(300..600u64), FaultEvent::Recover(coordinator)));
                }
                _ => {
                    let participant = pick(&mut rng, servers);
                    let classes = vec!["buffer-send".to_string(), "buffer-ack".to_string()];
                    plan.events.push((t + 1, FaultEvent::DropClasses(classes)));
                    plan.events.push((t + rng.gen_range(2..30u64), FaultEvent::Crash(participant)));
                    plan.events.push((t + 40, FaultEvent::ClearDropClasses));
                    if rng.gen_bool(0.5) {
                        // The new primary's answer is lost too, so the
                        // coordinator asks again after the decision.
                        plan.events.push((t + 41, FaultEvent::DropClasses(answers())));
                        plan.events
                            .push((t + rng.gen_range(300..700u64), FaultEvent::ClearDropClasses));
                    }
                    plan.events
                        .push((t + rng.gen_range(400..800u64), FaultEvent::Recover(participant)));
                }
            }
        }
        plan
    }

    /// Generate a seeded random *nemesis* plan over `mids` in the
    /// window `[start, end)`, drawing from the full fault vocabulary:
    /// crashes, symmetric and one-way partitions, per-link loss, gray
    /// slow nodes, timer skew, and targeted message-class drops.
    ///
    /// Unlike [`random`](FaultPlan::random), the plan carries **no
    /// cleanup tail**: the nemesis driver heals the world itself
    /// (`World::heal_all_faults` + recovering `World::crashed_mids`)
    /// before running the liveness oracle, so any subsequence of the
    /// plan — in particular a shrunk counterexample — is still a valid
    /// run. At most `max_concurrent_crashes` cohorts are down at once.
    pub fn random_nemesis(
        seed: u64,
        mids: &[Mid],
        start: u64,
        end: u64,
        events: usize,
        max_concurrent_crashes: usize,
    ) -> Self {
        Self::random_nemesis_durable(seed, mids, start, end, events, max_concurrent_crashes, false)
    }

    /// [`random_nemesis`](FaultPlan::random_nemesis) with the durable
    /// fault vocabulary: when `disk_loss` is set, a quarter of crash
    /// draws become [`FaultEvent::CrashDiskLoss`], so plans probe both
    /// crash-with-disk-intact and crash-with-disk-loss. The draw
    /// sequence differs from the non-durable generator even for the
    /// same seed; existing seed-pinned regressions keep their meaning.
    pub fn random_nemesis_durable(
        seed: u64,
        mids: &[Mid],
        start: u64,
        end: u64,
        events: usize,
        max_concurrent_crashes: usize,
        disk_loss: bool,
    ) -> Self {
        assert!(start < end, "empty fault window");
        assert!(mids.len() >= 2, "nemesis needs at least two cohorts");
        const CLASS_POOL: &[&[&str]] =
            &[&["commit"], &["init-view"], &["im-alive"], &["prepare", "prepare-ok"], &["invite"]];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let mut crashed: Vec<Mid> = Vec::new();
        let mut partitioned = false;
        let mut one_way = false;
        let mut slowed: Vec<Mid> = Vec::new();
        let mut skewed: Vec<Mid> = Vec::new();
        let mut class_drop = false;
        let mut lossy: Vec<(Mid, Mid)> = Vec::new();
        let mut times: Vec<u64> = (0..events).map(|_| rng.gen_range(start..end)).collect();
        times.sort();
        for time in times {
            let mut moves: Vec<u8> = Vec::new();
            if crashed.len() < max_concurrent_crashes && crashed.len() < mids.len() {
                moves.push(0); // crash
            }
            if !crashed.is_empty() {
                moves.push(1); // recover
            }
            if !partitioned {
                moves.push(2); // partition
            } else {
                moves.push(3); // heal
            }
            if !one_way {
                moves.push(4); // block one node's outbound links
            } else {
                moves.push(5); // heal one-way blocks
            }
            if slowed.len() < mids.len() {
                moves.push(6); // gray-slow a node
            }
            if !slowed.is_empty() {
                moves.push(7); // restore a slowed node
            }
            if skewed.is_empty() {
                moves.push(8); // skew a sub-cohort's timers
            } else {
                moves.push(9); // clear the skew
            }
            if !class_drop {
                moves.push(10); // start a message-class drop window
            } else {
                moves.push(11); // end it
            }
            if lossy.len() < 2 {
                moves.push(12); // degrade a link
            }
            if !lossy.is_empty() {
                moves.push(13); // restore a link
            }
            match moves[rng.gen_range(0..moves.len())] {
                0 => {
                    let alive: Vec<Mid> =
                        mids.iter().copied().filter(|m| !crashed.contains(m)).collect();
                    let victim = alive[rng.gen_range(0..alive.len())];
                    crashed.push(victim);
                    let event = if disk_loss && rng.gen_bool(0.25) {
                        FaultEvent::CrashDiskLoss(victim)
                    } else {
                        FaultEvent::Crash(victim)
                    };
                    plan.events.push((time, event));
                }
                1 => {
                    let back = crashed.remove(rng.gen_range(0..crashed.len()));
                    plan.events.push((time, FaultEvent::Recover(back)));
                }
                2 => {
                    let mut side_a = Vec::new();
                    let mut side_b = Vec::new();
                    for &m in mids {
                        if rng.gen_bool(0.5) {
                            side_a.push(m);
                        } else {
                            side_b.push(m);
                        }
                    }
                    if side_a.is_empty() || side_b.is_empty() {
                        continue;
                    }
                    partitioned = true;
                    plan.events.push((time, FaultEvent::Partition(vec![side_a, side_b])));
                }
                3 => {
                    partitioned = false;
                    plan.events.push((time, FaultEvent::Heal));
                }
                4 => {
                    // Silence one node's outbound links: it still hears
                    // the world but nobody hears it.
                    let victim = mids[rng.gen_range(0..mids.len())];
                    let rest: Vec<Mid> = mids.iter().copied().filter(|m| *m != victim).collect();
                    one_way = true;
                    plan.events.push((time, FaultEvent::OneWay { from: vec![victim], to: rest }));
                }
                5 => {
                    one_way = false;
                    plan.events.push((time, FaultEvent::HealOneWay));
                }
                6 => {
                    let candidates: Vec<Mid> =
                        mids.iter().copied().filter(|m| !slowed.contains(m)).collect();
                    let victim = candidates[rng.gen_range(0..candidates.len())];
                    let factor = rng.gen_range(2..=8);
                    slowed.push(victim);
                    plan.events.push((time, FaultEvent::SlowNode { mid: victim, factor }));
                }
                7 => {
                    let back = slowed.remove(rng.gen_range(0..slowed.len()));
                    plan.events.push((time, FaultEvent::SlowNode { mid: back, factor: 1 }));
                }
                8 => {
                    // Skew one or two cohort members, fast or slow.
                    let mut members = mids.to_vec();
                    for i in (1..members.len()).rev() {
                        members.swap(i, rng.gen_range(0..=i));
                    }
                    members.truncate(1 + rng.gen_range(0..2usize));
                    let (num, den) = *[(3u64, 2u64), (2, 1), (1, 2)]
                        .get(rng.gen_range(0..3usize))
                        .expect("in range");
                    skewed = members.clone();
                    plan.events.push((time, FaultEvent::SkewTimers { mids: members, num, den }));
                }
                9 => {
                    let members = std::mem::take(&mut skewed);
                    plan.events
                        .push((time, FaultEvent::SkewTimers { mids: members, num: 1, den: 1 }));
                }
                10 => {
                    let classes = CLASS_POOL[rng.gen_range(0..CLASS_POOL.len())];
                    class_drop = true;
                    plan.events.push((
                        time,
                        FaultEvent::DropClasses(classes.iter().map(|s| s.to_string()).collect()),
                    ));
                }
                11 => {
                    class_drop = false;
                    plan.events.push((time, FaultEvent::ClearDropClasses));
                }
                12 => {
                    let a = mids[rng.gen_range(0..mids.len())];
                    let b = mids[rng.gen_range(0..mids.len())];
                    if a == b || lossy.contains(&(a, b)) || lossy.contains(&(b, a)) {
                        continue;
                    }
                    // Drawn as u64 so the sample uses the same 64-bit
                    // uniform path as every other draw in this plan.
                    let permille = rng.gen_range(100..=500u64) as u16;
                    lossy.push((a, b));
                    plan.events.push((time, FaultEvent::LinkLoss { a, b, permille }));
                }
                _ => {
                    let (a, b) = lossy.remove(rng.gen_range(0..lossy.len()));
                    plan.events.push((time, FaultEvent::ClearLinkLoss { a, b }));
                }
            }
        }
        plan
    }

    /// Generate a seeded *lease-targeted* nemesis plan over `mids` in
    /// the window `[start, end)`.
    ///
    /// Where [`random_nemesis`](FaultPlan::random_nemesis) spreads its
    /// draws across the whole fault vocabulary, this generator
    /// concentrates on the scenarios that can break the read-lease
    /// safety argument:
    ///
    /// * **timer skew** on a sub-cohort (fast or slow by up to the
    ///   configured `lease_skew_bound`), so a leaseholder's clock and
    ///   the new primary's wait timer disagree;
    /// * **crashing the primary mid-lease** (the current leaseholder is
    ///   usually `Mid(1)`, the initial primary, or whoever took over),
    ///   forcing a view change while grants are live;
    /// * **one-way partitions** right after a crash, so `LeaseRevoke`
    ///   and view-change traffic is lost in one direction during the
    ///   reorganization.
    ///
    /// Like the generic generator, the plan carries no cleanup tail:
    /// the nemesis driver heals the world before the oracles fire, so
    /// shrunk subsequences stay valid runs.
    pub fn random_lease_nemesis(
        seed: u64,
        mids: &[Mid],
        start: u64,
        end: u64,
        events: usize,
    ) -> Self {
        assert!(start < end, "empty fault window");
        assert!(mids.len() >= 2, "nemesis needs at least two cohorts");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let mut crashed: Option<Mid> = None;
        let mut skewed: Vec<Mid> = Vec::new();
        let mut one_way = false;
        let mut times: Vec<u64> = (0..events).map(|_| rng.gen_range(start..end)).collect();
        times.sort();
        for time in times {
            let mut moves: Vec<u8> = Vec::new();
            if skewed.is_empty() {
                moves.push(0); // skew a sub-cohort's timers
                moves.push(0); // (weighted: skew is the point of the plan)
            } else {
                moves.push(1); // clear the skew
            }
            if crashed.is_none() {
                moves.push(2); // crash the (likely) leaseholder
            } else {
                moves.push(3); // recover it
                if !one_way {
                    moves.push(4); // one-way partition during the view change
                }
            }
            if one_way {
                moves.push(5); // heal the one-way blocks
            }
            match moves[rng.gen_range(0..moves.len())] {
                0 => {
                    let mut members = mids.to_vec();
                    for i in (1..members.len()).rev() {
                        members.swap(i, rng.gen_range(0..=i));
                    }
                    members.truncate(1 + rng.gen_range(0..2usize));
                    // The same skew pool the generic generator draws
                    // from: 1.5x slow, 2x slow, 2x fast — all within
                    // the default `lease_skew_bound` of 2, so the
                    // lease wait must still cover them.
                    let (num, den) = *[(3u64, 2u64), (2, 1), (1, 2)]
                        .get(rng.gen_range(0..3usize))
                        .expect("in range");
                    skewed = members.clone();
                    plan.events.push((time, FaultEvent::SkewTimers { mids: members, num, den }));
                }
                1 => {
                    let members = std::mem::take(&mut skewed);
                    plan.events
                        .push((time, FaultEvent::SkewTimers { mids: members, num: 1, den: 1 }));
                }
                2 => {
                    // Crash the initial primary (or, later in the run,
                    // a random cohort that may have taken over) while
                    // its lease grants are still live.
                    let victim = if rng.gen_bool(0.7) {
                        mids[0]
                    } else {
                        mids[rng.gen_range(0..mids.len())]
                    };
                    crashed = Some(victim);
                    plan.events.push((time, FaultEvent::Crash(victim)));
                }
                3 => {
                    let back = crashed.take().expect("move 3 requires a crash");
                    plan.events.push((time, FaultEvent::Recover(back)));
                }
                4 => {
                    // Silence one surviving cohort's outbound links
                    // while the view change runs: its LeaseRevoke and
                    // accept messages vanish, the reverse direction
                    // keeps delivering.
                    let down = crashed.expect("move 4 requires a crash");
                    let alive: Vec<Mid> = mids.iter().copied().filter(|m| *m != down).collect();
                    let victim = alive[rng.gen_range(0..alive.len())];
                    let rest: Vec<Mid> = alive.into_iter().filter(|m| *m != victim).collect();
                    one_way = true;
                    plan.events.push((time, FaultEvent::OneWay { from: vec![victim], to: rest }));
                }
                _ => {
                    one_way = false;
                    plan.events.push((time, FaultEvent::HealOneWay));
                }
            }
        }
        plan
    }

    /// Number of events in the plan.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "the plan-shape tests count a few fault classes and skip the rest"
)]
mod tests {
    use super::*;

    fn mids(n: u64) -> Vec<Mid> {
        (0..n).map(Mid).collect()
    }

    #[test]
    fn random_plan_is_deterministic() {
        let a = FaultPlan::random(5, &mids(5), 100, 1000, 10, 2, true);
        let b = FaultPlan::random(5, &mids(5), 100, 1000, 10, 2, true);
        assert_eq!(a, b);
        let c = FaultPlan::random(6, &mids(5), 100, 1000, 10, 2, true);
        assert_ne!(a, c);
    }

    #[test]
    fn crashes_bounded_and_all_recovered() {
        for seed in 0..20 {
            let plan = FaultPlan::random(seed, &mids(5), 0, 5000, 30, 2, true);
            let mut down = 0usize;
            let mut max_down = 0usize;
            let mut partitioned = false;
            let mut sorted = plan.events.clone();
            sorted.sort_by_key(|(t, _)| *t);
            for (_, ev) in &sorted {
                match ev {
                    FaultEvent::Crash(_) => {
                        down += 1;
                        max_down = max_down.max(down);
                    }
                    FaultEvent::Recover(_) => down -= 1,
                    FaultEvent::Partition(_) => partitioned = true,
                    FaultEvent::Heal => partitioned = false,
                    _ => {}
                }
            }
            assert!(max_down <= 2, "seed {seed}: too many concurrent crashes");
            assert_eq!(down, 0, "seed {seed}: some cohort never recovered");
            assert!(!partitioned, "seed {seed}: partition never healed");
        }
    }

    #[test]
    fn tail_events_never_share_a_tick() {
        // Regression: the forced cleanup tail used to put the Heal and
        // the first Recover on the same tick (`end + margin`), leaving
        // their relative order to whoever applied the plan.
        for seed in 0..50 {
            let plan = FaultPlan::random(seed, &mids(5), 0, 2000, 25, 2, true);
            let mut tail_times: Vec<u64> =
                plan.events.iter().map(|(t, _)| *t).filter(|t| *t >= 2000).collect();
            let unique = tail_times.len();
            tail_times.dedup();
            assert_eq!(unique, tail_times.len(), "seed {seed}: tail tick collision");
        }
    }

    #[test]
    fn same_tick_events_apply_in_vector_order() {
        use crate::world::WorldBuilder;
        use vsr_core::module::NullModule;
        use vsr_core::types::GroupId;

        // Regression: two plans with the same events at the same tick
        // but opposite vector order must produce opposite outcomes —
        // application order is the (time-stable-sorted) vector order,
        // not an accident of scheduling.
        let split = vec![vec![Mid(1)], vec![Mid(2), Mid(3)]];
        let run = |plan: &FaultPlan| {
            let mut w = WorldBuilder::new(1)
                .group(GroupId(1), &[Mid(1), Mid(2), Mid(3)], || Box::new(NullModule))
                .build();
            plan.apply(&mut w);
            w.run_for(500);
            // Heartbeats flow constantly; a standing partition bins them.
            w.net_stats().partitioned
        };

        let heal_last =
            FaultPlan::new().at(10, FaultEvent::Partition(split.clone())).at(10, FaultEvent::Heal);
        assert_eq!(run(&heal_last), 0, "heal-last leaves the network whole");

        let heal_first =
            FaultPlan::new().at(10, FaultEvent::Heal).at(10, FaultEvent::Partition(split));
        assert!(run(&heal_first) > 0, "heal-first leaves the partition standing");
    }

    #[test]
    fn nemesis_plan_is_deterministic_and_covers_fault_classes() {
        let a = FaultPlan::random_nemesis(3, &mids(5), 100, 4000, 30, 2);
        let b = FaultPlan::random_nemesis(3, &mids(5), 100, 4000, 30, 2);
        assert_eq!(a, b);

        // Across a modest seed sweep, every nemesis fault class shows up.
        let (mut one_way, mut slow, mut skew, mut class, mut loss) =
            (false, false, false, false, false);
        for seed in 0..30 {
            let plan = FaultPlan::random_nemesis(seed, &mids(5), 0, 4000, 30, 2);
            for (_, ev) in &plan.events {
                match ev {
                    FaultEvent::OneWay { .. } => one_way = true,
                    FaultEvent::SlowNode { factor, .. } if *factor > 1 => slow = true,
                    FaultEvent::SkewTimers { num, den, .. } if num != den => skew = true,
                    FaultEvent::DropClasses(_) => class = true,
                    FaultEvent::LinkLoss { .. } => loss = true,
                    _ => {}
                }
            }
        }
        assert!(one_way, "no one-way partition generated");
        assert!(slow, "no gray-slow node generated");
        assert!(skew, "no timer skew generated");
        assert!(class, "no message-class drop generated");
        assert!(loss, "no per-link loss generated");
    }

    #[test]
    fn nemesis_crash_bound_holds() {
        for seed in 0..30 {
            let plan = FaultPlan::random_nemesis(seed, &mids(5), 0, 4000, 2, 2);
            let mut down = 0usize;
            for (_, ev) in &plan.events {
                match ev {
                    FaultEvent::Crash(_) => {
                        down += 1;
                        assert!(down <= 2, "seed {seed}: crash bound exceeded");
                    }
                    FaultEvent::Recover(_) => down -= 1,
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn lease_nemesis_is_deterministic_and_targets_lease_scenarios() {
        let a = FaultPlan::random_lease_nemesis(7, &mids(5), 100, 4000, 20);
        let b = FaultPlan::random_lease_nemesis(7, &mids(5), 100, 4000, 20);
        assert_eq!(a, b);

        // Across a seed sweep, every lease-targeted fault class shows
        // up, crashes are bounded to one at a time, and the skew draws
        // stay within the default lease_skew_bound of 2.
        let (mut skew, mut primary_crash, mut one_way) = (false, false, false);
        for seed in 0..30 {
            let plan = FaultPlan::random_lease_nemesis(seed, &mids(5), 0, 4000, 20);
            let mut down = 0usize;
            for (_, ev) in &plan.events {
                match ev {
                    FaultEvent::SkewTimers { num, den, .. } if num != den => {
                        skew = true;
                        assert!(
                            *num <= 2 * *den && *den <= 2 * *num,
                            "seed {seed}: skew {num}/{den} exceeds bound 2"
                        );
                    }
                    FaultEvent::Crash(m) => {
                        down += 1;
                        assert!(down <= 1, "seed {seed}: concurrent crashes");
                        if *m == Mid(0) {
                            primary_crash = true;
                        }
                    }
                    FaultEvent::Recover(_) => down -= 1,
                    FaultEvent::OneWay { .. } => one_way = true,
                    _ => {}
                }
            }
        }
        assert!(skew, "no timer skew generated");
        assert!(primary_crash, "no initial-primary crash generated");
        assert!(one_way, "no one-way partition generated");
    }

    #[test]
    fn builder_api() {
        let plan =
            FaultPlan::new().at(10, FaultEvent::Crash(Mid(1))).at(50, FaultEvent::Recover(Mid(1)));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }
}
