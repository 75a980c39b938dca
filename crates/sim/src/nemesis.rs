//! The nemesis driver: runs seeded adversarial fault plans against a
//! replicated counter group, checks the safety oracles *and* a
//! liveness oracle after the world heals, and shrinks failing plans to
//! minimal ready-to-paste counterexamples.
//!
//! The flow per plan:
//!
//! 1. build a fresh world (one client group, one `2f+1` server group);
//! 2. apply the fault plan and a transaction workload spread across the
//!    fault window;
//! 3. run to the end of the window, then (by default) heal every
//!    network fault and recover every crashed cohort — plans therefore
//!    do not need self-cleaning tails, which keeps *any* subsequence of
//!    a plan a valid run and makes shrinking sound;
//! 4. run a quiescence period;
//! 5. check safety ([`World::verify`]) and liveness
//!    ([`World::check_liveness`]).

use crate::fault::{FaultEvent, FaultPlan};
use crate::world::{World, WorldBuilder};
use vsr_app::counter::{self, CounterModule};
use vsr_core::config::CohortConfig;
use vsr_core::module::NullModule;
use vsr_core::types::{GroupId, Mid};
use vsr_simnet::NetConfig;
use vsr_store::FsyncPolicy;

/// The client group in nemesis worlds.
pub const CLIENT: GroupId = GroupId(1);
/// The replicated server group in nemesis worlds.
pub const SERVER: GroupId = GroupId(2);
/// The client cohort's mid.
pub const CLIENT_MID: Mid = Mid(100);

/// Parameters of a nemesis run.
#[derive(Debug, Clone)]
pub struct NemesisConfig {
    /// World seed (network delays, loss draws).
    pub seed: u64,
    /// Server group size (use `2f + 1`).
    pub cohorts: usize,
    /// Fault window `[start, end)`.
    pub window: (u64, u64),
    /// Transactions submitted across the window.
    pub txns: usize,
    /// Ticks to run after healing before the oracles fire.
    pub quiesce: u64,
    /// Whether step 3 heals faults and recovers crashed cohorts before
    /// the quiescence period. Disable to probe *unhealed* scenarios
    /// (e.g. permanent majority loss) against the liveness oracle.
    pub heal_before_check: bool,
    /// Give every server cohort a fault-injectable simulated disk with
    /// this fsync policy. Plans then also draw crash-with-disk-loss
    /// faults, and the liveness oracle tightens automatically: a
    /// group-wide crash with intact `EveryRecord` disks recovers up to
    /// date, so a wedge after it is a liveness *bug*, not an excusable
    /// catastrophe. `None` (the default) runs the paper's no-disk
    /// design.
    pub durability: Option<FsyncPolicy>,
    /// Enable primary read leases with this duration in ticks (0, the
    /// default, leaves them off). When set, [`sweep`] draws plans from
    /// the lease-targeted generator
    /// ([`FaultPlan::random_lease_nemesis`]), the workload turns
    /// read-heavy (read-only transactions submitted straight to the
    /// server group, which self-coordinates them onto the leased fast
    /// path), and the stale-read oracle in [`World::verify`] checks
    /// every leased read against the committed version chain.
    pub lease_ticks: u64,
    /// Run the one-phase commit class (DESIGN §14): the client group gets
    /// three cohorts, so its primary can crash and be replaced; the
    /// network duplicates a tenth of all messages; and [`sweep`] draws
    /// plans from [`FaultPlan::random_one_phase_nemesis`], which drops
    /// `PrepareCommit` and its answers and crashes the coordinator and
    /// the participant primary inside the commit window.
    pub one_phase: bool,
}

impl Default for NemesisConfig {
    fn default() -> Self {
        NemesisConfig {
            seed: 0,
            cohorts: 5,
            window: (200, 8_000),
            txns: 8,
            quiesce: 12_000,
            heal_before_check: true,
            durability: None,
            lease_ticks: 0,
            one_phase: false,
        }
    }
}

impl NemesisConfig {
    /// The server cohort mids for this configuration.
    pub fn server_mids(&self) -> Vec<Mid> {
        (1..=self.cohorts as u64).map(Mid).collect()
    }

    /// The client (coordinator) group's mids, the first its bootstrap
    /// primary.
    pub fn client_mids(&self) -> Vec<Mid> {
        let n = if self.one_phase { 3 } else { 1 };
        (0..n).map(|i| Mid(CLIENT_MID.0 + i)).collect()
    }
}

/// Why a nemesis run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NemesisFailure {
    /// A safety invariant broke (divergence, lost commit, serializability).
    Safety(String),
    /// The world never recovered even though view formation is still
    /// possible (stuck view change, undecided txn) — a liveness bug.
    Liveness(String),
    /// The world is wedged *and* the formation rule says no view can
    /// ever form again: the plan destroyed the volatile state of every
    /// cohort that might hold forced information (the paper's Section
    /// 4.2 catastrophe). This is the specified behaviour under an
    /// unrecoverable fault load, not a bug; [`sweep`] excuses it.
    Catastrophe(String),
}

impl std::fmt::Display for NemesisFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NemesisFailure::Safety(msg) => write!(f, "safety violation: {msg}"),
            NemesisFailure::Liveness(msg) => write!(f, "liveness violation: {msg}"),
            NemesisFailure::Catastrophe(msg) => {
                write!(f, "catastrophe (wedged as specified): {msg}")
            }
        }
    }
}

fn build_world(cfg: &NemesisConfig) -> World {
    let mids = cfg.server_mids();
    let mut builder = WorldBuilder::new(cfg.seed)
        .cohorts(CohortConfig { lease_ticks: cfg.lease_ticks, ..CohortConfig::new() })
        .group(CLIENT, &cfg.client_mids(), || Box::new(NullModule))
        .group(SERVER, &mids, || Box::new(CounterModule));
    if cfg.one_phase {
        builder = builder.net(NetConfig { dup_prob: 0.1, ..NetConfig::reliable(cfg.seed) });
    }
    if let Some(policy) = cfg.durability {
        builder = builder.durable(policy);
    }
    builder.build()
}

/// Drive `plan` and the standard workload through `world`: faults,
/// spread transactions, the fault window, optional healing, and the
/// quiescence period. Leaves the world ready for the oracles.
fn drive(cfg: &NemesisConfig, plan: &FaultPlan, world: &mut World) {
    plan.apply(world);
    let (start, end) = cfg.window;
    let interval = (end - start) / (cfg.txns.max(1) as u64);
    for i in 0..cfg.txns {
        world.schedule_submit(
            start + i as u64 * interval,
            CLIENT,
            vec![counter::incr(SERVER, i as u64 % 4, 1)],
        );
        if cfg.lease_ticks > 0 {
            // Read-heavy lease workload: each write is chased by a
            // burst of read-only transactions submitted straight to
            // the server group, which self-coordinates them — exactly
            // the shape the leased-read fast path serves, and the
            // shape that goes stale if a deposed leaseholder keeps
            // answering after a view change.
            for r in 1..=4u64 {
                world.schedule_submit(
                    start + i as u64 * interval + r * interval / 8,
                    SERVER,
                    vec![counter::read(SERVER, (i as u64 + r) % 4)],
                );
            }
        }
    }
    world.run_until(end);
    if cfg.heal_before_check {
        world.heal_all_faults();
        for mid in world.crashed_mids() {
            world.recover(mid);
        }
    }
    world.run_for(cfg.quiesce);
}

/// Run one plan under `cfg` and check both oracles.
///
/// # Errors
///
/// Returns the first safety or liveness violation.
pub fn run_plan(cfg: &NemesisConfig, plan: &FaultPlan) -> Result<(), NemesisFailure> {
    let mut world = build_world(cfg);
    drive(cfg, plan, &mut world);
    world.verify().map_err(NemesisFailure::Safety)?;
    world.check_liveness().map_err(|f| {
        if f.catastrophic {
            NemesisFailure::Catastrophe(f.reason)
        } else {
            NemesisFailure::Liveness(f.reason)
        }
    })?;
    Ok(())
}

/// Statistics from a completed [`sweep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Plans that passed both oracles outright.
    pub passed: usize,
    /// Plans excused as [`NemesisFailure::Catastrophe`]: they destroyed
    /// enough volatile state that the formation rule (correctly) refuses
    /// to ever form a view again.
    pub catastrophic: usize,
}

/// Run `count` seeded random nemesis plans, one per seed starting at
/// `base_seed`; each plan also seeds its world. Catastrophic plans — ones
/// that wedge the group with view formation provably impossible — are
/// counted but excused: random plans *can* wipe the volatile state of
/// every holder of forced information, and the paper accepts that as
/// unrecoverable. On any other failure the plan is shrunk to a minimal
/// reproducing counterexample first.
///
/// # Errors
///
/// Returns the (shrunk) plan, the failure it still produces, and a
/// ready-to-paste regression snippet.
pub fn sweep(
    cfg: &NemesisConfig,
    base_seed: u64,
    count: usize,
    events_per_plan: usize,
    max_concurrent_crashes: usize,
) -> Result<SweepStats, (FaultPlan, NemesisFailure, String)> {
    let mids = cfg.server_mids();
    let (start, end) = cfg.window;
    let mut stats = SweepStats { passed: 0, catastrophic: 0 };
    for seed in base_seed..base_seed + count as u64 {
        let plan = if cfg.one_phase {
            FaultPlan::random_one_phase_nemesis(
                seed,
                &mids,
                &cfg.client_mids(),
                (start, end),
                cfg.txns,
            )
        } else if cfg.lease_ticks > 0 {
            FaultPlan::random_lease_nemesis(seed, &mids, start, end, events_per_plan)
        } else {
            FaultPlan::random_nemesis_durable(
                seed,
                &mids,
                start,
                end,
                events_per_plan,
                max_concurrent_crashes,
                cfg.durability.is_some(),
            )
        };
        let cfg = NemesisConfig { seed, ..cfg.clone() };
        match run_plan(&cfg, &plan) {
            Ok(()) => stats.passed += 1,
            Err(NemesisFailure::Catastrophe(_)) => stats.catastrophic += 1,
            Err(_) => {
                let minimal = shrink(&cfg, &plan);
                let failure = run_plan(&cfg, &minimal).expect_err("shrunk plan still fails");
                let repro = repro_snippet(&cfg, &minimal, &failure);
                return Err((minimal, failure, repro));
            }
        }
    }
    Ok(stats)
}

/// Shrink a failing plan to a locally-minimal counterexample: the
/// result still fails under `cfg`, but removing any single event, or
/// simplifying any event further, makes it pass.
///
/// Passes, each run to a fixed point:
///
/// 1. **delta-debug event removal** — drop halves, then quarters, …,
///    then single events;
/// 2. **window shrinking** — pull each event's time back to the start
///    of the fault window (faults matter less by *when* than by *what*
///    once minimal);
/// 3. **cohort reduction** — drop members from `Partition`, `OneWay`,
///    and `SkewTimers` member lists.
///
/// Shrinking preserves the failure *kind*: a plan that fails with a
/// liveness bug never shrinks into a mere catastrophe (or vice versa),
/// so the minimal counterexample reproduces the original class of
/// violation.
///
/// Idempotent on already-minimal plans. Panics in debug builds if
/// given a passing plan (there is nothing to shrink toward).
pub fn shrink(cfg: &NemesisConfig, plan: &FaultPlan) -> FaultPlan {
    let Err(original) = run_plan(cfg, plan) else {
        debug_assert!(false, "shrink called on a passing plan");
        return plan.clone();
    };
    let kind = std::mem::discriminant(&original);
    let fails =
        |p: &FaultPlan| matches!(run_plan(cfg, p), Err(f) if std::mem::discriminant(&f) == kind);
    let mut current = plan.clone();

    // Pass 1: chunked removal (ddmin-style), then singles.
    loop {
        let mut progressed = false;
        let mut chunk = (current.events.len() / 2).max(1);
        while chunk >= 1 {
            let mut i = 0;
            while i + chunk <= current.events.len() {
                let mut candidate = current.clone();
                candidate.events.drain(i..i + chunk);
                if fails(&candidate) {
                    current = candidate;
                    progressed = true;
                    // Re-test from the same index: the next chunk slid in.
                } else {
                    i += 1;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        if !progressed {
            break;
        }
    }

    // Pass 2: pull event times back to the window start.
    let floor = cfg.window.0;
    for i in 0..current.events.len() {
        if current.events[i].0 > floor {
            let mut candidate = current.clone();
            candidate.events[i].0 = floor;
            if fails(&candidate) {
                current = candidate;
            }
        }
    }

    // Pass 3: shrink member lists inside events.
    for i in 0..current.events.len() {
        loop {
            let lists: usize = match &current.events[i].1 {
                FaultEvent::Partition(groups) => groups.iter().map(Vec::len).sum(),
                FaultEvent::OneWay { from, to } => from.len() + to.len(),
                FaultEvent::SkewTimers { mids, .. } => mids.len(),
                // Single-node and whole-network events have no member
                // lists to shrink.
                FaultEvent::Crash(_)
                | FaultEvent::CrashDiskLoss(_)
                | FaultEvent::Recover(_)
                | FaultEvent::Heal
                | FaultEvent::HealOneWay
                | FaultEvent::LinkLoss { .. }
                | FaultEvent::ClearLinkLoss { .. }
                | FaultEvent::SlowNode { .. }
                | FaultEvent::DropClasses(_)
                | FaultEvent::ClearDropClasses
                | FaultEvent::CorruptChunks(_) => 0,
            };
            let mut shrunk = false;
            for victim in 0..lists {
                let mut candidate = current.clone();
                if remove_nth_member(&mut candidate.events[i].1, victim) && fails(&candidate) {
                    current = candidate;
                    shrunk = true;
                    break;
                }
            }
            if !shrunk {
                break;
            }
        }
    }

    current
}

/// Remove the `n`-th member (counting across the event's member lists)
/// from a fault event. Returns false if the removal would leave a
/// degenerate event (empty partition side, empty one-way endpoint).
fn remove_nth_member(event: &mut FaultEvent, n: usize) -> bool {
    let mut k = n;
    match event {
        FaultEvent::Partition(groups) => {
            for side in groups.iter_mut() {
                if k < side.len() {
                    if side.len() == 1 {
                        return false;
                    }
                    side.remove(k);
                    return true;
                }
                k -= side.len();
            }
            false
        }
        FaultEvent::OneWay { from, to } => {
            for side in [from, to] {
                if k < side.len() {
                    if side.len() == 1 {
                        return false;
                    }
                    side.remove(k);
                    return true;
                }
                k -= side.len();
            }
            false
        }
        FaultEvent::SkewTimers { mids, .. } if k < mids.len() && mids.len() > 1 => {
            mids.remove(k);
            true
        }
        // A skew cohort shrunk to one member stays as-is (the guard
        // above fell through); the remaining events carry no member
        // lists at all.
        FaultEvent::SkewTimers { .. }
        | FaultEvent::Crash(_)
        | FaultEvent::CrashDiskLoss(_)
        | FaultEvent::Recover(_)
        | FaultEvent::Heal
        | FaultEvent::HealOneWay
        | FaultEvent::LinkLoss { .. }
        | FaultEvent::ClearLinkLoss { .. }
        | FaultEvent::SlowNode { .. }
        | FaultEvent::DropClasses(_)
        | FaultEvent::ClearDropClasses
        | FaultEvent::CorruptChunks(_) => false,
    }
}

/// Run one plan with structured tracing enabled, returning the full
/// event stream and the oracle verdict. Exporter-friendly counterpart
/// of [`run_plan`]: the CI trace smoke feeds the events to
/// `vsr_obs::export_jsonl` / `export_chrome`.
pub fn traced_run(
    cfg: &NemesisConfig,
    plan: &FaultPlan,
) -> (Vec<vsr_obs::TraceEvent>, Result<(), NemesisFailure>) {
    let mut world = build_world(cfg);
    let recorder = world.enable_tracing();
    drive(cfg, plan, &mut world);
    let verdict = world.verify().map_err(NemesisFailure::Safety).and_then(|()| {
        world.check_liveness().map_err(|f| {
            if f.catastrophic {
                NemesisFailure::Catastrophe(f.reason)
            } else {
                NemesisFailure::Liveness(f.reason)
            }
        })
    });
    (recorder.take(), verdict)
}

/// Re-run a plan with structured tracing enabled and render the causal
/// timeline of the run's tail — the last `max_events` trace events
/// (sends, deliveries, timer fires, force begin/fire, view-state
/// transitions, disk appends), each stamped with tick, cohort, and
/// viewstamp. The tail is where a failing run goes wrong: the events
/// leading into the wedge or the divergent commit.
pub fn traced_timeline(cfg: &NemesisConfig, plan: &FaultPlan, max_events: usize) -> String {
    let (events, _verdict) = traced_run(cfg, plan);
    let total = events.len();
    let tail = &events[total.saturating_sub(max_events)..];
    let mut out = String::new();
    if total > tail.len() {
        out.push_str(&format!("[{} earlier events elided; {total} total]\n", total - tail.len()));
    }
    out.push_str(&vsr_obs::render_timeline(tail));
    out
}

/// How many trailing trace events a repro snippet's causal timeline
/// shows.
const REPRO_TIMELINE_EVENTS: usize = 60;

/// Render a shrunk plan as a ready-to-paste regression test body,
/// followed by the causal timeline of the failing run (as comments).
pub fn repro_snippet(cfg: &NemesisConfig, plan: &FaultPlan, failure: &NemesisFailure) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "// Minimal nemesis counterexample ({}).\n",
        match failure {
            NemesisFailure::Safety(_) => "safety",
            NemesisFailure::Liveness(_) => "liveness",
            NemesisFailure::Catastrophe(_) => "catastrophe",
        }
    ));
    out.push_str(&format!("// {failure}\n"));
    out.push_str(&format!(
        "let cfg = NemesisConfig {{ seed: {}, cohorts: {}, window: ({}, {}), \
         txns: {}, quiesce: {}, heal_before_check: {}, durability: {}, lease_ticks: {}, \
         one_phase: {} }};\n",
        cfg.seed,
        cfg.cohorts,
        cfg.window.0,
        cfg.window.1,
        cfg.txns,
        cfg.quiesce,
        cfg.heal_before_check,
        match cfg.durability {
            None => "None".to_string(),
            Some(p) => format!("Some(FsyncPolicy::{p:?})"),
        },
        cfg.lease_ticks,
        cfg.one_phase,
    ));
    out.push_str("let plan = FaultPlan::new()");
    for (time, event) in &plan.events {
        out.push_str(&format!("\n    .at({time}, {})", render_event(event)));
    }
    out.push_str(";\nassert!(run_plan(&cfg, &plan).is_err());\n");
    out.push_str("//\n// Causal timeline of the failing run (tick, cohort, viewstamp, event):\n");
    for line in traced_timeline(cfg, plan, REPRO_TIMELINE_EVENTS).lines() {
        out.push_str(&format!("//   {line}\n"));
    }
    out
}

fn render_mids(mids: &[Mid]) -> String {
    let inner: Vec<String> = mids.iter().map(|m| format!("Mid({})", m.0)).collect();
    format!("vec![{}]", inner.join(", "))
}

fn render_event(event: &FaultEvent) -> String {
    match event {
        FaultEvent::Crash(mid) => format!("FaultEvent::Crash(Mid({}))", mid.0),
        FaultEvent::CrashDiskLoss(mid) => format!("FaultEvent::CrashDiskLoss(Mid({}))", mid.0),
        FaultEvent::Recover(mid) => format!("FaultEvent::Recover(Mid({}))", mid.0),
        FaultEvent::Partition(groups) => {
            let sides: Vec<String> = groups.iter().map(|g| render_mids(g)).collect();
            format!("FaultEvent::Partition(vec![{}])", sides.join(", "))
        }
        FaultEvent::Heal => "FaultEvent::Heal".to_string(),
        FaultEvent::OneWay { from, to } => {
            format!("FaultEvent::OneWay {{ from: {}, to: {} }}", render_mids(from), render_mids(to))
        }
        FaultEvent::HealOneWay => "FaultEvent::HealOneWay".to_string(),
        FaultEvent::LinkLoss { a, b, permille } => format!(
            "FaultEvent::LinkLoss {{ a: Mid({}), b: Mid({}), permille: {permille} }}",
            a.0, b.0
        ),
        FaultEvent::ClearLinkLoss { a, b } => {
            format!("FaultEvent::ClearLinkLoss {{ a: Mid({}), b: Mid({}) }}", a.0, b.0)
        }
        FaultEvent::SlowNode { mid, factor } => {
            format!("FaultEvent::SlowNode {{ mid: Mid({}), factor: {factor} }}", mid.0)
        }
        FaultEvent::SkewTimers { mids, num, den } => format!(
            "FaultEvent::SkewTimers {{ mids: {}, num: {num}, den: {den} }}",
            render_mids(mids)
        ),
        FaultEvent::DropClasses(names) => {
            let inner: Vec<String> = names.iter().map(|n| format!("{n:?}.to_string()")).collect();
            format!("FaultEvent::DropClasses(vec![{}])", inner.join(", "))
        }
        FaultEvent::ClearDropClasses => "FaultEvent::ClearDropClasses".to_string(),
        FaultEvent::CorruptChunks(n) => format!("FaultEvent::CorruptChunks({n})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_plan_passes_both_oracles() {
        let cfg = NemesisConfig::default();
        let plan = FaultPlan::new()
            .at(500, FaultEvent::Crash(Mid(2)))
            .at(3_000, FaultEvent::Recover(Mid(2)));
        run_plan(&cfg, &plan).expect("single crash-recover is survivable");
    }

    #[test]
    fn permanent_majority_loss_violates_liveness() {
        let cfg = NemesisConfig { heal_before_check: false, ..NemesisConfig::default() };
        let plan = FaultPlan::new()
            .at(500, FaultEvent::Crash(Mid(1)))
            .at(600, FaultEvent::Crash(Mid(2)))
            .at(700, FaultEvent::Crash(Mid(3)));
        let failure = run_plan(&cfg, &plan).expect_err("3/5 down forever cannot recover");
        // With only 2/5 cohorts live a majority of acceptances can never
        // be collected, so this is classified as the (correct) wedge.
        assert!(matches!(failure, NemesisFailure::Catastrophe(_)), "got {failure}");
    }

    #[test]
    fn shrink_reduces_noisy_majority_loss_to_three_events() {
        // A liveness-violating plan (permanent majority loss) buried in
        // noise shrinks to at most the three fatal crashes.
        let cfg = NemesisConfig { heal_before_check: false, ..NemesisConfig::default() };
        let noisy = FaultPlan::new()
            .at(300, FaultEvent::SlowNode { mid: Mid(4), factor: 3 })
            .at(400, FaultEvent::Crash(Mid(1)))
            .at(500, FaultEvent::SkewTimers { mids: vec![Mid(4), Mid(5)], num: 3, den: 2 })
            .at(600, FaultEvent::Crash(Mid(2)))
            .at(700, FaultEvent::DropClasses(vec!["commit".to_string()]))
            .at(900, FaultEvent::ClearDropClasses)
            .at(1_000, FaultEvent::LinkLoss { a: Mid(4), b: Mid(5), permille: 300 })
            .at(1_200, FaultEvent::Crash(Mid(3)))
            .at(1_400, FaultEvent::SlowNode { mid: Mid(4), factor: 1 })
            .at(1_500, FaultEvent::ClearLinkLoss { a: Mid(4), b: Mid(5) })
            .at(1_600, FaultEvent::SkewTimers { mids: vec![Mid(4), Mid(5)], num: 1, den: 1 });
        assert!(run_plan(&cfg, &noisy).is_err(), "noisy plan must fail to be shrinkable");
        let minimal = shrink(&cfg, &noisy);
        assert!(minimal.len() <= 3, "expected <=3 events, got {:?}", minimal.events);
        assert!(
            minimal.events.iter().all(|(_, e)| matches!(e, FaultEvent::Crash(_))),
            "minimal plan should be pure crashes: {:?}",
            minimal.events
        );
        let failure = run_plan(&cfg, &minimal).expect_err("minimal plan still fails");
        let snippet = repro_snippet(&cfg, &minimal, &failure);
        assert!(snippet.contains("FaultPlan::new()"));
        assert!(snippet.contains("FaultEvent::Crash"));
        assert!(snippet.contains("run_plan(&cfg, &plan)"));
        // Every shrunk repro carries the causal timeline of the failing
        // run: tick, cohort, viewstamp, and event kind per line.
        assert!(snippet.contains("Causal timeline"), "snippet missing timeline:\n{snippet}");
        let timeline: Vec<&str> = snippet.lines().filter(|l| l.starts_with("//   t=")).collect();
        assert!(!timeline.is_empty(), "timeline has no event lines:\n{snippet}");
        assert!(
            timeline.iter().any(|l| l.contains(" m")),
            "timeline lines must name a cohort:\n{snippet}"
        );
    }

    #[test]
    fn full_group_crash_with_durable_disks_must_recover() {
        // The same majority-state-loss plan that wedges the no-disk
        // design (see the test below) is survivable once every cohort
        // journals each record durably: recovery replays the WAL, the
        // cohorts answer *normal* acceptances, and a view re-forms with
        // every committed transaction intact. No longer an excusable
        // catastrophe — this must pass outright.
        let cfg = NemesisConfig {
            seed: 9_004,
            durability: Some(FsyncPolicy::EveryRecord),
            ..NemesisConfig::default()
        };
        let plan = FaultPlan::new()
            .at(200, FaultEvent::Crash(Mid(2)))
            .at(200, FaultEvent::Crash(Mid(1)))
            .at(200, FaultEvent::Crash(Mid(3)));
        run_plan(&cfg, &plan).expect("durable group must survive majority state loss");
    }

    #[test]
    fn disk_loss_still_wedges_a_durable_group() {
        // Destroying the disks along with the cohorts reproduces the
        // no-disk catastrophe even in a durable world: with the stable
        // storage gone, the formation rule correctly refuses to serve.
        let cfg = NemesisConfig {
            seed: 9_004,
            durability: Some(FsyncPolicy::EveryRecord),
            ..NemesisConfig::default()
        };
        let plan = FaultPlan::new()
            .at(200, FaultEvent::CrashDiskLoss(Mid(2)))
            .at(200, FaultEvent::CrashDiskLoss(Mid(1)))
            .at(200, FaultEvent::CrashDiskLoss(Mid(3)));
        let failure = run_plan(&cfg, &plan).expect_err("disk loss erases the durable state");
        assert!(matches!(failure, NemesisFailure::Catastrophe(_)), "got {failure}");
    }

    #[test]
    fn majority_state_loss_is_catastrophe_not_liveness_bug() {
        // Found by the nemesis sweep (seed 9004) and shrunk
        // automatically: crashing the initial primary plus a
        // sub-majority wipes every cohort that might hold forced
        // information. After they all recover (volatile state gone) the
        // formation rule sees crash-viewid == normal-viewid with the old
        // primary crash-accepting and refuses to form a view — the
        // Section 4.2 catastrophe, wedged as specified, not a liveness
        // bug.
        let cfg = NemesisConfig { seed: 9_004, ..NemesisConfig::default() };
        let plan = FaultPlan::new()
            .at(200, FaultEvent::Crash(Mid(2)))
            .at(200, FaultEvent::Crash(Mid(1)))
            .at(200, FaultEvent::Crash(Mid(3)));
        let failure = run_plan(&cfg, &plan).expect_err("majority state loss wedges the group");
        assert!(matches!(failure, NemesisFailure::Catastrophe(_)), "got {failure}");
    }

    #[test]
    fn recovered_cohort_rejoins_despite_viewid_gap() {
        // Found by the nemesis sweep (seed 9047) and shrunk automatically:
        // a long no-majority partition drives everyone's viewid counter
        // up; a cohort that crashes just after the heal recovers with a
        // far-older stable viewid. Before heartbeats fast-forwarded
        // `max_viewid`, the recovered cohort crawled its viewid up one
        // manager retry at a time and stayed stuck in ViewManager.
        let cfg = NemesisConfig { seed: 9_047, ..NemesisConfig::default() };
        let plan = FaultPlan::new()
            .at(200, FaultEvent::Partition(vec![vec![Mid(4)], vec![Mid(2), Mid(5)]]))
            .at(6_018, FaultEvent::Heal)
            .at(6_054, FaultEvent::Crash(Mid(2)));
        run_plan(&cfg, &plan).expect("recovered cohort must rejoin");
    }

    #[test]
    fn repro_snippet_renders_every_event_kind() {
        let cfg = NemesisConfig::default();
        let plan = FaultPlan::new()
            .at(1, FaultEvent::Crash(Mid(1)))
            .at(2, FaultEvent::Recover(Mid(1)))
            .at(3, FaultEvent::Partition(vec![vec![Mid(1)], vec![Mid(2)]]))
            .at(4, FaultEvent::Heal)
            .at(5, FaultEvent::OneWay { from: vec![Mid(1)], to: vec![Mid(2)] })
            .at(6, FaultEvent::HealOneWay)
            .at(7, FaultEvent::LinkLoss { a: Mid(1), b: Mid(2), permille: 250 })
            .at(8, FaultEvent::ClearLinkLoss { a: Mid(1), b: Mid(2) })
            .at(9, FaultEvent::SlowNode { mid: Mid(3), factor: 4 })
            .at(10, FaultEvent::SkewTimers { mids: vec![Mid(4)], num: 2, den: 1 })
            .at(11, FaultEvent::DropClasses(vec!["commit".to_string()]))
            .at(12, FaultEvent::ClearDropClasses);
        let text = repro_snippet(&cfg, &plan, &NemesisFailure::Liveness("example".to_string()));
        for needle in [
            "Crash",
            "Recover",
            "Partition",
            "Heal",
            "OneWay",
            "HealOneWay",
            "LinkLoss",
            "ClearLinkLoss",
            "SlowNode",
            "SkewTimers",
            "DropClasses",
            "ClearDropClasses",
        ] {
            assert!(text.contains(needle), "snippet missing {needle}:\n{text}");
        }
    }
}
