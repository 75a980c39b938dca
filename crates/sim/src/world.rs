//! The simulation world: wires [`Cohort`] state machines to the
//! deterministic [`SimNet`], executes their effects, injects workloads
//! and faults, and collects metrics and observations.

use crate::fault::FaultEvent;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use vsr_core::agent::ClientAgent;
use vsr_core::cohort::{
    formation_possible, Acceptance, CallOp, Cohort, CohortParams, Effect, Observation, Status,
    Timer, TxnOutcome,
};
use vsr_core::config::CohortConfig;
use vsr_core::durable::{DurabilityGate, RecoveredState};
use vsr_core::history::History;
use vsr_core::messages::Message;
use vsr_core::module::Module;
use vsr_core::types::Viewstamp;
use vsr_core::types::{Aid, GroupId, Mid, ViewId};
use vsr_core::view::Configuration;
use vsr_obs::{Metrics, PersistDelta, SharedRecorder, TraceEvent, TraceKind};
use vsr_simnet::net::{Event, NetConfig, NetStats, SimNet};
use vsr_store::{FsyncPolicy, SimDisk, Store};

/// Creates a fresh module instance for a group (needed again at crash
/// recovery).
pub type ModuleFactory = Rc<dyn Fn() -> Box<dyn Module>>;

/// Static description of one module group.
#[derive(Clone)]
pub struct GroupSpec {
    /// The group id.
    pub group: GroupId,
    /// Cohort mids (globally unique across the world).
    pub members: Vec<Mid>,
    /// Bootstrap primary.
    pub initial_primary: Mid,
    /// Application module factory.
    pub factory: ModuleFactory,
}

impl std::fmt::Debug for GroupSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupSpec")
            .field("group", &self.group)
            .field("members", &self.members)
            .field("initial_primary", &self.initial_primary)
            .finish_non_exhaustive()
    }
}

/// Builder for a [`World`].
#[derive(Debug)]
pub struct WorldBuilder {
    net_cfg: NetConfig,
    cohort_cfg: CohortConfig,
    groups: Vec<GroupSpec>,
    agents: Vec<(Mid, GroupId)>,
    durability: Option<FsyncPolicy>,
}

impl WorldBuilder {
    /// Start building a world with a reliable network seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        WorldBuilder {
            net_cfg: NetConfig::reliable(seed),
            cohort_cfg: CohortConfig::new(),
            groups: Vec::new(),
            agents: Vec::new(),
            durability: None,
        }
    }

    /// Give every cohort a fault-injectable [`SimDisk`] with the given
    /// fsync policy. `Effect::Persist` then writes a WAL, crashes lose
    /// only the un-fsynced suffix, and recovery replays the disk instead
    /// of the paper-minimum stable viewid. Without this call the world
    /// runs the paper's no-disk design and persist effects are dropped.
    pub fn durable(mut self, policy: FsyncPolicy) -> Self {
        self.durability = Some(policy);
        self
    }

    /// Add an *unreplicated client agent* (Section 3.5) that delegates
    /// two-phase commit to `coord_group` (which must be added as a
    /// group; typically with a `NullModule`).
    pub fn agent(mut self, mid: Mid, coord_group: GroupId) -> Self {
        self.agents.push((mid, coord_group));
        self
    }

    /// Set the network fault model.
    pub fn net(mut self, cfg: NetConfig) -> Self {
        self.net_cfg = cfg;
        self
    }

    /// Set the cohort tuning knobs.
    pub fn cohorts(mut self, cfg: CohortConfig) -> Self {
        self.cohort_cfg = cfg;
        self
    }

    /// Add a module group. The first member is the bootstrap primary.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or any mid is reused across groups
    /// (checked at [`build`](Self::build)).
    pub fn group<F>(mut self, group: GroupId, members: &[Mid], factory: F) -> Self
    where
        F: Fn() -> Box<dyn Module> + 'static,
    {
        assert!(!members.is_empty(), "group must have at least one member");
        self.groups.push(GroupSpec {
            group,
            members: members.to_vec(),
            initial_primary: members[0],
            factory: Rc::new(factory),
        });
        self
    }

    /// Construct the world: instantiate every cohort in its bootstrap
    /// view and arm initial timers.
    pub fn build(self) -> World {
        let mut peers: BTreeMap<GroupId, Configuration> = BTreeMap::new();
        let mut seen = BTreeSet::new();
        for spec in &self.groups {
            for &m in &spec.members {
                assert!(seen.insert(m), "mid {m} reused across groups");
            }
            peers.insert(spec.group, Configuration::new(spec.group, spec.members.clone()));
        }
        let mut world = World {
            net: SimNet::new(self.net_cfg),
            cohorts: BTreeMap::new(),
            agents: BTreeMap::new(),
            specs: self.groups.iter().map(|s| (s.group, s.clone())).collect(),
            mid_group: self
                .groups
                .iter()
                .flat_map(|s| s.members.iter().map(move |&m| (m, s.group)))
                .collect(),
            peers,
            cohort_cfg: self.cohort_cfg,
            disks: BTreeMap::new(),
            gates: BTreeMap::new(),
            crashed: BTreeMap::new(),
            results: BTreeMap::new(),
            submit_target: BTreeMap::new(),
            scripts: BTreeMap::new(),
            submitted_at: BTreeMap::new(),
            next_req: 0,
            observations: Vec::new(),
            metrics: Metrics::default(),
            controls: BTreeMap::new(),
            next_control: 0,
            delivered_to: BTreeMap::new(),
            corrupt_chunks_budget: 0,
            recorder: None,
        };
        for spec in &self.groups {
            for &mid in &spec.members {
                let cohort = Cohort::new(world.params_for(mid));
                world.cohorts.insert(mid, cohort);
                if let Some(policy) = self.durability {
                    let disk = SimDisk::new(policy);
                    world.gates.extend(disk.durability_gate().map(|gate| (mid, gate)));
                    world.disks.insert(mid, disk);
                }
            }
        }
        for (mid, coord_group) in &self.agents {
            assert!(!world.cohorts.contains_key(mid), "agent mid {mid} collides with a cohort");
            let agent =
                ClientAgent::new(world.cohort_cfg.clone(), *mid, *coord_group, world.peers.clone());
            world.agents.insert(*mid, agent);
        }
        let mids: Vec<Mid> = world.cohorts.keys().copied().collect();
        for mid in mids {
            let now = world.net.now();
            let effects = world.cohorts.get_mut(&mid).expect("exists").start(now);
            world.apply_effects(mid, effects);
        }
        world
    }
}

/// A scheduled control action.
#[derive(Debug, Clone)]
enum Control {
    Fault(FaultEvent),
    Submit { group: GroupId, ops: Vec<CallOp>, req_id: u64 },
}

/// The final record of a submitted transaction.
#[derive(Debug, Clone)]
pub struct TxnRecord {
    /// The outcome reported to the client.
    pub outcome: TxnOutcome,
    /// The transaction id, if one was created.
    pub aid: Option<Aid>,
    /// Submission tick.
    pub submitted_at: u64,
    /// Completion tick.
    pub completed_at: u64,
}

/// The simulation world.
pub struct World {
    net: SimNet<Message, Timer>,
    cohorts: BTreeMap<Mid, Cohort>,
    agents: BTreeMap<Mid, ClientAgent>,
    specs: BTreeMap<GroupId, GroupSpec>,
    mid_group: BTreeMap<Mid, GroupId>,
    peers: BTreeMap<GroupId, Configuration>,
    cohort_cfg: CohortConfig,
    /// Per-cohort simulated disks (durable worlds only).
    disks: BTreeMap<Mid, SimDisk>,
    /// Durability gates of the cohorts whose disk needs one (see
    /// [`Store::durability_gate`]). Dropped, with everything parked in
    /// it, when the cohort crashes: a parked ack never leaves.
    gates: BTreeMap<Mid, DurabilityGate>,
    /// Crashed cohorts and the fallback viewid recovery reports if no
    /// stable storage survives (in the paper's no-disk design this *is*
    /// the Section 4.2 stable viewid; durable cohorts instead recover
    /// from their disk and fall back to the bootstrap viewid).
    crashed: BTreeMap<Mid, ViewId>,
    results: BTreeMap<u64, TxnRecord>,
    /// Which cohort each still-undecided direct submission was handed
    /// to. A submission dies with its coordinator: if that cohort
    /// crashes first, the world (playing the client whose connection
    /// just broke) records an abort rather than leaving the request
    /// pending forever.
    submit_target: BTreeMap<u64, Mid>,
    /// Scripts by request id (for the durability checker).
    scripts: BTreeMap<u64, Vec<CallOp>>,
    submitted_at: BTreeMap<u64, u64>,
    next_req: u64,
    observations: Vec<(u64, Observation)>,
    metrics: Metrics,
    controls: BTreeMap<u64, Control>,
    next_control: u64,
    delivered_to: BTreeMap<Mid, u64>,
    /// Nemesis budget: how many of the next in-flight snapshot chunks
    /// to corrupt at delivery (one flipped payload byte each).
    corrupt_chunks_budget: u32,
    /// Optional structured trace recorder (see `vsr-obs`). `None` means
    /// tracing is off and event capture costs nothing.
    recorder: Option<SharedRecorder>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.net.now())
            .field("cohorts", &self.cohorts.len())
            .field("crashed", &self.crashed.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl World {
    fn params_for(&self, mid: Mid) -> CohortParams {
        let group = self.mid_group[&mid];
        let spec = &self.specs[&group];
        CohortParams {
            cfg: self.cohort_cfg.clone(),
            mid,
            configuration: self.peers[&group].clone(),
            initial_primary: spec.initial_primary,
            peers: self.peers.clone(),
            module: (spec.factory)(),
        }
    }

    // ------------------------------------------------------------------
    // time
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    // ------------------------------------------------------------------
    // structured tracing
    // ------------------------------------------------------------------

    /// Install a structured trace recorder and return a handle to drain
    /// the captured events from. Every send, delivery, timer fire,
    /// force begin/fire, view-state transition, and disk append is
    /// recorded from now on.
    pub fn enable_tracing(&mut self) -> SharedRecorder {
        let handle = SharedRecorder::new();
        self.recorder = Some(handle.clone());
        handle
    }

    /// Record a trace event stamped with `vs` when the observation
    /// carries its own viewstamp, else with `cohort`'s current one.
    fn trace(&mut self, cohort: Mid, kind: TraceKind, vs: Option<Viewstamp>) {
        let Some(recorder) = &self.recorder else { return };
        let vs = vs.or_else(|| self.cohorts.get(&cohort).and_then(|c| c.history().latest()));
        recorder.record(TraceEvent { tick: self.net.now(), cohort, vs, kind });
    }

    /// Run one handler pass on a cohort: the call is wrapped in
    /// `begin_pass`/`end_pass` so a primary's buffer flush is deferred
    /// to the end of the pass and its coalesced effects ride the same
    /// batch — the deterministic twin of the runtime's batched mailbox
    /// drains, so nemesis sweeps exercise the pipelined paths.
    fn cohort_pass(cohort: &mut Cohort, f: impl FnOnce(&mut Cohort) -> Vec<Effect>) -> Vec<Effect> {
        cohort.begin_pass();
        let mut effects = f(cohort);
        effects.extend(cohort.end_pass());
        effects
    }

    /// Process one event. Returns false when no events remain.
    pub fn step(&mut self) -> bool {
        let Some((now, event)) = self.net.pop() else { return false };
        match event {
            Event::Deliver { from, to, msg } => {
                let (from, to) = (Mid(from), Mid(to));
                if self.crashed.contains_key(&to) {
                    return true;
                }
                // Nemesis chunk corruption: flip a payload byte of an
                // in-flight snapshot chunk (the per-chunk CRC must catch
                // it; the fetcher re-requests the index).
                #[expect(
                    clippy::wildcard_enum_match_arm,
                    reason = "only snapshot chunks are corrupted; every other message passes \
                              through"
                )]
                let msg = match msg {
                    Message::Chunk { digest, index, total, crc, mut payload }
                        if self.corrupt_chunks_budget > 0 =>
                    {
                        self.corrupt_chunks_budget -= 1;
                        if let Some(b) = payload.first_mut() {
                            *b ^= 0xA5;
                        }
                        Message::Chunk { digest, index, total, crc, payload }
                    }
                    other => other,
                };
                if let Some(cohort) = self.cohorts.get_mut(&to) {
                    // Heartbeats are constant-rate background noise;
                    // exclude them from per-node load accounting.
                    if !matches!(msg, Message::ImAlive { .. }) {
                        *self.delivered_to.entry(to).or_default() += 1;
                    }
                    let recv = self.metrics.on_recv(from, &msg);
                    let effects = Self::cohort_pass(cohort, |c| c.on_message(now, from, msg));
                    self.trace(to, recv, None);
                    self.apply_effects(to, effects);
                } else if let Some(agent) = self.agents.get_mut(&to) {
                    let recv = self.metrics.on_recv(from, &msg);
                    let effects = agent.on_message(now, from, msg);
                    self.trace(to, recv, None);
                    self.apply_effects(to, effects);
                }
            }
            Event::TimerFire { node, timer } => {
                let mid = Mid(node);
                if self.crashed.contains_key(&mid) {
                    return true;
                }
                let effects = if let Some(cohort) = self.cohorts.get_mut(&mid) {
                    Self::cohort_pass(cohort, |c| c.on_timer(now, timer.clone()))
                } else if let Some(agent) = self.agents.get_mut(&mid) {
                    agent.on_timer(now, timer.clone())
                } else {
                    Vec::new()
                };
                if let Some(kind) = self.metrics.on_timer(&timer, &effects) {
                    self.trace(mid, kind, None);
                }
                self.apply_effects(mid, effects);
            }
            Event::Control { id } => {
                if let Some(control) = self.controls.remove(&id) {
                    self.run_control(control);
                }
            }
        }
        true
    }

    /// Run until simulated time reaches `t` (or events run out). Events
    /// scheduled at exactly `t` are processed.
    pub fn run_until(&mut self, t: u64) {
        while let Some(next) = self.net.peek_time() {
            if next > t {
                break;
            }
            if !self.step() {
                break;
            }
        }
    }

    /// Run for `dt` more ticks.
    pub fn run_for(&mut self, dt: u64) {
        let t = self.now() + dt;
        self.run_until(t);
    }

    // ------------------------------------------------------------------
    // workload
    // ------------------------------------------------------------------

    /// Submit a transaction right now at the current active primary of
    /// `client_group` (or any live member if no primary is active, which
    /// yields a `NotPrimary` abort). Returns the request id.
    pub fn submit(&mut self, client_group: GroupId, ops: Vec<CallOp>) -> u64 {
        let req_id = self.next_req;
        self.next_req += 1;
        self.scripts.insert(req_id, ops.clone());
        self.dispatch_submit(req_id, client_group, ops);
        req_id
    }

    /// Hand request `req_id` to the current primary of `group` (or any
    /// live member) now.
    fn dispatch_submit(&mut self, req_id: u64, group: GroupId, ops: Vec<CallOp>) {
        let now = self.now();
        self.submitted_at.insert(req_id, now);
        self.metrics.submitted += 1;
        match self.primary_of(group).or_else(|| self.any_live(group)) {
            Some(mid) => {
                self.submit_target.insert(req_id, mid);
                let cohort = self.cohorts.get_mut(&mid).expect("target exists");
                let effects = Self::cohort_pass(cohort, |c| c.begin_transaction(now, req_id, ops));
                // The pipelining depth this submission reached, sampled
                // exactly as the runtime does when a request joins the
                // in-flight set.
                let inflight = cohort.inflight_txns() as u64;
                self.metrics.inflight_txns.record(inflight);
                self.apply_effects(mid, effects);
            }
            None => {
                // Whole group down: record an immediate abort.
                self.record_result(
                    req_id,
                    None,
                    TxnOutcome::Aborted { reason: vsr_core::cohort::AbortReason::NotPrimary },
                );
            }
        }
    }

    /// Submit a transaction through an unreplicated client agent
    /// (Section 3.5): the agent runs the calls itself and delegates the
    /// commit to its coordinator-server group.
    ///
    /// # Panics
    ///
    /// Panics if `agent` was not added with
    /// [`WorldBuilder::agent`].
    pub fn submit_via_agent(&mut self, agent: Mid, ops: Vec<CallOp>) -> u64 {
        let req_id = self.next_req;
        self.next_req += 1;
        self.scripts.insert(req_id, ops.clone());
        self.submitted_at.insert(req_id, self.now());
        self.metrics.submitted += 1;
        let now = self.now();
        let effects = self
            .agents
            .get_mut(&agent)
            .unwrap_or_else(|| panic!("unknown agent {agent}"))
            .begin_transaction(now, req_id, ops);
        self.apply_effects(agent, effects);
        req_id
    }

    /// Schedule a transaction submission at absolute time `at`.
    pub fn schedule_submit(&mut self, at: u64, client_group: GroupId, ops: Vec<CallOp>) -> u64 {
        let req_id = self.next_req;
        self.next_req += 1;
        self.scripts.insert(req_id, ops.clone());
        self.push_control(at, Control::Submit { group: client_group, ops, req_id });
        req_id
    }

    // ------------------------------------------------------------------
    // fault injection
    // ------------------------------------------------------------------

    /// Crash a cohort immediately: volatile state is lost. In the
    /// paper's no-disk design only the stable viewid survives; a durable
    /// cohort's disk additionally keeps its fsynced WAL prefix.
    pub fn crash(&mut self, mid: Mid) {
        if self.crashed.contains_key(&mid) {
            return;
        }
        let fallback = match self.disks.get_mut(&mid) {
            Some(disk) => {
                // The disk loses its un-fsynced suffix, like a device
                // cache on power failure; everything else it remembers
                // itself, so the fallback is the bootstrap viewid.
                disk.crash();
                self.bootstrap_viewid(mid)
            }
            None => self.cohorts[&mid].stable_viewid(),
        };
        self.gates.remove(&mid);
        self.crashed.insert(mid, fallback);
        self.net.crash(mid.0);
        self.orphan_direct_submissions(mid);
    }

    /// Crash a durable cohort *and* destroy its disk: nothing survives,
    /// not even the Section 4.2 stable viewid. On a no-disk cohort this
    /// still erases the simulated stable viewid, modelling total media
    /// loss either way.
    pub fn crash_disk_loss(&mut self, mid: Mid) {
        if self.crashed.contains_key(&mid) {
            return;
        }
        if let Some(disk) = self.disks.get_mut(&mid) {
            disk.wipe();
        }
        self.gates.remove(&mid);
        self.crashed.insert(mid, self.bootstrap_viewid(mid));
        self.net.crash(mid.0);
        self.orphan_direct_submissions(mid);
    }

    /// Recover a crashed cohort from whatever its stable store hands
    /// back: a durable cohort replays its disk (possibly rejoining up to
    /// date — see `vsr_store`'s safety rule); otherwise it restarts with
    /// the paper-minimum stable viewid, `up_to_date = false`, and begins
    /// a view change.
    pub fn recover(&mut self, mid: Mid) {
        let Some(fallback) = self.crashed.remove(&mid) else { return };
        self.net.recover(mid.0);
        let recovered = match self.disks.get_mut(&mid) {
            Some(disk) => disk.recover(fallback),
            None => RecoveredState::viewid_only(fallback),
        };
        self.gates.extend(self.disks.get(&mid).and_then(|d| d.durability_gate()).map(|g| (mid, g)));
        let mut cohort = Cohort::recover(self.params_for(mid), recovered);
        self.metrics.records_replayed += cohort.records_replayed();
        let now = self.now();
        let effects = cohort.start(now);
        self.cohorts.insert(mid, cohort);
        self.apply_effects(mid, effects);
    }

    fn bootstrap_viewid(&self, mid: Mid) -> ViewId {
        ViewId::initial(self.specs[&self.mid_group[&mid]].initial_primary)
    }

    /// Crash an unreplicated client agent permanently: its mail is
    /// dropped and its in-flight transactions are orphaned — exercising
    /// the coordinator-server's unilateral abort (Section 3.5).
    pub fn crash_agent(&mut self, mid: Mid) {
        self.agents.remove(&mid);
        self.net.crash(mid.0);
    }

    /// Partition the network into the given mid groups.
    pub fn partition(&mut self, groups: &[Vec<Mid>]) {
        let raw: Vec<Vec<u64>> = groups.iter().map(|g| g.iter().map(|m| m.0).collect()).collect();
        self.net.set_partitions(&raw);
    }

    /// Heal all partitions.
    pub fn heal(&mut self) {
        self.net.heal_partitions();
    }

    /// Override the one-way delay window of the link between two mids in
    /// both directions (models a slow/remote replica).
    pub fn set_link_delay(&mut self, a: Mid, b: Mid, min: u64, max: u64) {
        self.net.set_link_delay(a.0, b.0, min, max);
    }

    /// Block every directed link from a `from` member to a `to` member
    /// (asymmetric partition: the reverse directions still deliver).
    pub fn block_one_way(&mut self, from: &[Mid], to: &[Mid]) {
        for &f in from {
            for &t in to {
                if f != t {
                    self.net.block_link(f.0, t.0);
                }
            }
        }
    }

    /// Remove every directed link block.
    pub fn heal_one_way(&mut self) {
        self.net.clear_blocked_links();
    }

    /// Override the loss probability of the link between two mids (both
    /// directions), replacing the global drop probability for it.
    pub fn set_link_loss(&mut self, a: Mid, b: Mid, prob: f64) {
        self.net.set_link_drop(a.0, b.0, prob);
    }

    /// Remove a per-link loss override.
    pub fn clear_link_loss(&mut self, a: Mid, b: Mid) {
        self.net.clear_link_drop(a.0, b.0);
    }

    /// Make a node "gray": everything it sends or receives takes
    /// `factor` times the sampled delay (`factor == 1` restores).
    pub fn set_node_slowdown(&mut self, mid: Mid, factor: u64) {
        self.net.set_node_slowdown(mid.0, factor);
    }

    /// Skew a cohort member's clock: timer offsets scale by `num / den`
    /// (`num == den` restores).
    pub fn set_timer_skew(&mut self, mid: Mid, num: u64, den: u64) {
        self.net.set_timer_skew(mid.0, num, den);
    }

    /// Silently drop every message whose wire name (see
    /// [`Message::name`]) is in `names` — e.g. all `"commit"` or all
    /// `"init-view"` traffic — until cleared.
    pub fn set_class_drop(&mut self, names: &[&str]) {
        let names: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        self.net.set_drop_filter(move |msg: &Message, _from, _to| {
            names.iter().any(|n| n == msg.name())
        });
    }

    /// Stop dropping message classes.
    pub fn clear_class_drop(&mut self) {
        self.net.clear_drop_filter();
    }

    /// Remove every network fault at once (symmetric partitions,
    /// one-way blocks, link loss, slowdowns, skews, class drops).
    /// Crashed cohorts stay crashed — recover them explicitly.
    pub fn heal_all_faults(&mut self) {
        self.net.heal_partitions();
        self.net.clear_nemesis();
    }

    /// The cohorts currently crashed.
    pub fn crashed_mids(&self) -> Vec<Mid> {
        self.crashed.keys().copied().collect()
    }

    /// Schedule `fault` at absolute time `at`. Faults scheduled for the
    /// same tick run in the order they were scheduled.
    pub fn schedule(&mut self, at: u64, fault: FaultEvent) {
        self.push_control(at, Control::Fault(fault));
    }

    /// Corrupt the next `n` in-flight snapshot chunks (one flipped
    /// payload byte each) starting now. The per-chunk CRC must catch
    /// every one; fetchers re-request the affected index.
    pub fn corrupt_chunks(&mut self, n: u32) {
        self.corrupt_chunks_budget = self.corrupt_chunks_budget.saturating_add(n);
    }

    fn push_control(&mut self, at: u64, control: Control) {
        let id = self.next_control;
        self.next_control += 1;
        self.controls.insert(id, control);
        self.net.schedule_control(at, id);
    }

    fn run_control(&mut self, control: Control) {
        match control {
            Control::Fault(fault) => match fault {
                FaultEvent::Crash(mid) => self.crash(mid),
                FaultEvent::CrashDiskLoss(mid) => self.crash_disk_loss(mid),
                FaultEvent::Recover(mid) => self.recover(mid),
                FaultEvent::Partition(groups) => self.partition(&groups),
                FaultEvent::Heal => self.heal(),
                FaultEvent::OneWay { from, to } => self.block_one_way(&from, &to),
                FaultEvent::HealOneWay => self.heal_one_way(),
                FaultEvent::LinkLoss { a, b, permille } => {
                    self.set_link_loss(a, b, f64::from(permille) / 1000.0)
                }
                FaultEvent::ClearLinkLoss { a, b } => self.clear_link_loss(a, b),
                FaultEvent::SlowNode { mid, factor } => self.set_node_slowdown(mid, factor),
                FaultEvent::SkewTimers { mids, num, den } => {
                    for mid in mids {
                        self.set_timer_skew(mid, num, den);
                    }
                }
                FaultEvent::DropClasses(names) => {
                    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                    self.set_class_drop(&refs);
                }
                FaultEvent::ClearDropClasses => self.clear_class_drop(),
                FaultEvent::CorruptChunks(n) => self.corrupt_chunks(n),
            },
            Control::Submit { group, ops, req_id } => self.dispatch_submit(req_id, group, ops),
        }
    }

    // ------------------------------------------------------------------
    // effect execution
    // ------------------------------------------------------------------

    fn apply_effects(&mut self, mid: Mid, effects: Vec<Effect>) {
        for effect in effects {
            let admitted = match self.gates.get_mut(&mid) {
                Some(gate) => gate.admit(effect),
                None => Some(effect),
            };
            if let Some(effect) = admitted {
                self.execute(mid, effect);
            }
        }
        // Group commit: one covering fsync per handler pass, before the
        // next event runs.
        self.flush_disk(mid);
    }

    /// Execute one effect the durability gate let through (or released).
    fn execute(&mut self, mid: Mid, effect: Effect) {
        match effect {
            Effect::Send { to, msg } => {
                let kind = self.metrics.on_send(to, &msg);
                self.trace(mid, kind, None);
                let size = msg.wire_size();
                self.net.send_dup(mid.0, to.0, msg, size);
            }
            Effect::SetTimer { after, timer } => {
                self.net.set_timer(mid.0, after, timer);
            }
            Effect::TxnResult { req_id, aid, outcome } => {
                self.record_result(req_id, aid, outcome);
            }
            Effect::Persist(event) => {
                // Durable worlds write the cohort's WAL; without
                // disks the effect is dropped, which *is* the
                // paper's no-disk design.
                if let Some(disk) = self.disks.get_mut(&mid) {
                    let before = disk.metrics();
                    let unsynced_before = disk.unsynced_records();
                    disk.persist(&event).expect(
                        "invariant: the world never arms sync-failure injection on its disks",
                    );
                    let d = disk.metrics().since(&before);
                    let delta = PersistDelta {
                        appends: d.appends,
                        fsyncs: d.fsyncs,
                        bytes_written: d.bytes_written,
                        checkpoints: d.checkpoints,
                        unsynced_before,
                        unsynced_after: disk.unsynced_records(),
                    };
                    if let Some(kind) = self.metrics.on_persist(&delta) {
                        self.trace(mid, kind, None);
                    }
                    if let Some(gate) = self.gates.get_mut(&mid) {
                        let released = gate.persisted(delta.appends, delta.unsynced_after);
                        for effect in released {
                            self.execute(mid, effect);
                        }
                    }
                }
            }
            Effect::Observe(observation) => {
                if let Some((kind, vs)) = self.metrics.on_observation(&observation) {
                    self.trace(mid, kind, vs);
                }
                if let Observation::LeasedRead { req_id, .. } = &observation {
                    if let Some(&t0) = self.submitted_at.get(req_id) {
                        self.metrics.lease_read_ticks.record(self.net.now() - t0);
                    }
                }
                self.observations.push((self.net.now(), observation));
            }
        }
    }

    /// Sync a cohort's disk if it holds records awaiting their covering
    /// fsync, account the group commit, and release what the gate
    /// parked behind them. Only a gated cohort (`FsyncPolicy::Group`)
    /// is promised a covering fsync per pass; the lazier barrier
    /// policies leave their unsynced suffix exposed *by design* (that
    /// exposure is what A4 and the catastrophe model measure).
    fn flush_disk(&mut self, mid: Mid) {
        let (Some(disk), Some(gate)) = (self.disks.get_mut(&mid), self.gates.get_mut(&mid)) else {
            return;
        };
        let covered = disk.unsynced_records();
        if covered == 0 {
            return;
        }
        let before = disk.metrics().fsyncs;
        disk.flush().expect("invariant: the world never arms sync-failure injection on its disks");
        if disk.metrics().fsyncs > before {
            self.metrics.on_sync(covered);
        }
        let released = gate.synced(gate.appended());
        for effect in released {
            self.execute(mid, effect);
        }
    }

    fn record_result(&mut self, req_id: u64, aid: Option<Aid>, outcome: TxnOutcome) {
        match &outcome {
            TxnOutcome::Committed { .. } => {
                self.metrics.committed += 1;
                if let Some(&t0) = self.submitted_at.get(&req_id) {
                    self.metrics.commit_latency.record(self.net.now() - t0);
                }
            }
            TxnOutcome::Aborted { .. } => self.metrics.aborted += 1,
            TxnOutcome::Unresolved => self.metrics.unresolved += 1,
        }
        let submitted_at = self.submitted_at.get(&req_id).copied().unwrap_or(0);
        self.submit_target.remove(&req_id);
        self.results
            .insert(req_id, TxnRecord { outcome, aid, submitted_at, completed_at: self.net.now() });
    }

    /// The coordinator a direct submission was handed to just crashed:
    /// its volatile coordination state — including the pending reply —
    /// died with it. Abort every still-undecided request it held, as a
    /// real client whose connection broke would.
    fn orphan_direct_submissions(&mut self, mid: Mid) {
        let orphaned: Vec<u64> = self
            .submit_target
            .iter()
            .filter(|&(req, target)| *target == mid && !self.results.contains_key(req))
            .map(|(&req, _)| req)
            .collect();
        for req_id in orphaned {
            self.record_result(
                req_id,
                None,
                TxnOutcome::Aborted { reason: vsr_core::cohort::AbortReason::ViewChanged },
            );
        }
    }

    // ------------------------------------------------------------------
    // inspection
    // ------------------------------------------------------------------

    /// The currently active primary of `group`, if one exists among live
    /// cohorts.
    pub fn primary_of(&self, group: GroupId) -> Option<Mid> {
        self.peers.get(&group)?.members().iter().copied().find(|m| {
            !self.crashed.contains_key(m)
                && self.cohorts.get(m).is_some_and(|c| c.is_active_primary())
        })
    }

    fn any_live(&self, group: GroupId) -> Option<Mid> {
        self.peers.get(&group)?.members().iter().copied().find(|m| !self.crashed.contains_key(m))
    }

    /// The result of a submitted transaction, if it has completed.
    pub fn result(&self, req_id: u64) -> Option<&TxnRecord> {
        self.results.get(&req_id)
    }

    /// All completed transaction records.
    pub fn results(&self) -> impl Iterator<Item = (u64, &TxnRecord)> + '_ {
        self.results.iter().map(|(&r, rec)| (r, rec))
    }

    /// The script submitted under `req_id`.
    pub fn script(&self, req_id: u64) -> Option<&[CallOp]> {
        self.scripts.get(&req_id).map(|v| v.as_slice())
    }

    /// Observations recorded so far, with their times.
    pub fn observations(&self) -> &[(u64, Observation)] {
        &self.observations
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Raw network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Messages delivered to each cohort so far (per-node load; used by
    /// the primary-bottleneck experiment E7).
    pub fn delivered_to(&self, mid: Mid) -> u64 {
        self.delivered_to.get(&mid).copied().unwrap_or(0)
    }

    /// Inspect a cohort (panics if the mid is unknown).
    pub fn cohort(&self, mid: Mid) -> &Cohort {
        &self.cohorts[&mid]
    }

    /// Inspect a cohort's simulated disk (`None` unless the world was
    /// built with [`WorldBuilder::durable`]).
    pub fn disk(&self, mid: Mid) -> Option<&SimDisk> {
        self.disks.get(&mid)
    }

    /// Mutably access a cohort's simulated disk, e.g. to inject a torn
    /// write or bit-flip corruption before a recovery.
    pub fn disk_mut(&mut self, mid: Mid) -> Option<&mut SimDisk> {
        self.disks.get_mut(&mid)
    }

    /// Whether a cohort is currently crashed.
    pub fn is_crashed(&self, mid: Mid) -> bool {
        self.crashed.contains_key(&mid)
    }

    /// All group ids in the world.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.peers.keys().copied()
    }

    /// The members of a group.
    pub fn members_of(&self, group: GroupId) -> &[Mid] {
        self.peers[&group].members()
    }

    // ------------------------------------------------------------------
    // invariant checking
    // ------------------------------------------------------------------

    /// Check replica convergence: cohorts of the same group that have
    /// applied the same history prefix must have identical object states.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence found.
    pub fn check_convergence(&self) -> Result<(), String> {
        for (&group, config) in &self.peers {
            let mut by_position: BTreeMap<_, (Mid, Vec<_>)> = BTreeMap::new();
            for &mid in config.members() {
                if self.crashed.contains_key(&mid) {
                    continue;
                }
                let cohort = &self.cohorts[&mid];
                if !cohort.is_up_to_date() {
                    continue;
                }
                let Some(latest) = cohort.history().latest() else { continue };
                let objects: Vec<_> = cohort
                    .gstate()
                    .objects()
                    .map(|(oid, obj)| (oid, obj.version, obj.value.clone()))
                    .collect();
                match by_position.get(&(cohort.cur_viewid(), latest)) {
                    None => {
                        by_position.insert((cohort.cur_viewid(), latest), (mid, objects));
                    }
                    Some((other, expected)) => {
                        if *expected != objects {
                            return Err(format!(
                                "group {group}: cohorts {other} and {mid} diverge at the \
                                 same history position"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Check that every transaction reported `Committed` to a client is
    /// durably committed at every group its script touched: a
    /// `TxnCommitted` observation there whose record the group's history
    /// still covers, or a live cohort of the group
    /// that holds a committed-family status for it (the coordinator
    /// group's own transactions) or finished it without ever observing
    /// an abort of it, or a live coordinator-group cohort recording the
    /// commit decision.
    ///
    /// # Errors
    ///
    /// Returns a description of the first lost commit found.
    pub fn check_no_lost_commits(&self) -> Result<(), String> {
        let mut observed: BTreeSet<(GroupId, Aid)> = BTreeSet::new();
        let mut aborted: BTreeSet<(GroupId, Aid)> = BTreeSet::new();
        let mut leased: BTreeSet<Aid> = BTreeSet::new();
        for (_, obs) in &self.kept_observations() {
            #[expect(
                clippy::wildcard_enum_match_arm,
                reason = "only outcomes and leased reads bear on lost commits"
            )]
            match obs {
                Observation::TxnCommitted { group, aid, .. } => {
                    observed.insert((*group, *aid));
                }
                Observation::TxnAborted { group, aid, .. } => {
                    aborted.insert((*group, *aid));
                }
                Observation::LeasedRead { aid, .. } => {
                    leased.insert(*aid);
                }
                _ => {}
            }
        }
        let committed_at = |group: GroupId, aid: Aid| {
            self.peers[&group].members().iter().any(|m| {
                let gstate = self.cohorts[m].gstate();
                !self.crashed.contains_key(m)
                    && (gstate.status(aid).is_some_and(|s| s.is_committed())
                        || (gstate.is_finished(aid) && !aborted.contains(&(group, aid))))
            })
        };
        for (req_id, record) in &self.results {
            let TxnOutcome::Committed { .. } = record.outcome else { continue };
            let Some(aid) = record.aid else { continue };
            // Leased reads commit without touching the WAL or the
            // communication buffer — no durable trace is the *point* of
            // the fast path. Their correctness is checked by the
            // stale-read oracle in `serializability::check` instead.
            if leased.contains(&aid) {
                continue;
            }
            let script = self.scripts.get(req_id).map(|v| v.as_slice()).unwrap_or(&[]);
            let groups: BTreeSet<GroupId> = script.iter().map(|op| op.group).collect();
            for group in groups {
                // Fallback: a live cohort whose state records the outcome
                // (a participant keeps no status once it decides; every
                // outcome record it applies is observed, so having
                // finished the transaction without an abort observed at
                // the group means it committed there).
                let durable = observed.contains(&(group, aid))
                    || committed_at(group, aid)
                    || committed_at(aid.coordinator_group(), aid);
                if !durable {
                    return Err(format!(
                        "transaction {aid} (req {req_id}) reported committed but has no \
                         durable trace at group {group}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Check that participant state stays bounded (DESIGN §14): no live
    /// cohort holds a status for a transaction another group
    /// coordinates. A participant's outcome record retires that status
    /// into the finished set as it is applied, so what a participant
    /// keeps per transaction is its pending records (transactions in
    /// flight) and finished runs, never one entry per commit. The
    /// one-phase commits it keeps answering for are runs too, and none
    /// lies below its coordinator group's horizon there: the horizon
    /// record that passes them retires them.
    ///
    /// # Errors
    ///
    /// Returns the first foreign status, or one-phase run below its
    /// horizon, found.
    pub fn check_bounded_state(&self) -> Result<(), String> {
        for (mid, cohort) in &self.cohorts {
            if self.crashed.contains_key(mid) {
                continue;
            }
            let group = cohort.group();
            if let Some((aid, status)) = cohort.gstate().statuses().find(|(a, _)| a.group != group)
            {
                return Err(format!(
                    "cohort {mid} of group {group} holds status {status:?} for {aid}, which \
                     group {} coordinates ({} statuses in all)",
                    aid.group,
                    cohort.gstate().status_count()
                ));
            }
            let gstate = cohort.gstate();
            if let Some((start, end)) = gstate
                .one_phase_runs()
                .find(|(start, _)| gstate.horizon(start.group).is_some_and(|h| *start < h))
            {
                return Err(format!(
                    "cohort {mid} of group {group} keeps one-phase run {start}..{end} below \
                     group {}'s horizon {:?}",
                    start.group,
                    gstate.horizon(start.group)
                ));
            }
        }
        Ok(())
    }

    /// Run every safety check: convergence, lost commits, bounded
    /// participant state, and one-copy serializability.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn verify(&self) -> Result<(), String> {
        self.check_convergence()?;
        self.check_no_lost_commits()?;
        self.check_bounded_state()?;
        crate::serializability::check(&self.kept_observations()).map_err(|v| v.to_string())
    }

    /// The observations, less every commit whose outcome record its
    /// group's history no longer covers. A one-phase commit record is
    /// observed as it is applied, before the force that makes it the
    /// commit point; if a view change then lost it, the transaction never
    /// committed there (its coordinator hears a refusal or nothing). The
    /// group's history is the one of its most advanced live, up-to-date
    /// active cohort; a group with none keeps every commit.
    fn kept_observations(&self) -> Vec<(u64, Observation)> {
        let histories: BTreeMap<GroupId, &History> = self
            .peers
            .iter()
            .filter_map(|(&group, config)| {
                config
                    .members()
                    .iter()
                    .filter(|m| !self.crashed.contains_key(m))
                    .map(|m| &self.cohorts[m])
                    .filter(|c| c.is_up_to_date() && c.status() == Status::Active)
                    .max_by_key(|c| c.history().latest())
                    .map(|c| (group, c.history()))
            })
            .collect();
        self.observations
            .iter()
            .filter(|(_, obs)| {
                let Observation::TxnCommitted { group, vs, .. } = obs else { return true };
                histories.get(group).is_none_or(|h| h.covers(*vs))
            })
            .cloned()
            .collect()
    }

    /// Whether the paper's view-formation rule could still admit a view
    /// for `group`, given the acceptances its *live* cohorts would send
    /// right now.
    ///
    /// When this is `false` the group is in the Section 4.2 catastrophe:
    /// every cohort that might hold forced information has crash-accepted
    /// (or too few cohorts are live at all), so no view can ever form
    /// again — by design, to avoid serving with lost state. Liveness
    /// oracles use this to separate "stuck but recoverable" (a bug) from
    /// "wedged as specified" (an unrecoverable fault plan).
    pub fn group_can_form_view(&self, group: GroupId) -> bool {
        let config = &self.peers[&group];
        let members = config.members();
        let majority = members.len() / 2 + 1;
        let responses: BTreeMap<Mid, Acceptance> = members
            .iter()
            .filter(|m| !self.crashed.contains_key(m))
            .map(|&m| (m, self.cohorts[&m].acceptance()))
            .collect();
        formation_possible(&responses, majority)
    }

    /// The liveness oracle: meaningful only after faults have healed
    /// and the world has had time to quiesce. Checks that
    ///
    /// 1. every group has re-formed a view: a majority of its members
    ///    are live, `Active`, and share the group's newest viewid, and
    ///    an active primary exists in that view;
    /// 2. no live cohort is stuck mid-view-change (`ViewManager` or
    ///    `Underling`);
    /// 3. every submitted transaction reached a commit/abort decision.
    ///
    /// # Errors
    ///
    /// Returns the first stuck group, cohort, or transaction found. The
    /// failure is flagged [`LivenessFailure::catastrophic`] when some
    /// group can no longer form a view at all
    /// ([`Self::group_can_form_view`]) — the protocol wedging as
    /// specified rather than a liveness bug.
    pub fn check_liveness(&self) -> Result<(), LivenessFailure> {
        let fail = |group: GroupId, reason: String| LivenessFailure {
            catastrophic: !self.group_can_form_view(group),
            reason,
        };
        for (&group, config) in &self.peers {
            let members = config.members();
            let majority = members.len() / 2 + 1;
            let mut live_views: Vec<(Mid, ViewId)> = Vec::new();
            for &mid in members {
                if self.crashed.contains_key(&mid) {
                    continue;
                }
                let cohort = &self.cohorts[&mid];
                match cohort.status() {
                    Status::Active => live_views.push((mid, cohort.cur_viewid())),
                    stuck @ (Status::ViewManager | Status::Underling) => {
                        return Err(fail(
                            group,
                            format!(
                                "group {group}: cohort {mid} stuck in {stuck:?} after \
                                 quiescence"
                            ),
                        ))
                    }
                }
            }
            let Some(&top) = live_views.iter().map(|(_, v)| v).max() else {
                return Err(fail(group, format!("group {group}: no live active cohort")));
            };
            let sharing = live_views.iter().filter(|(_, v)| *v == top).count();
            if sharing < majority {
                return Err(fail(
                    group,
                    format!(
                        "group {group}: only {sharing}/{} members share the newest view \
                         {top:?} (majority is {majority})",
                        live_views.len()
                    ),
                ));
            }
            match self.primary_of(group) {
                Some(p) if self.cohorts[&p].cur_viewid() == top => {}
                Some(p) => {
                    return Err(fail(
                        group,
                        format!(
                            "group {group}: primary {p} is active in a stale view \
                             {:?} (newest is {top:?})",
                            self.cohorts[&p].cur_viewid()
                        ),
                    ))
                }
                None => return Err(fail(group, format!("group {group}: no active primary"))),
            }
        }
        // A transaction can legitimately hang only if some group it might
        // touch is wedged; with every group able to form views, an
        // undecided transaction is a liveness bug.
        let any_wedged = self.peers.keys().any(|&g| !self.group_can_form_view(g));
        for (&req_id, &at) in &self.submitted_at {
            match self.results.get(&req_id) {
                None => {
                    return Err(LivenessFailure {
                        catastrophic: any_wedged,
                        reason: format!(
                            "transaction req {req_id} (submitted at {at}) never reached a \
                             decision"
                        ),
                    })
                }
                Some(rec) if matches!(rec.outcome, TxnOutcome::Unresolved) => {
                    return Err(LivenessFailure {
                        catastrophic: any_wedged,
                        reason: format!(
                            "transaction req {req_id} (submitted at {at}) ended unresolved"
                        ),
                    })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// Why [`World::check_liveness`] judged the world stuck.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessFailure {
    /// `true` when some group can no longer form a view given its
    /// surviving state (the paper's Section 4.2 catastrophe): the wedge
    /// is the specified behaviour of the formation rule, not a bug.
    pub catastrophic: bool,
    /// Human-readable description of what is stuck.
    pub reason: String,
}

impl std::fmt::Display for LivenessFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.catastrophic {
            write!(f, "{} [catastrophic: view formation impossible]", self.reason)
        } else {
            write!(f, "{}", self.reason)
        }
    }
}
