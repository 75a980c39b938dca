//! The unreplicated client agent (Section 3.5).
//!
//! "Replicating a client that is not a server may not be worthwhile."
//! An unreplicated client runs its transactions' remote calls itself —
//! exactly as the replicated client primary of Figure 2 does — but
//! delegates transaction creation, two-phase commit, and outcome queries
//! to a replicated *coordinator-server* group, which keeps the commit
//! decision highly available and can abort unilaterally if the client
//! dies.
//!
//! Like [`Cohort`](crate::cohort::Cohort), the agent is a sans-I/O state
//! machine reusing the same [`Effect`] and [`Timer`] vocabulary, so any
//! runtime that can drive cohorts can drive agents.

use crate::cohort::{
    call_op_index, call_seq, retry_kind, AbortReason, CallOp, Effect, Timer, TxnOutcome,
};
use crate::config::CohortConfig;
use crate::messages::{CallOutcome, Message};
use crate::pset::PSet;
use crate::types::{Aid, CallId, GroupId, Mid, Tick, ViewId};
use crate::view::{Configuration, View};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AgentPhase {
    /// Waiting for the coordinator-server to assign an aid.
    Beginning,
    /// Running the script's calls.
    Running,
    /// Waiting for the coordinator-server's commit outcome.
    Committing,
}

#[derive(Debug, Clone)]
struct AgentTxn {
    req_id: u64,
    ops: Vec<CallOp>,
    aid: Option<Aid>,
    next_op: usize,
    pset: PSet,
    results: Vec<Vec<u8>>,
    phase: AgentPhase,
    /// Call-subaction generation for the current op (Section 3.6).
    call_generation: u64,
}

/// An unreplicated client: runs remote calls directly, delegates
/// two-phase commit to a coordinator-server group.
///
/// # Examples
///
/// Constructing an agent requires the location directory and the
/// coordinator-server's group id:
///
/// ```
/// use std::collections::BTreeMap;
/// use vsr_core::agent::ClientAgent;
/// use vsr_core::config::CohortConfig;
/// use vsr_core::types::{GroupId, Mid};
/// use vsr_core::view::Configuration;
///
/// let coord = GroupId(1);
/// let mut peers = BTreeMap::new();
/// peers.insert(coord, Configuration::new(coord, vec![Mid(1), Mid(2), Mid(3)]));
/// let agent = ClientAgent::new(CohortConfig::new(), Mid(50), coord, peers);
/// assert_eq!(agent.mid(), Mid(50));
/// ```
pub struct ClientAgent {
    cfg: CohortConfig,
    mid: Mid,
    coord_group: GroupId,
    peers: BTreeMap<GroupId, Configuration>,
    cache: BTreeMap<GroupId, (ViewId, View)>,
    txns: BTreeMap<u64, AgentTxn>,
    by_aid: BTreeMap<Aid, u64>,
}

impl std::fmt::Debug for ClientAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientAgent")
            .field("mid", &self.mid)
            .field("coord_group", &self.coord_group)
            .field("active_txns", &self.txns.len())
            .finish_non_exhaustive()
    }
}

impl ClientAgent {
    /// Create an agent that delegates to `coord_group`.
    ///
    /// # Panics
    ///
    /// Panics if `coord_group` is not in the location directory.
    pub fn new(
        cfg: CohortConfig,
        mid: Mid,
        coord_group: GroupId,
        peers: BTreeMap<GroupId, Configuration>,
    ) -> Self {
        assert!(
            peers.contains_key(&coord_group),
            "coordinator group {coord_group} not in the location directory"
        );
        ClientAgent {
            cfg,
            mid,
            coord_group,
            peers,
            cache: BTreeMap::new(),
            txns: BTreeMap::new(),
            by_aid: BTreeMap::new(),
        }
    }

    /// This agent's network address.
    pub fn mid(&self) -> Mid {
        self.mid
    }

    /// Number of transactions currently in flight.
    pub fn active_txns(&self) -> usize {
        self.txns.len()
    }

    fn cached_target(&mut self, group: GroupId) -> (ViewId, Mid) {
        if let Some((viewid, view)) = self.cache.get(&group) {
            return (*viewid, view.primary());
        }
        let config = self.peers.get(&group).unwrap_or_else(|| panic!("unknown group {group}"));
        let members = config.members();
        let primary = members[0];
        let backups: Vec<Mid> = members.iter().copied().filter(|&m| m != primary).collect();
        let viewid = ViewId::initial(primary);
        self.cache.insert(group, (viewid, View::new(primary, backups)));
        (viewid, primary)
    }

    fn update_cache(&mut self, group: GroupId, viewid: ViewId, view: View) -> bool {
        match self.cache.get(&group) {
            Some((cached, _)) if *cached >= viewid => false,
            _ => {
                self.cache.insert(group, (viewid, view));
                true
            }
        }
    }

    fn probe_group(&self, group: GroupId, out: &mut Vec<Effect>) {
        let Some(config) = self.peers.get(&group) else { return };
        for &m in config.members() {
            out.push(Effect::Send { to: m, msg: Message::Probe { group, reply_to: self.mid } });
        }
    }

    // ------------------------------------------------------------------
    // submission
    // ------------------------------------------------------------------

    /// Start a transaction: ask the coordinator-server for an aid, then
    /// run `ops` and delegate the commit. The eventual
    /// [`Effect::TxnResult`] echoes `req_id`.
    pub fn begin_transaction(&mut self, _now: Tick, req_id: u64, ops: Vec<CallOp>) -> Vec<Effect> {
        let mut out = Vec::new();
        self.txns.insert(
            req_id,
            AgentTxn {
                req_id,
                ops,
                aid: None,
                next_op: 0,
                pset: PSet::new(),
                results: Vec::new(),
                phase: AgentPhase::Beginning,
                call_generation: 0,
            },
        );
        self.send_begin(req_id, &mut out);
        out.push(Effect::SetTimer {
            after: self.retry_delay(self.cfg.call_retry_interval, 1, retry_kind::AGENT_BEGIN),
            timer: Timer::AgentBeginRetry { req: req_id, attempt: 1 },
        });
        out
    }

    /// Backoff-and-jitter delay for retry `attempt` of an agent timer
    /// (see [`CohortConfig::retry_delay`]).
    fn retry_delay(&self, base: u64, attempt: u32, kind: u64) -> u64 {
        self.cfg.retry_delay(base, attempt, self.mid.0.rotate_left(16) ^ kind)
    }

    fn send_begin(&mut self, req_id: u64, out: &mut Vec<Effect>) {
        let (_, primary) = self.cached_target(self.coord_group);
        out.push(Effect::Send {
            to: primary,
            msg: Message::ClientBegin { req: req_id, reply_to: self.mid },
        });
    }

    // ------------------------------------------------------------------
    // message handling
    // ------------------------------------------------------------------

    /// Deliver a message.
    pub fn on_message(&mut self, now: Tick, _from: Mid, msg: Message) -> Vec<Effect> {
        let mut out = Vec::new();
        match msg {
            Message::ClientBeginAck { req, aid } => self.on_begin_ack(now, req, aid, &mut out),
            Message::CallReply { call_id, outcome } => {
                self.on_call_reply(now, call_id, outcome, &mut out)
            }
            Message::CallReject { call_id, newer } => self.on_call_reject(call_id, newer, &mut out),
            Message::ClientOutcome { aid, committed } => self.on_outcome(aid, committed, &mut out),
            Message::ClientPing { aid, reply_to } if self.by_aid.contains_key(&aid) => {
                out.push(Effect::Send { to: reply_to, msg: Message::ClientPong { aid } });
            }
            Message::ProbeReply { group, viewid, view } => {
                if self.update_cache(group, viewid, view) {
                    self.resend_current(group, &mut out);
                }
            }
            Message::Redirect { group, newer } => match newer {
                Some((viewid, view)) => {
                    if self.update_cache(group, viewid, view) {
                        self.resend_current(group, &mut out);
                    }
                }
                None => self.probe_group(group, &mut out),
            },
            // An agent is not a cohort: group-directed traffic (calls,
            // two-phase commit, buffer replication, view management) can
            // only reach it misdirected or stale, and a ClientPing for an
            // aid this agent no longer tracks falls through its guard
            // above. Dropping these is the protocol's answer; listing
            // them keeps this match exhaustive so a new message class
            // must decide whether agents care.
            Message::Call { .. }
            | Message::Prepare { .. }
            | Message::PrepareOk { .. }
            | Message::PrepareRefuse { .. }
            | Message::Commit { .. }
            | Message::CommitDone { .. }
            | Message::Abort { .. }
            | Message::Query { .. }
            | Message::QueryReply { .. }
            | Message::ClientBegin { .. }
            | Message::ClientCommit { .. }
            | Message::ClientAbort { .. }
            | Message::ClientPing { .. }
            | Message::ClientPong { .. }
            | Message::Probe { .. }
            | Message::BufferSend { .. }
            | Message::BufferAck { .. }
            | Message::ImAlive { .. }
            | Message::Invite { .. }
            | Message::AcceptNormal { .. }
            | Message::AcceptCrashed { .. }
            | Message::InitView { .. }
            | Message::GetChunk { .. }
            | Message::Chunk { .. }
            | Message::LeaseGrant { .. }
            | Message::LeaseRevoke { .. } => {}
        }
        out
    }

    fn on_begin_ack(&mut self, _now: Tick, req: u64, aid: Aid, out: &mut Vec<Effect>) {
        let Some(txn) = self.txns.get_mut(&req) else { return };
        if txn.phase != AgentPhase::Beginning {
            return;
        }
        txn.aid = Some(aid);
        txn.phase = AgentPhase::Running;
        self.by_aid.insert(aid, req);
        self.advance(req, out);
    }

    /// Send the next call, or delegate the commit when the script is
    /// done.
    fn advance(&mut self, req: u64, out: &mut Vec<Effect>) {
        let Some(txn) = self.txns.get(&req) else { return };
        let aid = txn.aid.expect("invariant: an advancing transaction has an aid");
        if txn.next_op < txn.ops.len() {
            let seq = call_seq(txn.next_op, txn.call_generation);
            self.send_call(req, seq, out);
            out.push(Effect::SetTimer {
                after: self.retry_delay(self.cfg.call_retry_interval, 1, retry_kind::AGENT_CALL),
                timer: Timer::AgentCallRetry { call_id: CallId { aid, seq }, attempt: 1 },
            });
        } else {
            let txn = self.txns.get_mut(&req).expect("invariant: checked by the get above");
            txn.phase = AgentPhase::Committing;
            self.send_commit(req, out);
            out.push(Effect::SetTimer {
                after: self.retry_delay(
                    self.cfg.prepare_retry_interval,
                    1,
                    retry_kind::AGENT_COMMIT,
                ),
                timer: Timer::AgentCommitRetry { aid, attempt: 1 },
            });
        }
    }

    fn send_call(&mut self, req: u64, seq: u64, out: &mut Vec<Effect>) {
        let Some(txn) = self.txns.get(&req) else { return };
        let aid = txn.aid.expect("invariant: a running transaction has an aid");
        let op = txn.ops[call_op_index(seq)].clone();
        let (viewid, primary) = self.cached_target(op.group);
        out.push(Effect::Send {
            to: primary,
            msg: Message::Call {
                viewid,
                call_id: CallId { aid, seq },
                proc: op.proc,
                args: op.args,
            },
        });
    }

    fn send_commit(&mut self, req: u64, out: &mut Vec<Effect>) {
        let Some(txn) = self.txns.get(&req) else { return };
        let aid = txn.aid.expect("invariant: a committing transaction has an aid");
        let pset = txn.pset.clone();
        let (_, primary) = self.cached_target(self.coord_group);
        out.push(Effect::Send {
            to: primary,
            msg: Message::ClientCommit { aid, pset, reply_to: self.mid },
        });
    }

    fn on_call_reply(
        &mut self,
        _now: Tick,
        call_id: CallId,
        outcome: CallOutcome,
        out: &mut Vec<Effect>,
    ) {
        let Some(&req) = self.by_aid.get(&call_id.aid) else { return };
        let Some(txn) = self.txns.get_mut(&req) else { return };
        if txn.phase != AgentPhase::Running
            || call_seq(txn.next_op, txn.call_generation) != call_id.seq
        {
            return;
        }
        match outcome {
            CallOutcome::Ok { result, pset } => {
                txn.pset.merge(&pset);
                txn.results.push(result);
                txn.next_op += 1;
                txn.call_generation = 0;
                self.advance(req, out);
            }
            CallOutcome::Refused(refusal) => {
                let group = txn.ops[call_op_index(call_id.seq)].group;
                self.abort(req, AbortReason::CallRefused { group, refusal }, out);
            }
        }
    }

    fn on_call_reject(
        &mut self,
        call_id: CallId,
        newer: Option<(ViewId, View)>,
        out: &mut Vec<Effect>,
    ) {
        let Some(&req) = self.by_aid.get(&call_id.aid) else { return };
        let Some(txn) = self.txns.get(&req) else { return };
        if txn.phase != AgentPhase::Running
            || call_seq(txn.next_op, txn.call_generation) != call_id.seq
        {
            return;
        }
        let group = txn.ops[call_op_index(call_id.seq)].group;
        let updated = match newer {
            Some((viewid, view)) => self.update_cache(group, viewid, view),
            None => false,
        };
        if updated {
            self.send_call(req, call_id.seq, out);
        } else {
            self.probe_group(group, out);
        }
    }

    fn on_outcome(&mut self, aid: Aid, committed: bool, out: &mut Vec<Effect>) {
        let Some(&req) = self.by_aid.get(&aid) else { return };
        let Some(txn) = self.txns.get(&req) else { return };
        if txn.phase != AgentPhase::Committing {
            return;
        }
        let txn = self.txns.remove(&req).expect("invariant: checked by the get above");
        self.by_aid.remove(&aid);
        let outcome = if committed {
            TxnOutcome::Committed { results: txn.results }
        } else {
            TxnOutcome::Aborted { reason: AbortReason::CoordinatorAborted }
        };
        out.push(Effect::TxnResult { req_id: txn.req_id, aid: Some(aid), outcome });
    }

    /// Re-send whatever this agent is waiting on from `group` after a
    /// cache update.
    fn resend_current(&mut self, group: GroupId, out: &mut Vec<Effect>) {
        let snapshot: Vec<(u64, AgentPhase, Option<u64>)> = self
            .txns
            .iter()
            .map(|(&req, t)| {
                let seq = (t.phase == AgentPhase::Running
                    && t.next_op < t.ops.len()
                    && t.ops[t.next_op].group == group)
                    .then_some(call_seq(t.next_op, t.call_generation));
                (req, t.phase, seq)
            })
            .collect();
        for (req, phase, call_seq) in snapshot {
            match phase {
                AgentPhase::Beginning if group == self.coord_group => self.send_begin(req, out),
                AgentPhase::Running => {
                    if let Some(seq) = call_seq {
                        self.send_call(req, seq, out);
                    }
                }
                AgentPhase::Committing if group == self.coord_group => self.send_commit(req, out),
                // Begin/commit traffic goes to the coordinator group
                // only; a cache update for some other group changes
                // nothing for transactions in those phases.
                AgentPhase::Beginning | AgentPhase::Committing => {}
            }
        }
    }

    /// Abort a transaction from the agent side: notify participants
    /// directly (the agent has the pset) and tell the coordinator-server
    /// so it records the abort durably.
    fn abort(&mut self, req: u64, reason: AbortReason, out: &mut Vec<Effect>) {
        let Some(txn) = self.txns.remove(&req) else { return };
        if let Some(aid) = txn.aid {
            self.by_aid.remove(&aid);
            for group in txn.pset.participant_groups() {
                let (_, primary) = self.cached_target(group);
                out.push(Effect::Send { to: primary, msg: Message::Abort { aid } });
            }
            let (_, coord) = self.cached_target(self.coord_group);
            out.push(Effect::Send { to: coord, msg: Message::ClientAbort { aid } });
        }
        out.push(Effect::TxnResult {
            req_id: txn.req_id,
            aid: txn.aid,
            outcome: TxnOutcome::Aborted { reason },
        });
    }

    // ------------------------------------------------------------------
    // timers
    // ------------------------------------------------------------------

    /// A timer fired.
    pub fn on_timer(&mut self, _now: Tick, timer: Timer) -> Vec<Effect> {
        let mut out = Vec::new();
        match timer {
            Timer::AgentBeginRetry { req, attempt } => {
                let waiting = self.txns.get(&req).is_some_and(|t| t.phase == AgentPhase::Beginning);
                if !waiting {
                    return out;
                }
                if attempt >= self.cfg.call_attempts {
                    self.abort(req, AbortReason::CallTimeout { group: self.coord_group }, &mut out);
                    return out;
                }
                self.send_begin(req, &mut out);
                self.probe_group(self.coord_group, &mut out);
                out.push(Effect::SetTimer {
                    after: self.retry_delay(
                        self.cfg.call_retry_interval,
                        attempt + 1,
                        retry_kind::AGENT_BEGIN,
                    ),
                    timer: Timer::AgentBeginRetry { req, attempt: attempt + 1 },
                });
            }
            Timer::AgentCallRetry { call_id, attempt } => {
                let Some(&req) = self.by_aid.get(&call_id.aid) else { return out };
                let active = self.txns.get(&req).is_some_and(|t| {
                    t.phase == AgentPhase::Running
                        && call_seq(t.next_op, t.call_generation) == call_id.seq
                });
                if !active {
                    return out;
                }
                let group = self.txns[&req].ops[call_op_index(call_id.seq)].group;
                if attempt >= self.cfg.call_attempts {
                    let txn = self
                        .txns
                        .get_mut(&req)
                        .expect("invariant: checked by the is_some_and above");
                    if txn.call_generation < self.cfg.call_redo_attempts as u64 {
                        // Abort the call subaction and redo it as a new
                        // one (Section 3.6).
                        txn.call_generation += 1;
                        let seq = call_seq(txn.next_op, txn.call_generation);
                        let aid = txn.aid.expect("invariant: a running transaction has an aid");
                        self.send_call(req, seq, &mut out);
                        self.probe_group(group, &mut out);
                        out.push(Effect::SetTimer {
                            after: self.retry_delay(
                                self.cfg.call_retry_interval,
                                1,
                                retry_kind::AGENT_CALL,
                            ),
                            timer: Timer::AgentCallRetry {
                                call_id: CallId { aid, seq },
                                attempt: 1,
                            },
                        });
                        return out;
                    }
                    self.abort(req, AbortReason::CallTimeout { group }, &mut out);
                    return out;
                }
                self.send_call(req, call_id.seq, &mut out);
                self.probe_group(group, &mut out);
                out.push(Effect::SetTimer {
                    after: self.retry_delay(
                        self.cfg.call_retry_interval,
                        attempt + 1,
                        retry_kind::AGENT_CALL,
                    ),
                    timer: Timer::AgentCallRetry { call_id, attempt: attempt + 1 },
                });
            }
            Timer::AgentCommitRetry { aid, attempt } => {
                let Some(&req) = self.by_aid.get(&aid) else { return out };
                let committing =
                    self.txns.get(&req).is_some_and(|t| t.phase == AgentPhase::Committing);
                if !committing {
                    return out;
                }
                if attempt >= self.cfg.prepare_attempts * 2 {
                    // The outcome is genuinely unknown: the commit may
                    // have been decided by an unreachable coordinator.
                    let txn = self
                        .txns
                        .remove(&req)
                        .expect("invariant: checked by the is_some_and above");
                    self.by_aid.remove(&aid);
                    out.push(Effect::TxnResult {
                        req_id: txn.req_id,
                        aid: Some(aid),
                        outcome: TxnOutcome::Unresolved,
                    });
                    return out;
                }
                self.send_commit(req, &mut out);
                self.probe_group(self.coord_group, &mut out);
                out.push(Effect::SetTimer {
                    after: self.retry_delay(
                        self.cfg.prepare_retry_interval,
                        attempt + 1,
                        retry_kind::AGENT_COMMIT,
                    ),
                    timer: Timer::AgentCommitRetry { aid, attempt: attempt + 1 },
                });
            }
            // Cohort timers: an agent never arms them. Listing them keeps
            // this match exhaustive so a new timer must decide whether
            // agents care.
            Timer::Heartbeat
            | Timer::BufferFlush
            | Timer::CallRetry { .. }
            | Timer::PrepareRetry { .. }
            | Timer::CommitRetry { .. }
            | Timer::ForceCheck { .. }
            | Timer::LockWait { .. }
            | Timer::QueryTick { .. }
            | Timer::InviteTimeout { .. }
            | Timer::UnderlingTimeout { .. }
            | Timer::ManagerRetry { .. }
            | Timer::ClientPingTimeout { .. }
            | Timer::ChunkRetry { .. }
            | Timer::LeaseExpiry { .. }
            | Timer::LeaseWait { .. } => {}
        }
        out
    }
}
