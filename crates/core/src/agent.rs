//! The unreplicated client agent (Section 3.5).
//!
//! "Replicating a client that is not a server may not be worthwhile."
//! An unreplicated client runs its transactions' remote calls itself —
//! through the very call path (location cache, call send, reply and
//! rejection handling, the Section 3.6 retry and redo) that the
//! replicated client primary of Figure 2 runs — but delegates transaction
//! creation, two-phase commit, and outcome queries to a replicated
//! *coordinator-server* group, which keeps the commit decision highly
//! available and can abort unilaterally if the client dies.
//!
//! Like [`Cohort`](crate::cohort::Cohort), the agent is a sans-I/O state
//! machine reusing the same [`Effect`] and [`Timer`] vocabulary, so any
//! runtime that can drive cohorts can drive agents.

use crate::cohort::calls::{CallScript, Directory, Next};
use crate::cohort::{retry_kind, AbortReason, CallOp, Effect, Timer, TxnOutcome};
use crate::config::CohortConfig;
use crate::messages::Message;
use crate::types::{Aid, GroupId, Mid, Tick};
use crate::view::Configuration;
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
    aid: Option<Aid>,
    phase: AgentPhase,
    script: CallScript,
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
    dir: Directory,
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
            dir: Directory::new(mid, peers),
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

    // ------------------------------------------------------------------
    // submission
    // ------------------------------------------------------------------

    /// Start a transaction: ask the coordinator-server for an aid, then
    /// run `ops` and delegate the commit. The eventual
    /// [`Effect::TxnResult`] echoes `req_id`. A script calling a group the
    /// location directory does not list is aborted with
    /// [`AbortReason::UnknownGroup`] before anything is sent.
    pub fn begin_transaction(&mut self, _now: Tick, req_id: u64, ops: Vec<CallOp>) -> Vec<Effect> {
        let mut out = Vec::new();
        if let Some(group) = self.dir.unknown_group(&ops) {
            let outcome = TxnOutcome::Aborted { reason: AbortReason::UnknownGroup { group } };
            out.push(Effect::TxnResult { req_id, aid: None, outcome });
            return out;
        }
        let txn = AgentTxn {
            req_id,
            aid: None,
            phase: AgentPhase::Beginning,
            script: CallScript::new(ops),
        };
        self.txns.insert(req_id, txn);
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
        self.cfg.retry_delay(base, attempt, retry_kind::salt(self.mid, kind))
    }

    fn send_begin(&mut self, req_id: u64, out: &mut Vec<Effect>) {
        let msg = Message::ClientBegin { req: req_id, reply_to: self.mid };
        self.dir.send_to_primary(self.coord_group, msg, out);
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
                self.call_step(call_id.aid, &mut out, |script, cfg, dir, out| {
                    script.on_reply(cfg, dir, call_id, outcome, out)
                })
            }
            Message::CallReject { call_id, newer } => {
                self.call_step(call_id.aid, &mut out, |script, _, dir, out| {
                    script.on_reject(dir, call_id, newer, out)
                })
            }
            Message::ClientOutcome { aid, committed } => self.on_outcome(aid, committed, &mut out),
            Message::ClientPing { aid, reply_to } if self.by_aid.contains_key(&aid) => {
                out.push(Effect::Send { to: reply_to, msg: Message::ClientPong { aid } });
            }
            Message::ProbeReply { group, viewid, view } => {
                if self.dir.learn(group, viewid, view) {
                    self.resend_current(group, &mut out);
                }
            }
            // As at a cohort: a redirect naming a newer view re-sends at
            // once; one naming no view, or one the directory already
            // knows or has superseded, says only that the cached primary
            // is wrong, so probe the group for its current view.
            Message::Redirect { group, newer } => {
                if newer.is_some_and(|(viewid, view)| self.dir.learn(group, viewid, view)) {
                    self.resend_current(group, &mut out);
                } else {
                    self.dir.probe(group, &mut out);
                }
            }
            // An agent is not a cohort: group-directed traffic (calls,
            // two-phase commit, buffer replication, view management) can
            // only reach it misdirected or stale, and a ClientPing for an
            // aid this agent no longer tracks falls through its guard
            // above. Dropping these is the protocol's answer; listing
            // them keeps this match exhaustive so a new message class
            // must decide whether agents care.
            Message::Call { .. }
            | Message::Prepare { .. }
            | Message::PrepareCommit { .. }
            | Message::PrepareOk { .. }
            | Message::PrepareRefuse { .. }
            | Message::Commit { .. }
            | Message::CommitDone { .. }
            | Message::Abort { .. }
            | Message::Query { .. }
            | Message::QueryReply { .. }
            | Message::Horizon { .. }
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
        self.call_step(aid, out, |script, cfg, dir, out| script.advance(cfg, dir, aid, out));
    }

    /// Run one step of `aid`'s call script and act on what it leaves to
    /// do: delegate the commit once every call has replied, or abort.
    /// Only a `Running` transaction's script has a call outstanding, so
    /// the script alone recognizes stale input.
    fn call_step(
        &mut self,
        aid: Aid,
        out: &mut Vec<Effect>,
        step: impl FnOnce(&mut CallScript, &CohortConfig, &mut Directory, &mut Vec<Effect>) -> Next,
    ) {
        let Some(&req) = self.by_aid.get(&aid) else { return };
        let Some(txn) = self.txns.get_mut(&req) else { return };
        match step(&mut txn.script, &self.cfg, &mut self.dir, out) {
            Next::Wait => {}
            Next::Commit => {
                txn.phase = AgentPhase::Committing;
                self.send_commit(req, out);
                let after =
                    self.retry_delay(self.cfg.prepare_retry_interval, 1, retry_kind::AGENT_COMMIT);
                out.push(Effect::SetTimer {
                    after,
                    timer: Timer::AgentCommitRetry { aid, attempt: 1 },
                });
            }
            Next::Abort(reason) => self.abort(req, reason, out),
        }
    }

    fn send_commit(&mut self, req: u64, out: &mut Vec<Effect>) {
        let Some(txn) = self.txns.get(&req) else { return };
        let aid = txn.aid.expect("invariant: a committing transaction has an aid");
        let msg = Message::ClientCommit { aid, pset: txn.script.pset.clone(), reply_to: self.mid };
        self.dir.send_to_primary(self.coord_group, msg, out);
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
            TxnOutcome::Committed { results: txn.script.results }
        } else {
            TxnOutcome::Aborted { reason: AbortReason::CoordinatorAborted }
        };
        out.push(Effect::TxnResult { req_id: txn.req_id, aid: Some(aid), outcome });
    }

    /// Re-send whatever this agent is waiting on from `group` after a
    /// cache update.
    fn resend_current(&mut self, group: GroupId, out: &mut Vec<Effect>) {
        let snapshot: Vec<(u64, AgentPhase)> =
            self.txns.iter().map(|(&req, t)| (req, t.phase)).collect();
        for (req, phase) in snapshot {
            match phase {
                AgentPhase::Beginning if group == self.coord_group => self.send_begin(req, out),
                AgentPhase::Running => {
                    if let Some(AgentTxn { aid: Some(aid), script, .. }) = self.txns.get(&req) {
                        script.resend_to(&mut self.dir, *aid, group, out);
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
            for group in txn.script.pset.participant_groups() {
                self.dir.send_to_primary(group, Message::Abort { aid }, out);
            }
            self.dir.send_to_primary(self.coord_group, Message::ClientAbort { aid }, out);
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
                self.dir.probe(self.coord_group, &mut out);
                out.push(Effect::SetTimer {
                    after: self.retry_delay(
                        self.cfg.call_retry_interval,
                        attempt + 1,
                        retry_kind::AGENT_BEGIN,
                    ),
                    timer: Timer::AgentBeginRetry { req, attempt: attempt + 1 },
                });
            }
            Timer::CallRetry { call_id, attempt } => {
                self.call_step(call_id.aid, &mut out, |script, cfg, dir, out| {
                    script.on_retry(cfg, dir, call_id, attempt, out)
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
                self.dir.probe(self.coord_group, &mut out);
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
