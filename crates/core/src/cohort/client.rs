//! Client-side transaction processing: running a transaction's remote
//! calls and coordinating two-phase commit at the active primary of a
//! client group (Section 3.1, Figure 2).
//!
//! A transaction is submitted as a *script* of sequential remote calls
//! ([`CallOp`]); the coordinator runs them in order, collecting the pset,
//! and then drives two-phase commit. The paper's model has arbitrary user
//! code between calls; a pre-declared script is equivalent for the
//! protocol, which only observes the sequence of calls and the final
//! commit.

use super::{retry_kind, Cohort, Effect, ForceReason, Observation, Status, Timer};
use crate::event::EventKind;
use crate::gstate::{LockMode, ObjectAccess};
use crate::messages::{CallOutcome, CallRefusal, Message};
use crate::module::TxnCtx;
use crate::pset::PSet;
use crate::types::{Aid, CallId, GroupId, Mid, Tick, ViewId};
use crate::view::View;
use std::collections::{BTreeMap, BTreeSet};

/// One remote call in a transaction script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallOp {
    /// The server group to call.
    pub group: GroupId,
    /// Procedure name.
    pub proc: String,
    /// Procedure arguments.
    pub args: Vec<u8>,
}

/// Why a transaction aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// A remote call got no reply "after a sufficient number of probes"
    /// (Figure 2 step 3).
    CallTimeout {
        /// The unresponsive group.
        group: GroupId,
    },
    /// A remote call was refused (lock timeout or application error).
    CallRefused {
        /// The refusing group.
        group: GroupId,
        /// Why.
        refusal: CallRefusal,
    },
    /// A participant refused the prepare (a call event was lost in a view
    /// change).
    PrepareRefused {
        /// The refusing group.
        group: GroupId,
    },
    /// The prepare round got no answer after repeated tries.
    PrepareTimeout,
    /// The transaction was submitted to a cohort that is not an active
    /// primary.
    NotPrimary,
    /// The coordinator lost its primaryship before the commit decision.
    ViewChanged,
    /// A delegated transaction was aborted by its coordinator-server
    /// (prepare refused or timed out there, or the server aborted
    /// unilaterally after the client appeared dead; Section 3.5).
    CoordinatorAborted,
}

/// The final outcome of a submitted transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The commit decision reached a sub-majority of the coordinator's
    /// backups; results are the reply values of the script's calls in
    /// order. ("User code can continue running as soon as the
    /// 'committing' record has been forced to the backups.")
    Committed {
        /// Reply values, one per call.
        results: Vec<Vec<u8>>,
    },
    /// The transaction aborted.
    Aborted {
        /// Why.
        reason: AbortReason,
    },
    /// The commit decision was in flight when the coordinator's view
    /// failed; whether it survives depends on the view change. The true
    /// outcome can be learned later via a query.
    Unresolved,
}

/// The coordinator's volatile bookkeeping for one transaction.
#[derive(Debug, Clone)]
pub(crate) struct CoordTxn {
    pub(crate) req_id: u64,
    pub(crate) ops: Vec<CallOp>,
    pub(crate) next_op: usize,
    pub(crate) pset: PSet,
    pub(crate) results: Vec<Vec<u8>>,
    pub(crate) phase: CoordPhase,
    /// Prepare votes received: group → read_only.
    pub(crate) votes: BTreeMap<GroupId, bool>,
    /// Non-read-only participants (phase two targets).
    pub(crate) plist: Vec<GroupId>,
    /// Phase-two acknowledgements received.
    pub(crate) acks: BTreeSet<GroupId>,
    /// For a transaction delegated by an unreplicated client
    /// (Section 3.5): the client mid to send the outcome to.
    pub(crate) delegate: Option<Mid>,
    /// Call-subaction generation for the current op (Section 3.6): the
    /// call id's high bits, bumped on each redo.
    pub(crate) call_generation: u64,
}

/// Compose a call sequence number from its op index and subaction
/// generation (the generation lives in the high 32 bits, so every redo
/// gets a globally fresh call id while the op index stays recoverable;
/// Section 3.6).
pub fn call_seq(op_index: usize, generation: u64) -> u64 {
    (generation << 32) | op_index as u64
}

/// The op index encoded in a call sequence number.
pub fn call_op_index(seq: u64) -> usize {
    (seq & 0xFFFF_FFFF) as usize
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoordPhase {
    /// Running the script's calls.
    Running,
    /// Waiting for prepare votes.
    Preparing,
    /// The committing record is added but not yet forced — the decision
    /// is in flight.
    Deciding,
    /// Decided and reported; retransmitting commit messages until all
    /// participants acknowledge.
    Committing,
}

impl Cohort {
    // ------------------------------------------------------------------
    // transaction submission
    // ------------------------------------------------------------------

    /// Submit a transaction: run `ops` in order, then two-phase commit.
    /// The eventual [`Effect::TxnResult`] echoes `req_id`.
    ///
    /// Only an active primary accepts transactions; otherwise the
    /// submission is immediately aborted with
    /// [`AbortReason::NotPrimary`].
    pub fn begin_transaction(&mut self, now: Tick, req_id: u64, ops: Vec<CallOp>) -> Vec<Effect> {
        let mut out = Vec::new();
        if !self.is_active_primary() {
            out.push(Effect::TxnResult {
                req_id,
                aid: None,
                outcome: TxnOutcome::Aborted { reason: AbortReason::NotPrimary },
            });
            return out;
        }
        // Leased-read fast path: while this primary holds lease grants
        // from a sub-majority of its backups (a majority of the view
        // counting itself), no other view can commit a write, so a
        // transaction whose every call targets this very group and only
        // reads can be answered from local committed state — no event
        // records, no communication buffer, no force, no disk. Any write
        // access, lock conflict, or application error falls back to the
        // normal coordinated path below.
        if self.holds_lease() && !ops.is_empty() && ops.iter().all(|op| op.group == self.group) {
            let aid = Aid { group: self.group, view: self.cur_viewid, seq: self.next_txn_seq };
            match self.execute_leased_read(aid, &ops) {
                Ok((results, accesses)) => {
                    self.next_txn_seq += 1;
                    out.push(Effect::Observe(Observation::LeasedRead {
                        group: self.group,
                        mid: self.mid,
                        aid,
                        req_id,
                        accesses,
                    }));
                    out.push(Effect::TxnResult {
                        req_id,
                        aid: Some(aid),
                        outcome: TxnOutcome::Committed { results },
                    });
                    return out;
                }
                Err(()) => {
                    out.push(Effect::Observe(Observation::LeaseReadRejected {
                        group: self.group,
                        mid: self.mid,
                    }));
                }
            }
        }
        // "When a transaction is created, it receives a unique transaction
        // identifier aid and an empty pset. (We make the aid unique across
        // view changes by including mygroupid and cur-viewid in it.)"
        let aid = Aid { group: self.group, view: self.cur_viewid, seq: self.next_txn_seq };
        self.next_txn_seq += 1;
        let txn = CoordTxn {
            req_id,
            ops,
            next_op: 0,
            pset: PSet::new(),
            results: Vec::new(),
            phase: CoordPhase::Running,
            votes: BTreeMap::new(),
            plist: Vec::new(),
            acks: BTreeSet::new(),
            delegate: None,
            call_generation: 0,
        };
        self.coord.insert(aid, txn);
        self.advance_txn(now, aid, &mut out);
        out
    }

    /// Execute a read-only script against local committed state without
    /// creating any event records: every call runs through the module with
    /// a fresh [`TxnCtx`] and its staged effects are discarded. Fails —
    /// for fallback to the coordinated path — on any write access, lock
    /// conflict, or application error. Nothing is published on failure:
    /// the trial aid is only consumed by the caller on success.
    fn execute_leased_read(
        &self,
        aid: Aid,
        ops: &[CallOp],
    ) -> Result<(Vec<Vec<u8>>, Vec<ObjectAccess>), ()> {
        let mut results = Vec::with_capacity(ops.len());
        let mut accesses = Vec::new();
        for op in ops {
            let mut ctx = TxnCtx::new(&self.gstate, &self.locks, aid);
            let result = self.module.execute(&op.proc, &op.args, &mut ctx).map_err(|_| ())?;
            let step = ctx.into_accesses();
            if step.iter().any(|a| a.mode != LockMode::Read) {
                return Err(());
            }
            accesses.extend(step);
            results.push(result.0);
        }
        Ok((results, accesses))
    }

    /// Run the next call of the script, or move to two-phase commit when
    /// the script is finished.
    fn advance_txn(&mut self, now: Tick, aid: Aid, out: &mut Vec<Effect>) {
        let Some(txn) = self.coord.get(&aid) else { return };
        if txn.next_op < txn.ops.len() {
            let seq = call_seq(txn.next_op, txn.call_generation);
            self.send_call(aid, seq, out);
            out.push(Effect::SetTimer {
                after: self.retry_delay(self.cfg.call_retry_interval, 1, retry_kind::CALL),
                timer: Timer::CallRetry { call_id: CallId { aid, seq }, attempt: 1 },
            });
        } else {
            self.start_prepare(now, aid, out);
        }
    }

    /// Send (or re-send) call number `seq` of the transaction to the
    /// target group's cached primary (Figure 2, "Making a remote call").
    fn send_call(&mut self, aid: Aid, seq: u64, out: &mut Vec<Effect>) {
        let Some(txn) = self.coord.get(&aid) else { return };
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

    /// The cached `(viewid, primary)` for a group, initializing the cache
    /// from the configuration if needed (the paper's location-server
    /// lookup).
    pub(crate) fn cached_target(&mut self, group: GroupId) -> (ViewId, Mid) {
        if let Some((viewid, view)) = self.cache.get(&group) {
            return (*viewid, view.primary());
        }
        let config = self
            .peers
            .get(&group)
            .unwrap_or_else(|| panic!("unknown group {group} (not in location directory)"));
        let members = config.members();
        let primary = members[0];
        let backups: Vec<Mid> = members.iter().copied().filter(|&m| m != primary).collect();
        let viewid = ViewId::initial(primary);
        let view = View::new(primary, backups);
        self.cache.insert(group, (viewid, view));
        (viewid, primary)
    }

    /// Probe all members of a group's configuration for its current view.
    fn probe_group(&self, group: GroupId, out: &mut Vec<Effect>) {
        let Some(config) = self.peers.get(&group) else { return };
        for &m in config.members() {
            if m != self.mid {
                out.push(Effect::Send { to: m, msg: Message::Probe { group, reply_to: self.mid } });
            }
        }
    }

    // ------------------------------------------------------------------
    // call replies (Figure 2 steps 2-4)
    // ------------------------------------------------------------------

    pub(crate) fn on_call_reply(
        &mut self,
        now: Tick,
        call_id: CallId,
        outcome: CallOutcome,
        out: &mut Vec<Effect>,
    ) {
        let aid = call_id.aid;
        let Some(txn) = self.coord.get_mut(&aid) else { return };
        if txn.phase != CoordPhase::Running
            || call_seq(txn.next_op, txn.call_generation) != call_id.seq
        {
            return; // stale or duplicate reply (possibly an old subaction's)
        }
        match outcome {
            CallOutcome::Ok { result, pset } => {
                // "If a reply message arrives, add the elements of the
                // pset in the reply message to the transaction's pset.
                // User code at the client can now continue running."
                txn.pset.merge(&pset);
                txn.results.push(result);
                txn.next_op += 1;
                txn.call_generation = 0;
                self.advance_txn(now, aid, out);
            }
            CallOutcome::Refused(refusal) => {
                let group = txn.ops[call_op_index(call_id.seq)].group;
                self.abort_txn(aid, AbortReason::CallRefused { group, refusal }, out);
            }
        }
    }

    pub(crate) fn on_call_reject(
        &mut self,
        _now: Tick,
        call_id: CallId,
        newer: Option<(ViewId, View)>,
        out: &mut Vec<Effect>,
    ) {
        let aid = call_id.aid;
        let Some(txn) = self.coord.get(&aid) else { return };
        if txn.phase != CoordPhase::Running
            || call_seq(txn.next_op, txn.call_generation) != call_id.seq
        {
            return;
        }
        let group = txn.ops[call_op_index(call_id.seq)].group;
        // "If the reply indicates that the view has changed, update the
        // cache, if possible, and go to step 1." A rejection is proof the
        // call was not executed in the new view, so the re-send (with the
        // same call id) is safe.
        let updated = match newer {
            Some((viewid, view)) => self.update_cache(group, viewid, view),
            None => false,
        };
        if updated {
            self.send_call(aid, call_id.seq, out);
        } else {
            // "If a more recent view cannot be discovered, abort": probe
            // first; the call-retry timer aborts if nothing turns up.
            self.probe_group(group, out);
        }
    }

    pub(crate) fn on_call_retry(
        &mut self,
        _now: Tick,
        call_id: CallId,
        attempt: u32,
        out: &mut Vec<Effect>,
    ) {
        let aid = call_id.aid;
        let Some(txn) = self.coord.get_mut(&aid) else { return };
        if txn.phase != CoordPhase::Running
            || call_seq(txn.next_op, txn.call_generation) != call_id.seq
        {
            return;
        }
        let group = txn.ops[call_op_index(call_id.seq)].group;
        if attempt >= self.cfg.call_attempts {
            if txn.call_generation < self.cfg.call_redo_attempts as u64 {
                // Section 3.6: "we can abort just the subaction, and
                // then do the call again as a new subaction." The redo
                // carries a fresh call id; the server durably drops any
                // surviving record of the old generation before
                // executing the new one, so exactly one generation's
                // effects can commit.
                txn.call_generation += 1;
                let seq = call_seq(txn.next_op, txn.call_generation);
                self.send_call(aid, seq, out);
                self.probe_group(group, out);
                out.push(Effect::SetTimer {
                    after: self.retry_delay(self.cfg.call_retry_interval, 1, retry_kind::CALL),
                    timer: Timer::CallRetry { call_id: CallId { aid, seq }, attempt: 1 },
                });
                return;
            }
            // "If there is no reply, abort the transaction" (Figure 2
            // step 3) — after the redo budget is exhausted.
            self.abort_txn(aid, AbortReason::CallTimeout { group }, out);
            return;
        }
        self.send_call(aid, call_id.seq, out);
        self.probe_group(group, out);
        out.push(Effect::SetTimer {
            after: self.retry_delay(self.cfg.call_retry_interval, attempt + 1, retry_kind::CALL),
            timer: Timer::CallRetry { call_id, attempt: attempt + 1 },
        });
    }

    // ------------------------------------------------------------------
    // two-phase commit, coordinator side (Figure 2)
    // ------------------------------------------------------------------

    fn start_prepare(&mut self, _now: Tick, aid: Aid, out: &mut Vec<Effect>) {
        let Some(txn) = self.coord.get_mut(&aid) else { return };
        let participants = txn.pset.participant_groups();
        if participants.is_empty() {
            // A transaction that made no calls commits trivially; there is
            // nothing to recover, so no records are needed.
            let txn = self.coord.remove(&aid).expect("invariant: checked by the get_mut above");
            out.push(Effect::TxnResult {
                req_id: txn.req_id,
                aid: Some(aid),
                outcome: TxnOutcome::Committed { results: txn.results },
            });
            return;
        }
        txn.phase = CoordPhase::Preparing;
        txn.votes.clear();
        self.send_prepares(aid, out);
        out.push(Effect::SetTimer {
            after: self.retry_delay(self.cfg.prepare_retry_interval, 1, retry_kind::PREPARE),
            timer: Timer::PrepareRetry { aid, attempt: 1 },
        });
    }

    /// "Send prepare messages containing the aid and pset to the
    /// participants, which can be determined from the pset."
    pub(crate) fn send_prepares(&mut self, aid: Aid, out: &mut Vec<Effect>) {
        let Some(txn) = self.coord.get(&aid) else { return };
        let pset = txn.pset.clone();
        let pending: Vec<GroupId> =
            pset.participant_groups().into_iter().filter(|g| !txn.votes.contains_key(g)).collect();
        for group in pending {
            let (_, primary) = self.cached_target(group);
            out.push(Effect::Send {
                to: primary,
                msg: Message::Prepare { aid, pset: pset.clone(), coordinator: self.mid },
            });
        }
    }

    pub(crate) fn on_prepare_ok(
        &mut self,
        now: Tick,
        aid: Aid,
        group: GroupId,
        read_only: bool,
        out: &mut Vec<Effect>,
    ) {
        let Some(txn) = self.coord.get_mut(&aid) else { return };
        if txn.phase != CoordPhase::Preparing {
            return;
        }
        txn.votes.insert(group, read_only);
        let participants = txn.pset.participant_groups();
        if !participants.iter().all(|g| txn.votes.contains_key(g)) {
            return;
        }
        // "If all participants agree to commit, … add a <"committing",
        // plist, aid> record to the buffer, where the plist is a list of
        // non-read-only participants, and then do a force-to(new-vs)."
        let plist: Vec<GroupId> = participants
            .into_iter()
            .filter(|g| !txn.votes.get(g).copied().unwrap_or(false))
            .collect();
        txn.plist = plist.clone();
        txn.phase = CoordPhase::Deciding;
        let vs = self.primary_add(EventKind::Committing { aid, plist }, out);
        for fired in self.primary_force(vs, ForceReason::CoordCommitted { aid }, out) {
            self.fire_force_reason(now, fired, out);
        }
    }

    /// The committing record reached a sub-majority: the transaction is
    /// committed. Report to the submitter and start phase two ("user code
    /// can continue running as soon as the 'committing' record has been
    /// forced to the backups").
    pub(crate) fn on_commit_decided(&mut self, aid: Aid, out: &mut Vec<Effect>) {
        let Some(txn) = self.coord.get_mut(&aid) else { return };
        if txn.phase != CoordPhase::Deciding {
            return;
        }
        txn.phase = CoordPhase::Committing;
        match txn.delegate {
            Some(client) => out.push(Effect::Send {
                to: client,
                msg: Message::ClientOutcome { aid, committed: true },
            }),
            None => out.push(Effect::TxnResult {
                req_id: txn.req_id,
                aid: Some(aid),
                outcome: TxnOutcome::Committed { results: txn.results.clone() },
            }),
        }
        self.delegated.remove(&aid);
        self.drive_phase_two(aid, 1, out);
    }

    /// Send commit messages to unacknowledged plist participants; finish
    /// with a done record when all have acknowledged. `attempt` numbers
    /// the commit round (1-based) and drives the retry backoff.
    fn drive_phase_two(&mut self, aid: Aid, attempt: u32, out: &mut Vec<Effect>) {
        let Some(txn) = self.coord.get(&aid) else { return };
        let pending: Vec<GroupId> =
            txn.plist.iter().copied().filter(|g| !txn.acks.contains(g)).collect();
        if pending.is_empty() {
            // "When all of them acknowledge the commit, add a <"done",
            // aid> record to the buffer."
            self.coord.remove(&aid);
            if self.is_active_primary() {
                self.primary_add(EventKind::Done { aid }, out);
            }
            return;
        }
        for group in pending {
            let (_, primary) = self.cached_target(group);
            out.push(Effect::Send {
                to: primary,
                msg: Message::Commit { aid, coordinator: self.mid },
            });
        }
        out.push(Effect::SetTimer {
            after: self.retry_delay(self.cfg.commit_retry_interval, attempt, retry_kind::COMMIT),
            timer: Timer::CommitRetry { aid, attempt },
        });
    }

    pub(crate) fn on_commit_done(&mut self, aid: Aid, group: GroupId, out: &mut Vec<Effect>) {
        if let Some(txn) = self.coord.get_mut(&aid) {
            if txn.phase != CoordPhase::Committing {
                return;
            }
            txn.acks.insert(group);
            let done = txn.plist.iter().all(|g| txn.acks.contains(g));
            if done {
                self.drive_phase_two(aid, 1, out);
            }
            return;
        }
        // A transaction resumed after a view change (Section 4:
        // transactions that committed "will still be committed" — the new
        // primary finishes phase two from the forced committing record).
        if let Some(pending) = self.resumed.get_mut(&aid) {
            pending.remove(&group);
            if pending.is_empty() {
                self.resumed.remove(&aid);
                if self.is_active_primary() {
                    self.primary_add(EventKind::Done { aid }, out);
                }
            }
        }
    }

    pub(crate) fn on_commit_retry(&mut self, aid: Aid, attempt: u32, out: &mut Vec<Effect>) {
        if !self.is_active_primary() {
            return;
        }
        if self.coord.get(&aid).is_some_and(|t| t.phase == CoordPhase::Committing) {
            self.drive_phase_two(aid, attempt + 1, out);
            return;
        }
        if let Some(pending) = self.resumed.get(&aid) {
            for &group in pending.clone().iter() {
                let (_, primary) = self.cached_target(group);
                out.push(Effect::Send {
                    to: primary,
                    msg: Message::Commit { aid, coordinator: self.mid },
                });
            }
            out.push(Effect::SetTimer {
                after: self.retry_delay(
                    self.cfg.commit_retry_interval,
                    attempt + 1,
                    retry_kind::COMMIT,
                ),
                timer: Timer::CommitRetry { aid, attempt: attempt + 1 },
            });
        }
    }

    pub(crate) fn on_prepare_refuse(
        &mut self,
        _now: Tick,
        aid: Aid,
        group: GroupId,
        out: &mut Vec<Effect>,
    ) {
        let Some(txn) = self.coord.get(&aid) else { return };
        if txn.phase != CoordPhase::Preparing {
            return;
        }
        // "If any participant refuses to prepare, discard any local locks
        // and versions held by the transaction and send abort messages to
        // the participants."
        self.abort_txn(aid, AbortReason::PrepareRefused { group }, out);
    }

    pub(crate) fn on_prepare_retry(
        &mut self,
        _now: Tick,
        aid: Aid,
        attempt: u32,
        out: &mut Vec<Effect>,
    ) {
        let Some(txn) = self.coord.get(&aid) else { return };
        if txn.phase != CoordPhase::Preparing {
            return;
        }
        if attempt >= self.cfg.prepare_attempts {
            // "If there is no answer after repeated tries, update the
            // cache, if possible, and retry the prepare. If a more recent
            // view cannot be discovered, … abort."
            self.abort_txn(aid, AbortReason::PrepareTimeout, out);
            return;
        }
        let unvoted: Vec<GroupId> = txn
            .pset
            .participant_groups()
            .into_iter()
            .filter(|g| !txn.votes.contains_key(g))
            .collect();
        for group in &unvoted {
            self.probe_group(*group, out);
        }
        self.send_prepares(aid, out);
        out.push(Effect::SetTimer {
            after: self.retry_delay(
                self.cfg.prepare_retry_interval,
                attempt + 1,
                retry_kind::PREPARE,
            ),
            timer: Timer::PrepareRetry { aid, attempt: attempt + 1 },
        });
    }

    /// Abort a coordinated transaction: notify participants (best
    /// effort), record the abort, and report to the submitter.
    pub(crate) fn abort_txn(&mut self, aid: Aid, reason: AbortReason, out: &mut Vec<Effect>) {
        let Some(txn) = self.coord.remove(&aid) else { return };
        debug_assert!(
            !matches!(txn.phase, CoordPhase::Deciding | CoordPhase::Committing),
            "cannot abort a transaction whose commit decision is in flight"
        );
        // "Send abort messages to the participants (determined from the
        // pset), and add an <"aborted", aid> record to the buffer."
        for group in txn.pset.participant_groups() {
            let (_, primary) = self.cached_target(group);
            out.push(Effect::Send { to: primary, msg: Message::Abort { aid } });
        }
        if self.is_active_primary() {
            self.primary_add(EventKind::Aborted { aid }, out);
        }
        match txn.delegate {
            Some(client) => out.push(Effect::Send {
                to: client,
                msg: Message::ClientOutcome { aid, committed: false },
            }),
            None => out.push(Effect::TxnResult {
                req_id: txn.req_id,
                aid: Some(aid),
                outcome: TxnOutcome::Aborted { reason },
            }),
        }
        self.delegated.remove(&aid);
    }

    // ------------------------------------------------------------------
    // cache maintenance
    // ------------------------------------------------------------------

    /// Update the cached view for `group` if `viewid` is newer. Returns
    /// whether the cache changed.
    pub(crate) fn update_cache(&mut self, group: GroupId, viewid: ViewId, view: View) -> bool {
        match self.cache.get(&group) {
            Some((cached, _)) if *cached >= viewid => false,
            _ => {
                self.cache.insert(group, (viewid, view));
                true
            }
        }
    }

    pub(crate) fn on_redirect(
        &mut self,
        _now: Tick,
        group: GroupId,
        newer: Option<(ViewId, View)>,
        out: &mut Vec<Effect>,
    ) {
        let updated = match newer {
            Some((viewid, view)) => self.update_cache(group, viewid, view),
            None => false,
        };
        if !updated {
            self.probe_group(group, out);
            return;
        }
        self.resend_after_cache_update(group, out);
    }

    pub(crate) fn on_probe_reply(
        &mut self,
        _now: Tick,
        group: GroupId,
        viewid: ViewId,
        view: View,
        out: &mut Vec<Effect>,
    ) {
        if self.update_cache(group, viewid, view) {
            self.resend_after_cache_update(group, out);
        }
    }

    /// After learning a newer view for `group`, re-send whatever this
    /// coordinator is currently waiting on from that group. All re-sent
    /// messages are idempotent: calls carry call ids (duplicate-suppressed
    /// at the server), prepares and commits are retry-safe.
    fn resend_after_cache_update(&mut self, group: GroupId, out: &mut Vec<Effect>) {
        if self.status != Status::Active {
            return;
        }
        let txns: Vec<(Aid, CoordPhase, Option<u64>)> = self
            .coord
            .iter()
            .map(|(&aid, t)| {
                let seq = (t.phase == CoordPhase::Running
                    && t.next_op < t.ops.len()
                    && t.ops[t.next_op].group == group)
                    .then_some(call_seq(t.next_op, t.call_generation));
                (aid, t.phase, seq)
            })
            .collect();
        for (aid, phase, call_seq) in txns {
            match phase {
                CoordPhase::Running => {
                    if let Some(seq) = call_seq {
                        self.send_call(aid, seq, out);
                    }
                }
                CoordPhase::Preparing => self.send_prepares(aid, out),
                CoordPhase::Committing => self.drive_phase_two(aid, 1, out),
                CoordPhase::Deciding => {}
            }
        }
    }

    /// Called when this cohort irrevocably loses its coordinator role
    /// (it installed a view in which it is not the primary): undecided
    /// transactions are reported aborted — "a view change at the
    /// coordinator that leads to a new primary will cause any of the
    /// group's transactions to abort automatically" — and in-flight
    /// decisions are reported unresolved.
    pub(crate) fn fail_coordinated_txns(&mut self, out: &mut Vec<Effect>) {
        let txns = std::mem::take(&mut self.coord);
        self.delegated.clear();
        self.ping_pending.clear();
        for (aid, txn) in txns {
            if txn.delegate.is_some() {
                // The unreplicated client learns the outcome by retrying
                // ClientCommit against the group's new primary, which
                // answers from the recorded status or the automatic-abort
                // rule.
                continue;
            }
            let outcome = match txn.phase {
                CoordPhase::Running | CoordPhase::Preparing => {
                    TxnOutcome::Aborted { reason: AbortReason::ViewChanged }
                }
                CoordPhase::Deciding => TxnOutcome::Unresolved,
                // Already decided and reported; phase two becomes the new
                // primary's job (driven by the forced committing record).
                CoordPhase::Committing => continue,
            };
            out.push(Effect::TxnResult { req_id: txn.req_id, aid: Some(aid), outcome });
        }
        self.resumed.clear();
    }

    /// Observe the cohort's current coordinator load (for tests and
    /// harnesses).
    pub fn active_coordinated_txns(&self) -> usize {
        self.coord.len()
    }

    /// The client-side cached view for `group`, if any (for tests).
    pub fn cached_view(&self, group: GroupId) -> Option<(ViewId, &View)> {
        self.cache.get(&group).map(|(vid, view)| (*vid, view))
    }

    /// Expose an observation hook used by harnesses: number of
    /// transactions resumed in phase two after a view change.
    pub fn resumed_txns(&self) -> usize {
        self.resumed.len()
    }
}
