//! Client-side transaction processing: running a transaction's remote
//! calls and coordinating two-phase commit at the active primary of a
//! client group (Section 3.1, Figure 2).
//!
//! A transaction is submitted as a *script* of sequential remote calls
//! ([`CallOp`]); the coordinator runs them in order through the call path
//! it shares with the unreplicated agent (`calls.rs`), collecting the
//! pset, and then drives two-phase commit. The paper's model has
//! arbitrary user code between calls; a pre-declared script is
//! equivalent for the protocol, which only observes the sequence of
//! calls and the final commit.

use super::calls::{CallScript, Directory, Next};
use super::{retry_kind, Cohort, Effect, ForceReason, Observation, Status, Timer};
use crate::config::CohortConfig;
use crate::event::EventKind;
use crate::gstate::{LockMode, ObjectAccess};
use crate::messages::{CallRefusal, Message};
use crate::module::TxnCtx;
use crate::types::{Aid, GroupId, Mid, Tick, ViewId};
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
    /// The script calls a group the location directory does not list;
    /// no call was made.
    UnknownGroup {
        /// The first such group in the script.
        group: GroupId,
    },
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
    pub(crate) script: CallScript,
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
    /// One-phase commit (DESIGN §14): the pset names one group other
    /// than this one, so `PrepareCommit` went to it and that group
    /// decides. No record is written here. Like phase two, it is re-sent
    /// until answered: only the participant can tell the outcome, and
    /// keeping the aid here keeps the horizon below it meanwhile.
    OnePhase,
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
    /// [`AbortReason::NotPrimary`]. A script calling a group the location
    /// directory does not list is aborted with
    /// [`AbortReason::UnknownGroup`] before any call.
    pub fn begin_transaction(&mut self, now: Tick, req_id: u64, ops: Vec<CallOp>) -> Vec<Effect> {
        let mut out = Vec::new();
        let rejected = if self.is_active_primary() {
            self.dir.unknown_group(&ops).map(|group| AbortReason::UnknownGroup { group })
        } else {
            Some(AbortReason::NotPrimary)
        };
        if let Some(reason) = rejected {
            out.push(Effect::TxnResult {
                req_id,
                aid: None,
                outcome: TxnOutcome::Aborted { reason },
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
            script: CallScript::new(ops),
            phase: CoordPhase::Running,
            votes: BTreeMap::new(),
            plist: Vec::new(),
            acks: BTreeSet::new(),
            delegate: None,
        };
        self.coord.insert(aid, txn);
        self.call_step(now, aid, &mut out, |script, cfg, dir, out| {
            script.advance(cfg, dir, aid, out)
        });
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

    /// Run one step of `aid`'s call script (Figure 2 steps 1–4) and act
    /// on what it leaves to do: two-phase commit once every call has
    /// replied, or an abort. Only a `Running` transaction's script has a
    /// call outstanding, so the script alone recognizes stale input.
    pub(crate) fn call_step(
        &mut self,
        now: Tick,
        aid: Aid,
        out: &mut Vec<Effect>,
        step: impl FnOnce(&mut CallScript, &CohortConfig, &mut Directory, &mut Vec<Effect>) -> Next,
    ) {
        let Some(txn) = self.coord.get_mut(&aid) else { return };
        match step(&mut txn.script, &self.cfg, &mut self.dir, out) {
            Next::Wait => {}
            Next::Commit => self.start_prepare(now, aid, out),
            Next::Abort(reason) => self.abort_txn(aid, reason, out),
        }
    }

    // ------------------------------------------------------------------
    // two-phase commit, coordinator side (Figure 2)
    // ------------------------------------------------------------------

    fn start_prepare(&mut self, _now: Tick, aid: Aid, out: &mut Vec<Effect>) {
        let Some(txn) = self.coord.get(&aid) else { return };
        if txn.script.pset.participant_groups().is_empty() {
            // A transaction that made no calls commits trivially; there is
            // nothing to recover, so no records are needed.
            let txn = self.coord.remove(&aid).expect("invariant: checked by the get above");
            out.push(Effect::TxnResult {
                req_id: txn.req_id,
                aid: Some(aid),
                outcome: TxnOutcome::Committed { results: txn.script.results },
            });
            return;
        }
        self.start_commit(aid, out);
    }

    /// Start committing a transaction whose participants are known: one
    /// phase when its pset names exactly one group other than this one
    /// (that group decides alone), else Figure 2's two phases. The pset's
    /// shape alone picks the path.
    pub(crate) fn start_commit(&mut self, aid: Aid, out: &mut Vec<Effect>) {
        let Some(txn) = self.coord.get_mut(&aid) else { return };
        let participants = txn.script.pset.participant_groups();
        txn.phase = if participants.len() == 1 && participants[0] != self.group {
            CoordPhase::OnePhase
        } else {
            CoordPhase::Preparing
        };
        txn.votes.clear();
        self.send_prepares(aid, out);
        out.push(Effect::SetTimer {
            after: self.retry_delay(self.cfg.prepare_retry_interval, 1, retry_kind::PREPARE),
            timer: Timer::PrepareRetry { aid, attempt: 1 },
        });
    }

    /// "Send prepare messages containing the aid and pset to the
    /// participants, which can be determined from the pset" — or, for a
    /// one-phase commit, `PrepareCommit` to the only one.
    pub(crate) fn send_prepares(&mut self, aid: Aid, out: &mut Vec<Effect>) {
        // A one-phase commit this cohort is settling is asked like one
        // it coordinates.
        let settling = self.settling.get(&aid).map(|(txn, _)| txn);
        let Some(txn) = self.coord.get(&aid).or(settling) else { return };
        let (pset, coordinator) = (&txn.script.pset, self.mid);
        for group in pset.participant_groups() {
            if !txn.votes.contains_key(&group) {
                let msg = if txn.phase == CoordPhase::OnePhase {
                    Message::PrepareCommit { aid, pset: pset.clone(), coordinator }
                } else {
                    Message::Prepare { aid, pset: pset.clone(), coordinator }
                };
                self.dir.send_to_primary(group, msg, out);
            }
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
        // Only an active primary may decide: a vote reaching it in the
        // middle of a view change is dropped, and the prepare-retry timer
        // asks again (the decision is a record it could not add).
        if !self.is_active_primary() {
            return;
        }
        let Some(txn) = self.coord.get_mut(&aid) else { return };
        // A one-phase commit's participant votes instead of deciding when
        // the transaction only read there (DESIGN §14).
        if !matches!(txn.phase, CoordPhase::Preparing | CoordPhase::OnePhase) {
            return;
        }
        txn.votes.insert(group, read_only);
        let participants = txn.script.pset.participant_groups();
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
                outcome: TxnOutcome::Committed { results: txn.script.results.clone() },
            }),
        }
        self.delegated.remove(&aid);
        self.drive_phase_two(aid, 1, out);
    }

    /// The only participant committed the transaction in one phase: report
    /// it and forget it. Nothing is recorded here: the participant group
    /// answers for it.
    fn on_one_phase_committed(&mut self, aid: Aid, out: &mut Vec<Effect>) {
        let Some(txn) = self.coord.remove(&aid) else { return };
        self.delegated.remove(&aid);
        match txn.delegate {
            Some(client) => out.push(Effect::Send {
                to: client,
                msg: Message::ClientOutcome { aid, committed: true },
            }),
            None => out.push(Effect::TxnResult {
                req_id: txn.req_id,
                aid: Some(aid),
                outcome: TxnOutcome::Committed { results: txn.script.results },
            }),
        }
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
            self.dir.send_to_primary(group, Message::Commit { aid, coordinator: self.mid }, out);
        }
        out.push(Effect::SetTimer {
            after: self.retry_delay(self.cfg.commit_retry_interval, attempt, retry_kind::COMMIT),
            timer: Timer::CommitRetry { aid, attempt },
        });
    }

    pub(crate) fn on_commit_done(&mut self, aid: Aid, group: GroupId, out: &mut Vec<Effect>) {
        if let Some((txn, _)) = self.settling.get(&aid) {
            let outcome = TxnOutcome::Committed { results: txn.script.results.clone() };
            self.settle(aid, outcome, out);
            return;
        }
        if let Some(txn) = self.coord.get_mut(&aid) {
            if txn.phase == CoordPhase::OnePhase {
                self.on_one_phase_committed(aid, out);
                return;
            }
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
            for &group in pending {
                self.dir.send_to_primary(
                    group,
                    Message::Commit { aid, coordinator: self.mid },
                    out,
                );
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
        if self.settling.contains_key(&aid) {
            let reason = AbortReason::PrepareRefused { group };
            self.settle(aid, TxnOutcome::Aborted { reason }, out);
            return;
        }
        let Some(txn) = self.coord.get(&aid) else { return };
        if !matches!(txn.phase, CoordPhase::Preparing | CoordPhase::OnePhase) {
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
        if let Some((_, rounds)) = self.settling.get_mut(&aid) {
            *rounds += 1;
            if *rounds > self.cfg.prepare_attempts {
                self.settle(aid, TxnOutcome::Unresolved, out);
                return;
            }
        } else {
            let Some(txn) = self.coord.get(&aid) else { return };
            if !matches!(txn.phase, CoordPhase::Preparing | CoordPhase::OnePhase) {
                return;
            }
            // "If there is no answer after repeated tries, update the
            // cache, if possible, and retry the prepare. If a more recent
            // view cannot be discovered, … abort." Not in one phase: the
            // participant may have committed, and only it can tell.
            if attempt >= self.cfg.prepare_attempts && txn.phase == CoordPhase::Preparing {
                self.abort_txn(aid, AbortReason::PrepareTimeout, out);
                return;
            }
        }
        let settling = self.settling.get(&aid).map(|(txn, _)| txn);
        let Some(txn) = self.coord.get(&aid).or(settling) else { return };
        for group in txn.script.pset.participant_groups() {
            if !txn.votes.contains_key(&group) {
                self.dir.probe(group, out);
            }
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
        for group in txn.script.pset.participant_groups() {
            self.dir.send_to_primary(group, Message::Abort { aid }, out);
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

    /// After learning a newer view for `group` (from a probe reply or a
    /// redirect), re-send whatever this coordinator is currently waiting
    /// on from that group. All re-sent messages are idempotent: calls
    /// carry call ids (duplicate-suppressed at the server), prepares and
    /// commits are retry-safe.
    pub(crate) fn resend_after_cache_update(&mut self, group: GroupId, out: &mut Vec<Effect>) {
        if self.status != Status::Active {
            return;
        }
        let txns: Vec<(Aid, CoordPhase)> =
            self.coord.iter().map(|(&aid, t)| (aid, t.phase)).collect();
        for (aid, phase) in txns {
            match phase {
                CoordPhase::Running => {
                    if let Some(txn) = self.coord.get(&aid) {
                        txn.script.resend_to(&mut self.dir, aid, group, out);
                    }
                }
                CoordPhase::Preparing | CoordPhase::OnePhase => self.send_prepares(aid, out),
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
                // The decision is in flight here.
                CoordPhase::Deciding => TxnOutcome::Unresolved,
                // The only participant decides and answers whoever asks:
                // the retry chain already armed goes on asking it.
                CoordPhase::OnePhase => {
                    self.settling.insert(aid, (txn, 0));
                    continue;
                }
                // Already decided and reported; phase two becomes the new
                // primary's job (driven by the forced committing record).
                CoordPhase::Committing => continue,
            };
            out.push(Effect::TxnResult { req_id: txn.req_id, aid: Some(aid), outcome });
        }
        self.resumed.clear();
    }

    /// Report the outcome of a one-phase commit this cohort was deposed
    /// in the middle of, and stop asking about it.
    fn settle(&mut self, aid: Aid, outcome: TxnOutcome, out: &mut Vec<Effect>) {
        if let Some((txn, _)) = self.settling.remove(&aid) {
            out.push(Effect::TxnResult { req_id: txn.req_id, aid: Some(aid), outcome });
        }
    }

    /// The coordinator horizon (DESIGN §14): the lowest aid of this group
    /// that may still be running or in phase two here — the least of the
    /// coordinated, delegated and resumed transactions and the next aid
    /// to be assigned. Every aid of this group ordered below it has
    /// finished: its transactions committed with every participant
    /// acknowledging, aborted, or belong to an older view and are not
    /// among the resumed ones (which the automatic-abort rule of Section
    /// 3.1 covers). Meaningful only at the active primary.
    pub(crate) fn done_below(&self) -> Aid {
        let next = Aid { group: self.group, view: self.cur_viewid, seq: self.next_txn_seq };
        [self.coord.keys().next(), self.delegated.keys().next(), self.resumed.keys().next()]
            .into_iter()
            .flatten()
            .fold(next, |low, &aid| low.min(aid))
    }

    /// Observe the cohort's current coordinator load (for tests and
    /// harnesses).
    pub fn active_coordinated_txns(&self) -> usize {
        self.coord.len()
    }

    /// The client-side cached view for `group`, if any (for tests).
    pub fn cached_view(&self, group: GroupId) -> Option<(ViewId, &View)> {
        self.dir.cached(group)
    }

    /// Expose an observation hook used by harnesses: number of
    /// transactions resumed in phase two after a view change.
    pub fn resumed_txns(&self) -> usize {
        self.resumed.len()
    }
}
