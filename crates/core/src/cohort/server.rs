//! Server-side transaction processing: remote calls, prepare, commit, and
//! abort handling at the active primary of a server group (Section 3.2,
//! 3.3, Figure 3), plus query answering (Section 3.4).

use super::{Cohort, Effect, ForceReason, Observation, Status, Timer, WaitingCall};
use crate::event::EventKind;
use crate::gstate::{CompletedCall, LockMode, TxnStatus, Value};
use crate::messages::{CallOutcome, CallRefusal, Message, QueryOutcome};
use crate::module::{ModuleError, TxnCtx};
use crate::pset::PSet;
use crate::types::{Aid, CallId, GroupId, Mid, Tick, ViewId, Viewstamp};

/// Build the reply for a (possibly duplicate) call from its stored
/// completed-call record: the result plus the pset pair for this group and
/// any nested-call pairs.
pub(crate) fn reply_from_record(group: GroupId, record: &CompletedCall) -> CallOutcome {
    let mut pset = PSet::new();
    pset.insert(group, record.vs);
    for &(g, vs) in &record.nested {
        pset.insert(g, vs);
    }
    CallOutcome::Ok { result: record.result.0.clone(), pset }
}

impl Cohort {
    // ------------------------------------------------------------------
    // remote calls (Figure 3, "Processing a call")
    // ------------------------------------------------------------------

    #[expect(clippy::too_many_arguments, reason = "mirrors Message::Call's fields")]
    pub(crate) fn on_call(
        &mut self,
        now: Tick,
        from: Mid,
        viewid: ViewId,
        call_id: CallId,
        proc: String,
        args: Vec<u8>,
        out: &mut Vec<Effect>,
    ) {
        if self.status != Status::Active || self.cur_view.primary() != self.mid {
            // "Cohorts that are not active primaries reject messages sent
            // to them by other module groups" (Section 3.3).
            out.push(Effect::Send {
                to: from,
                msg: Message::CallReject { call_id, newer: self.known_view() },
            });
            return;
        }
        if !self.admit_call(from, call_id, out) {
            return;
        }
        // "If the viewid in the call message is not equal to the
        // primary's cur-viewid, send back a rejection message containing
        // the new viewid and view" (Figure 3 step 1).
        if viewid != self.cur_viewid {
            out.push(Effect::Send {
                to: from,
                msg: Message::CallReject {
                    call_id,
                    newer: Some((self.cur_viewid, self.cur_view.clone())),
                },
            });
            return;
        }
        // Call-subaction redo (Section 3.6): before executing this
        // generation, durably drop any surviving records of *earlier*
        // generations of the same op — their subactions were aborted by
        // the client. This guarantees exactly one generation's effects
        // can commit, and that the redo does not observe the orphan's
        // tentative writes.
        self.drop_orphan_generations(call_id, out);
        self.execute_or_park(now, WaitingCall { from, viewid, call_id, proc, args }, true, out);
    }

    /// Duplicate suppression, applied to a call as it arrives and again
    /// to a parked call about to run (a call re-sent while its first copy
    /// waited on a lock is parked twice, and the copy that runs second
    /// must not execute again). Returns whether `call_id` may execute.
    fn admit_call(&self, from: Mid, call_id: CallId, out: &mut Vec<Effect>) -> bool {
        // The network may duplicate messages and the client re-sends a
        // call after a rejection proves it was not executed in the new
        // view. If a record for this exact call id survived (possibly
        // from an earlier view), re-reply from the record instead of
        // re-executing — this is the "connection information that
        // enables [the delivery system] to not deliver duplicate
        // messages" that Section 3.1 assumes, implemented at the
        // protocol layer.
        if let Some(record) = self.gstate.find_call(call_id) {
            let outcome = reply_from_record(self.group, record);
            out.push(Effect::Send { to: from, msg: Message::CallReply { call_id, outcome } });
            return false;
        }
        // A late duplicate of an aborted call-subaction (Section 3.6)
        // must never execute: its replacement generation may already
        // have run. Nor may a late duplicate of a call whose transaction
        // is decided here: its records were installed or discarded, and
        // running it again would leave a record and locks that no
        // message releases (nor, once the status is retired, could a
        // duplicate commit tell them from the first run's). A decided
        // transaction of another group is finished; one of this group's
        // own keeps its status.
        !(self.gstate.is_dropped_call(call_id)
            || self.gstate.status(call_id.aid).is_some()
            || self.gstate.is_finished(call_id.aid))
    }

    /// Drop stored records (and parked executions) of other generations
    /// of the same logical call.
    fn drop_orphan_generations(&mut self, call_id: CallId, out: &mut Vec<Effect>) {
        use super::calls::call_op_index;
        let aid = call_id.aid;
        let orphans: Vec<CallId> = self
            .gstate
            .pending_calls(aid)
            .iter()
            .map(|r| r.call_id)
            .filter(|&c| c != call_id && call_op_index(c.seq) == call_op_index(call_id.seq))
            .collect();
        // Also discard parked attempts of other generations silently.
        self.waiting_calls.retain(|w| {
            !(w.call_id != call_id
                && w.call_id.aid == aid
                && call_op_index(w.call_id.seq) == call_op_index(call_id.seq))
        });
        if orphans.is_empty() {
            return;
        }
        self.primary_add(EventKind::CallsDropped { aid, dropped: orphans }, out);
        // Rebuild this transaction's locks from its remaining records.
        self.locks.release_all(aid);
        let remaining: Vec<crate::gstate::CompletedCall> = self.gstate.pending_calls(aid).to_vec();
        for record in &remaining {
            for access in &record.accesses {
                match access.mode {
                    LockMode::Read => self.locks.acquire_read(aid, access.oid),
                    LockMode::Write => self.locks.acquire_write(aid, access.oid),
                }
                if let Some(value) = &access.written {
                    self.locks.set_tentative(aid, access.oid, value.clone());
                }
            }
        }
    }

    /// Try to run a call; on a lock conflict, park it (if `may_park`) for
    /// retry when locks are released.
    fn execute_or_park(
        &mut self,
        now: Tick,
        call: WaitingCall,
        may_park: bool,
        out: &mut Vec<Effect>,
    ) {
        let aid = call.call_id.aid;
        let mut ctx = TxnCtx::new(&self.gstate, &self.locks, aid);
        match self.module.execute(&call.proc, &call.args, &mut ctx) {
            Ok(result) => {
                let accesses = ctx.into_accesses();
                // Acquire the staged locks for real and create the
                // tentative versions.
                for access in &accesses {
                    match access.mode {
                        LockMode::Read => self.locks.acquire_read(aid, access.oid),
                        LockMode::Write => self.locks.acquire_write(aid, access.oid),
                    }
                    if let Some(value) = &access.written {
                        self.locks.set_tentative(aid, access.oid, value.clone());
                    }
                }
                // "When the call finishes, add a <"completed-call",
                // object-list, aid> record to the buffer" (Figure 3).
                let record = CompletedCall {
                    vs: Viewstamp::default(), // assigned below
                    call_id: call.call_id,
                    accesses,
                    result: Value(result.0.clone()),
                    nested: Vec::new(),
                };
                let mut record_for_event = record;
                // Assign the viewstamp by adding to the buffer; the add
                // advances the timestamp generator atomically.
                let vs_placeholder = self
                    .buffer
                    .as_ref()
                    .expect("invariant: an active primary has a buffer")
                    .latest_ts()
                    .next();
                record_for_event.vs = Viewstamp::new(self.cur_viewid, vs_placeholder);
                let vs = self
                    .primary_add(EventKind::CompletedCall { aid, record: record_for_event }, out);
                debug_assert_eq!(vs.ts, vs_placeholder);
                self.last_activity.insert(aid, now);
                if self.cfg.eager_force_calls {
                    // Section 6 tradeoff: "if completed call records were
                    // forced to the backups before the call returned,
                    // there would be no aborts due to view changes, but
                    // calls would be processed more slowly."
                    let reason = ForceReason::CallReply { call_id: call.call_id, to: call.from };
                    for fired in self.primary_force(vs, reason, out) {
                        self.fire_force_reason(now, fired, out);
                    }
                } else {
                    let mut pset = PSet::new();
                    pset.insert(self.group, vs);
                    out.push(Effect::Send {
                        to: call.from,
                        msg: Message::CallReply {
                            call_id: call.call_id,
                            outcome: CallOutcome::Ok { result: result.0, pset },
                        },
                    });
                }
            }
            Err(ModuleError::Conflict(_)) => {
                if may_park {
                    out.push(Effect::SetTimer {
                        after: self.cfg.lock_wait_timeout,
                        timer: Timer::LockWait { call_id: call.call_id },
                    });
                    self.waiting_calls.push(call);
                } else {
                    self.waiting_calls.push(call);
                }
            }
            Err(err @ (ModuleError::UnknownProcedure(_) | ModuleError::App(_))) => {
                out.push(Effect::Send {
                    to: call.from,
                    msg: Message::CallReply {
                        call_id: call.call_id,
                        outcome: CallOutcome::Refused(CallRefusal::Application(err.to_string())),
                    },
                });
            }
        }
    }

    /// Retry calls parked on lock conflicts; called after any lock
    /// release.
    pub(crate) fn retry_waiting_calls(&mut self, now: Tick, out: &mut Vec<Effect>) {
        if !self.is_active_primary() {
            return;
        }
        let parked = std::mem::take(&mut self.waiting_calls);
        for call in parked {
            if !self.admit_call(call.from, call.call_id, out) {
                continue;
            }
            if call.viewid != self.cur_viewid {
                out.push(Effect::Send {
                    to: call.from,
                    msg: Message::CallReject {
                        call_id: call.call_id,
                        newer: Some((self.cur_viewid, self.cur_view.clone())),
                    },
                });
                continue;
            }
            // A retried call keeps its original lock-wait timer; if it
            // conflicts again it is re-parked without a new timer.
            self.execute_or_park(now, call, false, out);
        }
    }

    pub(crate) fn on_lock_wait_timeout(&mut self, call_id: CallId, out: &mut Vec<Effect>) {
        let Some(pos) = self.waiting_calls.iter().position(|c| c.call_id == call_id) else {
            return;
        };
        let call = self.waiting_calls.remove(pos);
        // A re-sent copy parked behind it is refused with it: the client
        // hears one answer, and no copy runs after the refusal.
        self.waiting_calls.retain(|c| c.call_id != call_id);
        out.push(Effect::Send {
            to: call.from,
            msg: Message::CallReply {
                call_id,
                outcome: CallOutcome::Refused(CallRefusal::LockTimeout),
            },
        });
    }

    // ------------------------------------------------------------------
    // prepare (Figure 3, "Processing a prepare message")
    // ------------------------------------------------------------------

    pub(crate) fn on_prepare(
        &mut self,
        now: Tick,
        aid: Aid,
        pset: PSet,
        coordinator: Mid,
        out: &mut Vec<Effect>,
    ) {
        if self.status != Status::Active || self.cur_view.primary() != self.mid {
            out.push(Effect::Send {
                to: coordinator,
                msg: Message::Redirect { group: self.group, newer: self.known_view() },
            });
            return;
        }
        match self.gstate.status(aid) {
            Some(TxnStatus::Aborted) => {
                out.push(Effect::Send {
                    to: coordinator,
                    msg: Message::PrepareRefuse { aid, group: self.group },
                });
                return;
            }
            Some(_) => {
                // Already committed-family (duplicate prepare after a
                // decision): re-vote yes.
                out.push(Effect::Send {
                    to: coordinator,
                    msg: Message::PrepareOk { aid, group: self.group, read_only: false },
                });
                return;
            }
            None => {}
        }
        // "If compatible(pset, history, mygroupid), perform a
        // force_to(vs_max(pset, mygroupid)), release read locks held by
        // the transaction, and then reply prepared."
        if !self.history.compatible(&pset, self.group) {
            out.push(Effect::Send {
                to: coordinator,
                msg: Message::PrepareRefuse { aid, group: self.group },
            });
            self.abort_participant(now, aid, out);
            return;
        }
        // A duplicate prepare for a transaction finished here finds no
        // records: the read-only vote it earned the first time is
        // repeated, and nothing is written — a second `committed` record
        // would commit the transaction twice. (Lost records were refused
        // above.)
        if self.gstate.is_finished(aid) && self.gstate.pending_calls(aid).is_empty() {
            out.push(Effect::Send {
                to: coordinator,
                msg: Message::PrepareOk { aid, group: self.group, read_only: true },
            });
            return;
        }
        let read_only = self
            .gstate
            .pending_calls(aid)
            .iter()
            .all(|r| r.accesses.iter().all(|a| a.mode == LockMode::Read));
        let Some(vs_max) = pset.vs_max(self.group) else {
            // The pset names us as a participant but contains no entry
            // for our group — a coordinator bug; refuse defensively.
            out.push(Effect::Send {
                to: coordinator,
                msg: Message::PrepareRefuse { aid, group: self.group },
            });
            return;
        };
        self.last_activity.insert(aid, now);
        let reason = ForceReason::PrepareVote { aid, coordinator, read_only };
        let fired = self.primary_force(vs_max, reason, out);
        let waited = fired.is_empty();
        out.push(Effect::Observe(Observation::PrepareProcessed { group: self.group, aid, waited }));
        for reason in fired {
            self.fire_force_reason(now, reason, out);
        }
    }

    /// Continuation once the prepare's force has completed: release read
    /// locks and vote yes; a read-only participant commits immediately
    /// ("If the transaction is read-only, add a <"committed", aid> record
    /// to the buffer", Figure 3).
    pub(crate) fn send_prepare_vote(
        &mut self,
        now: Tick,
        aid: Aid,
        coordinator: Mid,
        read_only: bool,
        out: &mut Vec<Effect>,
    ) {
        if !self.is_active_primary() {
            return;
        }
        self.locks.release_reads(aid);
        out.push(Effect::Send {
            to: coordinator,
            msg: Message::PrepareOk { aid, group: self.group, read_only },
        });
        if read_only {
            self.locks.release_all(aid);
            self.primary_add(EventKind::Committed { aid }, out);
            self.retry_waiting_calls(now, out);
        } else {
            self.prepared.insert(aid);
            out.push(Effect::SetTimer {
                after: self.cfg.query_interval,
                timer: Timer::QueryTick { aid },
            });
        }
    }

    // ------------------------------------------------------------------
    // one-phase commit (DESIGN §14)
    // ------------------------------------------------------------------

    /// The only participant decides: `compatible` first, as for a
    /// prepare; then one committed record, forced to a sub-majority before
    /// the locks go and the coordinator hears `CommitDone`. The force
    /// covers the call records too, so this is the prepare's force and
    /// the commit point in one.
    pub(crate) fn on_prepare_commit(
        &mut self,
        now: Tick,
        aid: Aid,
        pset: PSet,
        coordinator: Mid,
        out: &mut Vec<Effect>,
    ) {
        if !self.is_active_primary() {
            out.push(Effect::Send {
                to: coordinator,
                msg: Message::Redirect { group: self.group, newer: self.known_view() },
            });
            return;
        }
        // A re-sent PrepareCommit after the commit hears "committed"
        // again, once everything up to the end of the history (which
        // covers the committed record) is at a sub-majority.
        if self.gstate.one_phase_committed(aid) {
            let latest = self.history.latest().unwrap_or_default();
            self.force_one_phase(now, latest, aid, coordinator, false, out);
            return;
        }
        let finished = self.gstate.is_finished(aid);
        // Lost call records refuse, as at a prepare. So do records still
        // pending below the coordinator's horizon: the coordinator primary
        // that set it had finished with the transaction, so it aborted.
        if !self.history.compatible(&pset, self.group)
            || (finished && !self.gstate.pending_calls(aid).is_empty())
        {
            out.push(Effect::Send {
                to: coordinator,
                msg: Message::PrepareRefuse { aid, group: self.group },
            });
            self.abort_participant(now, aid, out);
            return;
        }
        // Decided here before, but not committed in one phase, or below
        // the horizon: the finished set does not say which outcome it
        // had, so no answer (the coordinator that could still be waiting
        // was deposed and reports the transaction unresolved).
        if finished {
            return;
        }
        self.last_activity.remove(&aid);
        let read_only = self
            .gstate
            .pending_calls(aid)
            .iter()
            .all(|r| r.accesses.iter().all(|a| a.mode == LockMode::Read));
        if read_only {
            // Figure 3's read-only vote: once the call records are at a
            // sub-majority (often already true) the locks go and the
            // answer is `PrepareOk { read_only: true }`, with the
            // committed record following unforced. Nothing here is then
            // durable evidence of the commit, so the coordinator decides
            // as in Figure 2, with a forced committing record.
            if let Some(vs_max) = pset.vs_max(self.group) {
                self.force_one_phase(now, vs_max, aid, coordinator, true, out);
                return;
            }
        }
        let vs = self.primary_add(EventKind::OnePhaseCommitted { aid }, out);
        self.force_one_phase(now, vs, aid, coordinator, false, out);
    }

    fn force_one_phase(
        &mut self,
        now: Tick,
        vs: Viewstamp,
        aid: Aid,
        coordinator: Mid,
        read_only: bool,
        out: &mut Vec<Effect>,
    ) {
        let reason = ForceReason::OnePhaseCommit { aid, coordinator, read_only };
        for fired in self.primary_force(vs, reason, out) {
            self.fire_force_reason(now, fired, out);
        }
    }

    // ------------------------------------------------------------------
    // commit / abort (Figure 3)
    // ------------------------------------------------------------------

    /// Handle a commit message (or a query reply reporting the commit).
    /// `ack_to` is the coordinator primary to send the done message to.
    pub(crate) fn on_commit(
        &mut self,
        now: Tick,
        aid: Aid,
        ack_to: Option<Mid>,
        out: &mut Vec<Effect>,
    ) {
        if self.status != Status::Active || self.cur_view.primary() != self.mid {
            if let Some(to) = ack_to {
                out.push(Effect::Send {
                    to,
                    msg: Message::Redirect { group: self.group, newer: self.known_view() },
                });
            }
            return;
        }
        self.prepared.remove(&aid);
        if let Some(status) = self.gstate.status(aid) {
            if status.is_committed() {
                // Duplicate commit: just re-acknowledge.
                if let Some(to) = ack_to {
                    out.push(Effect::Send {
                        to,
                        msg: Message::CommitDone { aid, group: self.group },
                    });
                }
                return;
            }
            // Aborted locally but the coordinator decided commit: this
            // would be a protocol violation — the coordinator only
            // commits after our yes vote, and we only abort locally after
            // a refusal or an abort message.
            debug_assert!(false, "commit received for locally aborted transaction {aid}");
            return;
        }
        // A participant votes yes only after forcing its records, so a
        // commit that finds none here is a duplicate for a transaction
        // finished here: acknowledge, write nothing.
        if self.gstate.pending_calls(aid).is_empty() {
            if let Some(to) = ack_to {
                out.push(Effect::Send { to, msg: Message::CommitDone { aid, group: self.group } });
            }
            return;
        }
        // "Release locks and install versions held by the transaction.
        // Add a <"committed", aid> record to the buffer, do a
        // force-to(new-vs), and send a done message to the coordinator."
        self.locks.release_all(aid);
        let vs = self.primary_add(EventKind::Committed { aid }, out);
        if let Some(coordinator) = ack_to {
            let reason = ForceReason::CommitAck { aid, coordinator };
            for fired in self.primary_force(vs, reason, out) {
                self.fire_force_reason(now, fired, out);
            }
        }
        self.last_activity.remove(&aid);
        self.retry_waiting_calls(now, out);
    }

    pub(crate) fn on_abort_msg(&mut self, now: Tick, aid: Aid, out: &mut Vec<Effect>) {
        if !self.is_active_primary() {
            return;
        }
        self.abort_participant(now, aid, out);
    }

    /// Abort a transaction at this participant: "discard locks and
    /// versions held by the aborted transaction and add an <"aborted",
    /// aid> record to the buffer" (Figure 3).
    pub(crate) fn abort_participant(&mut self, now: Tick, aid: Aid, out: &mut Vec<Effect>) {
        self.prepared.remove(&aid);
        if self.gstate.status(aid).is_some_and(|s| !matches!(s, TxnStatus::Aborted))
            || self.gstate.one_phase_committed(aid)
        {
            // Already decided; never roll back a commit (a one-phase
            // commit still holds its locks until its force completes).
            return;
        }
        if !self.locks.holds_any(aid) && self.gstate.pending_calls(aid).is_empty() {
            return; // nothing to do, avoid noise records
        }
        self.locks.release_all(aid);
        self.primary_add(EventKind::Aborted { aid }, out);
        self.last_activity.remove(&aid);
        self.retry_waiting_calls(now, out);
    }

    // ------------------------------------------------------------------
    // queries (Section 3.4)
    // ------------------------------------------------------------------

    pub(crate) fn on_query(&mut self, aid: Aid, reply_to: Mid, out: &mut Vec<Effect>) {
        let outcome = self.answer_query(aid);
        if outcome != QueryOutcome::Unknown {
            out.push(Effect::Send { to: reply_to, msg: Message::QueryReply { aid, outcome } });
        }
        // "In answering a query about a transaction that appears to
        // still be active, it would check with the client" (Section 3.5).
        if outcome == QueryOutcome::Active && self.delegated.contains_key(&aid) {
            self.ping_delegated_client(aid, out);
        }
        // A participant asking about a transaction this primary has
        // finished with also learns the horizon, so it can forget every
        // transaction below it. Only the primary knows what is still in
        // flight.
        if self.is_active_primary() && aid.group == self.group {
            let done_below = self.done_below();
            if aid < done_below {
                out.push(Effect::Send { to: reply_to, msg: Message::Horizon { done_below } });
            }
        }
    }

    /// A coordinator's horizon arrived: log it if it lets this
    /// participant forget anything (the `horizon` record then retires
    /// identically at the backups, on replay and in snapshots).
    pub(crate) fn on_horizon(&mut self, done_below: Aid, out: &mut Vec<Effect>) {
        if self.is_active_primary()
            && done_below.group != self.group
            && self.gstate.horizon_advances(done_below)
        {
            self.primary_add(EventKind::Horizon { done_below }, out);
        }
    }

    /// What this cohort knows about the transaction's outcome. "We allow
    /// any cohort to respond to a query whenever it knows the answer."
    pub(crate) fn answer_query(&self, aid: Aid) -> QueryOutcome {
        // An active coordinator entry means the transaction is running —
        // checked first because it also covers transactions created in an
        // older view by a primary that survived the view change.
        if self.coord.contains_key(&aid) || self.delegated.contains_key(&aid) {
            return QueryOutcome::Active;
        }
        if let Some(status) = self.gstate.status(aid) {
            return if status.is_committed() {
                QueryOutcome::Committed
            } else {
                QueryOutcome::Aborted
            };
        }
        // Automatic abort: "a view change at the coordinator that leads
        // to a new primary will cause any of the group's transactions to
        // abort automatically" (Section 3.1). Only the active primary of
        // the coordinator group may assert this, and only for
        // transactions from views older than its current one.
        if self.is_active_primary()
            && self.up_to_date
            && aid.coordinator_group() == self.group
            && aid.view < self.cur_viewid
        {
            return QueryOutcome::Aborted;
        }
        QueryOutcome::Unknown
    }

    pub(crate) fn on_query_tick(&mut self, aid: Aid, out: &mut Vec<Effect>) {
        if !self.is_active_primary() || !self.prepared.contains(&aid) {
            return;
        }
        self.send_outcome_query(aid, out);
        out.push(Effect::SetTimer {
            after: self.cfg.query_interval,
            timer: Timer::QueryTick { aid },
        });
    }

    pub(crate) fn on_query_reply(
        &mut self,
        now: Tick,
        aid: Aid,
        outcome: QueryOutcome,
        out: &mut Vec<Effect>,
    ) {
        if !self.is_active_primary() {
            return;
        }
        match outcome {
            QueryOutcome::Committed => {
                // Learn the commit through the query path; acknowledge to
                // the coordinator group's cached primary so it can finish
                // phase two. Only records held here make the answer news:
                // without them the transaction is finished here or never
                // ran here.
                if !self.gstate.pending_calls(aid).is_empty() {
                    let ack_to =
                        self.dir.cached(aid.coordinator_group()).map(|(_, view)| view.primary());
                    self.on_commit(now, aid, ack_to, out);
                }
            }
            QueryOutcome::Aborted => self.abort_participant(now, aid, out),
            QueryOutcome::Active | QueryOutcome::Unknown => {}
        }
    }
}
