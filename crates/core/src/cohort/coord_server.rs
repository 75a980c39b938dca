//! The coordinator-server (Section 3.5): two-phase commit on behalf of
//! unreplicated clients.
//!
//! "If the client is not replicated, it is still desirable for the
//! coordinator to be highly available, since this can reduce the 'window
//! of vulnerability' in two-phase commit. This can be accomplished by
//! providing a replicated 'coordinator-server.' The client communicates
//! with such a server when it starts a transaction, and when it commits
//! or aborts the transaction. … It also responds to queries about the
//! outcome of the transaction; its groupid is part of the transaction's
//! aid, so that participants know who it is. In answering a query about
//! a transaction that appears to still be active, it would check with
//! the client, but if no reply is forthcoming, it can abort the
//! transaction unilaterally."

use super::calls::CallScript;
use super::client::{CoordPhase, CoordTxn};
use super::{Cohort, Effect, Timer};
use crate::event::EventKind;
use crate::messages::Message;
use crate::pset::PSet;
use crate::types::{Aid, Mid, Tick};
use std::collections::{BTreeMap, BTreeSet};

impl Cohort {
    /// Handle a `ClientBegin`: assign an aid on the client's behalf.
    pub(crate) fn on_client_begin(&mut self, req: u64, reply_to: Mid, out: &mut Vec<Effect>) {
        if !self.is_active_primary() {
            out.push(Effect::Send {
                to: reply_to,
                msg: Message::Redirect { group: self.group, newer: self.known_view() },
            });
            return;
        }
        let aid = Aid { group: self.group, view: self.cur_viewid, seq: self.next_txn_seq };
        self.next_txn_seq += 1;
        self.delegated.insert(aid, reply_to);
        out.push(Effect::Send { to: reply_to, msg: Message::ClientBeginAck { req, aid } });
    }

    /// Handle a `ClientCommit`: run two-phase commit over the client's
    /// pset and answer with the outcome.
    pub(crate) fn on_client_commit(
        &mut self,
        _now: Tick,
        aid: Aid,
        pset: PSet,
        reply_to: Mid,
        out: &mut Vec<Effect>,
    ) {
        if !self.is_active_primary() {
            out.push(Effect::Send {
                to: reply_to,
                msg: Message::Redirect { group: self.group, newer: self.known_view() },
            });
            return;
        }
        // Answer retransmissions from the recorded status.
        if let Some(status) = self.gstate.status(aid) {
            out.push(Effect::Send {
                to: reply_to,
                msg: Message::ClientOutcome { aid, committed: status.is_committed() },
            });
            return;
        }
        if self.coord.contains_key(&aid) {
            return; // commit already in progress; outcome follows
        }
        if !self.delegated.contains_key(&aid) {
            let participants = pset.participant_groups();
            let committed = if aid.group == self.group
                && aid.view == self.cur_viewid
                && aid.seq < self.next_txn_seq
            {
                // Begun and finished here in this view. Aborts are
                // recorded and their statuses kept (answered above); a
                // commit's status is retired by its `done` record, and a
                // one-phase commit writes none — so this one committed.
                true
            } else if aid.view < self.cur_viewid
                && participants.len() == 1
                && participants[0] != self.group
            {
                // Begun in an earlier view and committed in one phase, if
                // at all: only its participant knows, so the
                // automatic-abort rule may not answer for it. No answer;
                // the client reports the outcome unresolved.
                return;
            } else {
                // Begun in an earlier view (the automatic-abort rule of
                // Section 3.1 applies) or never begun here.
                false
            };
            out.push(Effect::Send { to: reply_to, msg: Message::ClientOutcome { aid, committed } });
            return;
        }
        self.ping_pending.remove(&aid);
        let participants = pset.participant_groups();
        if participants.is_empty() {
            // Nothing to recover; commit trivially.
            self.delegated.remove(&aid);
            out.push(Effect::Send {
                to: reply_to,
                msg: Message::ClientOutcome { aid, committed: true },
            });
            return;
        }
        let txn = CoordTxn {
            req_id: 0, // unused for delegated transactions
            script: CallScript::finished(pset),
            phase: CoordPhase::Preparing,
            votes: BTreeMap::new(),
            plist: Vec::new(),
            acks: BTreeSet::new(),
            delegate: Some(reply_to),
        };
        self.coord.insert(aid, txn);
        self.start_commit(aid, out);
    }

    /// Handle a `ClientAbort`: abort a delegated transaction.
    pub(crate) fn on_client_abort(&mut self, aid: Aid, out: &mut Vec<Effect>) {
        if !self.is_active_primary() {
            return;
        }
        if let Some(txn) = self.coord.get(&aid) {
            // Only while nobody has decided: a commit decision in flight,
            // or a one-phase commit its participant decides, is not the
            // client's to take back.
            if txn.phase == CoordPhase::Preparing {
                self.abort_txn(aid, super::AbortReason::CoordinatorAborted, out);
            }
            return;
        }
        if self.delegated.remove(&aid).is_some() {
            self.ping_pending.remove(&aid);
            // Record the abort so queries (and ClientCommit retries) can
            // be answered durably.
            self.primary_add(EventKind::Aborted { aid }, out);
        }
    }

    /// Handle a `ClientPong`: the pinged client is alive; keep waiting.
    pub(crate) fn on_client_pong(&mut self, aid: Aid) {
        self.ping_pending.remove(&aid);
    }

    /// A pinged client never answered: "it can abort the transaction
    /// unilaterally."
    pub(crate) fn on_client_ping_timeout(&mut self, aid: Aid, out: &mut Vec<Effect>) {
        if !self.is_active_primary() || !self.ping_pending.remove(&aid) {
            return;
        }
        if self.coord.contains_key(&aid) || self.gstate.status(aid).is_some() {
            return; // commit processing started meanwhile
        }
        if self.delegated.remove(&aid).is_some() {
            self.primary_add(EventKind::Aborted { aid }, out);
        }
    }

    /// While answering a query about a delegated transaction that is
    /// still active, check with the client (Section 3.5).
    pub(crate) fn ping_delegated_client(&mut self, aid: Aid, out: &mut Vec<Effect>) {
        let Some(&client) = self.delegated.get(&aid) else { return };
        if self.coord.contains_key(&aid) || !self.ping_pending.insert(aid) {
            return; // committing, or a ping is already outstanding
        }
        out.push(Effect::Send { to: client, msg: Message::ClientPing { aid, reply_to: self.mid } });
        out.push(Effect::SetTimer {
            after: self.cfg.query_interval,
            timer: Timer::ClientPingTimeout { aid },
        });
    }
}
