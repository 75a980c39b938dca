//! The view change algorithm (Section 4, Figure 5).
//!
//! A cohort that notices a communication change becomes the *view
//! manager*: it invents a viewid greater than any it has seen, invites
//! every cohort in the configuration, collects acceptances ("normal" from
//! up-to-date cohorts, "crashed" from recovered ones), and attempts to
//! form a view. Formation succeeds when a majority accepted and the
//! crashed-acceptance conditions guarantee that at least one acceptor
//! knows all forced information from previous views. The cohort with the
//! greatest normal viewstamp becomes the new primary (preferring the old
//! primary on ties); it starts the view by writing a *newview* record —
//! carrying the view, history, and group state — as the first event of
//! the new view's communication buffer.

use super::{Cohort, Effect, LeaseWaitState, Observation, Status, Timer};
use crate::buffer::CommBuffer;
use crate::durable::{Checkpoint, DurableEvent};
use crate::event::{EventKind, EventRecord};
use crate::gstate::{GroupState, TxnStatus};
use crate::history::History;
use crate::locks::LockTable;
use crate::messages::Message;
use crate::types::{Mid, Tick, ViewId, Viewstamp};
use crate::view::View;
use std::collections::BTreeMap;

/// A cohort's response to an invitation.
///
/// Public so harness oracles can ask a cohort what it *would* answer
/// (via [`Cohort::acceptance`]) and feed the answers to
/// [`formation_possible`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acceptance {
    /// "If the cohort is up to date, it sends an acceptance containing
    /// its current viewstamp and an indication of whether it is the
    /// primary in the current view."
    Normal {
        /// The acceptor's latest viewstamp.
        latest: Viewstamp,
        /// Whether the acceptor is the primary of `latest.id`.
        was_primary: bool,
    },
    /// "Otherwise, it sends a 'crash-accept' response; this response
    /// contains only its viewid, and means that it has forgotten its
    /// gstate."
    Crashed {
        /// The acceptor's stable viewid.
        stable_viewid: ViewId,
    },
}

/// View change bookkeeping.
#[derive(Debug, Clone, Default)]
pub(crate) enum VcState {
    /// Not in a view change.
    #[default]
    None,
    /// Acting as view manager: collecting acceptances for `viewid`.
    Manager { viewid: ViewId, responses: BTreeMap<Mid, Acceptance> },
    /// Underling: accepted `viewid`, awaiting the new view.
    Underling { viewid: ViewId },
}

/// The result of applying the paper's view formation rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Formation {
    /// A view can be formed with the given primary and members.
    View {
        /// The chosen primary (greatest normal viewstamp, old primary
        /// preferred).
        primary: Mid,
        /// All acceptors.
        members: Vec<Mid>,
    },
    /// Formation is impossible with these responses.
    Cannot,
}

/// The paper's view formation rule ("The correct rule for view formation
/// is: a majority of cohorts have accepted and (1) a majority of cohorts
/// accepted normally, or (2) crash-viewid < normal-viewid, or (3)
/// crash-viewid = normal-viewid and the primary of view normal-viewid has
/// done a normal acceptance of the invitation").
///
/// Exposed (crate-internal) as a pure function so the rule can be tested
/// exhaustively, including the Section 4 three-cohort counterexample.
pub(crate) fn form_view(responses: &BTreeMap<Mid, Acceptance>, majority: usize) -> Formation {
    if responses.len() < majority {
        return Formation::Cannot;
    }
    let normals: Vec<(Mid, Viewstamp, bool)> = responses
        .iter()
        .filter_map(|(&mid, acc)| match acc {
            Acceptance::Normal { latest, was_primary } => Some((mid, *latest, *was_primary)),
            Acceptance::Crashed { .. } => None,
        })
        .collect();
    let crash_viewid: Option<ViewId> = responses
        .values()
        .filter_map(|acc| match acc {
            Acceptance::Crashed { stable_viewid } => Some(*stable_viewid),
            Acceptance::Normal { .. } => None,
        })
        .max();
    let Some(&(_, normal_max, _)) = normals.iter().max_by_key(|(_, vs, _)| *vs) else {
        // No cohort knows the state at all: catastrophe (Section 4.2);
        // "it causes the algorithm to never again form a new view."
        return Formation::Cannot;
    };
    let normal_viewid = normal_max.id;
    let ok = normals.len() >= majority
        || match crash_viewid {
            None => true,
            Some(cv) => {
                cv < normal_viewid
                    || (cv == normal_viewid
                        && normals
                            .iter()
                            .any(|(_, vs, was_primary)| vs.id == normal_viewid && *was_primary))
            }
        };
    if !ok {
        return Formation::Cannot;
    }
    // "The cohort returning the largest viewstamp (in a "normal"
    // acceptance) is selected as the new primary; the old primary of that
    // view is selected if possible, since this causes minimal disruption."
    let candidates: Vec<&(Mid, Viewstamp, bool)> =
        normals.iter().filter(|(_, vs, _)| *vs == normal_max).collect();
    let primary = candidates
        .iter()
        .find(|(_, _, was_primary)| *was_primary)
        .or_else(|| candidates.first())
        .map(|(mid, _, _)| *mid)
        .expect("invariant: formation only runs with at least one normal acceptance");
    Formation::View { primary, members: responses.keys().copied().collect() }
}

/// Whether the formation rule would admit a view if exactly these
/// acceptances were collected.
///
/// This is the [`form_view`] predicate without the primary election,
/// exposed for harness liveness oracles: a group whose *live* cohorts'
/// acceptances cannot form a view is in the Section 4.2 catastrophe
/// (the cohorts that might hold forced information have all
/// crash-accepted), and staying wedged is the algorithm working as
/// specified rather than a liveness bug.
pub fn formation_possible(responses: &BTreeMap<Mid, Acceptance>, majority: usize) -> bool {
    !matches!(form_view(responses, majority), Formation::Cannot)
}

impl Cohort {
    // ------------------------------------------------------------------
    // becoming a manager
    // ------------------------------------------------------------------

    /// Start (or restart) a view change with this cohort as manager:
    /// `make_invitations` of Figure 5.
    pub(crate) fn start_view_change(&mut self, _now: Tick, out: &mut Vec<Effect>) {
        // Any read lease this cohort holds was granted for the view it is
        // now abandoning; revoke it (and drop a stale lease wait) while
        // cur_viewid still names that view, so successor primaries can
        // skip the skew wait.
        self.relinquish_lease(out);
        self.set_status(Status::ViewManager, out);
        // A manager abandons any in-flight state transfer: the pending
        // newview it was fetching against is stale once max_viewid
        // advances.
        self.fetch = None;
        // "make_invitations creates a new viewid by pairing mymid with a
        // number greater than max_viewid.cnt and stores it in
        // max_viewid."
        self.max_viewid = self.max_viewid.successor(self.mid);
        let viewid = self.max_viewid;
        let mut responses = BTreeMap::new();
        // "records its own response ("crashed" or "normal")".
        responses.insert(self.mid, self.own_acceptance());
        self.vc = VcState::Manager { viewid, responses };
        out.push(Effect::Observe(Observation::ViewChangeStarted {
            group: self.group,
            mid: self.mid,
            viewid,
        }));
        for &m in self.configuration.members() {
            if m != self.mid {
                out.push(Effect::Send {
                    to: m,
                    msg: Message::Invite { viewid, manager: self.mid },
                });
            }
        }
        out.push(Effect::SetTimer {
            after: self.cfg.invite_timeout,
            timer: Timer::InviteTimeout { viewid },
        });
    }

    pub(crate) fn own_acceptance(&self) -> Acceptance {
        if self.up_to_date {
            Acceptance::Normal {
                latest: self
                    .history
                    .latest()
                    .expect("invariant: an up-to-date cohort has a history"),
                was_primary: self.cur_view.primary() == self.mid,
            }
        } else {
            Acceptance::Crashed { stable_viewid: self.stable_viewid }
        }
    }

    // ------------------------------------------------------------------
    // invitations
    // ------------------------------------------------------------------

    pub(crate) fn on_invite(
        &mut self,
        _now: Tick,
        viewid: ViewId,
        manager: Mid,
        out: &mut Vec<Effect>,
    ) {
        // "If vid < max_viewid then continue" — ignore stale invitations;
        // equal viewids are duplicates of what we already accepted, so
        // re-accept (the network may have lost our first acceptance).
        if viewid < self.max_viewid {
            return;
        }
        if viewid == self.max_viewid {
            match &self.vc {
                VcState::Underling { viewid: accepted } if *accepted == viewid => {
                    self.send_acceptance(viewid, manager, out);
                }
                // Not an underling of this exact viewid: either we are
                // managing a competing change ourselves or the duplicate
                // raced a state transition; re-accepting would be wrong
                // in both cases.
                VcState::Underling { .. } | VcState::None | VcState::Manager { .. } => {}
            }
            return;
        }
        // do_accept: record the new viewid and send an acceptance; become
        // an underling. Accepting stops this cohort acking the old view's
        // buffer, so any lease it holds as that view's primary can no
        // longer renew — revoke it explicitly first.
        self.relinquish_lease(out);
        self.max_viewid = viewid;
        self.send_acceptance(viewid, manager, out);
        self.set_status(Status::Underling, out);
        self.vc = VcState::Underling { viewid };
        out.push(Effect::SetTimer {
            after: self.cfg.underling_timeout,
            timer: Timer::UnderlingTimeout { viewid },
        });
    }

    fn send_acceptance(&self, viewid: ViewId, manager: Mid, out: &mut Vec<Effect>) {
        let msg = match self.own_acceptance() {
            Acceptance::Normal { latest, was_primary } => {
                Message::AcceptNormal { viewid, from: self.mid, latest, was_primary }
            }
            Acceptance::Crashed { stable_viewid } => {
                Message::AcceptCrashed { viewid, from: self.mid, stable_viewid }
            }
        };
        out.push(Effect::Send { to: manager, msg });
    }

    pub(crate) fn on_accept(
        &mut self,
        now: Tick,
        viewid: ViewId,
        from: Mid,
        acceptance: Acceptance,
        out: &mut Vec<Effect>,
    ) {
        let VcState::Manager { viewid: ours, responses } = &mut self.vc else {
            return;
        };
        if *ours != viewid || self.status != Status::ViewManager {
            return;
        }
        responses.insert(from, acceptance);
        // "when all cohorts accept the invitation or a timeout expires,
        // make_invitations returns the responses." Per Section 4.1, the
        // manager should wait only "to hear from all cohorts that the
        // 'I'm alive' messages indicate should reply" — cohorts silent
        // longer than the suspect timeout are not waited for, which is
        // what makes the view change one round rather than one timeout.
        let all_expected_responded = self.configuration.members().iter().all(|&m| {
            let VcState::Manager { responses, .. } = &self.vc else { return false };
            if m == self.mid || responses.contains_key(&m) {
                return true;
            }
            let heard = self.last_heard.get(&m).copied().unwrap_or(0);
            now.saturating_sub(heard) > self.cfg.suspect_timeout
        });
        if all_expected_responded {
            self.try_form_view(now, out);
        }
    }

    pub(crate) fn on_invite_timeout(&mut self, now: Tick, viewid: ViewId, out: &mut Vec<Effect>) {
        let VcState::Manager { viewid: ours, .. } = &self.vc else { return };
        if *ours != viewid || self.status != Status::ViewManager {
            return;
        }
        self.try_form_view(now, out);
    }

    fn try_form_view(&mut self, now: Tick, out: &mut Vec<Effect>) {
        let VcState::Manager { viewid, responses } = &self.vc else { return };
        let viewid = *viewid;
        match form_view(responses, self.configuration.majority()) {
            Formation::Cannot => {
                // "If the attempt fails, the cohort attempts another view
                // formation later." Consecutive failures back off (capped
                // exponential with per-cohort jitter) so that during a
                // long partition the minority side does not flood the
                // network with invitation rounds, and concurrent managers
                // desynchronize instead of colliding every round.
                self.manager_attempts = self.manager_attempts.saturating_add(1);
                out.push(Effect::SetTimer {
                    after: self.retry_delay(
                        self.cfg.manager_retry_delay,
                        self.manager_attempts,
                        super::retry_kind::MANAGER,
                    ),
                    timer: Timer::ManagerRetry { viewid },
                });
            }
            Formation::View { primary, members } => {
                let backups: Vec<Mid> = members.iter().copied().filter(|&m| m != primary).collect();
                let view = View::new(primary, backups);
                if primary == self.mid {
                    self.start_view(now, view, out);
                } else {
                    // "it sends an "init-view" message to the new
                    // primary, and becomes an underling."
                    out.push(Effect::Send { to: primary, msg: Message::InitView { viewid, view } });
                    self.set_status(Status::Underling, out);
                    self.vc = VcState::Underling { viewid };
                    out.push(Effect::SetTimer {
                        after: self.cfg.underling_timeout,
                        timer: Timer::UnderlingTimeout { viewid },
                    });
                }
            }
        }
    }

    pub(crate) fn on_manager_retry(&mut self, now: Tick, viewid: ViewId, out: &mut Vec<Effect>) {
        let VcState::Manager { viewid: ours, .. } = &self.vc else { return };
        if *ours != viewid || self.status != Status::ViewManager {
            return;
        }
        // Try again with a fresh, higher viewid (more cohorts may be
        // reachable now).
        self.start_view_change(now, out);
    }

    pub(crate) fn on_underling_timeout(
        &mut self,
        now: Tick,
        viewid: ViewId,
        out: &mut Vec<Effect>,
    ) {
        let VcState::Underling { viewid: awaited } = &self.vc else { return };
        if *awaited != viewid || self.status != Status::Underling {
            return;
        }
        // "If no message arrives within some interval, await_view signals
        // timeout and the cohort becomes the view manager."
        self.start_view_change(now, out);
    }

    pub(crate) fn on_init_view(
        &mut self,
        now: Tick,
        viewid: ViewId,
        view: View,
        out: &mut Vec<Effect>,
    ) {
        // "If an "init-view" message containing a viewid equal to
        // max_viewid arrives, await_view signals become_primary."
        if viewid != self.max_viewid || self.status == Status::Active {
            return;
        }
        if !self.up_to_date {
            // A crashed cohort can never be chosen as primary; a manager
            // that thinks otherwise is stale.
            return;
        }
        self.start_view(now, view, out);
    }

    // ------------------------------------------------------------------
    // starting / installing a view
    // ------------------------------------------------------------------

    /// Become the primary of the new view (Figure 5 `start_view`): update
    /// the current view, reset the timestamp generator, append to the
    /// history, write the viewid to stable storage, and write the newview
    /// record as the first event of the new buffer.
    fn start_view(&mut self, now: Tick, view: View, out: &mut Vec<Effect>) {
        debug_assert_eq!(view.primary(), self.mid);
        let viewid = self.max_viewid;
        self.fetch = None;
        // Lease bookkeeping, before any view identifier changes. The
        // previous active view this cohort knows is its own cur_view
        // (the new primary is up to date, so that is *the* latest view);
        // its primary is the only cohort that could still be serving
        // leased reads.
        let prev_viewid = self.cur_viewid;
        let prev_primary = self.cur_view.primary();
        // Grants this cohort holds were made for the previous view; void
        // them (broadcasting a revocation, so later primaries skip the
        // skew wait) while cur_viewid still names that view.
        self.relinquish_lease(out);
        // Resolve the snapshot base the newview record will reference —
        // before any view mutation, so an ad-hoc snapshot captures the
        // state the new view starts from. If the last boundary snapshot
        // is still fresh (its delta has not outgrown one interval), ship
        // its digest plus the delta of records since it; otherwise
        // materialize the current state and ship an empty delta. Either
        // way backups holding (or matching) the base install without a
        // byte of state transfer.
        let interval = self.cfg.snapshot_interval;
        let fresh =
            interval > 0 && self.last_snap.is_some() && (self.delta_log.len() as u64) < interval;
        let (base, delta): (_, std::sync::Arc<[EventRecord]>) = if fresh {
            let base = self.last_snap.expect("invariant: freshness requires a last snapshot");
            (base, self.delta_log.as_slice().into())
        } else {
            let vs = self
                .history
                .latest()
                .expect("invariant: only an up-to-date cohort becomes primary");
            (self.take_snapshot(vs, out), std::sync::Arc::from(Vec::<EventRecord>::new()))
        };
        self.cur_viewid = viewid;
        self.cur_view = view.clone();
        self.history.open_view(viewid);
        self.stable_viewid = viewid; // stable-storage write (Section 4.2)
        out.push(Effect::Persist(DurableEvent::StableViewId(viewid)));
        // Snapshot the state the new view starts from; the log tail a
        // recovery replays begins right after this point.
        out.push(Effect::Persist(DurableEvent::Checkpoint(Checkpoint {
            viewid,
            view: view.clone(),
            history: self.history.clone(),
            gstate: self.gstate.clone(),
        })));
        self.records_since_checkpoint = 0;
        self.up_to_date = true;
        self.set_status(Status::Active, out);
        self.vc = VcState::None;
        self.manager_attempts = 0;
        // A new primary must not let the new view install writes while
        // the previous primary could still be serving leased reads of the
        // old versions: unless this cohort *was* that primary, or holds
        // its explicit revocation covering the previous view, defer the
        // write pipeline (prepares, commits, query replies) until the
        // skew-adjusted maximum lease has provably drained. See
        // `CohortConfig::lease_wait_ticks` and DESIGN.md §16.
        if self.cfg.lease_ticks > 0
            && prev_primary != self.mid
            && !self.lease_revoke_covers(prev_primary, prev_viewid)
        {
            let wait = self.cfg.lease_wait_ticks();
            self.lease_wait = Some(LeaseWaitState { viewid, prev_primary, prev_viewid });
            out.push(Effect::SetTimer { after: wait, timer: Timer::LeaseWait { viewid } });
            out.push(Effect::Observe(Observation::LeaseWaitStarted {
                group: self.group,
                mid: self.mid,
                viewid,
                wait,
            }));
        }
        for m in view.members() {
            if m != self.mid {
                self.last_heard.insert(m, now);
            }
        }
        // Rebuild the lock table from the stored completed-call records
        // (Section 3.3).
        self.locks = LockTable::rebuild(self.gstate.pending_txns());
        self.prepared.clear();
        let mut buffer = CommBuffer::new(viewid, view.backups(), self.configuration.sub_majority());
        // "It initializes the buffer to contain a single "newview" event
        // record; this record contains cur_view, history, and gstate."
        // The gstate travels by reference: a snapshot digest plus the
        // delta of event records applied since that snapshot, so the
        // record costs O(delta) instead of O(state) — and cloning the
        // kind below shares the delta through the Arc instead of deep-
        // copying the whole group state twice.
        let newview_kind =
            EventKind::NewView { view: view.clone(), history: self.history.clone(), base, delta };
        let newview_vs = buffer.add(newview_kind.clone());
        self.history.advance(viewid, newview_vs.ts);
        out.push(Effect::Persist(DurableEvent::Record(EventRecord {
            vs: newview_vs,
            kind: newview_kind,
        })));
        self.buffer = Some(buffer);
        out.push(Effect::Observe(Observation::ViewChanged {
            group: self.group,
            mid: self.mid,
            viewid,
            view: view.clone(),
            is_primary: true,
        }));
        self.flush_buffer(out);
        self.arm_flush(out);

        // Reject parked calls from the old view so their clients retry
        // against the new view immediately.
        let parked = std::mem::take(&mut self.waiting_calls);
        for call in parked {
            out.push(Effect::Send {
                to: call.from,
                msg: Message::CallReject {
                    call_id: call.call_id,
                    newer: Some((self.cur_viewid, self.cur_view.clone())),
                },
            });
        }

        self.resume_coordination(now, newview_vs, out);
    }

    /// Continue coordinator work across the view change. "If the same
    /// cohort is the primary both before and after the view change, then
    /// no user work is lost in the change"; and transactions whose
    /// committing record survived are driven to completion.
    fn resume_coordination(&mut self, now: Tick, newview_vs: Viewstamp, out: &mut Vec<Effect>) {
        use super::client::CoordPhase;
        // In-flight commit decisions: the committing record from the old
        // view is part of this primary's state, hence inside the newview
        // record; forcing the newview record to a sub-majority makes the
        // decision durable in the new view.
        let deciding: Vec<crate::types::Aid> = self
            .coord
            .iter()
            .filter(|(_, t)| t.phase == CoordPhase::Deciding)
            .map(|(&aid, _)| aid)
            .collect();
        for aid in deciding {
            let reason = super::ForceReason::CoordCommitted { aid };
            for fired in self.primary_force(newview_vs, reason, out) {
                self.fire_force_reason(now, fired, out);
            }
        }
        // Transactions in earlier phases re-drive themselves through
        // their retry timers; re-send promptly for the common case.
        let active: Vec<(crate::types::Aid, CoordPhase)> =
            self.coord.iter().map(|(&aid, t)| (aid, t.phase)).collect();
        for (aid, phase) in active {
            match phase {
                CoordPhase::Running => {
                    if let Some(txn) = self.coord.get(&aid) {
                        if txn.next_op < txn.ops.len() {
                            let seq = txn.next_op as u64;
                            out.push(Effect::SetTimer {
                                after: self.retry_delay(
                                    self.cfg.call_retry_interval,
                                    1,
                                    super::retry_kind::CALL,
                                ),
                                timer: Timer::CallRetry {
                                    call_id: crate::types::CallId { aid, seq },
                                    attempt: 1,
                                },
                            });
                        }
                    }
                }
                CoordPhase::Preparing => {
                    out.push(Effect::SetTimer {
                        after: self.retry_delay(
                            self.cfg.prepare_retry_interval,
                            1,
                            super::retry_kind::PREPARE,
                        ),
                        timer: Timer::PrepareRetry { aid, attempt: 1 },
                    });
                }
                CoordPhase::Committing => {
                    out.push(Effect::SetTimer {
                        after: self.retry_delay(
                            self.cfg.commit_retry_interval,
                            1,
                            super::retry_kind::COMMIT,
                        ),
                        timer: Timer::CommitRetry { aid, attempt: 1 },
                    });
                }
                CoordPhase::Deciding => {}
            }
        }
        // Orphaned committing records from a previous primary of this
        // group: finish their phase two ("transactions … that committed
        // will still be committed", Section 4.1).
        let orphaned: Vec<(crate::types::Aid, Vec<crate::types::GroupId>)> = self
            .gstate
            .statuses()
            .filter_map(|(aid, status)| match status {
                TxnStatus::Committing { plist }
                    if aid.coordinator_group() == self.group
                        && !self.coord.contains_key(&aid)
                        && !plist.is_empty() =>
                {
                    Some((aid, plist.clone()))
                }
                // Committing records we coordinate ourselves (in
                // self.coord) resumed above; finished transactions need
                // no phase two.
                TxnStatus::Committing { .. }
                | TxnStatus::Committed
                | TxnStatus::Aborted
                | TxnStatus::Done => None,
            })
            .collect();
        for (aid, plist) in orphaned {
            self.resumed.insert(aid, plist.iter().copied().collect());
            self.on_commit_retry(aid, 0, out);
        }
    }

    /// Section 4.1's unilateral exclusion: the primary drops silent
    /// backups and starts a fresh view directly — its own state is
    /// authoritative (it is the primary of the previous view), so no
    /// acceptances are needed; the remaining view still holds a majority
    /// so concurrent protocol-driven view changes cannot fork.
    pub(crate) fn unilateral_exclude(&mut self, now: Tick, silent: &[Mid], out: &mut Vec<Effect>) {
        debug_assert!(self.is_active_primary());
        let backups: Vec<Mid> =
            self.cur_view.backups().iter().copied().filter(|m| !silent.contains(m)).collect();
        let view = View::new(self.mid, backups);
        debug_assert!(view.is_majority_of(&self.configuration));
        self.max_viewid = self.max_viewid.successor(self.mid);
        // Carry pending forces across: everything they covered is inside
        // the new view's newview snapshot, so forcing that record to the
        // new (smaller) backup set satisfies them.
        let pending = self.buffer.as_mut().map(|b| b.abandon_forces()).unwrap_or_default();
        self.start_view(now, view, out);
        let newview_vs = crate::types::Viewstamp::new(
            self.cur_viewid,
            self.history
                .ts_for(self.cur_viewid)
                .expect("invariant: start_view opened the new view"),
        );
        for reason in pending {
            for fired in self.primary_force(newview_vs, reason, out) {
                self.fire_force_reason(now, fired, out);
            }
        }
    }

    /// Install a newview record received as an underling (Figure 5
    /// await_view: "it initializes cur_view, cur_viewid, history and
    /// gstate from the information in the message, writes cur_viewid to
    /// stable storage, sets up_to_date to true, and returns normally").
    pub(crate) fn install_new_view(
        &mut self,
        now: Tick,
        viewid: ViewId,
        view: View,
        history: History,
        gstate: GroupState,
        out: &mut Vec<Effect>,
    ) {
        debug_assert_eq!(viewid, self.max_viewid);
        let is_primary = view.primary() == self.mid;
        debug_assert!(!is_primary, "the primary starts its view via start_view");
        // An old primary installing a view it lost revokes any lease it
        // still holds — while cur_viewid still names the granted view.
        self.relinquish_lease(out);
        self.cur_viewid = viewid;
        self.cur_view = view.clone();
        self.history = history;
        self.gstate = gstate;
        self.stable_viewid = viewid;
        out.push(Effect::Persist(DurableEvent::StableViewId(viewid)));
        out.push(Effect::Persist(DurableEvent::Checkpoint(Checkpoint {
            viewid,
            view: view.clone(),
            history: self.history.clone(),
            gstate: self.gstate.clone(),
        })));
        self.records_since_checkpoint = 0;
        self.up_to_date = true;
        self.set_status(Status::Active, out);
        self.vc = VcState::None;
        self.fetch = None;
        self.manager_attempts = 0;
        self.buffer = None;
        self.locks.clear();
        self.prepared.clear();
        self.waiting_calls.clear();
        for m in view.members() {
            if m != self.mid {
                self.last_heard.insert(m, now);
            }
        }
        // This cohort is a backup in the new view: any transactions it
        // was coordinating as an old primary are lost.
        self.fail_coordinated_txns(out);
        out.push(Effect::Observe(Observation::ViewChanged {
            group: self.group,
            mid: self.mid,
            viewid,
            view,
            is_primary: false,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Timestamp;

    fn vid(c: u64, m: u64) -> ViewId {
        ViewId { counter: c, manager: Mid(m) }
    }

    fn vs(c: u64, m: u64, ts: u64) -> Viewstamp {
        Viewstamp::new(vid(c, m), Timestamp(ts))
    }

    fn normal(latest: Viewstamp, was_primary: bool) -> Acceptance {
        Acceptance::Normal { latest, was_primary }
    }

    fn crashed(stable: ViewId) -> Acceptance {
        Acceptance::Crashed { stable_viewid: stable }
    }

    #[test]
    fn formation_needs_majority() {
        let mut r = BTreeMap::new();
        r.insert(Mid(0), normal(vs(0, 0, 5), true));
        assert_eq!(form_view(&r, 2), Formation::Cannot);
        r.insert(Mid(1), normal(vs(0, 0, 3), false));
        assert!(matches!(form_view(&r, 2), Formation::View { .. }));
    }

    #[test]
    fn primary_is_highest_viewstamp() {
        let mut r = BTreeMap::new();
        r.insert(Mid(0), normal(vs(0, 0, 3), false));
        r.insert(Mid(1), normal(vs(0, 0, 7), false));
        r.insert(Mid(2), normal(vs(0, 0, 5), false));
        let Formation::View { primary, members } = form_view(&r, 2) else {
            panic!("should form");
        };
        assert_eq!(primary, Mid(1));
        assert_eq!(members, vec![Mid(0), Mid(1), Mid(2)]);
    }

    #[test]
    fn old_primary_preferred_on_tie() {
        let mut r = BTreeMap::new();
        // Both cohorts report the same (maximal) viewstamp; the one that
        // was primary is chosen to minimize disruption.
        r.insert(Mid(0), normal(vs(0, 0, 7), false));
        r.insert(Mid(1), normal(vs(0, 0, 7), true));
        let Formation::View { primary, .. } = form_view(&r, 2) else {
            panic!("should form");
        };
        assert_eq!(primary, Mid(1));
    }

    #[test]
    fn all_crashed_is_catastrophe() {
        let mut r = BTreeMap::new();
        r.insert(Mid(0), crashed(vid(3, 0)));
        r.insert(Mid(1), crashed(vid(3, 0)));
        r.insert(Mid(2), crashed(vid(3, 0)));
        assert_eq!(form_view(&r, 2), Formation::Cannot);
    }

    #[test]
    fn crashed_ignored_when_majority_normal() {
        // Rule (1): a majority of cohorts accepted normally.
        let mut r = BTreeMap::new();
        r.insert(Mid(0), normal(vs(5, 0, 2), true));
        r.insert(Mid(1), normal(vs(5, 0, 2), false));
        r.insert(Mid(2), crashed(vid(9, 0))); // crash viewid even newer
        assert!(matches!(form_view(&r, 2), Formation::View { primary: Mid(0), .. }));
    }

    #[test]
    fn crashed_from_old_view_ignored() {
        // Rule (2): crash-viewid < normal-viewid.
        let mut r = BTreeMap::new();
        r.insert(Mid(0), normal(vs(5, 0, 2), false));
        r.insert(Mid(1), crashed(vid(3, 0)));
        assert!(matches!(form_view(&r, 2), Formation::View { .. }));
    }

    #[test]
    fn crashed_same_view_needs_its_primary() {
        // Rule (3): crash-viewid = normal-viewid requires the primary of
        // that view among the normal acceptances.
        let mut r = BTreeMap::new();
        r.insert(Mid(0), normal(vs(5, 0, 2), true)); // primary of v5
        r.insert(Mid(1), crashed(vid(5, 0)));
        assert!(matches!(form_view(&r, 2), Formation::View { primary: Mid(0), .. }));

        let mut r2 = BTreeMap::new();
        r2.insert(Mid(0), normal(vs(5, 0, 2), false)); // backup of v5 only
        r2.insert(Mid(1), crashed(vid(5, 0)));
        assert_eq!(form_view(&r2, 2), Formation::Cannot);
    }

    #[test]
    fn section4_abc_counterexample() {
        // "Suppose there are three cohorts, A, B and C, and view v1 =
        // <primary: A, backups: B, C>. Suppose that A committed a
        // transaction, forcing its event records to B but not C, then A
        // crashed and recovered, and then a partition occurred that
        // separated B from A and C. In this case we cannot form a new
        // view until the partition is repaired."
        let v1 = vid(1, 0);
        let a = Mid(0);
        let c = Mid(2);
        let mut r = BTreeMap::new();
        r.insert(a, crashed(v1)); // A recovered: crashed acceptance
        r.insert(c, normal(Viewstamp::new(v1, Timestamp(3)), false)); // C lags
                                                                      // Majority (2 of 3) accepted, but: normals (1) < majority (2);
                                                                      // crash-viewid == normal-viewid and the primary of v1 (A itself)
                                                                      // did not accept normally. Formation must fail.
        assert_eq!(form_view(&r, 2), Formation::Cannot);

        // Once the partition heals and B (which has the forced records)
        // responds, the view can form with B as primary.
        let b = Mid(1);
        r.insert(b, normal(Viewstamp::new(v1, Timestamp(9)), false));
        let Formation::View { primary, .. } = form_view(&r, 2) else {
            panic!("should form after heal");
        };
        assert_eq!(primary, b);
    }

    #[test]
    fn crashed_counts_toward_majority() {
        let mut r = BTreeMap::new();
        r.insert(Mid(0), normal(vs(5, 0, 2), true));
        r.insert(Mid(1), crashed(vid(4, 0)));
        // 2 of 3 accepted (one crashed), rule (2) holds.
        let Formation::View { members, .. } = form_view(&r, 2) else {
            panic!("should form");
        };
        assert_eq!(members.len(), 2);
    }

    #[test]
    fn primary_tiebreak_without_old_primary_is_deterministic() {
        let mut r = BTreeMap::new();
        r.insert(Mid(2), normal(vs(0, 0, 7), false));
        r.insert(Mid(1), normal(vs(0, 0, 7), false));
        let Formation::View { primary, .. } = form_view(&r, 2) else {
            panic!("should form");
        };
        assert_eq!(primary, Mid(1), "lowest mid among max-viewstamp holders");
    }
}
