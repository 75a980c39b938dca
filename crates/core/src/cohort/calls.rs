//! The client side of Figure 2 ("Making a remote call", steps 1–4) plus
//! the subaction redo of Section 3.6: finding a group's primary and
//! running a transaction's remote calls one after another.
//!
//! Two kinds of caller run calls: the replicated client primary
//! ([`Cohort`](super::Cohort)), which then coordinates two-phase commit
//! itself, and the unreplicated [`ClientAgent`](crate::agent::ClientAgent)
//! of Section 3.5, which hands the commit to a coordinator-server. Each
//! owns one [`Directory`] and one [`CallScript`] per transaction; what a
//! finished script or an abort leads to stays with the caller, which
//! acts on the [`Next`] each step returns.

use super::{retry_kind, AbortReason, CallOp, Effect, Timer};
use crate::config::CohortConfig;
use crate::messages::{CallOutcome, Message};
use crate::pset::PSet;
use crate::types::{Aid, CallId, GroupId, Mid, ViewId};
use crate::view::{Configuration, View};
use std::collections::BTreeMap;

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

/// The location directory (Section 3.1's location server, modeled as an
/// immutable map since configurations never change) and the cached view
/// of every group called so far; *primary* discovery stays dynamic, via
/// probes and the views that replies carry.
pub(crate) struct Directory {
    /// The caller's own address: probe replies go here, and a cohort
    /// never probes itself.
    mid: Mid,
    peers: BTreeMap<GroupId, Configuration>,
    cache: BTreeMap<GroupId, (ViewId, View)>,
}

impl Directory {
    pub(crate) fn new(mid: Mid, peers: BTreeMap<GroupId, Configuration>) -> Self {
        Directory { mid, peers, cache: BTreeMap::new() }
    }

    /// The first group `ops` calls that the directory does not list.
    /// Scripts come from outside the program, so callers check them
    /// before running any call.
    pub(crate) fn unknown_group(&self, ops: &[CallOp]) -> Option<GroupId> {
        ops.iter().map(|op| op.group).find(|group| !self.peers.contains_key(group))
    }

    /// The cached view of `group`, if any.
    pub(crate) fn cached(&self, group: GroupId) -> Option<(ViewId, &View)> {
        self.cache.get(&group).map(|(viewid, view)| (*viewid, view))
    }

    /// The cached `(viewid, primary)` of `group`, assuming the bootstrap
    /// view of its configuration until a newer one is learned; `None` for
    /// a group the directory does not list.
    pub(crate) fn target(&mut self, group: GroupId) -> Option<(ViewId, Mid)> {
        if let Some((viewid, view)) = self.cache.get(&group) {
            return Some((*viewid, view.primary()));
        }
        let members = self.peers.get(&group)?.members();
        let primary = members[0];
        let backups: Vec<Mid> = members.iter().copied().filter(|&m| m != primary).collect();
        let viewid = ViewId::initial(primary);
        self.cache.insert(group, (viewid, View::new(primary, backups)));
        Some((viewid, primary))
    }

    /// Send `msg` to the cached primary of `group`; a group the directory
    /// does not list has no primary to send to, and the caller's retry
    /// timer decides what happens next.
    pub(crate) fn send_to_primary(&mut self, group: GroupId, msg: Message, out: &mut Vec<Effect>) {
        if let Some((_, primary)) = self.target(group) {
            out.push(Effect::Send { to: primary, msg });
        }
    }

    /// Cache `view` for `group` if `viewid` is newer than the cached one.
    /// Returns whether the cache changed.
    pub(crate) fn learn(&mut self, group: GroupId, viewid: ViewId, view: View) -> bool {
        if self.cache.get(&group).is_some_and(|(cached, _)| *cached >= viewid) {
            return false;
        }
        self.cache.insert(group, (viewid, view));
        true
    }

    /// Send `msg` to every member of `group`'s configuration but the
    /// caller.
    pub(crate) fn send_to_members(&self, group: GroupId, msg: &Message, out: &mut Vec<Effect>) {
        let Some(config) = self.peers.get(&group) else { return };
        for &m in config.members() {
            if m != self.mid {
                out.push(Effect::Send { to: m, msg: msg.clone() });
            }
        }
    }

    /// Probe `group`'s configuration for the group's current view.
    pub(crate) fn probe(&self, group: GroupId, out: &mut Vec<Effect>) {
        self.send_to_members(group, &Message::Probe { group, reply_to: self.mid }, out);
    }

    /// Backoff-and-jitter delay for call retry number `attempt`.
    fn call_retry_delay(&self, cfg: &CohortConfig, attempt: u32) -> u64 {
        cfg.retry_delay(
            cfg.call_retry_interval,
            attempt,
            retry_kind::salt(self.mid, retry_kind::CALL),
        )
    }
}

/// A transaction's remote calls, run strictly in order, and what their
/// replies brought back.
#[derive(Debug, Clone)]
pub(crate) struct CallScript {
    ops: Vec<CallOp>,
    next_op: usize,
    /// Subaction generation of the current call (Section 3.6): the call
    /// id's high bits, bumped on each redo.
    generation: u64,
    /// "When a transaction is created, it receives … an empty pset";
    /// every reply adds its pset to it.
    pub(crate) pset: PSet,
    /// Reply values, one per finished call.
    pub(crate) results: Vec<Vec<u8>>,
}

/// What a call-path step leaves its caller to do.
#[derive(Debug)]
#[must_use]
pub(crate) enum Next {
    /// A call is outstanding, or the input was stale: nothing.
    Wait,
    /// Every call has replied: commit.
    Commit,
    /// The transaction must abort.
    Abort(AbortReason),
}

impl CallScript {
    pub(crate) fn new(ops: Vec<CallOp>) -> Self {
        CallScript { ops, next_op: 0, generation: 0, pset: PSet::new(), results: Vec::new() }
    }

    /// A script with no calls to run whose participants are already known
    /// (a commit delegated by an unreplicated client).
    pub(crate) fn finished(pset: PSet) -> Self {
        CallScript { pset, ..CallScript::new(Vec::new()) }
    }

    /// The index of the call the script waits on, if any.
    pub(crate) fn pending_op(&self) -> Option<usize> {
        (self.next_op < self.ops.len()).then_some(self.next_op)
    }

    /// Whether `seq` names the call the script waits on. A reply,
    /// rejection or retry timer for any other sequence number is stale:
    /// an earlier subaction's, or one for a finished script.
    fn is_current(&self, seq: u64) -> bool {
        self.pending_op().is_some() && call_seq(self.next_op, self.generation) == seq
    }

    /// Send the next call and arm its retry timer, or report the script
    /// finished.
    pub(crate) fn advance(
        &self,
        cfg: &CohortConfig,
        dir: &mut Directory,
        aid: Aid,
        out: &mut Vec<Effect>,
    ) -> Next {
        let Some(op) = self.pending_op() else { return Next::Commit };
        let call_id = CallId { aid, seq: call_seq(op, self.generation) };
        self.send(dir, call_id, out);
        out.push(Effect::SetTimer {
            after: dir.call_retry_delay(cfg, 1),
            timer: Timer::CallRetry { call_id, attempt: 1 },
        });
        Next::Wait
    }

    /// A `CallReply` arrived.
    pub(crate) fn on_reply(
        &mut self,
        cfg: &CohortConfig,
        dir: &mut Directory,
        call_id: CallId,
        outcome: CallOutcome,
        out: &mut Vec<Effect>,
    ) -> Next {
        if !self.is_current(call_id.seq) {
            return Next::Wait; // stale or duplicate (possibly an old subaction's)
        }
        match outcome {
            CallOutcome::Ok { result, pset } => {
                // "If a reply message arrives, add the elements of the
                // pset in the reply message to the transaction's pset.
                // User code at the client can now continue running."
                self.pset.merge(&pset);
                self.results.push(result);
                self.next_op += 1;
                self.generation = 0;
                self.advance(cfg, dir, call_id.aid, out)
            }
            CallOutcome::Refused(refusal) => Next::Abort(AbortReason::CallRefused {
                group: self.ops[self.next_op].group,
                refusal,
            }),
        }
    }

    /// A `CallReject` arrived: the callee is not the primary of the view
    /// the call named. The call stays outstanding either way.
    pub(crate) fn on_reject(
        &self,
        dir: &mut Directory,
        call_id: CallId,
        newer: Option<(ViewId, View)>,
        out: &mut Vec<Effect>,
    ) -> Next {
        if !self.is_current(call_id.seq) {
            return Next::Wait;
        }
        let group = self.ops[self.next_op].group;
        // "If the reply indicates that the view has changed, update the
        // cache, if possible, and go to step 1." A rejection is proof the
        // call was not executed in the new view, so the re-send (with the
        // same call id) is safe.
        if newer.is_some_and(|(viewid, view)| dir.learn(group, viewid, view)) {
            self.send(dir, call_id, out);
        } else {
            // "If a more recent view cannot be discovered, abort": probe
            // first; the call-retry timer aborts if nothing turns up.
            dir.probe(group, out);
        }
        Next::Wait
    }

    /// The call-retry timer for `call_id` fired after `attempt` sends.
    pub(crate) fn on_retry(
        &mut self,
        cfg: &CohortConfig,
        dir: &mut Directory,
        call_id: CallId,
        attempt: u32,
        out: &mut Vec<Effect>,
    ) -> Next {
        if !self.is_current(call_id.seq) {
            return Next::Wait;
        }
        let group = self.ops[self.next_op].group;
        let (call_id, attempt) = if attempt < cfg.call_attempts {
            (call_id, attempt + 1)
        } else if self.generation < u64::from(cfg.call_redo_attempts) {
            // Section 3.6: "we can abort just the subaction, and then do
            // the call again as a new subaction." The redo carries a fresh
            // call id; the server durably drops any surviving record of
            // the old generation before executing the new one, so exactly
            // one generation's effects can commit.
            self.generation += 1;
            (CallId { aid: call_id.aid, seq: call_seq(self.next_op, self.generation) }, 1)
        } else {
            // "If there is no reply, abort the transaction" (Figure 2
            // step 3) — after the redo budget is exhausted.
            return Next::Abort(AbortReason::CallTimeout { group });
        };
        self.send(dir, call_id, out);
        dir.probe(group, out);
        out.push(Effect::SetTimer {
            after: dir.call_retry_delay(cfg, attempt),
            timer: Timer::CallRetry { call_id, attempt },
        });
        Next::Wait
    }

    /// `dir` learned a newer view of `group`: re-send the outstanding
    /// call if it goes there (the call id suppresses duplicates at the
    /// server).
    pub(crate) fn resend_to(
        &self,
        dir: &mut Directory,
        aid: Aid,
        group: GroupId,
        out: &mut Vec<Effect>,
    ) {
        if let Some(op) = self.pending_op().filter(|&op| self.ops[op].group == group) {
            self.send(dir, CallId { aid, seq: call_seq(op, self.generation) }, out);
        }
    }

    /// Send call `call_id` to its group's cached primary, naming the
    /// cached viewid (Figure 2 step 1).
    fn send(&self, dir: &mut Directory, call_id: CallId, out: &mut Vec<Effect>) {
        let op = &self.ops[call_op_index(call_id.seq)];
        // Callers reject a script naming an unlisted group up front.
        let Some((viewid, primary)) = dir.target(op.group) else { return };
        out.push(Effect::Send {
            to: primary,
            msg: Message::Call { viewid, call_id, proc: op.proc.clone(), args: op.args.clone() },
        });
    }
}
