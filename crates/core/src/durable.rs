//! Durability interface of the sans-I/O core (Section 4.2).
//!
//! The paper requires only the viewid on stable storage: "the only
//! information that a cohort needs to remember stably is the viewid".
//! Everything else is volatile, and a recovered cohort rejoins with a
//! crash-acceptance. This module widens that minimum into an *optional*
//! write-ahead log contract, so runtimes that do keep event records and
//! checkpoints on disk can bring a cohort back *up to date* after a crash
//! — turning a whole-group power failure from a permanent catastrophe
//! into an ordinary view change.
//!
//! The core stays sans-I/O: the cohort emits
//! [`Effect::Persist`](crate::cohort::Effect::Persist) carrying a
//! [`DurableEvent`], a runtime-owned store appends it to its log, and on
//! restart the store hands back a [`RecoveredState`] that
//! [`Cohort::recover`](crate::cohort::Cohort::recover) consumes.
//!
//! ## When is recovered state trustworthy?
//!
//! [`RecoveredState::complete`] may only be set when the store guarantees
//! that **every acknowledged event record** survived the crash — in
//! practice, an fsync-per-record policy with a clean CRC scan. Under lazier
//! fsync policies a synced *prefix* of the log survives; recovering from a
//! prefix and claiming an up-to-date ("normal") acceptance is unsound: a
//! recovered primary reporting a truncated viewstamp can win view
//! formation together with a lagging backup and silently lose a forced
//! commit, bypassing the crashed-acceptance rule that exists to prevent
//! exactly this. Stores running those policies must return
//! `complete = false`, which recovers with the paper's crash-acceptance
//! (viewid only).

use crate::cohort::Effect;
use crate::event::EventRecord;
use crate::gstate::GroupState;
use crate::history::History;
use crate::messages::Message;
use crate::types::ViewId;
use crate::view::View;

/// A full snapshot of the replicated state at one point in the event
/// stream, written at every view change and (optionally) periodically
/// mid-view. Recovery restores the latest checkpoint and replays the log
/// records appended after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The view in force when the snapshot was taken (also establishes
    /// the stable viewid: a checkpoint subsumes a
    /// [`DurableEvent::StableViewId`] for the same view).
    pub viewid: ViewId,
    /// The membership of that view.
    pub view: View,
    /// The history as of the snapshot; replay continues from its latest
    /// entry.
    pub history: History,
    /// The group state as of the snapshot.
    pub gstate: GroupState,
}

/// One unit of information the cohort asks its runtime to make durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableEvent {
    /// Append an event record to the write-ahead log. Emitted by the
    /// primary when it adds a record to the communication buffer and by
    /// backups when they apply a delivered record — always *before* the
    /// acknowledgement that makes the record count toward a sub-majority.
    Record(EventRecord),
    /// The paper's stable-storage write (Section 4.2): the cohort entered
    /// view `ViewId`. The minimum a store must retain.
    StableViewId(ViewId),
    /// A full state snapshot; older log segments become garbage.
    Checkpoint(Checkpoint),
    /// A synchronization barrier with no payload: everything appended so
    /// far should survive a crash. Emitted when the primary initiates a
    /// force; stores running the on-force fsync policy sync here.
    Sync,
}

impl DurableEvent {
    /// Short name for tracing and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            DurableEvent::Record(_) => "record",
            DurableEvent::StableViewId(_) => "stable-viewid",
            DurableEvent::Checkpoint(_) => "checkpoint",
            DurableEvent::Sync => "sync",
        }
    }
}

/// What a store hands back after a crash: the input to
/// [`Cohort::recover`](crate::cohort::Cohort::recover).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredState {
    /// The greatest viewid known durable (from `StableViewId` records and
    /// checkpoints). Always meaningful, even when nothing else is.
    pub stable_viewid: ViewId,
    /// The latest intact checkpoint, if the store keeps them.
    pub checkpoint: Option<Checkpoint>,
    /// Event records appended after that checkpoint, in log order.
    pub tail: Vec<EventRecord>,
    /// Whether the store guarantees no acknowledged record is missing
    /// (fsync-per-record policy and a clean scan). Only then may the
    /// cohort restore state and answer a *normal* acceptance; otherwise
    /// it recovers with the paper's crash-acceptance.
    pub complete: bool,
}

impl RecoveredState {
    /// The paper-minimum recovery: only the stable viewid survived
    /// (Section 4.2). Also what a store with no checkpoint data returns.
    pub fn viewid_only(stable_viewid: ViewId) -> Self {
        RecoveredState { stable_viewid, checkpoint: None, tail: Vec::new(), complete: false }
    }
}

/// Group commit's acknowledgement gate: the group form of the forced
/// write of Section 3.7. A store that leaves appended records unsynced
/// (and promises a covering sync for them) must not let the cohort
/// assert their durability before that sync: every acknowledgement,
/// vote, acceptance and client outcome emitted while records are
/// unsynced is parked here, stamped with the append count at that
/// moment, and released in order once a sync covers its stamp.
///
/// Two messages pass because they promise nothing about durability:
/// - `BufferSend`: replication traffic (only the backup's
///   acknowledgement, sent after *its* covering sync, counts toward the
///   sub-majority), so shipping records early overlaps the primary's
///   sync with the backups'.
/// - `CallReply`: the paper returns a call before its completed-call
///   record is forced (Section 6). The primary's own sync of that record
///   would buy the call nothing: a store that needs this gate recovers
///   with a crash-acceptance, so its log never carries the call into a
///   new view; only a backup's copy can, and the prepare's force covers
///   that. A call lost in a crash is caught at prepare by
///   `compatible(pset, history)`. Under `eager_force_calls` the reply is
///   emitted only once the record's force to the backups completes.
///
/// Timers, observations and persists never wait.
///
/// The gate is sans-I/O: the harness reports appends and completed
/// syncs, and executes whatever the gate hands back. Released effects
/// are final — they are executed directly, never admitted again.
#[derive(Debug)]
pub struct DurabilityGate {
    /// Records appended to the log so far.
    appended: u64,
    /// Records known to be synced.
    synced: u64,
    /// Parked effects with their stamps, nondecreasing.
    parked: Vec<(u64, Effect)>,
}

impl DurabilityGate {
    /// A gate over a log holding `appended` records, the last
    /// `unsynced` of which await a sync.
    pub fn new(appended: u64, unsynced: u64) -> Self {
        DurabilityGate { appended, synced: appended.saturating_sub(unsynced), parked: Vec::new() }
    }

    /// Hand `effect` back if it may be executed now, or park it until
    /// the records appended so far are synced.
    pub fn admit(&mut self, effect: Effect) -> Option<Effect> {
        let asserts_durability = match &effect {
            Effect::Send { msg, .. } => {
                !matches!(msg, Message::BufferSend { .. } | Message::CallReply { .. })
            }
            Effect::TxnResult { .. } => true,
            Effect::SetTimer { .. } | Effect::Persist(_) | Effect::Observe(_) => false,
        };
        if asserts_durability && self.is_dirty() {
            self.parked.push((self.appended, effect));
            return None;
        }
        Some(effect)
    }

    /// A persist appended `appends` records and left `unsynced` records
    /// unsynced in the store. When nothing is left unsynced the store
    /// synced inline, so everything parked is released, in order.
    pub fn persisted(&mut self, appends: u64, unsynced: u64) -> Vec<Effect> {
        self.appended += appends;
        if unsynced > 0 {
            return Vec::new();
        }
        self.synced(self.appended)
    }

    /// A sync made every record up to the append count `upto` durable.
    /// Returns the parked prefix it covers, in order. A superseded
    /// completion (`upto` at or below the watermark) releases nothing
    /// and never moves the watermark back.
    pub fn synced(&mut self, upto: u64) -> Vec<Effect> {
        self.synced = self.synced.max(upto);
        let n = self.parked.partition_point(|(stamp, _)| *stamp <= self.synced);
        self.parked.drain(..n).map(|(_, effect)| effect).collect()
    }

    /// Records appended so far (the `upto` of a sync covering them all).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Whether some appended record still awaits its covering sync.
    pub fn is_dirty(&self) -> bool {
        self.appended > self.synced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Aid, CallId, GroupId, Mid, Timestamp, Viewstamp};

    #[test]
    fn viewid_only_is_incomplete() {
        let rs = RecoveredState::viewid_only(ViewId::initial(Mid(3)));
        assert!(!rs.complete);
        assert!(rs.checkpoint.is_none());
        assert!(rs.tail.is_empty());
        assert_eq!(rs.stable_viewid, ViewId::initial(Mid(3)));
    }

    fn reply(req_id: u64) -> Effect {
        Effect::TxnResult { req_id, aid: None, outcome: crate::cohort::TxnOutcome::Unresolved }
    }

    fn ack() -> Effect {
        Effect::Send {
            to: Mid(1),
            msg: Message::ImAlive { from: Mid(2), viewid: ViewId::initial(Mid(1)) },
        }
    }

    fn buffer_send() -> Effect {
        Effect::Send {
            to: Mid(2),
            msg: Message::BufferSend {
                viewid: ViewId::initial(Mid(1)),
                from: Mid(1),
                records: Vec::new().into(),
            },
        }
    }

    #[test]
    fn clean_gate_passes_everything() {
        let mut gate = DurabilityGate::new(5, 0);
        for effect in [reply(1), ack(), buffer_send(), Effect::Persist(DurableEvent::Sync)] {
            assert_eq!(gate.admit(effect.clone()), Some(effect));
        }
    }

    #[test]
    fn non_asserting_effects_never_wait() {
        let mut gate = DurabilityGate::new(0, 0);
        assert!(gate.persisted(1, 1).is_empty());
        assert!(gate.is_dirty());
        for effect in [
            buffer_send(),
            Effect::SetTimer { after: 5, timer: crate::cohort::Timer::Heartbeat },
            Effect::Observe(crate::cohort::Observation::ViewChangeStarted {
                group: crate::types::GroupId(1),
                mid: Mid(1),
                viewid: ViewId::initial(Mid(1)),
            }),
            Effect::Persist(DurableEvent::Sync),
        ] {
            assert_eq!(gate.admit(effect.clone()), Some(effect));
        }
    }

    #[test]
    fn released_effects_form_an_ordered_prefix() {
        let mut gate = DurabilityGate::new(0, 0);
        assert!(gate.persisted(1, 1).is_empty());
        assert_eq!(gate.admit(reply(1)), None);
        assert_eq!(gate.admit(ack()), None);
        assert!(gate.persisted(2, 3).is_empty());
        assert_eq!(gate.admit(reply(2)), None);
        assert_eq!(gate.synced(1), vec![reply(1), ack()]);
        assert!(gate.is_dirty());
        assert_eq!(gate.synced(3), vec![reply(2)]);
        assert!(!gate.is_dirty());
    }

    #[test]
    fn released_batch_is_not_parked_again_while_newer_appends_are_dirty() {
        let mut gate = DurabilityGate::new(0, 0);
        assert!(gate.persisted(1, 1).is_empty());
        assert_eq!(gate.admit(reply(1)), None);
        // A newer record is appended while the first one's sync is in
        // flight; its completion still releases the first reply.
        assert!(gate.persisted(1, 2).is_empty());
        assert_eq!(gate.synced(1), vec![reply(1)]);
        assert!(gate.is_dirty(), "the newer record still awaits its sync");
        assert_eq!(gate.admit(reply(2)), None, "new replies keep waiting");
        assert_eq!(gate.synced(2), vec![reply(2)]);
    }

    #[test]
    fn persist_leaving_nothing_unsynced_releases_everything() {
        let mut gate = DurabilityGate::new(4, 2);
        assert_eq!(gate.admit(reply(1)), None);
        assert!(gate.persisted(1, 3).is_empty());
        assert_eq!(gate.admit(ack()), None);
        assert_eq!(gate.persisted(1, 0), vec![reply(1), ack()]);
        assert!(!gate.is_dirty());
        assert_eq!(gate.admit(reply(2)), Some(reply(2)));
    }

    #[test]
    fn superseded_completion_releases_nothing() {
        let mut gate = DurabilityGate::new(0, 0);
        assert!(gate.persisted(3, 3).is_empty());
        assert!(gate.synced(2).is_empty(), "nothing parked yet");
        assert_eq!(gate.admit(reply(1)), None);
        assert!(gate.synced(1).is_empty(), "a stale completion does not release");
        assert!(gate.synced(2).is_empty(), "nor does a repeated one");
        assert_eq!(gate.synced(3), vec![reply(1)]);
        assert!(gate.synced(1).is_empty());
        assert!(!gate.is_dirty(), "the watermark never moves back");
    }

    fn send(msg: Message) -> Effect {
        Effect::Send { to: Mid(1), msg }
    }

    fn call_reply() -> Effect {
        let aid = Aid { group: GroupId(9), view: ViewId::initial(Mid(1)), seq: 0 };
        send(Message::CallReply {
            call_id: CallId { aid, seq: 0 },
            outcome: crate::messages::CallOutcome::Ok {
                result: Vec::new(),
                pset: crate::pset::PSet::new(),
            },
        })
    }

    /// One of each effect that asserts durability: votes, a participant's
    /// commit acknowledgement, a backup's acknowledgement, a view-change
    /// acceptance and a client outcome.
    fn asserting() -> Vec<Effect> {
        let viewid = ViewId::initial(Mid(1));
        let aid = Aid { group: GroupId(9), view: viewid, seq: 0 };
        let group = GroupId(2);
        vec![
            send(Message::PrepareOk { aid, group, read_only: false }),
            send(Message::PrepareRefuse { aid, group }),
            send(Message::CommitDone { aid, group }),
            send(Message::BufferAck { viewid, from: Mid(2), upto: Timestamp(3) }),
            send(Message::AcceptNormal {
                viewid,
                from: Mid(2),
                latest: Viewstamp::default(),
                was_primary: false,
            }),
            reply(1),
        ]
    }

    #[test]
    fn call_reply_passes_a_dirty_gate() {
        let mut gate = DurabilityGate::new(0, 0);
        assert!(gate.persisted(1, 1).is_empty());
        assert!(gate.is_dirty());
        assert_eq!(gate.admit(call_reply()), Some(call_reply()));
    }

    #[test]
    fn durability_assertions_park_and_the_covering_sync_releases_them_in_order() {
        let mut gate = DurabilityGate::new(0, 0);
        assert!(gate.persisted(1, 1).is_empty());
        for effect in asserting() {
            assert_eq!(gate.admit(effect.clone()), None, "{effect:?} passed a dirty gate");
            // A call reply admitted between them is not held back by
            // what is parked before it.
            assert_eq!(gate.admit(call_reply()), Some(call_reply()));
        }
        assert!(gate.persisted(1, 2).is_empty());
        assert_eq!(gate.admit(reply(2)), None);
        assert_eq!(gate.synced(1), asserting());
        assert_eq!(gate.synced(2), vec![reply(2)]);
    }

    #[test]
    fn event_names_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            [DurableEvent::StableViewId(ViewId::initial(Mid(0))).name(), DurableEvent::Sync.name()]
                .into_iter()
                .collect();
        assert_eq!(names.len(), 2);
    }
}
