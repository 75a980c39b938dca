//! Event records: the information the primary writes to its communication
//! buffer (Section 2).
//!
//! "The primary generates a new timestamp each time it needs to
//! communicate information to its backups; we refer to each such
//! occurrence as an event. … An event record identifies the type of the
//! event, and contains other relevant information about the event."

use crate::gstate::CompletedCall;
use crate::history::History;
use crate::types::{Aid, GroupId, Timestamp, Viewstamp};
use crate::view::View;
use serde::{Deserialize, Serialize};

/// The payload of an event record.
///
/// Section 3.7 points out the one-to-one correspondence with the records a
/// conventional transaction system forces to stable storage; the only
/// difference is the absence of a *prepare* record (the history plus the
/// pset in the prepare message substitute for it) and the addition of the
/// *newview* record that starts each view.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A remote call finished processing at the server ("completed-call",
    /// Figure 3); equivalent to the data records of a conventional system.
    CompletedCall {
        /// The transaction on whose behalf the call ran.
        aid: Aid,
        /// Everything needed to re-create locks and versions.
        record: CompletedCall,
    },
    /// Coordinator commit decision ("committing", Figure 2). Forcing this
    /// record to a sub-majority *is* the commit point.
    Committing {
        /// The committing transaction.
        aid: Aid,
        /// Non-read-only participants that must take part in phase two.
        plist: Vec<GroupId>,
    },
    /// A participant (or read-only participant at prepare) committed the
    /// transaction locally ("committed", Figure 3).
    Committed {
        /// The committed transaction.
        aid: Aid,
    },
    /// The only participant of a transaction committed it alone, in one
    /// phase (DESIGN §14): installed like [`EventKind::Committed`], but
    /// the group keeps the outcome until the coordinator's horizon passes
    /// the aid, so a re-sent `PrepareCommit` gets the same answer.
    /// Forcing this record to a sub-majority *is* the commit point.
    OnePhaseCommitted {
        /// The committed transaction.
        aid: Aid,
    },
    /// The transaction aborted ("aborted"/"abort", Figures 2 and 3); not
    /// strictly required for safety but useful for query processing
    /// (Section 3.1).
    Aborted {
        /// The aborted transaction.
        aid: Aid,
    },
    /// Coordinator phase two finished ("done", Figure 2).
    Done {
        /// The finished transaction.
        aid: Aid,
    },
    /// The records of aborted call-subactions were dropped (Section 3.6:
    /// "we can abort just the subaction, and then do the call again as a
    /// new subaction"). Written by the primary before executing a redone
    /// call so that exactly one generation's effects survive.
    CallsDropped {
        /// The transaction.
        aid: Aid,
        /// The dropped calls.
        dropped: Vec<crate::types::CallId>,
    },
    /// A participant learned a coordinator's horizon: every transaction
    /// of `done_below.group` ordered below `done_below` has finished at
    /// its coordinator, so the participant forgets what it kept about
    /// them (DESIGN §14). Written only when the horizon moves up.
    Horizon {
        /// The coordinator group's horizon.
        done_below: Aid,
    },
    /// The first record of every view ("newview", Section 4): carries the
    /// new view and history, plus a content-addressed reference to a base
    /// snapshot and the delta of event records applied since it, so that
    /// backups — including recovered cohorts with `up_to_date = false` —
    /// can install the latest state.
    ///
    /// The paper ships the full group state here; we ship `base + delta`
    /// instead. A cohort holding the base snapshot (or whose own state
    /// digests to it) reconstructs the group state by replaying the delta;
    /// one that is missing it fetches the snapshot bytes in CRC-checked
    /// chunks (`Message::GetChunk` / `Message::Chunk`) before installing.
    NewView {
        /// The new view.
        view: View,
        /// The new primary's history (already containing the new view's
        /// entry).
        history: History,
        /// The base snapshot the delta applies on top of.
        base: crate::snapshot::SnapshotRef,
        /// Event records applied since `base`, in viewstamp order. Shared
        /// behind `Arc` so buffering, persisting, and retransmitting the
        /// record never re-clones the payload. Never contains nested
        /// newview records.
        delta: std::sync::Arc<[EventRecord]>,
    },
}

impl EventKind {
    /// The transaction this event concerns, if any.
    pub fn aid(&self) -> Option<Aid> {
        match self {
            EventKind::CompletedCall { aid, .. }
            | EventKind::Committing { aid, .. }
            | EventKind::Committed { aid }
            | EventKind::OnePhaseCommitted { aid }
            | EventKind::Aborted { aid }
            | EventKind::Done { aid }
            | EventKind::CallsDropped { aid, .. } => Some(*aid),
            EventKind::Horizon { .. } | EventKind::NewView { .. } => None,
        }
    }

    /// Short name for tracing and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::CompletedCall { .. } => "completed-call",
            EventKind::Committing { .. } => "committing",
            EventKind::Committed { .. } => "committed",
            EventKind::OnePhaseCommitted { .. } => "one-phase-committed",
            EventKind::Aborted { .. } => "aborted",
            EventKind::Done { .. } => "done",
            EventKind::CallsDropped { .. } => "calls-dropped",
            EventKind::Horizon { .. } => "horizon",
            EventKind::NewView { .. } => "newview",
        }
    }
}

/// An event record with its assigned viewstamp.
///
/// Records are written to the communication buffer and delivered to all
/// backups in timestamp order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// The viewstamp assigned by the primary's `add` operation.
    pub vs: Viewstamp,
    /// What happened.
    pub kind: EventKind,
}

impl EventRecord {
    /// The timestamp within the record's view.
    pub fn ts(&self) -> Timestamp {
        self.vs.ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Mid, ViewId};

    fn aid() -> Aid {
        Aid { group: GroupId(1), view: ViewId::initial(Mid(0)), seq: 0 }
    }

    #[test]
    fn aid_extraction() {
        assert_eq!(EventKind::Committed { aid: aid() }.aid(), Some(aid()));
        assert_eq!(EventKind::Aborted { aid: aid() }.aid(), Some(aid()));
        let snap = crate::snapshot::Snapshot::materialize(
            Viewstamp::default(),
            &History::new(),
            &crate::gstate::GroupState::new(),
        );
        assert_eq!(
            EventKind::NewView {
                view: View::new(Mid(0), vec![]),
                history: History::new(),
                base: snap.to_ref(),
                delta: std::sync::Arc::from(Vec::new()),
            }
            .aid(),
            None
        );
    }

    #[test]
    fn names_are_distinct() {
        let kinds = [
            EventKind::Committing { aid: aid(), plist: vec![] },
            EventKind::Committed { aid: aid() },
            EventKind::OnePhaseCommitted { aid: aid() },
            EventKind::Aborted { aid: aid() },
            EventKind::Done { aid: aid() },
        ];
        let names: std::collections::BTreeSet<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
    }
}
