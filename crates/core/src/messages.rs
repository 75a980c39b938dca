//! The wire protocol: every message exchanged between cohorts.
//!
//! Messages fall into four families, mirroring the paper's structure:
//! remote calls and two-phase commit (Section 3, Figures 2 and 3),
//! queries (Section 3.4), buffer replication between a primary and its
//! backups (Section 2), and the view change protocol (Section 4,
//! Figure 5).

use crate::event::EventRecord;
use crate::pset::PSet;
use crate::snapshot::SnapDigest;
use crate::types::{Aid, CallId, GroupId, Mid, Timestamp, ViewId, Viewstamp};
use crate::view::View;
use serde::{Deserialize, Serialize};

/// The answer a cohort gives to an outcome query (Section 3.4): "we allow
/// any cohort to respond to a query whenever it knows the answer."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryOutcome {
    /// The transaction's commit decision was reached.
    Committed,
    /// The transaction aborted (including "aborted automatically" by a
    /// view change at the coordinator that led to a new primary).
    Aborted,
    /// The transaction is still running at its coordinator.
    Active,
    /// The answering cohort does not know; ask again or ask elsewhere.
    Unknown,
}

/// Why a call was refused without being executed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallRefusal {
    /// The call could not acquire its locks within the lock-wait timeout.
    LockTimeout,
    /// The module rejected the call (unknown procedure or application
    /// error).
    Application(String),
}

/// The result of a remote call carried in the reply message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallOutcome {
    /// The call completed; `result` is the procedure's return value and
    /// `pset` records "`<groupid, viewstamp>` pairs for this call and any
    /// further remote calls made in processing it" (Section 3.1).
    Ok {
        /// Procedure return value.
        result: Vec<u8>,
        /// pset entries contributed by this call.
        pset: PSet,
    },
    /// The call was refused; the client aborts the transaction.
    Refused(CallRefusal),
}

/// A protocol message.
///
/// Every message carries enough identity (viewids, aids, call ids,
/// attempt counters where needed) to be safely ignored when stale; the
/// network may lose, delay, duplicate, and reorder arbitrarily.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Message {
    // ------------------------------------------------------ remote calls
    /// Client primary → server primary: run a procedure (Figure 2 step 1).
    Call {
        /// The viewid of the server group obtained from the client's
        /// cache; the server rejects the call if it differs from its
        /// current viewid (Figure 3 step 1).
        viewid: ViewId,
        /// Unique call id "to prevent duplicate processing of a single
        /// call".
        call_id: CallId,
        /// Procedure name.
        proc: String,
        /// Procedure arguments (opaque to the protocol).
        args: Vec<u8>,
    },
    /// Server primary → client primary: the call's reply.
    CallReply {
        /// Echoes the call id for matching.
        call_id: CallId,
        /// Result or refusal.
        outcome: CallOutcome,
    },
    /// Server cohort → client primary: the call was rejected before
    /// execution because the viewid did not match (or the receiver is not
    /// an active primary). "The response to the rejected message contains
    /// information about the current viewid and primary if the cohort
    /// knows them" (Section 3.3).
    CallReject {
        /// Echoes the call id.
        call_id: CallId,
        /// The rejecting cohort's knowledge of the current view, if any.
        newer: Option<(ViewId, View)>,
    },

    // -------------------------------------------------- two-phase commit
    /// Coordinator → participant primary: phase one (Figure 2 step 1 of
    /// two-phase commit). Carries the pset "to allow each participant to
    /// determine whether it knows all events of the preparing
    /// transaction".
    Prepare {
        /// The preparing transaction.
        aid: Aid,
        /// The transaction's full pset.
        pset: PSet,
        /// The coordinator primary to reply to.
        coordinator: Mid,
    },
    /// Coordinator → the only participant primary: one-phase commit for
    /// a transaction whose pset names exactly one group other than the
    /// coordinator's (DESIGN §14). The participant checks `compatible`
    /// and decides alone: a forced committed record answered with
    /// [`Message::CommitDone`], or a refusal answered with
    /// [`Message::PrepareRefuse`]. The coordinator writes no record.
    PrepareCommit {
        /// The committing transaction.
        aid: Aid,
        /// The transaction's full pset.
        pset: PSet,
        /// The coordinator primary to answer.
        coordinator: Mid,
    },
    /// Participant → coordinator: vote yes. `read_only` indicates the
    /// participant held only read locks and need not take part in phase
    /// two.
    PrepareOk {
        /// The transaction.
        aid: Aid,
        /// The voting participant group.
        group: GroupId,
        /// Whether the transaction was read-only at this participant.
        read_only: bool,
    },
    /// Participant → coordinator: vote no (the pset was incompatible with
    /// the participant's history, i.e. a call event was lost in a view
    /// change).
    PrepareRefuse {
        /// The transaction.
        aid: Aid,
        /// The refusing participant group.
        group: GroupId,
    },
    /// Coordinator → participant: phase two commit.
    Commit {
        /// The committed transaction.
        aid: Aid,
        /// The coordinator primary to acknowledge.
        coordinator: Mid,
    },
    /// Participant → coordinator: phase two acknowledgement ("send a done
    /// message to the coordinator", Figure 3).
    CommitDone {
        /// The transaction.
        aid: Aid,
        /// The acknowledging participant group.
        group: GroupId,
    },
    /// Coordinator → participant: abort (best effort; "delivery of abort
    /// messages is not guaranteed in any case", Section 4.1).
    Abort {
        /// The aborted transaction.
        aid: Aid,
    },
    /// A cohort that is not an active primary rejects a transaction
    /// message, redirecting the sender (Section 3.3).
    Redirect {
        /// The group whose primary was sought.
        group: GroupId,
        /// The rejecting cohort's knowledge of the current view, if any.
        newer: Option<(ViewId, View)>,
    },

    // ------------------------------------------------------------ queries
    /// Ask about a transaction's outcome (Section 3.4).
    Query {
        /// The transaction in question.
        aid: Aid,
        /// Where to send the answer.
        reply_to: Mid,
    },
    /// Answer to a [`Message::Query`].
    QueryReply {
        /// The transaction.
        aid: Aid,
        /// What the answering cohort knows.
        outcome: QueryOutcome,
    },
    /// Coordinator primary → participant: the coordinator's horizon, sent
    /// with the answer to a query about a transaction below it. Every
    /// transaction of `done_below.group` ordered below `done_below` has
    /// finished at the coordinator (DESIGN §14).
    Horizon {
        /// The lowest aid the coordinator primary may still be running or
        /// finishing.
        done_below: Aid,
    },

    // --------------------------------- coordinator-server (Section 3.5)
    /// Unreplicated client → coordinator-server primary: start a
    /// transaction on the client's behalf ("The client communicates with
    /// such a server when it starts a transaction").
    ClientBegin {
        /// Client-chosen request identifier (echoed in the ack).
        req: u64,
        /// The client to answer.
        reply_to: Mid,
    },
    /// Coordinator-server → client: the transaction id assigned; "its
    /// groupid is part of the transaction's aid, so that participants
    /// know who it is."
    ClientBeginAck {
        /// Echoed request id.
        req: u64,
        /// The assigned transaction id.
        aid: Aid,
    },
    /// Client → coordinator-server: commit the transaction; the
    /// coordinator-server "carries out two-phase commit as described
    /// above on the client's behalf" using the client's collected pset.
    ClientCommit {
        /// The transaction.
        aid: Aid,
        /// The client's pset (participants derive from it).
        pset: PSet,
        /// The client to answer.
        reply_to: Mid,
    },
    /// Client → coordinator-server: abort the transaction.
    ClientAbort {
        /// The transaction.
        aid: Aid,
    },
    /// Coordinator-server → client: the final outcome of a delegated
    /// transaction.
    ClientOutcome {
        /// The transaction.
        aid: Aid,
        /// Whether the transaction committed.
        committed: bool,
    },
    /// Coordinator-server → client: liveness check while answering a
    /// query about a still-active transaction ("it would check with the
    /// client, but if no reply is forthcoming, it can abort the
    /// transaction unilaterally").
    ClientPing {
        /// The transaction in question.
        aid: Aid,
        /// Where to send the pong.
        reply_to: Mid,
    },
    /// Client → coordinator-server: the client is alive and the
    /// transaction is still wanted.
    ClientPong {
        /// The transaction.
        aid: Aid,
    },

    // ------------------------------------------------------------ probing
    /// Ask a cohort for its group's current view (the client-side cache
    /// initialization of Section 3.1: "communicates with members of the
    /// configuration to determine the current primary and viewid").
    Probe {
        /// The group being probed.
        group: GroupId,
        /// Where to send the answer.
        reply_to: Mid,
    },
    /// Answer to a [`Message::Probe`] from a cohort in an active view.
    ProbeReply {
        /// The group.
        group: GroupId,
        /// Its current viewid.
        viewid: ViewId,
        /// Its current view.
        view: View,
    },

    // ------------------------------------------- buffer replication (§2)
    /// Primary → backup: a timestamp-ordered slice of the communication
    /// buffer, starting right after what the backup last acknowledged.
    BufferSend {
        /// The view these records belong to.
        viewid: ViewId,
        /// The sending primary.
        from: Mid,
        /// Event records in timestamp order. Shared (`Arc`) so the
        /// primary can fan the same retransmission window out to every
        /// backup at a given ack watermark without re-cloning it.
        records: std::sync::Arc<[EventRecord]>,
    },
    /// Backup → primary: cumulative acknowledgement of buffer records.
    BufferAck {
        /// The view being acknowledged.
        viewid: ViewId,
        /// The acknowledging backup.
        from: Mid,
        /// All records with timestamps up to this are known.
        upto: Timestamp,
    },

    // ------------------------------------------------- failure detection
    /// Periodic liveness beacon ("Cohorts send periodic 'I'm Alive'
    /// messages to other cohorts in the configuration", Section 4).
    ImAlive {
        /// The sender.
        from: Mid,
        /// The sender's current viewid (lets peers notice divergence).
        viewid: ViewId,
    },

    // ------------------------------------------------ view change (Fig 5)
    /// Manager → all cohorts: invitation to join a new view.
    Invite {
        /// The proposed (new, unique) viewid.
        viewid: ViewId,
        /// The inviting manager.
        manager: Mid,
    },
    /// Cohort → manager: normal acceptance — the cohort is up to date and
    /// reports "its current viewstamp and an indication of whether it is
    /// the primary in the current view" (Section 4).
    AcceptNormal {
        /// The invitation being accepted.
        viewid: ViewId,
        /// The accepting cohort.
        from: Mid,
        /// The cohort's latest viewstamp.
        latest: Viewstamp,
        /// Whether the cohort is the primary of the view `latest.id`.
        was_primary: bool,
    },
    /// Cohort → manager: crashed acceptance — the cohort recovered from a
    /// crash and "has forgotten its gstate"; "this response contains only
    /// its viewid" (from stable storage).
    AcceptCrashed {
        /// The invitation being accepted.
        viewid: ViewId,
        /// The accepting cohort.
        from: Mid,
        /// The viewid last written to the cohort's stable storage.
        stable_viewid: ViewId,
    },
    /// Manager → chosen primary: "sends an 'init view' message to the new
    /// primary" (Section 4). The recipient starts the view if the viewid
    /// equals its `max_viewid`.
    InitView {
        /// The new view's id.
        viewid: ViewId,
        /// The new view's membership.
        view: View,
    },

    // ----------------------------------- snapshot state transfer (§4 +)
    /// Fetching cohort → snapshot holder: request one chunk of the
    /// snapshot named by `digest`. Sent when a newview record references
    /// a base snapshot the receiver does not hold; transfers proceed
    /// stop-and-wait, one outstanding chunk at a time.
    GetChunk {
        /// Content digest of the wanted snapshot.
        digest: SnapDigest,
        /// Zero-based chunk index being requested.
        index: u32,
        /// Where to send the chunk.
        reply_to: Mid,
    },
    /// Snapshot holder → fetching cohort: one bounded, CRC-checked chunk
    /// of a snapshot's canonical bytes. Corrupt or out-of-order chunks
    /// are dropped by the receiver's assembler; the retry timer
    /// re-requests.
    Chunk {
        /// Content digest of the snapshot the chunk belongs to.
        digest: SnapDigest,
        /// Zero-based chunk index.
        index: u32,
        /// Total number of chunks in the transfer.
        total: u32,
        /// CRC-32C of `payload`.
        crc: u32,
        /// The chunk's bytes (at most the group's configured chunk size).
        payload: Vec<u8>,
    },

    // ------------------------------------------------------- read leases
    /// Backup → primary: grant (or renew) a read lease of
    /// `CohortConfig::lease_ticks`, piggybacked on existing traffic —
    /// sent whenever an active, up-to-date backup processes a
    /// `BufferSend` or a heartbeat from its current primary. The primary
    /// serves read-only transactions locally while it holds live grants
    /// from a sub-majority of backups.
    LeaseGrant {
        /// The view the grant is valid in; the primary discards grants
        /// for any other view.
        viewid: ViewId,
        /// The granting backup.
        from: Mid,
    },
    /// Relinquishing primary → all view members: every lease it held for
    /// `viewid` is void. Broadcast when a leaseholder joins a view
    /// change; a new primary that has seen the old primary's revocation
    /// can skip the skew-adjusted lease wait.
    LeaseRevoke {
        /// The view whose leases are revoked.
        viewid: ViewId,
        /// The relinquishing (old) primary.
        from: Mid,
    },
}

impl Message {
    /// A short name for metrics and tracing.
    pub fn name(&self) -> &'static str {
        match self {
            Message::Call { .. } => "call",
            Message::CallReply { .. } => "call-reply",
            Message::CallReject { .. } => "call-reject",
            Message::Prepare { .. } => "prepare",
            Message::PrepareCommit { .. } => "prepare-commit",
            Message::PrepareOk { .. } => "prepare-ok",
            Message::PrepareRefuse { .. } => "prepare-refuse",
            Message::Commit { .. } => "commit",
            Message::CommitDone { .. } => "commit-done",
            Message::Abort { .. } => "abort",
            Message::Redirect { .. } => "redirect",
            Message::ClientBegin { .. } => "client-begin",
            Message::ClientBeginAck { .. } => "client-begin-ack",
            Message::ClientCommit { .. } => "client-commit",
            Message::ClientAbort { .. } => "client-abort",
            Message::ClientOutcome { .. } => "client-outcome",
            Message::ClientPing { .. } => "client-ping",
            Message::ClientPong { .. } => "client-pong",
            Message::Query { .. } => "query",
            Message::QueryReply { .. } => "query-reply",
            Message::Horizon { .. } => "horizon",
            Message::Probe { .. } => "probe",
            Message::ProbeReply { .. } => "probe-reply",
            Message::BufferSend { .. } => "buffer-send",
            Message::BufferAck { .. } => "buffer-ack",
            Message::ImAlive { .. } => "im-alive",
            Message::Invite { .. } => "invite",
            Message::AcceptNormal { .. } => "accept-normal",
            Message::AcceptCrashed { .. } => "accept-crashed",
            Message::InitView { .. } => "init-view",
            Message::GetChunk { .. } => "get-chunk",
            Message::Chunk { .. } => "chunk",
            Message::LeaseGrant { .. } => "lease-grant",
            Message::LeaseRevoke { .. } => "lease-revoke",
        }
    }

    /// Whether this message is part of the view change protocol.
    pub fn is_view_change(&self) -> bool {
        matches!(
            self,
            Message::Invite { .. }
                | Message::AcceptNormal { .. }
                | Message::AcceptCrashed { .. }
                | Message::InitView { .. }
        )
    }

    /// Whether this message is background replication traffic (buffer
    /// streaming, heartbeats, snapshot state transfer, or a horizon that
    /// lets a participant forget finished transactions) rather than
    /// foreground request traffic.
    pub fn is_background(&self) -> bool {
        matches!(
            self,
            Message::BufferSend { .. }
                | Message::Horizon { .. }
                | Message::BufferAck { .. }
                | Message::ImAlive { .. }
                | Message::GetChunk { .. }
                | Message::Chunk { .. }
                | Message::LeaseGrant { .. }
                | Message::LeaseRevoke { .. }
        )
    }

    /// A rough wire-size estimate in bytes, used by the experiments to
    /// compare information flow across replication schemes (E9).
    pub fn wire_size(&self) -> usize {
        const HDR: usize = 16; // message tag + framing
        const ID: usize = 8;
        const VIEWID: usize = 16;
        const VS: usize = 24;
        const AID: usize = 32;
        match self {
            Message::Call { proc, args, .. } => HDR + VIEWID + AID + ID + proc.len() + args.len(),
            Message::CallReply { outcome, .. } => {
                HDR + AID
                    + ID
                    + match outcome {
                        CallOutcome::Ok { result, pset } => result.len() + pset.wire_size(),
                        CallOutcome::Refused(_) => 16,
                    }
            }
            Message::CallReject { .. } => HDR + AID + ID + VIEWID,
            Message::Prepare { pset, .. } | Message::PrepareCommit { pset, .. } => {
                HDR + AID + ID + pset.wire_size()
            }
            Message::PrepareOk { .. } | Message::PrepareRefuse { .. } => HDR + AID + ID + 1,
            Message::Commit { .. } | Message::Abort { .. } => HDR + AID + ID,
            Message::CommitDone { .. } => HDR + AID + ID,
            Message::Redirect { .. } => HDR + ID + VIEWID,
            Message::Query { .. } | Message::QueryReply { .. } => HDR + AID + ID,
            Message::Horizon { .. } => HDR + AID,
            Message::ClientBegin { .. } | Message::ClientBeginAck { .. } => HDR + AID + ID,
            Message::ClientCommit { pset, .. } => HDR + AID + ID + pset.wire_size(),
            Message::ClientAbort { .. }
            | Message::ClientOutcome { .. }
            | Message::ClientPing { .. }
            | Message::ClientPong { .. } => HDR + AID + ID,
            Message::Probe { .. } => HDR + ID + ID,
            Message::ProbeReply { view, .. } => HDR + ID + VIEWID + 8 * view.len(),
            Message::BufferSend { records, .. } => {
                HDR + VIEWID
                    + ID
                    + records
                        .iter()
                        .map(|_r| VS + 64) // record header + typical payload
                        .sum::<usize>()
            }
            Message::BufferAck { .. } => HDR + VIEWID + ID + 8,
            Message::ImAlive { .. } => HDR + ID + VIEWID,
            Message::Invite { .. } => HDR + VIEWID + ID,
            Message::AcceptNormal { .. } => HDR + VIEWID + ID + VS + 1,
            Message::AcceptCrashed { .. } => HDR + VIEWID + ID + VIEWID,
            Message::InitView { view, .. } => HDR + VIEWID + 8 * view.len(),
            Message::GetChunk { .. } => HDR + 16 + ID + ID,
            Message::Chunk { payload, .. } => HDR + 16 + 3 * ID + payload.len(),
            Message::LeaseGrant { .. } | Message::LeaseRevoke { .. } => HDR + VIEWID + ID,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Mid;

    fn aid() -> Aid {
        Aid { group: GroupId(1), view: ViewId::initial(Mid(0)), seq: 0 }
    }

    #[test]
    fn names_are_unique() {
        let msgs: Vec<Message> = vec![
            Message::Call {
                viewid: ViewId::initial(Mid(0)),
                call_id: CallId { aid: aid(), seq: 0 },
                proc: "p".into(),
                args: vec![],
            },
            Message::Abort { aid: aid() },
            Message::Query { aid: aid(), reply_to: Mid(0) },
            Message::Horizon { done_below: aid() },
            Message::ImAlive { from: Mid(0), viewid: ViewId::initial(Mid(0)) },
            Message::Invite { viewid: ViewId::initial(Mid(0)), manager: Mid(0) },
            Message::LeaseGrant { viewid: ViewId::initial(Mid(0)), from: Mid(1) },
            Message::LeaseRevoke { viewid: ViewId::initial(Mid(0)), from: Mid(0) },
        ];
        let names: std::collections::BTreeSet<_> = msgs.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), msgs.len());
    }

    #[test]
    fn classification() {
        let invite = Message::Invite { viewid: ViewId::initial(Mid(0)), manager: Mid(0) };
        assert!(invite.is_view_change());
        assert!(!invite.is_background());
        let hb = Message::ImAlive { from: Mid(0), viewid: ViewId::initial(Mid(0)) };
        assert!(hb.is_background());
        assert!(!hb.is_view_change());
        let abort = Message::Abort { aid: aid() };
        assert!(!abort.is_background());
        assert!(!abort.is_view_change());
        let chunk = Message::GetChunk { digest: SnapDigest::of(b"s"), index: 0, reply_to: Mid(1) };
        assert!(chunk.is_background());
        assert!(!chunk.is_view_change());
        let grant = Message::LeaseGrant { viewid: ViewId::initial(Mid(0)), from: Mid(1) };
        assert!(grant.is_background());
        assert!(!grant.is_view_change());
        let revoke = Message::LeaseRevoke { viewid: ViewId::initial(Mid(0)), from: Mid(0) };
        assert!(revoke.is_background());
        assert!(!revoke.is_view_change());
        let horizon = Message::Horizon { done_below: aid() };
        assert!(horizon.is_background());
        assert!(!horizon.is_view_change());
    }

    #[test]
    fn wire_size_scales_with_payload() {
        let small = Message::Call {
            viewid: ViewId::initial(Mid(0)),
            call_id: CallId { aid: aid(), seq: 0 },
            proc: "p".into(),
            args: vec![0; 10],
        };
        let big = Message::Call {
            viewid: ViewId::initial(Mid(0)),
            call_id: CallId { aid: aid(), seq: 0 },
            proc: "p".into(),
            args: vec![0; 1000],
        };
        assert!(big.wire_size() > small.wire_size());
    }
}
