//! The cohort: a single replica of a module group, implementing the full
//! protocol of the paper as a deterministic, sans-I/O state machine.
//!
//! A cohort is driven entirely by three inputs — messages
//! ([`Cohort::on_message`]), timers ([`Cohort::on_timer`]), and client
//! transaction requests ([`Cohort::begin_transaction`]) — and responds
//! with a list of [`Effect`]s (messages to send, timers to arm,
//! transaction outcomes, observability events). Both the deterministic
//! simulator and the threaded live runtime execute the same state machine.
//!
//! The state follows Figure 4 of the paper: status, gstate, up-to-date
//! flag, configuration, mid, groupid, current viewid/view, history,
//! max-viewid, timestamp generator, and communication buffer. The
//! timestamp generator and buffer live in [`CommBuffer`]; lock state
//! (Figure 1's `lockers`) lives in [`LockTable`].

pub(crate) mod calls;
mod client;
mod coord_server;
mod server;
mod view_change;

pub use calls::{call_op_index, call_seq};
pub use client::{AbortReason, CallOp, TxnOutcome};
pub use view_change::{formation_possible, Acceptance};

use crate::buffer::CommBuffer;
use crate::config::CohortConfig;
use crate::durable::{Checkpoint, DurableEvent, RecoveredState};
use crate::event::{EventKind, EventRecord};
use crate::gstate::{GroupState, ObjectAccess};
use crate::history::History;
use crate::lease::LeaseHolder;
use crate::locks::LockTable;
use crate::messages::{Message, QueryOutcome};
use crate::module::Module;
use crate::snapshot::{SnapDigest, Snapshot, SnapshotRef};
use crate::types::{Aid, CallId, GroupId, Mid, Tick, Timestamp, ViewId, Viewstamp};
use crate::view::{Configuration, View};
use calls::Directory;
use client::CoordTxn;
use std::collections::{BTreeMap, BTreeSet};
use view_change::VcState;

/// The cohort status of Figure 1: "active" cohorts participate in
/// transaction processing; the other two statuses belong to the view
/// change algorithm (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Participating in transaction processing.
    Active,
    /// Running the view change algorithm as its manager.
    ViewManager,
    /// Accepted an invitation; awaiting the new view.
    Underling,
}

impl Status {
    /// Stable lowercase name, used by trace exporters.
    pub fn name(&self) -> &'static str {
        match self {
            Status::Active => "active",
            Status::ViewManager => "view-manager",
            Status::Underling => "underling",
        }
    }
}

/// A timer the cohort asked its runtime to arm. Timers are never
/// cancelled; each carries enough identity (viewids, call ids, attempt
/// counters) for the handler to recognize and ignore stale firings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Timer {
    /// Periodic: send "I'm alive" messages, check for silent view members,
    /// sweep stale transactions.
    Heartbeat,
    /// Periodic while primary: stream the communication buffer to lagging
    /// backups in background mode (Section 2).
    BufferFlush,
    /// Client (a replicated client primary or an unreplicated agent): a
    /// remote call has not been answered.
    CallRetry {
        /// The outstanding call.
        call_id: CallId,
        /// How many sends have occurred.
        attempt: u32,
    },
    /// Coordinator: a prepare round has not completed.
    PrepareRetry {
        /// The preparing transaction.
        aid: Aid,
        /// How many rounds have been sent.
        attempt: u32,
    },
    /// Coordinator: retransmit commit messages until all participants
    /// acknowledge (phase two runs in background).
    CommitRetry {
        /// The committed transaction.
        aid: Aid,
        /// How many commit rounds have been sent.
        attempt: u32,
    },
    /// Primary: a force has been outstanding too long; if still pending,
    /// the force is abandoned and a view change begins (Section 3,
    /// footnote 1).
    ForceCheck {
        /// The view in which the force was issued.
        viewid: ViewId,
        /// The forced timestamp.
        ts: Timestamp,
    },
    /// Server: a parked call has waited too long for locks.
    LockWait {
        /// The parked call.
        call_id: CallId,
    },
    /// Participant: periodically query the coordinator group about an
    /// unresolved prepared transaction (Section 3.4).
    QueryTick {
        /// The unresolved transaction.
        aid: Aid,
    },
    /// View manager: stop waiting for invitation responses.
    InviteTimeout {
        /// The proposed view.
        viewid: ViewId,
    },
    /// Underling: the new view never arrived; become a manager.
    UnderlingTimeout {
        /// The awaited view.
        viewid: ViewId,
    },
    /// View manager: retry view formation after a failed attempt.
    ManagerRetry {
        /// The viewid of the failed attempt.
        viewid: ViewId,
    },
    /// Coordinator-server: a pinged client has not answered; abort its
    /// transaction unilaterally (Section 3.5).
    ClientPingTimeout {
        /// The pinged transaction.
        aid: Aid,
    },
    /// Unreplicated client agent: re-send a `ClientBegin`.
    AgentBeginRetry {
        /// The agent-local request id.
        req: u64,
        /// Sends so far.
        attempt: u32,
    },
    /// Unreplicated client agent: re-send a `ClientCommit`.
    AgentCommitRetry {
        /// The committing transaction.
        aid: Aid,
        /// Sends so far.
        attempt: u32,
    },
    /// Fetching cohort: a requested snapshot chunk has not arrived;
    /// re-request it from the transfer source.
    ChunkRetry {
        /// The snapshot being fetched.
        digest: SnapDigest,
        /// The chunk index that was outstanding when the timer was armed.
        index: u32,
        /// The fetch's attempt counter when the timer was armed (stale
        /// firings are recognized by a counter mismatch).
        attempt: u32,
    },
    /// Leaseholding primary: a backup's grant reaches the end of its
    /// `lease_ticks` validity. Stale firings (the grant was renewed in
    /// the meantime) are recognized by a sequence mismatch.
    LeaseExpiry {
        /// The granting backup.
        backup: Mid,
        /// The grant's sequence number when the timer was armed.
        seq: u64,
    },
    /// New primary: the skew-adjusted maximum outstanding lease of the
    /// previous primary has been waited out; deferred prepare/commit
    /// traffic can now be processed.
    LeaseWait {
        /// The view whose start was gated on the wait.
        viewid: ViewId,
    },
}

impl Timer {
    /// Stable lowercase name of the timer kind, used by trace
    /// exporters.
    pub fn name(&self) -> &'static str {
        match self {
            Timer::Heartbeat => "heartbeat",
            Timer::BufferFlush => "buffer-flush",
            Timer::CallRetry { .. } => "call-retry",
            Timer::PrepareRetry { .. } => "prepare-retry",
            Timer::CommitRetry { .. } => "commit-retry",
            Timer::ForceCheck { .. } => "force-check",
            Timer::LockWait { .. } => "lock-wait",
            Timer::QueryTick { .. } => "query-tick",
            Timer::InviteTimeout { .. } => "invite-timeout",
            Timer::UnderlingTimeout { .. } => "underling-timeout",
            Timer::ManagerRetry { .. } => "manager-retry",
            Timer::ClientPingTimeout { .. } => "client-ping-timeout",
            Timer::AgentBeginRetry { .. } => "agent-begin-retry",
            Timer::AgentCommitRetry { .. } => "agent-commit-retry",
            Timer::ChunkRetry { .. } => "chunk-retry",
            Timer::LeaseExpiry { .. } => "lease-expiry",
            Timer::LeaseWait { .. } => "lease-wait",
        }
    }
}

/// Per-timer-kind salt constants for retry jitter: distinct timers of
/// one cohort or agent must not share a jitter draw, or their retries
/// would collide instead of spreading.
pub(crate) mod retry_kind {
    use crate::types::Mid;

    /// The jitter salt for a `kind` timer armed by `mid`: mixing in the
    /// mid makes callers retrying the same thing desynchronize.
    pub(crate) fn salt(mid: Mid, kind: u64) -> u64 {
        mid.0.rotate_left(16) ^ kind
    }

    /// Call retries, at a client primary or an agent alike (both run
    /// the call path of `calls.rs`).
    pub(crate) const CALL: u64 = 1;
    /// Coordinator prepare rounds.
    pub(crate) const PREPARE: u64 = 2;
    /// Coordinator commit (phase two) rounds.
    pub(crate) const COMMIT: u64 = 3;
    /// View-manager formation retries.
    pub(crate) const MANAGER: u64 = 4;
    /// Agent `ClientBegin` retries.
    pub(crate) const AGENT_BEGIN: u64 = 5;
    /// Agent `ClientCommit` retries.
    pub(crate) const AGENT_COMMIT: u64 = 7;
    /// Snapshot chunk re-requests during state transfer.
    pub(crate) const CHUNK: u64 = 8;
}

/// Structured observability events, emitted so harnesses can check
/// invariants (one-copy serializability, committed-transaction
/// durability) and measure the experiments without groveling through
/// internal state. Runtimes may ignore them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observation {
    /// A transaction's effects were installed at this cohort.
    TxnCommitted {
        /// The group installing.
        group: GroupId,
        /// This cohort.
        mid: Mid,
        /// The transaction.
        aid: Aid,
        /// The installed accesses, in event order.
        accesses: Vec<ObjectAccess>,
        /// The outcome record's viewstamp: the commit counts only if the
        /// group's history keeps covering it (a one-phase commit record
        /// lost in a view change before its force never committed).
        vs: Viewstamp,
    },
    /// A transaction aborted at this cohort.
    TxnAborted {
        /// The group.
        group: GroupId,
        /// This cohort.
        mid: Mid,
        /// The transaction.
        aid: Aid,
    },
    /// This cohort entered a new active view.
    ViewChanged {
        /// The group.
        group: GroupId,
        /// This cohort.
        mid: Mid,
        /// The new viewid.
        viewid: ViewId,
        /// The new view.
        view: View,
        /// Whether this cohort is the new primary.
        is_primary: bool,
    },
    /// A force could not reach a sub-majority and was abandoned; a view
    /// change follows.
    ForceAbandoned {
        /// The group.
        group: GroupId,
        /// This cohort (the abandoning primary).
        mid: Mid,
        /// The view whose buffer was abandoned.
        viewid: ViewId,
    },
    /// A prepare was processed; `waited` records whether the primary had
    /// to wait for a force (false = the Section 3.7 fast path where the
    /// needed completed-call records were already at a sub-majority).
    PrepareProcessed {
        /// The participant group.
        group: GroupId,
        /// The transaction.
        aid: Aid,
        /// Whether the force had to wait.
        waited: bool,
    },
    /// This cohort started acting as a view manager.
    ViewChangeStarted {
        /// The group.
        group: GroupId,
        /// This cohort.
        mid: Mid,
        /// The proposed viewid.
        viewid: ViewId,
    },
    /// This cohort moved between view-management states (Figure 1's
    /// `status`). Every transition flows through here, so harnesses can
    /// reconstruct the full state machine timeline.
    StatusChanged {
        /// The group.
        group: GroupId,
        /// This cohort.
        mid: Mid,
        /// The status before the transition.
        from: Status,
        /// The status after.
        to: Status,
    },
    /// The primary registered a force that could not complete
    /// immediately and now waits on the sub-majority watermark
    /// (Section 3: `force_to`).
    ForceBegan {
        /// The group.
        group: GroupId,
        /// The forcing primary.
        mid: Mid,
        /// The forced viewstamp.
        vs: Viewstamp,
    },
    /// Pending forces completed: a backup acknowledgement moved the
    /// sub-majority watermark past their timestamps.
    ForceFired {
        /// The group.
        group: GroupId,
        /// The primary.
        mid: Mid,
        /// The watermark that satisfied the forces.
        vs: Viewstamp,
        /// How many pending forces fired on this acknowledgement.
        fired: u64,
    },
    /// The primary streamed its buffer to lagging backups, sharing one
    /// record-window clone per distinct ack watermark. Emitted only
    /// when sharing actually saved clones, to keep observation volume
    /// proportional to useful work.
    BufferFlushed {
        /// The group.
        group: GroupId,
        /// The flushing primary.
        mid: Mid,
        /// `BufferSend` messages produced by this flush.
        sends: u64,
        /// Clones avoided versus the old one-clone-per-backup scheme.
        clones_saved: u64,
    },
    /// The cohort materialized a content-addressed snapshot of its state
    /// (at a timestamp boundary, or ad hoc when starting a view with no
    /// stable snapshot).
    SnapshotTaken {
        /// The group.
        group: GroupId,
        /// This cohort.
        mid: Mid,
        /// The last viewstamp reflected in the snapshot.
        vs: Viewstamp,
        /// Size of the snapshot's canonical encoding.
        bytes: u64,
    },
    /// A chunked state transfer completed and the fetched snapshot (plus
    /// the newview delta) was installed.
    SnapshotInstalled {
        /// The group.
        group: GroupId,
        /// The fetching cohort.
        mid: Mid,
        /// How many chunks the transfer comprised.
        chunks: u32,
        /// Ticks from the first chunk request to installation.
        ticks: Tick,
    },
    /// An incoming snapshot chunk failed its CRC and was dropped; the
    /// retry timer will re-request it.
    ChunkCorruptDropped {
        /// The group.
        group: GroupId,
        /// The fetching cohort.
        mid: Mid,
    },
    /// A chunk request went unanswered and was retransmitted.
    ChunkRetried {
        /// The group.
        group: GroupId,
        /// The fetching cohort.
        mid: Mid,
    },
    /// Status-map entries were garbage-collected by a *done* record:
    /// phase two finished, so the transaction's outcome can never again
    /// be queried by a participant that took part in it (DESIGN §14).
    StatusesGced {
        /// The group.
        group: GroupId,
        /// This cohort.
        mid: Mid,
        /// Entries removed.
        n: u64,
    },
    /// A read-only transaction was served locally by a leaseholding
    /// primary: no event record, no persist, no force. The accesses
    /// (with the versions read) are what the stale-read oracle checks
    /// against the committed version chain at this observation's
    /// position in the stream.
    LeasedRead {
        /// The group.
        group: GroupId,
        /// The serving primary.
        mid: Mid,
        /// The transaction id assigned to the read.
        aid: Aid,
        /// The submitter's request id (for latency accounting).
        req_id: u64,
        /// The read accesses, with the versions observed.
        accesses: Vec<ObjectAccess>,
    },
    /// A backup renewed the primary's read lease (the primary already
    /// held a live grant from it).
    LeaseRenewed {
        /// The group.
        group: GroupId,
        /// The renewing primary (the grant receiver).
        mid: Mid,
    },
    /// A read-only submission could not take the leased fast path (no
    /// sub-majority of live grants, a lease wait in progress, or a lock
    /// conflict) and fell back to the replicated path.
    LeaseReadRejected {
        /// The group.
        group: GroupId,
        /// The rejecting primary.
        mid: Mid,
    },
    /// A new primary began waiting out the previous primary's maximum
    /// possible lease (skew-adjusted) before accepting prepares and
    /// commits.
    LeaseWaitStarted {
        /// The group.
        group: GroupId,
        /// The waiting new primary.
        mid: Mid,
        /// The view whose start is gated.
        viewid: ViewId,
        /// The wait in ticks (`lease_wait_ticks`).
        wait: Tick,
    },
}

/// An output of the state machine for its runtime to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Send `msg` to the cohort (or client) addressed by `to`.
    Send {
        /// Destination mid.
        to: Mid,
        /// The message.
        msg: Message,
    },
    /// Arm a timer to fire `after` ticks from now.
    SetTimer {
        /// Delay in ticks.
        after: Tick,
        /// The timer payload, returned verbatim to
        /// [`Cohort::on_timer`].
        timer: Timer,
    },
    /// A transaction submitted via [`Cohort::begin_transaction`]
    /// finished.
    TxnResult {
        /// The request id supplied by the submitter.
        req_id: u64,
        /// The transaction id, when one was assigned (absent only for
        /// submissions rejected before a transaction was created).
        aid: Option<Aid>,
        /// What happened.
        outcome: TxnOutcome,
    },
    /// An observability event (see [`Observation`]).
    Observe(Observation),
    /// Hand `event` to the stable store, if the runtime keeps one.
    ///
    /// Ordering contract: the cohort pushes a `Persist` *before* any
    /// [`Effect::Send`] that depends on it (a record persists before the
    /// acknowledgement that makes it count toward a sub-majority), and
    /// runtimes execute effects in list order. Runtimes without stable
    /// storage may ignore persist effects entirely — the protocol then
    /// degrades to the paper's viewid-only durability.
    Persist(DurableEvent),
}

/// The reasons a force can be pending, i.e. the continuations to run when
/// the sub-majority acknowledgement watermark passes the forced
/// timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ForceReason {
    /// Participant: vote yes on a prepare once the transaction's
    /// completed-call records are at a sub-majority (Figure 3).
    PrepareVote { aid: Aid, coordinator: Mid, read_only: bool },
    /// Participant: acknowledge a commit once the committed record is at a
    /// sub-majority (Figure 3).
    CommitAck { aid: Aid, coordinator: Mid },
    /// The only participant: its one-phase committed record is at a
    /// sub-majority — the commit point. Release the locks and answer.
    /// A `read_only` transaction forced only its call records: it adds
    /// the committed record now, unforced, and answers with Figure 3's
    /// read-only vote, so the coordinator's forced committing record is
    /// its commit point.
    OnePhaseCommit { aid: Aid, coordinator: Mid, read_only: bool },
    /// Coordinator: the committing record reached a sub-majority — the
    /// commit point (Figure 2).
    CoordCommitted { aid: Aid },
    /// Server: reply to a call only after its completed-call record is at
    /// a sub-majority (the `eager_force_calls` mode of Section 6).
    CallReply { call_id: CallId, to: Mid },
}

/// A chunked snapshot fetch in progress: this cohort received a newview
/// record referencing a base snapshot it does not hold, and is pulling
/// the snapshot bytes from the record's sender one chunk at a time.
/// Installation of the new view is deferred until the transfer
/// completes (no ack is sent, so the primary keeps retransmitting and
/// the view-change timeouts stay armed as the escape hatch).
#[derive(Debug)]
pub(crate) struct FetchState {
    /// Reassembles the snapshot bytes; tracks the digest and next index.
    pub(crate) asm: vsr_snap::Assembler,
    /// Who to request chunks from (the cohort that sent the newview).
    pub(crate) source: Mid,
    /// When the fetch began (for transfer-duration observability).
    pub(crate) started_at: Tick,
    /// Retransmissions so far; drives backoff and the give-up cap.
    pub(crate) attempts: u32,
    /// The deferred installation.
    pub(crate) pending: PendingInstall,
}

/// The newview record whose installation awaits a snapshot fetch.
#[derive(Debug)]
pub(crate) struct PendingInstall {
    /// The view the record opens.
    pub(crate) viewid: ViewId,
    /// The full newview event record (kind is always
    /// `EventKind::NewView`); kept whole so completion can persist,
    /// advance, and acknowledge it exactly as the immediate path does.
    pub(crate) record: EventRecord,
}

/// How many fetch attempts (initial request + retries of any one chunk)
/// before a transfer is abandoned and the ordinary view-change timeouts
/// take over.
const MAX_CHUNK_ATTEMPTS: u32 = 10;

/// How many recent snapshots a cohort retains for serving chunks (older
/// ones are dropped; a peer fetching a dropped snapshot falls back to
/// the view-change timeouts and catches the next newview).
const SNAP_RETAIN: usize = 2;

/// Bound on the lease-wait deferral queue; the wait is short (a few
/// lease durations) so overflow means a retry storm — dropping is safe,
/// the senders' retry timers re-deliver.
const MAX_LEASE_DEFERRED: usize = 256;

/// A call parked on a lock conflict, retried when locks are released.
#[derive(Debug, Clone)]
pub(crate) struct WaitingCall {
    pub(crate) from: Mid,
    pub(crate) viewid: ViewId,
    pub(crate) call_id: CallId,
    pub(crate) proc: String,
    pub(crate) args: Vec<u8>,
}

/// Everything needed to construct a cohort.
///
/// Not `Debug` because it owns the boxed application [`Module`].
#[expect(missing_debug_implementations, reason = "owns the boxed application Module")]
pub struct CohortParams {
    /// Protocol tuning knobs.
    pub cfg: CohortConfig,
    /// This cohort's mid.
    pub mid: Mid,
    /// The group's configuration (must contain `mid`).
    pub configuration: Configuration,
    /// The initial primary (bootstrap view; must be a configuration
    /// member).
    pub initial_primary: Mid,
    /// The location directory: configurations of every group this cohort
    /// may call (Section 3.1's location server, modeled as an immutable
    /// map since configurations never change; *primary* discovery remains
    /// dynamic, via probe messages).
    pub peers: BTreeMap<GroupId, Configuration>,
    /// The application module replicated by this group.
    pub module: Box<dyn Module>,
}

/// A replica of a module group (Figure 4's cohort state plus the volatile
/// coordinator, server, and view change bookkeeping).
pub struct Cohort {
    pub(crate) cfg: CohortConfig,
    pub(crate) mid: Mid,
    pub(crate) group: GroupId,
    pub(crate) configuration: Configuration,
    /// The location directory and the client-side view cache.
    pub(crate) dir: Directory,
    pub(crate) module: Box<dyn Module>,

    // --- stable storage (survives crashes; Section 4.2) ---
    pub(crate) stable_viewid: ViewId,

    // --- volatile protocol state (Figure 4) ---
    pub(crate) status: Status,
    pub(crate) up_to_date: bool,
    pub(crate) cur_viewid: ViewId,
    pub(crate) cur_view: View,
    pub(crate) max_viewid: ViewId,
    pub(crate) history: History,
    pub(crate) gstate: GroupState,
    pub(crate) locks: LockTable,
    pub(crate) buffer: Option<CommBuffer<ForceReason>>,

    // --- failure detection ---
    pub(crate) last_heard: BTreeMap<Mid, Tick>,

    // --- server-side volatile state ---
    pub(crate) waiting_calls: Vec<WaitingCall>,
    pub(crate) prepared: BTreeSet<Aid>,
    pub(crate) last_activity: BTreeMap<Aid, Tick>,
    /// Per coordinator group, the gap in the finished set last seen and
    /// since when (see [`GroupState::first_gap`]); a gap that outlives
    /// `stale_txn_timeout` is asked about.
    pub(crate) finished_gaps: BTreeMap<GroupId, (Aid, Tick)>,

    // --- coordinator-side volatile state ---
    pub(crate) coord: BTreeMap<Aid, CoordTxn>,
    /// Delegated transactions from unreplicated clients (Section 3.5):
    /// aid -> client mid, from begin until the commit decision.
    pub(crate) delegated: BTreeMap<Aid, Mid>,
    /// Delegated transactions with an outstanding client liveness ping.
    pub(crate) ping_pending: BTreeSet<Aid>,
    pub(crate) resumed: BTreeMap<Aid, BTreeSet<GroupId>>,
    /// One-phase commits this cohort sent as primary and was deposed
    /// before the participant answered (DESIGN §14): it keeps asking the
    /// participant for up to `prepare_attempts` more rounds, counted
    /// here, so the submitter hears the participant's decision rather
    /// than `Unresolved`.
    pub(crate) settling: BTreeMap<Aid, (CoordTxn, u32)>,
    pub(crate) next_txn_seq: u64,

    // --- snapshots & state transfer ---
    /// Recently materialized (or fetched) snapshots, oldest first;
    /// bounded by [`SNAP_RETAIN`]. Served to peers via `GetChunk`.
    pub(crate) snaps: Vec<std::sync::Arc<Snapshot>>,
    /// The newest stable snapshot reference — what this cohort's newview
    /// records anchor their deltas on when it becomes primary.
    pub(crate) last_snap: Option<SnapshotRef>,
    /// Event records applied since `last_snap` (the would-be newview
    /// delta). Maintained only when `snapshot_interval > 0`; may span
    /// views. Never contains newview records.
    pub(crate) delta_log: Vec<EventRecord>,
    /// An in-progress chunked snapshot fetch, if any.
    pub(crate) fetch: Option<FetchState>,

    // --- durability bookkeeping ---
    /// Event records applied since the last checkpoint persist effect;
    /// drives [`CohortConfig::checkpoint_interval`].
    pub(crate) records_since_checkpoint: u64,
    /// How many log records the last [`Cohort::recover`] replayed (0 for
    /// a paper-minimum recovery); read by harness metrics.
    pub(crate) records_replayed: u64,

    // --- pipelined handler passes ---
    /// Whether a harness-driven handler pass is open (see
    /// [`Cohort::begin_pass`]). While open, the immediate buffer
    /// flushes that `primary_add`/`primary_force` would emit are
    /// coalesced into one flush at [`Cohort::end_pass`].
    pub(crate) pass_active: bool,
    /// A flush was requested during the open pass and is owed at
    /// `end_pass`.
    pub(crate) flush_deferred: bool,

    // --- view change volatile state ---
    pub(crate) vc: VcState,
    /// Heartbeats spent deferring to a higher-priority manager candidate
    /// (Section 4.1's churn-avoidance policy).
    pub(crate) manager_deferrals: u32,
    /// Consecutive failed view formations; drives the manager-retry
    /// backoff. Reset whenever the cohort rejoins an active view.
    pub(crate) manager_attempts: u32,

    // --- read leases ---
    /// Primary-side table of live lease grants (empty unless this cohort
    /// is an active primary with `lease_ticks > 0`).
    pub(crate) lease: LeaseHolder,
    /// Highest viewid each peer has explicitly revoked its leases for
    /// (from `LeaseRevoke` broadcasts). Lets a new primary skip the
    /// skew-adjusted wait when the old primary relinquished gracefully.
    pub(crate) lease_revokes: BTreeMap<Mid, ViewId>,
    /// When `Some`, this new primary is waiting out the previous
    /// primary's maximum possible lease before processing commit-point
    /// traffic (see [`LeaseWaitState`]).
    pub(crate) lease_wait: Option<LeaseWaitState>,
    /// Prepare/commit/query-reply messages queued during a lease wait,
    /// replayed in arrival order when the wait ends. Bounded; overflow
    /// is dropped (senders retry).
    pub(crate) lease_deferred: Vec<Message>,
}

/// A new primary's wait on the previous primary's outstanding lease:
/// commit-point traffic (prepares, commits, outcome replies) is deferred
/// until either `Timer::LeaseWait` fires or the previous primary's
/// explicit `LeaseRevoke` arrives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LeaseWaitState {
    /// The view whose start is gated.
    pub(crate) viewid: ViewId,
    /// The primary of the latest previous active view — the only cohort
    /// that could still hold a lease.
    pub(crate) prev_primary: Mid,
    /// That previous view's id; a revocation covering it ends the wait.
    pub(crate) prev_viewid: ViewId,
}

impl std::fmt::Debug for Cohort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cohort")
            .field("mid", &self.mid)
            .field("group", &self.group)
            .field("status", &self.status)
            .field("cur_viewid", &self.cur_viewid)
            .field("up_to_date", &self.up_to_date)
            .finish_non_exhaustive()
    }
}

impl Cohort {
    /// Create a cohort at group-creation time, active in the bootstrap
    /// view (all configuration members, `initial_primary` as primary).
    ///
    /// # Panics
    ///
    /// Panics if `mid` or `initial_primary` is not a configuration member.
    pub fn new(params: CohortParams) -> Self {
        let CohortParams { cfg, mid, configuration, initial_primary, peers, module } = params;
        assert!(configuration.contains(mid), "cohort {mid} not in configuration");
        assert!(
            configuration.contains(initial_primary),
            "initial primary {initial_primary} not in configuration"
        );
        let group = configuration.group();
        let viewid = ViewId::initial(initial_primary);
        let backups: Vec<Mid> =
            configuration.members().iter().copied().filter(|&m| m != initial_primary).collect();
        let view = View::new(initial_primary, backups);
        let mut history = History::new();
        history.open_view(viewid);
        let gstate = GroupState::with_objects(module.initial_objects());
        let buffer = (mid == initial_primary)
            .then(|| CommBuffer::new(viewid, view.backups(), configuration.sub_majority()));
        Cohort {
            cfg,
            mid,
            group,
            configuration,
            dir: Directory::new(mid, peers),
            module,
            stable_viewid: viewid,
            status: Status::Active,
            up_to_date: true,
            cur_viewid: viewid,
            cur_view: view,
            max_viewid: viewid,
            history,
            gstate,
            locks: LockTable::new(),
            buffer,
            last_heard: BTreeMap::new(),
            waiting_calls: Vec::new(),
            prepared: BTreeSet::new(),
            last_activity: BTreeMap::new(),
            finished_gaps: BTreeMap::new(),
            coord: BTreeMap::new(),
            delegated: BTreeMap::new(),
            ping_pending: BTreeSet::new(),
            resumed: BTreeMap::new(),
            settling: BTreeMap::new(),
            next_txn_seq: 0,
            snaps: Vec::new(),
            last_snap: None,
            delta_log: Vec::new(),
            fetch: None,
            records_since_checkpoint: 0,
            records_replayed: 0,
            pass_active: false,
            flush_deferred: false,
            vc: VcState::None,
            manager_deferrals: 0,
            manager_attempts: 0,
            lease: LeaseHolder::new(),
            lease_revokes: BTreeMap::new(),
            lease_wait: None,
            lease_deferred: Vec::new(),
        }
    }

    /// Re-create a cohort after a crash from whatever its stable store
    /// handed back.
    ///
    /// With the paper-minimum [`RecoveredState::viewid_only`], volatile
    /// state is gone: the cohort starts with `up_to_date = false` and
    /// status view-manager, "causing it to start a view change"
    /// (Section 4), and answers invitations with a crash-acceptance.
    ///
    /// With a *complete* recovered state (fsync-per-record store, clean
    /// scan), the checkpoint is restored and the log tail replayed
    /// through the same [`apply_gstate_record`](Self::apply_gstate_record)
    /// path the live protocol uses, after which the cohort is up to date
    /// and answers *normally* — so even a whole-group crash can re-form a
    /// view. Incomplete state (lazier fsync policies, detected
    /// corruption, or a checkpoint older than the stable viewid) is
    /// deliberately discarded: recovering partial knowledge and claiming
    /// it is current could elect a primary that lost a forced commit.
    pub fn recover(params: CohortParams, recovered: RecoveredState) -> Self {
        let mut cohort = Cohort::new_inactive(params);
        let RecoveredState { stable_viewid, checkpoint, tail, complete } = recovered;
        cohort.stable_viewid = stable_viewid;
        cohort.cur_viewid = stable_viewid;
        cohort.max_viewid = stable_viewid;
        if !complete {
            return cohort;
        }
        let Some(cp) = checkpoint else { return cohort };
        if cp.viewid < stable_viewid {
            // A newer view was entered but its checkpoint never became
            // durable; the snapshot is stale. Fail safe: viewid only.
            return cohort;
        }
        cohort.cur_viewid = cp.viewid;
        cohort.cur_view = cp.view;
        cohort.history = cp.history;
        cohort.gstate = cp.gstate;
        let mut ignored = Vec::new();
        for record in &tail {
            let Some(latest) = cohort.history.latest() else { break };
            if record.vs.id != latest.id {
                break;
            }
            if record.ts() <= latest.ts {
                continue; // already inside the checkpoint
            }
            if record.ts().0 != latest.ts.0 + 1 {
                break; // gap: trust only the contiguous prefix
            }
            if !matches!(record.kind, EventKind::NewView { .. }) {
                // Replay observations are pre-crash news; discard them.
                cohort.apply_gstate_record(record, &mut ignored);
            }
            cohort.history.advance(record.vs.id, record.ts());
            cohort.records_replayed += 1;
        }
        cohort.up_to_date = !cohort.history.is_empty();
        cohort
    }

    fn new_inactive(params: CohortParams) -> Self {
        let CohortParams { cfg, mid, configuration, peers, module, .. } = params;
        assert!(configuration.contains(mid), "cohort {mid} not in configuration");
        let group = configuration.group();
        let viewid = ViewId::initial(mid);
        Cohort {
            cfg,
            mid,
            group,
            configuration,
            dir: Directory::new(mid, peers),
            module,
            stable_viewid: viewid,
            status: Status::ViewManager,
            up_to_date: false,
            cur_viewid: viewid,
            cur_view: View::new(mid, Vec::new()),
            max_viewid: viewid,
            history: History::new(),
            gstate: GroupState::new(),
            locks: LockTable::new(),
            buffer: None,
            last_heard: BTreeMap::new(),
            waiting_calls: Vec::new(),
            prepared: BTreeSet::new(),
            last_activity: BTreeMap::new(),
            finished_gaps: BTreeMap::new(),
            coord: BTreeMap::new(),
            delegated: BTreeMap::new(),
            ping_pending: BTreeSet::new(),
            resumed: BTreeMap::new(),
            settling: BTreeMap::new(),
            next_txn_seq: 0,
            snaps: Vec::new(),
            last_snap: None,
            delta_log: Vec::new(),
            fetch: None,
            records_since_checkpoint: 0,
            records_replayed: 0,
            pass_active: false,
            flush_deferred: false,
            vc: VcState::None,
            manager_deferrals: 0,
            manager_attempts: 0,
            lease: LeaseHolder::new(),
            lease_revokes: BTreeMap::new(),
            lease_wait: None,
            lease_deferred: Vec::new(),
        }
    }

    /// Arm the initial timers; for a recovered cohort, also begin the view
    /// change. Call exactly once, right after construction.
    pub fn start(&mut self, now: Tick) -> Vec<Effect> {
        let mut out = Vec::new();
        if self.status == Status::Active && self.up_to_date {
            // The bootstrap view is entered at construction, not through
            // `start_view`, so its stable-storage write happens here —
            // otherwise a store would hold no trace of the initial view.
            out.push(Effect::Persist(DurableEvent::StableViewId(self.cur_viewid)));
            out.push(Effect::Persist(DurableEvent::Checkpoint(Checkpoint {
                viewid: self.cur_viewid,
                view: self.cur_view.clone(),
                history: self.history.clone(),
                gstate: self.gstate.clone(),
            })));
        }
        out.push(Effect::SetTimer { after: self.cfg.heartbeat_interval, timer: Timer::Heartbeat });
        if self.is_active_primary() {
            self.arm_flush(&mut out);
        }
        // Seed the failure detector for every *configuration* member,
        // not just the current view's: a recovered cohort restarts with
        // a placeholder view of itself alone, and without this grace a
        // view change it manages writes off every peer it has not heard
        // from since the restart — forming a bare-majority view that
        // excludes healthy cohorts (which then need a whole second view
        // change to rejoin, and in the meantime cannot grant leases).
        // Everyone gets one suspect_timeout to prove themselves.
        for &m in self.configuration.members() {
            if m != self.mid {
                self.last_heard.insert(m, now);
            }
        }
        if self.status == Status::ViewManager {
            self.start_view_change(now, &mut out);
        }
        out
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Backoff-and-jitter delay for retry number `attempt` of a timer of
    /// the given [`retry_kind`].
    pub(crate) fn retry_delay(&self, base: u64, attempt: u32, kind: u64) -> u64 {
        self.cfg.retry_delay(base, attempt, retry_kind::salt(self.mid, kind))
    }

    /// This cohort's mid.
    pub fn mid(&self) -> Mid {
        self.mid
    }

    /// The group this cohort replicates.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// Current status (active / view-manager / underling).
    pub fn status(&self) -> Status {
        self.status
    }

    /// The current viewid.
    pub fn cur_viewid(&self) -> ViewId {
        self.cur_viewid
    }

    /// The current view.
    pub fn cur_view(&self) -> &View {
        &self.cur_view
    }

    /// The acceptance this cohort would send in response to a
    /// view-change invitation right now: normal (with its latest
    /// viewstamp) if up to date, crash-accept otherwise. Exposed so
    /// harness liveness oracles can apply [`formation_possible`] to a
    /// group's surviving state.
    pub fn acceptance(&self) -> Acceptance {
        self.own_acceptance()
    }

    /// Whether this cohort is the active primary of its group.
    pub fn is_active_primary(&self) -> bool {
        self.status == Status::Active && self.cur_view.primary() == self.mid
    }

    /// Whether this cohort's group state is meaningful (Figure 4's
    /// `up-to-date` flag; false after crash recovery until a newview
    /// record is installed).
    pub fn is_up_to_date(&self) -> bool {
        self.up_to_date
    }

    /// The group state (read-only; for checkers and tests).
    pub fn gstate(&self) -> &GroupState {
        &self.gstate
    }

    /// The lock table (read-only; for checkers and tests).
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// The history (read-only).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The viewid last written to stable storage (what survives a crash).
    pub fn stable_viewid(&self) -> ViewId {
        self.stable_viewid
    }

    /// How many log records the constructing [`Cohort::recover`] replayed
    /// (0 for a paper-minimum viewid-only recovery). For harness metrics.
    pub fn records_replayed(&self) -> u64 {
        self.records_replayed
    }

    /// The group's configuration.
    pub fn configuration(&self) -> &Configuration {
        &self.configuration
    }

    /// Number of records currently held in the communication buffer
    /// (`None` when this cohort is not a primary). Bounded over long
    /// views because fully-acknowledged records are garbage-collected.
    pub fn buffer_len(&self) -> Option<usize> {
        self.buffer.as_ref().map(|b| b.len())
    }

    /// How many snapshots this cohort currently retains for serving
    /// chunked state transfers (bounded by the retention window).
    pub fn snapshot_count(&self) -> usize {
        self.snaps.len()
    }

    /// The newest stable snapshot reference, if one exists.
    pub fn last_snapshot(&self) -> Option<SnapshotRef> {
        self.last_snap
    }

    /// Whether a chunked snapshot fetch is currently in progress.
    pub fn fetch_in_progress(&self) -> bool {
        self.fetch.is_some()
    }

    /// The event records applied since the newest stable snapshot — the
    /// delta a newview started right now would carry instead of a full
    /// state clone. Exposed for harness assertions and the payload-size
    /// experiment (A5).
    pub fn delta_log(&self) -> &[EventRecord] {
        &self.delta_log
    }

    /// Coordinator transactions currently in flight on this cohort.
    /// The pipelined harnesses sample this into the in-flight
    /// histogram; nothing in the protocol bounds it to 1 — per-txn
    /// force reasons in the communication buffer keep interleaved
    /// timestamps correct (see DESIGN.md §15).
    pub fn inflight_txns(&self) -> usize {
        self.coord.len()
    }

    // ------------------------------------------------------------------
    // pipelined handler passes
    // ------------------------------------------------------------------

    /// Open a handler pass. Until [`end_pass`](Cohort::end_pass), the
    /// immediate `BufferSend` flushes that `primary_add` (in
    /// immediate-flush mode) and `primary_force` would emit are
    /// coalesced: the pass sets a deferred-flush flag instead, and
    /// `end_pass` emits *one* flush whose per-backup payload covers
    /// every record since that backup's ack watermark. Correct because
    /// a `BufferSend` for watermark `w` subsumes any earlier send for
    /// `w' ≥ w` — suppressing the intermediate sends is
    /// indistinguishable from message loss, which the protocol already
    /// tolerates. Harnesses that process inputs one at a time never
    /// need to call this; effects then flush exactly as before.
    pub fn begin_pass(&mut self) {
        self.pass_active = true;
    }

    /// Close the pass opened by [`begin_pass`](Cohort::begin_pass) and
    /// return the coalesced flush effects (empty when no flush was
    /// deferred or this cohort stopped being an active primary
    /// mid-pass — the buffer it would have flushed is gone).
    pub fn end_pass(&mut self) -> Vec<Effect> {
        self.pass_active = false;
        let mut out = Vec::new();
        if core::mem::take(&mut self.flush_deferred) && self.is_active_primary() {
            self.flush_buffer(&mut out);
        }
        out
    }

    // ------------------------------------------------------------------
    // input dispatch
    // ------------------------------------------------------------------

    /// Deliver a message from `from`, producing effects.
    pub fn on_message(&mut self, now: Tick, from: Mid, msg: Message) -> Vec<Effect> {
        let mut out = Vec::new();
        if from != self.mid {
            self.last_heard.insert(from, now);
        }
        // A new primary waiting out the previous primary's lease defers
        // all commit-point traffic: nothing may install a new version
        // while the old leaseholder could still be serving reads.
        if self.lease_wait.is_some()
            && matches!(
                msg,
                Message::Prepare { .. }
                    | Message::PrepareCommit { .. }
                    | Message::Commit { .. }
                    | Message::QueryReply { .. }
            )
        {
            if self.lease_deferred.len() < MAX_LEASE_DEFERRED {
                self.lease_deferred.push(msg);
            }
            return out;
        }
        match msg {
            // transaction processing — server side
            Message::Call { viewid, call_id, proc, args } => {
                self.on_call(now, from, viewid, call_id, proc, args, &mut out)
            }
            Message::Prepare { aid, pset, coordinator } => {
                self.on_prepare(now, aid, pset, coordinator, &mut out)
            }
            Message::PrepareCommit { aid, pset, coordinator } => {
                self.on_prepare_commit(now, aid, pset, coordinator, &mut out)
            }
            Message::Commit { aid, coordinator } => {
                self.on_commit(now, aid, Some(coordinator), &mut out)
            }
            Message::Abort { aid } => self.on_abort_msg(now, aid, &mut out),
            Message::Query { aid, reply_to } => self.on_query(aid, reply_to, &mut out),
            Message::Horizon { done_below } => self.on_horizon(now, done_below, &mut out),
            Message::ClientBegin { req, reply_to } => self.on_client_begin(req, reply_to, &mut out),
            Message::ClientCommit { aid, pset, reply_to } => {
                self.on_client_commit(now, aid, pset, reply_to, &mut out)
            }
            Message::ClientAbort { aid } => self.on_client_abort(aid, &mut out),
            Message::ClientPong { aid } => self.on_client_pong(aid),
            // These two are handled by the unreplicated client agent, not
            // by cohorts; a cohort receiving one ignores it.
            Message::ClientBeginAck { .. }
            | Message::ClientOutcome { .. }
            | Message::ClientPing { .. } => {}
            Message::Probe { group, reply_to } => self.on_probe(group, reply_to, &mut out),

            // transaction processing — client side
            Message::CallReply { call_id, outcome } => {
                self.call_step(now, call_id.aid, &mut out, |script, cfg, dir, out| {
                    script.on_reply(cfg, dir, call_id, outcome, out)
                })
            }
            Message::CallReject { call_id, newer } => {
                self.call_step(now, call_id.aid, &mut out, |script, _, dir, out| {
                    script.on_reject(dir, call_id, newer, out)
                })
            }
            Message::PrepareOk { aid, group, read_only } => {
                self.on_prepare_ok(now, aid, group, read_only, &mut out)
            }
            Message::PrepareRefuse { aid, group } => {
                self.on_prepare_refuse(now, aid, group, &mut out)
            }
            Message::CommitDone { aid, group } => self.on_commit_done(aid, group, &mut out),
            Message::Redirect { group, newer } => {
                if newer.is_some_and(|(viewid, view)| self.dir.learn(group, viewid, view)) {
                    self.resend_after_cache_update(group, &mut out);
                } else {
                    self.dir.probe(group, &mut out);
                }
            }
            Message::QueryReply { aid, outcome } => {
                self.on_query_reply(now, aid, outcome, &mut out)
            }
            Message::ProbeReply { group, viewid, view } => {
                if self.dir.learn(group, viewid, view) {
                    self.resend_after_cache_update(group, &mut out);
                }
            }

            // replication
            Message::BufferSend { viewid, from, records } => {
                self.on_buffer_send(now, viewid, from, records, &mut out)
            }
            Message::BufferAck { viewid, from, upto } => {
                self.on_buffer_ack(now, viewid, from, upto, &mut out)
            }

            // snapshot state transfer
            Message::GetChunk { digest, index, reply_to } => {
                self.on_get_chunk(digest, index, reply_to, &mut out)
            }
            Message::Chunk { digest, index, total, crc, payload } => {
                self.on_chunk(now, digest, index, total, crc, &payload, &mut out)
            }

            // read leases
            Message::LeaseGrant { viewid, from } => self.on_lease_grant(viewid, from, &mut out),
            Message::LeaseRevoke { viewid, from } => {
                self.on_lease_revoke(now, viewid, from, &mut out)
            }

            // failure detection
            Message::ImAlive { viewid, .. } => {
                // last_heard was already updated; additionally, a
                // heartbeat from a view newer than anything this cohort
                // has seen is proof that views up to `viewid` formed
                // while it was crashed or partitioned away. Fast-forward
                // the high-water mark so the next view-change attempt
                // proposes above the live view in one step — without
                // this, a recovered cohort crawls its viewid forward one
                // manager retry at a time and (with retry backoff) can
                // stay stuck outside the group for a long time.
                if viewid > self.max_viewid {
                    self.max_viewid = viewid;
                }
                // Lease renewal rides the heartbeat: an active,
                // up-to-date backup answers its current primary's
                // "I'm alive" with a fresh grant.
                if from == self.cur_view.primary() && viewid == self.cur_viewid {
                    self.maybe_grant_lease(&mut out);
                }
            }

            // view change
            Message::Invite { viewid, manager } => self.on_invite(now, viewid, manager, &mut out),
            Message::AcceptNormal { viewid, from, latest, was_primary } => self.on_accept(
                now,
                viewid,
                from,
                view_change::Acceptance::Normal { latest, was_primary },
                &mut out,
            ),
            Message::AcceptCrashed { viewid, from, stable_viewid } => self.on_accept(
                now,
                viewid,
                from,
                view_change::Acceptance::Crashed { stable_viewid },
                &mut out,
            ),
            Message::InitView { viewid, view } => self.on_init_view(now, viewid, view, &mut out),
        }
        out
    }

    /// A timer armed by an earlier [`Effect::SetTimer`] fired.
    pub fn on_timer(&mut self, now: Tick, timer: Timer) -> Vec<Effect> {
        let mut out = Vec::new();
        match timer {
            Timer::Heartbeat => self.on_heartbeat(now, &mut out),
            Timer::BufferFlush => self.on_buffer_flush(&mut out),
            Timer::CallRetry { call_id, attempt } => {
                self.call_step(now, call_id.aid, &mut out, |script, cfg, dir, out| {
                    script.on_retry(cfg, dir, call_id, attempt, out)
                })
            }
            Timer::PrepareRetry { aid, attempt } => {
                self.on_prepare_retry(now, aid, attempt, &mut out)
            }
            Timer::CommitRetry { aid, attempt } => self.on_commit_retry(aid, attempt, &mut out),
            Timer::ForceCheck { viewid, ts } => self.on_force_check(now, viewid, ts, &mut out),
            Timer::LockWait { call_id } => self.on_lock_wait_timeout(call_id, &mut out),
            Timer::QueryTick { aid } => self.on_query_tick(aid, &mut out),
            Timer::InviteTimeout { viewid } => self.on_invite_timeout(now, viewid, &mut out),
            Timer::UnderlingTimeout { viewid } => self.on_underling_timeout(now, viewid, &mut out),
            Timer::ManagerRetry { viewid } => self.on_manager_retry(now, viewid, &mut out),
            Timer::ClientPingTimeout { aid } => self.on_client_ping_timeout(aid, &mut out),
            Timer::ChunkRetry { digest, index, attempt } => {
                self.on_chunk_retry(digest, index, attempt, &mut out)
            }
            Timer::LeaseExpiry { backup, seq } => {
                // A stale firing (the grant was renewed) is a no-op.
                self.lease.expire(backup, seq);
            }
            Timer::LeaseWait { viewid } => {
                if self.cur_viewid == viewid
                    && self.lease_wait.as_ref().is_some_and(|w| w.viewid == viewid)
                {
                    self.end_lease_wait(now, &mut out);
                }
            }
            // Agent timers never reach a cohort.
            Timer::AgentBeginRetry { .. } | Timer::AgentCommitRetry { .. } => {}
        }
        out
    }

    /// Change Figure 1's `status`, emitting a
    /// [`Observation::StatusChanged`] so harnesses can trace every
    /// view-state transition. All transitions flow through here.
    pub(crate) fn set_status(&mut self, to: Status, out: &mut Vec<Effect>) {
        if self.status == to {
            return;
        }
        let from = self.status;
        self.status = to;
        out.push(Effect::Observe(Observation::StatusChanged {
            group: self.group,
            mid: self.mid,
            from,
            to,
        }));
    }

    // ------------------------------------------------------------------
    // primary-side buffer plumbing
    // ------------------------------------------------------------------

    /// Add an event record as the active primary: assigns a viewstamp,
    /// advances the history, applies the record to the local gstate, and
    /// (in immediate-flush mode) streams it to the backups.
    pub(crate) fn primary_add(&mut self, kind: EventKind, out: &mut Vec<Effect>) -> Viewstamp {
        debug_assert!(self.is_active_primary(), "primary_add on non-primary");
        let record_kind = kind.clone();
        let buffer = self.buffer.as_mut().expect("invariant: an active primary has a buffer");
        let vs = buffer.add(kind);
        self.history.advance(self.cur_viewid, vs.ts);
        let record = EventRecord { vs, kind: record_kind };
        // Log before use: the record must be durable before anything
        // downstream (sends, acks) makes it externally visible.
        out.push(Effect::Persist(DurableEvent::Record(record.clone())));
        self.apply_gstate_record(&record, out);
        self.note_applied(&record);
        self.checkpoint_tick(out);
        self.maybe_snapshot(vs, out);
        if self.cfg.buffer_flush_interval == 0 {
            if self.pass_active {
                self.flush_deferred = true;
            } else {
                self.flush_buffer(out);
            }
        }
        vs
    }

    /// Initiate a force as the active primary. If the force cannot
    /// complete immediately, streams the buffer at once (forces do not
    /// wait for the background flush) and arms the abandonment timer.
    /// Returns the reasons of forces that completed immediately.
    pub(crate) fn primary_force(
        &mut self,
        vs: Viewstamp,
        reason: ForceReason,
        out: &mut Vec<Effect>,
    ) -> Vec<ForceReason> {
        debug_assert!(self.is_active_primary(), "primary_force on non-primary");
        // A force is the protocol's commit point: stores running the
        // on-force fsync policy sync their log here (Section 3.7's
        // correspondence with conventional stable-storage forces).
        out.push(Effect::Persist(DurableEvent::Sync));
        let buffer = self.buffer.as_mut().expect("invariant: an active primary has a buffer");
        if buffer.force_to(vs, reason.clone()) {
            return vec![reason];
        }
        out.push(Effect::Observe(Observation::ForceBegan { group: self.group, mid: self.mid, vs }));
        out.push(Effect::SetTimer {
            after: self.cfg.force_timeout,
            timer: Timer::ForceCheck { viewid: self.cur_viewid, ts: vs.ts },
        });
        if self.pass_active {
            // The pass's single coalesced flush at `end_pass` covers
            // this force's records too; the abandonment timer above is
            // already armed, so only latency (not safety) rides on it.
            self.flush_deferred = true;
        } else {
            self.flush_buffer(out);
        }
        Vec::new()
    }

    /// Send every lagging backup the buffer records it has not yet
    /// acknowledged. Backups at the same ack watermark need the exact
    /// same record window, so one shared clone per distinct watermark
    /// serves them all instead of re-cloning per backup.
    pub(crate) fn flush_buffer(&mut self, out: &mut Vec<Effect>) {
        let Some(buffer) = self.buffer.as_ref() else { return };
        let viewid = buffer.viewid();
        let lagging: Vec<(Mid, Timestamp)> =
            buffer.lagging_backups().map(|m| (m, buffer.acked_by(m))).collect();
        let mut shared: BTreeMap<Timestamp, std::sync::Arc<[EventRecord]>> = BTreeMap::new();
        let mut sends = 0u64;
        let mut clones_saved = 0u64;
        for (backup, acked) in lagging {
            let records = match shared.get(&acked) {
                Some(records) => {
                    clones_saved += 1;
                    std::sync::Arc::clone(records)
                }
                None => {
                    let records: std::sync::Arc<[EventRecord]> = buffer.records_after(acked).into();
                    shared.insert(acked, std::sync::Arc::clone(&records));
                    records
                }
            };
            if records.is_empty() {
                continue;
            }
            sends += 1;
            out.push(Effect::Send {
                to: backup,
                msg: Message::BufferSend { viewid, from: self.mid, records },
            });
        }
        if clones_saved > 0 {
            out.push(Effect::Observe(Observation::BufferFlushed {
                group: self.group,
                mid: self.mid,
                sends,
                clones_saved,
            }));
        }
    }

    pub(crate) fn arm_flush(&self, out: &mut Vec<Effect>) {
        if self.cfg.buffer_flush_interval > 0 {
            out.push(Effect::SetTimer {
                after: self.cfg.buffer_flush_interval,
                timer: Timer::BufferFlush,
            });
        }
    }

    fn on_buffer_flush(&mut self, out: &mut Vec<Effect>) {
        if !self.is_active_primary() {
            return;
        }
        self.flush_buffer(out);
        // Records every backup has acknowledged can never need
        // retransmission; reclaim them so the buffer stays bounded over
        // long views.
        if let Some(buffer) = self.buffer.as_mut() {
            buffer.truncate_acked();
        }
        self.arm_flush(out);
    }

    fn on_buffer_ack(
        &mut self,
        now: Tick,
        viewid: ViewId,
        from: Mid,
        upto: Timestamp,
        out: &mut Vec<Effect>,
    ) {
        if !self.is_active_primary() || viewid != self.cur_viewid {
            return;
        }
        let (fired, watermark) = match self.buffer.as_mut() {
            Some(buffer) => (buffer.on_ack(from, upto), buffer.watermark()),
            None => return,
        };
        if !fired.is_empty() {
            out.push(Effect::Observe(Observation::ForceFired {
                group: self.group,
                mid: self.mid,
                vs: Viewstamp::new(self.cur_viewid, watermark),
                fired: fired.len() as u64,
            }));
        }
        for reason in fired {
            self.fire_force_reason(now, reason, out);
        }
    }

    fn on_force_check(&mut self, now: Tick, viewid: ViewId, ts: Timestamp, out: &mut Vec<Effect>) {
        if !self.is_active_primary() || viewid != self.cur_viewid {
            return;
        }
        let Some(buffer) = self.buffer.as_mut() else { return };
        let still_pending = buffer.earliest_pending_force().is_some_and(|earliest| earliest <= ts)
            && buffer.watermark() < ts;
        if !still_pending {
            return;
        }
        // "If communication with some backups is impossible, the call of
        // force-to will be abandoned, and the cohort will switch to
        // running the view change algorithm."
        out.push(Effect::Observe(Observation::ForceAbandoned {
            group: self.group,
            mid: self.mid,
            viewid: self.cur_viewid,
        }));
        let abandoned = buffer.abandon_forces();
        for reason in abandoned {
            if let ForceReason::CoordCommitted { aid } = reason {
                // The commit decision is in flight: its survival depends
                // on the coming view change, so the outcome is genuinely
                // unknown at this point.
                if let Some(txn) = self.coord.remove(&aid) {
                    out.push(Effect::TxnResult {
                        req_id: txn.req_id,
                        aid: Some(aid),
                        outcome: TxnOutcome::Unresolved,
                    });
                }
            }
        }
        self.start_view_change(now, out);
    }

    /// Run the continuation of a completed force.
    pub(crate) fn fire_force_reason(
        &mut self,
        now: Tick,
        reason: ForceReason,
        out: &mut Vec<Effect>,
    ) {
        match reason {
            ForceReason::PrepareVote { aid, coordinator, read_only } => {
                self.send_prepare_vote(now, aid, coordinator, read_only, out)
            }
            ForceReason::CommitAck { aid, coordinator } => out.push(Effect::Send {
                to: coordinator,
                msg: Message::CommitDone { aid, group: self.group },
            }),
            ForceReason::OnePhaseCommit { aid, coordinator, read_only: true } => {
                // An outcome a duplicate's force or an abort reached
                // first stands.
                if !self.gstate.is_finished(aid) {
                    self.primary_add(EventKind::OnePhaseCommitted { aid }, out);
                } else if !self.gstate.one_phase_committed(aid) {
                    return;
                }
                self.locks.release_all(aid);
                out.push(Effect::Send {
                    to: coordinator,
                    msg: Message::PrepareOk { aid, group: self.group, read_only: true },
                });
                self.retry_waiting_calls(now, out);
            }
            ForceReason::OnePhaseCommit { aid, coordinator, read_only: false } => {
                self.locks.release_all(aid);
                out.push(Effect::Send {
                    to: coordinator,
                    msg: Message::CommitDone { aid, group: self.group },
                });
                self.retry_waiting_calls(now, out);
            }
            ForceReason::CoordCommitted { aid } => self.on_commit_decided(aid, out),
            ForceReason::CallReply { call_id, to } => {
                if let Some(record) = self.gstate.find_call(call_id) {
                    let outcome = server::reply_from_record(self.group, record);
                    out.push(Effect::Send { to, msg: Message::CallReply { call_id, outcome } });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // backup-side record application
    // ------------------------------------------------------------------

    fn on_buffer_send(
        &mut self,
        now: Tick,
        viewid: ViewId,
        from: Mid,
        records: std::sync::Arc<[EventRecord]>,
        out: &mut Vec<Effect>,
    ) {
        // Unilateral view adjustment (Section 4.1): an active backup
        // follows its *current primary* directly into a higher view —
        // the newview record arrives on the ordinary buffer stream with
        // no invitation round.
        if self.status == Status::Active
            && self.cur_view.primary() == from
            && self.cur_view.primary() != self.mid
            && viewid > self.cur_viewid
            && viewid >= self.max_viewid
        {
            if let Some(first) = records.first() {
                if let EventKind::NewView { view, .. } = &first.kind {
                    if view.primary() == from && view.contains(self.mid) {
                        self.max_viewid = viewid;
                        if !self.install_from_newview(now, viewid, first, from, out) {
                            // Missing the base snapshot: a chunk fetch is
                            // under way and installation is deferred. No
                            // ack — the primary keeps retransmitting.
                            return;
                        }
                        // Fall through to apply the rest below.
                    }
                }
            }
        }
        // An underling waiting on `max_viewid` becomes active when the
        // newview record arrives (Figure 5, await_view).
        if self.status == Status::Underling && viewid == self.max_viewid {
            let Some(first) = records.first() else { return };
            if !matches!(first.kind, EventKind::NewView { .. }) {
                return;
            }
            if !self.install_from_newview(now, viewid, first, from, out) {
                return;
            }
            // Fall through to apply the rest of the records below.
        }
        if self.status != Status::Active
            || viewid != self.cur_viewid
            || self.cur_view.primary() == self.mid
        {
            return;
        }
        if self.cur_view.primary() != from {
            return;
        }
        let mut known = self.history.ts_for(self.cur_viewid).unwrap_or(Timestamp::ZERO);
        for record in records.iter() {
            if record.ts().0 <= known.0 {
                continue; // duplicate
            }
            if record.ts().0 != known.0 + 1 {
                break; // gap; the primary will retransmit from our ack
            }
            // Log before ack: the BufferAck below is what lets this
            // record count toward a sub-majority, so it must be durable
            // first.
            out.push(Effect::Persist(DurableEvent::Record(record.clone())));
            let is_newview = matches!(record.kind, EventKind::NewView { .. });
            if !is_newview {
                self.apply_gstate_record(record, out);
                self.note_applied(record);
            }
            known = record.ts();
            self.history.advance(self.cur_viewid, known);
            self.checkpoint_tick(out);
            if !is_newview {
                // Same boundary rule as the primary's `add` path, so
                // replicas materialize identical snapshots in lockstep.
                self.maybe_snapshot(record.vs, out);
            }
        }
        out.push(Effect::Send {
            to: from,
            msg: Message::BufferAck { viewid: self.cur_viewid, from: self.mid, upto: known },
        });
        // Lease renewal rides the ack: the backup just processed its
        // primary's buffer stream, so the primary is alive and current.
        self.maybe_grant_lease(out);
    }

    /// Emit a periodic checkpoint persist effect every
    /// `checkpoint_interval` applied records, so a store can bound its
    /// log replay (and garbage-collect old segments).
    pub(crate) fn checkpoint_tick(&mut self, out: &mut Vec<Effect>) {
        if self.cfg.checkpoint_interval == 0 {
            return;
        }
        self.records_since_checkpoint += 1;
        if self.records_since_checkpoint < self.cfg.checkpoint_interval {
            return;
        }
        self.records_since_checkpoint = 0;
        out.push(Effect::Persist(DurableEvent::Checkpoint(Checkpoint {
            viewid: self.cur_viewid,
            view: self.cur_view.clone(),
            history: self.history.clone(),
            gstate: self.gstate.clone(),
        })));
    }

    // ------------------------------------------------------------------
    // snapshots & chunked state transfer
    // ------------------------------------------------------------------

    /// Track an applied record in the delta log (the records a future
    /// newview from this cohort would ship on top of `last_snap`). A
    /// no-op when boundary snapshots are disabled — then every newview
    /// ships an ad-hoc snapshot reference with an empty delta and the
    /// log must not grow.
    fn note_applied(&mut self, record: &EventRecord) {
        if self.cfg.snapshot_interval > 0 {
            self.delta_log.push(record.clone());
        }
    }

    /// At a snapshot boundary (`ts % snapshot_interval == 0`),
    /// materialize a snapshot of the current state. Runs identically at
    /// the primary (add time) and backups (delivery time), so replicas
    /// produce byte-identical snapshots with equal digests, in lockstep.
    ///
    /// Snapshot stability drives compaction: the same boundary emits a
    /// WAL checkpoint, so the store never replays (or retains) records
    /// the snapshot already covers, and the delta log restarts here.
    fn maybe_snapshot(&mut self, vs: Viewstamp, out: &mut Vec<Effect>) {
        let interval = self.cfg.snapshot_interval;
        if interval == 0 || vs.ts.0 == 0 || !vs.ts.0.is_multiple_of(interval) {
            return;
        }
        self.take_snapshot(vs, out);
        self.records_since_checkpoint = 0;
        out.push(Effect::Persist(DurableEvent::Checkpoint(Checkpoint {
            viewid: self.cur_viewid,
            view: self.cur_view.clone(),
            history: self.history.clone(),
            gstate: self.gstate.clone(),
        })));
    }

    /// Materialize a snapshot of the current state, retain it for
    /// serving, and make it the anchor for future newview deltas.
    pub(crate) fn take_snapshot(&mut self, vs: Viewstamp, out: &mut Vec<Effect>) -> SnapshotRef {
        let snap = Snapshot::materialize(vs, &self.history, &self.gstate);
        let snap_ref = snap.to_ref();
        out.push(Effect::Observe(Observation::SnapshotTaken {
            group: self.group,
            mid: self.mid,
            vs,
            bytes: snap.bytes.len() as u64,
        }));
        self.store_snapshot(snap);
        self.last_snap = Some(snap_ref);
        self.delta_log.clear();
        snap_ref
    }

    /// Insert a snapshot into the bounded retention window (oldest out).
    fn store_snapshot(&mut self, snap: std::sync::Arc<Snapshot>) {
        if self.snaps.iter().any(|s| s.digest == snap.digest) {
            return;
        }
        self.snaps.push(snap);
        while self.snaps.len() > SNAP_RETAIN {
            self.snaps.remove(0);
        }
    }

    /// Try to install the view carried by a newview record.
    ///
    /// Returns `true` if the installation happened (the caller's record
    /// loop then persists, advances past, and acknowledges the newview
    /// record itself). Returns `false` when the base snapshot is missing
    /// and a chunked fetch was started (or is already running) — the
    /// installation is deferred to [`Self::finish_fetch`] and the caller
    /// must not acknowledge anything.
    fn install_from_newview(
        &mut self,
        now: Tick,
        viewid: ViewId,
        first: &EventRecord,
        from: Mid,
        out: &mut Vec<Effect>,
    ) -> bool {
        let EventKind::NewView { view, history, base, delta } = &first.kind else {
            return false;
        };
        // Already fetching exactly this installation? Stay the course.
        if let Some(f) = &self.fetch {
            if f.pending.viewid == viewid && f.asm.digest() == base.digest {
                return false;
            }
        }
        // (a) Do we hold the base snapshot (boundary or previously
        // fetched)?
        let mut resolved = self.snaps.iter().find(|s| s.digest == base.digest).cloned();
        // (b) A caught-up cohort *is* the snapshot: materialize the
        // current state and compare digests. This is the common no-op
        // view change — nothing was lost, so the base the new primary
        // snapshotted equals our own state and we install with zero
        // transfer.
        if resolved.is_none() && self.up_to_date {
            if let Some(vs) = self.history.latest() {
                let own = Snapshot::materialize(vs, &self.history, &self.gstate);
                if own.digest == base.digest {
                    resolved = Some(own);
                }
            }
        }
        match resolved {
            Some(snap) => {
                self.fetch = None;
                let (view, history) = (view.clone(), history.clone());
                let (base, delta) = (*base, std::sync::Arc::clone(delta));
                self.install_resolved(now, viewid, view, history, &snap, base, &delta, out);
                true
            }
            None => {
                // (c) Genuinely behind: fetch the snapshot bytes in
                // bounded, CRC-checked chunks from whoever sent us the
                // record, then install.
                self.fetch = Some(FetchState {
                    asm: vsr_snap::Assembler::new(base.digest, self.cfg.snapshot_chunk_bytes),
                    source: from,
                    started_at: now,
                    attempts: 0,
                    pending: PendingInstall { viewid, record: first.clone() },
                });
                self.request_chunk(0, out);
                false
            }
        }
    }

    /// Install a new view whose base snapshot is in hand: reconstruct
    /// the group state as `base.gstate + delta`, switch views, and
    /// re-anchor the delta log.
    #[expect(clippy::too_many_arguments, reason = "the parts of one resolved view formation")]
    fn install_resolved(
        &mut self,
        now: Tick,
        viewid: ViewId,
        view: View,
        history: History,
        snap: &std::sync::Arc<Snapshot>,
        base: SnapshotRef,
        delta: &[EventRecord],
        out: &mut Vec<Effect>,
    ) {
        let mut gstate = snap.gstate.clone();
        for r in delta {
            // Pure replay: reconstructing the primary's state must not
            // re-emit the observations the original application emitted.
            gstate.apply_record(self.group, &r.kind);
        }
        self.store_snapshot(std::sync::Arc::clone(snap));
        self.install_new_view(now, viewid, view, history, gstate, out);
        if self.cfg.snapshot_interval > 0 {
            self.last_snap = Some(base);
            self.delta_log = delta.to_vec();
        } else {
            self.last_snap = None;
            self.delta_log.clear();
        }
    }

    /// Serve one chunk of a retained snapshot. Unknown digests and
    /// out-of-range indexes are ignored (stale requests; the fetching
    /// side recovers through its retry timer and view-change timeouts).
    fn on_get_chunk(&self, digest: SnapDigest, index: u32, reply_to: Mid, out: &mut Vec<Effect>) {
        let Some(snap) = self.snaps.iter().find(|s| s.digest == digest) else { return };
        let Some(c) = vsr_snap::chunk(&snap.bytes, index, self.cfg.snapshot_chunk_bytes) else {
            return;
        };
        out.push(Effect::Send {
            to: reply_to,
            msg: Message::Chunk {
                digest,
                index: c.index,
                total: c.total,
                crc: c.crc,
                payload: c.payload.to_vec(),
            },
        });
    }

    /// A snapshot chunk arrived for an in-progress fetch.
    #[expect(clippy::too_many_arguments, reason = "mirrors Message::Chunk's fields")]
    fn on_chunk(
        &mut self,
        now: Tick,
        digest: SnapDigest,
        index: u32,
        total: u32,
        crc: u32,
        payload: &[u8],
        out: &mut Vec<Effect>,
    ) {
        use vsr_snap::{ChunkError, Progress};
        let Some(fetch) = self.fetch.as_mut() else { return };
        if fetch.asm.digest() != digest {
            return; // stray chunk from an abandoned transfer
        }
        match fetch.asm.accept(index, total, crc, payload) {
            Ok(Progress::Need(next)) => {
                fetch.attempts = 0;
                self.request_chunk(next, out);
            }
            Ok(Progress::Complete(bytes)) => {
                let fetch = self.fetch.take().expect("invariant: fetch presence checked above");
                // Digest-verified bytes that still fail to decode mean
                // the snapshot itself was malformed at the source;
                // abandon the fetch and let the view-change timeouts
                // drive recovery.
                if let Ok(snap) = Snapshot::decode(&bytes) {
                    self.finish_fetch(now, fetch, snap, out);
                }
            }
            Err(ChunkError::Corrupt) => {
                // CRC mismatch: drop the chunk. The retry timer armed
                // with the request will re-request this index.
                out.push(Effect::Observe(Observation::ChunkCorruptDropped {
                    group: self.group,
                    mid: self.mid,
                }));
            }
            Err(ChunkError::DigestMismatch) => {
                // Every per-chunk CRC passed but the assembled bytes do
                // not hash to the requested digest (an adversarial relay
                // fixing CRCs, or a source serving wrong bytes). The
                // assembler has reset the transfer; start over.
                out.push(Effect::Observe(Observation::ChunkCorruptDropped {
                    group: self.group,
                    mid: self.mid,
                }));
                self.request_chunk(0, out);
            }
            // Duplicate, reordered, or size-violating chunks: drop.
            Err(ChunkError::WrongIndex | ChunkError::BadTotal | ChunkError::BadSize) => {}
        }
    }

    /// Send a `GetChunk` for `index` and arm its retry timer.
    fn request_chunk(&mut self, index: u32, out: &mut Vec<Effect>) {
        let Some(fetch) = self.fetch.as_ref() else { return };
        let digest = fetch.asm.digest();
        let attempt = fetch.attempts;
        out.push(Effect::Send {
            to: fetch.source,
            msg: Message::GetChunk { digest, index, reply_to: self.mid },
        });
        out.push(Effect::SetTimer {
            after: self.retry_delay(self.cfg.chunk_retry_interval, attempt + 1, retry_kind::CHUNK),
            timer: Timer::ChunkRetry { digest, index, attempt },
        });
    }

    /// A chunk request went unanswered. Stale firings (progress was
    /// made, the transfer moved on, or a newer retry is armed) are
    /// recognized by digest/index/attempt mismatch and ignored.
    fn on_chunk_retry(
        &mut self,
        digest: SnapDigest,
        index: u32,
        attempt: u32,
        out: &mut Vec<Effect>,
    ) {
        let Some(fetch) = self.fetch.as_ref() else { return };
        if fetch.asm.digest() != digest
            || fetch.asm.next_index() != index
            || fetch.attempts != attempt
        {
            return;
        }
        if attempt + 1 >= MAX_CHUNK_ATTEMPTS {
            // The source stopped answering. Abandon the transfer; the
            // underling/suspect timeouts stay armed and will drive a
            // fresh view change with a fresh newview to fetch against.
            self.fetch = None;
            return;
        }
        if let Some(f) = self.fetch.as_mut() {
            f.attempts += 1;
        }
        out.push(Effect::Observe(Observation::ChunkRetried { group: self.group, mid: self.mid }));
        self.request_chunk(index, out);
    }

    /// A chunked transfer completed: install the fetched snapshot plus
    /// the deferred newview record, then acknowledge it.
    fn finish_fetch(
        &mut self,
        now: Tick,
        fetch: FetchState,
        snap: std::sync::Arc<Snapshot>,
        out: &mut Vec<Effect>,
    ) {
        let FetchState { pending, started_at, .. } = fetch;
        let PendingInstall { viewid, record } = pending;
        // The world may have moved on while chunks were in flight.
        if viewid != self.max_viewid {
            return;
        }
        if self.status == Status::Active && self.cur_viewid == viewid {
            return; // already installed by other means
        }
        let EventKind::NewView { view, history, base, delta } = &record.kind else {
            debug_assert!(false, "pending install holds a non-newview record");
            return;
        };
        let (view, history) = (view.clone(), history.clone());
        let (base, delta) = (*base, std::sync::Arc::clone(delta));
        let chunks = vsr_snap::chunk_count(snap.bytes.len(), self.cfg.snapshot_chunk_bytes);
        self.install_resolved(now, viewid, view.clone(), history, &snap, base, &delta, out);
        // Persist, advance past, and acknowledge the newview record
        // itself — exactly what the immediate path's record loop does.
        out.push(Effect::Persist(DurableEvent::Record(record.clone())));
        self.history.advance(viewid, record.ts());
        self.checkpoint_tick(out);
        out.push(Effect::Observe(Observation::SnapshotInstalled {
            group: self.group,
            mid: self.mid,
            chunks,
            ticks: now.saturating_sub(started_at),
        }));
        out.push(Effect::Send {
            to: view.primary(),
            msg: Message::BufferAck { viewid, from: self.mid, upto: record.ts() },
        });
    }

    /// Apply an event record's gstate transition. Used identically by the
    /// primary (at `add` time), the backups (at delivery time) and crash
    /// recovery, which is what keeps replica states convergent; the
    /// transition itself is [`GroupState::apply_record`], shared with
    /// newview delta replay, and this adds the observations.
    pub(crate) fn apply_gstate_record(&mut self, record: &EventRecord, out: &mut Vec<Effect>) {
        debug_assert!(
            !matches!(record.kind, EventKind::NewView { .. }),
            "newview records are installed, not applied"
        );
        // Phase two is complete at the coordinator: its `done` record
        // retires the status instead of storing `Done`.
        let gced =
            matches!(record.kind, EventKind::Done { aid } if self.gstate.status(aid).is_some());
        let accesses = self.gstate.apply_record(self.group, &record.kind);
        let (group, mid) = (self.group, self.mid);
        match record.kind {
            EventKind::Committed { aid } | EventKind::OnePhaseCommitted { aid } => {
                let vs = record.vs;
                out.push(Effect::Observe(Observation::TxnCommitted {
                    group,
                    mid,
                    aid,
                    accesses,
                    vs,
                }));
            }
            EventKind::Aborted { aid } => {
                out.push(Effect::Observe(Observation::TxnAborted { group, mid, aid }));
            }
            EventKind::Done { .. } if gced => {
                out.push(Effect::Observe(Observation::StatusesGced { group, mid, n: 1 }));
            }
            EventKind::CompletedCall { .. }
            | EventKind::Committing { .. }
            | EventKind::Done { .. }
            | EventKind::CallsDropped { .. }
            | EventKind::Horizon { .. }
            | EventKind::NewView { .. } => {}
        }
    }

    // ------------------------------------------------------------------
    // heartbeats and failure detection
    // ------------------------------------------------------------------

    fn on_heartbeat(&mut self, now: Tick, out: &mut Vec<Effect>) {
        for &m in self.configuration.members() {
            if m != self.mid {
                out.push(Effect::Send {
                    to: m,
                    msg: Message::ImAlive { from: self.mid, viewid: self.cur_viewid },
                });
            }
        }
        if self.status == Status::Active {
            let is_silent = |m: Mid| {
                let heard = self.last_heard.get(&m).copied().unwrap_or(0);
                now.saturating_sub(heard) > self.cfg.suspect_timeout
            };
            let suspect = self.cur_view.members().any(|m| m != self.mid && is_silent(m));
            // Section 4.1 optimization: the primary excludes silent
            // backups unilaterally when a majority remains — no
            // invitation round needed.
            if suspect && self.cfg.unilateral_exclusion && self.is_active_primary() {
                let silent: Vec<Mid> =
                    self.cur_view.backups().iter().copied().filter(|&m| is_silent(m)).collect();
                let remaining = self.cur_view.len() - silent.len();
                if remaining >= self.configuration.majority() {
                    self.unilateral_exclude(now, &silent, out);
                    out.push(Effect::SetTimer {
                        after: self.cfg.heartbeat_interval,
                        timer: Timer::Heartbeat,
                    });
                    return;
                }
            }
            if suspect {
                // Churn avoidance (Section 4.1): "the cohorts could be
                // ordered, and a cohort would become a manager only if
                // all higher-priority cohorts appear to be inaccessible."
                // Lower mid = higher priority; defer a few heartbeats to
                // a live higher-priority member, then manage anyway (in
                // case it never noticed the problem).
                let higher_priority_alive =
                    self.cur_view.members().any(|m| m < self.mid && !is_silent(m));
                if higher_priority_alive && self.manager_deferrals < self.cfg.manager_deference {
                    self.manager_deferrals += 1;
                } else {
                    self.manager_deferrals = 0;
                    self.start_view_change(now, out);
                }
            } else {
                self.manager_deferrals = 0;
                if self.is_active_primary() {
                    self.sweep_stale_txns(now, out);
                }
            }
        }
        out.push(Effect::SetTimer { after: self.cfg.heartbeat_interval, timer: Timer::Heartbeat });
    }

    /// Query the coordinator about transactions that have held locks for a
    /// long time without progress — their abort message may have been
    /// lost ("recovery from lost messages is done by using queries",
    /// Section 4.1).
    fn sweep_stale_txns(&mut self, now: Tick, out: &mut Vec<Effect>) {
        // This group's own transactions that a view change cut off from
        // their coordinator: the new primary restored their locks from
        // the call records (Section 3.3), and nothing else will free
        // them. They aborted automatically with the view change
        // (Section 3.1), which is the answer a query would get here;
        // apply it through the ordinary abort record.
        let cut_off: Vec<Aid> = self
            .gstate
            .pending_txns()
            .map(|(aid, _)| aid)
            .filter(|aid| {
                aid.group == self.group && self.answer_query(*aid) == QueryOutcome::Aborted
            })
            .collect();
        for aid in cut_off {
            self.abort_participant(now, aid, out);
        }
        let stale: Vec<Aid> = self
            .gstate
            .pending_txns()
            .map(|(aid, _)| aid)
            .filter(|aid| {
                // Our own coordinated transactions are not swept.
                aid.group != self.group
                    && !self.prepared.contains(aid)
                    && now.saturating_sub(self.last_activity.get(aid).copied().unwrap_or(0))
                        > self.cfg.stale_txn_timeout
            })
            .collect();
        for aid in stale {
            self.last_activity.insert(aid, now);
            self.send_outcome_query(aid, out);
        }
        // Runs of finished transactions that a gap keeps apart: once the
        // gap has lasted as long as a stale transaction, ask the
        // coordinator about its first aid. Its primary answers with its
        // horizon, whose record collapses the runs below it.
        let mut gaps = BTreeMap::new();
        for group in self.gstate.finished_groups() {
            let Some(gap) = self.gstate.first_gap(group) else { continue };
            let mut since = match self.finished_gaps.get(&group) {
                Some(&(seen, since)) if seen == gap => since,
                _ => now,
            };
            if now.saturating_sub(since) > self.cfg.stale_txn_timeout {
                since = now;
                self.send_outcome_query(gap, out);
            }
            gaps.insert(group, (gap, since));
        }
        self.finished_gaps = gaps;
    }

    /// Send an outcome query to every member of the transaction's
    /// coordinator group ("a cohort that needs to know whether an abort
    /// occurred sends a query to another cohort that might know",
    /// Section 3.4).
    pub(crate) fn send_outcome_query(&self, aid: Aid, out: &mut Vec<Effect>) {
        let query = Message::Query { aid, reply_to: self.mid };
        self.dir.send_to_members(aid.coordinator_group(), &query, out);
    }

    fn on_probe(&self, group: GroupId, reply_to: Mid, out: &mut Vec<Effect>) {
        if group != self.group || self.status != Status::Active {
            return;
        }
        out.push(Effect::Send {
            to: reply_to,
            msg: Message::ProbeReply {
                group,
                viewid: self.cur_viewid,
                view: self.cur_view.clone(),
            },
        });
    }

    /// The redirect payload a non-primary cohort attaches to rejections
    /// (Section 3.3: "contains information about the current viewid and
    /// primary if the cohort knows them").
    pub(crate) fn known_view(&self) -> Option<(ViewId, View)> {
        (self.status == Status::Active).then(|| (self.cur_viewid, self.cur_view.clone()))
    }

    // ------------------------------------------------------------------
    // read leases
    // ------------------------------------------------------------------

    /// Whether this cohort may serve a leased read right now: an active
    /// primary with leases enabled, no lease wait in progress, and live
    /// grants from a sub-majority of the configuration (so the primary
    /// plus its grantors form a majority — no view can form without a
    /// granting backup).
    pub fn holds_lease(&self) -> bool {
        self.cfg.lease_ticks > 0
            && self.lease_wait.is_none()
            && self.is_active_primary()
            && self.lease.holds(self.configuration.sub_majority())
    }

    /// Number of backups currently extending a live lease grant to this
    /// cohort (0 unless it is a leaseholding primary). For harness
    /// assertions.
    pub fn live_lease_grants(&self) -> usize {
        self.lease.live_grants()
    }

    /// Whether this new primary is still waiting out the previous
    /// primary's maximum outstanding lease. For harness assertions.
    pub fn lease_wait_in_progress(&self) -> bool {
        self.lease_wait.is_some()
    }

    /// Send a lease grant to the current primary if this cohort is in a
    /// position to promise: an active, up-to-date backup of the current
    /// view with no state transfer in progress. A fetching or stale
    /// cohort must not grant — its promise would let the primary serve
    /// reads the backup cannot vouch for (§14 interaction: a rejoining
    /// backup grants only after its chunked fetch completes and it is
    /// active again).
    pub(crate) fn maybe_grant_lease(&mut self, out: &mut Vec<Effect>) {
        if self.cfg.lease_ticks == 0
            || self.status != Status::Active
            || self.cur_view.primary() == self.mid
            || !self.up_to_date
            || self.fetch.is_some()
        {
            return;
        }
        out.push(Effect::Send {
            to: self.cur_view.primary(),
            msg: Message::LeaseGrant { viewid: self.cur_viewid, from: self.mid },
        });
    }

    /// A backup granted (or renewed) this primary's lease.
    fn on_lease_grant(&mut self, viewid: ViewId, from: Mid, out: &mut Vec<Effect>) {
        if self.cfg.lease_ticks == 0
            || !self.is_active_primary()
            || viewid != self.cur_viewid
            || !self.cur_view.contains(from)
            || from == self.mid
        {
            return;
        }
        let (seq, renewal) = self.lease.grant(from);
        if renewal {
            out.push(Effect::Observe(Observation::LeaseRenewed {
                group: self.group,
                mid: self.mid,
            }));
        }
        out.push(Effect::SetTimer {
            after: self.cfg.lease_ticks,
            timer: Timer::LeaseExpiry { backup: from, seq },
        });
    }

    /// The old primary of `viewid` voided every lease it held. Record it
    /// (a later `start_view` consults the map) and, if this cohort is a
    /// new primary currently waiting on exactly that lease, end the wait
    /// immediately.
    fn on_lease_revoke(&mut self, now: Tick, viewid: ViewId, from: Mid, out: &mut Vec<Effect>) {
        if self.cfg.lease_ticks == 0 {
            return;
        }
        let entry = self.lease_revokes.entry(from).or_insert(viewid);
        if viewid > *entry {
            *entry = viewid;
        }
        if let Some(w) = &self.lease_wait {
            if w.prev_primary == from && viewid >= w.prev_viewid && self.cur_viewid == w.viewid {
                self.end_lease_wait(now, out);
            }
        }
    }

    /// Relinquish any leases this cohort holds as it leaves active
    /// primaryship (view change started, invitation accepted, or a new
    /// view installed). If grants were live, broadcast the revocation so
    /// the next primary can skip the skew-adjusted wait. Must run while
    /// `cur_viewid` still names the view the grants were made in.
    pub(crate) fn relinquish_lease(&mut self, out: &mut Vec<Effect>) {
        if self.cfg.lease_ticks == 0 {
            return;
        }
        if self.lease.relinquish() {
            for &m in self.configuration.members() {
                if m != self.mid {
                    out.push(Effect::Send {
                        to: m,
                        msg: Message::LeaseRevoke { viewid: self.cur_viewid, from: self.mid },
                    });
                }
            }
            // Record our own revocation too: if this cohort becomes the
            // next primary it must not wait on itself.
            let entry = self.lease_revokes.entry(self.mid).or_insert(self.cur_viewid);
            if self.cur_viewid > *entry {
                *entry = self.cur_viewid;
            }
        }
        // Any deferred commit-point traffic belongs to a view start that
        // is now obsolete; drop it (the senders retry).
        self.lease_wait = None;
        self.lease_deferred.clear();
    }

    /// Whether an explicit revocation covering the previous view's
    /// primary has been seen — the graceful-handover escape from the
    /// skew-adjusted wait.
    pub(crate) fn lease_revoke_covers(&self, prev_primary: Mid, prev_viewid: ViewId) -> bool {
        self.lease_revokes.get(&prev_primary).is_some_and(|&v| v >= prev_viewid)
    }

    /// The lease wait is over (timer fired or revocation arrived):
    /// replay the deferred commit-point messages in arrival order.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "the deferral filter in on_message queues exactly these four commit-point \
                  variants; anything else here is a bug the debug_assert catches"
    )]
    fn end_lease_wait(&mut self, now: Tick, out: &mut Vec<Effect>) {
        self.lease_wait = None;
        for msg in std::mem::take(&mut self.lease_deferred) {
            match msg {
                Message::Prepare { aid, pset, coordinator } => {
                    self.on_prepare(now, aid, pset, coordinator, out)
                }
                Message::PrepareCommit { aid, pset, coordinator } => {
                    self.on_prepare_commit(now, aid, pset, coordinator, out)
                }
                Message::Commit { aid, coordinator } => {
                    self.on_commit(now, aid, Some(coordinator), out)
                }
                Message::QueryReply { aid, outcome } => self.on_query_reply(now, aid, outcome, out),
                _ => debug_assert!(false, "only commit-point messages are deferred"),
            }
        }
    }
}
