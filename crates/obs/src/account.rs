//! The one accounting path from protocol events to telemetry.
//!
//! Both harnesses — the sim `World` and the runtime cohort thread —
//! execute the same core effects, and both must turn them into the same
//! [`Metrics`] counters and [`TraceKind`] events. Every such decision
//! lives here, once: a harness hands each send, delivery, timer fire,
//! store write, fsync completion and observation to the matching
//! `on_*` hook, records the returned trace kind if tracing is on, and
//! otherwise does nothing but I/O. The matches below are exhaustive, so
//! a new message class, timer or observation is a compile error here
//! until someone decides how it is counted.

use vsr_core::cohort::{Effect, Observation, Timer};
use vsr_core::messages::Message;
use vsr_core::types::{Mid, Viewstamp};

use crate::event::TraceKind;
use crate::metrics::Metrics;

/// What one `Effect::Persist` did to a cohort's store, in plain counts
/// (the store's own metrics type lives in `vsr-store`, which this crate
/// does not depend on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistDelta {
    /// WAL frames appended.
    pub appends: u64,
    /// Fsyncs issued (0, 1, or 2 for a checkpoint that rotated a dirty
    /// segment).
    pub fsyncs: u64,
    /// Bytes written, framing included.
    pub bytes_written: u64,
    /// Checkpoint frames written.
    pub checkpoints: u64,
    /// Records awaiting their covering fsync before the persist.
    pub unsynced_before: u64,
    /// Records awaiting their covering fsync after it.
    pub unsynced_after: u64,
}

impl Metrics {
    /// A message left a cohort: count it by name and bytes, and split
    /// it the paper's way (§2) into view-change, background replication
    /// and foreground request traffic.
    pub fn on_send(&mut self, to: Mid, msg: &Message) -> TraceKind {
        let name = msg.name();
        let size = msg.wire_size() as u64;
        *self.msgs.entry(name).or_default() += 1;
        *self.bytes.entry(name).or_default() += size;
        if msg.is_view_change() {
            self.view_change_msgs += 1;
        } else if msg.is_background() {
            self.background_msgs += 1;
        } else {
            self.foreground_msgs += 1;
            self.foreground_bytes += size;
        }
        if matches!(msg, Message::Chunk { .. }) {
            self.snapshot_chunks_sent += 1;
        }
        TraceKind::Send { to, msg: name }
    }

    /// A message reached a live cohort and is about to be handled. The
    /// returned kind is recorded once the handler has run.
    pub fn on_recv(&mut self, from: Mid, msg: &Message) -> TraceKind {
        if matches!(msg, Message::Chunk { .. }) {
            self.snapshot_chunks_received += 1;
        }
        TraceKind::Recv { from, msg: msg.name() }
    }

    /// A timer fired and its handler produced `effects`. Periodic ticks
    /// and lease housekeeping are not protocol timeouts: a lease expiry
    /// is the normal end of a grant's life, and the lease wait is a
    /// scheduled safety pause, not a lost-message detection. A retry
    /// timer's sends are retransmissions. A fire that did nothing is
    /// not traced.
    pub fn on_timer(&mut self, timer: &Timer, effects: &[Effect]) -> Option<TraceKind> {
        let (timeout, retry) = match timer {
            Timer::Heartbeat
            | Timer::BufferFlush
            | Timer::LeaseExpiry { .. }
            | Timer::LeaseWait { .. } => (false, false),
            Timer::CallRetry { .. }
            | Timer::PrepareRetry { .. }
            | Timer::CommitRetry { .. }
            | Timer::ManagerRetry { .. }
            | Timer::AgentBeginRetry { .. }
            | Timer::AgentCommitRetry { .. }
            | Timer::ChunkRetry { .. } => (true, true),
            Timer::ForceCheck { .. }
            | Timer::LockWait { .. }
            | Timer::QueryTick { .. }
            | Timer::InviteTimeout { .. }
            | Timer::UnderlingTimeout { .. }
            | Timer::ClientPingTimeout { .. } => (true, false),
        };
        if timeout {
            self.timeouts_fired += 1;
        }
        if retry {
            self.retransmissions +=
                effects.iter().filter(|e| matches!(e, Effect::Send { .. })).count() as u64;
        }
        (!effects.is_empty()).then(|| TraceKind::Timer { timer: timer.name() })
    }

    /// A persist wrote to a cohort's store. An fsync that covered
    /// records left unsynced by earlier persists is a group commit,
    /// whether the batch bound or a cut-through event (stable viewid,
    /// checkpoint) triggered it; its batch size is the records it made
    /// durable:
    ///
    /// - two fsyncs (a checkpoint: rotate's covering sync, then the
    ///   checkpoint's own) split the batch — the first retired the
    ///   earlier records, the second this persist's appends;
    /// - after one fsync, records still unsynced (an append that
    ///   followed a size-triggered rotate) were not covered by it.
    pub fn on_persist(&mut self, d: &PersistDelta) -> Option<TraceKind> {
        self.disk_appends += d.appends;
        self.disk_fsyncs += d.fsyncs;
        self.disk_bytes_written += d.bytes_written;
        self.checkpoints_taken += d.checkpoints;
        if d.fsyncs > 0 && d.unsynced_before > 0 {
            self.group_fsyncs += d.fsyncs;
            if d.fsyncs > 1 {
                self.records_per_fsync.record(d.unsynced_before);
                self.records_per_fsync.record(d.appends);
            } else {
                self.records_per_fsync
                    .record((d.unsynced_before + d.appends).saturating_sub(d.unsynced_after));
            }
        }
        (d.appends > 0).then_some(TraceKind::DiskAppend { bytes: d.bytes_written })
    }

    /// One covering fsync outside a persist (a pass-end flush or a
    /// flusher completion) made `covered` records durable. `covered ==
    /// 0` means an inline cut-through raced it and already retired (and
    /// accounted) those records: the fsync still happened, but counting
    /// it as a group commit too would inflate the records-per-fsync
    /// numbers.
    pub fn on_sync(&mut self, covered: u64) {
        self.disk_fsyncs += 1;
        if covered > 0 {
            self.group_fsyncs += 1;
            self.records_per_fsync.record(covered);
        }
    }

    /// A cohort reported a protocol fact. Returns the kind to record
    /// and, when the observation carries its own viewstamp, that stamp
    /// (otherwise the harness stamps the cohort's current one).
    ///
    /// Not counted here: client-visible outcomes (the harness counts
    /// them once, where the client hears them) and the leased-read
    /// latency sample (the harnesses' clocks differ).
    pub fn on_observation(&mut self, obs: &Observation) -> Option<(TraceKind, Option<Viewstamp>)> {
        match obs {
            Observation::ViewChanged { is_primary, .. } => {
                if *is_primary {
                    self.view_formations += 1;
                }
            }
            Observation::ViewChangeStarted { .. } => self.view_change_attempts += 1,
            Observation::PrepareProcessed { waited, .. } => {
                if *waited {
                    self.prepares_waited += 1;
                } else {
                    self.prepares_fast += 1;
                }
            }
            Observation::ForceAbandoned { .. } => self.forces_abandoned += 1,
            Observation::StatusChanged { from, to, .. } => {
                return Some((TraceKind::ViewState { from: from.name(), to: to.name() }, None));
            }
            Observation::ForceBegan { vs, .. } => return Some((TraceKind::ForceBegin, Some(*vs))),
            Observation::ForceFired { vs, fired, .. } => {
                return Some((TraceKind::ForceFire { fired: *fired }, Some(*vs)));
            }
            Observation::BufferFlushed { clones_saved, .. } => {
                self.buffer_clones_saved += clones_saved;
            }
            Observation::SnapshotTaken { .. } => self.snapshots_taken += 1,
            Observation::SnapshotInstalled { ticks, .. } => {
                self.snapshots_installed += 1;
                self.transfer_ticks.record(*ticks);
            }
            Observation::ChunkCorruptDropped { .. } => self.snapshot_chunks_corrupt += 1,
            Observation::ChunkRetried { .. } => self.snapshot_chunk_retries += 1,
            Observation::StatusesGced { n, .. } => self.statuses_gced += n,
            Observation::LeasedRead { .. } => self.leased_reads += 1,
            Observation::LeaseRenewed { .. } => self.lease_renewals += 1,
            Observation::LeaseReadRejected { .. } => self.lease_read_rejected += 1,
            Observation::LeaseWaitStarted { .. } => self.lease_waits_on_view_change += 1,
            Observation::TxnCommitted { .. } | Observation::TxnAborted { .. } => {}
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsr_core::cohort::Status;
    use vsr_core::snapshot::SnapDigest;
    use vsr_core::types::{Aid, CallId, GroupId, Timestamp, ViewId};
    use vsr_core::view::View;

    fn vid() -> ViewId {
        ViewId::initial(Mid(1))
    }

    fn vs() -> Viewstamp {
        Viewstamp { id: vid(), ts: Timestamp(3) }
    }

    fn chunk() -> Message {
        Message::Chunk { digest: SnapDigest([0; 16]), index: 0, total: 1, crc: 0, payload: vec![1] }
    }

    /// One observation of every variant.
    fn every_observation() -> Vec<Observation> {
        let (group, mid, aid) = (GroupId(1), Mid(1), Aid::default());
        vec![
            Observation::TxnCommitted {
                group,
                mid,
                aid,
                accesses: Vec::new(),
                vs: Viewstamp::default(),
            },
            Observation::TxnAborted { group, mid, aid },
            Observation::ViewChanged {
                group,
                mid,
                viewid: vid(),
                view: View::new(mid, Vec::new()),
                is_primary: true,
            },
            Observation::ForceAbandoned { group, mid, viewid: vid() },
            Observation::PrepareProcessed { group, aid, waited: true },
            Observation::PrepareProcessed { group, aid, waited: false },
            Observation::ViewChangeStarted { group, mid, viewid: vid() },
            Observation::StatusChanged { group, mid, from: Status::Active, to: Status::Underling },
            Observation::ForceBegan { group, mid, vs: vs() },
            Observation::ForceFired { group, mid, vs: vs(), fired: 2 },
            Observation::BufferFlushed { group, mid, sends: 2, clones_saved: 1 },
            Observation::SnapshotTaken { group, mid, vs: vs(), bytes: 10 },
            Observation::SnapshotInstalled { group, mid, chunks: 1, ticks: 5 },
            Observation::ChunkCorruptDropped { group, mid },
            Observation::ChunkRetried { group, mid },
            Observation::StatusesGced { group, mid, n: 3 },
            Observation::LeasedRead { group, mid, aid, req_id: 0, accesses: Vec::new() },
            Observation::LeaseRenewed { group, mid },
            Observation::LeaseReadRejected { group, mid },
            Observation::LeaseWaitStarted { group, mid, viewid: vid(), wait: 4 },
        ]
    }

    /// Feed every hook one input of each class it tells apart and
    /// return the metrics and the trace kinds the hooks produced.
    fn exercise_every_hook() -> (Metrics, Vec<TraceKind>) {
        let mut m = Metrics::default();
        let mut kinds = Vec::new();
        let call_id = CallId { aid: Aid::default(), seq: 0 };
        for msg in [
            Message::Query { aid: Aid::default(), reply_to: Mid(2) },
            Message::ImAlive { from: Mid(1), viewid: vid() },
            Message::Invite { viewid: vid(), manager: Mid(1) },
            chunk(),
        ] {
            kinds.push(m.on_send(Mid(2), &msg));
            kinds.push(m.on_recv(Mid(1), &msg));
        }
        let resend = [Effect::Send { to: Mid(2), msg: chunk() }];
        kinds.extend(m.on_timer(&Timer::Heartbeat, &[]));
        kinds.extend(m.on_timer(&Timer::LockWait { call_id }, &resend));
        kinds.extend(m.on_timer(&Timer::CallRetry { call_id, attempt: 1 }, &resend));
        kinds.extend(m.on_persist(&PersistDelta {
            appends: 1,
            fsyncs: 2,
            bytes_written: 64,
            checkpoints: 1,
            unsynced_before: 2,
            unsynced_after: 0,
        }));
        m.on_sync(3);
        for obs in every_observation() {
            kinds.extend(m.on_observation(&obs).map(|(kind, _)| kind));
        }
        (m, kinds)
    }

    /// Counters the hooks do not own: client outcomes and submissions
    /// (counted where the client hears them), recovery replay and
    /// in-flight depth (read off the cohort by the harness), the
    /// leased-read latency sample (harness clocks differ), and the
    /// transport and mailbox totals `Cluster::metrics()` folds in.
    const WRITTEN_BY_HARNESSES: &[&str] = &[
        "submitted",
        "committed",
        "aborted",
        "unresolved",
        "commit_latency_count",
        "records_replayed",
        "inflight_txns_count",
        "lease_read_count",
        "mailbox_drops",
        "mailbox_rejections",
        "net_frames_sent",
        "net_frames_recvd",
        "net_reconnects",
        "net_crc_rejects",
        "net_queue_drops",
        "net_deadline_hits",
        "net_queue_rejections",
        "net_frames_coalesced",
    ];

    #[test]
    fn every_hook_owned_counter_moves() {
        let (m, _) = exercise_every_hook();
        let counters = m.counters();
        for name in WRITTEN_BY_HARNESSES {
            assert!(counters.iter().any(|(n, _)| n == name), "`{name}` is not a counter");
        }
        for (name, value) in counters {
            if WRITTEN_BY_HARNESSES.contains(&name) {
                assert_eq!(value, 0, "`{name}` is harness-owned but a hook wrote it");
            } else {
                assert!(value > 0, "no hook moves `{name}`: a permanently-zero counter");
            }
        }
    }

    #[test]
    fn one_phase_commit_traffic_is_foreground() {
        // A one-group transaction's commit is PrepareCommit and its
        // CommitDone answer: request traffic, like Prepare and PrepareOk.
        let mut m = Metrics::default();
        let aid = Aid::default();
        let pset = vsr_core::pset::PSet::new();
        m.on_send(Mid(2), &Message::PrepareCommit { aid, pset, coordinator: Mid(1) });
        m.on_send(Mid(1), &Message::CommitDone { aid, group: GroupId(2) });
        assert_eq!((m.foreground_msgs, m.background_msgs, m.view_change_msgs), (2, 0, 0));
        assert_eq!(m.msgs["prepare-commit"], 1);
    }

    #[test]
    fn sends_and_timers_are_classified() {
        let (m, kinds) = exercise_every_hook();
        assert_eq!((m.foreground_msgs, m.background_msgs, m.view_change_msgs), (1, 2, 1));
        assert_eq!(m.foreground_bytes, m.bytes["query"]);
        assert_eq!(m.timeouts_fired, 2, "the heartbeat is not a timeout");
        assert_eq!(m.retransmissions, 1, "only the retry timer's send is a retransmission");
        let timers = kinds.iter().filter(|k| matches!(k, TraceKind::Timer { .. })).count();
        assert_eq!(timers, 2, "an idle fire is not traced");
    }

    fn persisted(appends: u64, fsyncs: u64, unsynced_before: u64, unsynced_after: u64) -> Metrics {
        let mut m = Metrics::default();
        let d =
            PersistDelta { appends, fsyncs, unsynced_before, unsynced_after, ..Default::default() };
        m.on_persist(&d);
        m
    }

    #[test]
    fn checkpoint_with_two_fsyncs_records_two_batches() {
        let m = persisted(1, 2, 3, 0);
        assert_eq!((m.disk_fsyncs, m.group_fsyncs, m.records_per_fsync.count()), (2, 2, 2));
        assert_eq!(m.records_per_fsync.mean(), Some(2.0), "batches of 3 and 1");
    }

    #[test]
    fn appends_left_unsynced_after_a_rotate_are_not_covered() {
        let m = persisted(1, 1, 4, 1);
        assert_eq!((m.group_fsyncs, m.records_per_fsync.mean()), (1, Some(4.0)));
        let own = persisted(1, 1, 0, 0);
        assert_eq!(own.group_fsyncs, 0, "syncing only its own append is no group commit");
    }

    #[test]
    fn superseded_sync_completion_is_no_group_commit() {
        let mut m = Metrics::default();
        m.on_sync(0);
        assert_eq!((m.disk_fsyncs, m.group_fsyncs, m.records_per_fsync.count()), (1, 0, 0));
        m.on_sync(5);
        assert_eq!((m.disk_fsyncs, m.group_fsyncs, m.records_per_fsync.count()), (2, 1, 1));
    }

    #[test]
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "every other observation must answer None, which the assert checks"
    )]
    fn only_force_observations_carry_their_own_viewstamp() {
        let mut m = Metrics::default();
        for obs in every_observation() {
            let own = match &obs {
                Observation::ForceBegan { vs, .. } | Observation::ForceFired { vs, .. } => {
                    Some(*vs)
                }
                _ => None,
            };
            assert_eq!(m.on_observation(&obs).and_then(|(_, vs)| vs), own, "{obs:?}");
        }
    }

    #[test]
    fn every_trace_kind_comes_from_a_hook() {
        let (_, kinds) = exercise_every_hook();
        for kind in TraceKind::every() {
            let name = kind.name();
            assert!(kinds.iter().any(|k| k.name() == name), "no hook produces `{name}` events");
        }
    }
}
