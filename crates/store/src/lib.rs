//! # Durable storage for Viewstamped Replication cohorts
//!
//! The paper puts no disk on the critical path: Section 4.2 requires only
//! the viewid on stable storage, and a recovered cohort rejoins with a
//! crash-acceptance, having "forgotten its gstate". That minimum makes a
//! whole-group crash a permanent catastrophe. This crate implements the
//! other end of the tradeoff: a segmented, CRC-framed append-only
//! write-ahead log of [`DurableEvent`]s plus periodic state checkpoints,
//! behind the [`Store`] trait, with two backends:
//!
//! * [`FileStore`] — real files, one segment per `wal-NNNNNN.seg`, with a
//!   configurable [`FsyncPolicy`];
//! * [`SimDisk`] — an in-memory byte-accurate disk for the deterministic
//!   simulator, fault-injectable (lost un-fsynced suffix on crash, torn
//!   final frame, bit-flip corruption caught by the CRC).
//!
//! The cohort core stays sans-I/O: it emits
//! `Effect::Persist(DurableEvent)` and consumes a
//! [`RecoveredState`](vsr_core::durable::RecoveredState) on restart; this
//! crate is the runtime side of that contract.
//!
//! **Safety rule.** A recovered state is marked *complete* — allowing the
//! cohort to restore the checkpoint, replay the tail, and answer a
//! *normal* acceptance — only under [`FsyncPolicy::EveryRecord`] with a
//! clean scan. Under the lazier policies a synced *prefix* survives a
//! crash, and a cohort recovering a prefix while claiming to be up to
//! date could win view formation alongside a lagging backup and lose a
//! forced commit. Those policies recover the paper's minimum instead:
//! stable viewid only, crash-acceptance.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod file;
pub mod frame;
pub mod sim;

pub use file::FileStore;
pub use sim::SimDisk;

use vsr_core::durable::{DurabilityGate, DurableEvent, RecoveredState};
use vsr_core::types::ViewId;

/// When the log is synced to stable storage.
///
/// Section 3.7 maps the event records one-to-one onto the records a
/// conventional transaction system forces to stable storage; these
/// policies span the spectrum from that conventional system back to the
/// paper's no-disk design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every appended record. The only policy whose recovery
    /// is *complete*: nothing acknowledged is ever lost, so a recovered
    /// cohort may rejoin up to date.
    EveryRecord,
    /// Sync at force points (`DurableEvent::Sync`), view changes, and
    /// checkpoints — the cadence of a conventional redo log. Only a
    /// primary emits `Sync` when it forces, so what survives a crash is
    /// the primary's log up to its last force plus every viewid and
    /// checkpoint; a backup's records stay unsynced until its next view
    /// change or checkpoint. Recovery is crash-acceptance (see the
    /// crate-level safety rule).
    OnForce,
    /// Sync only when a viewid or checkpoint is written — the paper's
    /// Section 4.2 minimum ("the only information that a cohort needs to
    /// remember stably is the viewid"). Record appends ride along
    /// unsynced, keeping the disk off the commit path entirely.
    #[default]
    OnStableViewIdOnly,
    /// Group commit: record appends and force barriers accumulate
    /// unsynced; one covering sync is issued when `max_batch` frames
    /// have piled up, when the harness calls [`Store::flush`] (the
    /// simulator at the end of each handler pass, the runtime from the
    /// cohort's flusher thread), or when a viewid/checkpoint forces
    /// immediate durability. The only policy that promises its records
    /// a covering sync before they are acknowledged: harnesses run a
    /// [`DurabilityGate`] in front of it (see
    /// [`Store::durability_gate`]), which keeps the
    /// acknowledged-implies-durable contract while paying one fsync per
    /// batch instead of one per force point.
    Group {
        /// Sync as soon as this many frames are unsynced.
        max_batch: u32,
        /// Unused: no code reads it. The field stays only because
        /// `perfbench` constructs the policy with it.
        max_delay_ms: u64,
    },
}

impl FsyncPolicy {
    /// Whether this `event` requires an *immediate* sync under the
    /// policy. `Group` defers record and force-barrier syncs to the
    /// batch machinery ([`Store::flush`] / `max_batch`); only viewids
    /// and checkpoints cut through.
    fn syncs_on(self, event: &DurableEvent) -> bool {
        match self {
            FsyncPolicy::EveryRecord => true,
            FsyncPolicy::OnForce => !matches!(event, DurableEvent::Record(_)),
            FsyncPolicy::OnStableViewIdOnly | FsyncPolicy::Group { .. } => {
                matches!(event, DurableEvent::StableViewId(_) | DurableEvent::Checkpoint(_))
            }
        }
    }

    /// The `max_batch` threshold when this is a group-commit policy.
    pub(crate) fn group_batch(self) -> Option<u64> {
        match self {
            FsyncPolicy::Group { max_batch, .. } => Some(u64::from(max_batch.max(1))),
            FsyncPolicy::EveryRecord | FsyncPolicy::OnForce | FsyncPolicy::OnStableViewIdOnly => {
                None
            }
        }
    }

    /// Short name for tables and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::EveryRecord => "every-record",
            FsyncPolicy::OnForce => "on-force",
            FsyncPolicy::OnStableViewIdOnly => "on-stable-viewid-only",
            FsyncPolicy::Group { .. } => "group",
        }
    }
}

/// A failed store operation. I/O failure is fatal to the *cohort* — a
/// crashed cohort is exactly what the protocol tolerates — but must not
/// be fatal to the process: the runtime turns this into a clean
/// crash-and-recover of the affected cohort, and never acknowledges a
/// batch whose covering sync failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// The operation that failed (`"append"`, `"fsync"`, `"rotate"`).
    pub op: &'static str,
    /// Backend-specific description of the failure.
    pub detail: String,
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "wal {} failed: {}", self.op, self.detail)
    }
}

impl std::error::Error for StoreError {}

/// Disk-side counters, mirrored into the simulator's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreMetrics {
    /// Frames appended to the log.
    pub appends: u64,
    /// Syncs issued (fsync for files, watermark advance for `SimDisk`).
    pub fsyncs: u64,
    /// Bytes written, including framing overhead.
    pub bytes_written: u64,
    /// Checkpoint frames written.
    pub checkpoints: u64,
}

impl StoreMetrics {
    /// Counter deltas accumulated since an `earlier` snapshot of this
    /// store's metrics. Harnesses use this to attribute disk activity
    /// to the persist effect that caused it (metrics aggregation and
    /// `disk-append` trace events).
    pub fn since(&self, earlier: &StoreMetrics) -> StoreMetrics {
        StoreMetrics {
            appends: self.appends.saturating_sub(earlier.appends),
            fsyncs: self.fsyncs.saturating_sub(earlier.fsyncs),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            checkpoints: self.checkpoints.saturating_sub(earlier.checkpoints),
        }
    }
}

/// One covering sync, detachable from the store's lock.
///
/// Group commit wants the fsync *off* the thread that runs the cohort:
/// while the device flushes (hundreds of microseconds), the cohort
/// should keep appending the next batch. A handle taken via
/// [`Store::sync_handle`] is shipped to a flusher thread and synced
/// there without holding the store's mutex; the store keeps accepting
/// appends concurrently.
pub trait SyncHandle: Send {
    /// Make every frame appended *before this handle was taken*
    /// durable. Blocks until the device confirms. Frames appended
    /// after the handle was taken may or may not ride along; callers
    /// must not count them as covered.
    fn sync(&self) -> Result<(), StoreError>;
}

/// A cohort's stable store: executes `Effect::Persist` and rebuilds a
/// [`RecoveredState`] after a crash.
///
/// A store is bound to exactly one cohort; sharing one log between
/// cohorts would interleave their histories.
pub trait Store {
    /// Make `event` durable according to the store's fsync policy.
    ///
    /// Under [`FsyncPolicy::Group`] a record append may return with its
    /// frame *unsynced*; the caller's [`DurabilityGate`] withholds the
    /// completion until a later call (another persist crossing
    /// `max_batch`, a viewid or checkpoint, or an explicit
    /// [`flush`](Store::flush)) reports the covering sync succeeded.
    ///
    /// An `Err` is fatal to the cohort, not the process: the caller
    /// must drop every unacknowledged completion and crash-recover the
    /// cohort (the protocol already tolerates exactly that failure).
    fn persist(&mut self, event: &DurableEvent) -> Result<(), StoreError>;

    /// Sync any unsynced appends now — the group-commit barrier. A
    /// no-op when the log is clean. On `Err` the batch is *not*
    /// durable and must not be acknowledged.
    fn flush(&mut self) -> Result<(), StoreError>;

    /// Frames appended since the last successful sync. Harnesses
    /// sample this just before a covering sync to feed the
    /// `records_per_fsync` histogram and to decide whether a sync is
    /// needed at all.
    fn unsynced_records(&self) -> u64;

    /// Take a handle that can issue the next covering sync without
    /// holding this store's lock, or `None` when the store cannot
    /// detach one (the default; [`SimDisk`]'s sync is a watermark bump).
    /// The runtime's flusher thread asks for a handle before every
    /// covering sync and, on `None`, calls [`flush`](Store::flush)
    /// under the lock instead. The contract: every frame counted by
    /// [`unsynced_records`](Store::unsynced_records) under the *same
    /// lock hold* is covered by the handle's
    /// [`sync`](SyncHandle::sync); on success the caller reports that
    /// count back through [`note_synced`](Store::note_synced). A
    /// failed handle sync is as fatal as a failed [`flush`](Store::flush).
    fn sync_handle(&mut self) -> Option<Box<dyn SyncHandle>> {
        None
    }

    /// A sync issued through [`sync_handle`](Store::sync_handle)
    /// succeeded for `covered` frames: retire them from the unsynced
    /// count (frames appended while the sync was in flight stay
    /// unsynced) and account the fsync. Returns whether the retirement
    /// applied — `false` means an inline sync ran after the handle was
    /// taken and already covered (a superset of) these frames, so the
    /// completion was ignored; the caller must not credit it as a
    /// group commit of its own. No-op (returning `false`) for stores
    /// that never hand out a handle.
    fn note_synced(&mut self, _covered: u64) -> bool {
        false
    }

    /// The gate a harness must run in front of this store's cohort:
    /// `Some` only under [`FsyncPolicy::Group`], the one policy that
    /// leaves records unsynced yet promises acknowledgements wait for
    /// their covering sync. Under the other policies nothing is gated
    /// or flushed by the harness: `EveryRecord` syncs inline, and the
    /// lazy policies leave their unsynced suffix exposed by design
    /// (their recovery is crash-acceptance).
    fn durability_gate(&self) -> Option<DurabilityGate> {
        matches!(self.policy(), FsyncPolicy::Group { .. })
            .then(|| DurabilityGate::new(self.metrics().appends, self.unsynced_records()))
    }

    /// Arm failure injection: the next `n` sync attempts fail. Only
    /// the simulated backend implements this; real backends ignore it.
    fn fail_next_syncs(&mut self, _n: u64) {}

    /// Rebuild the recovered state from whatever survived. `fallback` is
    /// the viewid to report when the log holds no stable viewid at all
    /// (a cohort that crashed before its first persist, or lost its
    /// disk).
    fn recover(&mut self, fallback: ViewId) -> RecoveredState;

    /// The store's fsync policy.
    fn policy(&self) -> FsyncPolicy;

    /// Counters since construction.
    fn metrics(&self) -> StoreMetrics;
}

/// Fold a scanned event sequence into a [`RecoveredState`]: the latest
/// checkpoint wins, records after it form the tail, and the stable
/// viewid is the maximum over explicit writes and checkpoint viewids.
/// `clean` is false when the scan hit corruption (not a torn tail — torn
/// frames were never acknowledged and are safe to drop).
pub(crate) fn assemble(
    events: Vec<DurableEvent>,
    clean: bool,
    policy: FsyncPolicy,
    fallback: ViewId,
) -> RecoveredState {
    let mut stable: Option<ViewId> = None;
    let mut checkpoint = None;
    let mut tail = Vec::new();
    for event in events {
        match event {
            DurableEvent::StableViewId(v) => stable = Some(stable.map_or(v, |s| s.max(v))),
            DurableEvent::Checkpoint(cp) => {
                stable = Some(stable.map_or(cp.viewid, |s| s.max(cp.viewid)));
                checkpoint = Some(cp);
                tail.clear();
            }
            DurableEvent::Record(r) => tail.push(r),
            DurableEvent::Sync => {}
        }
    }
    RecoveredState {
        stable_viewid: stable.unwrap_or(fallback),
        checkpoint,
        tail,
        complete: clean && policy == FsyncPolicy::EveryRecord,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsr_core::durable::Checkpoint;
    use vsr_core::event::{EventKind, EventRecord};
    use vsr_core::gstate::GroupState;
    use vsr_core::history::History;
    use vsr_core::types::{Aid, GroupId, Mid, Timestamp, Viewstamp};
    use vsr_core::view::View;

    fn vid(c: u64) -> ViewId {
        ViewId { counter: c, manager: Mid(0) }
    }

    fn record(c: u64, ts: u64) -> EventRecord {
        EventRecord {
            vs: Viewstamp::new(vid(c), Timestamp(ts)),
            kind: EventKind::Committed { aid: Aid { group: GroupId(1), view: vid(c), seq: ts } },
        }
    }

    fn checkpoint(c: u64) -> Checkpoint {
        let mut history = History::new();
        history.open_view(vid(c));
        Checkpoint {
            viewid: vid(c),
            view: View::new(Mid(0), vec![Mid(1)]),
            history,
            gstate: GroupState::new(),
        }
    }

    #[test]
    fn latest_checkpoint_wins_and_resets_tail() {
        let events = vec![
            DurableEvent::StableViewId(vid(1)),
            DurableEvent::Checkpoint(checkpoint(1)),
            DurableEvent::Record(record(1, 1)),
            DurableEvent::Checkpoint(checkpoint(2)),
            DurableEvent::Record(record(2, 1)),
            DurableEvent::Record(record(2, 2)),
        ];
        let rs = assemble(events, true, FsyncPolicy::EveryRecord, vid(0));
        assert_eq!(rs.stable_viewid, vid(2));
        assert_eq!(rs.checkpoint.unwrap().viewid, vid(2));
        assert_eq!(rs.tail, vec![record(2, 1), record(2, 2)]);
        assert!(rs.complete);
    }

    #[test]
    fn only_every_record_is_complete() {
        for (policy, complete) in [
            (FsyncPolicy::EveryRecord, true),
            (FsyncPolicy::OnForce, false),
            (FsyncPolicy::OnStableViewIdOnly, false),
            (FsyncPolicy::Group { max_batch: 32, max_delay_ms: 5 }, false),
        ] {
            let rs = assemble(vec![DurableEvent::StableViewId(vid(1))], true, policy, vid(0));
            assert_eq!(rs.complete, complete, "{}", policy.name());
        }
    }

    #[test]
    fn corruption_clears_completeness() {
        let rs = assemble(
            vec![DurableEvent::StableViewId(vid(3))],
            false,
            FsyncPolicy::EveryRecord,
            vid(0),
        );
        assert!(!rs.complete);
        assert_eq!(rs.stable_viewid, vid(3));
    }

    #[test]
    fn empty_log_falls_back() {
        let rs = assemble(Vec::new(), true, FsyncPolicy::EveryRecord, vid(7));
        assert_eq!(rs.stable_viewid, vid(7));
        assert!(rs.checkpoint.is_none());
    }

    #[test]
    fn stable_viewid_is_max_of_writes_and_checkpoints() {
        let events =
            vec![DurableEvent::Checkpoint(checkpoint(2)), DurableEvent::StableViewId(vid(5))];
        let rs = assemble(events, true, FsyncPolicy::EveryRecord, vid(0));
        assert_eq!(rs.stable_viewid, vid(5));
        // The checkpoint is older than the stable viewid; Cohort::recover
        // refuses to restore it (fail safe) — but the store reports facts.
        assert_eq!(rs.checkpoint.unwrap().viewid, vid(2));
    }
}
