//! Property tests for the WAL: round-trip fidelity, torn tails, and
//! corrupted frames.
//!
//! The invariants under test, for arbitrary event sequences:
//!
//! 1. **Round trip** — with fsync-per-record and no faults, recovery
//!    returns every record in order, the greatest stable viewid, and
//!    `complete = true`.
//! 2. **Torn tail** — a crash that tears the final (un-fsynced) append
//!    recovers a *prefix* of what was written, never garbage.
//! 3. **Fail safe** — a flipped bit anywhere in a synced log must never
//!    let recovery claim `complete = true`: corruption can silently drop
//!    acknowledged records, and claiming completeness over a damaged log
//!    is exactly the unsoundness the crashed-acceptance rule exists to
//!    prevent. Whatever does come back is still a prefix — the scan
//!    never fabricates or reorders records.

use proptest::prelude::*;
use vsr_core::durable::DurableEvent;
use vsr_core::event::{EventKind, EventRecord};
use vsr_core::types::{Aid, GroupId, Mid, Timestamp, ViewId, Viewstamp};
use vsr_store::{FsyncPolicy, SimDisk, Store};

fn vid(c: u64) -> ViewId {
    ViewId { counter: c, manager: Mid(0) }
}

fn record(ts: u64) -> EventRecord {
    let v = vid(1);
    EventRecord {
        vs: Viewstamp::new(v, Timestamp(ts)),
        kind: EventKind::Committed { aid: Aid { group: GroupId(2), view: v, seq: ts } },
    }
}

/// Decode a sampled opcode stream into durable events. Records carry
/// increasing timestamps so any prefix is recognizable; checkpoints are
/// deliberately excluded so the written record sequence is directly
/// comparable to the recovered tail.
fn events_from(ops: &[u64]) -> Vec<DurableEvent> {
    let mut ts = 0;
    ops.iter()
        .map(|&op| match op % 8 {
            0 => DurableEvent::StableViewId(vid(op / 8 + 1)),
            7 => DurableEvent::Sync,
            _ => {
                ts += 1;
                DurableEvent::Record(record(ts))
            }
        })
        .collect()
}

fn written_records(events: &[DurableEvent]) -> Vec<EventRecord> {
    events
        .iter()
        .filter_map(|e| match e {
            DurableEvent::Record(r) => Some(r.clone()),
            DurableEvent::StableViewId(_) | DurableEvent::Checkpoint(_) | DurableEvent::Sync => {
                None
            }
        })
        .collect()
}

fn max_stable_viewid(events: &[DurableEvent], fallback: ViewId) -> ViewId {
    events
        .iter()
        .filter_map(|e| match e {
            DurableEvent::StableViewId(v) => Some(*v),
            DurableEvent::Record(_) | DurableEvent::Checkpoint(_) | DurableEvent::Sync => None,
        })
        .max()
        .unwrap_or(fallback)
        .max(fallback)
}

/// `PROPTEST_CASES` overrides the default sweep size; the Miri CI job
/// sets it low because interpreted execution is ~100× slower.
fn case_budget(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(case_budget(64)))]

    #[test]
    fn round_trip_every_record(ops in prop::collection::vec(0u64..64, 1..48)) {
        let events = events_from(&ops);
        let mut disk = SimDisk::new(FsyncPolicy::EveryRecord);
        for e in &events {
            disk.persist(e).unwrap();
        }
        let rs = disk.recover(vid(0));
        prop_assert!(rs.complete, "clean fsync-per-record log recovers complete");
        prop_assert_eq!(rs.tail, written_records(&events));
        prop_assert_eq!(rs.stable_viewid, max_stable_viewid(&events, vid(0)));
        prop_assert!(rs.checkpoint.is_none());
    }

    #[test]
    fn torn_tail_recovers_a_prefix(
        ops in prop::collection::vec(0u64..64, 1..48),
        keep in 0usize..64,
    ) {
        // Lazy policy: most appends stay above the sync watermark, so the
        // tear lands mid-log and may bisect a frame.
        let events = events_from(&ops);
        let mut disk = SimDisk::new(FsyncPolicy::OnStableViewIdOnly);
        for e in &events {
            disk.persist(e).unwrap();
        }
        disk.crash_torn(keep);
        let rs = disk.recover(vid(0));
        prop_assert!(!rs.complete, "a lazy policy must never claim completeness");
        let all = written_records(&events);
        prop_assert!(rs.tail.len() <= all.len());
        prop_assert_eq!(&rs.tail[..], &all[..rs.tail.len()], "recovered tail must be a prefix");
        prop_assert!(
            rs.stable_viewid <= max_stable_viewid(&events, vid(0)),
            "stable viewid cannot exceed anything written"
        );
    }

    #[test]
    fn corrupted_frame_fails_safe(
        ops in prop::collection::vec(0u64..64, 1..48),
        offset in 0usize..1 << 16,
    ) {
        // Fully synced log, then one flipped bit. Wherever it lands —
        // length, CRC, or payload; first frame or last — recovery must
        // refuse to claim completeness and must return a clean prefix.
        let events = events_from(&ops);
        let mut disk = SimDisk::new(FsyncPolicy::EveryRecord);
        for e in &events {
            disk.persist(e).unwrap();
        }
        prop_assume!(!disk.is_empty());
        disk.corrupt_bit(offset);
        let rs = disk.recover(vid(0));
        prop_assert!(!rs.complete, "a corrupted log must fail safe, not claim completeness");
        let all = written_records(&events);
        prop_assert!(rs.tail.len() <= all.len(), "corruption must never fabricate records");
        prop_assert_eq!(&rs.tail[..], &all[..rs.tail.len()], "recovered tail must be a prefix");
    }
}
