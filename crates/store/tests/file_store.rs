//! `FileStore` integration tests against a real temp directory: reopen
//! round-trips, torn tails across process "lives", mid-segment
//! corruption, checkpoint rotation + GC, and fsync accounting.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "these tests exercise FileStore against a real temp directory"
)]

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::PathBuf;

use vsr_core::durable::{Checkpoint, DurableEvent};
use vsr_core::event::{EventKind, EventRecord};
use vsr_core::gstate::GroupState;
use vsr_core::history::History;
use vsr_core::types::{Aid, GroupId, Mid, Timestamp, ViewId, Viewstamp};
use vsr_core::view::View;
use vsr_store::{FileStore, FsyncPolicy, Store};

fn vid(c: u64) -> ViewId {
    ViewId { counter: c, manager: Mid(0) }
}

fn record(ts: u64) -> EventRecord {
    let v = vid(1);
    EventRecord {
        vs: Viewstamp::new(v, Timestamp(ts)),
        kind: EventKind::Committed { aid: Aid { group: GroupId(1), view: v, seq: ts } },
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

/// A fresh scratch directory, removed when dropped.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("vsr-filestore-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Paths of the segment files currently in `dir`, ascending.
fn segments(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn round_trip_across_reopen() {
    let tmp = TmpDir::new("round-trip");
    let mut store = FileStore::open(&tmp.0, FsyncPolicy::EveryRecord).unwrap();
    store.persist(&DurableEvent::StableViewId(vid(1))).unwrap();
    store.persist(&DurableEvent::Record(record(1))).unwrap();
    store.persist(&DurableEvent::Record(record(2))).unwrap();
    drop(store);

    let mut reopened = FileStore::open(&tmp.0, FsyncPolicy::EveryRecord).unwrap();
    let rs = reopened.recover(vid(0));
    assert!(rs.complete, "clean fsync-per-record log recovers complete");
    assert_eq!(rs.stable_viewid, vid(1));
    assert_eq!(rs.tail, vec![record(1), record(2)]);
    assert!(rs.checkpoint.is_none());
}

#[test]
fn torn_final_frame_is_benign_and_truncated() {
    let tmp = TmpDir::new("torn-tail");
    let mut store = FileStore::open(&tmp.0, FsyncPolicy::EveryRecord).unwrap();
    store.persist(&DurableEvent::StableViewId(vid(1))).unwrap();
    store.persist(&DurableEvent::Record(record(1))).unwrap();
    let torn_segment = tmp.0.join(segments(&tmp.0).pop().unwrap());
    drop(store);

    // A crash mid-append: the final frame's header claims more bytes
    // than ever reached the platter.
    let mut f = OpenOptions::new().append(true).open(&torn_segment).unwrap();
    f.write_all(&[200, 0, 0, 0, 0xde, 0xad]).unwrap();
    drop(f);

    // Second life: open() creates a newer (empty) segment before
    // recovery — the tear must still count as final, stay benign, and
    // everything fsynced before it must come back.
    let mut second = FileStore::open(&tmp.0, FsyncPolicy::EveryRecord).unwrap();
    let rs = second.recover(vid(0));
    assert!(rs.complete, "torn final append is the benign crash case");
    assert_eq!(rs.tail, vec![record(1)]);
    second.persist(&DurableEvent::Record(record(2))).unwrap();
    drop(second);

    // Third life: the tear was truncated away, so the old segment is
    // clean mid-log and the second life's appends extend the tail.
    let mut third = FileStore::open(&tmp.0, FsyncPolicy::EveryRecord).unwrap();
    let rs = third.recover(vid(0));
    assert!(rs.complete, "truncated tear must not haunt later recoveries");
    assert_eq!(rs.tail, vec![record(1), record(2)]);
}

#[test]
fn corrupt_mid_segment_frame_fails_safe() {
    let tmp = TmpDir::new("corrupt");
    let mut store = FileStore::open(&tmp.0, FsyncPolicy::EveryRecord).unwrap();
    store.persist(&DurableEvent::Record(record(1))).unwrap();
    store.persist(&DurableEvent::Record(record(2))).unwrap();
    store.persist(&DurableEvent::Record(record(3))).unwrap();
    let segment = tmp.0.join(segments(&tmp.0).pop().unwrap());
    drop(store);

    // Flip one bit inside the second frame's payload (the three frames
    // are identically sized, so the offset is exact): the CRC check must
    // stop the scan there, keep the clean prefix, and refuse to claim
    // completeness.
    let mut bytes = fs::read(&segment).unwrap();
    let frame_len = bytes.len() / 3;
    bytes[frame_len + vsr_store::frame::HEADER_BYTES + 2] ^= 0x10;
    fs::write(&segment, &bytes).unwrap();

    let mut reopened = FileStore::open(&tmp.0, FsyncPolicy::EveryRecord).unwrap();
    let rs = reopened.recover(vid(0));
    assert!(!rs.complete, "corruption must fail safe");
    assert!(rs.tail.len() < 3, "the damaged frame and everything after it are dropped");
    for (i, r) in rs.tail.iter().enumerate() {
        assert_eq!(r, &record(i as u64 + 1), "surviving tail is a clean prefix");
    }
}

#[test]
fn checkpoint_rotates_and_gcs_older_segments() {
    let tmp = TmpDir::new("checkpoint-gc");
    let mut store = FileStore::open(&tmp.0, FsyncPolicy::EveryRecord).unwrap();
    store.persist(&DurableEvent::StableViewId(vid(1))).unwrap();
    for ts in 1..=5 {
        store.persist(&DurableEvent::Record(record(ts))).unwrap();
    }
    assert_eq!(segments(&tmp.0).len(), 1);
    store.persist(&DurableEvent::Checkpoint(checkpoint(2))).unwrap();
    store.persist(&DurableEvent::Record(record(6))).unwrap();
    assert_eq!(
        segments(&tmp.0),
        vec!["wal-000001.seg".to_string()],
        "checkpoint rotates and deletes the superseded segment"
    );
    assert_eq!(store.metrics().checkpoints, 1);
    drop(store);

    let mut reopened = FileStore::open(&tmp.0, FsyncPolicy::EveryRecord).unwrap();
    let rs = reopened.recover(vid(0));
    assert!(rs.complete);
    assert_eq!(rs.checkpoint.as_ref().unwrap().viewid, vid(2));
    assert_eq!(rs.tail, vec![record(6)], "tail restarts after the checkpoint");
    assert_eq!(rs.stable_viewid, vid(2), "checkpoint carries the stable viewid");
}

#[test]
fn segment_size_triggers_rotation() {
    let tmp = TmpDir::new("rotation");
    let mut store =
        FileStore::open_with_segment_bytes(&tmp.0, FsyncPolicy::EveryRecord, 64).unwrap();
    for ts in 1..=8 {
        store.persist(&DurableEvent::Record(record(ts))).unwrap();
    }
    assert!(segments(&tmp.0).len() > 1, "tiny threshold must rotate");
    drop(store);

    let mut reopened = FileStore::open(&tmp.0, FsyncPolicy::EveryRecord).unwrap();
    let rs = reopened.recover(vid(0));
    assert!(rs.complete);
    assert_eq!(rs.tail, (1..=8).map(record).collect::<Vec<_>>());
}

#[test]
fn fsync_policy_governs_sync_count() {
    let tmp = TmpDir::new("fsync-count");
    let run = |name: &str, policy: FsyncPolicy| {
        let dir = tmp.0.join(name);
        let mut store = FileStore::open(&dir, policy).unwrap();
        store.persist(&DurableEvent::StableViewId(vid(1))).unwrap();
        for ts in 1..=4 {
            store.persist(&DurableEvent::Record(record(ts))).unwrap();
        }
        store.persist(&DurableEvent::Sync).unwrap();
        store.metrics()
    };
    let every = run("every", FsyncPolicy::EveryRecord);
    let force = run("force", FsyncPolicy::OnForce);
    let lazy = run("lazy", FsyncPolicy::OnStableViewIdOnly);
    assert_eq!(every.fsyncs, 5, "one fsync per appended frame");
    assert_eq!(force.fsyncs, 2, "stable-viewid write plus the Sync barrier");
    assert_eq!(lazy.fsyncs, 1, "only the stable-viewid write");
    assert_eq!(every.appends, 5);
    assert_eq!(every.appends, force.appends);
    assert_eq!(force.appends, lazy.appends);
}

#[test]
fn sync_handle_covers_frames_counted_at_probe_time() {
    let tmp = TmpDir::new("sync-handle");
    let policy = FsyncPolicy::Group { max_batch: 64, max_delay_ms: 5 };
    let mut store = FileStore::open(&tmp.0, policy).unwrap();
    for ts in 1..=3 {
        store.persist(&DurableEvent::Record(record(ts))).unwrap();
    }
    // Probe-then-detach, as the runtime's flusher does under the store
    // lock: the covered count and the handle are taken together.
    let covered = store.unsynced_records();
    assert_eq!(covered, 3);
    let handle = store.sync_handle().expect("file store detaches a sync handle");
    // Frames appended after the handle was taken must NOT be retired by
    // this sync — the fsync may have raced their writes.
    for ts in 4..=5 {
        store.persist(&DurableEvent::Record(record(ts))).unwrap();
    }
    handle.sync().expect("covering fsync");
    assert!(store.note_synced(covered), "no inline sync intervened: retirement applies");
    assert_eq!(store.unsynced_records(), 2, "in-flight appends await the next covering sync");
    assert_eq!(store.metrics().fsyncs, 1, "the covering sync is accounted");
    // The remainder is retired by the next probe/sync cycle, after
    // which an inline flush is a no-op.
    let covered = store.unsynced_records();
    let handle = store.sync_handle().unwrap();
    handle.sync().unwrap();
    assert!(store.note_synced(covered));
    assert_eq!(store.unsynced_records(), 0);
    let before = store.metrics().fsyncs;
    store.flush().unwrap();
    assert_eq!(store.metrics().fsyncs, before, "clean store: inline flush is a no-op");
    // Everything synced through handles is on disk for the next life.
    drop(store);
    let mut reopened = FileStore::open(&tmp.0, policy).unwrap();
    let rs = reopened.recover(vid(0));
    assert_eq!(rs.tail, (1..=5).map(record).collect::<Vec<_>>());
}

#[test]
fn stale_note_synced_is_superseded_by_inline_sync() {
    // Regression: the flusher's fsync races an inline sync. The handle
    // is taken covering N frames; while its fsync is in flight a
    // cut-through event (here a stable viewid) syncs inline — retiring
    // everything — and newer frames are appended after it. The stale
    // completion must NOT retire those newer frames: doing so cleared
    // `dirty`, made later flushes no-ops, and let `rotate` abandon the
    // segment with un-fsynced — yet eventually acknowledged — records.
    let tmp = TmpDir::new("stale-note-synced");
    let policy = FsyncPolicy::Group { max_batch: 64, max_delay_ms: 5 };
    let mut store = FileStore::open(&tmp.0, policy).unwrap();
    for ts in 1..=3 {
        store.persist(&DurableEvent::Record(record(ts))).unwrap();
    }
    let covered = store.unsynced_records();
    assert_eq!(covered, 3);
    let handle = store.sync_handle().expect("file store detaches a sync handle");
    // Inline cut-through while the handle's fsync is (notionally) in
    // flight: syncs the log and resets the unsynced count...
    store.persist(&DurableEvent::StableViewId(vid(1))).unwrap();
    assert_eq!(store.unsynced_records(), 0);
    // ...then newer frames pile up behind it.
    for ts in 4..=5 {
        store.persist(&DurableEvent::Record(record(ts))).unwrap();
    }
    assert_eq!(store.unsynced_records(), 2);
    handle.sync().expect("covering fsync");
    assert!(!store.note_synced(covered), "superseded completion reports itself stale");
    assert_eq!(store.unsynced_records(), 2, "newer frames are not retired by the stale sync");
    // The store stayed dirty, so the next covering flush really
    // reaches the device instead of no-opping.
    let before = store.metrics().fsyncs;
    store.flush().unwrap();
    assert_eq!(store.metrics().fsyncs, before + 1, "store stayed dirty: the flush fsyncs");
    assert_eq!(store.unsynced_records(), 0);
    drop(store);
    let mut reopened = FileStore::open(&tmp.0, policy).unwrap();
    let rs = reopened.recover(vid(0));
    assert_eq!(rs.tail, (1..=5).map(record).collect::<Vec<_>>());
}
