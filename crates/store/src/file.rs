//! File-backed segmented write-ahead log.
//!
//! A store directory holds segments named `wal-NNNNNN.seg`, appended in
//! index order. Opening a store always starts a *new* segment (index
//! `max existing + 1`) so a crashed final write never shares a file with
//! fresh appends. A checkpoint rotates to a new segment whose first
//! frame is the checkpoint itself, then deletes the older segments —
//! everything before a checkpoint is re-derivable from it, so the GC is
//! safe once the checkpoint frame is fsynced.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "FileStore is the real-disk half of the Store trait; everything deterministic \
              lives in sim.rs"
)]

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::frame::{frame, scan, ScanEnd};
use crate::{assemble, FsyncPolicy, Store, StoreError, StoreMetrics, SyncHandle};
use vsr_core::durable::{DurableEvent, RecoveredState};
use vsr_core::types::ViewId;

/// Rotate to a new segment once the current one exceeds this many bytes.
const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Segmented on-disk WAL implementing [`Store`].
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_bytes: u64,
    /// Index of the segment currently being appended.
    index: u64,
    /// Open handle for the current segment.
    segment: File,
    /// Bytes written to the current segment so far.
    written: u64,
    /// Whether the current segment has unsynced appends.
    dirty: bool,
    /// Frames appended since the last successful sync (spans segment
    /// rotations only transiently — `rotate` syncs first).
    unsynced: u64,
    /// Bumped by every inline fsync. A detached sync handle snapshots
    /// this at take time; a completion whose snapshot is stale was
    /// superseded by an inline sync and must not retire anything.
    sync_gen: u64,
    /// `sync_gen` when the most recent [`sync_handle`](Store::sync_handle)
    /// was taken (one handle outstanding at a time — the flusher's
    /// probe/sync/retire cycle).
    handle_gen: u64,
    metrics: StoreMetrics,
}

fn io_err(op: &'static str, err: std::io::Error) -> StoreError {
    StoreError { op, detail: err.to_string() }
}

/// A duplicated descriptor of the current segment, handed to the
/// runtime's flusher thread so the covering fsync runs while the
/// cohort keeps appending through the store's own handle. `fsync` on a
/// duplicate flushes the *inode*: every byte written to the segment
/// before the call — which includes every frame counted as unsynced
/// when the handle was taken — is covered.
#[derive(Debug)]
struct SegmentSyncHandle(File);

impl SyncHandle for SegmentSyncHandle {
    fn sync(&self) -> Result<(), StoreError> {
        self.0.sync_data().map_err(|e| io_err("fsync", e))
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.seg"))
}

/// List existing segment indices in `dir`, ascending.
fn segment_indices(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut indices = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(idx) = name.strip_prefix("wal-").and_then(|s| s.strip_suffix(".seg")) {
            if let Ok(idx) = idx.parse::<u64>() {
                indices.push(idx);
            }
        }
    }
    indices.sort_unstable();
    Ok(indices)
}

impl FileStore {
    /// Open (creating if needed) a store in `dir` with the default
    /// segment size. Always begins a fresh segment; existing segments
    /// are read only by [`recover`](Store::recover).
    pub fn open(dir: impl Into<PathBuf>, policy: FsyncPolicy) -> std::io::Result<Self> {
        Self::open_with_segment_bytes(dir, policy, DEFAULT_SEGMENT_BYTES)
    }

    /// [`open`](FileStore::open) with an explicit rotation threshold
    /// (useful for exercising rotation in tests).
    pub fn open_with_segment_bytes(
        dir: impl Into<PathBuf>,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let index = segment_indices(&dir)?.last().map_or(0, |i| i + 1);
        let segment =
            OpenOptions::new().create_new(true).append(true).open(segment_path(&dir, index))?;
        Ok(FileStore {
            dir,
            policy,
            segment_bytes,
            index,
            segment,
            written: 0,
            dirty: false,
            unsynced: 0,
            sync_gen: 0,
            handle_gen: 0,
            metrics: StoreMetrics::default(),
        })
    }

    /// Directory this store appends into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sync unsynced appends. On failure the store stays dirty: the
    /// frames may or may not be on the platter, so nothing covered by
    /// this sync may be acknowledged, and the cohort must crash-recover
    /// (the WAL scan then reports whatever actually survived).
    fn sync(&mut self) -> Result<(), StoreError> {
        if self.dirty {
            self.segment.sync_data().map_err(|e| io_err("fsync", e))?;
            self.dirty = false;
            self.unsynced = 0;
            self.sync_gen += 1;
            self.metrics.fsyncs += 1;
        }
        Ok(())
    }

    /// Begin a new segment at `index + 1`.
    fn rotate(&mut self) -> Result<(), StoreError> {
        // Don't let unsynced bytes linger in an abandoned segment where
        // no later sync call would reach them.
        self.sync()?;
        self.index += 1;
        self.segment = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(&self.dir, self.index))
            .map_err(|e| io_err("rotate", e))?;
        self.written = 0;
        Ok(())
    }

    /// Delete every segment older than the current one. Called after a
    /// checkpoint frame is durably the first frame of the current
    /// segment, which makes the older segments redundant. Best-effort
    /// throughout: a leftover segment is wasted space, not a
    /// correctness problem — recovery reads in order and the latest
    /// checkpoint wins.
    fn gc_older_segments(&mut self) {
        let Ok(indices) = segment_indices(&self.dir) else { return };
        for idx in indices {
            if idx < self.index {
                let _ = fs::remove_file(segment_path(&self.dir, idx));
            }
        }
    }

    fn append(&mut self, event: &DurableEvent) -> Result<(), StoreError> {
        let bytes = frame(event);
        self.segment.write_all(&bytes).map_err(|e| io_err("append", e))?;
        self.written += bytes.len() as u64;
        self.dirty = true;
        self.unsynced += 1;
        self.metrics.appends += 1;
        self.metrics.bytes_written += bytes.len() as u64;
        Ok(())
    }
}

impl Store for FileStore {
    fn persist(&mut self, event: &DurableEvent) -> Result<(), StoreError> {
        match event {
            DurableEvent::Checkpoint(_) => {
                // Checkpoint: rotate so the checkpoint is the first
                // frame of its segment, sync it, then GC the history it
                // supersedes.
                if self.written > 0 {
                    self.rotate()?;
                }
                self.append(event)?;
                self.metrics.checkpoints += 1;
                self.sync()?;
                self.gc_older_segments();
                return Ok(());
            }
            DurableEvent::Sync => {}
            DurableEvent::Record(_) | DurableEvent::StableViewId(_) => {
                if self.written >= self.segment_bytes {
                    self.rotate()?;
                }
                self.append(event)?;
            }
        }
        if self.policy.syncs_on(event)
            || self.policy.group_batch().is_some_and(|max| self.unsynced >= max)
        {
            self.sync()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.sync()
    }

    fn unsynced_records(&self) -> u64 {
        self.unsynced
    }

    fn sync_handle(&mut self) -> Option<Box<dyn SyncHandle>> {
        // Every unsynced frame lives in the *current* segment —
        // `rotate` syncs before swapping files — so a duplicate of its
        // descriptor covers them all. A failed duplicate falls back to
        // the inline [`flush`](Store::flush) path (the runtime's
        // flusher degrades to flushing under the lock).
        let handle = self.segment.try_clone().ok()?;
        self.handle_gen = self.sync_gen;
        Some(Box::new(SegmentSyncHandle(handle)))
    }

    fn note_synced(&mut self, covered: u64) -> bool {
        // The physical fsync happened either way.
        self.metrics.fsyncs += 1;
        // If an inline sync ran after the handle was taken (max_batch
        // crossing, viewid/checkpoint cut-through, or rotate's covering
        // sync), it already retired a superset of the handle's frames
        // and `unsynced` now counts only *newer* appends this fsync may
        // have raced. Retiring those against a stale completion would
        // clear `dirty` for frames that never reached the platter —
        // and rotate would then abandon them unsynced forever. Ignore
        // the stale completion instead.
        if self.handle_gen != self.sync_gen {
            return false;
        }
        // No inline sync intervened: every frame appended since the
        // handle was taken is still counted here, so retiring exactly
        // `covered` leaves the in-flight remainder unsynced (the fsync
        // may have raced their writes) and `unsynced == 0` proves the
        // segment is genuinely clean.
        self.unsynced = self.unsynced.saturating_sub(covered);
        if self.unsynced == 0 {
            self.dirty = false;
        }
        true
    }

    fn recover(&mut self, fallback: ViewId) -> RecoveredState {
        // Read every non-empty segment. Empty ones are skipped when
        // deciding whether a torn frame is "final": `open` creates a
        // fresh empty segment *before* recovery runs, and a genuinely
        // torn last write of the previous life must not be demoted to
        // mid-log corruption by that newer, still-empty file.
        let mut segments = Vec::new();
        for idx in segment_indices(&self.dir).expect("wal dir list") {
            let mut bytes = Vec::new();
            File::open(segment_path(&self.dir, idx))
                .and_then(|mut f| f.read_to_end(&mut bytes))
                .expect("wal segment read");
            if !bytes.is_empty() {
                segments.push((idx, bytes));
            }
        }
        let last = segments.last().map(|(idx, _)| *idx);
        let mut events = Vec::new();
        let mut clean = true;
        for (idx, bytes) in &segments {
            let (mut seg_events, end) = scan(bytes);
            events.append(&mut seg_events);
            match end {
                ScanEnd::Clean => {}
                ScanEnd::Torn { offset } if Some(*idx) == last => {
                    // Benign interrupted final append: truncate it away
                    // so later lives (appending to newer segments) don't
                    // find it mid-log and fail safe spuriously.
                    OpenOptions::new()
                        .write(true)
                        .open(segment_path(&self.dir, *idx))
                        .and_then(|f| f.set_len(offset as u64))
                        .expect("wal torn-tail truncate");
                    break;
                }
                // A torn tail is only explainable in the final segment;
                // mid-log it means a hole, which is corruption.
                ScanEnd::Torn { .. } | ScanEnd::Corrupt { .. } => {
                    clean = false;
                    break;
                }
            }
        }
        assemble(events, clean, self.policy, fallback)
    }

    fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    fn metrics(&self) -> StoreMetrics {
        self.metrics
    }
}
