//! # Threaded live runtime
//!
//! Runs the same sans-I/O [`Cohort`](vsr_core::cohort::Cohort#) state
//! machines as the simulator, but on real threads with real clocks. One
//! host thread runs all of a cluster's cohorts: a message between them
//! is a push onto the receiver's inbox, with no lock and no thread
//! wake, and each cohort's timers sit on its own timer heap (1 tick = 1
//! millisecond). Effects go through the same dispatch as the
//! simulator's ([`vsr_obs::account::dispatch`]). Submitters, group-commit
//! flushers and transport readers stay threads of their own; what they
//! bring (requests, fsync completions, frames) enters the host through
//! one bounded drop-oldest queue (vsr-net's [`BoundedQueue`], the same
//! backpressure policy the TCP transport uses).
//!
//! By default messages hop between inboxes in-process. With
//! [`ClusterBuilder::networked`] the host hands every inter-cohort
//! message to a vsr-net [`Endpoint`] instead, and it travels over a
//! real TCP connection — same cohorts, same effects, real sockets.
//!
//! The runtime exists for the runnable examples: start a cluster, submit
//! transactions, crash and recover cohorts, and watch view changes
//! happen on a wall clock.
//!
//! ```
//! use vsr_app::counter::{self, CounterModule};
//! use vsr_core::module::NullModule;
//! use vsr_core::types::{GroupId, Mid};
//! use vsr_runtime::ClusterBuilder;
//!
//! let cluster = ClusterBuilder::new()
//!     .group(GroupId(1), &[Mid(10)], || Box::new(NullModule))
//!     .group(GroupId(2), &[Mid(1), Mid(2), Mid(3)], || Box::new(CounterModule))
//!     .start();
//! let outcome = cluster.submit(GroupId(1), vec![counter::incr(GroupId(2), 0, 1)]);
//! assert!(matches!(outcome, Ok(vsr_core::cohort::TxnOutcome::Committed { .. })));
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vsr_core::cohort::{CallOp, Cohort, CohortParams, Effect, Observation, Timer, TxnOutcome};
use vsr_core::config::CohortConfig;
use vsr_core::durable::{DurabilityGate, DurableEvent, RecoveredState};
use vsr_core::messages::Message;
use vsr_core::module::Module;
use vsr_core::types::{Aid, GroupId, Mid, ViewId, Viewstamp};
use vsr_core::view::Configuration;
use vsr_net::socket::DeliverFn;
use vsr_net::{
    AddrMap, BoundedQueue, DropCounters, Endpoint, NetConfig, NetCounters, NetMetrics, RecvError,
};
use vsr_obs::account::{self, EffectHost};
use vsr_obs::{Metrics, PersistDelta, SharedRecorder, TraceEvent, TraceKind};
use vsr_store::{FileStore, FsyncPolicy, SimDisk, Store, StoreError, StoreMetrics};

/// A module factory shared across threads (recovery re-instantiates the
/// module).
pub type SharedFactory = Arc<dyn Fn() -> Box<dyn Module> + Send + Sync>;

/// A cohort's stable store, shared between the host (which executes
/// `Effect::Persist`), its flusher thread and the cluster (which replays
/// it at recovery).
type SharedStore = Arc<Mutex<Box<dyn Store + Send>>>;

/// Which stable-storage backend the cohorts write to.
#[derive(Debug, Clone, Default)]
enum Durability {
    /// The paper's no-disk design: persist effects are dropped and only
    /// the stable viewid is (notionally) remembered across a crash.
    #[default]
    None,
    /// In-memory [`SimDisk`] WALs: durable across [`Cluster::crash`] /
    /// [`Cluster::recover`] within one process, gone at shutdown.
    Mem(FsyncPolicy),
    /// [`FileStore`] WALs under `dir/cohort-<mid>/`: durable across
    /// whole-cluster shutdown and restart.
    Files { dir: std::path::PathBuf, policy: FsyncPolicy },
}

/// Errors surfaced by [`Cluster::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No member of the client group produced an outcome within the
    /// total submit budget (see [`ClusterBuilder::submit_deadline`]).
    Timeout {
        /// How many retry rounds actually ran before the wall-clock
        /// budget expired.
        rounds: u32,
        /// The member whose reply was being awaited when a deadline
        /// last expired — the cohort to look at first. `None` means no
        /// member ever accepted the request (all crashed/stopped).
        last_peer: Option<Mid>,
    },
    /// The group id is unknown.
    UnknownGroup(GroupId),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Timeout { rounds, last_peer: Some(mid) } => {
                write!(f, "no outcome within the deadline after {rounds} rounds (last waited on cohort {mid})")
            }
            SubmitError::Timeout { rounds, last_peer: None } => {
                write!(f, "no cohort accepted the submission in {rounds} rounds")
            }
            SubmitError::UnknownGroup(g) => write!(f, "unknown group {g}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Work for the host thread.
enum HostMsg {
    /// An entry for a cohort's next pass. An entry for a cohort the
    /// host no longer runs (crashed, or stopped by a store failure) is
    /// dropped, as the simulator drops a crashed cohort's mail.
    To(Mid, Inbox),
    /// Work the cluster runs on the host thread between turns: adding,
    /// crashing and inspecting cohorts (see [`Cluster::on_host`]).
    Call(Box<dyn FnOnce(&mut Host) + Send>),
    /// Stop every cohort and end the host thread.
    Stop,
}

/// One entry of a cohort's inbox: what a handler pass consumes.
enum Inbox {
    /// Mail from another cohort: pushed by the host itself, or by a
    /// transport reader in networked clusters.
    Msg { from: Mid, msg: Message },
    /// A client transaction from [`Cluster::submit`].
    Request { req_id: u64, ops: Vec<CallOp>, reply: Sender<TxnOutcome> },
    /// The flusher's covering fsync returned: every record appended up
    /// to the `upto` watermark is durable and the effects parked behind
    /// them may go out. `covered` is the frame count the sync retired,
    /// for the group-commit histograms; zero means an inline sync
    /// superseded the retirement (the frames are durable and already
    /// accounted, so this completion only advances the watermark).
    Synced { upto: u64, covered: u64 },
    /// The covering fsync failed; fatal to the cohort (nothing it was
    /// meant to cover may be acknowledged).
    SyncFailed,
    /// The flusher wrote the checkpoint the cohort waits for.
    Checkpointed(PersistDelta),
}

/// A cohort run by the host, with everything its effects touch.
struct Slot {
    cohort: Cohort,
    /// Mail waiting for the cohort's next pass, bounded like a
    /// [`BoundedQueue`]: overflow evicts the oldest droppable entry.
    inbox: VecDeque<Inbox>,
    timers: BinaryHeap<TimerEntry>,
    /// Reply channels of in-flight requests, with their submission
    /// instants for the leased-read latency histogram (microsecond
    /// resolution; the coarse millisecond tick would read mostly zero).
    replies: BTreeMap<u64, (Sender<TxnOutcome>, Instant)>,
    store: Option<SharedStore>,
    /// Group commit (`FsyncPolicy::Group` stores only): the gate that
    /// parks effects asserting durability until their covering fsync,
    /// the flusher's wake token, needed only on the clean → dirty
    /// transition, and its checkpoint hand-off. Dropping the senders
    /// stops the flusher.
    group: Option<(DurabilityGate, Sender<()>, Sender<DurableEvent>)>,
    /// The cohort's flusher is writing a checkpoint for it (a rotate
    /// and two fsyncs): until it lands the cohort runs no pass and no
    /// timer, and the effects it emitted after the checkpoint wait here,
    /// so nothing overtakes the checkpoint in the log or on the wire.
    /// Its co-hosted peers run on.
    checkpointing: Option<Vec<Effect>>,
    /// The flusher thread, joined when the slot is dropped.
    flusher: Option<JoinHandle<()>>,
    /// The cohort's transport endpoint (networked clusters only).
    endpoint: Option<Arc<Endpoint>>,
    /// A WAL write or fsync failed; the cohort stops instead of acking
    /// state that may not be durable, until [`Cluster::crash`] and
    /// [`Cluster::recover`] restart it from the synced prefix.
    failed: bool,
}

/// Dropping a slot (a crash, or the host's end) stops its flusher and
/// waits out an fsync it still has in flight.
impl Drop for Slot {
    fn drop(&mut self) {
        self.group = None;
        if let Some(flusher) = self.flusher.take() {
            flusher.join().ok(); // a panicked flusher has nothing to clean up
        }
    }
}

/// How many inbox entries one handler pass may drain before timers and
/// the group-commit flush get a turn. Bounds the latency a saturating
/// producer can impose on timer fires.
const MAX_PASS_ITEMS: usize = 128;

/// The loop that runs every cohort of a cluster on one thread. A send
/// between co-hosted cohorts is a push onto the receiver's inbox, with
/// no lock and no wake; only submitters, flushers and transport readers
/// cross threads, through the host's queue.
///
/// Each turn drains the queue into the inboxes, then gives every cohort
/// in turn one handler pass (at most [`MAX_PASS_ITEMS`] entries between
/// `begin_pass` and `end_pass`, so a primary sends one coalesced
/// `BufferSend` per backup per pass), fires its due timers, wakes its
/// flusher if the pass left the log dirty.
struct Host {
    slots: BTreeMap<Mid, Slot>,
    queue: HostQueue,
    /// Per-inbox bound on droppable entries.
    capacity: usize,
    epoch: Instant,
    timer_seq: u64,
    networked: bool,
    /// The host's counters, written without a lock and copied out on
    /// request by [`Cluster::metrics`].
    metrics: Metrics,
    observations: Option<Arc<BoundedQueue<(Mid, Observation)>>>,
    progress: Arc<Progress>,
    recorder: Option<SharedRecorder>,
}

/// The host's input queue, shared with submitters, flushers and
/// transport readers.
type HostQueue = Arc<BoundedQueue<HostMsg>>;

impl Host {
    fn now_ticks(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn run(mut self) {
        let queue = Arc::clone(&self.queue);
        loop {
            // Wait for work unless an inbox still holds some, at most
            // until the earliest timer is due.
            let runnable = || self.slots.values().filter(|s| s.checkpointing.is_none());
            let timeout = if runnable().any(|s| !s.inbox.is_empty()) {
                Duration::ZERO
            } else {
                runnable()
                    .filter_map(|s| s.timers.peek())
                    .map(|t| t.due.saturating_duration_since(Instant::now()))
                    .min()
                    .unwrap_or(Duration::from_millis(50))
            };
            let first = match queue.recv_timeout(timeout) {
                Ok(msg) => Some(msg),
                Err(RecvError::TimedOut) => None,
                Err(RecvError::Closed) => return,
            };
            // What is queued joins this turn, up to a bound, so the
            // timers below still get their turn under a saturating
            // producer.
            let queued = std::iter::from_fn(|| queue.try_recv());
            for msg in
                first.into_iter().chain(queued).take(MAX_PASS_ITEMS * self.slots.len().max(1))
            {
                match msg {
                    HostMsg::To(mid, item) => self.post(mid, item),
                    HostMsg::Call(f) => f(&mut self),
                    HostMsg::Stop => return,
                }
            }
            let mut next = self.slots.keys().next().copied();
            while let Some(mid) = next {
                self.turn(mid);
                next = self.slots.range((Excluded(mid), Unbounded)).next().map(|(&m, _)| m);
            }
        }
    }

    /// Queue an entry for `to`'s next pass (dropped if the host does
    /// not run `to`). Mail is droppable (the network may drop it anyway,
    /// and a retry timer covers it); requests and completions are not.
    /// A full inbox evicts its oldest mail (`mailbox_drops`) or, holding
    /// none, refuses new mail (`mailbox_rejections`): the policy of every
    /// [`BoundedQueue`].
    fn post(&mut self, to: Mid, item: Inbox) {
        let Some(slot) = self.slots.get_mut(&to) else { return };
        if slot.failed {
            return;
        }
        // A waiting cohort runs no pass: its flusher's answer is taken
        // at once (a stale one, from before a crash, is dropped).
        match item {
            Inbox::Checkpointed(delta) => return self.checkpointed(to, delta),
            Inbox::SyncFailed if slot.checkpointing.is_some() => {
                return self.fatal_store_error(to);
            }
            Inbox::Msg { .. }
            | Inbox::Request { .. }
            | Inbox::Synced { .. }
            | Inbox::SyncFailed => {}
        }
        let mail = |item: &Inbox| matches!(item, Inbox::Msg { .. });
        if mail(&item) && slot.inbox.len() >= self.capacity {
            match slot.inbox.iter().position(mail) {
                Some(oldest) => {
                    slot.inbox.remove(oldest);
                    self.metrics.mailbox_drops += 1;
                }
                None => {
                    self.metrics.mailbox_rejections += 1;
                    return;
                }
            }
        }
        slot.inbox.push_back(item);
    }

    /// Start running a cohort: account the start-up writes its spawning
    /// thread already made, then dispatch the rest of its start effects.
    fn add(&mut self, slot: Slot, written: Vec<PersistDelta>, effects: Vec<Effect>) {
        let mid = slot.cohort.mid();
        self.slots.insert(mid, slot);
        for delta in written {
            account::persisted(self, mid, delta);
        }
        account::dispatch(self, mid, effects);
    }

    /// One cohort's turn: a handler pass over its inbox, its due
    /// timers and the group-commit wake.
    fn turn(&mut self, mid: Mid) {
        self.pass(mid);
        let now = Instant::now();
        loop {
            let tick = self.now_ticks();
            let Some(slot) = self.slots.get_mut(&mid) else { return };
            if slot.failed
                || slot.checkpointing.is_some()
                || slot.timers.peek().is_none_or(|t| t.due > now)
            {
                break;
            }
            let timer = slot.timers.pop().expect("invariant: peek returned Some").timer;
            let effects = slot.cohort.on_timer(tick, timer.clone());
            if let Some(kind) = self.metrics.on_timer(&timer, &effects) {
                self.trace(mid, kind, None);
            }
            account::dispatch(self, mid, effects);
        }
        if let Some((gate, wake, _)) = self.slots.get(&mid).and_then(|s| s.group.as_ref()) {
            if gate.is_dirty() {
                // A full channel means a wake is already pending; a
                // closed one, that the flusher died and its SyncFailed
                // is queued.
                wake.try_send(()).ok();
            }
        }
    }

    /// One handler pass: drain the waiting inbox batch under a single
    /// deferred buffer flush, so one coalesced `BufferSend` per backup —
    /// and, with group commit, one covering fsync — serves every request
    /// and message the pass admitted.
    fn pass(&mut self, mid: Mid) {
        let Some(slot) = self.slots.get_mut(&mid) else { return };
        if slot.inbox.is_empty() || slot.failed || slot.checkpointing.is_some() {
            return;
        }
        slot.cohort.begin_pass();
        for _ in 0..MAX_PASS_ITEMS {
            let now = self.now_ticks();
            // A store failure mid-pass empties the inbox; a checkpoint
            // handed to the flusher ends the pass.
            let Some(slot) = self.slots.get_mut(&mid) else { return };
            if slot.checkpointing.is_some() {
                break;
            }
            let Some(item) = slot.inbox.pop_front() else { break };
            match item {
                Inbox::Msg { from, msg } => {
                    let recv = self.metrics.on_recv(from, &msg);
                    let effects = slot.cohort.on_message(now, from, msg);
                    self.trace(mid, recv, None);
                    account::dispatch(self, mid, effects);
                }
                Inbox::Request { req_id, ops, reply } => {
                    slot.replies.insert(req_id, (reply, Instant::now()));
                    let effects = slot.cohort.begin_transaction(now, req_id, ops);
                    // The pipelining depth clients actually reach:
                    // sampled as each request joins the in-flight set.
                    self.metrics.inflight_txns.record(slot.cohort.inflight_txns() as u64);
                    account::dispatch(self, mid, effects);
                }
                Inbox::Synced { upto, covered } => account::synced(self, mid, upto, covered),
                Inbox::SyncFailed => self.fatal_store_error(mid),
                Inbox::Checkpointed(_) => {} // taken by `post`
            }
        }
        let Some(slot) = self.slots.get_mut(&mid) else { return };
        let end = slot.cohort.end_pass();
        account::dispatch(self, mid, end);
    }

    /// A WAL append or fsync failed. Nothing the failed operation was
    /// meant to cover may become visible: the parked sends and replies
    /// are dropped (submitters try another member), and the cohort
    /// stops — the runtime analogue of the process crash the paper
    /// assumes on stable-storage failure. Its co-hosted peers run on,
    /// and its timers go too: a due timer nobody will fire would keep
    /// the host from sleeping.
    fn fatal_store_error(&mut self, mid: Mid) {
        if let Some(slot) = self.slots.get_mut(&mid) {
            slot.group = None;
            slot.replies.clear();
            slot.inbox.clear();
            slot.timers.clear();
            slot.checkpointing = None;
            slot.failed = true;
        }
    }

    /// The flusher wrote the checkpoint `mid` waits for: account it,
    /// then run what the cohort emitted after it.
    fn checkpointed(&mut self, mid: Mid, delta: PersistDelta) {
        let Some(rest) = self.slots.get_mut(&mid).and_then(|s| s.checkpointing.take()) else {
            return;
        };
        account::persisted(self, mid, delta);
        account::dispatch(self, mid, rest);
    }
}

/// The host ends by dropping its slots; closing and draining the queue
/// then drops every waiting reply channel, so nobody blocks on a host
/// that is gone, even one that panicked.
impl Drop for Host {
    fn drop(&mut self) {
        self.queue.close();
        while self.queue.try_recv().is_some() {}
    }
}

/// The runtime's I/O for the shared effect dispatch: inbox pushes or
/// transport sends, timer heaps, reply channels and stores.
impl EffectHost for Host {
    fn metrics(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn trace(&mut self, mid: Mid, kind: TraceKind, vs: Option<Viewstamp>) {
        let Some(recorder) = &self.recorder else { return };
        let vs = vs.or_else(|| self.slots.get(&mid).and_then(|s| s.cohort.history().latest()));
        recorder.record(TraceEvent { tick: self.now_ticks(), cohort: mid, vs, kind });
    }

    fn gate(&mut self, mid: Mid) -> Option<&mut DurabilityGate> {
        self.slots.get_mut(&mid)?.group.as_mut().map(|(gate, ..)| gate)
    }

    fn stopped(&self, mid: Mid) -> bool {
        self.slots.get(&mid).is_none_or(|slot| slot.failed)
    }

    fn send(&mut self, from: Mid, to: Mid, msg: Message) {
        if self.networked && to != from {
            if let Some(endpoint) = self.slots.get(&from).and_then(|s| s.endpoint.as_ref()) {
                endpoint.send(to, &msg);
            }
            return;
        }
        self.post(to, Inbox::Msg { from, msg });
    }

    fn set_timer(&mut self, mid: Mid, after: u64, timer: Timer) {
        let Some(slot) = self.slots.get_mut(&mid) else { return };
        self.timer_seq += 1;
        let due = Instant::now() + Duration::from_millis(after);
        slot.timers.push(TimerEntry { due, seq: self.timer_seq, timer });
    }

    fn result(&mut self, mid: Mid, req_id: u64, _aid: Option<Aid>, outcome: TxnOutcome) {
        if let Some((reply, _)) = self.slots.get_mut(&mid).and_then(|s| s.replies.remove(&req_id)) {
            // The submitter may have timed out and dropped its receiver.
            reply.send(outcome).ok();
        }
    }

    fn persist(&mut self, mid: Mid, event: DurableEvent) -> Option<PersistDelta> {
        let slot = self.slots.get_mut(&mid)?;
        if let (DurableEvent::Checkpoint(_), Some((_, wake, checkpoints))) = (&event, &slot.group) {
            // A checkpoint rotates the log and syncs twice. Its flusher
            // writes it, so the other cohorts need not wait for it.
            if checkpoints.try_send(event).is_ok() {
                wake.try_send(()).ok(); // a full channel: a wake is pending
                slot.checkpointing = Some(Vec::new());
            } else {
                self.fatal_store_error(mid); // the flusher died
            }
            return None;
        }
        let written = write(slot.store.as_ref()?, &event);
        written.map_err(|_| self.fatal_store_error(mid)).ok()
    }

    fn waiting(&self, mid: Mid) -> bool {
        self.slots.get(&mid).is_some_and(|s| s.checkpointing.is_some())
    }

    fn defer(&mut self, mid: Mid, effects: Vec<Effect>) {
        if let Some(waiting) = self.slots.get_mut(&mid).and_then(|s| s.checkpointing.as_mut()) {
            waiting.extend(effects);
        }
    }

    fn observe(&mut self, mid: Mid, obs: Observation) {
        if let Observation::LeasedRead { req_id, .. } = &obs {
            let t0 = self.slots.get(&mid).and_then(|s| s.replies.get(req_id)).map(|r| r.1);
            if let Some(t0) = t0 {
                self.metrics.lease_read_ticks.record(t0.elapsed().as_micros() as u64);
            }
        }
        if matches!(obs, Observation::ViewChanged { .. }) {
            // Wake submitters stuck waiting for a primary: the view
            // just (re)formed.
            self.progress.bump();
        }
        if let Some(tx) = &self.observations {
            // Best-effort telemetry: a full drain evicts its oldest
            // entry (counted as a mailbox drop) and never stalls the
            // host.
            tx.push((mid, obs));
        }
    }
}

/// Write `event` to a cohort's store and say what the write did.
fn write(store: &SharedStore, event: &DurableEvent) -> Result<PersistDelta, StoreError> {
    let mut store = store.lock();
    let (before, unsynced_before) = (store.metrics(), store.unsynced_records());
    store.persist(event)?;
    let d = store.metrics().since(&before);
    Ok(PersistDelta {
        appends: d.appends,
        fsyncs: d.fsyncs,
        bytes_written: d.bytes_written,
        checkpoints: d.checkpoints,
        unsynced_before,
        unsynced_after: store.unsynced_records(),
    })
}

/// Body of a cohort's flusher thread: wait for a wake token, then
/// chain covering fsyncs until the log is clean. Each cycle detaches a
/// [`vsr_store::SyncHandle`] under the store lock (with the covered
/// frame count and append watermark), fsyncs *outside* the lock while
/// the host keeps appending the next batch, retires the covered
/// frames, and posts the completion to the host as a critical queue
/// entry (never evicted by backpressure). When the store cannot detach
/// a handle ([`SimDisk`], whose sync is a watermark bump, or a failed
/// descriptor duplicate), the cycle syncs inline under the lock instead.
/// A failed fsync is posted as fatal and stops the thread: nothing it
/// was meant to cover may be acknowledged.
///
/// Cadence: the chain is self-driving — after each fsync it re-probes
/// immediately and only sleeps on the wake channel once the log is
/// clean, so consecutive covering fsyncs need no host roundtrip and
/// each one covers whatever accumulated while the previous was on the
/// device. Alternatives measured worse (DESIGN §15): waiting for a
/// fresh pass-end wake between syncs idles the disk for a full
/// roundtrip per batch, and sleeping to accumulate bigger batches
/// costs more than the fsync it tries to amortize on kernels whose
/// minimum real sleep exceeds the fsync latency.
fn flusher_loop(
    mid: Mid,
    store: &SharedStore,
    queue: &HostQueue,
    wake: &Receiver<()>,
    checkpoints: &Receiver<DurableEvent>,
) {
    while wake.recv().is_ok() {
        loop {
            // A checkpoint goes first: its cohort waits for it.
            if let Ok(event) = checkpoints.try_recv() {
                let item = write(store, &event).map_or(Inbox::SyncFailed, Inbox::Checkpointed);
                let failed = matches!(item, Inbox::SyncFailed);
                if !queue.push_critical(HostMsg::To(mid, item)) || failed {
                    return;
                }
            }
            let job = {
                let mut store = store.lock();
                let covered = store.unsynced_records();
                if covered == 0 {
                    break;
                }
                let upto = store.metrics().appends;
                match store.sync_handle() {
                    Some(handle) => Ok((Some(handle), covered, upto)),
                    // The flusher is the only flush path, so a store
                    // without a handle syncs here, under the lock.
                    None => store.flush().map(|()| (None, covered, upto)),
                }
            };
            let synced = job.and_then(|(handle, covered, upto)| match handle {
                // Inline sync: the lock was held, nothing raced.
                None => Ok((covered, upto)),
                // An inline sync that ran while this fsync was in
                // flight supersedes the retirement: the batch is
                // durable either way, but this completion gets no
                // group-commit credit (covered = 0).
                Some(handle) => handle
                    .sync()
                    .map(|()| (if store.lock().note_synced(covered) { covered } else { 0 }, upto)),
            });
            let item = match synced {
                Ok((covered, upto)) => Inbox::Synced { upto, covered },
                Err(_) => Inbox::SyncFailed,
            };
            let failed = matches!(item, Inbox::SyncFailed);
            if !queue.push_critical(HostMsg::To(mid, item)) || failed {
                return; // the host is gone, or the cohort now stops
            }
        }
    }
}

/// View-progress signal shared between the host and submitters.
///
/// Every `Observation::ViewChanged` bumps the epoch and wakes everyone
/// blocked in [`wait_past`](Progress::wait_past); a submitter that found
/// no acting primary sleeps on it instead of unconditionally burning a
/// fixed poll interval, so a completed view change un-blocks the next
/// round immediately. Uses `std::sync` primitives because the waiters
/// need a condition variable, not just a lock.
#[derive(Default)]
struct Progress {
    epoch: std::sync::Mutex<u64>,
    changed: std::sync::Condvar,
}

impl Progress {
    /// The current epoch; pass it to [`wait_past`](Progress::wait_past).
    fn current(&self) -> u64 {
        *self.epoch.lock().expect("invariant: progress mutex is never poisoned")
    }

    /// Advance the epoch and wake every waiter.
    fn bump(&self) {
        let mut epoch = self.epoch.lock().expect("invariant: progress mutex is never poisoned");
        *epoch += 1;
        self.changed.notify_all();
    }

    /// Block until the epoch advances past `seen` or `timeout` elapses,
    /// whichever comes first.
    fn wait_past(&self, seen: u64, timeout: Duration) {
        let guard = self.epoch.lock().expect("invariant: progress mutex is never poisoned");
        let (_guard, _timed_out) = self
            .changed
            .wait_timeout_while(guard, timeout, |epoch| *epoch <= seen)
            .expect("invariant: progress mutex is never poisoned");
    }
}

/// An armed timer. A cohort's timers sit in a binary heap of these,
/// contiguous: at `write_mem`'s rate about 16k are pending (mostly
/// retry and force checks that will find nothing to do), and a B-tree
/// map of the same timers held about half as much again.
struct TimerEntry {
    due: Instant,
    seq: u64,
    timer: Timer,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due
        // time on top.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Builder for a [`Cluster`].
pub struct ClusterBuilder {
    cfg: CohortConfig,
    groups: Vec<(GroupId, Vec<Mid>, SharedFactory)>,
    observations: bool,
    tracing: bool,
    durability: Durability,
    mailbox_capacity: usize,
    submit_deadline: Duration,
    net_addrs: Option<AddrMap>,
    net_cfg: NetConfig,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder::new()
    }
}

impl std::fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBuilder").field("groups", &self.groups.len()).finish_non_exhaustive()
    }
}

impl ClusterBuilder {
    /// Start building a cluster with default cohort tuning.
    pub fn new() -> Self {
        ClusterBuilder {
            cfg: CohortConfig::new(),
            groups: Vec::new(),
            observations: false,
            tracing: false,
            durability: Durability::None,
            mailbox_capacity: 4096,
            submit_deadline: Duration::from_secs(5),
            net_addrs: None,
            net_cfg: NetConfig::new(),
        }
    }

    /// Capacity of each cohort's bounded mailbox (and of the
    /// observation drain). Overflow evicts the oldest droppable entry
    /// (counted in the `mailbox_drops` metric) or, when every resident
    /// entry is critical, refuses the new one (counted in
    /// `mailbox_rejections`) — the same drop-oldest policy the TCP
    /// transport applies to its per-peer queues, so in-process and
    /// networked runs share one backpressure story.
    pub fn mailbox_capacity(mut self, capacity: usize) -> Self {
        self.mailbox_capacity = capacity;
        self
    }

    /// The *total* wall-clock budget for one [`Cluster::submit`] call
    /// (default 5 s), shared by every retry round and member contact —
    /// not a per-member wait, so a wedged cluster blocks a submitter
    /// for at most this long. On expiry, [`SubmitError::Timeout`]
    /// reports how many rounds ran and the last peer waited on.
    pub fn submit_deadline(mut self, deadline: Duration) -> Self {
        self.submit_deadline = deadline;
        self
    }

    /// Route every inter-cohort message over real TCP using vsr-net.
    /// `addrs` says where each cohort listens and where peers dial it
    /// (route a cohort through a [`vsr_net::ChaosProxy`] with
    /// [`AddrMap::dial_via`]). The sans-I/O core is untouched: cohorts
    /// emit the same `Effect::Send`s, the router hands them to a
    /// socket instead of a mailbox. Transport retry/backoff reuses the
    /// cluster's [`CohortConfig`] retry knobs.
    pub fn networked(mut self, addrs: AddrMap) -> Self {
        self.net_addrs = Some(addrs);
        self
    }

    /// Override transport tuning (queue capacity, deadlines, reconnect
    /// base). Only meaningful together with
    /// [`networked`](ClusterBuilder::networked); the `retry` field is
    /// replaced by the cluster's cohort config at start so transport
    /// and protocol back off by one policy.
    pub fn net_config(mut self, cfg: NetConfig) -> Self {
        self.net_cfg = cfg;
        self
    }

    /// Capture structured [`TraceEvent`]s from every cohort,
    /// drainable via [`Cluster::trace_events`] — the runtime counterpart
    /// of the simulator's `World::enable_tracing`.
    pub fn tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Give every cohort an in-memory WAL ([`SimDisk`]) with the given
    /// fsync policy: state survives [`Cluster::crash`] /
    /// [`Cluster::recover`] within this process, and a recovered cohort
    /// replays its log instead of restarting from the bare viewid.
    pub fn durable(mut self, policy: FsyncPolicy) -> Self {
        self.durability = Durability::Mem(policy);
        self
    }

    /// Give every cohort a file-backed WAL ([`FileStore`]) under
    /// `dir/cohort-<mid>/`. State survives killing the *entire* cluster
    /// and starting a fresh one on the same directory: cohorts that find
    /// existing segments recover from them instead of booting fresh.
    pub fn durable_files(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        policy: FsyncPolicy,
    ) -> Self {
        self.durability = Durability::Files { dir: dir.into(), policy };
        self
    }

    /// Override the cohort tuning knobs.
    pub fn cohorts(mut self, cfg: CohortConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Add a module group (first member is the bootstrap primary).
    pub fn group<F>(mut self, group: GroupId, members: &[Mid], factory: F) -> Self
    where
        F: Fn() -> Box<dyn Module> + Send + Sync + 'static,
    {
        self.groups.push((group, members.to_vec(), Arc::new(factory)));
        self
    }

    /// Collect observations into a channel readable via
    /// [`Cluster::observations`].
    pub fn observe(mut self) -> Self {
        self.observations = true;
        self
    }

    /// Start the host thread, hand it every cohort, and return the
    /// running cluster.
    pub fn start(self) -> Cluster {
        let epoch = Instant::now();
        let mut peers = BTreeMap::new();
        for (group, members, _) in &self.groups {
            peers.insert(*group, Configuration::new(*group, members.clone()));
        }
        let mailbox_drops = DropCounters::new();
        let obs_rx = BoundedQueue::new(self.mailbox_capacity, mailbox_drops.clone());
        let obs_tx = self.observations.then(|| Arc::clone(&obs_rx));
        let net = self.net_addrs.map(|addrs| {
            // One retry/backoff policy: the transport jitters and caps
            // its reconnects with the same knobs as protocol retries.
            let mut cfg = self.net_cfg.clone();
            cfg.retry = self.cfg.clone();
            NetState {
                addrs: Mutex::new(addrs),
                cfg,
                endpoints: Mutex::new(BTreeMap::new()),
                base: Mutex::new(NetCounters::default()),
            }
        });
        let specs: BTreeMap<Mid, (GroupId, Vec<Mid>, SharedFactory)> = self
            .groups
            .iter()
            .flat_map(|(g, members, f)| {
                members.iter().map(|&m| (m, (*g, members.clone(), f.clone())))
            })
            .collect();
        // The host's queue carries transport frames for every cohort, so
        // it gets every cohort's mailbox share.
        let queue = BoundedQueue::new(self.mailbox_capacity * specs.len(), mailbox_drops.clone());
        let progress = Arc::new(Progress::default());
        let recorder = self.tracing.then(SharedRecorder::new);
        let host = Host {
            slots: BTreeMap::new(),
            queue: Arc::clone(&queue),
            capacity: self.mailbox_capacity.max(1),
            epoch,
            timer_seq: 0,
            networked: net.is_some(),
            metrics: Metrics::default(),
            observations: obs_tx,
            progress: Arc::clone(&progress),
            recorder: recorder.clone(),
        };
        let host = std::thread::Builder::new()
            .name("vsr-host".into())
            .spawn(move || host.run())
            // vsr-lint: allow(expect_used, reason = "thread spawn failure at cluster construction is unrecoverable")
            .expect("spawn host thread");
        let cluster = Cluster {
            queue,
            host,
            live: Mutex::new(BTreeSet::new()),
            specs,
            peers,
            cfg: self.cfg.clone(),
            epoch,
            next_req: AtomicU64::new(0),
            observations: obs_rx,
            stable_store: Mutex::new(BTreeMap::new()),
            stores: Mutex::new(BTreeMap::new()),
            durability: self.durability.clone(),
            outcomes: Mutex::new(Metrics::default()),
            progress,
            recorder,
            mailbox_drops,
            submit_deadline: self.submit_deadline,
            net,
        };
        if matches!(cluster.durability, Durability::Files { .. }) {
            // File stores sync each cohort's start-up writes: make them
            // in parallel, one thread per cohort, as the host would
            // otherwise make them one after another.
            std::thread::scope(|s| {
                for (&mid, (group, members, f)) in &cluster.specs {
                    let cluster = &cluster;
                    s.spawn(move || cluster.spawn(*group, mid, members, f.clone(), false));
                }
            });
        } else {
            for (&mid, (group, members, f)) in &cluster.specs {
                cluster.spawn(*group, mid, members, f.clone(), false);
            }
        }
        cluster
    }
}

/// A running cluster: one host thread runs every cohort.
pub struct Cluster {
    queue: HostQueue,
    host: JoinHandle<()>,
    /// The cohorts the host runs (crashed ones are absent).
    live: Mutex<BTreeSet<Mid>>,
    specs: BTreeMap<Mid, (GroupId, Vec<Mid>, SharedFactory)>,
    peers: BTreeMap<GroupId, Configuration>,
    cfg: CohortConfig,
    epoch: Instant,
    next_req: AtomicU64,
    observations: Arc<BoundedQueue<(Mid, Observation)>>,
    /// Simulated stable storage for the no-disk design: the last stable
    /// viewid of each crashed cohort, read back at recovery.
    stable_store: Mutex<BTreeMap<Mid, ViewId>>,
    /// Per-cohort WALs (durable clusters only). An entry outlives its
    /// cohort so a recovery can replay it.
    stores: Mutex<BTreeMap<Mid, SharedStore>>,
    durability: Durability,
    /// The client-visible outcomes [`submit`](Cluster::submit) counts
    /// and the records recoveries replayed; the host counts everything
    /// else (traffic, observations, disk).
    outcomes: Mutex<Metrics>,
    /// View-progress condvar submitters sleep on between retry rounds.
    progress: Arc<Progress>,
    /// Installed when the builder enabled [`tracing`](ClusterBuilder::tracing).
    recorder: Option<SharedRecorder>,
    /// Overflow accounting of the host's queue and the observation
    /// drain: evictions surface as `mailbox_drops` and rejected pushes
    /// as `mailbox_rejections` in [`metrics`](Cluster::metrics), added
    /// to the host's own inbox counts.
    mailbox_drops: DropCounters,
    /// Per-round outcome deadline for [`submit`](Cluster::submit).
    submit_deadline: Duration,
    /// Present when the cluster routes messages over TCP.
    net: Option<NetState>,
}

impl Cluster {
    /// Open (or look up) the WAL for `mid` according to the cluster's
    /// durability mode.
    fn store_for(&self, mid: Mid) -> Option<SharedStore> {
        let mut stores = self.stores.lock();
        if let Some(store) = stores.get(&mid) {
            return Some(store.clone());
        }
        let store: Box<dyn Store + Send> = match &self.durability {
            Durability::None => return None,
            Durability::Mem(policy) => Box::new(SimDisk::new(*policy)),
            Durability::Files { dir, policy } => Box::new(
                FileStore::open(dir.join(format!("cohort-{}", mid.0)), *policy)
                    // vsr-lint: allow(expect_used, reason = "startup misconfiguration; crashing with the io::Error is the right behavior")
                    .expect("open cohort wal directory"),
            ),
        };
        let store = Arc::new(Mutex::new(store));
        stores.insert(mid, store.clone());
        Some(store)
    }

    fn spawn(
        &self,
        group: GroupId,
        mid: Mid,
        members: &[Mid],
        factory: SharedFactory,
        recovering: bool,
    ) {
        let params = CohortParams {
            cfg: self.cfg.clone(),
            mid,
            configuration: Configuration::new(group, members.to_vec()),
            initial_primary: members[0],
            peers: self.peers.clone(),
            module: factory(),
        };
        let bootstrap = ViewId::initial(members[0]);
        let store = self.store_for(mid);
        let mut cohort = match &store {
            Some(store) => {
                // The WAL is the single source of truth: a freshly
                // started cluster whose store already holds state (an
                // earlier incarnation's files, or an earlier crash in
                // this process) recovers from it; a pristine store means
                // a true bootstrap.
                let rs = store.lock().recover(bootstrap);
                let pristine =
                    rs.checkpoint.is_none() && rs.tail.is_empty() && rs.stable_viewid == bootstrap;
                if pristine && !recovering {
                    Cohort::new(params)
                } else {
                    Cohort::recover(params, rs)
                }
            }
            None if recovering => {
                let stable = self.stable_store.lock().get(&mid).copied().unwrap_or(bootstrap);
                Cohort::recover(params, RecoveredState::viewid_only(stable))
            }
            None => Cohort::new(params),
        };
        self.outcomes.lock().records_replayed += cohort.records_replayed();
        // Networked clusters give every cohort its own transport
        // endpoint; inbound frames land in the host's queue.
        let endpoint = self.net.as_ref().map(|net| {
            let (listener, bind_addr, dials) = {
                let mut addrs = net.addrs.lock();
                (addrs.take_listener(mid), addrs.bind_addr(mid), addrs.dial_addrs())
            };
            let bind_addr = bind_addr
                // vsr-lint: allow(expect_used, reason = "a networked cluster whose address book misses a cohort is a startup misconfiguration")
                .expect("address book entry for cohort");
            let net_metrics = Arc::new(NetMetrics::default());
            let queue = Arc::clone(&self.queue);
            let deliver: DeliverFn = Arc::new(move |from, msg| {
                queue.push(HostMsg::To(mid, Inbox::Msg { from, msg }));
            });
            let endpoint = match listener {
                // A pre-bound listener (AddrMap::loopback) is adopted
                // as-is; otherwise bind the configured address, retrying
                // briefly so a recovery can win the race against its old
                // incarnation's accept thread releasing the port.
                Some(l) => Endpoint::start(mid, l, &dials, net.cfg.clone(), net_metrics, deliver),
                None => Endpoint::bind(
                    mid,
                    bind_addr,
                    &dials,
                    net.cfg.clone(),
                    net_metrics,
                    deliver,
                    Duration::from_secs(5),
                ),
            }
            // vsr-lint: allow(expect_used, reason = "failing to bind the configured transport address is a startup misconfiguration; crashing with the io::Error is the right behavior")
            .expect("start cohort transport endpoint");
            let endpoint = Arc::new(endpoint);
            net.endpoints.lock().insert(mid, Arc::clone(&endpoint));
            endpoint
        });
        // Group commit: the gate, and the flusher thread that runs
        // every covering fsync for it.
        let mut flusher = None;
        let group = store.as_ref().and_then(|store| {
            let gate = store.lock().durability_gate()?;
            let (wake_tx, wake_rx) = bounded::<()>(1);
            // One checkpoint at a time: its cohort waits for it.
            let (checkpoint_tx, checkpoint_rx) = bounded::<DurableEvent>(1);
            let (store, queue) = (Arc::clone(store), Arc::clone(&self.queue));
            flusher = Some(
                std::thread::Builder::new()
                    .name(format!("flush-{mid}"))
                    .spawn(move || flusher_loop(mid, &store, &queue, &wake_rx, &checkpoint_rx))
                    // vsr-lint: allow(expect_used, reason = "thread spawn failure at cluster construction is unrecoverable")
                    .expect("spawn flusher thread"),
            );
            Some((gate, wake_tx, checkpoint_tx))
        });
        // A fresh cohort's start-up writes (its stable viewid and first
        // checkpoint) happen here, on the spawning thread, so a starting
        // cluster's cohorts can make them in parallel rather than one
        // after another on the host.
        let mut effects = cohort.start(self.epoch.elapsed().as_millis() as u64);
        let (mut written, mut failed) = (Vec::new(), false);
        while let (Some(store), Some(Effect::Persist(event))) = (&store, effects.first()) {
            let Ok(delta) = write(store, event) else {
                failed = true;
                break;
            };
            written.push(delta);
            effects.remove(0);
        }
        let slot = Slot {
            cohort,
            inbox: VecDeque::new(),
            timers: BinaryHeap::new(),
            replies: BTreeMap::new(),
            store,
            group: group.filter(|_| !failed),
            checkpointing: None,
            flusher,
            endpoint,
            failed,
        };
        self.queue
            .push_critical(HostMsg::Call(Box::new(move |host| host.add(slot, written, effects))));
        self.live.lock().insert(mid);
    }

    /// Submit a transaction to `client_group` and block until an outcome
    /// arrives, trying each member until one acts as primary (after a
    /// crash it can take a view change for a new primary to emerge).
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownGroup`] for an unknown group;
    /// [`SubmitError::Timeout`] when no member produces an outcome.
    pub fn submit(
        &self,
        client_group: GroupId,
        ops: Vec<CallOp>,
    ) -> Result<TxnOutcome, SubmitError> {
        let config =
            self.peers.get(&client_group).ok_or(SubmitError::UnknownGroup(client_group))?;
        let members: Vec<Mid> = config.members().to_vec();
        self.outcomes.lock().submitted += 1;
        let t0 = Instant::now();
        let result = self.submit_rounds(&members, &ops);
        {
            let mut o = self.outcomes.lock();
            match &result {
                Ok(TxnOutcome::Committed { .. }) => {
                    o.committed += 1;
                    // Microseconds, not milliseconds: in-memory commits
                    // finish well under 1 ms, and whole-ms samples made
                    // every A6 percentile table read 0.
                    o.commit_latency.record(t0.elapsed().as_micros() as u64);
                }
                Ok(TxnOutcome::Aborted { .. }) => o.aborted += 1,
                Ok(TxnOutcome::Unresolved) | Err(_) => o.unresolved += 1,
            }
        }
        result
    }

    /// The retry loop behind [`submit`](Cluster::submit): try each
    /// member until one acts as primary, within one *total* wall-clock
    /// budget ([`ClusterBuilder::submit_deadline`]). An earlier version
    /// granted the full deadline to every member of every round, so a
    /// wedged cluster could block a submitter for `members × 20 ×
    /// deadline` (minutes); now the budget bounds the whole attempt and
    /// [`SubmitError::Timeout`] reports how many rounds actually ran.
    /// Between rounds, sleep on the view-progress condvar so a
    /// completing view change wakes the submitter immediately instead
    /// of costing a full poll interval.
    fn submit_rounds(&self, members: &[Mid], ops: &[CallOp]) -> Result<TxnOutcome, SubmitError> {
        let deadline = Instant::now() + self.submit_deadline;
        // One member may not monopolize the budget: cap each wait so
        // several members (and rounds) get a turn even when the first
        // contact never answers.
        let slice = (self.submit_deadline / 4).max(Duration::from_millis(50));
        let mut rounds = 0;
        let mut last_peer = None;
        loop {
            let epoch = self.progress.current();
            rounds += 1;
            for &mid in members {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(SubmitError::Timeout { rounds, last_peer });
                }
                if !self.live.lock().contains(&mid) {
                    continue;
                }
                let req_id = self.next_req.fetch_add(1, Ordering::Relaxed) + 1;
                let (reply_tx, reply_rx) = bounded(1);
                // Critical: a request must never be evicted by message
                // backpressure (the client would silently lose it).
                let request =
                    HostMsg::To(mid, Inbox::Request { req_id, ops: ops.to_vec(), reply: reply_tx });
                if !self.queue.push_critical(request) {
                    continue; // the host is gone
                }
                match reply_rx.recv_timeout(remaining.min(slice)) {
                    Ok(TxnOutcome::Aborted {
                        reason: vsr_core::cohort::AbortReason::NotPrimary,
                    }) => continue,
                    Ok(outcome) => return Ok(outcome),
                    Err(_) => {
                        // This member accepted the request but produced
                        // no outcome inside its slice (or crashed with
                        // it) — remember it as the cohort to
                        // investigate first.
                        last_peer = Some(mid);
                        continue;
                    }
                }
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(SubmitError::Timeout { rounds, last_peer });
            }
            self.progress.wait_past(epoch, remaining.min(Duration::from_millis(100)));
        }
    }

    /// A snapshot of the cluster's aggregate metrics — the same counter
    /// set the simulator's `World::metrics` reports, with commit
    /// latencies in microseconds instead of ticks. The host's counters
    /// are copied out between its turns; transport counters (networked
    /// clusters) fold in live endpoints plus the accumulated totals of
    /// endpoints torn down by earlier crashes.
    pub fn metrics(&self) -> Metrics {
        let mut m = self.on_host(|host| host.metrics.clone()).unwrap_or_default();
        {
            let o = self.outcomes.lock();
            m.submitted = o.submitted;
            m.committed = o.committed;
            m.aborted = o.aborted;
            m.unresolved = o.unresolved;
            m.commit_latency = o.commit_latency.clone();
            m.records_replayed = o.records_replayed;
        }
        m.mailbox_drops += self.mailbox_drops.evictions();
        m.mailbox_rejections += self.mailbox_drops.rejections();
        if let Some(net) = &self.net {
            let mut totals = *net.base.lock();
            for endpoint in net.endpoints.lock().values() {
                totals.add(endpoint.metrics().snapshot());
            }
            m.net_frames_sent = totals.frames_sent;
            m.net_frames_recvd = totals.frames_recvd;
            m.net_reconnects = totals.reconnects;
            m.net_crc_rejects = totals.crc_rejects;
            m.net_queue_drops = totals.queue_drops;
            m.net_queue_rejections = totals.queue_rejections;
            m.net_deadline_hits = totals.deadline_hits;
            m.net_frames_coalesced = totals.frames_coalesced;
        }
        m
    }

    /// Run `f` on the host thread between its turns and wait for its
    /// answer (`None` when the host is gone: a closed queue drops the
    /// call, and with it the reply channel).
    fn on_host<T: Send + 'static>(
        &self,
        f: impl FnOnce(&mut Host) -> T + Send + 'static,
    ) -> Option<T> {
        let (tx, rx) = bounded(1);
        self.queue.push_critical(HostMsg::Call(Box::new(move |host| {
            tx.send(f(host)).ok(); // the caller waits on the receiver
        })));
        rx.recv().ok()
    }

    /// Drain the structured trace events captured so far. Empty unless
    /// the cluster was built with [`ClusterBuilder::tracing`].
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.recorder.as_ref().map(SharedRecorder::take).unwrap_or_default()
    }

    /// Tear down a cohort's transport endpoint (networked clusters
    /// only), folding its counters into the accumulated base so totals
    /// survive the crash/recover cycle.
    fn teardown_endpoint(&self, mid: Mid) {
        let Some(net) = &self.net else { return };
        let endpoint = net.endpoints.lock().remove(&mid);
        if let Some(endpoint) = endpoint {
            endpoint.shutdown();
            net.base.lock().add(endpoint.metrics().snapshot());
        }
    }

    /// Crash a cohort: the host stops running it and drops its mail,
    /// its endpoint (if networked) closes — peers see resets and begin
    /// reconnect backoff — and its flusher ends. The co-hosted cohorts
    /// run on. The stable viewid is captured for a later
    /// [`recover`](Self::recover).
    pub fn crash(&self, mid: Mid) {
        if !self.live.lock().remove(&mid) {
            return;
        }
        let stable =
            self.on_host(move |host| host.slots.remove(&mid).map(|s| s.cohort.stable_viewid()));
        self.teardown_endpoint(mid);
        if let Some(stable) = stable.flatten() {
            self.stable_store.lock().insert(mid, stable);
        }
    }

    /// Recover a crashed cohort. A durable cohort replays its WAL
    /// (possibly rejoining up to date — see `vsr_store`'s safety rule);
    /// otherwise it restarts from its stable viewid alone.
    pub fn recover(&self, mid: Mid) {
        if self.live.lock().contains(&mid) {
            return;
        }
        let Some((group, members, factory)) = self.specs.get(&mid).cloned() else { return };
        self.spawn(group, mid, &members, factory, true);
    }

    /// Disk counters of a durable cohort's store (`None` for the no-disk
    /// design).
    pub fn store_metrics(&self, mid: Mid) -> Option<StoreMetrics> {
        self.stores.lock().get(&mid).map(|s| s.lock().metrics())
    }

    /// Fault injection: make the next `n` fsyncs of `mid`'s store fail
    /// (backends without injection, like [`FileStore`], ignore it).
    /// The host treats a failed covering fsync as fatal to the cohort —
    /// it stops without acking anything the fsync was meant to cover —
    /// so after arming this, expect the cohort to need
    /// [`crash`](Cluster::crash)/[`recover`](Cluster::recover).
    pub fn fail_next_syncs(&self, mid: Mid, n: u64) {
        if let Some(store) = self.stores.lock().get(&mid) {
            store.lock().fail_next_syncs(n);
        }
    }

    /// The stable viewid last recorded by a live cohort.
    pub fn stable_viewid(&self, mid: Mid) -> Option<ViewId> {
        self.on_host(move |host| host.slots.get(&mid).map(|s| s.cohort.stable_viewid())).flatten()
    }

    /// Drain any observations collected so far (requires
    /// [`ClusterBuilder::observe`]).
    pub fn observations(&self) -> Vec<(Mid, Observation)> {
        std::iter::from_fn(|| self.observations.try_recv()).collect()
    }

    /// Stop the host and every flusher thread and transport endpoint,
    /// and dismantle the cluster.
    pub fn shutdown(self) {
        let mids: Vec<Mid> = self.live.lock().iter().copied().collect();
        // Endpoints first: with the sockets gone no new mail arrives.
        for &mid in &mids {
            self.teardown_endpoint(mid);
        }
        self.queue.push_critical(HostMsg::Stop);
        // A join failure means the host already died: nothing is left.
        self.host.join().ok();
    }
}

/// Everything the networked transport adds to a cluster: the address
/// book, per-cohort endpoints, and counters accumulated from torn-down
/// (crashed) endpoints so totals survive recovery cycles.
struct NetState {
    addrs: Mutex<AddrMap>,
    cfg: NetConfig,
    endpoints: Mutex<BTreeMap<Mid, Arc<Endpoint>>>,
    base: Mutex<NetCounters>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").field("cohorts", &self.live.lock().len()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsr_app::counter;
    use vsr_core::cohort::AbortReason;
    use vsr_core::module::NullModule;

    const CLIENT: GroupId = GroupId(1);
    const SERVER: GroupId = GroupId(2);

    /// Start `builder` with a one-member client group and a three-member
    /// counter group.
    fn build(builder: ClusterBuilder) -> Cluster {
        builder
            .group(CLIENT, &[Mid(10)], || Box::new(NullModule))
            .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(counter::CounterModule))
            .start()
    }

    fn cluster() -> Cluster {
        build(ClusterBuilder::new())
    }

    fn commits(c: &Cluster, n: usize) {
        for i in 0..n {
            let outcome = c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
            assert!(matches!(outcome, Ok(TxnOutcome::Committed { .. })), "{i}: {outcome:?}");
        }
    }

    #[test]
    fn live_commit() {
        let c = cluster();
        let outcome = c.submit(CLIENT, vec![counter::incr(SERVER, 0, 5)]).unwrap();
        match outcome {
            TxnOutcome::Committed { results } => {
                assert_eq!(counter::decode_value(&results[0]).unwrap(), 5);
            }
            other @ (TxnOutcome::Aborted { .. } | TxnOutcome::Unresolved) => {
                panic!("expected commit, got {other:?}")
            }
        }
        c.shutdown();
    }

    #[test]
    fn unknown_group_script_aborts_and_the_coordinator_keeps_serving() {
        let c = cluster();
        let bogus = GroupId(99);
        let outcome = c.submit(CLIENT, vec![counter::incr(bogus, 0, 1)]).unwrap();
        assert_eq!(
            outcome,
            TxnOutcome::Aborted { reason: AbortReason::UnknownGroup { group: bogus } }
        );
        let outcome = c.submit(CLIENT, vec![counter::incr(SERVER, 0, 5)]).unwrap();
        assert!(matches!(outcome, TxnOutcome::Committed { .. }), "got {outcome:?}");
        c.shutdown();
    }

    #[test]
    fn live_crash_and_failover() {
        let c = cluster();
        commits(&c, 1);
        // Crash the bootstrap primary of the server group.
        c.crash(Mid(1));
        // A transaction in flight during the view change may abort (the
        // paper's Figure 2 step 3); the application re-runs it. Within a
        // few retries the new view serves it.
        let mut committed_value = None;
        for _ in 0..20 {
            match c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]) {
                Ok(TxnOutcome::Committed { results }) => {
                    committed_value = Some(counter::decode_value(&results[0]).unwrap());
                    break;
                }
                Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(100)),
            }
        }
        assert_eq!(committed_value, Some(2), "state survived the failover");
        c.shutdown();
    }

    #[test]
    fn observations_are_collected() {
        let c = build(ClusterBuilder::new().observe());
        commits(&c, 1);
        // Allow backups to apply the commit.
        std::thread::sleep(Duration::from_millis(300));
        let obs = c.observations();
        assert!(
            obs.iter().any(|(_, o)| matches!(o, Observation::TxnCommitted { .. })),
            "commit observed: {obs:?}"
        );
        c.shutdown();
    }

    #[test]
    fn boundary_snapshots_stay_flat_over_serial_commits() {
        // A participant keeps no per-commit state once it decides
        // (DESIGN §14), so the boundary snapshot after 2,000 increments
        // is no bigger than the first. Counting bytes, not time, keeps
        // this from flaking on a slow runner.
        let c = build(ClusterBuilder::new().observe());
        let mut sizes = Vec::new();
        for i in 0..2_000 {
            let outcome = c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
            assert!(matches!(outcome, Ok(TxnOutcome::Committed { .. })), "{i}: {outcome:?}");
            // Drain as we go: the observation queue is bounded.
            for (mid, o) in c.observations() {
                if let (Mid(1), Observation::SnapshotTaken { bytes, .. }) = (mid, o) {
                    sizes.push(bytes);
                }
            }
        }
        c.shutdown();
        let (Some(&first), Some(&last)) = (sizes.first(), sizes.last()) else {
            panic!("no boundary snapshot observed")
        };
        assert!(sizes.len() >= 20, "boundaries observed: {sizes:?}");
        assert!(last <= 2 * first, "snapshots grew from {first} to {last} bytes: {sizes:?}");
    }

    #[test]
    fn stable_viewid_survives_crash_recover() {
        let c = cluster();
        assert!(c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]).is_ok());
        // Crash the primary; after failover the group's viewid advances.
        c.crash(Mid(1));
        let mut ok = false;
        for _ in 0..20 {
            if matches!(
                c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]),
                Ok(TxnOutcome::Committed { .. })
            ) {
                ok = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        assert!(ok);
        let new_viewid = c.stable_viewid(Mid(2)).or(c.stable_viewid(Mid(3))).unwrap();
        // Recover the crashed cohort: it restarts from its *stored*
        // stable viewid and rejoins the (newer) view.
        c.recover(Mid(1));
        let mut rejoined = false;
        for _ in 0..50 {
            std::thread::sleep(Duration::from_millis(100));
            if c.stable_viewid(Mid(1)).is_some_and(|v| v >= new_viewid) {
                rejoined = true;
                break;
            }
        }
        assert!(rejoined, "recovered cohort caught up to {new_viewid}");
        c.shutdown();
    }

    #[test]
    fn durable_cluster_survives_kill_all_and_restart() {
        // The acceptance scenario for the store subsystem: kill an
        // entire 3-cohort group and restart it from its FileStore WALs;
        // the new incarnation must re-form a view retaining every
        // committed transaction.
        let dir = std::env::temp_dir().join(format!("vsr-durable-test-{}", std::process::id()));
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort cleanup: the directory is usually absent"
        )]
        let _: std::io::Result<()> = std::fs::remove_dir_all(&dir);
        let start = || build(ClusterBuilder::new().durable_files(&dir, FsyncPolicy::EveryRecord));
        let c = start();
        commits(&c, 3);
        let metrics = c.store_metrics(Mid(1)).expect("durable cohort has a store");
        assert!(metrics.appends > 0, "primary journaled its records");
        // Kill everything.
        c.shutdown();
        // Restart the whole group from disk: the counter's three
        // increments must still be there, so the next one reads 4.
        let c = start();
        let mut committed_value = None;
        for _ in 0..50 {
            match c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]) {
                Ok(TxnOutcome::Committed { results }) => {
                    committed_value = Some(counter::decode_value(&results[0]).unwrap());
                    break;
                }
                Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(100)),
            }
        }
        assert_eq!(committed_value, Some(4), "restarted group kept all committed state");
        c.shutdown();
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort cleanup: a leftover temp directory fails nothing"
        )]
        let _: std::io::Result<()> = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_written_by_the_flushers_keep_every_commit() {
        // Group commit hands every checkpoint to its cohort's flusher.
        // A snapshot every 8 records makes many of them, on file WALs,
        // across a backup's crash and recovery.
        let dir = std::env::temp_dir().join(format!("vsr-flusher-ckpt-{}", std::process::id()));
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort cleanup: the directory is usually absent"
        )]
        let _: std::io::Result<()> = std::fs::remove_dir_all(&dir);
        let mut cfg = CohortConfig::new();
        cfg.snapshot_interval = 8;
        let policy = FsyncPolicy::Group { max_batch: 64, max_delay_ms: 5 };
        let c = build(ClusterBuilder::new().cohorts(cfg).durable_files(&dir, policy));
        commits(&c, 20);
        c.crash(Mid(3));
        commits(&c, 10);
        c.recover(Mid(3));
        commits(&c, 10);
        c.crash(Mid(2));
        let outcome = c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]);
        let Ok(TxnOutcome::Committed { results }) = outcome else { panic!("{outcome:?}") };
        assert_eq!(counter::decode_value(&results[0]), Ok(41), "every commit counted");
        for mid in [Mid(1), Mid(3)] {
            let checkpoints = c.store_metrics(mid).expect("a store").checkpoints;
            assert!(checkpoints >= 2, "{mid} wrote {checkpoints} checkpoints");
        }
        c.shutdown();
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort cleanup: a leftover temp directory fails nothing"
        )]
        let _: std::io::Result<()> = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_mem_cluster_recovers_crashed_cohort_from_wal() {
        let c = build(ClusterBuilder::new().durable(FsyncPolicy::EveryRecord));
        commits(&c, 1);
        c.crash(Mid(2));
        c.recover(Mid(2));
        // The recovered backup replays its WAL and keeps serving.
        let mut ok = false;
        for _ in 0..20 {
            if matches!(
                c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]),
                Ok(TxnOutcome::Committed { .. })
            ) {
                ok = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        assert!(ok);
        c.shutdown();
    }

    #[test]
    fn flusher_falls_back_to_inline_flush_when_handle_unavailable() {
        // A store that hands out no sync handle (SimDisk, or a file
        // store whose descriptor duplicate fails mid-run) must not
        // strand the batch: the flusher is the only flush path, so it
        // flushes under the lock and still posts the covering
        // completion.
        use vsr_core::durable::DurableEvent;
        use vsr_store::StoreError;
        #[derive(Debug)]
        struct NoHandleStore {
            unsynced: u64,
            appends: u64,
        }
        // `sync_handle` keeps its default `None`: every probe must take
        // the inline path.
        impl Store for NoHandleStore {
            fn persist(&mut self, _event: &DurableEvent) -> Result<(), StoreError> {
                self.appends += 1;
                self.unsynced += 1;
                Ok(())
            }
            fn flush(&mut self) -> Result<(), StoreError> {
                self.unsynced = 0;
                Ok(())
            }
            fn unsynced_records(&self) -> u64 {
                self.unsynced
            }
            fn recover(&mut self, fallback: ViewId) -> RecoveredState {
                RecoveredState::viewid_only(fallback)
            }
            fn policy(&self) -> FsyncPolicy {
                FsyncPolicy::Group { max_batch: 64, max_delay_ms: 5 }
            }
            fn metrics(&self) -> StoreMetrics {
                StoreMetrics { appends: self.appends, ..StoreMetrics::default() }
            }
        }
        let store: SharedStore =
            Arc::new(Mutex::new(Box::new(NoHandleStore { unsynced: 7, appends: 7 })));
        let queue: HostQueue = BoundedQueue::new(8, DropCounters::new());
        let (wake_tx, wake_rx) = bounded::<()>(1);
        wake_tx.send(()).unwrap();
        drop(wake_tx); // one wake; the closed channel then stops the loop
        let (_checkpoint_tx, checkpoint_rx) = bounded::<DurableEvent>(1);
        flusher_loop(Mid(1), &store, &queue, &wake_rx, &checkpoint_rx);
        assert_eq!(store.lock().unsynced_records(), 0, "inline fallback flushed the batch");
        assert!(
            matches!(
                queue.try_recv(),
                Some(HostMsg::To(Mid(1), Inbox::Synced { upto: 7, covered: 7 }))
            ),
            "the inline fallback posts the covering completion"
        );
    }

    #[test]
    fn progress_wakeup_is_prompt() {
        // The submit retry loop sleeps on this condvar between rounds;
        // a bump must wake it long before the timeout expires.
        let progress = Arc::new(Progress::default());
        let seen = progress.current();
        let bumper = progress.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            bumper.bump();
        });
        let t0 = Instant::now();
        progress.wait_past(seen, Duration::from_secs(5));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "woken by the bump, not the timeout: waited {:?}",
            t0.elapsed()
        );
        handle.join().unwrap();
    }

    #[test]
    fn failover_submit_latency_is_bounded() {
        // Regression for the busy-poll submit loop: after a primary
        // crash, the retry rounds sleep on the view-progress condvar
        // (waking as soon as the new view forms) instead of serializing
        // unconditional 100ms naps, so a full failover stays well
        // inside the old worst case of 20 rounds x 100ms on top of the
        // view change itself.
        let c = cluster();
        commits(&c, 1);
        c.crash(Mid(1));
        let t0 = Instant::now();
        let mut committed = false;
        for _ in 0..20 {
            if matches!(
                c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]),
                Ok(TxnOutcome::Committed { .. })
            ) {
                committed = true;
                break;
            }
        }
        assert!(committed, "failover never completed");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "failover took {:?}, submit loop is not being woken",
            t0.elapsed()
        );
        c.shutdown();
    }

    #[test]
    fn metrics_and_traces_are_collected() {
        let c = build(ClusterBuilder::new().tracing());
        commits(&c, 3);
        let m = c.metrics();
        assert_eq!(m.submitted, 3);
        assert_eq!(m.committed, 3);
        assert_eq!(m.commit_latency.count(), 3);
        assert!(m.foreground_msgs > 0, "request/response traffic counted");
        assert!(m.total_msgs() >= m.foreground_msgs);
        let events = c.trace_events();
        assert!(
            events.iter().any(|e| matches!(e.kind, TraceKind::Send { .. })),
            "sends traced: {} events",
            events.len()
        );
        assert!(
            events.iter().any(|e| matches!(e.kind, TraceKind::Recv { .. })),
            "deliveries traced"
        );
        c.shutdown();
    }

    fn group_commit_cluster() -> Cluster {
        build(ClusterBuilder::new().durable(FsyncPolicy::Group { max_batch: 64, max_delay_ms: 5 }))
    }

    #[test]
    fn a_co_hosted_cohort_stops_crashes_and_recovers_while_its_peers_run() {
        // Every cohort shares the host. A backup's failed covering fsync
        // stops only that backup; the primary and the other backup
        // commit without it. A crash and recovery rejoin it from its WAL.
        let c = group_commit_cluster();
        commits(&c, 3);
        c.fail_next_syncs(Mid(3), 1);
        commits(&c, 5);
        let stopped = c.store_metrics(Mid(3)).expect("a store").appends;
        commits(&c, 5);
        assert_eq!(c.store_metrics(Mid(3)).expect("a store").appends, stopped, "m3 stopped");
        assert!(c.stable_viewid(Mid(3)).is_some(), "a stopped cohort is not a crashed one");
        c.crash(Mid(3));
        assert_eq!(c.stable_viewid(Mid(3)), None);
        commits(&c, 5);
        c.recover(Mid(3));
        commits(&c, 10);
        assert!(c.store_metrics(Mid(3)).expect("a store").appends > stopped, "m3 recovered");
        assert!(c.metrics().group_fsyncs > 0, "flusher completions reached the host");
        c.shutdown();
    }

    /// CPU time the host thread has used so far, in clock ticks
    /// (`/proc/thread-self/stat` read on the host thread).
    #[cfg(target_os = "linux")]
    fn host_cpu_ticks(c: &Cluster) -> u64 {
        let stat = c
            .on_host(|_| std::fs::read_to_string("/proc/thread-self/stat"))
            .expect("a running host")
            .expect("procfs");
        // Fields after the parenthesised name: state is the first,
        // utime and stime the 12th and 13th.
        let fields: Vec<&str> =
            stat[stat.rfind(')').expect("stat format") + 2..].split(' ').collect();
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn the_host_idles_while_a_stopped_cohort_waits_for_crash() {
        // A stopped cohort's timers must not keep the host awake: the
        // host sleeps until the live cohorts' next timer, not until a
        // due timer of a cohort that will never run it.
        let c = group_commit_cluster();
        commits(&c, 3);
        c.fail_next_syncs(Mid(3), 1);
        commits(&c, 5);
        // Let the stopped cohort's earliest timer fall due.
        std::thread::sleep(Duration::from_millis(300));
        let (t0, before) = (Instant::now(), host_cpu_ticks(&c));
        std::thread::sleep(Duration::from_millis(1000));
        let used = host_cpu_ticks(&c) - before;
        // Clock ticks are 10 ms on Linux; the idle host used 0–2 here,
        // a spinning one as many as the window holds.
        let window = t0.elapsed().as_millis() as u64 / 10;
        assert!(used * 4 < window, "host used {used} of {window} ticks while idle");
        c.crash(Mid(3));
        c.recover(Mid(3));
        commits(&c, 3);
        c.shutdown();
    }

    #[test]
    fn unknown_group_errors() {
        let c = cluster();
        assert_eq!(
            c.submit(GroupId(99), vec![]).unwrap_err(),
            SubmitError::UnknownGroup(GroupId(99))
        );
        c.shutdown();
    }
}
