//! # Threaded live runtime
//!
//! Runs the same sans-I/O [`Cohort`](vsr_core::cohort::Cohort#) state
//! machines as the simulator, but on real threads with real clocks:
//! each cohort owns a thread, messages land in bounded drop-oldest
//! mailboxes (vsr-net's [`BoundedQueue`] — the same backpressure policy
//! the TCP transport uses), and timers run on a per-thread timer wheel
//! (1 tick = 1 millisecond).
//!
//! By default messages hop between mailboxes in-process. With
//! [`ClusterBuilder::networked`] the router hands every inter-cohort
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
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vsr_core::cohort::{CallOp, Cohort, CohortParams, Effect, Observation, Timer, TxnOutcome};
use vsr_core::config::CohortConfig;
use vsr_core::durable::{DurabilityGate, RecoveredState};
use vsr_core::messages::Message;
use vsr_core::module::Module;
use vsr_core::types::{GroupId, Mid, ViewId, Viewstamp};
use vsr_core::view::Configuration;
use vsr_net::socket::DeliverFn;
use vsr_net::{
    AddrMap, BoundedQueue, DropCounters, Endpoint, NetConfig, NetCounters, NetMetrics, RecvError,
};
use vsr_obs::{Metrics, PersistDelta, SharedRecorder, TraceEvent, TraceKind};
use vsr_store::{FileStore, FsyncPolicy, SimDisk, Store, StoreError, StoreMetrics};

/// A module factory shared across threads (recovery re-instantiates the
/// module).
pub type SharedFactory = Arc<dyn Fn() -> Box<dyn Module> + Send + Sync>;

/// A cohort's stable store, shared between its thread (which executes
/// `Effect::Persist`) and the cluster (which replays it at recovery).
type SharedStore = Arc<Mutex<Box<dyn Store + Send>>>;

/// Which stable-storage backend cohort threads write to.
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

enum Inbox {
    Msg {
        from: Mid,
        msg: Message,
    },
    Request {
        req_id: u64,
        ops: Vec<CallOp>,
        reply: Sender<TxnOutcome>,
    },
    /// The flusher thread's covering fsync returned: every record
    /// appended up to the `upto` watermark is durable and the effects
    /// parked behind them may go out. `covered` is the frame count the
    /// sync retired, for the group-commit histograms; zero means an
    /// inline sync superseded the retirement (the frames are durable
    /// and already accounted, so this completion only advances the
    /// watermark).
    Synced {
        upto: u64,
        covered: u64,
    },
    /// The covering fsync failed; fatal to the cohort (nothing it was
    /// meant to cover may be acknowledged).
    SyncFailed {
        err: StoreError,
    },
    Stop,
}

/// A cohort's bounded inbox. `Msg` entries are droppable (the network
/// may drop them anyway); `Request` and `Stop` are critical.
type Mailbox = Arc<BoundedQueue<Inbox>>;

/// Routes messages between cohort threads; absent entries are crashed
/// cohorts (their mail is dropped, like the simulator's).
///
/// In networked mode every inter-cohort message leaves through the
/// *sender's* [`Endpoint`] and re-enters via
/// [`deliver_local`](Router::deliver_local) on the receiver's reader
/// thread — the in-process route map then only performs final delivery
/// into the destination mailbox.
struct Router {
    routes: RwLock<BTreeMap<Mid, Mailbox>>,
    endpoints: RwLock<BTreeMap<Mid, Arc<Endpoint>>>,
    networked: bool,
}

impl Router {
    fn new(networked: bool) -> Self {
        Router { routes: RwLock::default(), endpoints: RwLock::default(), networked }
    }

    fn send(&self, from: Mid, to: Mid, msg: Message) {
        if self.networked && to != from {
            // A crashed sender's endpoint is already gone; its mail
            // vanishes, exactly like the network's would.
            if let Some(ep) = self.endpoints.read().get(&from) {
                ep.send(to, &msg);
            }
            return;
        }
        self.deliver_local(from, to, msg);
    }

    /// Final hop: push into the destination mailbox (drop-oldest on
    /// overflow; a missing route is a crashed cohort and drops mail).
    fn deliver_local(&self, from: Mid, to: Mid, msg: Message) {
        if let Some(mailbox) = self.routes.read().get(&to) {
            mailbox.push(Inbox::Msg { from, msg });
        }
    }
}

/// View-progress signal shared between cohort threads and submitters.
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

struct CohortThread {
    cohort: Cohort,
    rx: Mailbox,
    router: Arc<Router>,
    epoch: Instant,
    timers: BinaryHeap<TimerEntry>,
    timer_seq: u64,
    replies: BTreeMap<u64, Sender<TxnOutcome>>,
    /// Wall-clock submission instants of in-flight requests, for the
    /// leased-read latency histogram (microsecond resolution; the
    /// coarse `now_ticks` millisecond clock would read mostly zero).
    req_t0: BTreeMap<u64, Instant>,
    stable: Arc<Mutex<ViewId>>,
    store: Option<SharedStore>,
    observations: Option<Arc<BoundedQueue<(Mid, Observation)>>>,
    metrics: Arc<Mutex<Metrics>>,
    progress: Arc<Progress>,
    recorder: Option<SharedRecorder>,
    /// Group commit (`FsyncPolicy::Group` stores only): the gate that
    /// parks effects asserting durability until their covering fsync,
    /// and the wake token for the cohort's flusher thread. The flusher
    /// loops covering fsyncs back-to-back until the log is clean, so a
    /// token is only needed on the clean → dirty transition; a full
    /// channel means a wake is already pending. Dropping the sender
    /// (cohort thread exit, or a fatal store error) stops the flusher.
    group: Option<(DurabilityGate, Sender<()>)>,
    /// A WAL write or fsync failed; the thread stops instead of acking
    /// state that may not be durable.
    store_failed: bool,
}

/// How many mailbox entries one handler pass may drain before timers
/// and the group-commit flush get a turn. Bounds the latency a
/// saturating producer can impose on timer fires.
const MAX_PASS_ITEMS: usize = 128;

impl CohortThread {
    fn now_ticks(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Record a trace event stamped with `vs` when the observation
    /// carries its own viewstamp, else with this cohort's current one
    /// (no-op unless the cluster enabled tracing).
    fn trace(&mut self, kind: TraceKind, vs: Option<Viewstamp>) {
        let Some(recorder) = &self.recorder else { return };
        let vs = vs.or_else(|| self.cohort.history().latest());
        let tick = self.epoch.elapsed().as_millis() as u64;
        recorder.record(TraceEvent { tick, cohort: self.cohort.mid(), vs, kind });
    }

    fn run(mut self) {
        let mid = self.cohort.mid();
        let now = self.now_ticks();
        let start_effects = self.cohort.start(now);
        self.apply(mid, start_effects);
        'main: loop {
            let timeout = self
                .timers
                .peek()
                .map(|t| t.due.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(50));
            let mut next = match self.rx.recv_timeout(timeout) {
                Ok(item) => Some(item),
                Err(RecvError::TimedOut) => None,
                Err(RecvError::Closed) => break,
            };
            if next.is_some() {
                // One handler pass: drain the waiting mailbox batch
                // under a single deferred buffer flush, so one
                // coalesced BufferSend per backup — and, with group
                // commit, one covering fsync — serves every request
                // and message the pass admitted.
                self.cohort.begin_pass();
                let mut drained = 0;
                while let Some(item) = next.take() {
                    match item {
                        Inbox::Msg { from, msg } => {
                            let now = self.now_ticks();
                            let recv = self.metrics.lock().on_recv(from, &msg);
                            let effects = self.cohort.on_message(now, from, msg);
                            self.trace(recv, None);
                            self.apply(mid, effects);
                        }
                        Inbox::Request { req_id, ops, reply } => {
                            self.replies.insert(req_id, reply);
                            self.req_t0.insert(req_id, Instant::now());
                            let now = self.now_ticks();
                            let effects = self.cohort.begin_transaction(now, req_id, ops);
                            // The pipelining depth clients actually
                            // reach: sampled as each request joins the
                            // in-flight set.
                            self.metrics
                                .lock()
                                .inflight_txns
                                .record(self.cohort.inflight_txns() as u64);
                            self.apply(mid, effects);
                        }
                        Inbox::Synced { upto, covered } => {
                            self.on_sync_complete(mid, upto, covered);
                        }
                        Inbox::SyncFailed { err } => {
                            self.fatal_store_error(err);
                        }
                        Inbox::Stop => {
                            let end = self.cohort.end_pass();
                            self.apply(mid, end);
                            break 'main;
                        }
                    }
                    drained += 1;
                    if drained < MAX_PASS_ITEMS {
                        next = self.rx.try_recv();
                    }
                }
                let end = self.cohort.end_pass();
                self.apply(mid, end);
            }
            // Fire all due timers.
            let now_instant = Instant::now();
            while self.timers.peek().is_some_and(|t| t.due <= now_instant) {
                let entry = self.timers.pop().expect("invariant: peek returned Some");
                let now = self.now_ticks();
                let effects = self.cohort.on_timer(now, entry.timer.clone());
                let fired = self.metrics.lock().on_timer(&entry.timer, &effects);
                if let Some(kind) = fired {
                    self.trace(kind, None);
                }
                self.apply(mid, effects);
            }
            // Group commit: get the covering fsync going for
            // everything this pass appended.
            if let Some((gate, wake)) = &self.group {
                if gate.is_dirty() {
                    #[expect(
                        clippy::let_underscore_untyped,
                        clippy::let_underscore_must_use,
                        reason = "a full channel means a wake is already pending; a closed one \
                                  means the flusher died and its SyncFailed is in the mailbox"
                    )]
                    let _ = wake.try_send(());
                }
            }
            if self.store_failed {
                // The WAL is gone; stop acking and let the cluster
                // crash/recover this cohort from the synced prefix.
                break;
            }
            *self.stable.lock() = self.cohort.stable_viewid();
        }
    }

    fn apply(&mut self, mid: Mid, effects: Vec<Effect>) {
        for effect in effects {
            if self.store_failed {
                // A fatal store error already dropped the parked
                // effects; nothing later may leak out either.
                return;
            }
            let admitted = match &mut self.group {
                Some((gate, _)) => gate.admit(effect),
                None => Some(effect),
            };
            if let Some(effect) = admitted {
                self.execute(mid, effect);
            }
        }
    }

    /// Execute one effect the durability gate let through (or released).
    fn execute(&mut self, mid: Mid, effect: Effect) {
        match effect {
            Effect::Send { to, msg } => {
                let sent = self.metrics.lock().on_send(to, &msg);
                self.trace(sent, None);
                self.router.send(mid, to, msg);
            }
            Effect::SetTimer { after, timer } => {
                self.timer_seq += 1;
                self.timers.push(TimerEntry {
                    due: Instant::now() + Duration::from_millis(after),
                    seq: self.timer_seq,
                    timer,
                });
            }
            Effect::TxnResult { req_id, outcome, .. } => {
                self.req_t0.remove(&req_id);
                if let Some(reply) = self.replies.remove(&req_id) {
                    #[expect(
                        clippy::let_underscore_untyped,
                        clippy::let_underscore_must_use,
                        reason = "the submitter may have timed out and dropped its receiver"
                    )]
                    let _ = reply.send(outcome);
                }
            }
            Effect::Persist(event) => {
                if let Some(store) = &self.store {
                    let (result, d, unsynced_before, unsynced_after) = {
                        let mut store = store.lock();
                        let before = store.metrics();
                        let pre = store.unsynced_records();
                        let result = store.persist(&event);
                        (result, store.metrics().since(&before), pre, store.unsynced_records())
                    };
                    if let Err(err) = result {
                        self.fatal_store_error(err);
                        return;
                    }
                    let delta = PersistDelta {
                        appends: d.appends,
                        fsyncs: d.fsyncs,
                        bytes_written: d.bytes_written,
                        checkpoints: d.checkpoints,
                        unsynced_before,
                        unsynced_after,
                    };
                    let appended = self.metrics.lock().on_persist(&delta);
                    if let Some(kind) = appended {
                        self.trace(kind, None);
                    }
                    if let Some((gate, _)) = &mut self.group {
                        let released = gate.persisted(delta.appends, unsynced_after);
                        for effect in released {
                            self.execute(mid, effect);
                        }
                    }
                }
            }
            Effect::Observe(obs) => {
                let observed = {
                    let mut m = self.metrics.lock();
                    let observed = m.on_observation(&obs);
                    if let Observation::LeasedRead { req_id, .. } = &obs {
                        if let Some(t0) = self.req_t0.get(req_id) {
                            m.lease_read_ticks.record(t0.elapsed().as_micros() as u64);
                        }
                    }
                    observed
                };
                if let Some((kind, vs)) = observed {
                    self.trace(kind, vs);
                }
                if matches!(obs, Observation::ViewChanged { .. }) {
                    // Wake submitters stuck waiting for a primary:
                    // the view just (re)formed.
                    self.progress.bump();
                }
                if let Some(tx) = &self.observations {
                    // Best-effort telemetry: a full drain evicts its
                    // oldest entry (counted as a mailbox drop) and
                    // never stalls the cohort.
                    tx.push((mid, obs));
                }
            }
        }
    }

    /// A flusher completion: the covering fsync for every record up to
    /// the `upto` watermark succeeded (the flusher already retired the
    /// frames in the store). Account the group commit and release the
    /// parked prefix.
    fn on_sync_complete(&mut self, mid: Mid, upto: u64, covered: u64) {
        if self.store_failed {
            return;
        }
        self.metrics.lock().on_sync(covered);
        if let Some((gate, _)) = &mut self.group {
            let released = gate.synced(upto);
            for effect in released {
                self.execute(mid, effect);
            }
        }
    }

    /// A WAL append or fsync failed. Nothing the failed operation was
    /// meant to cover may become visible: the parked sends and replies
    /// are dropped (submitters time out and try another member), and
    /// the run loop stops — the runtime analogue of the process crash
    /// the paper assumes on stable-storage failure.
    /// [`Cluster::recover`] restarts the cohort from the synced WAL
    /// prefix.
    fn fatal_store_error(&mut self, _err: StoreError) {
        self.group = None;
        self.replies.clear();
        self.req_t0.clear();
        self.store_failed = true;
    }
}

/// Body of a cohort's flusher thread: wait for a wake token, then
/// chain covering fsyncs until the log is clean. Each cycle detaches a
/// [`vsr_store::SyncHandle`] under the store lock (with the covered
/// frame count and append watermark), fsyncs *outside* the lock while
/// the cohort thread keeps appending the next batch, retires the
/// covered frames, and posts the completion as a critical mailbox
/// entry (never evicted by backpressure). When the store cannot detach
/// a handle ([`SimDisk`], whose sync is a watermark bump, or a failed
/// descriptor duplicate), the cycle syncs inline under the lock instead.
/// A failed
/// fsync is posted as fatal and stops the thread: nothing it was meant
/// to cover may be acknowledged.
///
/// Cadence: the chain is self-driving — after each fsync it re-probes
/// immediately and only sleeps on the wake channel once the log is
/// clean, so consecutive covering fsyncs need no cohort roundtrip and
/// each one covers whatever accumulated while the previous was on the
/// device. Alternatives measured worse (DESIGN §15): waiting for a
/// fresh pass-end wake between syncs idles the disk for a full
/// roundtrip per batch, and sleeping to accumulate bigger batches
/// costs more than the fsync it tries to amortize on kernels whose
/// minimum real sleep exceeds the fsync latency.
fn flusher_loop(store: &SharedStore, mailbox: &Mailbox, wake: &Receiver<()>) {
    while wake.recv().is_ok() {
        loop {
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
            let (handle, covered, upto) = match job {
                Ok(job) => job,
                Err(err) => {
                    #[expect(
                        clippy::let_underscore_untyped,
                        reason = "a closed mailbox means the cohort is already gone; there is \
                                  nobody left to tell"
                    )]
                    let _ = mailbox.push_critical(Inbox::SyncFailed { err });
                    return;
                }
            };
            let covered = match handle {
                // Inline sync: the lock was held, nothing raced.
                None => covered,
                Some(handle) => match handle.sync() {
                    // An inline sync that ran while this fsync was in
                    // flight supersedes the retirement: the batch is
                    // durable either way, but this completion gets no
                    // group-commit credit (covered = 0).
                    Ok(()) => {
                        if store.lock().note_synced(covered) {
                            covered
                        } else {
                            0
                        }
                    }
                    Err(err) => {
                        #[expect(
                            clippy::let_underscore_untyped,
                            reason = "a closed mailbox means the cohort is already gone; there is \
                                      nobody left to tell"
                        )]
                        let _ = mailbox.push_critical(Inbox::SyncFailed { err });
                        return;
                    }
                },
            };
            if !mailbox.push_critical(Inbox::Synced { upto, covered }) {
                return; // mailbox closed: the cohort is gone
            }
        }
    }
}

struct Handle {
    tx: Mailbox,
    join: JoinHandle<()>,
    stable: Arc<Mutex<ViewId>>,
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

    /// Capture structured [`TraceEvent`]s from every cohort thread,
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

    /// Spawn all cohort threads and return the running cluster.
    pub fn start(self) -> Cluster {
        let router = Arc::new(Router::new(self.net_addrs.is_some()));
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
        let cluster = Cluster {
            router,
            handles: Mutex::new(BTreeMap::new()),
            specs: self
                .groups
                .iter()
                .flat_map(|(g, members, f)| {
                    let members = members.clone();
                    let f = f.clone();
                    let g = *g;
                    members.clone().into_iter().map(move |m| (m, (g, members.clone(), f.clone())))
                })
                .collect(),
            peers,
            cfg: self.cfg.clone(),
            epoch,
            next_req: Mutex::new(0),
            observations: obs_rx,
            obs_tx,
            stable_store: Mutex::new(BTreeMap::new()),
            stores: Mutex::new(BTreeMap::new()),
            durability: self.durability.clone(),
            metrics: Arc::new(Mutex::new(Metrics::default())),
            progress: Arc::new(Progress::default()),
            recorder: self.tracing.then(SharedRecorder::new),
            mailbox_capacity: self.mailbox_capacity,
            mailbox_drops,
            submit_deadline: self.submit_deadline,
            net,
        };
        for (group, members, factory) in &self.groups {
            for &mid in members {
                cluster.spawn(*group, mid, members, factory.clone(), false);
            }
        }
        cluster
    }
}

/// A running cluster of cohort threads.
pub struct Cluster {
    router: Arc<Router>,
    handles: Mutex<BTreeMap<Mid, Handle>>,
    specs: BTreeMap<Mid, (GroupId, Vec<Mid>, SharedFactory)>,
    peers: BTreeMap<GroupId, Configuration>,
    cfg: CohortConfig,
    epoch: Instant,
    next_req: Mutex<u64>,
    observations: Arc<BoundedQueue<(Mid, Observation)>>,
    obs_tx: Option<Arc<BoundedQueue<(Mid, Observation)>>>,
    /// Simulated stable storage for the no-disk design: the last stable
    /// viewid of each crashed cohort, read back at recovery.
    stable_store: Mutex<BTreeMap<Mid, ViewId>>,
    /// Per-cohort WALs (durable clusters only). An entry outlives its
    /// cohort thread so a recovery can replay it.
    stores: Mutex<BTreeMap<Mid, SharedStore>>,
    durability: Durability,
    /// The same counter set the simulator's `World` collects, populated
    /// by cohort threads (traffic, observations, disk) and by
    /// [`submit`](Cluster::submit) (client-visible outcomes, latency in
    /// microseconds).
    metrics: Arc<Mutex<Metrics>>,
    /// View-progress condvar submitters sleep on between retry rounds.
    progress: Arc<Progress>,
    /// Installed when the builder enabled [`tracing`](ClusterBuilder::tracing).
    recorder: Option<SharedRecorder>,
    /// Capacity for cohort mailboxes (shared with any spawned endpoint's
    /// per-peer queues via [`NetConfig`]).
    mailbox_capacity: usize,
    /// Overflow accounting shared by every mailbox and the observation
    /// drain: evictions surface as `mailbox_drops` and rejected pushes
    /// as `mailbox_rejections` in [`metrics`](Cluster::metrics).
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
        let cohort = match &store {
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
        self.metrics.lock().records_replayed += cohort.records_replayed();
        let mailbox = BoundedQueue::new(self.mailbox_capacity, self.mailbox_drops.clone());
        self.router.routes.write().insert(mid, Arc::clone(&mailbox));
        // Networked clusters give every cohort its own transport
        // endpoint before its thread starts; inbound frames land back in
        // the local mailbox via the router's final-delivery hop.
        if let Some(net) = &self.net {
            let (listener, bind_addr, dials) = {
                let mut addrs = net.addrs.lock();
                (addrs.take_listener(mid), addrs.bind_addr(mid), addrs.dial_addrs())
            };
            let bind_addr = bind_addr
                // vsr-lint: allow(expect_used, reason = "a networked cluster whose address book misses a cohort is a startup misconfiguration")
                .expect("address book entry for cohort");
            let net_metrics = Arc::new(NetMetrics::default());
            let router = Arc::clone(&self.router);
            let deliver: DeliverFn =
                Arc::new(move |from, msg| router.deliver_local(from, mid, msg));
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
            self.router.endpoints.write().insert(mid, endpoint);
        }
        let stable = Arc::new(Mutex::new(cohort.stable_viewid()));
        // Group commit: the gate, and the flusher thread that runs
        // every covering fsync for it.
        let group = store.as_ref().and_then(|store| {
            let gate = store.lock().durability_gate()?;
            let (wake_tx, wake_rx) = bounded::<()>(1);
            let store = Arc::clone(store);
            let flusher_mailbox = Arc::clone(&mailbox);
            std::thread::Builder::new()
                .name(format!("flush-{mid}"))
                .spawn(move || flusher_loop(&store, &flusher_mailbox, &wake_rx))
                // vsr-lint: allow(expect_used, reason = "thread spawn failure at cluster construction is unrecoverable")
                .expect("spawn flusher thread");
            Some((gate, wake_tx))
        });
        let thread = CohortThread {
            cohort,
            rx: Arc::clone(&mailbox),
            router: self.router.clone(),
            epoch: self.epoch,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            replies: BTreeMap::new(),
            req_t0: BTreeMap::new(),
            stable: stable.clone(),
            store,
            observations: self.obs_tx.clone(),
            metrics: self.metrics.clone(),
            progress: self.progress.clone(),
            recorder: self.recorder.clone(),
            group,
            store_failed: false,
        };
        let join = std::thread::Builder::new()
            .name(format!("cohort-{mid}"))
            .spawn(move || thread.run())
            // vsr-lint: allow(expect_used, reason = "thread spawn failure at cluster construction is unrecoverable")
            .expect("spawn cohort thread");
        self.handles.lock().insert(mid, Handle { tx: mailbox, join, stable });
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
        self.metrics.lock().submitted += 1;
        let t0 = Instant::now();
        let result = self.submit_rounds(&members, &ops);
        {
            let mut m = self.metrics.lock();
            match &result {
                Ok(TxnOutcome::Committed { .. }) => {
                    m.committed += 1;
                    // Microseconds, not milliseconds: in-memory commits
                    // finish well under 1 ms, and whole-ms samples made
                    // every A6 percentile table read 0.
                    m.commit_latency.record(t0.elapsed().as_micros() as u64);
                }
                Ok(TxnOutcome::Aborted { .. }) => m.aborted += 1,
                Ok(TxnOutcome::Unresolved) | Err(_) => m.unresolved += 1,
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
                let tx = { self.handles.lock().get(&mid).map(|h| h.tx.clone()) };
                let Some(tx) = tx else { continue };
                let req_id = {
                    let mut n = self.next_req.lock();
                    *n += 1;
                    *n
                };
                let (reply_tx, reply_rx) = bounded(1);
                // Critical: a request must never be evicted by message
                // backpressure (the client would silently lose it).
                if !tx.push_critical(Inbox::Request { req_id, ops: ops.to_vec(), reply: reply_tx })
                {
                    continue; // mailbox closed: the cohort is stopping
                }
                match reply_rx.recv_timeout(remaining.min(slice)) {
                    Ok(TxnOutcome::Aborted {
                        reason: vsr_core::cohort::AbortReason::NotPrimary,
                    }) => continue,
                    Ok(outcome) => return Ok(outcome),
                    Err(_) => {
                        // This member accepted the request but produced
                        // no outcome inside its slice — remember it as
                        // the cohort to investigate first.
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
    /// latencies in microseconds instead of ticks. Transport counters
    /// (networked clusters) fold in live endpoints plus the accumulated
    /// totals of endpoints torn down by earlier crashes.
    pub fn metrics(&self) -> Metrics {
        let mut m = self.metrics.lock().clone();
        m.mailbox_drops = self.mailbox_drops.evictions();
        m.mailbox_rejections = self.mailbox_drops.rejections();
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
        self.router.endpoints.write().remove(&mid);
        let endpoint = net.endpoints.lock().remove(&mid);
        if let Some(endpoint) = endpoint {
            endpoint.shutdown();
            net.base.lock().add(endpoint.metrics().snapshot());
        }
    }

    /// Crash a cohort: its thread stops, its endpoint (if networked)
    /// closes — peers see resets and begin reconnect backoff — and its
    /// mail is dropped. The stable viewid is captured for a later
    /// [`recover`](Self::recover).
    pub fn crash(&self, mid: Mid) {
        let handle = self.handles.lock().remove(&mid);
        self.router.routes.write().remove(&mid);
        self.teardown_endpoint(mid);
        if let Some(handle) = handle {
            let stable = *handle.stable.lock();
            handle.tx.push_critical(Inbox::Stop);
            handle.tx.close();
            #[expect(
                clippy::let_underscore_untyped,
                clippy::let_underscore_must_use,
                reason = "a crash-simulating thread may panic on its way down; the join result is \
                          the point of the crash"
            )]
            let _ = handle.join.join();
            self.stable_store.lock().insert(mid, stable);
        }
    }

    /// Recover a crashed cohort. A durable cohort replays its WAL
    /// (possibly rejoining up to date — see `vsr_store`'s safety rule);
    /// otherwise it restarts from its stable viewid alone.
    pub fn recover(&self, mid: Mid) {
        if self.handles.lock().contains_key(&mid) {
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
    /// The cohort thread treats a failed covering fsync as fatal — it
    /// stops without acking anything the fsync was meant to cover —
    /// so after arming this, expect the cohort to need
    /// [`crash`](Cluster::crash)/[`recover`](Cluster::recover).
    pub fn fail_next_syncs(&self, mid: Mid, n: u64) {
        if let Some(store) = self.stores.lock().get(&mid) {
            store.lock().fail_next_syncs(n);
        }
    }

    /// The stable viewid last recorded by a live cohort.
    pub fn stable_viewid(&self, mid: Mid) -> Option<ViewId> {
        self.handles.lock().get(&mid).map(|h| *h.stable.lock())
    }

    /// Drain any observations collected so far (requires
    /// [`ClusterBuilder::observe`]).
    pub fn observations(&self) -> Vec<(Mid, Observation)> {
        std::iter::from_fn(|| self.observations.try_recv()).collect()
    }

    /// Stop every cohort thread (and transport endpoint) and dismantle
    /// the cluster.
    pub fn shutdown(self) {
        let mids: Vec<Mid> = self.handles.lock().keys().copied().collect();
        // Endpoints first: with the sockets gone no new mail arrives,
        // so cohort threads drain and stop promptly.
        for &mid in &mids {
            self.teardown_endpoint(mid);
        }
        let mut handles = self.handles.lock();
        for mid in mids {
            if let Some(handle) = handles.remove(&mid) {
                handle.tx.push_critical(Inbox::Stop);
                handle.tx.close();
                #[expect(
                    clippy::let_underscore_untyped,
                    clippy::let_underscore_must_use,
                    reason = "join failure at shutdown means the thread already died; there is \
                              nothing left to clean up"
                )]
                let _ = handle.join.join();
            }
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("cohorts", &self.handles.lock().len())
            .finish_non_exhaustive()
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

    fn cluster() -> Cluster {
        ClusterBuilder::new()
            .group(CLIENT, &[Mid(10)], || Box::new(NullModule))
            .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(counter::CounterModule))
            .start()
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
        assert!(matches!(
            c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]),
            Ok(TxnOutcome::Committed { .. })
        ));
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
        let c = ClusterBuilder::new()
            .observe()
            .group(CLIENT, &[Mid(10)], || Box::new(NullModule))
            .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(counter::CounterModule))
            .start();
        assert!(matches!(
            c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]),
            Ok(TxnOutcome::Committed { .. })
        ));
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
        let c = ClusterBuilder::new()
            .observe()
            .group(CLIENT, &[Mid(10)], || Box::new(NullModule))
            .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(counter::CounterModule))
            .start();
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
        let build = || {
            ClusterBuilder::new()
                .durable_files(&dir, FsyncPolicy::EveryRecord)
                .group(CLIENT, &[Mid(10)], || Box::new(NullModule))
                .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(counter::CounterModule))
                .start()
        };
        let c = build();
        for _ in 0..3 {
            assert!(matches!(
                c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]),
                Ok(TxnOutcome::Committed { .. })
            ));
        }
        let metrics = c.store_metrics(Mid(1)).expect("durable cohort has a store");
        assert!(metrics.appends > 0, "primary journaled its records");
        // Kill everything.
        c.shutdown();
        // Restart the whole group from disk: the counter's three
        // increments must still be there, so the next one reads 4.
        let c = build();
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
    fn durable_mem_cluster_recovers_crashed_cohort_from_wal() {
        let c = ClusterBuilder::new()
            .durable(FsyncPolicy::EveryRecord)
            .group(CLIENT, &[Mid(10)], || Box::new(NullModule))
            .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(counter::CounterModule))
            .start();
        assert!(matches!(
            c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]),
            Ok(TxnOutcome::Committed { .. })
        ));
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
        let mailbox: Mailbox = BoundedQueue::new(8, DropCounters::new());
        let (wake_tx, wake_rx) = bounded::<()>(1);
        wake_tx.send(()).unwrap();
        drop(wake_tx); // one wake; the closed channel then stops the loop
        flusher_loop(&store, &mailbox, &wake_rx);
        assert_eq!(store.lock().unsynced_records(), 0, "inline fallback flushed the batch");
        assert!(
            matches!(mailbox.try_recv(), Some(Inbox::Synced { upto: 7, covered: 7 })),
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
        assert!(matches!(
            c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]),
            Ok(TxnOutcome::Committed { .. })
        ));
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
        let c = ClusterBuilder::new()
            .tracing()
            .group(CLIENT, &[Mid(10)], || Box::new(NullModule))
            .group(SERVER, &[Mid(1), Mid(2), Mid(3)], || Box::new(counter::CounterModule))
            .start();
        for _ in 0..3 {
            assert!(matches!(
                c.submit(CLIENT, vec![counter::incr(SERVER, 0, 1)]),
                Ok(TxnOutcome::Committed { .. })
            ));
        }
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
