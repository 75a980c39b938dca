//! The I/O edge: TCP endpoints that carry [`Message`] frames between
//! cohort runtimes.
//!
//! Thread shape per [`Endpoint`]:
//!
//! * one **accept** thread on the local listener;
//! * one **reader** thread per inbound connection — reassembles frames
//!   with [`FrameBuf`] and hands decoded messages to the deliver
//!   callback. A CRC/decode failure or a stalled partial frame kills
//!   the connection (the remote's writer will reconnect);
//! * one **writer** thread per peer in the dial map — drives a
//!   [`LinkFsm`] through connect / established / half-open /
//!   reconnecting, draining that peer's [`BoundedQueue`] while the
//!   link is up. A link backing off redials at once when the peer
//!   connects to this endpoint, and a re-established link drops what
//!   was queued while it was down.
//!
//! Losing frames is always acceptable where blocking is not: the
//! host thread enqueues and moves on; queue overflow, link downtime,
//! and deadline teardowns all surface as drops (overflow is counted)
//! that the protocol's retry timers paper over, exactly as they do for
//! a lossy network. All sleeps and deadline checks poll the shutdown
//! flag, so teardown completes in a bounded couple hundred milliseconds.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "this module IS the transport: sockets live here so every other crate stays sans-I/O; \
              accept/reader/writer threads are the runtime edge while protocol state stays in the \
              sans-I/O core; read deadlines and reconnect backoff are measured against real time"
)]

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vsr_core::messages::Message;
use vsr_core::types::Mid;

use crate::frame::{frame_message, FrameBuf};
use crate::link::{LinkFsm, LinkState};
use crate::queue::{BoundedQueue, RecvError};
use crate::{NetConfig, NetMetrics};

/// How often blocked reads/receives wake to poll the shutdown flag.
const POLL_MS: u64 = 50;
/// Granularity of backoff sleeps (so shutdown is never stuck behind a
/// long reconnect delay).
const BACKOFF_SLICE_MS: u64 = 20;
/// Caps on one writer pass's coalesced batch: total payload bytes and
/// frame count. Bounds both the vectored-write slice array and how
/// long a batch can monopolize the socket before deadline checks run.
const MAX_COALESCED_BYTES: usize = 256 * 1024;
const MAX_COALESCED_FRAMES: usize = 1024;

/// Write every byte of every buffer with vectored writes, tracking a
/// `(buffer index, offset)` cursor across short writes.
/// `Write::write_all_vectored` / `IoSlice::advance_slices` would do
/// this but are nightly-unstable, so the loop is hand-rolled: rebuild
/// the slice array from the cursor after each write.
fn write_vectored_all(sock: &mut TcpStream, bufs: &[Vec<u8>]) -> io::Result<()> {
    let mut idx = 0;
    let mut off = 0;
    let mut slices: Vec<io::IoSlice<'_>> = Vec::with_capacity(bufs.len());
    while idx < bufs.len() {
        slices.clear();
        slices.push(io::IoSlice::new(&bufs[idx][off..]));
        for buf in &bufs[idx + 1..] {
            slices.push(io::IoSlice::new(buf));
        }
        let mut n = sock.write_vectored(&slices)?;
        if n == 0 {
            return Err(io::Error::from(io::ErrorKind::WriteZero));
        }
        while n > 0 && idx < bufs.len() {
            let left = bufs[idx].len() - off;
            if n >= left {
                n -= left;
                idx += 1;
                off = 0;
            } else {
                off += n;
                n = 0;
            }
        }
    }
    Ok(())
}

/// Callback invoked by reader threads for every decoded frame:
/// `(sender mid, message)`. Runs on the reader thread — implementations
/// must hand off quickly (e.g. push into a cohort mailbox).
pub type DeliverFn = Arc<dyn Fn(Mid, Message) + Send + Sync>;

// ------------------------------------------------------------- AddrMap

/// The cluster's address book: where each cohort listens and where
/// peers should dial to reach it.
///
/// The two are distinct on purpose: pointing a cohort's *dial* address
/// at a [`ChaosProxy`](crate::ChaosProxy) front (via
/// [`dial_via`](AddrMap::dial_via)) routes every peer's traffic to it
/// through the proxy while it keeps listening where it always did.
///
/// [`loopback`](AddrMap::loopback) binds ephemeral listeners eagerly
/// and *holds* them, closing the pick-a-port/rebind race: the port is
/// owned from the moment it is known, and the endpoint later adopts
/// the live listener via [`take_listener`](AddrMap::take_listener).
#[derive(Debug)]
pub struct AddrMap {
    entries: BTreeMap<Mid, AddrEntry>,
}

#[derive(Debug)]
struct AddrEntry {
    bind: SocketAddr,
    dial: SocketAddr,
    listener: Option<TcpListener>,
}

impl AddrMap {
    /// Bind every mid to an ephemeral loopback port, keeping the live
    /// listeners until endpoints adopt them.
    pub fn loopback(mids: &[Mid]) -> io::Result<AddrMap> {
        let mut entries = BTreeMap::new();
        for &mid in mids {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            let addr = listener.local_addr()?;
            entries.insert(mid, AddrEntry { bind: addr, dial: addr, listener: Some(listener) });
        }
        Ok(AddrMap { entries })
    }

    /// An address book over explicit, caller-managed addresses (no
    /// pre-bound listeners; each endpoint binds at start).
    pub fn from_addrs(addrs: BTreeMap<Mid, SocketAddr>) -> AddrMap {
        AddrMap {
            entries: addrs
                .into_iter()
                .map(|(mid, addr)| (mid, AddrEntry { bind: addr, dial: addr, listener: None }))
                .collect(),
        }
    }

    /// Route all traffic *to* `mid` through `front` (a chaos proxy
    /// listening on `front` and forwarding to the cohort's bind
    /// address). No-op for an unknown mid.
    pub fn dial_via(&mut self, mid: Mid, front: SocketAddr) {
        if let Some(e) = self.entries.get_mut(&mid) {
            e.dial = front;
        }
    }

    /// Every mid in the book, ascending.
    pub fn mids(&self) -> Vec<Mid> {
        self.entries.keys().copied().collect()
    }

    /// Where `mid` listens (and re-binds after a crash).
    pub fn bind_addr(&self, mid: Mid) -> Option<SocketAddr> {
        self.entries.get(&mid).map(|e| e.bind)
    }

    /// Where peers dial to reach `mid` (the proxy front, if routed).
    pub fn dial_addr(&self, mid: Mid) -> Option<SocketAddr> {
        self.entries.get(&mid).map(|e| e.dial)
    }

    /// The full dial map for building an endpoint's peer set.
    pub fn dial_addrs(&self) -> BTreeMap<Mid, SocketAddr> {
        self.entries.iter().map(|(&mid, e)| (mid, e.dial)).collect()
    }

    /// Adopt the pre-bound listener for `mid`, if this map still holds
    /// one. After a crash the listener is gone — recovery re-binds
    /// [`bind_addr`](AddrMap::bind_addr) instead.
    pub fn take_listener(&mut self, mid: Mid) -> Option<TcpListener> {
        self.entries.get_mut(&mid).and_then(|e| e.listener.take())
    }
}

// ------------------------------------------------------------ Endpoint

struct Shared {
    local: Mid,
    cfg: NetConfig,
    metrics: Arc<NetMetrics>,
    deliver: DeliverFn,
    closed: AtomicBool,
    listen_addr: SocketAddr,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Per peer, how many inbound connections from it have delivered a
    /// first frame. A writer backing off from that peer redials as soon
    /// as the count moves: the peer is listening again.
    inbound: BTreeMap<Mid, AtomicU64>,
}

struct PeerLink {
    queue: Arc<BoundedQueue<Vec<u8>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

/// One cohort's transport endpoint: a listener plus an outbound link
/// per peer. Dropping (or [`shutdown`](Endpoint::shutdown)ing) the
/// endpoint closes the listener and joins every thread, which is what
/// "crashing" a cohort means to the network — peers see connection
/// resets and begin reconnect backoff.
pub struct Endpoint {
    shared: Arc<Shared>,
    links: BTreeMap<Mid, PeerLink>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Endpoint {
    /// Start an endpoint on an already-bound listener. `peers` maps
    /// every *other* cohort to its dial address; `deliver` receives
    /// each decoded inbound frame on a reader thread.
    pub fn start(
        local: Mid,
        listener: TcpListener,
        peers: &BTreeMap<Mid, SocketAddr>,
        cfg: NetConfig,
        metrics: Arc<NetMetrics>,
        deliver: DeliverFn,
    ) -> io::Result<Endpoint> {
        let listen_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            local,
            cfg,
            metrics,
            deliver,
            closed: AtomicBool::new(false),
            listen_addr,
            readers: Mutex::new(Vec::new()),
            inbound: peers.keys().map(|&peer| (peer, AtomicU64::new(0))).collect(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("net-accept-{}", local.0))
                .spawn(move || accept_loop(&shared, &listener))?
        };
        let mut links = BTreeMap::new();
        for (&peer, &dial) in peers {
            if peer == local {
                continue;
            }
            let queue = BoundedQueue::new(shared.cfg.queue_capacity, shared.metrics.queue.clone());
            let writer = {
                let shared = Arc::clone(&shared);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("net-writer-{}-{}", local.0, peer.0))
                    .spawn(move || writer_loop(&shared, peer, dial, &queue))?
            };
            links.insert(peer, PeerLink { queue, writer: Mutex::new(Some(writer)) });
        }
        Ok(Endpoint { shared, links, accept: Mutex::new(Some(accept)) })
    }

    /// Bind `bind_addr` and start. Retries the bind for up to
    /// `rebind_for`, because a recovering cohort's old listener (and
    /// its accept thread) may take a moment to release the port.
    pub fn bind(
        local: Mid,
        bind_addr: SocketAddr,
        peers: &BTreeMap<Mid, SocketAddr>,
        cfg: NetConfig,
        metrics: Arc<NetMetrics>,
        deliver: DeliverFn,
        rebind_for: Duration,
    ) -> io::Result<Endpoint> {
        let deadline = Instant::now() + rebind_for;
        let listener = loop {
            match TcpListener::bind(bind_addr) {
                Ok(l) => break l,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(POLL_MS));
                }
            }
        };
        Endpoint::start(local, listener, peers, cfg, metrics, deliver)
    }

    /// The address this endpoint accepts on.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.listen_addr
    }

    /// Queue a message for `to`. Never blocks: a full queue evicts its
    /// oldest frame (counted in the metrics); an unknown peer returns
    /// `false`. Delivery is best-effort by design — the protocol's
    /// retry timers own reliability.
    pub fn send(&self, to: Mid, msg: &Message) -> bool {
        match self.links.get(&to) {
            Some(link) => link.queue.push(frame_message(self.shared.local, msg)),
            None => false,
        }
    }

    /// This endpoint's transport counters.
    pub fn metrics(&self) -> &Arc<NetMetrics> {
        &self.shared.metrics
    }

    /// Stop all threads and close every connection. Idempotent; also
    /// runs on drop. Takes `&self` so a shared (`Arc`) endpoint can be
    /// torn down by whoever notices the crash first.
    pub fn shutdown(&self) {
        if self.shared.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        for link in self.links.values() {
            link.queue.close();
        }
        // Unblock the accept thread with a throwaway connection.
        TcpStream::connect_timeout(&self.shared.listen_addr, Duration::from_millis(250)).ok();
        if let Some(h) = self.accept.lock().unwrap_or_else(PoisonError::into_inner).take() {
            h.join().ok();
        }
        for link in self.links.values() {
            let writer = link.writer.lock().unwrap_or_else(PoisonError::into_inner).take();
            if let Some(h) = writer {
                h.join().ok();
            }
        }
        let readers = {
            let mut guard = self.shared.readers.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *guard)
        };
        for h in readers {
            h.join().ok();
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ------------------------------------------------------------- threads

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((sock, _)) => {
                if shared.closed.load(Ordering::SeqCst) {
                    return;
                }
                let reader = {
                    let shared = Arc::clone(shared);
                    std::thread::Builder::new()
                        .name(format!("net-reader-{}", shared.local.0))
                        .spawn(move || reader_loop(&shared, sock))
                };
                match reader {
                    Ok(h) => shared.readers.lock().unwrap_or_else(PoisonError::into_inner).push(h),
                    Err(_) => continue, // out of threads: drop the connection
                }
            }
            Err(_) => {
                if shared.closed.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(POLL_MS));
            }
        }
    }
}

fn reader_loop(shared: &Arc<Shared>, mut sock: TcpStream) {
    sock.set_read_timeout(Some(Duration::from_millis(POLL_MS))).ok();
    let mut fbuf = FrameBuf::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut last_progress = Instant::now();
    let read_deadline = Duration::from_millis(shared.cfg.read_deadline_ms);
    let mut first_frame = true;
    loop {
        if shared.closed.load(Ordering::SeqCst) {
            sock.shutdown(Shutdown::Both).ok();
            return;
        }
        match sock.read(&mut chunk) {
            Ok(0) => return, // orderly close from the peer
            Ok(n) => {
                last_progress = Instant::now();
                fbuf.extend(&chunk[..n]);
                loop {
                    match fbuf.next_frame() {
                        Ok(Some((from, msg))) => {
                            if first_frame {
                                first_frame = false;
                                if let Some(count) = shared.inbound.get(&from) {
                                    count.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            shared.metrics.frames_recvd.fetch_add(1, Ordering::Relaxed);
                            (shared.deliver)(from, msg);
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Corrupt stream: unrecoverable on this
                            // connection. Drop it; the peer reconnects.
                            shared.metrics.crc_rejects.fetch_add(1, Ordering::Relaxed);
                            sock.shutdown(Shutdown::Both).ok();
                            return;
                        }
                    }
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                // Idle is fine; a *stalled partial frame* is a half-open
                // connection and trips the read deadline.
                if fbuf.has_partial() && last_progress.elapsed() >= read_deadline {
                    shared.metrics.deadline_hits.fetch_add(1, Ordering::Relaxed);
                    sock.shutdown(Shutdown::Both).ok();
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return, // reset/aborted: the peer will redial us
        }
    }
}

fn writer_loop(
    shared: &Arc<Shared>,
    peer: Mid,
    dial: SocketAddr,
    queue: &Arc<BoundedQueue<Vec<u8>>>,
) {
    let salt = shared.local.0.rotate_left(32) ^ peer.0;
    let mut fsm = LinkFsm::new(salt);
    let mut sock: Option<TcpStream> = None;
    let cfg = &shared.cfg;
    // The peer's inbound connections to this endpoint, counted when the
    // last dial began or the established link was lost.
    let inbound = |shared: &Shared| shared.inbound.get(&peer).map(|c| c.load(Ordering::SeqCst));
    let mut inbound_seen = inbound(shared);
    loop {
        if shared.closed.load(Ordering::SeqCst) {
            if let Some(s) = &sock {
                s.shutdown(Shutdown::Both).ok();
            }
            return;
        }
        match fsm.state() {
            LinkState::Connecting => {
                if fsm.is_reconnect() {
                    shared.metrics.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                inbound_seen = inbound(shared);
                let timeout = Duration::from_millis(cfg.connect_timeout_ms);
                match TcpStream::connect_timeout(&dial, timeout) {
                    Ok(s) => {
                        if fsm.ever_connected() {
                            // What was queued while the link was down
                            // was meant for a connection the peer may no
                            // longer remember (it may have restarted in
                            // between): drop it like the network would
                            // have. Delivered seconds late, a stale
                            // invitation can pull a restarted cohort into
                            // a view change that ended long ago.
                            while queue.try_recv().is_some() {}
                        }
                        s.set_nodelay(true).ok();
                        s.set_write_timeout(Some(Duration::from_millis(cfg.write_deadline_ms)))
                            .ok();
                        sock = Some(s);
                        fsm.connected();
                    }
                    Err(_) => {
                        fsm.failed(cfg);
                    }
                }
            }
            LinkState::Established => {
                match queue.recv_timeout(Duration::from_millis(POLL_MS)) {
                    Ok(first) => {
                        // Coalesce: drain whatever else the cohort has
                        // queued for this peer (bounded so one slow
                        // pass cannot hold the batch open forever) and
                        // push it all in one vectored write instead of
                        // one syscall per frame.
                        let mut batch = Vec::with_capacity(8);
                        let mut batch_bytes = first.len();
                        batch.push(first);
                        while batch_bytes < MAX_COALESCED_BYTES
                            && batch.len() < MAX_COALESCED_FRAMES
                        {
                            match queue.try_recv() {
                                Some(bytes) => {
                                    batch_bytes += bytes.len();
                                    batch.push(bytes);
                                }
                                None => break,
                            }
                        }
                        let result = match sock.as_mut() {
                            Some(s) => write_vectored_all(s, &batch),
                            // Established without a socket cannot
                            // happen; treat it as an I/O failure.
                            None => Err(io::Error::from(io::ErrorKind::NotConnected)),
                        };
                        match result {
                            Ok(()) => {
                                let n = batch.len() as u64;
                                shared.metrics.frames_sent.fetch_add(n, Ordering::Relaxed);
                                shared.metrics.frames_coalesced.fetch_add(n - 1, Ordering::Relaxed);
                            }
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                                ) =>
                            {
                                // Gray-slow peer: the write deadline
                                // fired. Half-open → tear down. The
                                // frames in flight are lost, like any
                                // network drop.
                                shared.metrics.deadline_hits.fetch_add(1, Ordering::Relaxed);
                                inbound_seen = inbound(shared);
                                fsm.stalled();
                            }
                            Err(_) => {
                                inbound_seen = inbound(shared);
                                fsm.failed(cfg);
                                sock = None;
                            }
                        }
                    }
                    Err(RecvError::TimedOut) => {} // idle; re-check shutdown
                    Err(RecvError::Closed) => {
                        if let Some(s) = &sock {
                            s.shutdown(Shutdown::Both).ok();
                        }
                        return;
                    }
                }
            }
            LinkState::HalfOpen => {
                if let Some(s) = sock.take() {
                    s.shutdown(Shutdown::Both).ok();
                }
                fsm.failed(cfg);
            }
            LinkState::Reconnecting => {
                // A peer that connected to this endpoint since the link
                // was lost or the last dial began is listening again:
                // dial it now. Otherwise a restarted peer waits for
                // whatever point the backoff it went down under has
                // reached, up to the capped delay.
                let mut left = fsm.backoff_ms();
                while left > 0
                    && !shared.closed.load(Ordering::SeqCst)
                    && inbound(shared) == inbound_seen
                {
                    let slice = left.min(BACKOFF_SLICE_MS);
                    std::thread::sleep(Duration::from_millis(slice));
                    left -= slice;
                }
                fsm.backoff_elapsed();
            }
        }
    }
}
