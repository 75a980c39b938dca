//! vsr-net: a real TCP transport for Viewstamped Replication cohorts.
//!
//! The simulator and the in-process runtime exercise the protocol
//! against modeled networks; this crate is the third harness — actual
//! sockets. It deliberately has no external dependencies: everything is
//! `std::net` plus the codecs the workspace already owns
//! ([`vsr_core::wire`] for message bytes, [`vsr_store::frame::crc32`]
//! for integrity).
//!
//! Layering, most-deterministic first:
//!
//! * [`frame`] — the wire format: `[len][crc32][payload]` around a
//!   [`vsr_core::wire::encode_message`] body, plus an incremental
//!   reassembly buffer. Pure bytes, fully deterministic, property
//!   tested.
//! * [`queue`] — [`BoundedQueue`]: the single backpressure policy
//!   shared by per-peer outbound socket queues *and* the runtime's
//!   in-process cohort mailboxes. Bounded, drop-oldest on overflow,
//!   drops counted, never blocks the producer.
//! * [`link`] — [`LinkFsm`]: the per-peer connection state machine
//!   (connecting / established / half-open / reconnecting) with
//!   capped-backoff-plus-jitter reconnect delays reused from
//!   [`CohortConfig::retry_delay`]. Pure state, no sockets.
//! * [`socket`] — [`Endpoint`]: the I/O edge. One accept thread, one
//!   reader thread per inbound connection, one writer thread per peer
//!   link. The only module that touches `std::net` (and says so to
//!   clippy with a reasoned `#![expect(clippy::disallowed_…)]`).
//! * [`chaos`] — [`ChaosProxy`]: a toxiproxy-style byte forwarder that
//!   injects latency, partitions, loss, corruption, and slow closes on
//!   command, so nemesis fault classes run against real sockets.
//!
//! Transport counters accumulate in [`NetMetrics`] (plain atomics) and
//! are folded into the shared `vsr_obs::Metrics` counter set by the
//! runtime, so the sim/runtime observability parity extends to the
//! networked harness.

pub mod chaos;
pub mod frame;
pub mod link;
pub mod queue;
pub mod socket;

pub use chaos::ChaosProxy;
pub use frame::{frame_message, FrameBuf, FrameError, HEADER_BYTES, MAX_FRAME_BYTES};
pub use link::{LinkFsm, LinkState};
pub use queue::{BoundedQueue, DropCounters, RecvError};
pub use socket::{AddrMap, Endpoint};

use std::sync::atomic::{AtomicU64, Ordering};

use vsr_core::config::CohortConfig;

/// Transport tuning knobs. All durations are milliseconds of real time
/// — this is the I/O edge, not the simulated world.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-peer outbound queue capacity in frames. When a peer cannot
    /// drain (down, partitioned, gray-slow), the oldest queued frame is
    /// dropped to admit the newest — the protocol's retry timers own
    /// reliability, the transport owns bounded memory.
    pub queue_capacity: usize,
    /// How long one `connect()` attempt may take before it counts as a
    /// failure and backoff begins.
    pub connect_timeout_ms: u64,
    /// A connection with a partially received frame that makes no
    /// progress for this long is declared half-open and dropped.
    pub read_deadline_ms: u64,
    /// A socket write that blocks longer than this counts as a deadline
    /// hit: the link is torn down and reconnected instead of wedging
    /// the writer on a gray-slow peer.
    pub write_deadline_ms: u64,
    /// Base reconnect delay; [`CohortConfig::retry_delay`] turns it
    /// into capped exponential backoff with per-link jitter.
    pub reconnect_base_ms: u64,
    /// Backoff/jitter knobs, shared with every protocol retry timer so
    /// transport and protocol retries are tuned in one place.
    pub retry: CohortConfig,
}

impl NetConfig {
    /// Defaults sized for loopback test clusters: small queues so
    /// overflow is observable, sub-second deadlines so fault tests
    /// converge quickly.
    pub fn new() -> Self {
        NetConfig {
            queue_capacity: 1024,
            connect_timeout_ms: 1_000,
            read_deadline_ms: 2_000,
            write_deadline_ms: 2_000,
            reconnect_base_ms: 50,
            retry: CohortConfig::new(),
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::new()
    }
}

/// Shared transport counters, updated lock-free from accept, reader,
/// and writer threads. The runtime snapshots these into the workspace
/// `vsr_obs::Metrics` struct so every harness reports one counter set.
#[derive(Debug, Default)]
pub struct NetMetrics {
    /// Frames successfully written to a peer socket.
    pub frames_sent: AtomicU64,
    /// Frames received, CRC-checked, and decoded.
    pub frames_recvd: AtomicU64,
    /// Reconnect attempts: connects initiated after a link failure
    /// (the first connect of a fresh link is not a reconnect).
    pub reconnects: AtomicU64,
    /// Inbound frames rejected by CRC or decoder; each also drops its
    /// connection, because a corrupt byte stream cannot be resynced.
    pub crc_rejects: AtomicU64,
    /// Outbound-queue overflow accounting, shared with the per-peer
    /// bounded queues themselves: evictions (oldest frame dropped to
    /// admit a newer one) and rejections (new frame refused by a queue
    /// full of critical entries) are counted separately.
    pub queue: DropCounters,
    /// Read/write deadline expiries that tore down a link.
    pub deadline_hits: AtomicU64,
    /// Frames that rode an already-scheduled vectored write instead of
    /// costing their own syscall wakeup: for a writer pass that drains
    /// `n` frames in one `writev`-style write, `n - 1` count here.
    pub frames_coalesced: AtomicU64,
}

/// A plain-value snapshot of [`NetMetrics`], safe to accumulate across
/// endpoint teardowns (crash/recover cycles must not zero totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// See [`NetMetrics::frames_sent`].
    pub frames_sent: u64,
    /// See [`NetMetrics::frames_recvd`].
    pub frames_recvd: u64,
    /// See [`NetMetrics::reconnects`].
    pub reconnects: u64,
    /// See [`NetMetrics::crc_rejects`].
    pub crc_rejects: u64,
    /// Outbound-queue evictions (see [`NetMetrics::queue`]).
    pub queue_drops: u64,
    /// Outbound-queue rejected pushes (see [`NetMetrics::queue`]).
    pub queue_rejections: u64,
    /// See [`NetMetrics::deadline_hits`].
    pub deadline_hits: u64,
    /// See [`NetMetrics::frames_coalesced`].
    pub frames_coalesced: u64,
}

impl NetMetrics {
    /// Read every counter at once (relaxed; counters are monotonic and
    /// independently meaningful).
    pub fn snapshot(&self) -> NetCounters {
        NetCounters {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_recvd: self.frames_recvd.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            crc_rejects: self.crc_rejects.load(Ordering::Relaxed),
            queue_drops: self.queue.evictions(),
            queue_rejections: self.queue.rejections(),
            deadline_hits: self.deadline_hits.load(Ordering::Relaxed),
            frames_coalesced: self.frames_coalesced.load(Ordering::Relaxed),
        }
    }
}

impl NetCounters {
    /// Accumulate another snapshot into this one (used to carry a
    /// crashed endpoint's totals across recovery).
    pub fn add(&mut self, other: NetCounters) {
        self.frames_sent += other.frames_sent;
        self.frames_recvd += other.frames_recvd;
        self.reconnects += other.reconnects;
        self.crc_rejects += other.crc_rejects;
        self.queue_drops += other.queue_drops;
        self.queue_rejections += other.queue_rejections;
        self.deadline_hits += other.deadline_hits;
        self.frames_coalesced += other.frames_coalesced;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_all_fields() {
        let m = NetMetrics::default();
        m.frames_sent.store(1, Ordering::Relaxed);
        m.frames_recvd.store(2, Ordering::Relaxed);
        m.reconnects.store(3, Ordering::Relaxed);
        m.crc_rejects.store(4, Ordering::Relaxed);
        m.deadline_hits.store(6, Ordering::Relaxed);
        m.frames_coalesced.store(7, Ordering::Relaxed);
        // Drive the shared queue counters through a real queue so the
        // snapshot reflects both overflow outcomes.
        let q: std::sync::Arc<BoundedQueue<u8>> = BoundedQueue::new(1, m.queue.clone());
        assert!(q.push(1) && q.push(2)); // eviction
        assert_eq!(q.try_recv(), Some(2));
        assert!(q.push_critical(3));
        assert!(!q.push(4)); // rejection: only the critical entry remains
        let s = m.snapshot();
        assert_eq!(
            s,
            NetCounters {
                frames_sent: 1,
                frames_recvd: 2,
                reconnects: 3,
                crc_rejects: 4,
                queue_drops: 1,
                queue_rejections: 1,
                deadline_hits: 6,
                frames_coalesced: 7,
            }
        );
        let mut acc = s;
        acc.add(s);
        assert_eq!(acc.frames_sent, 2);
        assert_eq!(acc.deadline_hits, 12);
        assert_eq!(acc.queue_rejections, 2);
        assert_eq!(acc.frames_coalesced, 14);
    }
}
