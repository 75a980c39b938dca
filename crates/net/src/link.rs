//! The per-peer connection state machine — pure state, no sockets.
//!
//! ```text
//!            connect ok
//! Connecting ──────────► Established
//!     ▲  │ connect err        │  │ write/read deadline expired
//!     │  ▼                    │  ▼
//!     │ Reconnecting ◄────────┘ HalfOpen
//!     │      ▲      io error      │
//!     │      └────────────────────┘ torn down, counted as a failure
//!     └ backoff elapsed
//! ```
//!
//! `HalfOpen` is the gray-failure state: the TCP connection still
//! exists but a deadline proved the peer is not making progress, so
//! the socket must be discarded rather than trusted. Every failure
//! (connect error, I/O error, or half-open teardown) transitions to
//! `Reconnecting` with a delay from [`CohortConfig::retry_delay`] — the
//! same capped-exponential-backoff-plus-deterministic-jitter the
//! protocol's own retry timers use, salted per link so a restarted
//! peer's N inbound links do not reconnect in lockstep.
//!
//! [`CohortConfig::retry_delay`]: vsr_core::config::CohortConfig::retry_delay

use crate::NetConfig;

/// The four link states. See the module diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// A connect attempt should be (or is being) made.
    Connecting,
    /// The link has a live connection; frames flow.
    Established,
    /// A deadline expired on a live connection: the peer is present but
    /// not progressing. The socket must be torn down.
    HalfOpen,
    /// Backing off before the next connect attempt.
    Reconnecting,
}

/// Driver-agnostic link lifecycle. The socket writer thread reports
/// events (`connected`, `stalled`, `failed`, `backoff_elapsed`) and
/// obeys the resulting state; nothing here blocks or does I/O, so the
/// lifecycle is unit-testable without a network.
#[derive(Debug)]
pub struct LinkFsm {
    state: LinkState,
    /// Consecutive failures since the last successful connect (the
    /// backoff attempt number).
    attempt: u32,
    /// Has this link ever been established? Distinguishes reconnects
    /// from a fresh link's first dial in the metrics.
    ever_connected: bool,
    /// Jitter salt: mixed from the link's (local, peer) pair by the
    /// caller so each link draws its own backoff jitter stream.
    salt: u64,
    /// Delay chosen by the most recent failure, in milliseconds.
    backoff_ms: u64,
}

impl LinkFsm {
    /// A fresh link, ready to dial.
    pub fn new(salt: u64) -> Self {
        LinkFsm {
            state: LinkState::Connecting,
            attempt: 0,
            ever_connected: false,
            salt,
            backoff_ms: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> LinkState {
        self.state
    }

    /// Consecutive failures since the last established connection.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The backoff delay chosen by the most recent failure.
    pub fn backoff_ms(&self) -> u64 {
        self.backoff_ms
    }

    /// Has this link ever been established?
    pub fn ever_connected(&self) -> bool {
        self.ever_connected
    }

    /// Is the next/current connect attempt a *re*connect — i.e. not
    /// the very first dial of a fresh link?
    pub fn is_reconnect(&self) -> bool {
        self.ever_connected || self.attempt > 0
    }

    /// A connect attempt succeeded: the link is established and the
    /// backoff clock resets.
    pub fn connected(&mut self) {
        self.state = LinkState::Established;
        self.attempt = 0;
        self.backoff_ms = 0;
        self.ever_connected = true;
    }

    /// A read/write deadline expired on the established connection:
    /// the link is half-open. The driver must discard the socket and
    /// then report [`failed`](LinkFsm::failed).
    pub fn stalled(&mut self) {
        self.state = LinkState::HalfOpen;
    }

    /// The connection failed (connect error, I/O error, or half-open
    /// teardown). Transitions to `Reconnecting` and returns the
    /// backoff delay in milliseconds.
    pub fn failed(&mut self, cfg: &NetConfig) -> u64 {
        self.attempt = self.attempt.saturating_add(1);
        self.backoff_ms = cfg.retry.retry_delay(cfg.reconnect_base_ms, self.attempt, self.salt);
        self.state = LinkState::Reconnecting;
        self.backoff_ms
    }

    /// The backoff delay has elapsed; dial again.
    pub fn backoff_elapsed(&mut self) {
        self.state = LinkState::Connecting;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_link_dials_without_being_a_reconnect() {
        let fsm = LinkFsm::new(1);
        assert_eq!(fsm.state(), LinkState::Connecting);
        assert!(!fsm.is_reconnect());
    }

    #[test]
    fn failure_backs_off_then_redials() {
        let cfg = NetConfig::new();
        let mut fsm = LinkFsm::new(1);
        let d1 = fsm.failed(&cfg);
        assert_eq!(fsm.state(), LinkState::Reconnecting);
        assert!(fsm.is_reconnect());
        assert!(d1 >= cfg.reconnect_base_ms, "delay {d1} below base");
        fsm.backoff_elapsed();
        assert_eq!(fsm.state(), LinkState::Connecting);
        assert_eq!(fsm.attempt(), 1);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = NetConfig::new();
        let mut fsm = LinkFsm::new(42);
        let mut delays = Vec::new();
        for _ in 0..8 {
            delays.push(fsm.failed(&cfg));
            fsm.backoff_elapsed();
        }
        // Jitter aside, delays scale by 2^min(attempt-1, doublings).
        assert!(delays[1] >= delays[0], "{delays:?}");
        let cap = cfg.reconnect_base_ms << cfg.retry.retry_backoff_doublings;
        let jitter_ceiling = cap + cap * u64::from(cfg.retry.retry_jitter_permille) / 1000;
        for &d in &delays {
            assert!(d <= jitter_ceiling, "delay {d} above cap {jitter_ceiling}");
        }
        assert_eq!(delays[7], fsm.backoff_ms());
    }

    #[test]
    fn success_resets_the_attempt_clock() {
        let cfg = NetConfig::new();
        let mut fsm = LinkFsm::new(3);
        fsm.failed(&cfg);
        fsm.backoff_elapsed();
        fsm.connected();
        assert_eq!(fsm.state(), LinkState::Established);
        assert_eq!(fsm.attempt(), 0);
        assert!(fsm.is_reconnect(), "an established link reconnects from now on");
        // A later stall tears down via HalfOpen and restarts backoff at 1.
        fsm.stalled();
        assert_eq!(fsm.state(), LinkState::HalfOpen);
        fsm.failed(&cfg);
        assert_eq!(fsm.attempt(), 1);
        assert_eq!(fsm.state(), LinkState::Reconnecting);
    }

    #[test]
    fn distinct_salts_jitter_apart() {
        let cfg = NetConfig::new();
        let delays: std::collections::BTreeSet<u64> = (0..16u64)
            .map(|salt| {
                let mut fsm = LinkFsm::new(salt);
                fsm.failed(&cfg);
                fsm.failed(&cfg)
            })
            .collect();
        assert!(delays.len() > 1, "every link drew identical jitter: {delays:?}");
    }
}
