//! Structured trace events and the recorder that captures them.
//!
//! The sans-I/O core never records anything itself: cohorts emit
//! protocol-level facts through `Effect::Observe`, and the harness that
//! drives them (the sim `World` or the runtime `Cluster`) pushes the
//! [`TraceEvent`]s the accounting hooks name at an installed
//! [`SharedRecorder`]. Tracing is off unless a recorder is installed,
//! so the hot path pays nothing by default.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use vsr_core::types::{Mid, Viewstamp};

/// One structured trace record: when, who, at what protocol position,
/// and what happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated tick (sim) or milliseconds since cluster start
    /// (runtime).
    pub tick: u64,
    /// The cohort (or agent) the event happened at.
    pub cohort: Mid,
    /// The cohort's current viewstamp, when one is known. Agents and
    /// cohorts without a formed view report `None`.
    pub vs: Option<Viewstamp>,
    /// What happened.
    pub kind: TraceKind,
}

/// The event taxonomy. Names are stable: exporters key on
/// [`TraceKind::name`] and the CI schema check validates against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A message left this cohort.
    Send {
        /// Destination module.
        to: Mid,
        /// Message name (e.g. `"call"`, `"buffer-send"`).
        msg: &'static str,
    },
    /// A message arrived and was processed at this cohort.
    Recv {
        /// Originating module.
        from: Mid,
        /// Message name.
        msg: &'static str,
    },
    /// A timer fired at this cohort.
    Timer {
        /// Timer name (e.g. `"heartbeat"`, `"call-retry"`).
        timer: &'static str,
    },
    /// The primary registered a force that could not complete
    /// immediately and now waits on the sub-majority watermark.
    ForceBegin,
    /// Pending forces completed: the watermark passed their timestamps.
    ForceFire {
        /// How many pending forces fired together.
        fired: u64,
    },
    /// The cohort moved between view-management states
    /// (active / view manager / underling).
    ViewState {
        /// State before the transition.
        from: &'static str,
        /// State after the transition.
        to: &'static str,
    },
    /// Frames were appended to this cohort's durable log.
    DiskAppend {
        /// Bytes written, framing included.
        bytes: u64,
    },
}

impl TraceKind {
    /// The stable kind name used by exporters and schema checks.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Send { .. } => "send",
            TraceKind::Recv { .. } => "recv",
            TraceKind::Timer { .. } => "timer",
            TraceKind::ForceBegin => "force-begin",
            TraceKind::ForceFire { .. } => "force-fire",
            TraceKind::ViewState { .. } => "view-state",
            TraceKind::DiskAppend { .. } => "disk-append",
        }
    }

    /// One sample of every kind, for the schema tests. A new kind breaks
    /// the `match` below until it is listed here too.
    #[cfg(test)]
    pub(crate) fn every() -> Vec<TraceKind> {
        let all = vec![
            TraceKind::Send { to: Mid(2), msg: "call" },
            TraceKind::Recv { from: Mid(1), msg: "call" },
            TraceKind::Timer { timer: "heartbeat" },
            TraceKind::ForceBegin,
            TraceKind::ForceFire { fired: 1 },
            TraceKind::ViewState { from: "active", to: "underling" },
            TraceKind::DiskAppend { bytes: 8 },
        ];
        for kind in &all {
            match kind {
                TraceKind::Send { .. }
                | TraceKind::Recv { .. }
                | TraceKind::Timer { .. }
                | TraceKind::ForceBegin
                | TraceKind::ForceFire { .. }
                | TraceKind::ViewState { .. }
                | TraceKind::DiskAppend { .. } => {}
            }
        }
        all
    }
}

/// A clonable, thread-safe recorder backed by a shared vector.
///
/// Clones share the same buffer, so a harness can keep one handle
/// while handing another to worker threads, then drain with
/// [`take`](SharedRecorder::take).
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl SharedRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> SharedRecorder {
        SharedRecorder::default()
    }

    /// Capture one event.
    pub fn record(&self, event: TraceEvent) {
        self.events.lock().expect("invariant: recorder mutex not poisoned").push(event);
    }

    /// Drain all captured events, leaving the buffer empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("invariant: recorder mutex not poisoned"))
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("invariant: recorder mutex not poisoned").len()
    }

    /// True if nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Render events as a human-readable causal timeline, one line per
/// event: tick, cohort, viewstamp, event kind and detail. Used by
/// nemesis repros to explain the final failing plan.
pub fn render_timeline(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let vs = match ev.vs {
            Some(vs) => format!("v{}.m{}+{}", vs.id.counter, vs.id.manager.0, vs.ts.0),
            None => "-".to_string(),
        };
        let detail = match ev.kind {
            TraceKind::Send { to, msg } => format!("send {msg} -> {to}"),
            TraceKind::Recv { from, msg } => format!("recv {msg} <- {from}"),
            TraceKind::Timer { timer } => format!("timer {timer}"),
            TraceKind::ForceBegin => "force-begin".to_string(),
            TraceKind::ForceFire { fired } => format!("force-fire x{fired}"),
            TraceKind::ViewState { from, to } => format!("view-state {from} -> {to}"),
            TraceKind::DiskAppend { bytes } => format!("disk-append {bytes}B"),
        };
        let _ =
            writeln!(out, "t={:<8} {:<5} {:<16} {}", ev.tick, ev.cohort.to_string(), vs, detail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsr_core::types::{Timestamp, ViewId};

    fn sample() -> Vec<TraceEvent> {
        let vs = Viewstamp { id: ViewId { counter: 2, manager: Mid(1) }, ts: Timestamp(7) };
        vec![
            TraceEvent {
                tick: 5,
                cohort: Mid(1),
                vs: Some(vs),
                kind: TraceKind::Send { to: Mid(2), msg: "call" },
            },
            TraceEvent {
                tick: 6,
                cohort: Mid(2),
                vs: None,
                kind: TraceKind::Recv { from: Mid(1), msg: "call" },
            },
            TraceEvent {
                tick: 9,
                cohort: Mid(1),
                vs: Some(vs),
                kind: TraceKind::ViewState { from: "active", to: "view-manager" },
            },
        ]
    }

    #[test]
    fn shared_recorder_accumulates_and_drains() {
        let handle = SharedRecorder::new();
        let writer = handle.clone();
        for ev in sample() {
            writer.record(ev);
        }
        assert_eq!(handle.len(), 3);
        let events = handle.take();
        assert_eq!(events.len(), 3);
        assert!(handle.is_empty());
    }

    #[test]
    fn timeline_mentions_tick_cohort_viewstamp_and_kind() {
        let text = render_timeline(&sample());
        assert!(text.contains("t=5"));
        assert!(text.contains("m1"));
        assert!(text.contains("v2.m1+7"));
        assert!(text.contains("send call -> m2"));
        assert!(text.contains("view-state active -> view-manager"));
    }
}
