//! vsr-obs: structured tracing and telemetry for Viewstamped
//! Replication.
//!
//! The paper's evaluation is about *where time and messages go* —
//! calls run at the primary (§3.7), forces wait on a sub-majority
//! (§3), a view change costs one round (§4.1) — so the harnesses need
//! to explain runs event-by-event, not just in aggregate. This crate
//! provides the shared vocabulary:
//!
//! - [`TraceEvent`] / [`TraceKind`]: one structured record per
//!   interesting moment (send, recv, timer, force-begin, force-fire,
//!   view-state transition, disk append), captured by a
//!   [`SharedRecorder`]. The sans-I/O core emits protocol facts via
//!   `Effect::Observe`; the sim `World` and runtime `Cluster` each
//!   install a recorder.
//! - The accounting hooks ([`Metrics::on_send`], `on_recv`,
//!   `on_timer`, `on_persist`, `on_sync`, `on_observation`, in
//!   [`account`]): the single place where effects, deliveries and
//!   observations become counters and trace kinds; and the one effect
//!   dispatch both harnesses run ([`account::dispatch`]: admit through
//!   the durability gate, account, hand to the harness's
//!   [`account::EffectHost`]), so each harness supplies only I/O.
//! - [`Histogram`]: fixed 64 × 32 log-bucketed latency histogram, one
//!   allocation at the first record, exact mean, ceil nearest-rank
//!   percentiles.
//! - [`Metrics`]: the counter set both harnesses report (moved here
//!   from `vsr-sim` so the runtime can share it).
//! - Exporters: [`export_jsonl`] and [`export_chrome`] produce
//!   strings; [`validate_jsonl`] is the CI schema check;
//!   [`render_timeline`] prints the causal timeline nemesis repros
//!   embed.
//!
//! No dependencies beyond `vsr-core` (for the id types), no I/O, no
//! wall-clock reads: the workspace's disallowed determinism/sans-I/O
//! list in `clippy.toml` applies here.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod account;
pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;

pub use account::PersistDelta;
pub use event::{render_timeline, SharedRecorder, TraceEvent, TraceKind};
pub use export::{export_chrome, export_jsonl, parse_jsonl, validate_jsonl};
pub use hist::Histogram;
pub use json::{parse_json, write_json, JsonValue};
pub use metrics::Metrics;
