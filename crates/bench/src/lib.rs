//! # Benchmark harness
//!
//! Regenerates every performance claim of the Viewstamped Replication
//! paper as a measurable experiment (the paper, a PODC '88 publication,
//! has no benchmark tables — its evaluation is the set of quantitative
//! claims in Sections 3.7, 4.1, 4.2, 5, and 6; see DESIGN.md §2).
//!
//! * `cargo run -p vsr-bench --release --bin exp -- all` — full report
//!   (E1–E12, A1–A7), recorded in EXPERIMENTS.md.
//! * `cargo run -p vsr-bench --release --bin exp -- e<N>` — one
//!   experiment.
//! * `cargo bench` — Criterion micro-benchmarks of the protocol hot
//!   paths plus end-to-end transaction and commit-latency benches.

#![warn(missing_docs)]

pub mod experiments;
pub mod helpers;
pub mod table;
