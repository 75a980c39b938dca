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
//!
//! Wall-clock per-layer and end-to-end timings of the live runtime are
//! perfbench's job (`python3 perfbench/run.py`, see BENCHMARK.json).

#![warn(missing_docs)]

pub mod experiments;
pub mod helpers;
pub mod table;
