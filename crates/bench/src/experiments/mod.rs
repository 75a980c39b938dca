//! The paper-claim reproduction experiments (see DESIGN.md §5 for the
//! index and EXPERIMENTS.md for recorded results).
//!
//! PODC '88 papers carry no benchmark tables; the paper's evaluation is
//! a set of quantitative *claims* (Sections 3.7, 4.1, 4.2, 5, 6). Each
//! module here turns one claim into a measurable experiment with a
//! printed table; `exp all` regenerates the full set.

pub mod a1;
pub mod a2;
pub mod a3;
pub mod a4;
pub mod a5;
pub mod a6;
pub mod a7;
pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

/// An experiment's id and the function that runs it and returns its
/// table.
pub type Experiment = (&'static str, fn() -> String);

/// Every experiment, by id, in report order.
pub const ALL: &[Experiment] = &[
    ("e1", e1::run),
    ("e2", e2::run),
    ("e3", e3::run),
    ("e4", e4::run),
    ("e5", e5::run),
    ("e6", e6::run),
    ("e7", e7::run),
    ("e8", e8::run),
    ("e9", e9::run),
    ("e10", e10::run),
    ("e11", e11::run),
    ("e12", e12::run),
    ("a1", a1::run),
    ("a2", a2::run),
    ("a3", a3::run),
    ("a4", a4::run),
    ("a5", a5::run),
    ("a6", a6::run),
    ("a7", a7::run),
];

/// Run one experiment by id and return its table, or `None` for an
/// unknown id.
pub fn run(id: &str) -> Option<String> {
    ALL.iter().find(|(name, _)| *name == id).map(|(_, run)| run())
}

/// Run every experiment in order, returning the concatenated report.
pub fn run_all() -> String {
    ALL.iter().map(|(_, run)| run()).collect()
}
