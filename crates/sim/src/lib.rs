//! # Simulation harness for Viewstamped Replication
//!
//! Wires the sans-I/O [`Cohort`](vsr_core::cohort::Cohort) state machines
//! to the deterministic network simulator, injects workloads and faults,
//! and checks the protocol's guarantees:
//!
//! * **one-copy serializability** (Section 1 of the paper) via a conflict
//!   graph over reconstructed object version chains
//!   ([`serializability`]);
//! * **committed-transaction durability** across view changes
//!   (Section 4.1: "transactions … that committed will still be
//!   committed") via [`World::check_no_lost_commits`](world::World::check_no_lost_commits);
//! * **replica convergence** at equal history positions.
//!
//! ```
//! use vsr_app::counter::{self, CounterModule};
//! use vsr_core::module::NullModule;
//! use vsr_core::types::{GroupId, Mid};
//! use vsr_sim::world::WorldBuilder;
//!
//! let mut world = WorldBuilder::new(42)
//!     .group(GroupId(1), &[Mid(10)], || Box::new(NullModule)) // client
//!     .group(GroupId(2), &[Mid(1), Mid(2), Mid(3)], || Box::new(CounterModule))
//!     .build();
//! let req = world.submit(GroupId(1), vec![counter::incr(GroupId(2), 0, 5)]);
//! world.run_for(1_000);
//! let record = world.result(req).expect("transaction completed");
//! assert!(matches!(
//!     record.outcome,
//!     vsr_core::cohort::TxnOutcome::Committed { .. }
//! ));
//! world.verify().expect("invariants hold");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
pub mod nemesis;
pub mod serializability;
pub mod trace;
pub mod workload;
pub mod world;

pub use world::{World, WorldBuilder};
