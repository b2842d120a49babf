//! # smpss-sim — discrete-event multi-core machine simulator
//!
//! The paper's scalability figures were measured on a cpuset of 32 cores
//! of an SGI Altix. This reproduction runs on whatever machine it gets
//! (possibly a single core), so wall-clock cannot show the figures'
//! *shapes*. What produces those shapes, however, is not the silicon: it
//! is (a) the structure of the dynamic task graph, (b) the §III
//! scheduling policy, (c) per-task runtime overhead and the serial
//! spawn/analysis rate of the main thread, and (d) task costs. All four
//! are faithfully reproducible:
//!
//! * the graphs are **recorded from the real runtime** (`record_graph`)
//!   running the real applications at structural scale (graph shape
//!   depends only on the block count, not the block size);
//! * the simulator executes the *same* policy as `smpss::sched` — per
//!   thread LIFO lists, FIFO main list, high-priority list, FIFO stealing
//!   in creation order — over virtual time;
//! * the main thread is modelled as the serial task generator it is
//!   (§III), including the graph-size blocking condition;
//! * task costs come from kernel flop counts at the *paper's* block sizes
//!   divided by measured single-core kernel rates.
//!
//! [`engine`] is the event-driven scheduler replica; [`graph`] the DAG
//! representation (convertible from [`smpss::GraphRecord`]); [`machine`]
//! the machine/overhead configuration; [`models`] analytic cost models,
//! including the fork-join threaded-BLAS baseline of Figures 11–12.

pub mod engine;
pub mod graph;
pub mod machine;
pub mod models;
pub mod schedule;

pub use engine::{simulate, simulate_with_schedule, SimResult};
pub use graph::{DagBuilder, SimGraph};
pub use machine::{MachineConfig, SimPolicy};
pub use schedule::{Placement, Schedule};
