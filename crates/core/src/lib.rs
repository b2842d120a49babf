//! # SMPSs — SMP Superscalar, in Rust
//!
//! A reproduction of the programming environment described in
//! *"A Dependency-Aware Task-Based Programming Environment for Multi-Core
//! Architectures"* (Pérez, Badia, Labarta — IEEE CLUSTER 2008).
//!
//! An SMPSs program is a sequential program in which selected functions are
//! declared as **tasks** together with the *directionality* of each parameter
//! (`input`, `output`, `inout` — the paper's `#pragma css task` clauses).
//! Every task invocation is intercepted by the runtime, which
//!
//! 1. analyses the data dependencies of the invocation against all earlier,
//!    still-unfinished invocations,
//! 2. applies **renaming** — the technique used by superscalar processors —
//!    so only *true* (read-after-write) dependencies remain in the graph, and
//! 3. schedules the task on a worker thread once its inputs are produced,
//!    in the §III order: a high-priority list, then the thread's own
//!    list (LIFO, where the tasks it released go), then the main list
//!    (FIFO), then stealing from the other threads in creation order.
//!
//! ## Quick start
//!
//! ```
//! use smpss::{Runtime, task_def};
//!
//! task_def! {
//!     /// `c += a * b` on scalar "blocks" (see `smpss-blas` for real kernels).
//!     pub fn axpy_t(input a: f64, input b: f64, inout c: f64) {
//!         *c += *a * *b;
//!     }
//! }
//!
//! let rt = Runtime::builder().threads(2).build();
//! let a = rt.data(3.0);
//! let b = rt.data(4.0);
//! let c = rt.data(1.0);
//! axpy_t(&rt, &a, &b, &c);   // looks sequential; runs as a task
//! axpy_t(&rt, &a, &b, &c);   // true dependency on the previous call
//! rt.barrier();
//! assert_eq!(rt.read(&c), 25.0);
//! ```
//!
//! ## Crate map
//!
//! * [`data`] — versioned data objects ([`Handle`]), renaming, array
//!   [`Region`]s (§V.A), [`Opaque`] pointers and representants (§V.B)
//! * [`graph`] — the dynamic task graph and its recorder / DOT export
//! * [`sched`] — ready queues and the work-stealing worker loop (§III)
//! * [`runtime`] — the public [`Runtime`]: spawning, barriers, throttling
//! * [`trace`] — the tracing runtime (Paraver-style event capture, §VII.C)
//!
//! The [`task_def!`] macro plays the role of the paper's source-to-source
//! compiler: it turns an annotated function into a wrapper that performs the
//! runtime calls the SMPSs compiler would have emitted.

pub mod config;
pub mod data;
pub mod dep;
pub mod fault;
pub mod graph;
pub mod ids;
pub mod macros;
mod padded;
pub mod runtime;
pub mod sched;
pub mod stats;
pub mod trace;

pub use config::{AdmissionPolicy, RuntimeBuilder, RuntimeConfig};
pub use data::object::Handle;
pub use data::opaque::Opaque;
pub use data::region::{Region, RegionBound};
pub use data::region_handle::{RegionData, RegionHandle};
pub use data::representant::Representant;
pub use data::version::{ReadBinding, WriteBinding};
#[cfg(feature = "fault-inject")]
pub use fault::FaultPlan;
pub use graph::record::GraphRecord;
pub use ids::{ObjectId, SessionId, TaskId};
pub use runtime::session::{OverloadReason, Overloaded, Session};
pub use runtime::spawner::TaskSpawner;
pub use runtime::{CancelledTask, Priority, Runtime, RuntimeBuildError, TaskFailure, TaskFailures};
pub use sched::TaskSource;
pub use stats::StatsSnapshot;
pub use trace::{Event, EventKind, Trace};
