//! Data model: versioned objects, renaming, regions, opaque pointers.
//!
//! SMPSs tracks, for every logical datum that tasks touch, who produces it
//! and who still has to read it. From that it derives the task graph. The
//! paper's runtime identifies data by *(address, size)* of C pointers; the
//! Rust embedding identifies data by **handles** ([`Handle`](object::Handle),
//! [`RegionHandle`](region_handle::RegionHandle)), which is the same
//! information with ownership made explicit — a handle *is* the (base
//! address, extent) pair, plus a version chain.
//!
//! * [`version`] — the versioned buffer and the typed bindings a task body
//!   uses to access it. Renaming creates fresh versions so write-after-read
//!   and write-after-write hazards never become graph edges.
//! * [`object`] — whole-object handles (the common case, e.g. hyper-matrix
//!   blocks).
//! * [`region`] / [`region_handle`] — the §V.A array-region extension.
//! * [`opaque`] — `void *`-style parameters that skip dependency analysis.
//! * [`representant`] — §V.B: dependency-only stand-ins for region sets.
//! * `slab` — the runtime-wide size-classed store renamed-away versions
//!   park in awaiting reuse (BENCH_0009).

pub mod object;
pub mod opaque;
pub mod region;
pub mod region_handle;
pub(crate) mod region_log;
pub mod representant;
pub(crate) mod slab;
pub mod version;

#[cfg(test)]
mod read_window_oracle;

/// Types that can live in runtime-managed data objects.
///
/// `Clone` is required because renaming must be able to materialise a fresh
/// instance: a renamed `inout` parameter receives a copy of its predecessor
/// version (the paper's "realigning data due to renamings"), and fresh
/// `output` versions are allocated from a prototype.
pub trait TaskData: Clone + Send + 'static {}
impl<T: Clone + Send + 'static> TaskData for T {}
