//! Runtime configuration.
//!
//! The knobs here correspond to behaviours described in the paper:
//! number of threads (main + workers), renaming on/off (on in SMPSs; the
//! off position reproduces the SuperMatrix-style analysis of §VII.C for
//! ablation), the graph-size blocking condition of §III, graph recording
//! (used to regenerate Figure 5) and the tracing runtime of §VII.C.
//!
//! Each runtime mechanism has one implementation and no on/off switch:
//! completions publish their released successors as one batch with a
//! direct hand-off, renamed-away versions park in the runtime-wide
//! version slab, and ready tasks are placed by the §III order alone.
//! What remains here are the paper's parameters, sizes and limits and
//! the session quotas. Dependency analysis has one lane, as in the
//! paper: there is no lane count to configure. The SuperMatrix-style
//! central queue the paper compares against (§VII.C) is studied in the
//! simulator (`smpss-sim`'s `SimPolicy::CentralQueue`) and the fork-join
//! baseline, not in the runtime.
//!
//! Whether more than one thread spawns is not configured: the runtime
//! observes it. It starts in the paper's single-spawner mode and moves
//! to concurrent spawners the first time
//! [`Runtime::session`](crate::Runtime::session) hands out a handle.

/// What the runtime does with the dependents of a task whose body
/// panicked. The panic itself is always contained: the failed task still
/// runs the full completion protocol (successors settled, read windows
/// closed, pools recycled), the scheduler never loses count, and the
/// failure is reported by [`Runtime::wait_all`](crate::Runtime::wait_all).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OnPanic {
    /// Cancel every transitive dependent of the failed task: their bodies
    /// never run (captured bindings are dropped, closing read windows),
    /// but they complete through the normal protocol so independent
    /// subgraphs keep running and barriers still drain. The default.
    #[default]
    CancelDependents,
    /// Stop scheduling new bodies runtime-wide after the first panic:
    /// every task that has not started yet is cancelled, dependent or
    /// not. Tasks already executing run to completion.
    FailFast,
    /// Contain the panic to the failed task only. Dependents still run —
    /// a renamed output the failed body never wrote holds its
    /// allocator-fresh (or stale in-place) value, which is memory-safe
    /// but semantically the caller's responsibility.
    Isolate,
}

/// What a [`Session`](crate::Session) submission does when the session is
/// at one of its quotas ([`RuntimeBuilder::session_max_in_flight`],
/// [`RuntimeBuilder::session_max_renamed_bytes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Wait (bounded spin, then yielding backoff) until the session drops
    /// below quota, then admit. The default: submission applies real
    /// backpressure to the submitting thread, exactly like the §III
    /// blocking conditions do to the single master.
    #[default]
    Block,
    /// Refuse immediately: [`Session::task`](crate::Session::task) returns
    /// `Err(`[`Overloaded`](crate::Overloaded)`)` **before** any analysis
    /// happens, so no analysed state is ever silently dropped — the caller
    /// keeps its closure and data handles and can retry.
    Shed,
    /// Block like [`AdmissionPolicy::Block`] until the session's deadline
    /// ([`Session::with_deadline`](crate::Session::with_deadline)) passes,
    /// then shed. A session with no deadline behaves like `Block`.
    Deadline,
}

/// Complete, validated runtime configuration. Build one with
/// [`Runtime::builder`](crate::Runtime::builder).
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    pub(crate) threads: usize,
    pub(crate) renaming: bool,
    pub(crate) graph_size_limit: Option<usize>,
    pub(crate) memory_limit: Option<usize>,
    pub(crate) record_graph: bool,
    pub(crate) tracing: bool,
    pub(crate) slab_spare_bytes: Option<usize>,
    pub(crate) on_panic: OnPanic,
    pub(crate) session_max_in_flight: Option<usize>,
    pub(crate) session_max_renamed_bytes: Option<usize>,
    pub(crate) admission: AdmissionPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            threads: 1,
            renaming: true,
            graph_size_limit: None,
            memory_limit: None,
            record_graph: false,
            tracing: false,
            slab_spare_bytes: None,
            on_panic: OnPanic::CancelDependents,
            session_max_in_flight: None,
            session_max_renamed_bytes: None,
            admission: AdmissionPolicy::Block,
        }
    }
}

/// Builder for a [`Runtime`](crate::Runtime).
#[derive(Clone, Debug, Default)]
pub struct RuntimeBuilder {
    cfg: RuntimeConfig,
}

impl RuntimeBuilder {
    /// Total number of compute threads (main thread included). The runtime
    /// "creates as many worker threads as necessary to fill out the rest of
    /// the cores" — i.e. `threads - 1` workers. Must be at least 1.
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "a runtime needs at least the main thread");
        self.cfg.threads = n;
        self
    }

    /// Enable or disable renaming (default: enabled, as in SMPSs). With
    /// renaming disabled the analyser inserts anti- and output-dependency
    /// edges instead of allocating fresh versions; this reproduces a
    /// SuperMatrix-style dependence analysis for the ablation study.
    pub fn renaming(mut self, on: bool) -> Self {
        self.cfg.renaming = on;
        self
    }

    /// Blocking condition of §III: when more than `limit` tasks are live
    /// (spawned but unfinished), the main thread "behaves as a worker thread
    /// until an unblocking condition is reached".
    pub fn graph_size_limit(mut self, limit: usize) -> Self {
        self.cfg.graph_size_limit = Some(limit);
        self
    }

    /// The other §III blocking condition: "a memory limit". When the
    /// bytes held by live data versions (initial buffers plus renamed
    /// copies — the storage renaming trades for parallelism) exceed
    /// `bytes`, the spawning path blocks and the main thread helps until
    /// versions retire.
    pub fn memory_limit(mut self, bytes: usize) -> Self {
        self.cfg.memory_limit = Some(bytes);
        self
    }

    /// Record the full task graph (nodes + true-dependency edges) for
    /// inspection and DOT export. Needed by [`Runtime::graph`](crate::Runtime::graph).
    pub fn record_graph(mut self, on: bool) -> Self {
        self.cfg.record_graph = on;
        self
    }

    /// Enable the tracing runtime: per-thread event capture for post-mortem
    /// analysis (the paper's Paraver-instrumented runtime flavour).
    pub fn tracing(mut self, on: bool) -> Self {
        self.cfg.tracing = on;
        self
    }

    /// Cap on total bytes the version slab may hold parked as reusable
    /// spares (default: the [`memory_limit`](Self::memory_limit) if one
    /// is set, else 64 MiB). Each spare counts at its resident size: its
    /// declared bytes, but never less than its allocation plus its slab
    /// entry. Parking past the cap evicts oldest-first;
    /// an evicted spare that readers still hold keeps its memory ticket
    /// until the last reader drops, so the live-bytes account stays
    /// exact regardless of the cap.
    pub fn slab_spare_bytes(mut self, bytes: usize) -> Self {
        self.cfg.slab_spare_bytes = Some(bytes);
        self
    }

    /// Failure policy for panicking task bodies (default
    /// [`OnPanic::CancelDependents`]). See [`OnPanic`].
    pub fn on_panic(mut self, policy: OnPanic) -> Self {
        self.cfg.on_panic = policy;
        self
    }

    /// Per-session quota on in-flight tasks (spawned but unfinished).
    /// A session at the quota has further submissions blocked or shed
    /// according to the [`AdmissionPolicy`]. Applies to every
    /// [`Session`](crate::Session) the runtime opens.
    pub fn session_max_in_flight(mut self, n: usize) -> Self {
        assert!(n >= 1, "a session quota below one task admits nothing");
        self.cfg.session_max_in_flight = Some(n);
        self
    }

    /// Per-session quota on live renamed/version bytes attributed to the
    /// session's tasks — the session-scoped analogue of
    /// [`memory_limit`](Self::memory_limit).
    pub fn session_max_renamed_bytes(mut self, bytes: usize) -> Self {
        self.cfg.session_max_renamed_bytes = Some(bytes);
        self
    }

    /// What an over-quota session submission does (default
    /// [`AdmissionPolicy::Block`]).
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.cfg.admission = policy;
        self
    }

    /// Finish configuration and start the runtime (spawns the workers).
    pub fn build(self) -> crate::Runtime {
        crate::Runtime::with_config(self.cfg)
    }

    /// Like [`build`](Self::build), but surfaces worker-thread spawn
    /// failure as an error instead of panicking mid-construction. Any
    /// workers spawned before the failing one are shut down and joined.
    pub fn try_build(self) -> Result<crate::Runtime, crate::RuntimeBuildError> {
        crate::Runtime::try_with_config(self.cfg)
    }

    /// Access the raw configuration without starting a runtime.
    pub fn config(self) -> RuntimeConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = RuntimeConfig::default();
        assert_eq!(c.threads, 1);
        assert!(c.renaming);
        assert!(c.graph_size_limit.is_none());
        assert!(!c.record_graph);
        assert!(!c.tracing);
        assert!(c.slab_spare_bytes.is_none());
        assert_eq!(c.on_panic, OnPanic::CancelDependents);
    }

    #[test]
    fn builder_sets_on_panic() {
        let c = RuntimeBuilder::default()
            .on_panic(OnPanic::FailFast)
            .config();
        assert_eq!(c.on_panic, OnPanic::FailFast);
        let c = RuntimeBuilder::default()
            .on_panic(OnPanic::Isolate)
            .config();
        assert_eq!(c.on_panic, OnPanic::Isolate);
        assert_eq!(OnPanic::default(), OnPanic::CancelDependents);
    }

    /// The fast paths have no switches, and idle workers no tuning: the
    /// spin window is a constant inside the 60–100 µs band that covers
    /// the open loop's 50 µs arrival gap, and the park has no timeout.
    /// What the builder still sets on the scheduling path is the thread
    /// count: the §III lookup order is the only policy, so it has no
    /// setter.
    #[test]
    fn builder_sets_fast_path_knobs() {
        let window = crate::sched::queues::SPIN_WINDOW.as_micros();
        assert!((60..=100).contains(&window), "spin window {window} us");
        let c = RuntimeBuilder::default().threads(3).config();
        assert_eq!(c.threads, 3);
    }

    #[test]
    fn builder_sets_slab_spare_bytes() {
        let c = RuntimeBuilder::default().slab_spare_bytes(1 << 20).config();
        assert_eq!(c.slab_spare_bytes, Some(1 << 20));
    }

    #[test]
    fn builder_sets_fields() {
        let c = RuntimeBuilder::default()
            .threads(4)
            .renaming(false)
            .graph_size_limit(100)
            .record_graph(true)
            .memory_limit(1 << 16)
            .tracing(true)
            .config();
        assert_eq!(c.threads, 4);
        assert!(!c.renaming);
        assert_eq!(c.graph_size_limit, Some(100));
        assert_eq!(c.memory_limit, Some(1 << 16));
        assert!(c.record_graph);
        assert!(c.tracing);
    }

    /// Analysis has one lane and no setter: the configuration holds
    /// one field per builder setter (11) and no lane count.
    #[test]
    fn builder_sets_shards() {
        let debug = format!("{:?}", RuntimeBuilder::default().config());
        assert_eq!(debug.matches(": ").count(), 11, "{debug}");
        assert!(!debug.contains("shards"), "{debug}");
    }

    #[test]
    fn session_defaults_off() {
        let c = RuntimeConfig::default();
        assert!(c.session_max_in_flight.is_none());
        assert!(c.session_max_renamed_bytes.is_none());
        assert_eq!(c.admission, AdmissionPolicy::Block);
        // No session is open until one is asked for: a default runtime
        // starts in the single-spawner mode, and opening a session is
        // what moves it on.
        let rt = RuntimeBuilder::default().threads(2).build();
        assert!(!rt.shared.sessions_used());
        let _s = rt.session();
        assert!(rt.shared.sessions_used());
    }

    /// The quota and admission setters set their own field and nothing
    /// else: a runtime built with them still has one spawner until a
    /// session opens.
    #[test]
    fn session_knobs_imply_sessions() {
        let c = RuntimeBuilder::default().session_max_in_flight(8).config();
        assert_eq!(c.session_max_in_flight, Some(8));
        let c = RuntimeBuilder::default()
            .session_max_renamed_bytes(1 << 20)
            .config();
        assert_eq!(c.session_max_renamed_bytes, Some(1 << 20));
        let c = RuntimeBuilder::default()
            .admission(AdmissionPolicy::Shed)
            .config();
        assert_eq!(c.admission, AdmissionPolicy::Shed);

        let rt = RuntimeBuilder::default()
            .threads(2)
            .session_max_in_flight(8)
            .session_max_renamed_bytes(1 << 20)
            .admission(AdmissionPolicy::Shed)
            .build();
        assert!(!rt.shared.sessions_used(), "quotas imply nothing");
        let _s = rt.session();
        assert!(rt.shared.sessions_used());
    }

    #[test]
    #[should_panic(expected = "admits nothing")]
    fn zero_in_flight_quota_rejected() {
        let _ = RuntimeBuilder::default().session_max_in_flight(0);
    }

    #[test]
    #[should_panic(expected = "at least the main thread")]
    fn zero_threads_rejected() {
        let _ = RuntimeBuilder::default().threads(0);
    }

    /// There is no lane count to zero: the one count the builder
    /// rejects at zero is the thread count, and no setter before it
    /// (a session quota here) lifts that.
    #[test]
    #[should_panic(expected = "at least the main thread")]
    fn zero_shards_rejected() {
        let _ = RuntimeBuilder::default()
            .session_max_in_flight(4)
            .threads(0);
    }
}
