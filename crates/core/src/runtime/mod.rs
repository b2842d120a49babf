//! The public [`Runtime`]: object creation, task spawning, barriers,
//! blocking conditions, and runtime introspection.

pub mod session;
pub(crate) mod shard;
pub mod spawner;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam_deque::{Injector, Stealer, Worker};
use parking_lot::Mutex;

use crate::config::{RuntimeBuilder, RuntimeConfig};
use crate::data::object::{DataObject, Handle};
use crate::data::region_handle::{RegionData, RegionHandle, RegionObject};
use crate::data::representant::Representant;
use crate::data::TaskData;
use crate::graph::node::TaskNode;
use crate::graph::record::GraphRecord;
use crate::ids::{ObjectId, SessionId, TaskId};
use crate::padded::CachePadded;
use crate::runtime::spawner::SpawnHost;
use crate::sched::cost::CostTable;
use crate::sched::queues::{Idle, Job, SleepCtl, TaskSource};
use crate::sched::worker::{enqueue_ready, find_task, run_task, worker_loop, WorkerCtx};
use crate::stats::{Stats, StatsSnapshot};
use crate::trace::{EventKind, Trace, TraceCollector};

/// Task scheduling priority (the paper's `highpriority` clause).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Priority {
    #[default]
    Normal,
    /// "Tasks in the high priority list are scheduled as soon as possible
    /// independently of any locality consideration."
    High,
}

/// One task whose body panicked. The panic was contained: the task
/// completed through the normal protocol and the rest of the graph kept
/// running (subject to the [`OnPanic`](crate::OnPanic) policy).
pub struct TaskFailure {
    /// Id of the failed task.
    pub id: TaskId,
    /// The task's name (the label passed to [`Runtime::task`]).
    pub name: &'static str,
    /// The session the task was spawned under ([`SessionId::NONE`] for
    /// tasks spawned outside any session, and always so on a runtime
    /// that never opened one).
    pub session: SessionId,
    /// The panic payload exactly as `catch_unwind` captured it.
    pub payload: Box<dyn std::any::Any + Send>,
}

impl TaskFailure {
    /// The payload as a string when the panic carried one — the common
    /// `panic!("literal")` and `panic!("{..}", ..)` cases.
    pub fn payload_str(&self) -> Option<&str> {
        self.payload
            .downcast_ref::<&'static str>()
            .copied()
            .or_else(|| self.payload.downcast_ref::<String>().map(String::as_str))
    }
}

impl std::fmt::Debug for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskFailure")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("session", &self.session)
            .field(
                "payload",
                &self.payload_str().unwrap_or("<non-string payload>"),
            )
            .finish()
    }
}

/// One task whose body never ran because a failure upstream (or a
/// [`FailFast`](crate::OnPanic::FailFast) trip) cancelled it.
#[derive(Clone, Debug)]
pub struct CancelledTask {
    /// Id of the cancelled task.
    pub id: TaskId,
    /// The task's name.
    pub name: &'static str,
    /// The session the task was spawned under ([`SessionId::NONE`]
    /// outside any session).
    pub session: SessionId,
}

/// Everything that went wrong between two [`Runtime::wait_all`] drains:
/// the panicked tasks (with payloads) and the tasks cancelled because
/// of them.
#[derive(Debug)]
pub struct TaskFailures {
    /// Tasks whose bodies panicked, in completion order.
    pub failed: Vec<TaskFailure>,
    /// Tasks cancelled without running, in completion order.
    pub cancelled: Vec<CancelledTask>,
}

impl std::fmt::Display for TaskFailures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} task(s) panicked, {} cancelled",
            self.failed.len(),
            self.cancelled.len()
        )?;
        if let Some(first) = self.failed.first() {
            write!(f, "; first: {} ({:?})", first.name, first.id)?;
            if let Some(msg) = first.payload_str() {
                write!(f, ": {msg}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for TaskFailures {}

/// A worker thread could not be spawned while constructing a
/// [`Runtime`]. Returned by [`RuntimeBuilder::try_build`] /
/// [`Runtime::try_with_config`]; any workers spawned before the failing
/// one were shut down and joined, so the partial runtime leaks nothing.
///
/// [`RuntimeBuilder::try_build`]: crate::RuntimeBuilder::try_build
#[derive(Debug)]
pub struct RuntimeBuildError {
    /// Thread index of the worker that failed to spawn (1-based; 0 is
    /// the main thread, which always exists).
    pub worker: usize,
    /// The underlying OS error.
    pub source: std::io::Error,
}

impl std::fmt::Display for RuntimeBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "could not spawn worker thread {}: {}",
            self.worker, self.source
        )
    }
}

impl std::error::Error for RuntimeBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// State shared between the main thread and the workers.
pub struct Shared {
    pub(crate) cfg: RuntimeConfig,
    pub(crate) stats: Stats,
    /// Global high-priority ready list (FIFO).
    pub(crate) hp: Injector<Job>,
    /// Latches true on the first high-priority enqueue; lets `find_task`
    /// skip the HP probe for programs that never use priorities.
    /// Padded: probed on every lookup and every hand-off continuation.
    pub(crate) hp_used: CachePadded<AtomicBool>,
    /// The main ready list (FIFO): "a point of distribution of tasks in
    /// areas of the graph that are not being explored".
    pub(crate) main_q: Injector<Job>,
    /// FIFO-stealing ends of every thread's own list (index 0 = main).
    pub(crate) stealers: Vec<Stealer<Job>>,
    /// Tasks that have finished executing, sharded per thread and
    /// cache-line padded: each shard has a single writer (the thread
    /// with that index) bumping it with a load + Release store, so
    /// completion pays no RMW and no shared line — the live graph size
    /// is `next_task - finished_total()`, summed on demand by the
    /// barrier/throttle side.
    pub(crate) finished: Box<[CachePadded<AtomicU64>]>,
    /// Bytes held by live data versions (initial buffers + renamed
    /// copies); watched by the §III memory-limit blocking condition.
    pub(crate) live_bytes: Arc<AtomicUsize>,
    /// The runtime-wide size-classed store displaced version buffers
    /// park in awaiting reuse ([`data::slab::VersionSlab`]), shared by
    /// every data object.
    pub(crate) slab: Arc<crate::data::slab::VersionSlab>,
    /// Single-writer spawn counter (the spawn count doubles as the
    /// liveness numerator). Padded: the spawner bumps it per task while
    /// workers read it in completion probes — without padding it would
    /// false-share with whatever field the workers write next to it.
    pub(crate) next_task: CachePadded<AtomicU64>,
    pub(crate) next_obj: AtomicU64,
    pub(crate) graph: Option<Mutex<GraphRecord>>,
    pub(crate) tracer: Option<TraceCollector>,
    pub(crate) sleep: SleepCtl,
    pub(crate) shutdown: AtomicBool,
    /// Head of the intrusive free stack of recycled task nodes (the
    /// spawn-side node pool). Completing threads push finished nodes
    /// through [`TaskNode::free_next`]; the spawners' caches
    /// (`shard::LaneCache`) pop, each with a single `swap` that detaches
    /// the whole chain, so no pop can see ABA. Padded: every worker
    /// CAS-pushes here once per task while the spawner swaps it.
    pub(crate) free_nodes: CachePadded<AtomicPtr<TaskNode>>,
    /// The analysis gate ([`LaneGate`](shard::LaneGate)): the entry
    /// ticket to every object's `SpawnerCell`. Only taken once
    /// [`sessions_used`](Shared::sessions_used) — the single-spawner
    /// path never touches it.
    pub(crate) lane: shard::LaneGate,
    /// The spawner mode: false while only the main thread spawns
    /// (§III), true once a session has been opened. Observed, not
    /// configured; [`Runtime::latch_spawners`] is its only writer.
    /// Padded: the spawn path and the workers read it per task.
    pub(crate) sessions: CachePadded<AtomicBool>,
    /// Latches true on the first failed or cancelled task. The
    /// `OnPanic::FailFast` probe and [`Session::has_failures`]
    /// (session.rs stays greppably mutex-free) read only this flag,
    /// never the registry below. Padded: under `FailFast` it is probed
    /// once per task.
    ///
    /// [`Session::has_failures`]: session::Session::has_failures
    pub(crate) faulted: CachePadded<AtomicBool>,
    /// Failure registry, drained by [`Runtime::wait_all`]. Mutex-backed
    /// deliberately: it is written only when a task actually panics or
    /// is cancelled — never on the healthy fast path — so the lock-free
    /// pins on completion/shard/version are untouched, and the healthy
    /// alloc budget stays zero.
    pub(crate) failures: Mutex<FailureLog>,
    /// Construction instant: the time base every session deadline is
    /// measured against (deadlines store nanoseconds-since-epoch, so a
    /// worker's expiry probe is one Relaxed `u64` load and a compare —
    /// no `Instant` arithmetic unless a deadline is actually armed).
    pub(crate) epoch: Instant,
    /// Session-0 fault flag: the `FailFast` scope for tasks spawned
    /// *outside* any session once sessions are in play. (`faulted`
    /// stays the runtime-wide tripwire; this splits its FailFast
    /// consequence per tenant — see `sched::worker::session_skip`.)
    pub(crate) faulted0: AtomicBool,
    /// Session registry: every control block handed out by
    /// [`Runtime::session`], kept alive for the runtime's lifetime so
    /// the raw session pointers stamped on task nodes stay valid (see
    /// `TaskNode::sess_ctl`). Mutex-backed like `failures`: touched at
    /// session open and at `wait_all`'s fault reset, never per task.
    pub(crate) registry: Mutex<Vec<Arc<session::SessionCtl>>>,
    /// Session id mint (1-based; 0 is [`SessionId::NONE`]).
    pub(crate) next_session: AtomicU32,
    /// Sampled body cost per task name, which decides whether a
    /// born-ready task runs inline on the spawner
    /// (`Runtime::publish_born_ready`). `Some` on at least two threads,
    /// and read only through [`inline_costs`](Shared::inline_costs),
    /// which also requires the single-spawner mode. At `threads(1)`
    /// there is no hand-off to save, and session threads are producers
    /// whose time belongs to the caller.
    costs: Option<CostTable>,
}

/// The failure registry payload: every panicked and every cancelled
/// task since the last [`Runtime::wait_all`] drain.
#[derive(Default)]
pub(crate) struct FailureLog {
    pub(crate) failed: Vec<TaskFailure>,
    pub(crate) cancelled: Vec<CancelledTask>,
}

impl Shared {
    /// Assemble the shared state for `threads` compute threads (one
    /// finished shard and one stealer per thread).
    fn build(cfg: RuntimeConfig, stealers: Vec<Stealer<Job>>) -> Shared {
        let n = cfg.threads;
        // Spare cap: the explicit knob, else the memory limit (spares
        // should never out-budget the throttle), else a fixed default.
        let cap = cfg
            .slab_spare_bytes
            .or(cfg.memory_limit)
            .unwrap_or(crate::data::slab::DEFAULT_SPARE_CAP);
        let slab = Arc::new(crate::data::slab::VersionSlab::new(cap));
        Shared {
            graph: cfg.record_graph.then(|| Mutex::new(GraphRecord::default())),
            tracer: cfg.tracing.then(|| TraceCollector::new(n)),
            cfg,
            stats: Stats::new(n),
            hp: Injector::new(),
            hp_used: CachePadded::new(AtomicBool::new(false)),
            main_q: Injector::new(),
            stealers,
            finished: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            live_bytes: Arc::new(AtomicUsize::new(0)),
            slab,
            next_task: CachePadded::new(AtomicU64::new(0)),
            next_obj: AtomicU64::new(0),
            sleep: SleepCtl::new(n),
            shutdown: AtomicBool::new(false),
            free_nodes: CachePadded::new(AtomicPtr::new(std::ptr::null_mut())),
            lane: shard::LaneGate::new(),
            sessions: CachePadded::new(AtomicBool::new(false)),
            faulted: CachePadded::new(AtomicBool::new(false)),
            failures: Mutex::new(FailureLog::default()),
            epoch: Instant::now(),
            faulted0: AtomicBool::new(false),
            registry: Mutex::new(Vec::new()),
            next_session: AtomicU32::new(0),
            costs: (n >= 2).then(CostTable::new),
        }
    }

    /// Has any task failed or been cancelled since the last drain? One
    /// Relaxed flag load — safe to probe from anywhere, any frequency.
    #[inline]
    pub(crate) fn faulted(&self) -> bool {
        self.faulted.load(Ordering::Relaxed)
    }

    /// Ask the version slab to free dead parked spares until the live
    /// account fits `limit` again; returns the bytes released. This is
    /// what makes the §III blocking conditions real backpressure: the
    /// throttle, the session-side throttle and the session quota probe
    /// all reclaim before (and instead of) waiting. Cheap when there is
    /// nothing to do — under the limit, or nothing parked.
    pub(crate) fn reclaim_spares(&self, limit: usize) -> usize {
        let live = self.live_bytes.load(Ordering::Acquire);
        if live > limit {
            self.slab.reclaim(live - limit)
        } else {
            0
        }
    }

    /// Free up to `want` bytes of dead parked spares unconditionally —
    /// the session quota probe's variant of [`reclaim_spares`]
    /// (session attribution travels with each ticket, so global frees
    /// are how a session gets its quota bytes back).
    ///
    /// [`reclaim_spares`]: Shared::reclaim_spares
    pub(crate) fn reclaim_dead_spares(&self, want: usize) -> usize {
        self.slab.reclaim(want)
    }

    /// Has any [`Runtime::session`] been opened, so that threads other
    /// than the main thread may spawn and tasks may carry a session
    /// stamp? One Relaxed load. The main thread's paths see their own
    /// latch store; a worker reads it after taking a task, and the
    /// queue hand-over orders the latch before any session task's
    /// spawn.
    #[inline]
    pub(crate) fn sessions_used(&self) -> bool {
        self.sessions.load(Ordering::Relaxed)
    }

    /// The cost table while inline runs apply (one spawner); later
    /// samples would decide nothing.
    #[inline]
    pub(crate) fn inline_costs(&self) -> Option<&CostTable> {
        self.costs.as_ref().filter(|_| !self.sessions_used())
    }

    /// Has a task spawned *outside* any session panicked since the last
    /// drain? (The FailFast scope for session-0 tasks.)
    #[inline]
    pub(crate) fn faulted0(&self) -> bool {
        self.faulted0.load(Ordering::Relaxed)
    }

    /// Enrol a session control block: keeps the pointee alive for the
    /// runtime's lifetime (task nodes stamp raw pointers to it). All
    /// registry locking lives here so `session.rs` stays under the
    /// no-mutex test.
    pub(crate) fn register_session(&self, ctl: &Arc<session::SessionCtl>) {
        self.registry.lock().push(Arc::clone(ctl));
        self.stats.sessions_opened();
    }

    /// The session a job was stamped with, for failure records.
    fn job_session(&self, job: &Job) -> SessionId {
        if self.sessions_used() {
            job.session_ctl().map_or(SessionId::NONE, |c| c.id())
        } else {
            SessionId::NONE
        }
    }

    /// Record a panicked task. Called by the executing worker after
    /// stamping the node, before its completion walk.
    pub(crate) fn note_failed(&self, job: &Job, payload: Box<dyn std::any::Any + Send>) {
        self.stats.panics();
        self.faulted.store(true, Ordering::Relaxed);
        let session = self.job_session(job);
        // Scope the FailFast consequence to the offending tenant: the
        // panicking task's own session trips its session flag, a
        // session-less panic trips the session-0 flag. (Cancellations
        // below deliberately trip neither — a revoked or past-deadline
        // session is already shedding via its own probes.)
        if self.sessions_used() {
            match job.session_ctl() {
                Some(ctl) => ctl.set_faulted(),
                None => self.faulted0.store(true, Ordering::Relaxed),
            }
        }
        self.failures.lock().failed.push(TaskFailure {
            id: job.id(),
            name: job.name(),
            session,
            payload,
        });
    }

    /// Record a cancelled task (body skipped). Same call site contract
    /// as [`note_failed`](Self::note_failed).
    pub(crate) fn note_cancelled(&self, job: &Job) {
        self.stats.cancelled();
        self.faulted.store(true, Ordering::Relaxed);
        let session = self.job_session(job);
        self.failures.lock().cancelled.push(CancelledTask {
            id: job.id(),
            name: job.name(),
            session,
        });
    }

    /// Split one session's entries out of the failure registry, leaving
    /// every other tenant's records in place for `wait_all` (or their
    /// own `Session::wait`) to report. Called by [`session::Session::wait`].
    pub(crate) fn drain_session_failures(&self, id: SessionId) -> FailureLog {
        let mut log = self.failures.lock();
        let (failed, keep_failed) = std::mem::take(&mut log.failed)
            .into_iter()
            .partition(|f: &TaskFailure| f.session == id);
        log.failed = keep_failed;
        let (cancelled, keep_cancelled) = std::mem::take(&mut log.cancelled)
            .into_iter()
            .partition(|c: &CancelledTask| c.session == id);
        log.cancelled = keep_cancelled;
        FailureLog { failed, cancelled }
    }

    /// Shared state without worker threads, for unit tests of the
    /// completion path.
    #[cfg(test)]
    pub(crate) fn for_tests(cfg: RuntimeConfig) -> Shared {
        let locals: Vec<Worker<Job>> = (0..cfg.threads).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(|w| w.stealer()).collect();
        Shared::build(cfg, stealers)
    }

    #[inline]
    pub(crate) fn trace_event(&self, thread: usize, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record(thread, kind);
        }
    }

    /// Is any task published where a thread could take it: the
    /// high-priority list, the main list, or any thread's own list? The
    /// pre-park re-scan of the sleep protocol (see `SleepCtl`): run after
    /// the announcement, it sees every push whose publisher's sleeper
    /// probe missed that announcement.
    pub(crate) fn has_work(&self) -> bool {
        !self.hp.is_empty()
            || !self.main_q.is_empty()
            || self.stealers.iter().any(|s| !s.is_empty())
    }

    /// Total finished tasks: the Acquire sum of the per-thread shards.
    /// Each shard is monotonic and its Release bump pairs with these
    /// Acquire loads, so the sum orders every counted task's effects
    /// before the caller proceeds — and can only *lag* the truth, never
    /// overshoot (a barrier therefore never exits early; a momentarily
    /// stale remote shard is caught by the barrier's post-announcement
    /// re-read, which the all-done wake pairs with).
    #[inline]
    pub(crate) fn finished_total(&self) -> u64 {
        self.finished
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .sum()
    }

    /// Spawned-but-unfinished task instances (the live graph size).
    /// Exact on the spawning thread (it owns `next_task`); see
    /// [`finished_total`](Self::finished_total) for the completion side.
    #[inline]
    pub(crate) fn live_now(&self) -> usize {
        let spawned = self.next_task.load(Ordering::Relaxed);
        spawned.saturating_sub(self.finished_total()) as usize
    }

    /// Hand a finished node to the spawn-side pool. Called by the thread
    /// that ran the task, after `complete` and before the completion
    /// counts — the last point the runtime touches the node. The node may still be referenced elsewhere (e.g. as an
    /// object's producer); the pool proves exclusivity with
    /// `Arc::get_mut` before reuse.
    #[inline]
    pub(crate) fn recycle_node(&self, node: Arc<TaskNode>) {
        let stack = &self.free_nodes;
        let raw = Arc::into_raw(node) as *mut TaskNode;
        let mut head = stack.load(Ordering::Relaxed);
        loop {
            // SAFETY: we own the strong reference behind `raw` until the
            // CAS publishes it; `free_next` has a single writer per node
            // lifecycle (this push).
            unsafe { (*raw).free_next.store(head, Ordering::Relaxed) };
            match stack.compare_exchange_weak(head, raw, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        // Release the strong references parked in the free stack.
        let mut p = *self.free_nodes.get_mut();
        while !p.is_null() {
            // SAFETY: exclusive access in Drop; pointers came from
            // `Arc::into_raw`.
            let next = unsafe { *(*p).free_next.get_mut() };
            drop(unsafe { Arc::from_raw(p) });
            p = next;
        }
    }
}

/// The SMPSs runtime. One instance owns the worker threads and all data
/// objects created through it. The creating thread is the **main thread**
/// of the paper's execution model: it runs the (sequential-looking) main
/// program, performs all dependency analysis, and helps execute tasks when
/// it blocks on a barrier or on the graph-size limit. A ready task too
/// cheap to ship to a worker (measured body under 1 µs) it runs itself,
/// at submit.
///
/// `Runtime` is deliberately `!Sync` (one main program thread, as in the
/// paper): several single-writer fast paths — task/object id generation
/// and the analyser-side stats counters — rely on spawning being pinned
/// to one thread. This doctest pins the invariant at compile time; if it
/// ever starts compiling, those paths must go back to atomic RMW first:
///
/// ```compile_fail
/// fn require_sync<T: Sync>() {}
/// require_sync::<smpss::Runtime>();
/// ```
///
/// Sessions do not relax this: the runtime stays one main thread.
/// Other threads spawn through [`Session`](session::Session)s
/// ([`session`](Runtime::session)), each itself `Send + !Sync` and
/// pinned to one producer thread.
pub struct Runtime {
    pub(crate) shared: Arc<Shared>,
    /// The main thread's scheduling state (thread index 0): own ready
    /// list, claimed main-list batch, completion scratch. `RefCell`
    /// keeps `Runtime: !Sync` — only the main thread helps through it.
    main_ctx: RefCell<WorkerCtx>,
    /// Spawner-cached lower bound of `Shared::finished_total()`, so the
    /// per-spawn graph-size throttle check is one load and a subtract in
    /// the common (far-under-limit) case instead of a cross-shard sum.
    /// Monotonic-safe: the bound only lags, so `spawned - bound` only
    /// overestimates liveness — the throttle can never under-block.
    finished_seen: Cell<u64>,
    /// The main thread's cache of recycled task nodes and spare
    /// successor links, shared by no one else (its `RefCell`s keep
    /// `Runtime: !Sync` too).
    cache: shard::LaneCache,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Start configuring a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Start a runtime with an explicit configuration. Panics if a
    /// worker thread cannot be spawned; use
    /// [`try_with_config`](Self::try_with_config) to handle that as an
    /// error instead.
    pub fn with_config(cfg: RuntimeConfig) -> Self {
        Self::try_with_config(cfg).unwrap_or_else(|e| panic!("failed to spawn worker thread: {e}"))
    }

    /// [`with_config`](Self::with_config), but worker-thread spawn
    /// failure (thread exhaustion, resource limits) returns an error
    /// instead of panicking mid-construction. On failure, every worker
    /// spawned before the failing one is signalled to shut down and
    /// joined before this returns, so nothing leaks.
    pub fn try_with_config(cfg: RuntimeConfig) -> Result<Self, RuntimeBuildError> {
        let n = cfg.threads;
        let mut locals: Vec<Worker<Job>> = (0..n).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(|w| w.stealer()).collect();
        let shared = Arc::new(Shared::build(cfg, stealers));
        let main_local = locals.remove(0);
        let mut joins = Vec::with_capacity(n - 1);
        for (i, local) in locals.into_iter().enumerate() {
            let sh = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("smpss-worker-{}", i + 1))
                .spawn(move || worker_loop(sh, local, i + 1));
            match spawned {
                Ok(j) => joins.push(j),
                Err(source) => {
                    // Unwind the partial pool: the already-running
                    // workers see the shutdown flag on their next idle
                    // scan (there is no work yet, so that is imminent).
                    shared.shutdown.store(true, Ordering::Release);
                    shared.sleep.notify_all();
                    for j in joins {
                        let _ = j.join();
                    }
                    return Err(RuntimeBuildError {
                        worker: i + 1,
                        source,
                    });
                }
            }
        }
        Ok(Runtime {
            cache: shard::LaneCache::new(Arc::clone(&shared)),
            shared,
            main_ctx: RefCell::new(WorkerCtx::new(main_local)),
            finished_seen: Cell::new(0),
            joins,
        })
    }

    /// Number of compute threads (main + workers).
    pub fn threads(&self) -> usize {
        self.shared.cfg.threads
    }

    /// Create a runtime-managed data object initialised to `value`.
    /// Renaming allocates fresh buffers by cloning a prototype of `value`;
    /// use [`data_with_alloc`](Self::data_with_alloc) to avoid keeping that
    /// prototype alive.
    pub fn data<T: TaskData>(&self, value: T) -> Handle<T> {
        // Mutex-wrapped so the allocator is Sync without requiring T: Sync;
        // it is only ever called from the spawning thread anyway.
        let proto = Mutex::new(value.clone());
        self.data_with_alloc(value, move || proto.lock().clone())
    }

    /// Create a data object with an explicit allocator for renamed
    /// versions. The allocator must produce a value of the same *shape*
    /// (e.g. a zeroed block of the same dimensions); its contents are
    /// overwritten (for `output`) or copied over (for renamed `inout`).
    pub fn data_with_alloc<T: TaskData>(
        &self,
        value: T,
        alloc: impl Fn() -> T + Send + Sync + 'static,
    ) -> Handle<T> {
        // `size_of::<T>()` says nothing about heap shape, so these
        // objects reuse slab spares only within their own bucket.
        self.data_inner(value, std::mem::size_of::<T>(), alloc, false)
    }

    /// Like [`data_with_alloc`](Self::data_with_alloc) with an explicit
    /// per-version byte count for the memory-limit accounting — use it
    /// for heap-backed payloads, where `size_of::<T>()` only sees the
    /// header (e.g. `m*m*4` for an `m x m` f32 block). The byte count
    /// is a shape contract, like the paper's dimension specifiers: the
    /// allocator must produce values of exactly this size, which is
    /// what lets the version slab resurrect another object's spare of
    /// the same type + size for this one.
    pub fn data_sized<T: TaskData>(
        &self,
        value: T,
        version_bytes: usize,
        alloc: impl Fn() -> T + Send + Sync + 'static,
    ) -> Handle<T> {
        self.data_inner(value, version_bytes, alloc, true)
    }

    fn data_inner<T: TaskData>(
        &self,
        value: T,
        version_bytes: usize,
        alloc: impl Fn() -> T + Send + Sync + 'static,
        shape_exact: bool,
    ) -> Handle<T> {
        let next = self.shared.next_obj.load(Ordering::Relaxed) + 1;
        self.shared.next_obj.store(next, Ordering::Relaxed);
        let id = ObjectId(next);
        Handle {
            obj: Arc::new(DataObject::new(
                id,
                value,
                Box::new(alloc),
                version_bytes,
                Arc::clone(&self.shared.live_bytes),
                Arc::clone(&self.shared.slab),
                shape_exact,
            )),
        }
    }

    /// Create a region-tracked buffer (§V.A array regions).
    ///
    /// ```
    /// # use smpss::{region, Runtime};
    /// let rt = Runtime::builder().threads(2).build();
    /// let data = rt.region_data(vec![0u8; 100]);
    /// // Two tasks on disjoint regions: no dependency, may run in parallel.
    /// for k in 0..2usize {
    ///     let (lo, hi) = (k * 50, k * 50 + 49);
    ///     let mut sp = rt.task("fill");
    ///     let mut w = sp.write_region(&data, region![lo..=hi]);
    ///     sp.submit(move || w.slice_mut(lo, hi).fill(k as u8 + 1));
    /// }
    /// rt.barrier();
    /// rt.with_region(&data, |v| {
    ///     assert_eq!(v[0], 1);
    ///     assert_eq!(v[99], 2);
    /// });
    /// ```
    pub fn region_data<T: RegionData>(&self, value: T) -> RegionHandle<T> {
        let next = self.shared.next_obj.load(Ordering::Relaxed) + 1;
        self.shared.next_obj.store(next, Ordering::Relaxed);
        let id = ObjectId(next);
        RegionHandle {
            obj: Arc::new(RegionObject::new(id, value)),
        }
    }

    /// Create a representant (§V.B): a dependency-only object with no
    /// payload, standing in for data accessed through [`Opaque`](crate::Opaque)
    /// pointers.
    pub fn representant(&self) -> Representant {
        self.data(())
    }

    /// Begin a task invocation. The returned [`TaskSpawner`](spawner::TaskSpawner)
    /// collects parameter accesses (in declaration order) and is consumed by
    /// `submit`. The `task_def!` macro generates exactly this sequence.
    #[inline]
    pub fn task(&self, name: &'static str) -> spawner::TaskSpawner<'_> {
        spawner::TaskSpawner::new(self, name)
    }

    /// Barrier: block until every spawned task has finished. The main
    /// thread "behaves as a worker thread until an unblocking condition is
    /// reached" — it executes tasks rather than idling.
    ///
    /// ```
    /// # use smpss::Runtime;
    /// let rt = Runtime::builder().threads(2).build();
    /// let x = rt.data(1i32);
    /// let mut sp = rt.task("double");
    /// let mut w = sp.inout(&x);
    /// sp.submit(move || *w.get_mut() *= 2);
    /// rt.barrier();
    /// assert_eq!(rt.read(&x), 2);
    /// ```
    pub fn barrier(&self) {
        self.shared.stats.barriers();
        self.shared.trace_event(0, EventKind::BarrierBegin);
        // Sessions may still be spawning, so the spawn count is **not**
        // stable here: re-read it every pass. The barrier quiesces every
        // task spawned up to the moment both counters agree; join (or
        // pause) the session threads first for a full program quiesce.
        // Drain on the cached finished lower bound: while the main
        // thread is helping, each run task advances the bound by one
        // (its own completion is real), so the busy loop never pays the
        // cross-shard sum; only an idle pass (workers hold the last
        // tasks) re-sums before waiting. The wait is a worker's: spin
        // within the window, then park in slot 0. The park's re-scan
        // re-reads both counters after announcing, and the last worker
        // completion pairs its finished-shard store with that
        // announcement (`finish_task`'s all-done wake), so the barrier
        // needs no timeout.
        let mut seen = self.finished_seen.get();
        let mut idle = Idle::default();
        loop {
            let spawned = self.shared.next_task.load(Ordering::Acquire);
            if spawned.saturating_sub(seen) == 0 {
                break;
            }
            if self.help_once() {
                seen += 1; // our completion, a still-valid lower bound
                idle.end();
                continue;
            }
            seen = self.shared.finished_total();
            if spawned.saturating_sub(seen) == 0 {
                continue;
            }
            let shared = &self.shared;
            idle.wait(&shared.sleep, 0, || {
                shared.has_work()
                    || shared.finished_total() >= shared.next_task.load(Ordering::Acquire)
            });
        }
        self.finished_seen.set(seen);
        self.shared.trace_event(0, EventKind::BarrierEnd);
    }

    /// [`barrier`](Self::barrier) that also reports failures: block
    /// until every spawned task has finished, then return `Err` if any
    /// task body panicked — or was cancelled — since the last drain.
    /// The error carries each failed task's id, name and panic payload,
    /// and the id/name of every cancelled dependent.
    ///
    /// Draining resets the failure state: a second call (with no new
    /// failures in between) returns `Ok(())`, and an `OnPanic::FailFast`
    /// runtime resumes scheduling new bodies.
    ///
    /// ```
    /// # use smpss::Runtime;
    /// let rt = Runtime::builder().threads(2).build();
    /// let mut sp = rt.task("boom");
    /// sp.submit(|| panic!("task body failed"));
    /// let err = rt.wait_all().unwrap_err();
    /// assert_eq!(err.failed.len(), 1);
    /// assert_eq!(err.failed[0].payload_str(), Some("task body failed"));
    /// assert!(rt.wait_all().is_ok(), "drained");
    /// ```
    pub fn wait_all(&self) -> Result<(), TaskFailures> {
        self.barrier();
        if !self.shared.faulted() {
            return Ok(());
        }
        let log = {
            let mut log = self.shared.failures.lock();
            std::mem::take(&mut *log)
        };
        // Reset after the drain (not before): the graph is quiescent
        // post-barrier, so no completion can race the flag here while
        // only the main thread spawns, and a racer from another spawner
        // merely re-latches it.
        self.shared.faulted.store(false, Ordering::Relaxed);
        if self.shared.sessions_used() {
            // Per-tenant FailFast scopes reset with the global drain.
            // Revocations and fired deadlines stay sticky: a cancelled
            // or expired session never silently resumes — open a new
            // one.
            self.shared.faulted0.store(false, Ordering::Relaxed);
            for ctl in self.shared.registry.lock().iter() {
                ctl.clear_faulted();
            }
        }
        if log.failed.is_empty() && log.cancelled.is_empty() {
            return Ok(());
        }
        Err(TaskFailures {
            failed: log.failed,
            cancelled: log.cancelled,
        })
    }

    /// Wait until the data named by `h` is produced (the last writer task
    /// spawned so far has finished); helps run tasks meanwhile. This is
    /// the `css wait on` construct: finer than a barrier, it leaves
    /// unrelated tasks running.
    ///
    /// ```
    /// # use smpss::Runtime;
    /// let rt = Runtime::builder().threads(2).build();
    /// let x = rt.data(0u32);
    /// let y = rt.data(0u32);
    /// for h in [&x, &y] {
    ///     let mut sp = rt.task("set");
    ///     let mut w = sp.write(h);
    ///     sp.submit(move || *w.get_mut() = 7);
    /// }
    /// rt.wait_on(&x);            // y's task may still be pending
    /// assert_eq!(rt.read(&x), 7);
    /// # rt.barrier();
    /// ```
    pub fn wait_on<T: TaskData>(&self, h: &Handle<T>) {
        // Once sessions exist, one may be analysing a task on this
        // object right now: enter the gate before touching the
        // `SpawnerCell`. (The probe only synchronises with tasks spawned
        // so far — quiesce any session that may still *write* `h`
        // before relying on the result.)
        self.help_until(|| {
            let _lane = self.lane_enter();
            let st = h.obj.state.lock();
            st.current
                .producer
                .as_ref()
                .is_none_or(|p| p.is_finished())
                .then_some(())
        })
    }

    /// Wait for `h` to be produced, then return a copy of its value.
    pub fn read<T: TaskData>(&self, h: &Handle<T>) -> T {
        self.wait_on(h);
        let _lane = self.lane_enter();
        let st = h.obj.state.lock();
        // SAFETY: the producer has finished and no new writer can appear
        // — the main thread is right here, and with other spawners the
        // caller quiesces sessions that write `h` first (see
        // `wait_on`); concurrent readers share immutably.
        unsafe { st.current.buf.peek().clone() }
    }

    /// Wait until `h` is fully quiescent (produced and no pending readers),
    /// then mutate it in place from the main thread.
    pub fn update<T: TaskData>(&self, h: &Handle<T>, f: impl FnOnce(&mut T)) {
        let (_lane, st) = self.help_until(|| {
            let lane = self.lane_enter();
            let st = h.obj.state.lock();
            let settled = st.current.producer.as_ref().is_none_or(|p| p.is_finished())
                && st.current.buf.window().pending_acquire() == 0;
            settled.then_some((lane, st))
        });
        // SAFETY: no producer running, no pending readers, and no
        // concurrent spawns on this object — the gate and the object's
        // state are held for the mutation, and sessions that access
        // `h` must be quiesced by the caller (see `wait_on`).
        unsafe { f(st.current.buf.peek_mut()) };
    }

    /// Wait until every task that accessed region-handle `h` has finished,
    /// then run `f` with shared access to the buffer.
    pub fn with_region<T: RegionData, R>(&self, h: &RegionHandle<T>, f: impl FnOnce(&T) -> R) -> R {
        let _frontier = self.region_settled(h);
        // SAFETY: see `region_settled`; readers share immutably.
        unsafe { f(&*h.obj.buf.get()) }
    }

    /// Mutate a region buffer from the main thread once fully quiescent.
    pub fn update_region<T: RegionData>(&self, h: &RegionHandle<T>, f: impl FnOnce(&mut T)) {
        let _frontier = self.region_settled(h);
        // SAFETY: see `region_settled`; no task is live on this object,
        // so the access is exclusive.
        unsafe { f(&mut *h.obj.buf.get()) }
    }

    /// Help until every task that accessed `h` has finished, and return
    /// the locked frontier. While the guard is held no task can gain
    /// access to the buffer: every spawner — the main thread or a
    /// session — records a region access under this same mutex
    /// (`dep::region_deps`), so no new accessor can appear.
    fn region_settled<'a, T: RegionData>(
        &self,
        h: &'a RegionHandle<T>,
    ) -> parking_lot::MutexGuard<'a, crate::data::region_log::RegionFrontier> {
        self.help_until(|| {
            let frontier = h.obj.frontier.lock();
            frontier.all_finished().then_some(frontier)
        })
    }

    /// The one helping wait: run `probe` until it yields, helping run a
    /// task (or yielding when none is ready) between probes, then
    /// republish any deferred hand-off before returning the probe's
    /// value. Whatever the value holds (a gate entry, a lock) is held
    /// across that republication and released by the caller.
    fn help_until<R>(&self, mut probe: impl FnMut() -> Option<R>) -> R {
        let out = loop {
            if let Some(out) = probe() {
                break out;
            }
            if !self.help_once() {
                std::thread::yield_now();
            }
        };
        self.finish_helping();
        out
    }

    /// Snapshot of the runtime counters. The slab's counters and
    /// occupancy gauges (`slab_*`, `version_pool_hits`,
    /// `version_bytes_*`) are overlaid here from the live slab and byte
    /// account; the gauges are point-in-time states, not monotonic
    /// event counters like the rest of the snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.shared.stats.snapshot();
        let slab = &self.shared.slab;
        let c = slab.counters();
        snap.version_pool_hits = c.hits;
        snap.slab_hits = c.hits;
        snap.slab_evicted_dead = c.evicted_dead;
        snap.slab_evicted_live = c.evicted_live;
        snap.slab_parked_bytes = c.parked_bytes as u64;
        snap.version_bytes_live = self.shared.live_bytes.load(Ordering::Acquire) as u64;
        snap.version_bytes_peak = slab.peak() as u64;
        snap
    }

    /// Number of live (spawned, unfinished) tasks.
    pub fn live_tasks(&self) -> usize {
        self.shared.live_now()
    }

    /// Bytes currently held by live data versions (initial buffers plus
    /// the renamed copies the analyser allocated and has not yet been
    /// able to retire).
    pub fn live_version_bytes(&self) -> usize {
        self.shared.live_bytes.load(Ordering::Acquire)
    }

    /// Clone the recorded task graph. Returns `None` unless the runtime was
    /// built with [`record_graph`](crate::RuntimeBuilder::record_graph).
    /// Node `i` of the record is task `TaskId(i + 1)` whichever spawners
    /// minted the ids; edges are in recording order, which repeats from
    /// run to run only when one thread spawns (see [`GraphRecord`]).
    pub fn graph(&self) -> Option<GraphRecord> {
        self.shared.graph.as_ref().map(|g| g.lock().clone())
    }

    /// Drain the trace collected so far. Returns `None` unless the runtime
    /// was built with [`tracing`](crate::RuntimeBuilder::tracing). Call
    /// after a [`barrier`](Self::barrier) for a complete picture.
    pub fn take_trace(&self) -> Option<Trace> {
        self.shared.tracer.as_ref().map(|t| t.drain())
    }

    /// Run one ready task on the main thread, if any. Returns whether a
    /// task was run. This is the "main thread behaves as a worker" path.
    /// Exactly one task runs per call — the callers re-check their
    /// blocking condition between tasks — so a completion hand-off is
    /// *deferred* into the context's `pending` slot and picked up by the
    /// next call's lookup, still bypassing every queue.
    ///
    /// Helping never nests, unlike a fork-join `sync` that runs other
    /// tasks on top of its waiting frame (see the depth rule in
    /// `smpss_baselines::forkjoin`). Task bodies are `Send + 'static`
    /// and `Runtime` is `!Sync`, so no body can hold a `&Runtime` and
    /// call back into `barrier`, `wait_on`, `task` or the throttle; the
    /// main thread's helpers (this, [`finish_helping`](Self::finish_helping)
    /// and inline runs) therefore run at most one body deep, and
    /// workers run their hand-off chains in a loop, not by recursion.
    pub(crate) fn help_once(&self) -> bool {
        let mut ctx = self.main_ctx.borrow_mut();
        // High-priority work preempts the deferred hand-off, exactly as
        // it preempts the worker loop's hand-off chain: the hand-off is
        // demoted to the own list, so the lookup below serves the HP
        // list first ("as soon as possible independently of any
        // locality consideration").
        if self.shared.hp_used.load(Ordering::Relaxed) && !self.shared.hp.is_empty() {
            if let Some(job) = ctx.pending.take() {
                ctx.local.push(job);
            }
        }
        let found = if let Some(job) = ctx.pending.take() {
            // The deferred hand-off: never published, statically ours.
            // Counted here — at consumption — so a hand-off demoted to
            // an own-list push by HP preemption is not misreported.
            self.shared.stats.handoffs(0);
            Some((job, TaskSource::OwnList, true))
        } else {
            find_task(&self.shared, &mut ctx, 0).map(|(job, src)| (job, src, false))
        };
        if let Some((job, src, owned)) = found {
            // While the main thread is the only spawner the node skips
            // the shared free stack for its own cache. Once sessions
            // spawn it goes back to that stack, as a worker's does: the
            // main thread may never spawn again, and its cache would
            // keep the node from the sessions.
            let handoff = run_task(&self.shared, &mut ctx, 0, job, src, true, owned, |done| {
                if self.shared.sessions_used() {
                    self.shared.recycle_node(done);
                } else {
                    self.cache.cache_node(done);
                }
            });
            if handoff.is_some() {
                ctx.pending = handoff;
            }
            true
        } else {
            false
        }
    }

    /// Re-publish the helper's deferred hand-off onto the (stealable)
    /// own list. Called when a helping loop exits: its caller may not
    /// help again for a long time, and a task parked in `pending` is
    /// invisible to thieves — without this, a ready task could
    /// serialize behind the spawner's next blocking condition.
    fn finish_helping(&self) {
        if self.shared.cfg.threads == 1 {
            // No thieves exist: the private slot cannot starve anyone,
            // and the next helping call consumes it queue-free.
            return;
        }
        let mut ctx = self.main_ctx.borrow_mut();
        if let Some(job) = ctx.pending.take() {
            ctx.local.push(job);
            self.shared.sleep.notify_one();
        }
    }

    /// Run a born-ready task on the spawning thread (case 1 of
    /// `publish_born_ready`). Never published, so the body take is
    /// owned. Counted as an own-list pop of thread 0 and in
    /// `inline_runs`.
    fn run_inline(&self, job: Job) {
        let handoff = {
            let mut ctx = self.main_ctx.borrow_mut();
            run_task(
                &self.shared,
                &mut ctx,
                0,
                job,
                TaskSource::OwnList,
                false,
                true,
                |done| self.cache.cache_node(done),
            )
        };
        debug_assert!(handoff.is_none(), "hand-off declined");
        self.shared.stats.inline_runs();
        // Our own completion: the cached finished lower bound stays a
        // lower bound, and the next barrier need not re-sum the shards.
        self.finished_seen.set(self.finished_seen.get() + 1);
    }

    /// Latch the spawner mode to sessions. The only writer of
    /// [`Shared::sessions`] and of the copies `Stats` and the version
    /// slab keep for their hot paths; [`session`](Runtime::session)
    /// calls it before it builds its handle.
    ///
    /// Before the latch the main thread takes the single-spawner paths
    /// (load+store ids and spawner counters, no analysis gate, tripwire
    /// shelf entry, inline runs, plain successor-list close). None of
    /// them can race a session:
    ///
    /// 1. before the latch, only the main thread spawns (`Runtime` is
    ///    `!Sync`, and no session exists yet);
    /// 2. the latch stores are sequenced before the first session
    ///    exists, and the main thread, being here, is inside none of
    ///    those paths;
    /// 3. moving a session to another thread synchronises, so all of it
    ///    happens-before the session's first spawn, which takes the
    ///    concurrent paths unconditionally.
    ///
    /// After the latch the main thread reads its own stores and takes
    /// the concurrent paths too. Sessions never read the mode; workers
    /// read it after taking a task, whose spawn the latch precedes.
    fn latch_spawners(&self) {
        let shared = &*self.shared;
        if shared.sessions_used() {
            return;
        }
        shared.stats.concurrent.store(true, Ordering::Relaxed);
        shared.slab.concurrent.store(true, Ordering::Relaxed);
        shared.sessions.store(true, Ordering::Relaxed);
    }
}

/// The [`Runtime`] itself is the canonical spawn host: the paper's
/// master thread, spawning through its own cache. Single-writer id
/// minting and inline runs stay exclusive to this impl; once sessions
/// may spawn (see [`Runtime::latch_spawners`]) its id counter switches
/// to the same RMW the sessions use, and its object accesses enter the
/// analysis gate like theirs.
impl SpawnHost for Runtime {
    #[inline]
    fn lane_cache(&self) -> &shard::LaneCache {
        &self.cache
    }

    /// Publish a task that is ready at submit time. Two cases, first
    /// match wins:
    ///
    /// 1. **Inline execution.** The task's site has a measured body cost
    ///    under [`INLINE_MAX_NS`](crate::sched::cost::INLINE_MAX_NS) in
    ///    [`Shared::costs`]: the task runs right here, on the spawning
    ///    thread, before `submit` returns. This is the path `help_once`
    ///    takes (owned body take, `catch_unwind` containment,
    ///    completion, node back to the spawner's cache), so failure
    ///    policies and counts behave exactly as on a worker. A born-ready
    ///    task has no successors yet, so its completion releases
    ///    nothing. Only `Priority::Normal` tasks inline, and only while
    ///    the runtime has a cost table in use (see [`Shared::costs`]
    ///    for the scope); every other task, and every task of a site no thread
    ///    has measured yet, takes the paths below unchanged. A site one
    ///    sample just evicted is watched: one in
    ///    [`SAMPLE_EVERY`](crate::sched::cost::SAMPLE_EVERY) of its
    ///    tasks still runs here, timed, so the spawner's own samples
    ///    decide whether it comes back (see `sched::cost`).
    /// 2. [`enqueue_ready`]: the main list (or the high-priority list).
    #[inline]
    fn publish_born_ready(&self, job: Job) {
        let shared = &*self.shared;
        if let Some(costs) = shared.inline_costs() {
            if job.priority() == Priority::Normal
                && (costs.is_cheap(job.name())
                    || (costs.is_watched(job.name()) && self.main_ctx.borrow_mut().sample_turn()))
            {
                self.run_inline(job);
                return;
            }
        }
        enqueue_ready(shared, job);
    }

    /// Block the spawning path while a §III blocking condition holds
    /// (graph-size limit or memory limit), helping run tasks meanwhile.
    #[inline]
    fn after_submit(&self) {
        // Fault-injection site: a planned forced stall turns this
        // submit into one help quantum, exactly as if a §III blocking
        // condition held. Compiles to nothing by default.
        if crate::fault::throttle_site() {
            self.shared.stats.throttle_blocks();
            let _ = self.help_once();
            self.finish_helping();
        }
        if let Some(limit) = self.shared.cfg.graph_size_limit {
            // Fast path on the cached finished lower bound: if even the
            // overestimate `spawned - seen` fits the limit, actual
            // liveness does too and the cross-shard sum is skipped.
            let spawned = self.shared.next_task.load(Ordering::Relaxed);
            let mut seen = self.finished_seen.get();
            if spawned.saturating_sub(seen) as usize > limit {
                seen = self.shared.finished_total();
                self.finished_seen.set(seen);
            }
            if spawned.saturating_sub(seen) as usize > limit {
                self.shared.stats.throttle_blocks();
                self.shared.trace_event(0, EventKind::BarrierBegin);
                // Same cached-lag drain as `barrier`: helping advances
                // the bound by one per task; an idle pass re-sums.
                while spawned.saturating_sub(seen) as usize > limit {
                    if self.help_once() {
                        seen += 1;
                    } else {
                        seen = self.shared.finished_total();
                        if spawned.saturating_sub(seen) as usize <= limit {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                self.finished_seen.set(seen);
                self.finish_helping();
                self.shared.trace_event(0, EventKind::BarrierEnd);
            }
        }
        if let Some(limit) = self.shared.cfg.memory_limit {
            // Dead parked spares are the cheapest bytes to give back:
            // reclaim them from the slab before blocking at all.
            if self.shared.live_bytes.load(Ordering::Acquire) > limit {
                self.shared.reclaim_spares(limit);
            }
            if self.shared.live_bytes.load(Ordering::Acquire) > limit {
                self.shared.stats.throttle_blocks();
                self.shared.trace_event(0, EventKind::BarrierBegin);
                // Versions retire when tasks finish and their bindings
                // drop; once no tasks are live the footprint cannot
                // shrink further, so stop blocking then (the limit is a
                // back-pressure knob, not a hard allocation cap).
                while self.shared.live_bytes.load(Ordering::Acquire) > limit
                    && self.shared.live_now() > 0
                {
                    if !self.help_once() {
                        // Helping found nothing; completions elsewhere
                        // may have killed parked spares' readers, so a
                        // reclaim pass can make progress a yield can't.
                        if self.shared.reclaim_spares(limit) == 0 {
                            std::thread::yield_now();
                        }
                    }
                }
                // Tasks the loop (or its helpers) finished may have
                // released the last reader Arcs of parked spares after
                // the final reclaim pass — sweep once more so the
                // account settles at or under the limit when possible.
                self.shared.reclaim_spares(limit);
                self.finish_helping();
                self.shared.trace_event(0, EventKind::BarrierEnd);
            }
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Drain all outstanding work, then stop the workers.
        if !std::thread::panicking() {
            self.barrier();
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.sleep.notify_all();
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.threads())
            .field("live_tasks", &self.live_tasks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskId;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// A stamping body: writes the next tick of `clock` into `slot`.
    fn stamp(clock: &Arc<AtomicU64>, slot: &Arc<AtomicU64>) -> impl FnOnce() + Send + 'static {
        let (clock, slot) = (Arc::clone(clock), Arc::clone(slot));
        move || slot.store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst)
    }

    /// The main thread's one private slot is the deferred completion
    /// hand-off, and `help_once` consumes it before anything published:
    /// the hand-off first (counted as one), then the own list (LIFO),
    /// then the main list (FIFO) — the §III order behind the hand-off.
    #[test]
    fn help_once_drains_stash_before_the_handoff() {
        // One thread: no worker can take the queued tasks first.
        let rt = Runtime::builder().threads(1).build();
        let clock = Arc::new(AtomicU64::new(1));
        let ran: Vec<_> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let jobs: Vec<_> = ran
            .iter()
            .zip(1u64..)
            .map(|(slot, id)| {
                let job = TaskNode::new(TaskId(id), "private", Priority::Normal);
                job.install_body(stamp(&clock, slot));
                job
            })
            .collect();
        {
            let mut ctx = rt.main_ctx.borrow_mut();
            ctx.pending = Some(Arc::clone(&jobs[0]));
            ctx.local.push(Arc::clone(&jobs[1]));
        }
        rt.shared.main_q.push(Arc::clone(&jobs[2]));
        drop(jobs);
        for _ in 0..3 {
            assert!(rt.help_once(), "three private tasks are waiting");
        }
        let order: Vec<u64> = ran.iter().map(|r| r.load(Ordering::SeqCst)).collect();
        assert_eq!(
            order,
            vec![1, 2, 3],
            "hand-off, then own list, then main list"
        );
        assert_eq!(rt.stats().handoffs, 1);
    }

    /// A producer a writer displaces goes back to the node pool only
    /// once it has finished. At `threads(1)` without a throttle every
    /// task waits for the barrier: the spawn after a queued producer was
    /// displaced allocates, and after the barrier the next spawn reuses
    /// the finished producer the previous writer displaced. Values and
    /// the recorded graph are the sequential program's.
    #[test]
    fn a_displaced_producer_is_reused_once_it_has_finished() {
        use crate::graph::record::EdgeKind;
        let rt = Runtime::builder().threads(1).record_graph(true).build();
        let x = rt.data(1u64);
        let bump = |k: u64| {
            let mut sp = rt.task("bump");
            let mut w = sp.inout(&x);
            sp.submit(move || *w.get_mut() = *w.get_mut() * 10 + k);
        };
        let producer = || Arc::as_ptr(x.obj.state.lock().current.producer.as_ref().unwrap());
        bump(1);
        let t1 = producer();
        bump(2); // displaces task 1 while it is queued
        bump(3);
        assert_ne!(
            producer(),
            t1,
            "a queued producer's node is never handed out"
        );
        assert_eq!(rt.stats().node_pool_hits, 0);
        let t3 = producer();
        rt.barrier();
        assert_eq!(rt.read(&x), 1_123);
        bump(4); // displaces the finished task 3
        bump(5);
        assert_eq!(
            producer(),
            t3,
            "the next spawn reuses the displaced, finished producer"
        );
        assert_eq!(rt.stats().node_pool_hits, 2);
        rt.barrier();
        assert_eq!(rt.read(&x), 112_345);
        let chain: Vec<_> = (1..5)
            .map(|i| (TaskId(i), TaskId(i + 1), EdgeKind::True))
            .collect();
        assert_eq!(rt.graph().unwrap().edges(), &chain[..]);
    }

    /// A cheap site one outlier sample evicted comes back through the
    /// spawner's own timed runs of it, although the spawner runs nothing
    /// else and the workers' samples of it no longer count.
    #[test]
    fn an_evicted_cheap_site_comes_back_through_the_spawner() {
        use crate::sched::cost::SAMPLE_EVERY;
        const SITE: &str = "blip";
        let rt = Runtime::builder().threads(2).build();
        let costs = rt.shared.inline_costs().expect("two threads, one spawner");
        let storm = |n: u32| {
            for _ in 0..n {
                rt.task(SITE).submit(|| {});
            }
        };
        let t0 = Instant::now();
        while !costs.is_cheap(SITE) {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "the site never measured cheap"
            );
            storm(64);
            rt.barrier();
        }
        costs.record(SITE, 50_000, true);
        assert!(!costs.is_cheap(SITE) && costs.is_watched(SITE));
        let before = rt.stats().inline_runs;
        let mut periods = 0;
        while !costs.is_cheap(SITE) {
            assert!(periods < 64, "the evicted site never came back");
            storm(SAMPLE_EVERY);
            periods += 1;
        }
        rt.barrier();
        assert!(
            rt.stats().inline_runs > before,
            "the spawner timed it inline"
        );
    }

    /// High-priority work preempts the deferred hand-off: with a live
    /// HP task, `help_once` demotes the hand-off to the own list, so the
    /// HP task runs first and the demoted task is not counted as a
    /// hand-off.
    #[test]
    fn high_priority_preempts_stash_and_handoff() {
        let rt = Runtime::builder().threads(1).build();
        let clock = Arc::new(AtomicU64::new(1));
        let pending_ran = Arc::new(AtomicU64::new(0));
        let hp_ran = Arc::new(AtomicU64::new(0));
        let pending_job = TaskNode::new(TaskId(1), "handoff", Priority::Normal);
        pending_job.install_body(stamp(&clock, &pending_ran));
        let hp_job = TaskNode::new(TaskId(2), "urgent", Priority::Normal);
        hp_job.set_high_priority();
        hp_job.install_body(stamp(&clock, &hp_ran));
        rt.main_ctx.borrow_mut().pending = Some(pending_job);
        rt.shared.hp_used.store(true, Ordering::Relaxed);
        rt.shared.hp.push(hp_job);
        assert!(rt.help_once());
        assert_eq!(
            hp_ran.load(Ordering::SeqCst),
            1,
            "HP first, the hand-off waits"
        );
        assert!(rt.help_once());
        assert_eq!(pending_ran.load(Ordering::SeqCst), 2);
        assert_eq!(
            rt.stats().handoffs,
            0,
            "a demoted hand-off is an own-list pop"
        );
    }
}
