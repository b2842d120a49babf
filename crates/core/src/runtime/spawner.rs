//! Task invocation: dependency collection and submission.
//!
//! A [`TaskSpawner`] is what one `#pragma css task` call site expands to:
//! it creates the graph node, runs the dependency analyser once per
//! parameter **in declaration order** (the order the paper's compiler
//! emits), and finally installs the body and releases the task to the
//! scheduler. The `task_def!` macro generates this sequence; the builder
//! API is public for region-based and dynamic call sites.
//!
//! Every cycle here sits on the §III serial generation path, so the
//! spawner leans on the spawn-side fast path: the node comes from the
//! recycling pool, the body is installed inline in the node (no box for
//! ordinary closures), `submit` moves the node into the ready queue
//! without a spare refcount round-trip, and the `renaming`/`record_graph`
//! configuration is cached as plain bools so the per-parameter analyser
//! never chases shared state for them.
//!
//! ## Spawn hosts
//!
//! The spawner is generic over **who** is running the analysis: the
//! [`Runtime`] itself — the paper's single master thread, with
//! single-writer counters, inline runs and no gate until a session
//! opens — or a [`Session`](crate::Session), the one way for another
//! thread to spawn. These two are the only hosts. Each draws nodes and
//! links from its own lane cache, so the pool code exists once. Id
//! minting and the analysis gate follow the runtime's spawner mode
//! alone, so both hosts share them. A host supplies only what differs:
//! the born-ready publication route (the main thread may run a cheap
//! task inline), the post-submit blocking condition, and the ticket
//! charge, which on a session also names the session every acquired
//! node is stamped with. The analysis sequence itself is identical,
//! which is what the graph-equality proptests pin.

use std::mem::ManuallyDrop;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::data::object::Handle;
use crate::data::region::Region;
use crate::data::region_handle::{RegionData, RegionHandle, RegionReadBinding, RegionWriteBinding};
use crate::data::version::{ReadBinding, TicketCharge, WriteBinding};
use crate::data::TaskData;
use crate::dep;
use crate::graph::node::TaskNode;
use crate::graph::record::{EdgeKind, NodeInfo};
use crate::ids::TaskId;
use crate::runtime::shard::{LaneCache, LaneEntry};
use crate::runtime::{Runtime, Shared};
use crate::sched::queues::Job;
use crate::sched::worker::enqueue_ready;
use crate::stats::Stats;
use crate::trace::EventKind;

/// A thread that may run dependency analysis: the [`Runtime`] (the
/// paper's single master thread) or a [`Session`](crate::Session). The
/// host decides how a born-ready task is published, what the
/// post-submit blocking condition looks like and how renamed versions
/// are charged; its lane cache feeds the spawn.
pub(crate) trait SpawnHost {
    /// Where this host's spawns get nodes and links, and where the
    /// producers its analyser displaces go back.
    fn lane_cache(&self) -> &LaneCache;
    /// The shared runtime state this host spawns into.
    #[inline]
    fn shared(&self) -> &Shared {
        self.lane_cache().shared()
    }
    /// Mint the next task id (1-based invocation order). While the
    /// main thread is the only spawner (`Runtime: !Sync` pins it to one
    /// thread) a load+store avoids a locked RMW per task; once sessions
    /// may spawn beside it, the id counter is an RMW. A session exists
    /// only after the latch, so it always takes the RMW.
    #[inline]
    fn next_task_id(&self) -> TaskId {
        let shared = self.shared();
        if shared.sessions_used() {
            TaskId(shared.next_task.fetch_add(1, Ordering::Relaxed) + 1)
        } else {
            let next = shared.next_task.load(Ordering::Relaxed) + 1;
            shared.next_task.store(next, Ordering::Relaxed);
            TaskId(next)
        }
    }
    /// Publish a task that is ready at submit time. By default through
    /// the public routes — the HP list or the main list, with the usual
    /// wake — which is all a session does: it never runs tasks.
    #[inline]
    fn publish_born_ready(&self, job: Job) {
        enqueue_ready(self.shared(), job);
    }
    /// Run the §III blocking conditions after a submit.
    fn after_submit(&self);
    /// Enter the analysis gate once sessions may be analysing
    /// concurrently. Until then (and forever on a runtime that opens
    /// none) this is one load and no RMW: the main thread is the only
    /// spawner, exactly the paper's model.
    #[inline]
    fn lane_enter(&self) -> Option<LaneEntry<'_>> {
        let shared = self.shared();
        shared.sessions_used().then(|| shared.lane.enter())
    }
    /// How the renamer's fresh version tickets are charged: credit
    /// pre-payment and/or session attribution. The default is the exact
    /// per-mint accounting of the single master thread.
    #[inline]
    fn ticket_charge(&self) -> TicketCharge<'_> {
        TicketCharge::NONE
    }
}

/// One in-flight task invocation. Create with
/// [`Runtime::task`](crate::Runtime::task) (or
/// [`Session::task`](crate::Session::task) on another thread);
/// consume with [`submit`](Self::submit). Dropping a spawner without
/// submitting is a programming error and panics (the node already
/// exists in the graph).
#[allow(private_bounds)]
pub struct TaskSpawner<'rt, H: SpawnHost = Runtime> {
    rt: &'rt H,
    /// `ManuallyDrop` so `submit` can move the node straight into the
    /// ready queue instead of cloning and dropping (two refcount RMWs
    /// per task otherwise). The drop guard below releases it on the
    /// not-submitted error path.
    node: ManuallyDrop<Arc<TaskNode>>,
    submitted: bool,
    /// Cached `cfg.renaming` — hot in the per-parameter analyser.
    renaming: bool,
    /// Cached "structural recording is on": when false, `link` skips
    /// the graph mutex entirely.
    record: bool,
    /// Edges on which a producer retained an `Arc` to this node (i.e.
    /// `add_successor` succeeded). While this is zero, no other thread
    /// can reach the node, which lets `submit` skip the dependency-release
    /// RMW for born-ready tasks. (`Cell`: the analyser links through
    /// `&TaskSpawner`.)
    counted_edges: std::cell::Cell<usize>,
    /// Cached `cfg.on_panic == CancelDependents`: an edge linked against
    /// an already-finished **poisoned** producer must cancel this task
    /// (the completion walk only poisons successors registered before
    /// the producer finished; this covers spawn-after-failure).
    poison_new_deps: bool,
}

#[allow(private_bounds)]
impl<'rt, H: SpawnHost> TaskSpawner<'rt, H> {
    #[inline]
    pub(crate) fn new(rt: &'rt H, name: &'static str) -> Self {
        let id = rt.next_task_id();
        let node = rt.lane_cache().acquire_node(id, name);
        // A session stamps its tasks before analysis links them
        // anywhere, so the containment walk, the completion accounting
        // and the failure records all see the stamp.
        if let Some(ctl) = rt.ticket_charge().sess {
            node.set_session_ctl(Arc::as_ptr(ctl));
        }
        let shared = rt.shared();
        // Liveness accounting is free here: `next_task` *is* the spawn
        // count; only completion pays an RMW (`Shared::finished`).
        shared.stats.tasks_spawned();
        if let Some(g) = &shared.graph {
            g.lock().add_node(NodeInfo {
                id,
                name,
                high_priority: false,
            });
        }
        TaskSpawner {
            rt,
            node: ManuallyDrop::new(node),
            submitted: false,
            renaming: shared.cfg.renaming,
            record: shared.cfg.record_graph,
            counted_edges: std::cell::Cell::new(0),
            poison_new_deps: shared.cfg.on_panic == crate::config::OnPanic::CancelDependents,
        }
    }

    /// The invocation-order id of this task (1-based, as in Figure 5).
    pub fn id(&self) -> TaskId {
        self.node.id()
    }

    /// Mark this task `highpriority`.
    pub fn high_priority(&mut self) -> &mut Self {
        self.node.set_high_priority();
        if let Some(g) = &self.rt.shared().graph {
            g.lock().set_high_priority(self.node.id());
        }
        self
    }

    /// Declare an `input` parameter.
    pub fn read<T: TaskData>(&mut self, h: &Handle<T>) -> ReadBinding<T> {
        dep::read(self, h)
    }

    /// Declare an `output` parameter.
    pub fn write<T: TaskData>(&mut self, h: &Handle<T>) -> WriteBinding<T> {
        dep::write(self, h)
    }

    /// Declare an `inout` parameter.
    pub fn inout<T: TaskData>(&mut self, h: &Handle<T>) -> WriteBinding<T> {
        dep::inout(self, h)
    }

    /// Declare an `input` access to an array region (§V.A).
    pub fn read_region<T: RegionData>(
        &mut self,
        h: &RegionHandle<T>,
        region: Region,
    ) -> RegionReadBinding<T> {
        dep::read_region(self, h, region)
    }

    /// Declare an `output` access to an array region.
    pub fn write_region<T: RegionData>(
        &mut self,
        h: &RegionHandle<T>,
        region: Region,
    ) -> RegionWriteBinding<T> {
        dep::write_region(self, h, region)
    }

    /// Declare an `inout` access to an array region. The region analyser
    /// does not rename, so this is dependency-equivalent to
    /// [`write_region`](Self::write_region) but documents intent.
    pub fn inout_region<T: RegionData>(
        &mut self,
        h: &RegionHandle<T>,
        region: Region,
    ) -> RegionWriteBinding<T> {
        dep::write_region(self, h, region)
    }

    /// Install the task body and hand the task to the scheduler. If all
    /// dependencies were already satisfied the task goes to the main ready
    /// list (or the high-priority list) immediately — or, when its name's
    /// measured body cost is under 1 µs, runs on this thread before
    /// `submit` returns (see [`StatsSnapshot::inline_runs`]).
    ///
    /// [`StatsSnapshot::inline_runs`]: crate::StatsSnapshot::inline_runs
    pub fn submit<F>(mut self, body: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.node.install_body(body);
        self.rt
            .shared()
            .trace_event(0, EventKind::Spawn(self.node.id()));
        self.submitted = true;
        // SAFETY: `submitted` is set, so Drop will not touch `node`
        // again; this is the move that replaces the old clone+drop pair.
        let node = unsafe { ManuallyDrop::take(&mut self.node) };
        if self.counted_edges.get() == 0 {
            // Born ready, and no producer ever retained an Arc to this
            // node, so no other thread can touch `deps`: settle the
            // counter with a plain store and skip the release RMW.
            node.deps.store(0, Ordering::Relaxed);
            self.rt.publish_born_ready(node);
        } else if node.release_dep() {
            self.rt.publish_born_ready(node);
        }
        self.rt.after_submit();
    }

    // ---- analyser plumbing -------------------------------------------

    pub(crate) fn node(&self) -> &Arc<TaskNode> {
        &self.node
    }

    /// Hand the producer a writer just displaced from an object, or a
    /// node the region frontier let go of, back to the spawn host. While
    /// the task runs (or waits) its job holds the node too, so this only
    /// keeps nodes of finished tasks (and spent joins), and it is what
    /// lets a node pinned by an object's `producer` slot or by a region
    /// frontier return to the pool.
    pub(crate) fn release_producer(&self, displaced: Option<Arc<TaskNode>>) {
        if let Some(node) = displaced {
            self.rt.lane_cache().cache_node(node);
        }
    }

    pub(crate) fn renaming(&self) -> bool {
        self.renaming
    }

    /// Enter the analysis gate (see [`SpawnHost::lane_enter`]). The
    /// analyser takes this before touching an object's `SpawnerCell`
    /// state; with one spawner it is a single branch.
    #[inline]
    pub(crate) fn lane_enter(&self) -> Option<LaneEntry<'_>> {
        self.rt.lane_enter()
    }

    pub(crate) fn record_graph(&self) -> bool {
        self.record
    }

    /// The host's ticket-charging context for this spawn's renames.
    #[inline]
    pub(crate) fn ticket_charge(&self) -> TicketCharge<'_> {
        self.rt.ticket_charge()
    }

    pub(crate) fn stats(&self) -> &Stats {
        &self.rt.shared().stats
    }

    /// Link a dependency edge `producer -> self`, recording it structurally
    /// and counting it for scheduling if the producer is still unfinished.
    #[inline]
    pub(crate) fn link(&self, producer: &Arc<TaskNode>, kind: EdgeKind) {
        if self.record && !Arc::ptr_eq(producer, &self.node) {
            self.record_edges(&[(producer.id(), kind)]);
        }
        self.gate(producer, kind);
    }

    /// [`link`](Self::link) without the structural record, for a
    /// caller that records the edge itself.
    #[inline]
    pub(crate) fn gate(&self, producer: &Arc<TaskNode>, kind: EdgeKind) {
        // A task never depends on itself (e.g. `inout` then `input` of
        // the same handle within one invocation).
        if !Arc::ptr_eq(producer, &self.node) {
            self.count_link(kind);
            self.attach(producer);
        }
    }

    /// Record the edges `producer -> self` for each of `edges`, in order.
    fn record_edges(&self, edges: &[(TaskId, EdgeKind)]) {
        if let Some(g) = &self.rt.shared().graph {
            let mut g = g.lock();
            for &(p, k) in edges {
                g.add_edge(p, self.node.id(), k);
            }
        }
    }

    /// Link this task through a fresh **join node** standing for
    /// `members` (distinct, unfinished producers of one access, all of
    /// this task's session): each member is linked into the join once,
    /// and this task to the join, as `kind`. The recorded graph gets
    /// `recorded`, the access's expanded producer→task edges; the stats
    /// count the links made. Returns the join so the analyser can
    /// memoise it for later consumers of the same producers
    /// ([`link_join`](Self::link_join)).
    pub(crate) fn link_new_join(
        &self,
        members: &[(Arc<TaskNode>, EdgeKind)],
        kind: EdgeKind,
        recorded: &[(TaskId, EdgeKind)],
    ) -> Arc<TaskNode> {
        self.record_edges(recorded);
        let shared = self.rt.shared();
        shared.stats.joins();
        let join = self.rt.lane_cache().acquire_join(&self.node);
        // This task first, while the join's creation guard keeps it
        // unfinished: the successor link cannot fail, and if every
        // member turns out to be finished already, the join completes
        // below with this task registered but still spawn-guarded.
        self.count_link(kind);
        self.attach(&join);
        for (m, k) in members {
            self.count_link(*k);
            join.retain_dep();
            self.register(&join, m);
        }
        if join.release_dep() {
            join.complete_join(&mut |_| unreachable!("the consumer's spawn guard is held"));
        }
        join
    }

    /// Link this task to an existing (memoised) join, as `kind`.
    /// `recorded` are the expanded producer edges the join stands for,
    /// for the structural record (empty unless recording).
    pub(crate) fn link_join(
        &self,
        join: &Arc<TaskNode>,
        kind: EdgeKind,
        recorded: &[(TaskId, EdgeKind)],
    ) {
        self.record_edges(recorded);
        self.count_link(kind);
        self.attach(join);
    }

    #[inline]
    fn count_link(&self, kind: EdgeKind) {
        let stats = &self.rt.shared().stats;
        match kind {
            EdgeKind::True => stats.true_edges(),
            EdgeKind::Anti | EdgeKind::Output => stats.anti_edges(),
        }
    }

    /// Gate this task on `producer`: count the dependency, then publish
    /// the successor link (undone if the producer finished meanwhile).
    /// A producer whose successor list is already closed gates nothing:
    /// one load decides it, before `deps` or the link cache are touched,
    /// and only the spawn-after-failure cancel remains to be applied.
    #[inline]
    fn attach(&self, producer: &Arc<TaskNode>) {
        if producer.successors_closed() {
            self.inherit_poison(&self.node, producer);
            return;
        }
        // Count the dependency BEFORE publishing the successor link: the
        // producer may complete the instant `add_successor_with`
        // publishes, and its completion path must find the count already
        // in place (otherwise the task could be released twice — once by
        // the uncounted completion, once by the spawn guard). This
        // ordering is also what makes edges between spawners safe: a
        // producer another spawner analysed may be completing on a
        // worker right now, and the publication CAS (Release) is the
        // only hand-off the two sides need — no extra machinery.
        if self.counted_edges.get() == 0 {
            // First counted edge: no successor link has been published
            // yet, so no other thread can reach `deps` — the increment
            // is a plain store (guard + this edge), not an RMW. The
            // publication CAS below carries the Release edge.
            self.node.deps.store(2, Ordering::Relaxed);
        } else {
            self.node.retain_dep();
        }
        if self.register(&self.node, producer) {
            self.counted_edges.set(self.counted_edges.get() + 1);
        }
    }

    /// Publish `consumer` as a successor of `producer`, whose dependency
    /// the caller has already counted on `consumer` (under a guard that
    /// is still held). Returns whether the producer was unfinished; if
    /// not, the count is undone and a poisoned producer cancels the
    /// consumer.
    fn register(&self, consumer: &Arc<TaskNode>, producer: &Arc<TaskNode>) -> bool {
        // The link node comes from the spawner's spare-link cache (fed
        // by completed nodes), so the steady-state edge costs no
        // allocation on either side of its lifecycle.
        let cache = self.rt.lane_cache();
        let link = cache.acquire_link();
        if producer.add_successor_with(consumer, link) {
            return true;
        }
        // Producer already finished: undo. The guard is still held, so
        // this can never release the consumer.
        cache.release_link(link);
        let became_ready = consumer.release_dep();
        debug_assert!(!became_ready, "spawn guard must still be held");
        self.inherit_poison(consumer, producer);
        false
    }

    /// Spawn-after-failure: `producer` completed poisoned before an edge
    /// to `consumer` existed, so its completion walk could not reach the
    /// consumer — propagate the cancellation here. (The Acquire load
    /// that observed the closed list carries the fault stamp, which was
    /// stored before the close.) Session-scoped like the completion walk
    /// itself: a poisoned producer from *another* session never cancels
    /// the consumer.
    fn inherit_poison(&self, consumer: &TaskNode, producer: &TaskNode) {
        if self.poison_new_deps && producer.finished_poisoned() && producer.same_session(consumer) {
            consumer.request_cancel();
        }
    }
}

#[allow(private_bounds)]
impl<H: SpawnHost> std::fmt::Debug for TaskSpawner<'_, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSpawner")
            .field("id", &self.node.id())
            .field("name", &self.node.name())
            .finish()
    }
}

#[allow(private_bounds)]
impl<H: SpawnHost> Drop for TaskSpawner<'_, H> {
    fn drop(&mut self) {
        if !self.submitted {
            // SAFETY: `submit` was never reached, so the node is still
            // alive in the ManuallyDrop slot; take it exactly once.
            let node = unsafe { ManuallyDrop::take(&mut self.node) };
            let id = node.id();
            let name = node.name();
            drop(node);
            if !std::thread::panicking() {
                panic!(
                    "TaskSpawner for {:?} ({}) dropped without submit()",
                    id, name
                );
            }
        }
    }
}
