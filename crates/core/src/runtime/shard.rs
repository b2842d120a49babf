//! Analysis lanes: lane gates, lane caches and [`Submitter`]s.
//!
//! SMPSs runs all dependency analysis on the single master thread, and
//! the bench trajectory hit exactly that wall: task_storm throughput is
//! flat from t1 to t8 because every spawn serialises through one
//! `SpawnerCell` universe. This module shards the analysis across N
//! **lanes** keyed by a hash of the object id (for region handles, the
//! id of the region representant object): each lane owns the
//! `SpawnerCell` universes of the objects that hash to it, a free stack
//! of recycled task nodes, and its share of the region frontiers, so
//! multiple [`Submitter`] threads can run analysis concurrently.
//!
//! Every spawning thread draws nodes and links from one `LaneCache`:
//! the runtime's main thread from lane 0's, each submitter (and so each
//! [`Session`](crate::Session), which is a submitter plus admission)
//! from its own lane's.
//!
//! Three properties keep this sound without adding locks anywhere hot:
//!
//! * **Per-object exclusion** comes from the `LaneGate`: a one-word
//!   CAS spin gate entered for the duration of one parameter's analysis.
//!   It is the sharded generalisation of the `SpawnerCell` tripwire —
//!   the cell's busy-flag assertion still fires if the gate discipline
//!   is ever broken. (This file is covered by the same no-mutex test,
//!   `tests/lock_free_sources.rs`, as the completion path and the deque
//!   shim.)
//! * **Cross-shard edges need no new machinery**: the analyser counts a
//!   dependency *before* CAS-publishing the successor link
//!   (`add_successor_with`, Release), and the completion side walks the
//!   stack with one AcqRel swap — the exact protocol that already made
//!   spawner-vs-worker races safe makes submitter-vs-submitter and
//!   submitter-vs-worker races safe too.
//! * **Cross-lane renamed-bytes accounting folds into the throttle**:
//!   every lane's renames account into the same `Shared::live_bytes`
//!   atomic (AcqRel tickets), and every submitter's post-submit
//!   throttle watches that shared counter plus the shared live-task
//!   count, so the §III blocking conditions bound the whole fleet, not
//!   one lane.
//!
//! Until the first submitter or session exists none of the gating is
//! on the hot path, whatever the shard count: the runtime's own spawn
//! path keeps its single-writer counters and takes no gate (see
//! `Runtime::latch_spawners`); the graph-equality proptests
//! (`tests/shard_semantics.rs`) pin every shard count bit-for-bit
//! against it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::graph::node::{self, SpareRing, SuccNode, TaskNode};
use crate::ids::{ObjectId, TaskId};
use crate::padded::CachePadded;
use crate::runtime::session::SessionCtl;
use crate::runtime::spawner::{SpawnHost, TaskSpawner};
use crate::runtime::{Priority, Runtime, Shared};
use crate::sched::queues::{Backoff, Job};
use crate::sched::worker::enqueue_ready;

/// The lane owning object `id`: a Fibonacci-hash spread of the (small,
/// sequential) object ids over `lanes` buckets, so neighbouring objects
/// land on different lanes instead of striding through one.
#[inline]
pub(crate) fn lane_of(id: ObjectId, lanes: usize) -> usize {
    (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) % lanes as u64) as usize
}

/// A one-word spin gate serialising entry to one lane's `SpawnerCell`
/// universe. Not a general-purpose primitive: hold times are one
/// parameter's analysis (a few dozen nanoseconds), contention is
/// hash-spread across lanes, and the analyser never nests two gates —
/// so a CAS with [`Backoff`] beats parking machinery and keeps this
/// module greppably free of blocking primitives.
pub(crate) struct LaneGate {
    busy: CachePadded<AtomicBool>,
}

impl LaneGate {
    pub(crate) fn new() -> Self {
        LaneGate {
            busy: CachePadded::new(AtomicBool::new(false)),
        }
    }

    /// Spin until this thread owns the lane. The Acquire success
    /// ordering pairs with the Release in [`LaneEntry::drop`], so
    /// everything the previous owner did to the lane's objects
    /// happened-before this entry.
    #[inline]
    pub(crate) fn enter(&self) -> LaneEntry<'_> {
        let mut backoff = Backoff::new();
        while self
            .busy
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            backoff.snooze();
        }
        LaneEntry { gate: self }
    }
}

/// Exclusive occupancy of one lane; releases on drop.
pub(crate) struct LaneEntry<'a> {
    gate: &'a LaneGate,
}

impl Drop for LaneEntry<'_> {
    #[inline]
    fn drop(&mut self) {
        self.gate.busy.store(false, Ordering::Release);
    }
}

impl Shared {
    /// Enter the lane owning object `id`.
    #[inline]
    pub(crate) fn lane_enter(&self, id: ObjectId) -> LaneEntry<'_> {
        self.lanes[lane_of(id, self.lanes.len())].enter()
    }
}

/// Upper bound on a lane cache's nodes; everything beyond it is dropped
/// at drain time (the pool should hold about one throttle window's
/// worth of nodes, not the whole program).
const NODE_CACHE_MAX: usize = 4096;

/// Upper bound on a lane cache's spare successor links (same rationale
/// as [`NODE_CACHE_MAX`]; a link is 16 bytes): the links of a full node
/// cache at four edges per task, about what region and flood tasks
/// link. A cap of one link per cached node freed most of the links a
/// 1 Mi multisort harvests and made it allocate them again.
const LINK_CACHE_MAX: usize = 4 * NODE_CACHE_MAX;

/// One spawning thread's recycled task nodes and spare successor links,
/// for analysis lane `lane`. The [`Runtime`] owns lane 0's; every
/// [`Submitter`] owns one for its lane. `RefCell` keeps both owners
/// `!Sync`: one thread spawns through a cache.
///
/// With it, steady-state spawning allocates and frees **nothing**:
/// nodes cycle spawn → completion → the home lane's free stack
/// (`Shared::recycle_node`) → this cache, and links cycle spawn →
/// successor stack → completion stash (`TaskNode::spare_links`) →
/// spliced in here when the node is reused. Nodes an owner lets go of —
/// a task it ran, a producer a writer displaced, a producer, entry or
/// join the region frontier dropped — come straight back through
/// [`cache_node`](Self::cache_node), and region joins are drawn from the
/// same nodes.
pub(crate) struct LaneCache {
    shared: Arc<Shared>,
    lane: usize,
    nodes: RefCell<Vec<Arc<TaskNode>>>,
    links: RefCell<SpareRing>,
}

impl LaneCache {
    pub(crate) fn new(shared: Arc<Shared>, lane: usize) -> LaneCache {
        LaneCache {
            shared,
            lane,
            nodes: RefCell::new(Vec::new()),
            links: RefCell::new(SpareRing::EMPTY),
        }
    }

    /// The shared runtime state this cache's lane belongs to.
    #[inline]
    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Obtain a task node: a recycled one when possible, else a fresh
    /// allocation. Either way it is stamped with this lane, so its
    /// completion recycles it back here wherever the task runs (nodes a
    /// helping main thread ran, or producers a writer displaced, may
    /// have been born on any lane). A node the free stack handed over
    /// may still be pinned as an object's producer; such a candidate is
    /// dropped here and comes back when a later writer displaces it.
    #[inline]
    pub(crate) fn acquire_node(&self, id: TaskId, name: &'static str) -> Arc<TaskNode> {
        let node = match self.reuse(|n| n.reset_for_reuse(id, name, Priority::Normal)) {
            Some(node) => {
                self.shared.stats.node_pool_hits();
                node
            }
            None => TaskNode::new(id, name, Priority::Normal),
        };
        node.set_home(self.lane);
        node
    }

    /// Obtain a join node for `consumer`'s session, recycled when
    /// possible. Joins are not tasks: a reused one is not counted as a
    /// pool hit.
    pub(crate) fn acquire_join(&self, consumer: &TaskNode) -> Arc<TaskNode> {
        let join = self
            .reuse(|n| n.reset_as_join(consumer))
            .unwrap_or_else(|| TaskNode::new_join(consumer));
        join.set_home(self.lane);
        join
    }

    /// Pop cached nodes until one is exclusively ours, harvest its
    /// spare links and `reset` it.
    #[inline]
    fn reuse(&self, reset: impl FnOnce(&mut TaskNode)) -> Option<Arc<TaskNode>> {
        let mut nodes = self.nodes.borrow_mut();
        if nodes.is_empty() {
            self.drain_free_stack(&mut nodes);
        }
        loop {
            let mut node = nodes.pop()?;
            if let Some(n) = exclusive_node_mut(&mut node) {
                self.harvest(n.take_spare_links());
                reset(n);
                return Some(node);
            }
        }
    }

    /// Keep a node the owner is done with — a task the main thread just
    /// ran, a producer a writer displaced, or a node the region frontier
    /// dropped — if it is the node's last reference and the cache has
    /// room; drop it otherwise. Such a node skips the shared free stack.
    /// Caching a node still pinned as an object's producer would only
    /// make the next acquire pop and drop it; it comes back through this
    /// same call when a writer displaces it. A node pinned elsewhere
    /// (a reader list, a region frontier entry) is freed by whichever
    /// holder drops it last. The count is only a filter:
    /// [`exclusive_node_mut`] proves exclusivity again, with its fence,
    /// when the node is reused.
    #[inline]
    pub(crate) fn cache_node(&self, node: Arc<TaskNode>) {
        let mut nodes = self.nodes.borrow_mut();
        if Arc::strong_count(&node) == 1 && nodes.len() < NODE_CACHE_MAX {
            nodes.push(node);
        }
    }

    /// A spare successor link for the analyser: recycled when one is
    /// cached, freshly allocated otherwise.
    #[inline]
    pub(crate) fn acquire_link(&self) -> *mut SuccNode {
        self.links
            .borrow_mut()
            .pop()
            .unwrap_or_else(node::alloc_link)
    }

    /// Return an unused spare link (the producer had already finished,
    /// so no edge was stored).
    pub(crate) fn release_link(&self, link: *mut SuccNode) {
        let mut links = self.links.borrow_mut();
        if links.len() < LINK_CACHE_MAX {
            // SAFETY: the link is spare and exclusively ours.
            unsafe { links.push(link) };
        } else {
            // SAFETY: as above.
            unsafe { node::free_link(link) };
        }
    }

    /// Splice a reused node's spare-link ring into the link cache in
    /// O(1) while the cache is under [`LINK_CACHE_MAX`] (so it holds at
    /// most one ring more); a ring that finds the cache full is dropped,
    /// which frees it. The exclusivity proof for the node covers the
    /// ring: the completing thread stashed it before pushing the node.
    fn harvest(&self, ring: SpareRing) {
        let mut links = self.links.borrow_mut();
        if links.len() < LINK_CACHE_MAX {
            links.splice(ring);
        }
    }

    /// Detach this lane's whole free stack into `nodes` (newest first).
    /// The Acquire swap pairs with the Release pushes in
    /// `Shared::recycle_node`, so every completing thread's writes to a
    /// popped node happened-before this thread reads it.
    fn drain_free_stack(&self, nodes: &mut Vec<Arc<TaskNode>>) {
        let mut p = self.shared.free_nodes[self.lane].swap(std::ptr::null_mut(), Ordering::Acquire);
        while !p.is_null() {
            // SAFETY: the swap made this thread the chain's unique
            // owner; each raw pointer was produced by `Arc::into_raw`.
            let next = unsafe { (*p).free_next.load(Ordering::Relaxed) };
            let node = unsafe { Arc::from_raw(p) };
            if nodes.len() < NODE_CACHE_MAX {
                nodes.push(node);
            }
            p = next;
        }
    }
}

impl Drop for LaneCache {
    fn drop(&mut self) {
        // Hand cached nodes back to their lane's free stack (a later
        // cache on the lane reuses them; `Shared`'s Drop frees whatever
        // remains). The spare links, which only this cache ever owned,
        // are freed with its ring.
        for n in self.nodes.get_mut().drain(..) {
            self.shared.recycle_node(n);
        }
    }
}

/// Exclusive access to a pooled node, or `None` if it is still
/// referenced elsewhere. This is `Arc::get_mut` minus the weak-count
/// lock round-trip (two RMWs on the per-spawn critical path):
///
/// - `strong_count == 1` means this `Arc` is the only strong handle, and
///   since we hold it, no thread can mint another;
/// - the crate never creates a `Weak<TaskNode>` (the only raw pointers —
///   the free-stack links — are strong references converted with
///   `into_raw`/`from_raw`), so there is no weak upgrade to race with;
///   the debug assert keeps that invariant honest;
/// - the Acquire fence pairs with the Release decrement of the last
///   dropped clone, ordering that thread's final accesses before ours.
fn exclusive_node_mut(node: &mut Arc<TaskNode>) -> Option<&mut TaskNode> {
    if Arc::strong_count(node) == 1 {
        debug_assert_eq!(Arc::weak_count(node), 0, "Weak<TaskNode> must never exist");
        std::sync::atomic::fence(Ordering::Acquire);
        // SAFETY: sole strong owner, no weak refs (above); `&mut Arc`
        // guarantees no concurrent use of this handle.
        Some(unsafe { &mut *(Arc::as_ptr(node) as *mut TaskNode) })
    } else {
        None
    }
}

/// One dependency-analysis lane of a runtime, handed out by
/// [`Runtime::submitters`]. A `Submitter` is `Send` but not `Sync`:
/// move each one onto its own thread and spawn through
/// [`task`](Self::task) exactly as through [`Runtime::task`] — the
/// analysis sequence, renaming decisions and recorded graph are
/// identical (the shard-equality proptests pin this), only the spawn
/// counters turn into RMWs and every object access goes through its
/// lane's gate.
///
/// A submitter may touch **any** object, not just those hashing to its
/// own lane — the gate keyed by the object's lane settles cross-shard
/// accesses. The lane index chooses which node pool feeds this
/// submitter's spawns (nodes are stamped with their home lane and
/// recycle back to it), so steady-state multi-submitter spawning stays
/// allocation-free, per lane, exactly as the single spawner's was.
///
/// Submitters do not run tasks. A sharded runtime should keep
/// `threads >= 2` when a §III blocking condition is configured: the
/// submitter-side throttle waits for workers to drain the graph rather
/// than helping (it has no scheduling context to help with).
pub struct Submitter {
    cache: LaneCache,
    /// The session this lane spawns for, when it is a
    /// [`Session`](crate::Session)'s: every acquired node is stamped
    /// with it, and renamed versions are attributed to it.
    session: Option<Arc<SessionCtl>>,
    /// Chunked pre-payment against `Shared::live_bytes`: this lane's
    /// renames are covered from a local surplus instead of one global
    /// RMW each. The surplus is returned when the lane hits the memory
    /// throttle and — crucially — by `ByteCredit`'s Drop, so a
    /// submitter dropped mid-graph never leaks its debt in the global
    /// throttle account (pinned by the regression test below).
    pub(crate) credit: crate::data::version::ByteCredit,
}

impl Submitter {
    /// One lane of `shared`'s sharded analysis, spawning for `session`
    /// when given (crate-internal: sessions open their lane through
    /// this same constructor).
    pub(crate) fn new_lane(
        shared: Arc<Shared>,
        lane: usize,
        session: Option<Arc<SessionCtl>>,
    ) -> Submitter {
        let credit = crate::data::version::ByteCredit::new(Arc::clone(&shared.live_bytes));
        Submitter {
            cache: LaneCache::new(shared, lane),
            session,
            credit,
        }
    }

    /// This submitter's lane index (`0..shards`).
    pub fn lane(&self) -> usize {
        self.cache.lane
    }

    /// Begin a task invocation on this lane. Same contract as
    /// [`Runtime::task`](crate::Runtime::task).
    #[inline]
    pub fn task(&self, name: &'static str) -> TaskSpawner<'_, Submitter> {
        TaskSpawner::new(self, name)
    }

    /// Has any task failed (body panicked) or been cancelled since the
    /// runtime's last [`wait_all`](Runtime::wait_all) drain? One Relaxed
    /// flag load — a producer thread can probe this per submission to
    /// stop feeding a graph whose downstream already died, without
    /// waiting for the main thread's barrier. The payloads stay with
    /// [`wait_all`](Runtime::wait_all); this is only the tripwire.
    #[inline]
    pub fn has_failures(&self) -> bool {
        self.shared().faulted()
    }
}

impl SpawnHost for Submitter {
    #[inline]
    fn lane_cache(&self) -> &LaneCache {
        &self.cache
    }

    #[inline]
    fn next_task_id(&self) -> TaskId {
        // Concurrent spawners: the id counter must be an RMW. This is
        // the one globally-contended atomic on the sharded spawn path.
        TaskId(self.shared().next_task.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Publish a born-ready task. A submitter never runs tasks, so
    /// everything goes through the public routes: the HP list or the
    /// main list, with the usual empty-transition wake.
    #[inline]
    fn publish_born_ready(&self, job: Job) {
        enqueue_ready(self.shared(), job);
    }

    /// The submitter-side §III throttle: watch the same shared live-task
    /// count and renamed-bytes counter as the runtime's throttle — this
    /// is where cross-lane renamed-bytes accounting folds together —
    /// but *wait* for the workers instead of helping (a submitter has
    /// no worker context).
    fn after_submit(&self) {
        let shared = self.shared();
        if let Some(limit) = shared.cfg.graph_size_limit {
            if shared.live_now() > limit {
                shared.stats.throttle_blocks();
                while shared.live_now() > limit {
                    std::thread::yield_now();
                }
            }
        }
        if let Some(limit) = shared.cfg.memory_limit {
            if shared.live_bytes.load(Ordering::Acquire) > limit && shared.live_now() > 0 {
                // About to wait on the account: return this lane's
                // un-spent surplus first, so the wait watches true live
                // bytes rather than our own pre-payment — then give the
                // version slab a chance to free dead parked spares
                // before blocking at all.
                self.credit.release();
                shared.reclaim_spares(limit);
                if shared.live_bytes.load(Ordering::Acquire) > limit && shared.live_now() > 0 {
                    shared.stats.throttle_blocks();
                    while shared.live_bytes.load(Ordering::Acquire) > limit && shared.live_now() > 0
                    {
                        // Completions may have killed the last readers
                        // of parked spares; a reclaim pass frees bytes
                        // a bare yield would keep waiting on.
                        if shared.reclaim_spares(limit) == 0 {
                            std::thread::yield_now();
                        }
                    }
                }
            }
        }
    }

    #[inline]
    fn lane_enter(&self, id: ObjectId) -> Option<LaneEntry<'_>> {
        Some(self.shared().lane_enter(id))
    }

    /// Renamed-version tickets minted on this lane charge its byte
    /// credit (chunked pre-payment) and, on a session's lane, carry the
    /// session attribution, so the renamed-bytes quota tracks exactly
    /// the versions this tenant forced into existence. The session is
    /// also what `TaskSpawner::new` stamps on every node it acquires.
    #[inline]
    fn ticket_charge(&self) -> crate::data::version::TicketCharge<'_> {
        crate::data::version::TicketCharge {
            credit: Some(&self.credit),
            sess: self.session.as_ref(),
        }
    }
}

impl Runtime {
    /// Hand out one [`Submitter`] per analysis lane. Requires a sharded
    /// runtime (`RuntimeBuilder::shards(n)` with `n >= 2`); the
    /// `shards(1)` default keeps the paper's single-spawner model, where
    /// only the runtime itself analyses.
    ///
    /// The runtime's own spawn path stays usable alongside the
    /// submitters: from the first call on it gates object accesses like
    /// any lane and mints ids with an RMW. [`barrier`](Runtime::barrier)
    /// re-reads the spawn count as it drains — call it after the
    /// submitter threads have finished (or been joined) for a full
    /// quiesce.
    pub fn submitters(&self) -> Vec<Submitter> {
        let shards = self.shared.cfg.shards;
        assert!(
            shards >= 2,
            "submitters() requires a sharded runtime: RuntimeBuilder::shards(n) with n >= 2"
        );
        self.latch_spawners(super::CONCURRENT);
        (0..shards)
            .map(|lane| Submitter::new_lane(Arc::clone(&self.shared), lane, None))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sharded analysis path must add no blocking primitive: lane
    /// exclusion is the CAS gate, cross-shard edges ride the existing
    /// lock-free successor protocol. Same runtime-assembled needles as
    /// the completion-path gate, so this test does not match itself.
    #[test]
    fn shard_module_contains_no_mutex() {
        let source = include_str!("shard.rs");
        let needles = [["Mu", "tex"].concat(), [".lo", "ck()"].concat()];
        for needle in &needles {
            assert_eq!(
                source.matches(needle.as_str()).count(),
                0,
                "the sharded analysis path must stay lock-free (found {:?})",
                needle
            );
        }
    }

    #[test]
    fn lane_hash_is_stable_and_in_range() {
        for lanes in [1usize, 2, 7, 64] {
            for id in 0..1000u64 {
                let l = lane_of(ObjectId(id), lanes);
                assert!(l < lanes);
                assert_eq!(l, lane_of(ObjectId(id), lanes), "deterministic");
            }
        }
        // One lane degenerates to lane 0 for every object.
        assert!((0..100).all(|id| lane_of(ObjectId(id), 1) == 0));
    }

    #[test]
    fn lane_gate_excludes_and_releases() {
        let gate = LaneGate::new();
        {
            let _e = gate.enter();
            assert!(gate.busy.load(Ordering::Relaxed));
        }
        assert!(!gate.busy.load(Ordering::Relaxed), "drop releases");
        // Re-enterable after release.
        let _e = gate.enter();
        assert!(gate.busy.load(Ordering::Relaxed));
    }

    #[test]
    fn lane_gate_serialises_two_threads() {
        use std::sync::atomic::AtomicUsize;
        let gate = Arc::new(LaneGate::new());
        let in_crit = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            let in_crit = Arc::clone(&in_crit);
            joins.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    let _e = gate.enter();
                    let seen = in_crit.fetch_add(1, Ordering::AcqRel);
                    assert_eq!(seen, 0, "two threads inside one lane");
                    in_crit.fetch_sub(1, Ordering::AcqRel);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "requires a sharded runtime")]
    fn submitters_require_sharding() {
        let rt = Runtime::builder().threads(1).build();
        let _ = rt.submitters();
    }

    /// Submitters are Send (one per producer thread is the intended
    /// topology); compile-time pin.
    #[test]
    fn submitter_is_send() {
        fn require_send<T: Send>() {}
        require_send::<Submitter>();
    }

    /// Regression: a `Submitter` dropped mid-graph with un-returned
    /// byte-credit surplus must hand the debt back to the global
    /// throttle account — `live_bytes` may only count live version
    /// tickets once no lane holds a credit. The rename parks the
    /// displaced version in the slab, where its ticket stays charged
    /// until the slab lets it go.
    #[test]
    fn dropped_submitter_returns_byte_credit_debt() {
        const BYTES: usize = 1024;
        let rt = Runtime::builder().threads(2).shards(2).build();
        let h = rt.data_sized(vec![0u8; BYTES], BYTES, || vec![0u8; BYTES]);
        let gate = Arc::new(AtomicBool::new(false));
        let subs = rt.submitters();
        {
            // Producer that stays unfinished until the gate opens, so
            // the next write sees a non-quiescent current version.
            let g = Arc::clone(&gate);
            let mut t = subs[0].task("blocker");
            let mut w = t.write(&h);
            t.submit(move || {
                let _ = w.get_mut();
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        }
        {
            // Forced rename: the fresh version's ticket is covered by
            // lane 0's credit, leaving a chunk surplus behind.
            let mut t = subs[0].task("renamer");
            let mut w = t.write(&h);
            t.submit(move || {
                let _ = w.get_mut();
            });
        }
        let surplus = subs[0].credit.surplus();
        assert!(surplus > 0, "a fresh rename must leave lane surplus");
        // The gate stays shut until after the check: a blocker finishing
        // in between would release the displaced version's bytes too.
        let before = rt.shared.live_bytes.load(Ordering::Acquire);
        drop(subs);
        assert_eq!(
            rt.shared.live_bytes.load(Ordering::Acquire),
            before - surplus,
            "dropping the submitters must return exactly the surplus"
        );
        assert_eq!(
            rt.shared.live_bytes.load(Ordering::Acquire),
            2 * BYTES,
            "the current version and the displaced one parked in the slab"
        );
        gate.store(true, Ordering::Release);
        rt.barrier();
        // The blocker's binding has dropped: the parked version is dead,
        // still charged, and the slab's reclaim is what returns it.
        assert_eq!(rt.stats().slab_parked_bytes, BYTES as u64);
        assert_eq!(rt.shared.live_bytes.load(Ordering::Acquire), 2 * BYTES);
        assert_eq!(rt.shared.reclaim_dead_spares(usize::MAX), BYTES);
        assert_eq!(rt.shared.live_bytes.load(Ordering::Acquire), BYTES);
    }
}
