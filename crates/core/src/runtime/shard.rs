//! The analysis gate and the spawn-side lane caches.
//!
//! SMPSs runs all dependency analysis on the single master thread
//! (§III), and so does this runtime until its first
//! [`Session`](crate::Session) opens. From then on session threads
//! analyse beside the main thread, and they share one analysis lane:
//! one `LaneGate` that every spawner enters for the duration of one
//! parameter's analysis, whatever object it touches.
//!
//! Every spawning thread draws nodes and links from its own
//! `LaneCache`: the runtime's main thread from one, each session from
//! its own. Finished nodes from every cache return to the runtime's one
//! free stack.
//!
//! Three properties keep this sound without adding locks anywhere hot:
//!
//! * **Per-object exclusion** comes from the `LaneGate`: a one-word
//!   CAS spin gate. It is the concurrent generalisation of the
//!   `SpawnerCell` tripwire — the cell's busy-flag assertion still
//!   fires if the gate discipline is ever broken. (This file is covered
//!   by the same no-mutex test, `tests/lock_free_sources.rs`, as the
//!   completion path and the deque shim.)
//! * **Edges between spawners need no new machinery**: the analyser
//!   counts a dependency *before* CAS-publishing the successor link
//!   (`add_successor_with`, Release), and the completion side walks the
//!   stack with one AcqRel swap — the protocol that makes
//!   spawner-vs-worker races safe makes session-vs-session races safe
//!   too.
//! * **Renamed-bytes accounting folds into the throttle**: every
//!   spawner's renames account into the same `Shared::live_bytes`
//!   atomic (AcqRel tickets), and every session's post-submit throttle
//!   watches that shared counter plus the shared live-task count, so
//!   the §III blocking conditions bound the whole fleet.
//!
//! Until the first session opens none of the gating is on the hot
//! path: the runtime's own spawn path keeps its single-writer counters
//! and takes no gate (see `Runtime::latch_spawners`); the graph-equality
//! proptest (`tests/shard_semantics.rs`) pins the gated main thread
//! bit-for-bit against it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::graph::node::{self, SpareRing, SuccNode, TaskNode};
use crate::ids::TaskId;
use crate::padded::CachePadded;
use crate::runtime::{Priority, Shared};
use crate::sched::queues::Backoff;

/// A one-word spin gate serialising entry to the objects'
/// `SpawnerCell`s once several threads spawn. Not a general-purpose
/// primitive: hold times are one parameter's analysis (a few dozen
/// nanoseconds) and the analyser never nests it — so a CAS with
/// [`Backoff`] beats parking machinery and keeps this module greppably
/// free of blocking primitives.
pub(crate) struct LaneGate {
    busy: CachePadded<AtomicBool>,
}

impl LaneGate {
    pub(crate) fn new() -> Self {
        LaneGate {
            busy: CachePadded::new(AtomicBool::new(false)),
        }
    }

    /// Spin until this thread owns the gate. The Acquire success
    /// ordering pairs with the Release in [`LaneEntry::drop`], so
    /// everything the previous owner did to the objects it entered
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

/// Exclusive occupancy of the gate; releases on drop.
pub(crate) struct LaneEntry<'a> {
    gate: &'a LaneGate,
}

impl Drop for LaneEntry<'_> {
    #[inline]
    fn drop(&mut self) {
        self.gate.busy.store(false, Ordering::Release);
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

/// One spawning thread's recycled task nodes and spare successor links.
/// The [`Runtime`](crate::Runtime) owns one, and so does every
/// [`Session`](crate::Session). `RefCell` keeps both owners `!Sync`:
/// one thread spawns through a cache.
///
/// With it, steady-state spawning allocates and frees **nothing**:
/// nodes cycle spawn → completion → the runtime's free stack
/// (`Shared::recycle_node`) → a cache, and links cycle spawn →
/// successor stack → completion stash (`TaskNode::spare_links`) →
/// spliced in here when the node is reused. Nodes an owner lets go of —
/// a task it ran, a producer a writer displaced, a producer, entry or
/// join the region frontier dropped — come straight back through
/// [`cache_node`](Self::cache_node), and region joins are drawn from the
/// same nodes.
pub(crate) struct LaneCache {
    shared: Arc<Shared>,
    nodes: RefCell<Vec<Arc<TaskNode>>>,
    links: RefCell<SpareRing>,
}

impl LaneCache {
    pub(crate) fn new(shared: Arc<Shared>) -> LaneCache {
        LaneCache {
            shared,
            nodes: RefCell::new(Vec::new()),
            links: RefCell::new(SpareRing::EMPTY),
        }
    }

    /// The shared runtime state this cache belongs to.
    #[inline]
    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Obtain a task node: a recycled one when possible, else a fresh
    /// allocation. A node the free stack handed over may still be
    /// pinned as an object's producer; such a candidate is dropped here
    /// and comes back when a later writer displaces it.
    #[inline]
    pub(crate) fn acquire_node(&self, id: TaskId, name: &'static str) -> Arc<TaskNode> {
        match self.reuse(|n| n.reset_for_reuse(id, name, Priority::Normal)) {
            Some(node) => {
                self.shared.stats.node_pool_hits();
                node
            }
            None => TaskNode::new(id, name, Priority::Normal),
        }
    }

    /// Obtain a join node for `consumer`'s session, recycled when
    /// possible. Joins are not tasks: a reused one is not counted as a
    /// pool hit.
    pub(crate) fn acquire_join(&self, consumer: &TaskNode) -> Arc<TaskNode> {
        self.reuse(|n| n.reset_as_join(consumer))
            .unwrap_or_else(|| TaskNode::new_join(consumer))
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

    /// Detach the runtime's whole free stack into `nodes` (newest first).
    /// The Acquire swap pairs with the Release pushes in
    /// `Shared::recycle_node`, so every completing thread's writes to a
    /// popped node happened-before this thread reads it.
    fn drain_free_stack(&self, nodes: &mut Vec<Arc<TaskNode>>) {
        let mut p = self
            .shared
            .free_nodes
            .swap(std::ptr::null_mut(), Ordering::Acquire);
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
        // Hand cached nodes back to the free stack (a later cache
        // reuses them; `Shared`'s Drop frees whatever remains). The spare links, which only this cache ever owned,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::spawner::SpawnHost;
    use crate::Runtime;

    /// The gated analysis path must add no blocking primitive: object
    /// exclusion is the CAS gate, edges between spawners ride the
    /// existing lock-free successor protocol. Same runtime-assembled
    /// needles as the completion-path gate, so this test does not match
    /// itself.
    #[test]
    fn shard_module_contains_no_mutex() {
        let source = include_str!("shard.rs");
        let needles = [["Mu", "tex"].concat(), [".lo", "ck()"].concat()];
        for needle in &needles {
            assert_eq!(
                source.matches(needle.as_str()).count(),
                0,
                "the gated analysis path must stay lock-free (found {:?})",
                needle
            );
        }
    }

    /// Every spawner enters the runtime's one gate, whatever object it
    /// analyses, and the main thread enters none until a session opens.
    #[test]
    fn lane_hash_is_stable_and_in_range() {
        let rt = Runtime::builder().threads(1).build();
        assert!(rt.lane_enter().is_none(), "one spawner takes no gate");
        let s = rt.session();
        let main = rt.lane_enter().expect("a session is open");
        assert!(std::ptr::eq(main.gate, &rt.shared.lane));
        drop(main);
        let sess = s.lane_enter().expect("a session always gates");
        assert!(std::ptr::eq(sess.gate, &rt.shared.lane));
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
                    assert_eq!(seen, 0, "two threads inside the gate");
                    in_crit.fetch_sub(1, Ordering::AcqRel);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    /// The gate is what keeps two spawners out of one object's state at
    /// once. With that discipline broken, the object's `SpawnerCell`
    /// tripwire panics instead of racing.
    #[test]
    #[should_panic(expected = "concurrent object-state access")]
    fn submitters_require_sharding() {
        use crate::data::object::SpawnerCell;
        let cell = SpawnerCell::new(0u32);
        let _first = SpawnerCell::lock(&cell);
        let _second = SpawnerCell::lock(&cell);
    }

    /// A lane cache moves with its session onto the tenant's thread;
    /// compile-time pin.
    #[test]
    fn submitter_is_send() {
        fn require_send<T: Send>() {}
        require_send::<LaneCache>();
    }

    /// A session dropped mid-graph leaves the live-version account
    /// exact: its renames minted one ticket each into the runtime-wide
    /// account, so the drop has nothing to return, and the account
    /// counts exactly the live versions throughout. The rename parks
    /// the displaced version in the slab, where its ticket stays
    /// charged until the slab lets it go.
    #[test]
    fn dropped_submitter_returns_byte_credit_debt() {
        const BYTES: usize = 1024;
        let rt = Runtime::builder().threads(2).build();
        let h = rt.data_sized(vec![0u8; BYTES], BYTES, || vec![0u8; BYTES]);
        let gate = Arc::new(AtomicBool::new(false));
        let s = rt.session();
        {
            // Producer that stays unfinished until the gate opens, so
            // the next write sees a non-quiescent current version.
            let g = Arc::clone(&gate);
            let mut t = s.task("blocker").expect("no quota configured");
            let mut w = t.write(&h);
            t.submit(move || {
                let _ = w.get_mut();
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        }
        {
            // Forced rename: one fresh version, one ticket.
            let mut t = s.task("renamer").expect("no quota configured");
            let mut w = t.write(&h);
            t.submit(move || {
                let _ = w.get_mut();
            });
        }
        // The gate stays shut until after the checks: a blocker
        // finishing in between would let the displaced version die.
        let live = || rt.shared.live_bytes.load(Ordering::Acquire);
        assert_eq!(live(), 2 * BYTES, "the current and the displaced version");
        drop(s);
        assert_eq!(live(), 2 * BYTES, "dropping the session moves nothing");
        gate.store(true, Ordering::Release);
        rt.barrier();
        // The blocker's binding has dropped: the parked version is dead,
        // still charged, and the slab's reclaim is what returns it.
        assert_eq!(rt.stats().slab_parked_bytes, BYTES as u64);
        assert_eq!(live(), 2 * BYTES);
        assert_eq!(rt.shared.slab.reclaim(usize::MAX), BYTES);
        assert_eq!(live(), BYTES);
    }
}
