//! Live task-graph nodes.
//!
//! A [`TaskNode`] is created when the main program invokes a task and lives
//! until the task finishes. Dependency bookkeeping uses the *guard* pattern:
//! the node is created with `deps == 1`; the analyser increments `deps` for
//! every unfinished producer it links; submitting the task decrements the
//! guard. The task is ready exactly when `deps` reaches zero, which closes
//! the race between dependency discovery and concurrent completions.
//!
//! The node carries **no mutex**. The two pieces of shared mutable state
//! use one-shot atomic protocols instead:
//!
//! - the **body** lives in an [`UnsafeCell`] slot whose unique consumer
//!   is picked by the `PENDING -> RUNNING` state CAS in
//!   `take_body` (installation happens-before any
//!   consumer via the readiness release on `deps` and the ready-queue
//!   hand-off);
//! - the **successor list** is a lock-free linked stack
//!   (`add_successor` pushes with CAS) that
//!   `complete` closes with a swap to a sentinel,
//!   so completion publishes successors without ever blocking the
//!   spawning thread, and enqueueing happens outside any critical
//!   section.
//!
//! ## Spawn-side fast path: inline bodies and node recycling
//!
//! Two costs sat on the single spawner thread's critical serial path
//! (§III pins program scalability on its generation rate): one heap
//! allocation for the `Arc<TaskNode>` and one for the boxed body per
//! spawned task. Both are gone in steady state:
//!
//! - the body slot is a fixed `BODY_INLINE`-byte inline buffer; any
//!   closure that fits (almost every task body in this tree — a handful
//!   of bindings) is written in place with monomorphised call/drop
//!   thunks, no box. An oversized closure (the multisort's `seqmerge`,
//!   three region bindings and its indices) is written to the node's
//!   *spill block* instead, which the node keeps when it is recycled:
//!   the next big body spawned on it reuses the block.
//! - finished nodes are returned to a runtime-wide free stack through
//!   the intrusive `free_next` hook (see
//!   `Shared::recycle_node`), and producers a writer displaces from an
//!   object go back to the spawner's own cache (`runtime::shard`);
//!   the spawner proves exclusive ownership (`exclusive_node_mut`) and
//!   resets them (`reset_for_reuse`) — steady-state spawning performs
//!   **zero** allocations.
//!
//! ## Join nodes
//!
//! A **join** (`TaskNode::new_join`) is a bodiless node the region
//! analyser puts between a wide set of producers and their consumers:
//! the producers are linked into the join once, and every consumer
//! links to the join instead of to each producer. A join is never
//! queued and never run; the thread whose completion
//! releases its last dependency completes it on the spot, inside the
//! same successor walk (see `release_successors`), so its consumers are
//! released exactly as if they had been linked to the producers
//! directly — poison included. Joins come from the spawner's
//! node cache and go back to it when the region frontier lets go of a
//! spent one, like the producers it drops.

use std::alloc::{self, Layout};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::ids::TaskId;
use crate::runtime::Priority;

const STATE_PENDING: u8 = 0;
const STATE_RUNNING: u8 = 1;
const STATE_FINISHED: u8 = 2;

/// Fault stamp: the task ran (or was skipped) normally.
const FAULT_NONE: u8 = 0;
/// Cancellation requested before the body ran (set by a poisoned
/// producer's completion walk, or at link time against an
/// already-failed producer). The executing worker observes it, skips
/// the body, and re-stamps [`FAULT_CANCELLED`].
const FAULT_CANCEL: u8 = 1;
/// The body ran and panicked; the panic was contained.
const FAULT_FAILED: u8 = 2;
/// The body never ran: the task was cancelled.
const FAULT_CANCELLED: u8 = 3;

/// Inline body capacity. Sized for the hot spawn paths — a couple of
/// `Arc`-sized bindings plus scalars (storm/chain/region bodies are
/// 24-64 bytes) — while keeping the node itself small enough that a
/// storm with tens of thousands of live nodes stays cache-resident.
/// Bigger closures (a `seqmerge` body is ~280 bytes) go to the node's
/// spill block, which lives as long as the node, so in steady state
/// they allocate nothing either; growing the slot instead would grow
/// every node of every workload for the few that spawn big bodies.
const BODY_INLINE: usize = 64;

/// Alignment of the inline buffer; closures needing more go to the
/// spill block.
const BODY_ALIGN: usize = 16;

/// The inline closure buffer. `#[repr(align(16))]` so any
/// `align_of::<F>() <= BODY_ALIGN` closure can be placed at offset 0.
#[repr(align(16))]
struct BodyBuf([MaybeUninit<u8>; BODY_INLINE]);

impl BodyBuf {
    fn uninit() -> Self {
        BodyBuf([MaybeUninit::uninit(); BODY_INLINE])
    }

    fn ptr(&mut self) -> *mut u8 {
        self.0.as_mut_ptr() as *mut u8
    }
}

/// Calls the closure of type `F` stored at `p`, consuming it.
///
/// # Safety
/// `p` must point to a valid, initialised `F` that is never used again.
unsafe fn call_thunk<F: FnOnce()>(p: *mut u8) {
    (ptr::read(p as *mut F))()
}

/// Drops the closure of type `F` stored at `p` without running it.
///
/// # Safety
/// Same contract as [`call_thunk`].
unsafe fn drop_thunk<F>(p: *mut u8) {
    ptr::drop_in_place(p as *mut F)
}

/// [`call_thunk`] for a closure in a spill block whose address is
/// stored at `p`.
///
/// # Safety
/// Same contract as [`call_thunk`], for the block `p` points to.
unsafe fn call_spilled<F: FnOnce()>(p: *mut u8) {
    call_thunk::<F>(*(p as *mut *mut u8))
}

/// [`drop_thunk`] for a closure in a spill block.
///
/// # Safety
/// Same contract as [`call_spilled`].
unsafe fn drop_spilled<F>(p: *mut u8) {
    drop_thunk::<F>(*(p as *mut *mut u8))
}

unsafe fn nop_thunk(_: *mut u8) {}

/// The one-shot body slot: an installed closure (inline, or in the
/// spill block with its address inline) plus the monomorphised thunks
/// that consume it.
struct BodySlot {
    present: bool,
    /// Bytes of `buf` actually occupied by the closure — `take_body`
    /// copies only these (zero for the ubiquitous capture-light storms).
    size: u16,
    call: unsafe fn(*mut u8),
    drop_fn: unsafe fn(*mut u8),
    buf: BodyBuf,
    /// Heap block for closures that do not fit `buf`, or null. Kept when
    /// the node is recycled and freed with it; its layout is
    /// `spill_size` bytes aligned to `1 << spill_align`. (These three
    /// fields fill the slot's padding: the node does not grow.)
    spill: *mut u8,
    spill_size: u32,
    spill_align: u8,
}

impl BodySlot {
    fn empty() -> Self {
        BodySlot {
            present: false,
            size: 0,
            call: nop_thunk,
            drop_fn: nop_thunk,
            buf: BodyBuf::uninit(),
            spill: ptr::null_mut(),
            spill_size: 0,
            spill_align: 0,
        }
    }

    fn install<F: FnOnce() + Send + 'static>(&mut self, f: F) {
        debug_assert!(!self.present, "body installed twice");
        if std::mem::size_of::<F>() <= BODY_INLINE && std::mem::align_of::<F>() <= BODY_ALIGN {
            // SAFETY: size and alignment checked; the buffer is dead
            // (present == false).
            unsafe { ptr::write(self.buf.ptr() as *mut F, f) };
            self.size = std::mem::size_of::<F>() as u16;
            self.call = call_thunk::<F>;
            self.drop_fn = drop_thunk::<F>;
        } else {
            let block = self.spill_block(Layout::new::<F>());
            // SAFETY: the block fits `F` and is dead (a body is taken out
            // of it before its node can be recycled); a pointer always
            // fits the buffer.
            unsafe {
                ptr::write(block as *mut F, f);
                ptr::write(self.buf.ptr() as *mut *mut u8, block);
            }
            self.size = std::mem::size_of::<*mut u8>() as u16;
            self.call = call_spilled::<F>;
            self.drop_fn = drop_spilled::<F>;
        }
        self.present = true;
    }

    /// The spill block, grown first if it does not fit `layout`.
    fn spill_block(&mut self, layout: Layout) -> *mut u8 {
        let fits = !self.spill.is_null()
            && layout.size() <= self.spill_size as usize
            && layout.align() <= 1 << self.spill_align;
        if !fits {
            self.free_spill();
            let size = u32::try_from(layout.size().max(1)).expect("task body over 4 GiB");
            let align = layout.align().max(BODY_ALIGN);
            let layout = Layout::from_size_align(size as usize, align).expect("a type's layout");
            // SAFETY: the size is non-zero.
            let block = unsafe { alloc::alloc(layout) };
            if block.is_null() {
                alloc::handle_alloc_error(layout);
            }
            self.spill = block;
            self.spill_size = size;
            self.spill_align = align.trailing_zeros() as u8;
        }
        self.spill
    }

    fn free_spill(&mut self) {
        if !self.spill.is_null() {
            let layout = Layout::from_size_align(self.spill_size as usize, 1 << self.spill_align)
                .expect("the layout the block was allocated with");
            // SAFETY: allocated by `spill_block` with this layout, and
            // dead (no body is installed).
            unsafe { alloc::dealloc(self.spill, layout) };
            self.spill = ptr::null_mut();
            self.spill_size = 0;
        }
    }
}

/// A body moved out of its node, ready to run exactly once on the
/// executing thread. Dropping it without running drops the closure.
/// A spilled body is still in its node's spill block until it runs
/// (running reads it out first), so it is run or dropped before the
/// node completes — as every caller does.
pub(crate) struct TakenBody {
    call: unsafe fn(*mut u8),
    drop_fn: unsafe fn(*mut u8),
    consumed: bool,
    buf: BodyBuf,
}

impl TakenBody {
    /// Run through `&mut`, leaving the body where it sits. The
    /// containment wrapper in `run_task` captures the taken body by
    /// reference: moving `TakenBody` *into* the `catch_unwind` closure
    /// would memcpy the whole inline buffer into the capture frame on
    /// every task (the unwind boundary keeps LLVM from eliding it).
    pub(crate) fn run_in_place(&mut self) {
        debug_assert!(!self.consumed, "body ran twice");
        // Consumed before the call: if the closure panics it has already
        // been read out of the buffer, so Drop must not touch it again.
        self.consumed = true;
        // SAFETY: `take_body`'s CAS made us the unique consumer; the
        // buffer holds the closure the matching `call` thunk expects.
        unsafe { (self.call)(self.buf.ptr()) }
    }
}

impl Drop for TakenBody {
    fn drop(&mut self) {
        if !self.consumed {
            // SAFETY: the closure was never consumed; unique ownership.
            unsafe { (self.drop_fn)(self.buf.ptr()) }
        }
    }
}

/// One link of the lock-free successor list.
///
/// Links are **pooled**: a link node has two states — *live* (sitting in
/// a successor stack, `succ` initialised) and *spare* (succ slot dead,
/// chained through `next` in a node's harvested spare-link stash or the
/// spawner's link cache). The completion walker moves links live→spare
/// without freeing; the spawner moves them spare→live without
/// allocating, so the steady-state release path performs **zero**
/// allocator traffic (pinned by `tests/alloc_budget.rs`).
pub(crate) struct SuccNode {
    succ: MaybeUninit<Arc<TaskNode>>,
    pub(crate) next: *mut SuccNode,
}

/// A fresh spare link (succ slot dead).
pub(crate) fn alloc_link() -> *mut SuccNode {
    Box::into_raw(Box::new(SuccNode {
        succ: MaybeUninit::uninit(),
        next: ptr::null_mut(),
    }))
}

/// Free a spare link (succ slot dead).
///
/// # Safety
/// `link` must be a spare link owned by the caller.
pub(crate) unsafe fn free_link(link: *mut SuccNode) {
    drop(Box::from_raw(link));
}

/// A chain of spare links closed into a ring and named by its tail (the
/// tail's `next` is the head), with its length. Two rings splice in
/// O(1), touching only the two tails, so handing a finished node's links
/// to a lane cache costs the same for one link as for a thousand. The
/// ring owns its links: dropping it frees them.
pub(crate) struct SpareRing {
    tail: *mut SuccNode,
    len: u32,
}

// SAFETY: a ring is exclusively-owned inert heap memory (succ slots
// dead).
unsafe impl Send for SpareRing {}

impl SpareRing {
    pub(crate) const EMPTY: SpareRing = SpareRing {
        tail: ptr::null_mut(),
        len: 0,
    };

    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Add one spare link.
    ///
    /// # Safety
    /// `link` must be a spare link owned by the caller, not in any ring.
    pub(crate) unsafe fn push(&mut self, link: *mut SuccNode) {
        if self.tail.is_null() {
            (*link).next = link;
            self.tail = link;
        } else {
            (*link).next = (*self.tail).next;
            (*self.tail).next = link;
        }
        self.len += 1;
    }

    /// Take the most recently added link, if any.
    pub(crate) fn pop(&mut self) -> Option<*mut SuccNode> {
        if self.tail.is_null() {
            return None;
        }
        // SAFETY: the ring's links are spare and exclusively ours.
        unsafe {
            let head = (*self.tail).next;
            if head == self.tail {
                self.tail = ptr::null_mut();
            } else {
                (*self.tail).next = (*head).next;
            }
            self.len -= 1;
            Some(head)
        }
    }

    /// Move all of `other`'s links into this ring, ahead of its own.
    pub(crate) fn splice(&mut self, mut other: SpareRing) {
        let tail = std::mem::replace(&mut other.tail, ptr::null_mut());
        if tail.is_null() {
            return;
        }
        if !self.tail.is_null() {
            // SAFETY: both rings are spare and exclusively ours.
            unsafe { std::mem::swap(&mut (*self.tail).next, &mut (*tail).next) };
        }
        self.tail = tail;
        self.len += other.len;
    }
}

impl Drop for SpareRing {
    fn drop(&mut self) {
        while let Some(link) = self.pop() {
            // SAFETY: popped links are spare and ours.
            unsafe { free_link(link) };
        }
    }
}

/// Sentinel meaning "the producer finished; the list is closed". Never
/// dereferenced.
fn closed() -> *mut SuccNode {
    usize::MAX as *mut SuccNode
}

/// One task instance in the dynamic graph.
pub struct TaskNode {
    pub(crate) id: TaskId,
    pub(crate) name: &'static str,
    pub(crate) high: AtomicBool,
    /// A bodiless join node (see the module docs). Set when the node is
    /// built or reset: a spent join goes back to its lane cache like a
    /// task node, and either kind may be reused as the other.
    join: bool,
    /// Outstanding dependencies + the spawn guard.
    pub(crate) deps: AtomicUsize,
    pub(crate) state: AtomicU8,
    /// Fault stamp (`FAULT_*`). All stores are Relaxed: pre-run, the
    /// only writers are ordered by the deps release chain (a producer's
    /// `request_cancel` is sequenced before its AcqRel `release_dep`,
    /// whose release sequence the consumer joins); post-run, the stamp
    /// is written by the executing worker *before* `complete`'s AcqRel
    /// close swap / Release finish store, so any thread that observed
    /// the node finished (or lost the `add_successor_with` race) reads
    /// a settled value.
    fault: AtomicU8,
    /// One-shot body slot; see the module docs for the access protocol.
    body: UnsafeCell<BodySlot>,
    /// Head of the successor stack, or [`closed`] once finished.
    succs: AtomicPtr<SuccNode>,
    /// Intrusive link for the runtime-wide free stack (node recycling).
    /// Written exactly once per lifecycle, by the completing thread as
    /// it pushes the node; cleared on reset.
    pub(crate) free_next: AtomicPtr<TaskNode>,
    /// Spare successor links harvested by `complete`: the walked list's
    /// link nodes, succ slots dead, chained for reuse as a [`SpareRing`]
    /// (its tail here, its length in `spare_len`). Written by the
    /// completing thread (which owns the detached list exclusively after
    /// the close swap); read and cleared by the spawner once it proves
    /// exclusive ownership for recycling (`reset` path), or by Drop.
    /// The node free stack's Release-push / Acquire-drain pair carries
    /// the hand-off ordering.
    spare_links: UnsafeCell<*mut SuccNode>,
    spare_len: UnsafeCell<u32>,
    /// The session this task was admitted under, or null for the
    /// runtime's own session 0 (plain `Runtime` spawns, and
    /// every pre-session build — the common case). Stamped by the
    /// session's spawn path pre-publication (a plain store the
    /// publication's Release/Acquire edges carry), nulled on reset. The
    /// pointee is owned by the runtime's session registry, which lives
    /// as long as the runtime itself, so dereferencing while the
    /// runtime is alive is sound; the pointer doubles as the session
    /// identity (pointer equality == same session).
    sess_ctl: AtomicPtr<crate::runtime::session::SessionCtl>,
}

// SAFETY: `body` is written once by the spawning thread before the spawn
// guard is released (a Release operation every consumer Acquires through
// the readiness protocol), and consumed by exactly one thread, selected
// by the `take_body` state CAS. `succs` is only ever touched through
// atomic operations. Everything else is atomics or immutable.
unsafe impl Send for TaskNode {}
unsafe impl Sync for TaskNode {}

impl TaskNode {
    pub(crate) fn new(id: TaskId, name: &'static str, priority: Priority) -> Arc<Self> {
        Self::build(id, name, priority, false)
    }

    /// A join node for `consumer`'s session, holding only its creation
    /// guard. It takes no user [`TaskId`] (its id is 0, which no task
    /// has) and no body.
    pub(crate) fn new_join(consumer: &TaskNode) -> Arc<Self> {
        let join = Self::build(TaskId(0), "join", Priority::Normal, true);
        join.sess_ctl
            .store(consumer.sess_ctl.load(Ordering::Relaxed), Ordering::Relaxed);
        join
    }

    /// [`reset_for_reuse`](Self::reset_for_reuse) into a join for
    /// `consumer`'s session, the state [`new_join`](Self::new_join)
    /// builds.
    pub(crate) fn reset_as_join(&mut self, consumer: &TaskNode) {
        self.reset_for_reuse(TaskId(0), "join", Priority::Normal);
        self.join = true;
        *self.sess_ctl.get_mut() = consumer.sess_ctl.load(Ordering::Relaxed);
    }

    fn build(id: TaskId, name: &'static str, priority: Priority, join: bool) -> Arc<Self> {
        Arc::new(TaskNode {
            id,
            name,
            high: AtomicBool::new(priority == Priority::High),
            join,
            deps: AtomicUsize::new(1), // spawn guard
            state: AtomicU8::new(STATE_PENDING),
            fault: AtomicU8::new(FAULT_NONE),
            body: UnsafeCell::new(BodySlot::empty()),
            succs: AtomicPtr::new(ptr::null_mut()),
            free_next: AtomicPtr::new(ptr::null_mut()),
            spare_links: UnsafeCell::new(ptr::null_mut()),
            spare_len: UnsafeCell::new(0),
            sess_ctl: AtomicPtr::new(ptr::null_mut()),
        })
    }

    /// Re-arm a finished, exclusively-owned node for a new task. The
    /// caller proves exclusivity by reaching this through
    /// `Arc::get_mut`, which also gives the happens-before edge over
    /// the completing thread's writes (the pool's Acquire drain of the
    /// free stack pairs with the completing thread's Release push).
    pub(crate) fn reset_for_reuse(&mut self, id: TaskId, name: &'static str, priority: Priority) {
        debug_assert_eq!(
            *self.state.get_mut(),
            STATE_FINISHED,
            "only finished nodes are recycled"
        );
        debug_assert!(
            !self.body.get_mut().present,
            "finished node still owns a body"
        );
        debug_assert_eq!(*self.succs.get_mut(), closed(), "successor list not closed");
        self.id = id;
        self.name = name;
        self.join = false;
        *self.high.get_mut() = priority == Priority::High;
        *self.deps.get_mut() = 1; // spawn guard
        *self.state.get_mut() = STATE_PENDING;
        *self.fault.get_mut() = FAULT_NONE;
        *self.succs.get_mut() = ptr::null_mut();
        *self.free_next.get_mut() = ptr::null_mut();
        *self.sess_ctl.get_mut() = ptr::null_mut();
    }

    /// Detach this node's harvested spare-link chain (see
    /// [`spare_links`](Self::spare_links)). Called by the spawner while
    /// it holds exclusive ownership (the recycling path), so the plain
    /// cell access is race-free.
    pub(crate) fn take_spare_links(&mut self) -> SpareRing {
        SpareRing {
            tail: std::mem::replace(self.spare_links.get_mut(), ptr::null_mut()),
            len: std::mem::take(self.spare_len.get_mut()),
        }
    }

    pub(crate) fn id(&self) -> TaskId {
        self.id
    }

    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// Is this a bodiless join node?
    #[inline]
    pub(crate) fn is_join(&self) -> bool {
        self.join
    }

    pub(crate) fn priority(&self) -> Priority {
        if self.high.load(Ordering::Relaxed) {
            Priority::High
        } else {
            Priority::Normal
        }
    }

    pub(crate) fn set_high_priority(&self) {
        self.high.store(true, Ordering::Relaxed);
    }

    /// Stamp the owning session (pre-publication plain store; see the
    /// [`sess_ctl`](Self::sess_ctl) field docs).
    #[inline]
    pub(crate) fn set_session_ctl(&self, ctl: *const crate::runtime::session::SessionCtl) {
        self.sess_ctl.store(ctl.cast_mut(), Ordering::Relaxed);
    }

    /// Borrow the stamped session control block, if this task belongs to
    /// a real session. Callers run on a live runtime, whose session
    /// registry owns the pointee (see the field docs).
    #[inline]
    pub(crate) fn session_ctl(&self) -> Option<&crate::runtime::session::SessionCtl> {
        let p = self.sess_ctl.load(Ordering::Relaxed);
        if p.is_null() {
            None
        } else {
            // SAFETY: a non-null stamp points into the runtime's session
            // registry, which outlives every executing task.
            unsafe { Some(&*p) }
        }
    }

    /// Do two tasks belong to the same session? Pointer identity; both
    /// null (no sessions anywhere) compares equal, which is what keeps
    /// the pre-session poison walk bit-identical.
    #[inline]
    pub(crate) fn same_session(&self, other: &TaskNode) -> bool {
        self.sess_ctl.load(Ordering::Relaxed) == other.sess_ctl.load(Ordering::Relaxed)
    }

    /// Request that this task be cancelled before its body runs. Only
    /// meaningful pre-run: callers hold an ordering edge that precedes
    /// the task's readiness (see the [`fault`](Self::fault) field docs),
    /// so the only possible prior values are `FAULT_NONE` and
    /// `FAULT_CANCEL` and a plain store suffices.
    #[inline]
    pub(crate) fn request_cancel(&self) {
        self.fault.store(FAULT_CANCEL, Ordering::Relaxed);
    }

    /// Was cancellation requested before the body ran?
    #[inline]
    pub(crate) fn cancel_requested(&self) -> bool {
        self.fault.load(Ordering::Relaxed) == FAULT_CANCEL
    }

    /// Stamp this task as failed (body panicked). Executing-worker-side,
    /// before `complete`'s close swap.
    #[inline]
    pub(crate) fn stamp_failed(&self) {
        self.fault.store(FAULT_FAILED, Ordering::Relaxed);
    }

    /// Stamp this task as cancelled (body skipped). Executing-worker-
    /// side, before `complete`'s close swap.
    #[inline]
    pub(crate) fn stamp_cancelled(&self) {
        self.fault.store(FAULT_CANCELLED, Ordering::Relaxed);
    }

    /// Did this task finish failed or cancelled? Valid once the caller
    /// has observed the node finished (or lost the successor-
    /// registration race) — those Acquire edges carry the stamp.
    #[inline]
    pub(crate) fn finished_poisoned(&self) -> bool {
        matches!(
            self.fault.load(Ordering::Relaxed),
            FAULT_FAILED | FAULT_CANCELLED
        )
    }

    /// True once the task body has run to completion.
    pub(crate) fn is_finished(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_FINISHED
    }

    /// Relaxed probe of the finished state, for callers that batch their
    /// ordering into one explicit Acquire fence (see `dep::quiescent`).
    pub(crate) fn is_finished_relaxed(&self) -> bool {
        self.state.load(Ordering::Relaxed) == STATE_FINISHED
    }

    /// Has this task closed its successor list, so that a new consumer
    /// needs no edge to it? The Acquire load pairs with the closing
    /// swap of a worker completion and carries the fault stamp written
    /// before it; a list the registering thread closed itself
    /// ([`complete_single`](Self::complete_single)) is ordered by
    /// program order.
    #[inline]
    pub(crate) fn successors_closed(&self) -> bool {
        self.succs.load(Ordering::Acquire) == closed()
    }

    /// Try to register `succ` as a successor of `self`, storing the edge
    /// in the caller-provided spare link.
    ///
    /// Returns `true` (and retains an `Arc` to the successor, consuming
    /// `link`) if `self` has not finished yet — in that case the caller
    /// must count one outstanding dependency on `succ`. Returns `false`
    /// if `self` already finished: no edge is needed and `link` is left
    /// spare, still owned by the caller for reuse.
    ///
    /// Convenience for tests and non-pooled callers:
    /// [`add_successor`](Self::add_successor) allocates the link itself.
    pub(crate) fn add_successor_with(&self, succ: &Arc<TaskNode>, link: *mut SuccNode) -> bool {
        let mut head = self.succs.load(Ordering::Acquire);
        if head == closed() {
            return false;
        }
        // SAFETY: the caller owns `link` (spare state); it stays
        // unreachable until the CAS below publishes it.
        unsafe {
            (*link).succ.write(Arc::clone(succ));
            (*link).next = head;
        }
        loop {
            match self
                .succs
                .compare_exchange_weak(head, link, Ordering::Release, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(h) if h == closed() => {
                    // Producer completed between our load and the CAS.
                    // SAFETY: the link never became reachable; return it
                    // to the spare state (drop the retained Arc).
                    unsafe { (*link).succ.assume_init_drop() };
                    return false;
                }
                Err(h) => {
                    head = h;
                    unsafe { (*link).next = head };
                }
            }
        }
    }

    /// [`add_successor_with`](Self::add_successor_with) minus the link
    /// pool: allocates a fresh link and frees it again if the list was
    /// already closed. Test-only convenience; the runtime always links
    /// through the spawner's link cache.
    #[cfg(test)]
    pub(crate) fn add_successor(&self, succ: &Arc<TaskNode>) -> bool {
        let link = alloc_link();
        let added = self.add_successor_with(succ, link);
        if !added {
            // SAFETY: `add_successor_with` left the link spare and ours.
            unsafe { free_link(link) };
        }
        added
    }

    /// Increment the outstanding-dependency count by one.
    pub(crate) fn retain_dep(&self) {
        self.deps.fetch_add(1, Ordering::Relaxed);
    }

    /// Remove one outstanding dependency; returns `true` if the task just
    /// became ready (count reached zero).
    pub(crate) fn release_dep(&self) -> bool {
        self.deps.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Install the body. Must happen before the spawn guard is released.
    /// Closures up to [`BODY_INLINE`] bytes are stored inline in the
    /// node; larger ones in its spill block (allocated only when the
    /// node has none big enough yet).
    pub(crate) fn install_body<F: FnOnce() + Send + 'static>(&self, body: F) {
        // SAFETY: called once, by the spawning thread, before the spawn
        // guard is released — no other thread can reach the slot yet.
        let slot = unsafe { &mut *self.body.get() };
        debug_assert!(!slot.present, "body installed twice for {:?}", self.id);
        slot.install(body);
    }

    /// Take the body for execution. The `PENDING -> RUNNING` CAS selects
    /// exactly one consumer; a second scheduling of the same job (a
    /// scheduler bug) loses the CAS and panics *before* touching the
    /// slot, so the tripwire the old mutex provided stays a clean panic
    /// rather than a data race.
    pub(crate) fn take_body(&self) -> TakenBody {
        if self
            .state
            .compare_exchange(
                STATE_PENDING,
                STATE_RUNNING,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_err()
        {
            panic!("task {:?} ({}) scheduled twice", self.id, self.name);
        }
        self.take_body_inner()
    }

    /// [`take_body`](Self::take_body) for a job with a statically unique
    /// consumer, where the consumer-election CAS degrades to a load +
    /// store while keeping the double-schedule tripwire. Two callers
    /// qualify: a single-threaded runtime (`threads == 1` — the main
    /// thread is the only consumer of anything), and a **direct
    /// hand-off** (the job was never published to any queue — the
    /// completing worker received the `Arc` straight from `complete`,
    /// so no other thread can hold a scheduling reference).
    pub(crate) fn take_body_owned(&self) -> TakenBody {
        if self.state.load(Ordering::Relaxed) != STATE_PENDING {
            panic!("task {:?} ({}) scheduled twice", self.id, self.name);
        }
        self.state.store(STATE_RUNNING, Ordering::Relaxed);
        self.take_body_inner()
    }

    fn take_body_inner(&self) -> TakenBody {
        // SAFETY: the CAS above makes this thread the slot's unique
        // consumer; installation happened-before readiness (deps release
        // / queue hand-off).
        let slot = unsafe { &mut *self.body.get() };
        if !slot.present {
            panic!("task {:?} ({}) scheduled twice", self.id, self.name);
        }
        slot.present = false;
        let mut taken = TakenBody {
            call: slot.call,
            drop_fn: slot.drop_fn,
            consumed: false,
            buf: BodyBuf::uninit(),
        };
        // Move the closure bytes out of the node (a Rust move is a
        // bitwise copy) so the node can complete and be recycled while
        // the body is still running. Only the occupied prefix is copied
        // (for a spilled body, the block's address: the call thunk moves
        // the closure out of the block before it runs).
        // SAFETY: both buffers are BODY_INLINE >= size bytes; the slot
        // holds a live closure that is now owned by `taken`.
        unsafe { ptr::copy_nonoverlapping(slot.buf.ptr(), taken.buf.ptr(), slot.size as usize) };
        taken
    }

    /// Mark the task finished, release one dependency of every registered
    /// successor **in registration order**, and call `on_ready` for each
    /// successor that just became ready. Returns how many became ready.
    ///
    /// The list is detached with a single swap, so successors are handed
    /// off without any critical section; `on_ready` typically enqueues,
    /// and may do so freely. Successor `Arc`s that did not become ready
    /// are dropped here, so finished chains do not keep the whole graph
    /// alive.
    ///
    /// With `poison`, every registered successor gets a cancellation
    /// request stamped before its dependency is released — the
    /// `OnPanic::CancelDependents` propagation step. A failed or
    /// cancelled task completes through this same protocol, so the
    /// scheduler's counts and pools never diverge on failure.
    pub(crate) fn complete(&self, poison: bool, on_ready: impl FnMut(Arc<TaskNode>)) -> usize {
        let head = self.succs.swap(closed(), Ordering::AcqRel);
        self.state.store(STATE_FINISHED, Ordering::Release);
        self.release_successors(head, poison, on_ready)
    }

    /// [`complete`](Self::complete) on the thread that registers
    /// successors: the main thread before any session opens. Only that
    /// thread ever calls [`add_successor_with`](Self::add_successor_with),
    /// so when it completes a task no push can race the close, and the
    /// close and the finish flag become plain stores. Every later
    /// registration probe and finish-flag probe on this node runs on the
    /// same thread (the spawner), so program order is all they need;
    /// other threads only reach the successors through `release_dep`.
    pub(crate) fn complete_single(
        &self,
        poison: bool,
        on_ready: impl FnMut(Arc<TaskNode>),
    ) -> usize {
        let head = self.succs.load(Ordering::Relaxed);
        self.succs.store(closed(), Ordering::Relaxed);
        self.state.store(STATE_FINISHED, Ordering::Relaxed);
        self.release_successors(head, poison, on_ready)
    }

    /// Complete a join whose last dependency was just released: the
    /// releasing thread does it inline. A cancellation request a
    /// poisoned member stamped on the join makes it finish cancelled
    /// and poison its consumers in turn, so the cancel set through a
    /// join is the one direct edges would give. Always the concurrent
    /// close: the spawner may be linking new consumers to a memoised
    /// join right now. Non-generic, so the successor walk that calls it
    /// does not instantiate itself recursively.
    pub(crate) fn complete_join(&self, on_ready: &mut dyn FnMut(Arc<TaskNode>)) -> usize {
        debug_assert!(self.join, "only joins complete without a body");
        let poison = self.cancel_requested();
        if poison {
            self.stamp_cancelled();
        }
        self.complete(poison, on_ready)
    }

    fn release_successors(
        &self,
        head: *mut SuccNode,
        poison: bool,
        mut on_ready: impl FnMut(Arc<TaskNode>),
    ) -> usize {
        // The stack is LIFO; reverse it so release order matches
        // registration (program) order — the order the scheduler-policy
        // and determinism tests pin.
        let mut rev: *mut SuccNode = ptr::null_mut();
        let mut p = head;
        while !p.is_null() {
            // SAFETY: the swap made this thread the list's unique owner.
            unsafe {
                let next = (*p).next;
                (*p).next = rev;
                rev = p;
                p = next;
            }
        }
        let mut n_ready = 0;
        let mut p = rev;
        // The walked links, chained into a ring: the first one is its
        // tail.
        let mut spares: *mut SuccNode = ptr::null_mut();
        let spare_tail = rev;
        let mut spare_len = 0u32;
        while !p.is_null() {
            // SAFETY: as above — unique owner; each link's Arc is moved
            // out exactly once, demoting the link to the spare state,
            // and the link is chained for reuse instead of freed.
            unsafe {
                let next = (*p).next;
                let succ = (*p).succ.assume_init_read();
                (*p).next = spares;
                spares = p;
                spare_len += 1;
                p = next;
                if poison && succ.same_session(self) {
                    // Sequenced before the release_dep below, whose
                    // release sequence the eventual consumer joins.
                    // Poison stays inside the failing task's session: a
                    // cross-session successor keeps running (Isolate
                    // semantics for the edge — its renamed input holds
                    // whatever the failed body left, which is memory-
                    // safe; the blast radius of a tenant's panic is the
                    // tenant). With no sessions anywhere both stamps
                    // are null and every successor qualifies, exactly
                    // the pre-session walk.
                    succ.request_cancel();
                }
                if succ.release_dep() {
                    if succ.is_join() {
                        // A join has nothing to run: complete it here and
                        // hand on whatever it releases.
                        n_ready += succ.complete_join(&mut on_ready);
                    } else {
                        n_ready += 1;
                        on_ready(succ);
                    }
                }
            }
        }
        // Stash the walked links on the finished node as a ring: the
        // recycler splices them into its lane cache; a node that is
        // never recycled frees them in Drop. Plain stores — completion
        // rights are exclusive after the close swap, and the node free
        // stack's Release/Acquire pair orders the hand-off.
        if !spares.is_null() {
            // SAFETY: exclusive completion-side access (see field docs);
            // the chain runs from `spares` to `spare_tail`.
            unsafe {
                (*spare_tail).next = spares;
                *self.spare_links.get() = spare_tail;
                *self.spare_len.get() = spare_len;
            }
        }
        n_ready
    }
}

impl Drop for TaskNode {
    fn drop(&mut self) {
        // A node dropped before running (runtime teardown mid-flight)
        // still owns its installed body.
        let slot = self.body.get_mut();
        if slot.present {
            slot.present = false;
            // SAFETY: exclusive access in Drop; the closure was never
            // consumed.
            unsafe { (slot.drop_fn)(slot.buf.ptr()) };
        }
        slot.free_spill();
        // It also still owns its successor links (live: each holds an
        // Arc that must drop)…
        let head = *self.succs.get_mut();
        if head != closed() {
            let mut p = head;
            while !p.is_null() {
                // SAFETY: exclusive access in Drop; the link is live.
                unsafe {
                    let next = (*p).next;
                    (*p).succ.assume_init_drop();
                    free_link(p);
                    p = next;
                }
            }
        }
        // …and any harvested spare links (succ slots dead).
        drop(self.take_spare_links());
    }
}

impl std::fmt::Debug for TaskNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskNode")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("deps", &self.deps.load(Ordering::Relaxed))
            .field("finished", &self.is_finished())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u64) -> Arc<TaskNode> {
        TaskNode::new(TaskId(id), "t", Priority::Normal)
    }

    fn complete_collect(n: &TaskNode) -> Vec<Arc<TaskNode>> {
        let mut ready = Vec::new();
        let count = n.complete(false, |s| ready.push(s));
        assert_eq!(count, ready.len());
        ready
    }

    #[test]
    fn guard_protocol() {
        let n = node(1);
        // Fresh node holds only the spawn guard; either outcome is legal
        // here, the call just must not underflow the counter.
        let _ = n.release_dep();
        // Releasing the guard on a node with no other deps makes it ready.
        let n = node(2);
        assert!(n.release_dep());
    }

    #[test]
    fn edge_to_unfinished_counts() {
        let p = node(1);
        let s = node(2);
        assert!(p.add_successor(&s));
        s.retain_dep(); // caller counts the edge
        assert!(!s.release_dep()); // guard release: still 1 outstanding
        p.install_body(|| {});
        p.take_body().run_in_place();
        let ready = complete_collect(&p);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].id(), TaskId(2));
    }

    #[test]
    fn edge_to_finished_is_skipped() {
        let p = node(1);
        p.install_body(|| {});
        p.take_body().run_in_place();
        let _ = complete_collect(&p);
        let s = node(2);
        assert!(!p.add_successor(&s));
        assert!(s.release_dep()); // only the guard was held
    }

    #[test]
    fn successors_release_in_registration_order() {
        let p = node(1);
        let kids: Vec<_> = (2..7).map(node).collect();
        for k in &kids {
            assert!(p.add_successor(k));
            k.retain_dep();
            assert!(!k.release_dep()); // release the spawn guard
        }
        let ready = complete_collect(&p);
        let ids: Vec<_> = ready.iter().map(|n| n.id().0).collect();
        assert_eq!(ids, vec![2, 3, 4, 5, 6], "registration order must hold");
    }

    #[test]
    fn complete_drops_successor_arcs() {
        let p = node(1);
        let s = node(2);
        assert!(p.add_successor(&s));
        s.retain_dep();
        let before = Arc::strong_count(&s);
        assert_eq!(before, 2);
        let ready = complete_collect(&p);
        drop(ready);
        assert_eq!(Arc::strong_count(&s), 1);
    }

    #[test]
    fn drop_without_complete_frees_links() {
        let s = node(2);
        {
            let p = node(1);
            assert!(p.add_successor(&s));
            s.retain_dep();
            assert_eq!(Arc::strong_count(&s), 2);
            // p dropped here without completing.
        }
        assert_eq!(Arc::strong_count(&s), 1);
    }

    #[test]
    #[should_panic(expected = "scheduled twice")]
    fn double_schedule_panics() {
        let n = node(1);
        n.install_body(|| {});
        n.take_body().run_in_place();
        let _ = n.take_body();
    }

    #[test]
    fn inline_body_runs_and_drops_captures() {
        // A closure capturing an Arc: the capture must be dropped exactly
        // once whether the body runs or not.
        let token = Arc::new(());
        let n = node(1);
        let t = Arc::clone(&token);
        n.install_body(move || drop(t));
        assert_eq!(Arc::strong_count(&token), 2);
        n.take_body().run_in_place();
        assert_eq!(Arc::strong_count(&token), 1);

        // Taken but never run: TakenBody's Drop releases the capture.
        let n = node(2);
        let t = Arc::clone(&token);
        n.install_body(move || drop(t));
        drop(n.take_body());
        assert_eq!(Arc::strong_count(&token), 1);

        // Installed but never taken: TaskNode's Drop releases it.
        let n = node(3);
        let t = Arc::clone(&token);
        n.install_body(move || drop(t));
        drop(n);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn oversized_body_boxes_and_runs() {
        // 256 bytes of captured state: exceeds BODY_INLINE, goes to the
        // spill block, must still run correctly.
        let big = [7u8; 256];
        let out = Arc::new(AtomicUsize::new(0));
        let o = Arc::clone(&out);
        let n = node(1);
        n.install_body(move || o.store(big.iter().map(|&b| b as usize).sum(), Ordering::SeqCst));
        n.take_body().run_in_place();
        assert_eq!(out.load(Ordering::SeqCst), 7 * 256);
    }

    /// A recycled node keeps its spill block: the next big body reuses
    /// it, a bigger or more aligned one replaces it, and captures drop
    /// exactly once whether a spilled body runs, is dropped taken, or is
    /// never taken.
    #[test]
    fn a_spill_block_outlives_its_body() {
        #[repr(align(64))]
        struct Wide([u8; 64]);
        let token = Arc::new(());
        let mut n = node(1);
        let spill = |n: &mut Arc<TaskNode>| Arc::get_mut(n).unwrap().body.get_mut().spill;
        let reuse = |n: &mut Arc<TaskNode>| {
            let _ = n.complete(false, |_| {});
            Arc::get_mut(n)
                .unwrap()
                .reset_for_reuse(TaskId(2), "t", Priority::Normal);
        };
        let (t, big) = (Arc::clone(&token), [1u8; 200]);
        n.install_body(move || drop((t, big)));
        let first = spill(&mut n);
        assert!(!first.is_null());
        n.take_body().run_in_place();
        assert_eq!(Arc::strong_count(&token), 1);
        reuse(&mut n);
        let (t, big) = (Arc::clone(&token), [2u8; 120]);
        n.install_body(move || drop((t, big)));
        assert_eq!(spill(&mut n), first, "a smaller body reuses the block");
        drop(n.take_body());
        assert_eq!(Arc::strong_count(&token), 1);
        reuse(&mut n);
        let (t, wide) = (Arc::clone(&token), Wide([3; 64]));
        // `&wide` makes the closure capture the whole (64-aligned) value.
        n.install_body(move || drop((t, std::hint::black_box(&wide).0)));
        assert_eq!(spill(&mut n) as usize % 64, 0, "a more aligned body moves");
        drop(n);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    /// The spill block lives in the body slot's padding: every workload's
    /// nodes stay the size they were.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_spill_block_does_not_grow_the_node() {
        assert!(std::mem::size_of::<TaskNode>() <= 176);
    }

    #[test]
    fn fault_stamps_round_trip() {
        let n = node(1);
        assert!(!n.cancel_requested());
        assert!(!n.finished_poisoned());
        n.request_cancel();
        assert!(n.cancel_requested());
        assert!(!n.finished_poisoned(), "a pre-run request is not final");
        n.stamp_cancelled();
        assert!(!n.cancel_requested());
        assert!(n.finished_poisoned());
        let m = node(2);
        m.stamp_failed();
        assert!(m.finished_poisoned());
    }

    #[test]
    fn poisoned_complete_cancels_successors_in_order() {
        let p = node(1);
        let kids: Vec<_> = (2..5).map(node).collect();
        for k in &kids {
            assert!(p.add_successor(k));
            k.retain_dep();
            assert!(!k.release_dep()); // release the spawn guard
        }
        p.stamp_failed();
        let mut ready = Vec::new();
        let count = p.complete(true, |s| ready.push(s));
        assert_eq!(count, 3);
        let ids: Vec<_> = ready.iter().map(|n| n.id().0).collect();
        assert_eq!(ids, vec![2, 3, 4], "registration order must hold");
        for k in &ready {
            assert!(k.cancel_requested(), "poison must reach every successor");
        }
    }

    /// A join completes inside the walk that releases its last member,
    /// is never handed out itself, and passes a member's poison on to
    /// its consumer.
    #[test]
    fn join_completes_inline_and_passes_poison_on() {
        for poison in [false, true] {
            let (a, b, consumer) = (node(1), node(2), node(3));
            let join = TaskNode::new_join(&consumer);
            assert!(join.is_join() && !consumer.is_join());
            for m in [&a, &b] {
                join.retain_dep();
                assert!(m.add_successor(&join));
            }
            consumer.retain_dep();
            assert!(join.add_successor(&consumer));
            assert!(!join.release_dep(), "creation guard");
            assert!(!consumer.release_dep(), "spawn guard");
            a.install_body(|| {});
            a.take_body().run_in_place();
            assert!(complete_collect(&a).is_empty(), "b still holds the join");
            assert!(!join.is_finished());
            b.install_body(|| {});
            b.take_body().run_in_place();
            if poison {
                b.stamp_failed();
            }
            let mut ready = Vec::new();
            assert_eq!(b.complete(poison, |s| ready.push(s)), 1);
            assert_eq!(ready.len(), 1);
            assert_eq!(ready[0].id(), TaskId(3), "the consumer, not the join");
            assert!(join.is_finished());
            assert_eq!(join.finished_poisoned(), poison);
            assert_eq!(ready[0].cancel_requested(), poison);
        }
    }

    #[test]
    fn unpoisoned_complete_leaves_successors_clean() {
        let p = node(1);
        let s = node(2);
        assert!(p.add_successor(&s));
        s.retain_dep();
        assert!(!s.release_dep());
        let ready = complete_collect(&p);
        assert_eq!(ready.len(), 1);
        assert!(!ready[0].cancel_requested());
    }

    #[test]
    fn reset_clears_fault_stamp() {
        let mut n = node(1);
        n.install_body(|| {});
        n.take_body().run_in_place();
        n.stamp_failed();
        let _ = complete_collect(&n);
        let node = Arc::get_mut(&mut n).expect("sole owner");
        node.reset_for_reuse(TaskId(9), "again", Priority::Normal);
        assert!(!n.cancel_requested());
        assert!(!n.finished_poisoned());
    }

    #[test]
    fn reset_for_reuse_rearms_a_finished_node() {
        let mut n = node(1);
        n.install_body(|| {});
        n.take_body().run_in_place();
        let _ = complete_collect(&n);
        let node = Arc::get_mut(&mut n).expect("sole owner");
        node.reset_for_reuse(TaskId(9), "again", Priority::High);
        assert_eq!(n.id(), TaskId(9));
        assert_eq!(n.name(), "again");
        assert_eq!(n.priority(), Priority::High);
        assert!(!n.is_finished());
        // Full second lifecycle on the recycled node.
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        n.install_body(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        assert!(n.release_dep()); // spawn guard was re-armed
        n.take_body().run_in_place();
        let _ = complete_collect(&n);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert!(n.is_finished());
    }
}
