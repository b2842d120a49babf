//! API-compatible stand-in for `crossbeam-deque` (no registry access in
//! the build container), implemented with the *real* lock-free
//! algorithms rather than the original mutex-over-`VecDeque`
//! placeholder:
//!
//! - [`Worker`]/[`Stealer`] are a Chase–Lev work-stealing deque with the
//!   memory orderings of Lê, Pop, Cousot & Cousot, *Correct and
//!   Efficient Work-Stealing for Weak Memory Models* (PPoPP'13): the
//!   owner pushes and pops at the bottom (LIFO flavour) over a growable
//!   circular buffer; thieves CAS the top (FIFO — the oldest task, the
//!   Cilk "steal tasks as big as possible" order).
//! - [`Injector`] is an unbounded lock-free FIFO built from linked
//!   blocks of slots (the design of crossbeam's injector / channel
//!   list): producers claim slots by CAS on a monotonic tail index,
//!   consumers by CAS on the head index, and blocks are reclaimed by
//!   the last consumer to touch them via per-slot READ/DESTROY bits.
//!
//! There is **no mutex anywhere in this crate** (the workspace test
//! `tests/lock_free_sources.rs` pins that); every push/pop/steal is a
//! handful of atomic operations.
//! [`Steal::Retry`] is now a real outcome — callers are expected to
//! back off and retry rather than spin hard.
//!
//! Memory-safety notes, shared by all Chase–Lev implementations:
//!
//! - A thief reads its candidate slot *speculatively* before the
//!   claiming CAS; if the CAS fails the (possibly stale) bytes are
//!   discarded as `MaybeUninit` without ever being treated as a `T`.
//! - When the owner grows the buffer, the old buffer may still be read
//!   by in-flight thieves, so replaced buffers are retired to a list
//!   owned by the shared state and freed only when the last handle
//!   drops (their slots are stale copies, so no element is dropped
//!   twice).

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

/// The result of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// The queue was observed empty.
    Empty,
    /// One task was stolen.
    Success(T),
    /// Lost a race with a concurrent operation; worth retrying after
    /// backing off.
    Retry,
}

impl<T> Steal<T> {
    #[inline]
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }

    pub fn is_success(&self) -> bool {
        matches!(self, Steal::Success(_))
    }

    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(t) => Some(t),
            _ => None,
        }
    }
}

/// Exponential backoff for contended retry loops: a few pause-spins
/// doubling each step, then yields to the OS scheduler (essential on
/// hosts with fewer cores than threads).
struct Backoff {
    step: u32,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 6;

    fn new() -> Self {
        Backoff { step: 0 }
    }

    fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                std::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

// ---------------------------------------------------------------------
// Chase–Lev deque: Worker + Stealer
// ---------------------------------------------------------------------

/// Growable circular buffer of `MaybeUninit<T>` slots, indexed by the
/// deque's unbounded `top`/`bottom` counters modulo the capacity
/// (a power of two).
struct Buffer<T> {
    storage: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        let storage = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::into_raw(Box::new(Buffer { storage }))
    }

    fn cap(&self) -> usize {
        self.storage.len()
    }

    fn slot(&self, index: isize) -> *mut MaybeUninit<T> {
        self.storage[index as usize & (self.cap() - 1)].get()
    }

    /// Write the element at `index`. Caller must be the unique owner of
    /// that logical index.
    unsafe fn write(&self, index: isize, value: T) {
        self.slot(index).write(MaybeUninit::new(value));
    }

    /// Speculatively read the bytes at `index`. The caller may only
    /// `assume_init` the result after establishing ownership of the
    /// index (winning the top CAS, or being the owner at the bottom).
    unsafe fn read(&self, index: isize) -> MaybeUninit<T> {
        self.slot(index).read()
    }
}

/// A retired buffer, kept alive until every handle drops because
/// stalled thieves may still read (and discard) stale slots from it.
struct Retired<T> {
    buf: *mut Buffer<T>,
    next: *mut Retired<T>,
}

/// State shared by the owner and all stealers of one deque.
struct Inner<T> {
    /// Index of the oldest element (thieves' end); monotonic.
    top: AtomicIsize,
    /// One past the newest element (owner's end).
    bottom: AtomicIsize,
    buffer: AtomicPtr<Buffer<T>>,
    retired: AtomicPtr<Retired<T>>,
    _marker: PhantomData<T>,
}

unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

const MIN_CAP: usize = 8;

impl<T> Inner<T> {
    fn new() -> Self {
        Inner {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buffer: AtomicPtr::new(Buffer::alloc(MIN_CAP)),
            retired: AtomicPtr::new(std::ptr::null_mut()),
            _marker: PhantomData,
        }
    }

    /// Thief protocol, also used by the FIFO-flavoured owner pop.
    fn steal(&self) -> Steal<T> {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if b.wrapping_sub(t) <= 0 {
            return Steal::Empty;
        }
        let buf = self.buffer.load(Ordering::Acquire);
        // Speculative: only valid if the CAS below claims index `t`.
        let value = unsafe { (*buf).read(t) };
        if self
            .top
            .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Success(unsafe { value.assume_init() })
        } else {
            // Lost the race; the bytes are discarded uninterpreted.
            Steal::Retry
        }
    }

    fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Acquire);
        let t = self.top.load(Ordering::Acquire);
        b.wrapping_sub(t).max(0) as usize
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // All handles are gone: plain memory now.
        let t = *self.top.get_mut();
        let b = *self.bottom.get_mut();
        let buf = *self.buffer.get_mut();
        unsafe {
            let mut i = t;
            while i.wrapping_sub(b) < 0 {
                (*(*buf).slot(i)).assume_init_drop();
                i = i.wrapping_add(1);
            }
            drop(Box::from_raw(buf));
            // Retired buffers hold stale copies only: free storage, drop
            // no elements.
            let mut r = *self.retired.get_mut();
            while !r.is_null() {
                let node = Box::from_raw(r);
                drop(Box::from_raw(node.buf));
                r = node.next;
            }
        }
    }
}

/// Owner end of a per-thread deque. Pushes go to the bottom; the owner
/// pops the bottom (LIFO); thieves always take the top, i.e. the oldest
/// task.
///
/// `Worker` is `Send` but not `Sync` — exactly one thread may own it,
/// which is what makes the owner's uncontended path cheap.
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    /// Owner ops are unsynchronised with each other: single thread only.
    _not_sync: PhantomData<Cell<()>>,
}

impl<T> Worker<T> {
    pub fn new_lifo() -> Self {
        Worker {
            inner: Arc::new(Inner::new()),
            _not_sync: PhantomData,
        }
    }

    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }

    #[inline]
    pub fn push(&self, value: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buffer.load(Ordering::Relaxed);
        if b.wrapping_sub(t) >= unsafe { (*buf).cap() } as isize {
            buf = self.grow(t, b, buf);
        }
        unsafe { (*buf).write(b, value) };
        // Publishes the write above to thieves that acquire `bottom`.
        inner.bottom.store(b.wrapping_add(1), Ordering::Release);
    }

    /// Double the buffer, copying the live range `t..b`; the old buffer
    /// is retired (not freed) because stalled thieves may still read
    /// stale slots from it.
    fn grow(&self, t: isize, b: isize, old: *mut Buffer<T>) -> *mut Buffer<T> {
        let inner = &*self.inner;
        unsafe {
            let new = Buffer::alloc((*old).cap() * 2);
            let mut i = t;
            while i != b {
                std::ptr::copy_nonoverlapping((*old).slot(i), (*new).slot(i), 1);
                i = i.wrapping_add(1);
            }
            inner.buffer.store(new, Ordering::Release);
            let node = Box::into_raw(Box::new(Retired {
                buf: old,
                next: std::ptr::null_mut(),
            }));
            let mut head = inner.retired.load(Ordering::Relaxed);
            loop {
                (*node).next = head;
                match inner.retired.compare_exchange_weak(
                    head,
                    node,
                    Ordering::Release,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(h) => head = h,
                }
            }
            new
        }
    }

    #[inline]
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        // Fast empty check, no fence: only the owner pushes, so if the
        // deque looks empty to the owner it *is* empty (thieves only
        // ever advance `top` towards `bottom`).
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Relaxed);
        if b.wrapping_sub(t) <= 0 {
            return None;
        }
        let b = b.wrapping_sub(1);
        let buf = inner.buffer.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        // Order the `bottom` store before the `top` load: either a
        // racing thief sees the reserved bottom, or we see its top.
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        let size = b.wrapping_sub(t);
        if size < 0 {
            // Deque was empty; undo the reservation.
            inner.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            return None;
        }
        let value = unsafe { (*buf).read(b) };
        if size > 0 {
            // More than one element: the bottom is uncontended.
            return Some(unsafe { value.assume_init() });
        }
        // Exactly one element: race thieves for it via the top.
        let won = inner
            .top
            .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        inner.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
        if won {
            Some(unsafe { value.assume_init() })
        } else {
            // A thief got it first; discard the speculative bytes.
            None
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }
}

unsafe impl<T: Send> Send for Worker<T> {}

/// Thief end: steals the oldest task (FIFO), the Cilk-style "steal
/// tasks as big as possible" order. Cheaply cloneable and shareable.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Stealer<T> {
    #[inline]
    pub fn steal(&self) -> Steal<T> {
        self.inner.steal()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }
}

// ---------------------------------------------------------------------
// Injector: lock-free block-based MPMC FIFO
// ---------------------------------------------------------------------

/// Slots per block, including one index per lap reserved as the block
/// boundary (so `LAP - 1` usable slots per block).
const LAP: usize = 32;
const BLOCK_CAP: usize = LAP - 1;
/// Indices advance by `1 << SHIFT`; bit 0 of the head index caches
/// "this block has a successor" so non-boundary steals skip the tail
/// load.
const SHIFT: usize = 1;
const HAS_NEXT: usize = 1;

/// Slot states (bitflags).
const WRITE: usize = 1;
const READ: usize = 2;
const DESTROY: usize = 4;

struct Slot<T> {
    value: UnsafeCell<MaybeUninit<T>>,
    state: AtomicUsize,
}

struct Block<T> {
    next: AtomicPtr<Block<T>>,
    slots: [Slot<T>; BLOCK_CAP],
}

/// Slots in the per-injector cache of retired blocks. Sized for the
/// deepest steady-state backlog the runtime throttles to (a few hundred
/// queued tasks ≈ ten in-flight blocks): with the cache warm, a drain-
/// refill cycle allocates nothing.
const BLOCK_CACHE: usize = 12;

/// Lock-free cache of fully-consumed blocks awaiting reuse. Each slot
/// is an independent single-pointer exchange (`null` = empty), so there
/// is no ABA hazard: `put` installs with a CAS from null and `take`
/// detaches with a swap, both owning the block outright on success.
struct BlockCache<T> {
    slots: [AtomicPtr<Block<T>>; BLOCK_CACHE],
}

impl<T> BlockCache<T> {
    fn new() -> Self {
        BlockCache {
            slots: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        }
    }

    /// Reuse a cached block, already zeroed by `put`.
    fn take(&self) -> Option<*mut Block<T>> {
        for slot in &self.slots {
            // Probe with a plain load first so scanning an empty cache
            // costs loads, not locked exchanges.
            if !slot.load(Ordering::Relaxed).is_null() {
                let p = slot.swap(std::ptr::null_mut(), Ordering::Acquire);
                if !p.is_null() {
                    return Some(p);
                }
            }
        }
        None
    }

    /// Park a retired block for reuse (or free it if the cache is full).
    ///
    /// # Safety
    /// The caller must own `block` exclusively (the same precondition as
    /// deallocating it).
    unsafe fn put(&self, block: *mut Block<T>) {
        // Restore the all-zeroes initial image (`next` null, slot states
        // clear, values uninit) before publishing; the Release CAS makes
        // the zeroing visible to whichever producer takes the block.
        std::ptr::write_bytes(block, 0, 1);
        for slot in &self.slots {
            if slot.load(Ordering::Relaxed).is_null()
                && slot
                    .compare_exchange(
                        std::ptr::null_mut(),
                        block,
                        Ordering::Release,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                return;
            }
        }
        drop(Box::from_raw(block));
    }
}

impl<T> Block<T> {
    fn alloc() -> *mut Block<T> {
        // Null `next`, zero states, uninit values: all-zeroes is a valid
        // initial image for every field.
        unsafe { Box::into_raw(Box::new(MaybeUninit::zeroed().assume_init())) }
    }

    /// Spin until the successor block is installed (the producer that
    /// claimed the last slot is about to store it).
    fn wait_next(&self) -> *mut Block<T> {
        let mut backoff = Backoff::new();
        loop {
            let next = self.next.load(Ordering::Acquire);
            if !next.is_null() {
                return next;
            }
            backoff.snooze();
        }
    }

    /// Reclaim a fully consumed block. Slots `start..` that are not yet
    /// `READ` belong to consumers still copying their value out; the
    /// DESTROY bit hands responsibility for the reclamation to the
    /// last such consumer. (The caller's own slot is excluded — it
    /// initiated the destruction.) The reclaimed block is parked in the
    /// injector's block cache for reuse rather than freed.
    unsafe fn destroy(this: *mut Block<T>, start: usize, cache: &BlockCache<T>) {
        for i in start..BLOCK_CAP - 1 {
            let slot = &(*this).slots[i];
            if slot.state.load(Ordering::Acquire) & READ == 0
                && slot.state.fetch_or(DESTROY, Ordering::AcqRel) & READ == 0
            {
                // A consumer is mid-read; it will continue destruction.
                return;
            }
        }
        cache.put(this);
    }
}

struct Position<T> {
    index: AtomicUsize,
    block: AtomicPtr<Block<T>>,
}

/// Shared FIFO injector queue: lock-free unbounded MPMC over linked
/// blocks of slots.
pub struct Injector<T> {
    head: Position<T>,
    tail: Position<T>,
    /// Retired blocks awaiting reuse; keeps a steady drain-refill cycle
    /// allocation-free (the spawn-side fast path's alloc budget counts
    /// on this).
    cache: BlockCache<T>,
    _marker: PhantomData<T>,
}

unsafe impl<T: Send> Send for Injector<T> {}
unsafe impl<T: Send> Sync for Injector<T> {}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Injector<T> {
    pub fn new() -> Self {
        let first = Block::alloc();
        Injector {
            head: Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(first),
            },
            tail: Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(first),
            },
            cache: BlockCache::new(),
            _marker: PhantomData,
        }
    }

    /// A zeroed block: recycled from the cache when one is parked there,
    /// freshly allocated otherwise.
    fn alloc_block(&self) -> *mut Block<T> {
        self.cache.take().unwrap_or_else(Block::alloc)
    }

    #[inline]
    pub fn push(&self, task: T) {
        let mut backoff = Backoff::new();
        let mut tail = self.tail.index.load(Ordering::Acquire);
        let mut block = self.tail.block.load(Ordering::Acquire);
        let mut next_block: Option<*mut Block<T>> = None;
        loop {
            let offset = (tail >> SHIFT) % LAP;
            if offset == BLOCK_CAP {
                // Another producer is installing the next block.
                backoff.snooze();
                tail = self.tail.index.load(Ordering::Acquire);
                block = self.tail.block.load(Ordering::Acquire);
                continue;
            }
            // About to claim the last usable slot: pre-allocate the
            // successor so the critical publication window stays short.
            if offset + 1 == BLOCK_CAP && next_block.is_none() {
                next_block = Some(self.alloc_block());
            }
            let new_tail = tail.wrapping_add(1 << SHIFT);
            match self.tail.index.compare_exchange_weak(
                tail,
                new_tail,
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                Ok(_) => unsafe {
                    // If this claim filled the block, install its
                    // successor and move the tail to the next lap.
                    if offset + 1 == BLOCK_CAP {
                        let next = next_block.take().unwrap();
                        let next_index = new_tail.wrapping_add(1 << SHIFT);
                        self.tail.block.store(next, Ordering::Release);
                        self.tail.index.store(next_index, Ordering::Release);
                        (*block).next.store(next, Ordering::Release);
                    }
                    let slot = (*block).slots.get_unchecked(offset);
                    slot.value.get().write(MaybeUninit::new(task));
                    slot.state.fetch_or(WRITE, Ordering::Release);
                    if let Some(unused) = next_block {
                        // SAFETY: never published; we own it outright.
                        self.cache.put(unused);
                    }
                    return;
                },
                Err(t) => {
                    tail = t;
                    block = self.tail.block.load(Ordering::Acquire);
                    backoff.snooze();
                }
            }
        }
    }

    #[inline]
    pub fn steal(&self) -> Steal<T> {
        let mut backoff = Backoff::new();
        let (head, block, offset) = loop {
            let head = self.head.index.load(Ordering::Acquire);
            let block = self.head.block.load(Ordering::Acquire);
            let offset = (head >> SHIFT) % LAP;
            if offset == BLOCK_CAP {
                // A consumer is moving the head to the next block.
                backoff.snooze();
            } else {
                break (head, block, offset);
            }
        };
        let mut new_head = head.wrapping_add(1 << SHIFT);
        if new_head & HAS_NEXT == 0 {
            fence(Ordering::SeqCst);
            let tail = self.tail.index.load(Ordering::Relaxed);
            // Equal indices: nothing published.
            if head >> SHIFT == tail >> SHIFT {
                return Steal::Empty;
            }
            // Head and tail in different blocks: remember that this
            // block has (or will have) a successor.
            if (head >> SHIFT) / LAP != (tail >> SHIFT) / LAP {
                new_head |= HAS_NEXT;
            }
        }
        match self.head.index.compare_exchange_weak(
            head,
            new_head,
            Ordering::SeqCst,
            Ordering::Acquire,
        ) {
            Ok(_) => unsafe {
                // Claimed the last slot: swing the head to the next
                // block (the producer side guarantees it exists, since
                // the tail left this block before `head` could reach
                // the end of it).
                if offset + 1 == BLOCK_CAP {
                    let next = (*block).wait_next();
                    let mut next_index = (new_head & !HAS_NEXT).wrapping_add(1 << SHIFT);
                    if !(*next).next.load(Ordering::Relaxed).is_null() {
                        next_index |= HAS_NEXT;
                    }
                    self.head.block.store(next, Ordering::Release);
                    self.head.index.store(next_index, Ordering::Release);
                }
                let slot = (*block).slots.get_unchecked(offset);
                // The producer claimed this slot before we could claim
                // it back, but may not have published the value yet.
                let mut wait = Backoff::new();
                while slot.state.load(Ordering::Acquire) & WRITE == 0 {
                    wait.snooze();
                }
                let task = slot.value.get().read().assume_init();
                // Reclaim the block: the consumer of its last slot
                // sweeps from 0; a consumer handed the DESTROY baton
                // continues from its own successor slot.
                if offset + 1 == BLOCK_CAP {
                    Block::destroy(block, 0, &self.cache);
                } else if slot.state.fetch_or(READ, Ordering::AcqRel) & DESTROY != 0 {
                    Block::destroy(block, offset + 1, &self.cache);
                }
                Steal::Success(task)
            },
            Err(_) => Steal::Retry,
        }
    }

    /// Steal up to `limit` tasks with a **single** head CAS (one fenced
    /// claim instead of one per task): returns the first claimed task and
    /// feeds the rest, oldest-first, to `sink`, so the injector's global
    /// FIFO order is preserved exactly. **Shim extension over upstream
    /// crossbeam** (whose batch steals push into a `Worker`), so a caller
    /// with a private (single-owner, non-stealable) buffer can receive
    /// the batch without paying deque atomics per element; the runtime's
    /// claimed-task buffer is exactly that.
    ///
    /// The claim never crosses a block boundary (so the batch walks one
    /// slot array) and never exceeds what the tail has published; like
    /// [`steal`](Self::steal) it is lock-free and loses races as
    /// [`Steal::Retry`].
    pub fn steal_batch_with_limit_and_collect(
        &self,
        limit: usize,
        sink: &mut impl FnMut(T),
    ) -> Steal<T> {
        assert!(limit >= 1, "batch limit must be at least 1");
        let mut backoff = Backoff::new();
        let (head, block, offset) = loop {
            let head = self.head.index.load(Ordering::Acquire);
            let block = self.head.block.load(Ordering::Acquire);
            let offset = (head >> SHIFT) % LAP;
            if offset == BLOCK_CAP {
                // A consumer is moving the head to the next block.
                backoff.snooze();
            } else {
                break (head, block, offset);
            }
        };
        // How many slots may this claim take? Never past the block's
        // last usable slot, and never past the published tail.
        let mut claim = limit.min(BLOCK_CAP - offset);
        let mut has_next = head & HAS_NEXT != 0;
        if !has_next {
            fence(Ordering::SeqCst);
            let tail = self.tail.index.load(Ordering::Relaxed);
            if head >> SHIFT == tail >> SHIFT {
                return Steal::Empty;
            }
            if (head >> SHIFT) / LAP == (tail >> SHIFT) / LAP {
                // Tail is inside this very block: only the slots below
                // it are published.
                claim = claim.min((tail >> SHIFT) - (head >> SHIFT));
            } else {
                // Tail already left this block: every remaining slot of
                // the block is published and a successor exists.
                has_next = true;
            }
        }
        debug_assert!(claim >= 1);
        let mut new_head = head.wrapping_add(claim << SHIFT);
        if has_next {
            new_head |= HAS_NEXT;
        }
        if self
            .head
            .index
            .compare_exchange_weak(head, new_head, Ordering::SeqCst, Ordering::Acquire)
            .is_err()
        {
            return Steal::Retry;
        }
        unsafe {
            // Claimed through the block's last slot: swing the head to
            // the successor (guaranteed to exist, as in `steal`).
            if offset + claim == BLOCK_CAP {
                let next = (*block).wait_next();
                let mut next_index = (new_head & !HAS_NEXT).wrapping_add(1 << SHIFT);
                if !(*next).next.load(Ordering::Relaxed).is_null() {
                    next_index |= HAS_NEXT;
                }
                self.head.block.store(next, Ordering::Release);
                self.head.index.store(next_index, Ordering::Release);
            }
            let mut first: Option<T> = None;
            for i in 0..claim {
                let slot = (*block).slots.get_unchecked(offset + i);
                // The producer claimed the slot before our CAS but may
                // not have published its value yet.
                let mut wait = Backoff::new();
                while slot.state.load(Ordering::Acquire) & WRITE == 0 {
                    wait.snooze();
                }
                let task = slot.value.get().read().assume_init();
                if first.is_none() {
                    first = Some(task);
                } else {
                    sink(task);
                }
                // Per-slot reclamation hand-off, exactly as in `steal`:
                // the consumer of the block's final slot sweeps from 0;
                // any slot handed the DESTROY baton continues from its
                // successor. Earlier batch slots are already READ by the
                // time the sweep can reach them (they are marked in
                // order below).
                if offset + i + 1 == BLOCK_CAP {
                    Block::destroy(block, 0, &self.cache);
                } else if slot.state.fetch_or(READ, Ordering::AcqRel) & DESTROY != 0 {
                    Block::destroy(block, offset + i + 1, &self.cache);
                }
            }
            Steal::Success(first.unwrap())
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        let head = self.head.index.load(Ordering::SeqCst);
        let tail = self.tail.index.load(Ordering::SeqCst);
        head >> SHIFT == tail >> SHIFT
    }

    pub fn len(&self) -> usize {
        loop {
            let mut tail = self.tail.index.load(Ordering::SeqCst);
            let mut head = self.head.index.load(Ordering::SeqCst);
            // Consistent snapshot of both indices.
            if self.tail.index.load(Ordering::SeqCst) == tail {
                tail &= !HAS_NEXT;
                head &= !HAS_NEXT;
                // Indices parked on a block boundary belong to the next
                // lap.
                if (tail >> SHIFT) % LAP == BLOCK_CAP {
                    tail = tail.wrapping_add(1 << SHIFT);
                }
                if (head >> SHIFT) % LAP == BLOCK_CAP {
                    head = head.wrapping_add(1 << SHIFT);
                }
                // Rebase so head falls into lap 0, then discount one
                // boundary index per full lap between them.
                let lap = (head >> SHIFT) / LAP;
                tail = tail.wrapping_sub((lap * LAP) << SHIFT);
                head = head.wrapping_sub((lap * LAP) << SHIFT);
                tail >>= SHIFT;
                head >>= SHIFT;
                return tail - head - tail / LAP;
            }
        }
    }
}

impl<T> Drop for Injector<T> {
    fn drop(&mut self) {
        // Exclusive access: walk head..tail dropping unconsumed tasks
        // and every remaining block.
        let mut head = *self.head.index.get_mut() & !HAS_NEXT;
        let tail = *self.tail.index.get_mut() & !HAS_NEXT;
        let mut block = *self.head.block.get_mut();
        unsafe {
            while head != tail {
                let offset = (head >> SHIFT) % LAP;
                if offset < BLOCK_CAP {
                    let slot = &(*block).slots[offset];
                    debug_assert!(slot.state.load(Ordering::Relaxed) & WRITE != 0);
                    (*slot.value.get()).assume_init_drop();
                } else {
                    let next = *(*block).next.get_mut();
                    drop(Box::from_raw(block));
                    block = next;
                }
                head = head.wrapping_add(1 << SHIFT);
            }
            drop(Box::from_raw(block));
            // Free the parked reusable blocks as well.
            for slot in &mut self.cache.slots {
                let p = *slot.get_mut();
                if !p.is_null() {
                    drop(Box::from_raw(p));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_owner_fifo_thief() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert!(s.steal().is_empty());
    }

    #[test]
    fn injector_is_fifo_across_threads() {
        let inj = std::sync::Arc::new(Injector::new());
        for i in 0..100 {
            inj.push(i);
        }
        let mut out: Vec<i32> = Vec::new();
        while let Steal::Success(v) = inj.steal() {
            out.push(v);
        }
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn worker_grows_past_initial_capacity() {
        let w = Worker::new_lifo();
        let n = (MIN_CAP * 5) as i64;
        for i in 0..n {
            w.push(i);
        }
        assert_eq!(w.len(), n as usize);
        for i in (0..n).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert!(w.is_empty());
    }

    #[test]
    fn injector_len_across_blocks() {
        let inj = Injector::new();
        assert!(inj.is_empty());
        assert_eq!(inj.len(), 0);
        let n = 5 * BLOCK_CAP + 7;
        for i in 0..n {
            inj.push(i);
        }
        assert_eq!(inj.len(), n);
        for _ in 0..n / 2 {
            assert!(inj.steal().is_success());
        }
        assert_eq!(inj.len(), n - n / 2);
    }

    #[test]
    fn injector_drop_frees_unconsumed_tasks() {
        // Leak-checked indirectly: Arc strong counts must return to 1.
        let probe = Arc::new(());
        {
            let inj = Injector::new();
            for _ in 0..100 {
                inj.push(Arc::clone(&probe));
            }
            for _ in 0..40 {
                assert!(inj.steal().is_success());
            }
        }
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn worker_drop_frees_unpopped_tasks() {
        let probe = Arc::new(());
        {
            let w = Worker::new_lifo();
            for _ in 0..50 {
                w.push(Arc::clone(&probe));
            }
            let s = w.stealer();
            assert!(s.steal().is_success());
            assert!(w.pop().is_some());
        }
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    /// The batch size the runtime claims with.
    const BATCH: usize = 8;

    #[test]
    fn batch_pop_preserves_fifo_order() {
        let inj = Injector::new();
        let n = 3 * BLOCK_CAP + 11; // spans block boundaries
        for i in 0..n {
            inj.push(i);
        }
        let mut out = Vec::new();
        loop {
            let mut rest = Vec::new();
            match inj.steal_batch_with_limit_and_collect(BATCH, &mut |v| rest.push(v)) {
                Steal::Success(v) => {
                    out.push(v);
                    out.append(&mut rest);
                }
                Steal::Empty => break,
                Steal::Retry => {}
            }
        }
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn batch_pop_respects_limit_and_tail() {
        let inj = Injector::new();
        for i in 0..5 {
            inj.push(i);
        }
        let mut rest = Vec::new();
        // Limit 3: first returned, exactly 2 collected.
        let got = inj.steal_batch_with_limit_and_collect(3, &mut |v| rest.push(v));
        assert_eq!(got, Steal::Success(0));
        assert_eq!(rest, [1, 2]);
        // Only 2 left: a large limit must not over-claim.
        let got = inj.steal_batch_with_limit_and_collect(64, &mut |v| rest.push(v));
        assert_eq!(got, Steal::Success(3));
        assert_eq!(rest, [1, 2, 4]);
        assert!(inj
            .steal_batch_with_limit_and_collect(BATCH, &mut |v| rest.push(v))
            .is_empty());
    }

    #[test]
    fn batch_pop_reclaims_blocks_without_leaks() {
        let probe = Arc::new(());
        {
            let inj = Injector::new();
            for _ in 0..4 * BLOCK_CAP {
                inj.push(Arc::clone(&probe));
            }
            let mut got = 0;
            loop {
                match inj.steal_batch_with_limit_and_collect(BATCH, &mut |v| {
                    drop(v);
                    got += 1;
                }) {
                    Steal::Success(v) => {
                        drop(v);
                        got += 1;
                    }
                    Steal::Empty => break,
                    Steal::Retry => {}
                }
            }
            assert_eq!(got, 4 * BLOCK_CAP);
        }
        assert_eq!(Arc::strong_count(&probe), 1);
    }
}
