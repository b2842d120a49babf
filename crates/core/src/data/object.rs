//! Whole-object data handles and their version state.
//!
//! A [`Handle<T>`] names one logical datum — in the paper, one task
//! parameter address, e.g. one hyper-matrix block. The object's state holds
//! the *current version* (buffer + producer task + pending-reader count);
//! the dependency analyser in [`crate::dep`] consults and rewrites this
//! state at every task invocation.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use super::slab::{ReuseKey, VersionSlab};
use super::version::{MemTicket, VBuf};
use super::TaskData;
use crate::graph::node::TaskNode;
use crate::ids::ObjectId;

/// Single-owner state cell: the BENCH_0004 "shrunken object lock".
///
/// Since the completion side went lock-free (read windows close through
/// the counter embedded in the version buffer), **only the spawning
/// thread** ever touches an object's version state: the dependency
/// analyser and the main-thread access helpers (`wait_on`, `read`,
/// `update`) all run on the one thread `Runtime: !Sync` pins spawning
/// to. The former `Mutex<ObjState>` therefore only ever saw uncontended
/// acquire/release pairs — two locked RMWs per task parameter bought
/// nothing. This cell keeps the mutex's *interface* (`lock()` returns a
/// guard) and its bug-tripwire (re-entry or a cross-thread race panics
/// via the flag below) while costing two unfenced atomic ops.
///
/// # Safety invariant
/// All access is **mutually exclusive per object**. In the default
/// single-spawner mode this is structural — `Runtime` is `!Sync`
/// (compile-fail doctest), task bodies receive bindings, never handles,
/// and no worker-side code path names `DataObject::state` — so only the
/// one spawning thread ever enters. Once a [`Session`](crate::Session)
/// is open, session threads analyse beside the main thread, but every
/// entry to an object's cell happens under the runtime's one *analysis
/// gate* (`runtime::shard`), so two threads can never hold the same
/// object's state at once — they exclude each other on the gate before
/// the cell is touched, and the gate's Acquire/Release pair carries the
/// state written by the previous holder. Either way the swap-based flag
/// converts a future violation into a deterministic panic rather than a
/// silent race in any build profile, exactly like `VBuf`'s validation
/// windows.
pub(crate) struct SpawnerCell<S> {
    cell: UnsafeCell<S>,
    /// Occupancy tripwire (not a lock: no spinning, no parking).
    busy: AtomicBool,
}

// SAFETY: see the safety invariant above — the runtime structurally
// serialises all access onto the spawning thread; the flag makes a
// violation panic instead of race.
unsafe impl<S: Send> Sync for SpawnerCell<S> {}

impl<S> SpawnerCell<S> {
    pub(crate) fn new(state: S) -> Self {
        SpawnerCell {
            cell: UnsafeCell::new(state),
            busy: AtomicBool::new(false),
        }
    }

    /// Enter the cell. Named `lock` to keep the mutex interface: call
    /// sites read identically, only the cost changed. The flag ops are
    /// Relaxed plain load + store — the cell provides no inter-thread
    /// synchronisation because, by invariant, there are no other
    /// threads to synchronise with; the tripwire deterministically
    /// catches re-entry (and catches, without guaranteeing to, a
    /// cross-thread violation).
    pub(crate) fn lock(&self) -> SpawnerGuard<'_, S> {
        assert!(
            !self.busy.load(Ordering::Relaxed),
            "SMPSs invariant violated: concurrent object-state access \
             (analysis is single-threaded, or gated once sessions open)"
        );
        self.busy.store(true, Ordering::Relaxed);
        SpawnerGuard { owner: self }
    }
}

/// Guard for [`SpawnerCell`]; releases the occupancy flag on drop.
pub(crate) struct SpawnerGuard<'a, S> {
    owner: &'a SpawnerCell<S>,
}

impl<S> std::ops::Deref for SpawnerGuard<'_, S> {
    type Target = S;

    fn deref(&self) -> &S {
        // SAFETY: the busy flag grants exclusive access until drop.
        unsafe { &*self.owner.cell.get() }
    }
}

impl<S> std::ops::DerefMut for SpawnerGuard<'_, S> {
    fn deref_mut(&mut self) -> &mut S {
        // SAFETY: as in `deref`.
        unsafe { &mut *self.owner.cell.get() }
    }
}

impl<S> Drop for SpawnerGuard<'_, S> {
    fn drop(&mut self) {
        self.owner.busy.store(false, Ordering::Relaxed);
    }
}

/// The current version of an object.
pub(crate) struct CurrentVersion<T> {
    /// The version buffer; its embedded [`ReadWindow`] counts
    /// spawned-but-unfinished readers and drives the renaming decision
    /// for `inout` (a live reader forces a fresh version + copy-in).
    /// Windows are closed lock-free by completing workers — see
    /// [`ReadWindow`]'s protocol docs.
    pub(crate) buf: Arc<VBuf<T>>,
    /// Last task that writes this version (None: settled initial data).
    /// Retained after completion so graph recording sees structural edges.
    pub(crate) producer: Option<Arc<TaskNode>>,
}

/// Mutable object state, guarded by the object mutex. Only the spawning
/// thread rewrites it (dependency analysis is performed on the main thread,
/// §III), but readers' pending counts are decremented from worker threads.
pub(crate) struct ObjState<T> {
    pub(crate) current: CurrentVersion<T>,
    /// Unfinished readers of the current version — only maintained when
    /// renaming is disabled, to generate anti-dependency edges instead.
    pub(crate) readers_list: Vec<Arc<TaskNode>>,
}

pub(crate) struct DataObject<T: TaskData> {
    pub(crate) id: ObjectId,
    /// Allocates a fresh, correctly-shaped buffer for renaming.
    pub(crate) alloc: Box<dyn Fn() -> T + Send + Sync>,
    /// Bytes one version of this object occupies (for the §III memory
    /// limit; a declared figure like the paper's dimension specifiers).
    pub(crate) version_bytes: usize,
    /// Runtime-wide live-version byte counter.
    pub(crate) acct: Arc<AtomicUsize>,
    /// The runtime-wide version slab, where renamed-away versions park
    /// until a rename of the same shape reuses them.
    slab: Arc<VersionSlab>,
    /// This object's slab bucket: shared scope when the declared byte
    /// size is an exact shape contract (`data_sized`), private scope
    /// otherwise — see [`ReuseKey`] for why that distinction is load-
    /// bearing.
    reuse_key: ReuseKey,
    pub(crate) state: SpawnerCell<ObjState<T>>,
}

impl<T: TaskData> DataObject<T> {
    pub(crate) fn new(
        id: ObjectId,
        value: T,
        alloc: Box<dyn Fn() -> T + Send + Sync>,
        version_bytes: usize,
        acct: Arc<AtomicUsize>,
        slab: Arc<VersionSlab>,
        shape_exact: bool,
    ) -> Self {
        let ticket = MemTicket::new(version_bytes, Arc::clone(&acct));
        slab.note_peak(acct.load(Ordering::Acquire));
        let reuse_key = if shape_exact {
            ReuseKey::shared::<VBuf<T>>(version_bytes)
        } else {
            ReuseKey::owned::<VBuf<T>>(version_bytes, id.0)
        };
        DataObject {
            id,
            alloc,
            version_bytes,
            acct,
            slab,
            reuse_key,
            state: SpawnerCell::new(ObjState {
                current: CurrentVersion {
                    buf: Arc::new(VBuf::with_ticket(value, ticket)),
                    producer: None,
                },
                readers_list: Vec::new(),
            }),
        }
    }

    /// A fresh version buffer for the renamer, with its own memory
    /// ticket.
    pub(crate) fn fresh_version_buf(&self) -> Arc<VBuf<T>> {
        let ticket = MemTicket::new(self.version_bytes, Arc::clone(&self.acct));
        self.slab.note_peak(self.acct.load(Ordering::Acquire));
        Arc::new(VBuf::with_ticket((self.alloc)(), ticket))
    }

    /// The renamer's version switch, shared by every renaming branch of
    /// `dep::{write, inout}`: install a version with `producer` as its
    /// writer and park the displaced one in the slab. Returns
    /// `(new buffer, displaced buffer)` — the displaced buffer is what a
    /// renamed `inout` copies in from.
    ///
    /// One shelf gate entry ([`VersionSlab::begin`] + `ShelfGuard::park`)
    /// probes for a dead same-shape spare and parks the displaced
    /// version; a miss releases the gate before allocating, so a slow
    /// `alloc` never stalls other renamers of the class. Parking moves
    /// the displaced `Arc` instead of cloning it. The caller's copy-in
    /// clone is taken before the park, so the parked entry's strong
    /// count stays ≥ 2 until the rename is fully wired and a concurrent
    /// probe can never see it dead early — deadness is strictly "only
    /// the slab holds it". A recycled buffer keeps its creation-time
    /// memory ticket; only a fresh allocation mints one.
    #[inline(always)]
    pub(crate) fn rename_current(
        &self,
        st: &mut ObjState<T>,
        producer: Arc<TaskNode>,
    ) -> (Arc<VBuf<T>>, Arc<VBuf<T>>) {
        let (guard, found) = self.slab.begin(self.reuse_key);
        let buf = match found {
            Some(any) => {
                // SAFETY: the probe only returns entries whose `ReuseKey`
                // equals ours, and the key carries `TypeId::of::<VBuf<T>>()`
                // (set in `Runtime::{data, data_sized, data_with_alloc}`),
                // so the erased type is exactly `VBuf<T>`. This is
                // `Arc::downcast` minus its virtual `type_id` re-check,
                // which the key equality already performed under the gate.
                let buf = unsafe { Arc::from_raw(Arc::into_raw(any) as *const VBuf<T>) };
                buf.window().reset_for_reuse();
                buf
            }
            None => {
                drop(guard);
                let buf = self.fresh_version_buf();
                let old = self.install(st, &buf, producer);
                let old_buf = Arc::clone(&old);
                self.slab.park_displaced(self.reuse_key, old as _);
                return (buf, old_buf);
            }
        };
        let old = self.install(st, &buf, producer);
        let old_buf = Arc::clone(&old);
        guard.park(self.reuse_key, old as _);
        (buf, old_buf)
    }

    /// Make `buf`, written by `producer`, the current version; returns
    /// the displaced buffer.
    #[inline(always)]
    fn install(
        &self,
        st: &mut ObjState<T>,
        buf: &Arc<VBuf<T>>,
        producer: Arc<TaskNode>,
    ) -> Arc<VBuf<T>> {
        let old = std::mem::replace(
            &mut st.current,
            CurrentVersion {
                buf: Arc::clone(buf),
                producer: Some(producer),
            },
        );
        old.buf
    }
}

/// Handle to a runtime-managed, versioned data object.
///
/// Cloning a handle clones the *name*, not the data: both handles refer to
/// the same logical object, exactly like two copies of the same pointer in
/// the paper's C programs. Create handles with
/// [`Runtime::data`](crate::Runtime::data).
pub struct Handle<T: TaskData> {
    pub(crate) obj: Arc<DataObject<T>>,
}

impl<T: TaskData> Clone for Handle<T> {
    fn clone(&self) -> Self {
        Handle {
            obj: Arc::clone(&self.obj),
        }
    }
}

impl<T: TaskData> Handle<T> {
    /// Stable identifier of the logical object.
    pub fn id(&self) -> ObjectId {
        self.obj.id
    }

    /// Do these handles name the same logical object?
    pub fn same_object(&self, other: &Handle<T>) -> bool {
        Arc::ptr_eq(&self.obj, &other.obj)
    }
}

impl<T: TaskData> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handle({:?})", self.obj.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj_in(v: i32, bytes: usize, slab: Arc<VersionSlab>) -> DataObject<i32> {
        DataObject::new(
            ObjectId(1),
            v,
            Box::new(|| 0),
            bytes,
            Arc::new(AtomicUsize::new(0)),
            slab,
            true,
        )
    }

    fn obj(v: i32) -> DataObject<i32> {
        obj_in(v, 4, Arc::new(VersionSlab::new(1 << 20)))
    }

    /// An object's displaced versions park in the slab, and an over-cap
    /// park evicts the minimum-age one, not whatever sits in the front
    /// slot. A reclaim that swap-removes a dead front entry moves the
    /// newest version to the front; the next over-cap park must still
    /// evict the oldest.
    #[test]
    fn legacy_eviction_picks_minimum_age_not_front_slot() {
        const BYTES: usize = 4096;
        let slab = Arc::new(VersionSlab::new(3 * BYTES));
        let o = obj_in(0, BYTES, Arc::clone(&slab));
        let mut st = o.state.lock();
        let producer = TaskNode::new(crate::ids::TaskId(1), "w", crate::runtime::Priority::Normal);
        // Rename four times, holding every displaced version as a reader
        // would: v0 (the initial one) .. v3 park in age order.
        let mut held: Vec<_> = (0..4)
            .map(|_| o.rename_current(&mut st, Arc::clone(&producer)).1)
            .collect();
        // Four parked entries exceed the three-entry cap: v0, the oldest
        // and front one, went first.
        assert_eq!(Arc::strong_count(&held[0]), 1, "the oldest was evicted");
        // v1 dies; reclaiming it swap-removes v3 into the front slot.
        held.remove(1);
        assert_eq!(slab.reclaim(1), BYTES);
        // Two more renames reuse nothing (every parked entry is read)
        // and park v4 and v5; the second goes over the cap again.
        for _ in 0..2 {
            held.push(o.rename_current(&mut st, Arc::clone(&producer)).1);
        }
        // v2, the minimum age but not in the front slot, was evicted.
        let parked: Vec<usize> = held[1..].iter().map(Arc::strong_count).collect();
        assert_eq!(
            parked,
            vec![1, 2, 2, 2],
            "v2 evicted; v3, v4 and v5 still parked"
        );
        assert_eq!(slab.counters().evicted_live, 2);
    }

    #[test]
    fn fresh_object_is_settled() {
        let o = obj(5);
        let st = o.state.lock();
        assert!(st.current.producer.is_none());
        assert_eq!(st.current.buf.window().pending_acquire(), 0);
        unsafe { assert_eq!(*st.current.buf.peek(), 5) };
    }

    #[test]
    fn handle_identity() {
        let h = Handle {
            obj: Arc::new(obj(1)),
        };
        let h2 = h.clone();
        assert!(h.same_object(&h2));
        assert_eq!(h.id(), h2.id());
        let other = Handle {
            obj: Arc::new(obj(1)),
        };
        assert!(!h.same_object(&other));
    }
}
