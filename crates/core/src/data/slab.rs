//! The runtime-wide size-classed version slab (BENCH_0009).
//!
//! Renaming (§III of the paper) trades storage for parallelism: every
//! rename displaces the current version buffer, and until BENCH_0009
//! each object parked at most two displaced buffers in a private
//! `retired` list. That shape had two costs the ISSUE names: reusable
//! buffers stranded on cold objects (a hot object allocates while a
//! cold one hoards identical spares), and an eviction policy whose
//! book-keeping lived per object, invisible to the runtime-wide
//! memory throttle.
//!
//! This module replaces the per-object spares with one **slab** shared
//! by every object of the runtime, modeled on moor's tuplebox
//! (`pool/size_class.rs` + `tuples/slotbox.rs`): displaced buffers are
//! parked into power-of-two **size-class shelves**, reuse probes the
//! shelf for a dead buffer of the exact same shape, and a single
//! occupancy account (parked bytes per shelf, summed on demand) gives
//! the throttle something real to reclaim against.
//!
//! # Accounting invariant
//!
//! A version buffer's [`MemTicket`](super::version::MemTicket) lives
//! *inside* the buffer ([`VBuf`](super::version::VBuf)) and is released
//! only by the buffer's final `Arc` drop. Parking, probing, trimming
//! and even evicting a still-read buffer from the slab move `Arc`
//! clones around — none of them can release bytes a reader still has
//! resident. `live_bytes` therefore counts exactly the resident
//! version buffers (current versions + parked spares + evicted spares
//! still held by readers) from allocation to final reader release, by
//! construction. The regression tests in `tests/slab_semantics.rs`
//! hold a read window across a live eviction and assert the account to
//! the byte.
//!
//! # Concurrency discipline
//!
//! Same no-mutex rules as the analysis gate and completion paths (pinned by the
//! workspace test `tests/lock_free_sources.rs`):
//! each shelf is a one-word CAS gate in front of plain state, exactly
//! the [`LaneGate`](crate::runtime::shard::LaneGate) shape. Gates are
//! never nested — a caller holds at most one shelf gate, and the
//! analyser's analysis-gate → object-cell → shelf-gate order is a strict
//! hierarchy — so there is nothing to deadlock on. Deadness of a
//! parked buffer is `Arc::strong_count == 1` (only the slab holds it)
//! followed by an Acquire fence pairing with the last dropped `Arc`'s
//! Release decrement, the same protocol the per-object pool used.
//!
//! The rename hot path ([`VersionSlab::begin`] + [`ShelfGuard::park`])
//! takes **one** gate entry to both probe for a spare and park the
//! displaced buffer, and the guard lets the renamer park **by move**
//! after the probe has answered — refcount parity with the legacy
//! in-cell pool (one `Arc` clone for the copy-in source, zero for
//! parking). On a hit no shared counter moves at all: the per-shelf
//! byte gauge is unchanged (one buffer in, one out, same class) and
//! the hit/age counters are plain fields under the gate.

use std::alloc::Layout;
use std::any::{Any, TypeId};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::padded::CachePadded;
use crate::sched::queues::Backoff;

/// Number of power-of-two size classes. Class `i` holds buffers whose
/// declared byte size rounds up to `2^i`; 48 classes cover every
/// realistic version size (up to 128 TiB) with one cache-padded shelf
/// each — a few KiB of runtime state total.
const CLASSES: usize = 48;

/// Bounded probe depth for the dead-buffer scan. The shelf is a FIFO:
/// renames park at the back and readers drain in rough spawn order, so
/// the *oldest* entries (the front) are the ones whose readers have
/// finished — a reusable buffer is almost always within the first few.
/// Past `PROBE` the scan gives up and allocates rather than walking a
/// long shelf under the gate.
const PROBE: usize = 16;

/// Default cap on total parked (spare) bytes when neither
/// [`slab_spare_bytes`](crate::RuntimeBuilder::slab_spare_bytes) nor a
/// [`memory_limit`](crate::RuntimeBuilder::memory_limit) is configured.
pub(crate) const DEFAULT_SPARE_CAP: usize = 64 << 20;

/// Identity of a reusable buffer shape. Two buffers are interchangeable
/// exactly when their keys are equal: same concrete `VBuf<T>` type,
/// same declared byte size, and the same reuse scope. The key also
/// carries what one parked entry of this shape costs the spare cap
/// (`charge`, derived from the other fields).
///
/// The scope (`owner`) is what keeps cross-object reuse sound:
/// [`data_sized`](crate::Runtime::data_sized) declares its byte figure
/// as an exact shape contract (the paper's dimension specifiers), so
/// those buffers park with `owner == 0` and any object of the same
/// type + size may resurrect them. Objects created through
/// [`data`](crate::Runtime::data) only declare `size_of::<T>()`, which
/// says nothing about heap shape (a `Vec<f32>`'s length, say) — their
/// buffers park under their own object id and only that object reuses
/// them, which is precisely the per-object pool's guarantee.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReuseKey {
    tid: TypeId,
    bytes: usize,
    owner: u64,
    /// Bytes one parked entry of this shape holds resident, charged
    /// against the spare cap: the declared size, but never less than
    /// the buffer's `Arc` allocation plus its [`Parked`] entry. Without
    /// the floor an 8-byte `data()` version counted 8 bytes against the
    /// cap while holding ~100, so small spares parked without bound.
    charge: usize,
    /// `class_of(bytes)`, precomputed once per object so the rename
    /// hot path indexes its shelf without re-deriving the class.
    class: u8,
}

// `charge` and `class` are derived from the other fields, so equality
// is over the three identity fields only — fewer compares on the
// probe's hot path.
impl PartialEq for ReuseKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner && self.bytes == other.bytes && self.tid == other.tid
    }
}

impl Eq for ReuseKey {}

impl ReuseKey {
    /// Key for a shape-exact object (`data_sized`): shared scope.
    pub(crate) fn shared<V: 'static>(bytes: usize) -> Self {
        ReuseKey {
            tid: TypeId::of::<V>(),
            bytes,
            owner: 0,
            charge: bytes.max(resident_floor::<V>()),
            class: VersionSlab::class_of(bytes) as u8,
        }
    }

    /// Key for a `size_of`-declared object (`data`): private scope.
    /// `id + 1` so no object collides with the shared scope's 0.
    pub(crate) fn owned<V: 'static>(bytes: usize, id: u64) -> Self {
        ReuseKey {
            tid: TypeId::of::<V>(),
            bytes,
            owner: id + 1,
            charge: bytes.max(resident_floor::<V>()),
            class: VersionSlab::class_of(bytes) as u8,
        }
    }
}

/// What a parked `V` holds resident at the least: its `Arc` allocation
/// (two reference counts, then `V`, as `ArcInner` lays it out) plus the
/// slab's [`Parked`] entry.
fn resident_floor<V>() -> usize {
    let counts = Layout::new::<[usize; 2]>();
    let (arc_inner, _) = counts
        .extend(Layout::new::<V>())
        .expect("a version buffer's layout fits in memory");
    arc_inner.pad_to_align().size() + std::mem::size_of::<Parked>()
}

/// One parked version buffer. The `Arc` is the slab's clone of the
/// buffer; its memory ticket stays inside the buffer (see the module
/// docs' accounting invariant).
struct Parked {
    buf: Arc<dyn Any + Send + Sync>,
    key: ReuseKey,
    /// Stamp from the shelf clock; eviction picks the minimum, so the
    /// tail-scrambling `swap_remove_back` never changes which entry is
    /// "oldest".
    age: u64,
}

/// Shelf state, owned by whoever holds the shelf gate. All plain
/// fields: counters here cost nothing on the hot path and are summed
/// gate-by-gate when a [`StatsSnapshot`](crate::StatsSnapshot) wants
/// them.
struct ShelfState {
    entries: VecDeque<Parked>,
    /// Parked bytes on this shelf, each entry at its key's `charge`
    /// (mirrored to the gate-free gauge on guard drop).
    bytes: usize,
    clock: u64,
    hits: u64,
    evicted_dead: u64,
    evicted_live: u64,
}

/// One size class: a CAS gate in front of the shelf state, plus a
/// gate-free byte gauge so the cap check, `reclaim`'s skip logic and
/// the stats gauges never take gates they don't need.
struct ClassShelf {
    busy: AtomicBool,
    gauge: AtomicUsize,
    state: UnsafeCell<ShelfState>,
}

// SAFETY: `state` is only touched through `ShelfEntry`, which owns the
// gate; the Acquire/Release pair on `busy` carries the state between
// consecutive holders (same argument as `LaneGate`).
unsafe impl Sync for ClassShelf {}

impl ClassShelf {
    fn new() -> Self {
        ClassShelf {
            busy: AtomicBool::new(false),
            gauge: AtomicUsize::new(0),
            state: UnsafeCell::new(ShelfState {
                entries: VecDeque::new(),
                bytes: 0,
                clock: 0,
                hits: 0,
                evicted_dead: 0,
                evicted_live: 0,
            }),
        }
    }

    /// Own the shelf. `concurrent` is the runtime's slab-access mode as
    /// the caller read it from [`VersionSlab::concurrent`]:
    ///
    /// * `true` — spin until this thread owns the shelf. Hold times are
    ///   a bounded probe plus O(1) queue surgery, so the analysis-gate
    ///   argument for CAS + backoff over parking machinery applies
    ///   verbatim.
    /// * `false` — single-spawner mode: until a session exists every
    ///   slab entry (rename, throttle reclaim, trim, stats)
    ///   runs on the one spawning thread `Runtime: !Sync` pins analysis
    ///   to, and workers only ever drop buffer `Arc`s, never touch shelf
    ///   state. An entry made in this mode cannot race a later
    ///   concurrent one: the runtime's spawner latch switches the mode
    ///   on the main thread, outside any slab call, before the first
    ///   other spawner exists. The object
    ///   cells above the slab in the rename path already carry a
    ///   release-mode `SpawnerCell` tripwire for exactly this
    ///   invariant, so the shelf keeps only a debug-build re-entry
    ///   check and the release gate costs nothing. This is what keeps
    ///   the slab's rename hot path at refcount *and* fence parity
    ///   with the legacy in-cell pool on the default runtime shape.
    #[inline(always)]
    fn enter(&self, concurrent: bool) -> ShelfEntry<'_> {
        if concurrent {
            let mut backoff = Backoff::new();
            while self
                .busy
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                backoff.snooze();
            }
        } else {
            // Single-spawner mode: every caller is already pinned to
            // the one spawning thread (`Runtime: !Sync`, and the object
            // cells above this in the rename path carry their own
            // release-mode tripwire), so the gate reduces to a
            // debug-build re-entry check and costs nothing in release.
            debug_assert!(
                !self.busy.swap(true, Ordering::Relaxed),
                "SMPSs invariant violated: concurrent version-slab access \
                 (slab entry is single-threaded until a session exists)"
            );
        }
        ShelfEntry {
            shelf: self,
            concurrent,
        }
    }
}

/// Exclusive occupancy of one shelf; syncs the byte gauge and releases
/// the gate on drop.
struct ShelfEntry<'a> {
    shelf: &'a ClassShelf,
    /// The access mode this entry was made in: selects whether drop
    /// must publish the gate word (CAS mode) or only clear the
    /// debug-build tripwire.
    concurrent: bool,
}

impl std::ops::Deref for ShelfEntry<'_> {
    type Target = ShelfState;

    fn deref(&self) -> &ShelfState {
        // SAFETY: the gate grants exclusive access until drop.
        unsafe { &*self.shelf.state.get() }
    }
}

impl std::ops::DerefMut for ShelfEntry<'_> {
    fn deref_mut(&mut self) -> &mut ShelfState {
        // SAFETY: as in `deref`.
        unsafe { &mut *self.shelf.state.get() }
    }
}

impl Drop for ShelfEntry<'_> {
    #[inline]
    fn drop(&mut self) {
        let bytes = self.bytes;
        self.shelf.gauge.store(bytes, Ordering::Relaxed);
        if self.concurrent {
            self.shelf.busy.store(false, Ordering::Release);
        } else if cfg!(debug_assertions) {
            self.shelf.busy.store(false, Ordering::Relaxed);
        }
    }
}

impl ShelfState {
    /// Append a parked buffer (by move — parking spends no `Arc` clone).
    #[inline]
    fn push(&mut self, key: ReuseKey, buf: Arc<dyn Any + Send + Sync>) {
        let age = self.clock;
        self.clock += 1;
        self.bytes += key.charge;
        self.entries.push_back(Parked { buf, key, age });
    }
}

/// Exclusive occupancy of one shelf across the renamer's
/// probe-then-park window. Created by [`VersionSlab::begin`]; consumed
/// by [`park`](Self::park), whose return releases the gate.
pub(crate) struct ShelfGuard<'a> {
    st: ShelfEntry<'a>,
    /// Set on a `begin` hit: the probe removed a same-class buffer
    /// without debiting `bytes`, and the `park` that must follow (the
    /// renamer always parks after a hit) skips the matching credit.
    balanced: bool,
}

impl ShelfGuard<'_> {
    /// Park a displaced buffer on the held shelf **by move** and
    /// release the gate. After a `begin` hit the shelf's byte total is
    /// unchanged (one buffer out, one in, same class), so the whole
    /// switch touches no shared gauge beyond the gate word.
    #[inline(always)]
    pub(crate) fn park(mut self, key: ReuseKey, buf: Arc<dyn Any + Send + Sync>) {
        let balanced = self.balanced;
        let st = &mut *self.st;
        let age = st.clock;
        st.clock += 1;
        if !balanced {
            st.bytes += key.charge;
        }
        st.entries.push_back(Parked { buf, key, age });
    }
}

/// Evict one entry from a shelf: a dead one from the front `PROBE`
/// entries if any (its ticket drop releases the bytes immediately),
/// else the minimum-age one in that window — the queue is pushed at
/// the back, so the front region is the oldest, and the age stamps
/// make the pick exact even after `swap_remove_back` scrambles the
/// tail. O(1): swap the pick to the front, pop it. Returns the
/// evicted entry's charge.
fn evict_one(st: &mut ShelfState) -> Option<usize> {
    if st.entries.is_empty() {
        return None;
    }
    let probe = st.entries.len().min(PROBE);
    let mut pick = 0;
    let mut dead = false;
    for i in 0..probe {
        if Arc::strong_count(&st.entries[i].buf) == 1 {
            pick = i;
            dead = true;
            break;
        }
        if st.entries[i].age < st.entries[pick].age {
            pick = i;
        }
    }
    if pick != 0 {
        st.entries.swap(0, pick);
    }
    let p = st.entries.pop_front().expect("checked non-empty");
    st.bytes -= p.key.charge;
    if dead {
        st.evicted_dead += 1;
    } else {
        // A live eviction only drops the slab's clone: readers keep the
        // buffer (and its memory ticket) resident through their own
        // Arcs, so no bytes are released before the last reader drops.
        st.evicted_live += 1;
    }
    Some(p.key.charge)
}

/// Aggregated slab counters for [`StatsSnapshot`](crate::StatsSnapshot).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SlabCounters {
    pub(crate) hits: u64,
    pub(crate) evicted_dead: u64,
    pub(crate) evicted_live: u64,
    pub(crate) parked_bytes: usize,
}

/// The runtime-wide size-classed version store. One per runtime,
/// shared by every [`DataObject`](super::object::DataObject) through an
/// `Arc`; the only place renamed-away versions park.
pub(crate) struct VersionSlab {
    shelves: Box<[CachePadded<ClassShelf>]>,
    /// Cap on total parked bytes across all shelves. Parking past it
    /// trims oldest-first, so an idle program never hoards more spare
    /// bytes than this (the per-object pool's 2-spares-per-object cap,
    /// globalised).
    cap: usize,
    /// Whether slab entries can come from more than one thread (a
    /// session exists); selects the shelf-gate flavor in
    /// [`ClassShelf::enter`]. False at build; only the runtime's spawner
    /// latch (`Runtime::latch_spawners`) sets it.
    pub(crate) concurrent: AtomicBool,
    /// High-water mark of the runtime-wide live-version account,
    /// sampled on every fresh allocation (the only moment the account
    /// can grow).
    peak: AtomicUsize,
}

impl VersionSlab {
    pub(crate) fn new(cap: usize) -> Self {
        VersionSlab {
            shelves: (0..CLASSES)
                .map(|_| CachePadded::new(ClassShelf::new()))
                .collect(),
            cap,
            concurrent: AtomicBool::new(false),
            peak: AtomicUsize::new(0),
        }
    }

    /// The access mode for one shelf entry.
    #[inline(always)]
    fn mode(&self) -> bool {
        self.concurrent.load(Ordering::Relaxed)
    }

    #[inline]
    fn class_of(bytes: usize) -> usize {
        (bytes.max(1).next_power_of_two().trailing_zeros() as usize).min(CLASSES - 1)
    }

    /// Record a new high-water mark of the live-version account.
    #[inline]
    pub(crate) fn note_peak(&self, live: usize) {
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    pub(crate) fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Parked entries across all shelves.
    #[cfg(test)]
    pub(crate) fn parked_entries(&self) -> usize {
        self.shelves
            .iter()
            .map(|s| s.enter(self.mode()).entries.len())
            .sum()
    }

    /// Total parked bytes across all shelves (gate-free, advisory).
    pub(crate) fn parked_bytes(&self) -> usize {
        self.shelves
            .iter()
            .map(|s| s.gauge.load(Ordering::Relaxed))
            .sum()
    }

    /// First half of the renamer's version switch: enter the shape's
    /// shelf and probe the *front* — the oldest entries, whose readers
    /// have had the longest to finish (see `PROBE`) — for a dead buffer
    /// of the exact same shape, removing it on a hit. The returned
    /// guard **keeps the gate** so the caller can install the
    /// replacement and then park the displaced buffer by move through
    /// [`ShelfGuard::park`]: probe-then-park under one gate entry, with
    /// no `Arc` clone spent on parking. The probe runs before anything
    /// is parked, so a renamer can never resurrect its own displaced
    /// buffer mid-switch.
    #[inline(always)]
    pub(crate) fn begin(
        &self,
        key: ReuseKey,
    ) -> (ShelfGuard<'_>, Option<Arc<dyn Any + Send + Sync>>) {
        let shelf = &self.shelves[key.class as usize];
        let mut st = shelf.enter(self.mode());
        // Unrolled front probe: in the steady storm the front entry is
        // the hit (readers drain in park order), so the common path is
        // one key compare, one strong-count load and a `pop_front`.
        let mut found = None;
        if let Some(p) = st.entries.front() {
            if p.key == key && Arc::strong_count(&p.buf) == 1 {
                // Pairs with the Release decrement of the dead buffer's
                // last dropped reader Arc, ordering that reader's final
                // accesses before our reuse.
                std::sync::atomic::fence(Ordering::Acquire);
                let p = st.entries.pop_front().expect("front just probed");
                st.hits += 1;
                found = Some(p.buf);
            } else {
                for i in 1..st.entries.len().min(PROBE) {
                    let p = &st.entries[i];
                    if p.key == key && Arc::strong_count(&p.buf) == 1 {
                        // As above: pairs with the last reader's
                        // Release drop.
                        std::sync::atomic::fence(Ordering::Acquire);
                        let p = st
                            .entries
                            .swap_remove_front(i)
                            .expect("probed index in range");
                        st.hits += 1;
                        found = Some(p.buf);
                        break;
                    }
                }
            }
        }
        // A hit leaves `bytes` untouched: the caller is contractually
        // about to park the same-class displaced buffer through the
        // guard (`balanced` tells `park` the swap nets to zero), so the
        // byte account never moves on the hot path.
        let balanced = found.is_some();
        (ShelfGuard { st, balanced }, found)
    }

    /// Park a displaced buffer when the renamer is *not* holding a
    /// [`ShelfGuard`] (the allocation-miss path releases the gate
    /// before allocating so a slow `alloc` never stalls other renamers
    /// of the class), then trim back under the spare cap.
    pub(crate) fn park_displaced(&self, key: ReuseKey, buf: Arc<dyn Any + Send + Sync>) {
        let shelf = &self.shelves[key.class as usize];
        shelf.enter(self.mode()).push(key, buf);
        if self.parked_bytes() > self.cap {
            self.trim_to_cap();
        }
    }

    /// The original single-call park + probe shape, kept for the unit
    /// tests below (product code uses [`begin`](Self::begin) +
    /// [`ShelfGuard::park`] to park by move).
    #[cfg(test)]
    pub(crate) fn exchange(
        &self,
        key: ReuseKey,
        park: Arc<dyn Any + Send + Sync>,
    ) -> Option<Arc<dyn Any + Send + Sync>> {
        let (guard, found) = self.begin(key);
        guard.park(key, park);
        if found.is_none() && self.parked_bytes() > self.cap {
            self.trim_to_cap();
        }
        found
    }

    /// Trim parked spares back under the cap, largest classes first
    /// (fewest evictions), one gate at a time — never two gates held
    /// at once.
    fn trim_to_cap(&self) {
        let mut total = self.parked_bytes();
        for shelf in self.shelves.iter().rev() {
            while total > self.cap && shelf.gauge.load(Ordering::Relaxed) > 0 {
                let mut st = shelf.enter(self.mode());
                match evict_one(&mut st) {
                    Some(freed) => total -= freed.min(total),
                    None => break,
                }
            }
            if total <= self.cap {
                return;
            }
        }
    }

    /// Free up to `want` bytes of **dead** parked spares — the throttle
    /// and the session-side throttle call this before (and instead of)
    /// waiting, which is what turns the §III memory limit into
    /// backpressure the slab can actually answer.
    /// Returns the bytes released. Empty shelves are skipped gate-free,
    /// so the call is two loads per class when there is nothing parked.
    pub(crate) fn reclaim(&self, want: usize) -> usize {
        if want == 0 {
            return 0;
        }
        let mut freed = 0usize;
        for shelf in self.shelves.iter().rev() {
            if shelf.gauge.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut st = shelf.enter(self.mode());
            let mut i = 0;
            while i < st.entries.len() {
                if Arc::strong_count(&st.entries[i].buf) == 1 {
                    std::sync::atomic::fence(Ordering::Acquire);
                    let p = st.entries.swap_remove_back(i).expect("index in range");
                    st.bytes -= p.key.charge;
                    st.evicted_dead += 1;
                    // Counted in the live account's unit (declared
                    // bytes): that is what the ticket drop releases.
                    freed += p.key.bytes;
                    // Dropping the dead buffer here releases its ticket
                    // immediately.
                    drop(p);
                    if freed >= want {
                        return freed;
                    }
                    // The swap moved an unexamined entry into `i`.
                } else {
                    i += 1;
                }
            }
        }
        freed
    }

    /// Sum the per-shelf counters (gate entry per non-trivial shelf;
    /// stats are a cold path).
    pub(crate) fn counters(&self) -> SlabCounters {
        let mut c = SlabCounters::default();
        for shelf in self.shelves.iter() {
            let st = shelf.enter(self.mode());
            c.hits += st.hits;
            c.evicted_dead += st.evicted_dead;
            c.evicted_live += st.evicted_live;
            c.parked_bytes += st.bytes;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::version::{MemTicket, VBuf};

    fn buf(v: i32, bytes: usize, acct: &Arc<AtomicUsize>) -> Arc<dyn Any + Send + Sync> {
        let ticket = MemTicket::new(bytes, Arc::clone(acct));
        Arc::new(VBuf::with_ticket(v, ticket))
    }

    #[test]
    fn exchange_misses_then_hits_same_key() {
        let acct = Arc::new(AtomicUsize::new(0));
        let slab = VersionSlab::new(1 << 20);
        let key = ReuseKey::shared::<VBuf<i32>>(1024);
        assert!(slab.exchange(key, buf(1, 1024, &acct)).is_none());
        let got = slab
            .exchange(key, buf(2, 1024, &acct))
            .expect("parked spare is dead");
        let got = got.downcast::<VBuf<i32>>().expect("key pins the type");
        unsafe { assert_eq!(*got.peek(), 1) };
        let c = slab.counters();
        assert_eq!(c.hits, 1);
        assert_eq!(c.parked_bytes, 1024);
    }

    #[test]
    fn keys_do_not_cross_scopes_or_sizes() {
        let acct = Arc::new(AtomicUsize::new(0));
        let slab = VersionSlab::new(1 << 20);
        slab.exchange(ReuseKey::owned::<VBuf<i32>>(64, 7), buf(1, 64, &acct));
        // Same type + size, different scope: no reuse.
        assert!(slab
            .exchange(ReuseKey::owned::<VBuf<i32>>(64, 8), buf(2, 64, &acct))
            .is_none());
        // Shared scope never sees owned buffers.
        assert!(slab
            .exchange(ReuseKey::shared::<VBuf<i32>>(64), buf(3, 64, &acct))
            .is_none());
        // Same class (64 and 65 both round to 128? no — 64 is exact), but
        // different declared size: no reuse even within one shelf.
        assert!(slab
            .exchange(ReuseKey::shared::<VBuf<i32>>(63), buf(4, 63, &acct))
            .is_none());
        assert_eq!(slab.counters().hits, 0);
    }

    #[test]
    fn live_entries_are_not_reused() {
        let acct = Arc::new(AtomicUsize::new(0));
        let slab = VersionSlab::new(1 << 20);
        let key = ReuseKey::shared::<VBuf<i32>>(64);
        let reader: Arc<dyn Any + Send + Sync> = {
            let b = buf(1, 64, &acct);
            let clone = Arc::clone(&b);
            slab.exchange(key, b);
            clone
        };
        assert!(slab.exchange(key, buf(2, 64, &acct)).is_none());
        drop(reader);
        // Now the first park is dead and reusable.
        assert!(slab.exchange(key, buf(3, 64, &acct)).is_some());
    }

    #[test]
    fn over_cap_trim_prefers_dead_and_accounts_live_evictions() {
        let acct = Arc::new(AtomicUsize::new(0));
        let slab = VersionSlab::new(0); // nothing may stay parked
        let key = ReuseKey::shared::<VBuf<i32>>(64);
        let held = {
            let b = buf(1, 64, &acct);
            let clone = Arc::clone(&b);
            slab.exchange(key, b);
            clone
        };
        // The reader-held entry was evicted live: the slab dropped only
        // its own clone, so the ticket (64 bytes) is still charged.
        let c = slab.counters();
        assert_eq!(c.evicted_live, 1);
        assert_eq!(c.parked_bytes, 0);
        assert_eq!(acct.load(Ordering::Relaxed), 64);
        drop(held);
        assert_eq!(acct.load(Ordering::Relaxed), 0);

        slab.exchange(key, buf(2, 64, &acct));
        let c = slab.counters();
        assert_eq!(c.evicted_dead, 1);
        assert_eq!(acct.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn reclaim_frees_only_dead_bytes() {
        let acct = Arc::new(AtomicUsize::new(0));
        let slab = VersionSlab::new(1 << 20);
        let key = ReuseKey::shared::<VBuf<i32>>(4096);
        let held = {
            let b = buf(1, 4096, &acct);
            let clone = Arc::clone(&b);
            slab.exchange(key, b);
            clone
        };
        slab.exchange(ReuseKey::shared::<VBuf<i32>>(2048), buf(2, 2048, &acct));
        assert_eq!(slab.parked_bytes(), 6144);
        assert_eq!(acct.load(Ordering::Relaxed), 6144);
        // Only the dead 2 KiB spare can be reclaimed.
        assert_eq!(slab.reclaim(usize::MAX), 2048);
        assert_eq!(slab.parked_bytes(), 4096);
        assert_eq!(acct.load(Ordering::Relaxed), 4096);
        assert_eq!(slab.reclaim(usize::MAX), 0);
        drop(held);
        assert_eq!(slab.reclaim(usize::MAX), 4096);
        assert_eq!(acct.load(Ordering::Relaxed), 0);
    }

    /// Small spares count at their resident size. An 8-byte `data()`
    /// version parked at its declared size let the spare cap admit
    /// ~100 resident bytes per 8 charged, and per-object reuse keys make
    /// the front probe miss under a shuffled storm, so the slab grew
    /// without bound (the benchmark's `task_flood` gained ~1 MB per
    /// repetition). Soak: 500 repetitions of a renaming `u64` storm in
    /// shuffled object order, with 2 µs bodies so nothing runs inline;
    /// a gate-held reader keeps every version pending, so every writer
    /// renames. The parked entries must fit the cap at their resident
    /// size, and their count must be flat once the cap binds.
    #[test]
    fn small_spares_are_capped_at_their_resident_size() {
        const OBJECTS: usize = 128;
        const CAP: usize = 128 << 10;
        const REPS: usize = 500;
        let rt = crate::Runtime::builder()
            .threads(2)
            .slab_spare_bytes(CAP)
            .build();
        let slab = Arc::clone(&rt.shared.slab);
        let hs: Vec<_> = (0..OBJECTS).map(|i| rt.data(i as u64)).collect();
        let mut order: Vec<usize> = (0..OBJECTS).collect();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut counts = Vec::with_capacity(REPS);
        for rep in 0..REPS {
            let gate = Arc::new(AtomicBool::new(false));
            {
                let mut sp = rt.task("hold");
                let mut rs: Vec<_> = hs.iter().map(|h| sp.read(h)).collect();
                let gate = Arc::clone(&gate);
                sp.submit(move || {
                    while !gate.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    std::hint::black_box(rs.iter_mut().map(|r| *r.get()).sum::<u64>());
                });
            }
            for i in (1..OBJECTS).rev() {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                order.swap(i, (rng % (i as u64 + 1)) as usize);
            }
            for &o in &order {
                let mut sp = rt.task("renamer");
                let mut w = sp.write(&hs[o]);
                sp.submit(move || {
                    let t0 = std::time::Instant::now();
                    while t0.elapsed() < std::time::Duration::from_micros(2) {
                        std::hint::spin_loop();
                    }
                    *w.get_mut() = rep as u64;
                });
            }
            gate.store(true, Ordering::Release);
            rt.barrier();
            assert!(
                rt.stats().slab_parked_bytes <= CAP as u64,
                "rep {rep}: parked bytes over the cap"
            );
            counts.push(slab.parked_entries());
        }
        assert!(
            rt.stats().renames >= (REPS * OBJECTS) as u64,
            "every writer renames"
        );
        let most = *counts.iter().max().expect("reps ran");
        let resident = most * resident_floor::<VBuf<u64>>();
        assert!(
            resident <= CAP,
            "{most} parked entries hold {resident} B resident, over the {CAP} B cap"
        );
        let early = counts[50..250].iter().max().expect("reps ran");
        let late = counts[250..].iter().max().expect("reps ran");
        assert!(
            late <= early,
            "parked entries grew after warm-up: {early} -> {late}"
        );
    }

    #[test]
    fn peak_is_monotonic() {
        let slab = VersionSlab::new(0);
        slab.note_peak(100);
        slab.note_peak(40);
        assert_eq!(slab.peak(), 100);
        slab.note_peak(200);
        assert_eq!(slab.peak(), 200);
    }

    /// Structure-only cost canary: begin/park against a legacy-shaped
    /// two-spare pool, steady-state hit on both sides. Ignored by
    /// default (it prints timings rather than asserting); run with
    /// `cargo test --release -p smpss --lib -- micro_cost --ignored
    /// --nocapture` when touching the hot path. This pair of loops is
    /// what caught `begin`'s guard-returning call failing to inline —
    /// worth 9 ns/rename, the entire BENCH_0009 rename_storm gate.
    #[test]
    #[ignore]
    fn micro_cost() {
        use std::time::Instant;
        const N: usize = 2_000_000;
        let key = ReuseKey::shared::<Vec<f32>>(256);
        let slab = VersionSlab::new(DEFAULT_SPARE_CAP);
        // Steady-state shape: one dead entry parked, cycled each iter.
        let seed: Arc<dyn Any + Send + Sync> = Arc::new(vec![0f32; 64]);
        slab.park_displaced(key, seed);
        let t0 = Instant::now();
        for _ in 0..N {
            let (guard, found) = slab.begin(key);
            let buf = found.expect("steady-state hit");
            guard.park(key, buf);
        }
        let slab_ns = t0.elapsed().as_secs_f64() * 1e9 / N as f64;

        // Legacy shape: typed Vec of (Arc, age), newest-first scan with
        // a dead hit on the first (here only) entry.
        let mut retired: Vec<(Arc<Vec<f32>>, u64)> = vec![(Arc::new(vec![0f32; 64]), 0)];
        let mut clock = 0u64;
        let t0 = Instant::now();
        for _ in 0..N {
            let mut hit = None;
            for i in (0..retired.len()).rev() {
                if Arc::strong_count(&retired[i].0) == 1 {
                    std::sync::atomic::fence(Ordering::Acquire);
                    hit = Some(retired.swap_remove(i).0);
                    break;
                }
            }
            let buf = hit.expect("steady-state hit");
            clock += 1;
            retired.push((buf, clock));
        }
        let legacy_ns = t0.elapsed().as_secs_f64() * 1e9 / N as f64;
        std::hint::black_box(&retired);
        println!("slab begin/park: {slab_ns:.1} ns/op, legacy pool: {legacy_ns:.1} ns/op, delta {:.1} ns", slab_ns - legacy_ns);
    }

    /// The slab is part of the analysis hot path: like the analysis-gate
    /// and completion modules, it must stay free of blocking primitives
    /// (the workspace test `tests/lock_free_sources.rs` checks the same
    /// needles across every lock-free file).
    #[test]
    fn slab_module_contains_no_mutex() {
        let src = include_str!("slab.rs");
        // Assemble the needles at runtime so this test's own source
        // does not match itself.
        let mutex = ["Mu", "tex"].concat();
        let lock = [".lo", "ck()"].concat();
        for needle in [mutex, lock] {
            assert!(
                !src.contains(&needle),
                "slab.rs must not name blocking primitives ({needle})"
            );
        }
    }
}
