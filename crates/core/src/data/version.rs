//! Versioned buffers and task-side access bindings.
//!
//! This module is the crate's one concentration of `unsafe`. The soundness
//! argument mirrors the paper's correctness argument for the runtime itself:
//!
//! * A [`WriteBinding`] for a buffer is only created when the dependency
//!   analyser has arranged (through graph edges or through renaming onto a
//!   fresh buffer) that **no other task** holds a conflicting binding whose
//!   task can run concurrently.
//! * A [`ReadBinding`] is only created for a version whose writer (if any)
//!   is ordered *before* the reading task by a true-dependency edge.
//! * The scheduler never runs a task before all its graph predecessors have
//!   completed (`deps == 0`), and task bodies are the only code that
//!   dereferences bindings.
//!
//! Therefore, whenever a task body runs, its write buffers are exclusively
//! owned and its read buffers are immutable-shared. On top of that, every
//! binding *dynamically validates* the invariant with reader/writer counters
//! on the buffer — a dependency-analysis or scheduler bug trips an assert in
//! any build profile rather than silently racing.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use super::TaskData;
use crate::runtime::session::SessionCtl;

/// Memory-accounting ticket: registers `bytes` against a runtime-wide
/// counter for as long as the owning version buffer is alive. This is
/// what the §III *memory limit* blocking condition watches — renaming
/// trades memory for parallelism, and the ticket count is exactly that
/// traded memory. The counter is a single shared atomic (AcqRel both
/// ways), so with sessions open every spawner's renames fold into one
/// account: the spawn throttle (`Runtime::after_submit`, and each
/// session's post-submit wait) observes the *sum* of renamed bytes
/// across all spawners, never a per-spawner undercount.
///
/// Sessions pre-pay the global side through a [`ByteCredit`]
/// ([`new_charged`](Self::new_charged) with `prepaid == true`): the
/// creation-time `fetch_add` is skipped because the credit's chunk grab
/// already registered the bytes. The Drop side always `fetch_sub`s the
/// global account — symmetric with the chunk grab, never with the
/// (skipped) per-ticket add — so the invariant is
/// `live_bytes == Σ live ticket bytes + Σ session surpluses`.
///
/// Tickets minted on behalf of a [`Session`](crate::Session) also carry
/// the session's byte account: the bytes count against the session's
/// `session_max_renamed_bytes` quota from creation until Drop.
/// Attribution is creation-time: a pooled version buffer reused by a
/// different session keeps its original ticket and hence its original
/// attribution (the pool hit allocates nothing, so there is nothing new
/// to attribute).
///
/// The ticket travels **inside** its [`VBuf`], so it is released by the
/// buffer's final `Arc` drop and nothing else. This is the accounting
/// invariant the version slab ([`super::slab`]) leans on: parking,
/// reusing, trimming, or evicting a spare that readers still hold only
/// moves `Arc` clones, so the account cannot drop bytes a reader still
/// has resident — it stays exact from allocation to final release.
pub(crate) struct MemTicket {
    bytes: usize,
    acct: Arc<AtomicUsize>,
    sess: Option<Arc<SessionCtl>>,
}

impl MemTicket {
    pub(crate) fn new(bytes: usize, acct: Arc<AtomicUsize>) -> Self {
        acct.fetch_add(bytes, Ordering::AcqRel);
        MemTicket {
            bytes,
            acct,
            sess: None,
        }
    }

    /// Mint a ticket through a [`TicketCharge`]: the session credit (if
    /// any) pre-pays the global account in chunks, and the session (if
    /// any) is charged its quota-side bytes.
    pub(crate) fn new_charged(
        bytes: usize,
        acct: Arc<AtomicUsize>,
        charge: TicketCharge<'_>,
    ) -> Self {
        let prepaid = match charge.credit {
            Some(credit) => credit.cover(bytes),
            None => false,
        };
        if !prepaid {
            acct.fetch_add(bytes, Ordering::AcqRel);
        }
        let sess = charge.sess.map(Arc::clone);
        if let Some(ctl) = &sess {
            ctl.add_bytes(bytes);
        }
        MemTicket { bytes, acct, sess }
    }
}

impl Drop for MemTicket {
    fn drop(&mut self) {
        self.acct.fetch_sub(self.bytes, Ordering::AcqRel);
        if let Some(ctl) = &self.sess {
            ctl.sub_bytes(self.bytes);
        }
    }
}

/// Spawn-side accounting context for a freshly minted version ticket:
/// which session credit (if any) pre-pays the global account, and which
/// session (if any) the bytes are attributed to. Threaded from the
/// [`SpawnHost`](crate::runtime::spawner::SpawnHost) through the
/// analyser's rename calls down to the ticket mint.
#[derive(Clone, Copy, Default)]
pub(crate) struct TicketCharge<'a> {
    pub(crate) credit: Option<&'a ByteCredit>,
    pub(crate) sess: Option<&'a Arc<SessionCtl>>,
}

impl TicketCharge<'_> {
    /// The `Runtime` host's charge: exact per-mint global accounting, no
    /// session attribution — the pre-session behaviour, bit for bit.
    pub(crate) const NONE: TicketCharge<'static> = TicketCharge {
        credit: None,
        sess: None,
    };
}

/// Max bytes a session credit grabs from the global account in one RMW.
const CREDIT_CHUNK_CAP: usize = 32 << 10;

/// A session's chunked pre-payment against the global renamed-bytes
/// account. One per [`Session`](crate::Session): instead of one
/// contended `fetch_add` per renamed version, the session grabs up to
/// [`CREDIT_CHUNK_CAP`] bytes at a time and covers subsequent tickets
/// from the local surplus — a `Cell`, single-threaded like the
/// `Session` itself.
///
/// The surplus is real debt against the global account: `live_bytes`
/// over-reports by exactly the sum of session surpluses, which errs
/// toward throttling (safe) and is bounded by `sessions ×
/// CREDIT_CHUNK_CAP`. The surplus is returned by
/// [`release`](Self::release) — called when the session hits the
/// memory-limit wait (so the wait observes true bytes) and
/// unconditionally by Drop, which is what keeps a `Session` dropped
/// mid-graph from leaking its un-returned debt in the global
/// throttle account forever.
pub(crate) struct ByteCredit {
    surplus: Cell<usize>,
    acct: Arc<AtomicUsize>,
}

impl ByteCredit {
    pub(crate) fn new(acct: Arc<AtomicUsize>) -> Self {
        ByteCredit {
            surplus: Cell::new(0),
            acct,
        }
    }

    /// Cover a `bytes`-sized ticket from the surplus, growing the
    /// surplus with one chunked global `fetch_add` when it runs dry.
    /// Always succeeds (returns `true`: the ticket is prepaid).
    pub(crate) fn cover(&self, bytes: usize) -> bool {
        let mut s = self.surplus.get();
        if s < bytes {
            let grab = bytes.saturating_mul(4).min(CREDIT_CHUNK_CAP).max(bytes);
            self.acct.fetch_add(grab, Ordering::AcqRel);
            s += grab;
        }
        self.surplus.set(s - bytes);
        true
    }

    /// Return the un-spent surplus to the global account.
    pub(crate) fn release(&self) {
        let s = self.surplus.replace(0);
        if s > 0 {
            self.acct.fetch_sub(s, Ordering::AcqRel);
        }
    }

    /// Current un-spent surplus (test observability).
    #[cfg(test)]
    pub(crate) fn surplus(&self) -> usize {
        self.surplus.get()
    }
}

impl Drop for ByteCredit {
    fn drop(&mut self) {
        self.release();
    }
}

/// A single version buffer. Shared by `Arc` between the owning object (as
/// its current version), the bindings of tasks that access it, and — after
/// renaming — the bindings of tasks still reading an older value.
pub(crate) struct VBuf<T> {
    cell: UnsafeCell<T>,
    /// The version's read-window counter (spawned-but-unfinished
    /// readers). Embedded in the buffer so a read binding is **one**
    /// `Arc` — one clone at spawn, one drop plus one window close at
    /// completion — instead of the separate buffer + counter pair the
    /// pre-BENCH_0004 layout carried (two extra RMWs per `input`
    /// parameter on the completion path).
    window: ReadWindow,
    /// Dynamic validation: tasks currently reading this buffer.
    active_readers: AtomicUsize,
    /// Dynamic validation: tasks currently writing this buffer (0 or 1).
    active_writers: AtomicUsize,
    /// Memory accounting; `None` for untracked buffers (unit tests).
    /// Held, not read: the ticket's Drop releases the bytes when the
    /// last reference to this version disappears.
    #[allow(dead_code)]
    ticket: Option<MemTicket>,
}

// SAFETY: `VBuf` hands out `&T` / `&mut T` only through the binding
// discipline documented above; the runtime's dependency graph serialises
// conflicting accesses, so sharing the cell across threads is sound for any
// `T: Send`.
unsafe impl<T: Send> Sync for VBuf<T> {}

impl<T> VBuf<T> {
    pub(crate) fn new(value: T) -> Self {
        VBuf {
            cell: UnsafeCell::new(value),
            window: ReadWindow::new(),
            active_readers: AtomicUsize::new(0),
            active_writers: AtomicUsize::new(0),
            ticket: None,
        }
    }

    pub(crate) fn with_ticket(value: T, ticket: MemTicket) -> Self {
        VBuf {
            cell: UnsafeCell::new(value),
            window: ReadWindow::new(),
            active_readers: AtomicUsize::new(0),
            active_writers: AtomicUsize::new(0),
            ticket: Some(ticket),
        }
    }

    /// This version's read-window counter.
    pub(crate) fn window(&self) -> &ReadWindow {
        &self.window
    }

    /// Raw pointer to the payload; used by region bindings.
    pub(crate) fn get(&self) -> *mut T {
        self.cell.get()
    }

    pub(crate) fn begin_read(&self) {
        assert_eq!(
            self.active_writers.load(Ordering::Acquire),
            0,
            "SMPSs invariant violated: read overlapping an active write \
             (dependency analysis or scheduler bug)"
        );
        self.active_readers.fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn end_read(&self) {
        self.active_readers.fetch_sub(1, Ordering::AcqRel);
    }

    pub(crate) fn begin_write(&self) {
        assert_eq!(
            self.active_writers.swap(1, Ordering::AcqRel),
            0,
            "SMPSs invariant violated: two concurrent writers on one version"
        );
        assert_eq!(
            self.active_readers.load(Ordering::Acquire),
            0,
            "SMPSs invariant violated: write overlapping active reads"
        );
    }

    pub(crate) fn end_write(&self) {
        self.active_writers.store(0, Ordering::Release);
    }

    /// Read the payload assuming quiescence (used by `Runtime::read` after
    /// waiting for the producer).
    ///
    /// # Safety
    /// Caller must ensure no task holds an active write binding.
    pub(crate) unsafe fn peek(&self) -> &T {
        &*self.cell.get()
    }

    /// Mutate the payload assuming full quiescence.
    ///
    /// # Safety
    /// Caller must ensure no task holds any active binding.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn peek_mut(&self) -> &mut T {
        &mut *self.cell.get()
    }
}

/// The lock-free **read-window protocol** of one data version: how many
/// spawned-but-unfinished readers still hold the version open.
///
/// This is the completion-side half of renaming. The spawner opens one
/// window per `input` binding; the worker that runs the task closes it
/// when the binding drops — **without touching the object mutex**. The
/// object lock is thereby single-owner (only the spawning thread takes
/// it, for version bookkeeping), and a worker
/// finishing a task performs one `fetch_sub` per read parameter and
/// nothing else.
///
/// The count is **split by writer role** so each side pays the minimum:
///
/// * `opens` has a single writer — the spawning thread — so opening a
///   window is a Relaxed load + store, no RMW at all. The increment
///   reaches the executing worker through the readiness hand-off (deps
///   release / queue publication), which carries a Release/Acquire edge.
/// * `closes` is multi-writer (any completing worker), so closing is
///   one Release `fetch_add`; it reports **last-reader-out** (window
///   count hit zero at that instant's `opens`). The Release pairs with
///   the Acquire fence a quiescence probe issues after observing a
///   settled window, ordering the reader's final buffer loads before
///   any in-place buffer reuse by the renamer.
/// * The pending count is `opens - closes`. Every probe runs on the
///   spawning thread, where `opens` is exact (own writes) and `closes`
///   can only lag — so the probe **overestimates** pending readers,
///   which errs toward renaming: always safe, never racy.
///   [`pending_relaxed`](Self::pending_relaxed) is for probes that
///   batch their ordering into one explicit Acquire fence
///   (`dep::quiescent`); [`pending_acquire`](Self::pending_acquire)
///   carries the ordering itself. The contract is checked against a
///   mutex oracle by the proptests below.
pub(crate) struct ReadWindow {
    opens: AtomicUsize,
    closes: AtomicUsize,
}

impl ReadWindow {
    pub(crate) fn new() -> Self {
        ReadWindow {
            opens: AtomicUsize::new(0),
            closes: AtomicUsize::new(0),
        }
    }

    /// Open one read window (spawner side: single writer, no RMW).
    pub(crate) fn open(&self) {
        self.opens
            .store(self.opens.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Close one read window (completing-worker side). Returns `true`
    /// when this close emptied the window (advisory under concurrent
    /// opens; exact once the spawner stops opening, which is how the
    /// oracle tests consume it).
    pub(crate) fn close(&self) -> bool {
        let closed = self.closes.fetch_add(1, Ordering::Release) + 1;
        closed == self.opens.load(Ordering::Relaxed)
    }

    /// Relaxed count probe for callers that follow up with their own
    /// Acquire fence on the settled path. Spawner-side only: `opens` is
    /// exact there and `closes` can only lag, so the result is a safe
    /// overestimate.
    pub(crate) fn pending_relaxed(&self) -> usize {
        self.opens
            .load(Ordering::Relaxed)
            .saturating_sub(self.closes.load(Ordering::Relaxed))
    }

    /// Probing count with Acquire on the closes side: a zero observed
    /// here orders every closed reader's buffer accesses before the
    /// caller's next move.
    pub(crate) fn pending_acquire(&self) -> usize {
        self.opens
            .load(Ordering::Relaxed)
            .saturating_sub(self.closes.load(Ordering::Acquire))
    }

    /// Re-arm a pooled counter for a resurrected version. The caller
    /// must own the window exclusively (the pool proves it via
    /// `strong_count == 1` plus an Acquire fence).
    pub(crate) fn reset_for_reuse(&self) {
        self.opens.store(0, Ordering::Relaxed);
        self.closes.store(0, Ordering::Relaxed);
    }
}

/// A task's read access to one version of a data object (an `input`
/// parameter). Created by the dependency analyser at spawn time; used inside
/// the task body; dropped when the body finishes, which closes the read
/// window that renaming decisions consult — lock-free, on the worker.
pub struct ReadBinding<T: TaskData> {
    pub(crate) buf: Arc<VBuf<T>>,
    active: bool,
}

impl<T: TaskData> ReadBinding<T> {
    pub(crate) fn new(buf: Arc<VBuf<T>>) -> Self {
        buf.window().open();
        ReadBinding { buf, active: false }
    }

    /// Borrow the input value. First call begins the validated read window,
    /// which lasts until the binding is dropped (end of the task body).
    pub fn get(&mut self) -> &T {
        if !self.active {
            self.buf.begin_read();
            self.active = true;
        }
        // SAFETY: dependency graph orders the producer before this task;
        // concurrent accesses to this version are reads only (validated).
        unsafe { &*self.buf.get() }
    }
}

impl<T: TaskData> Drop for ReadBinding<T> {
    fn drop(&mut self) {
        if self.active {
            self.buf.end_read();
        }
        // The lock-free read-window close: the entire completion-side
        // cost of an `input` parameter. The last-reader-out result is
        // not consumed here — quiescence is polled by the spawner — but
        // the protocol reports it so the oracle tests (and future
        // wake-on-quiescent users) can observe it.
        let _last_out = self.buf.window().close();
    }
}

/// A task's write access to one version (an `output` or `inout` parameter).
///
/// For a renamed `inout`, the first [`get_mut`](Self::get_mut) performs the
/// deferred **copy-in**: the predecessor version's payload is cloned into
/// the fresh buffer. By that time the producer of the predecessor has
/// finished (true dependency), so the copy reads settled data — this is how
/// renaming turns an in-place update into a hazard-free one.
pub struct WriteBinding<T: TaskData> {
    pub(crate) buf: Arc<VBuf<T>>,
    pub(crate) copy_from: Option<Arc<VBuf<T>>>,
    active: bool,
}

impl<T: TaskData> WriteBinding<T> {
    pub(crate) fn new(buf: Arc<VBuf<T>>, copy_from: Option<Arc<VBuf<T>>>) -> Self {
        WriteBinding {
            buf,
            copy_from,
            active: false,
        }
    }

    /// True if this binding was renamed off an earlier version and will
    /// copy-in on first access (exposed for tests and stats).
    pub fn is_renamed_copy(&self) -> bool {
        self.copy_from.is_some()
    }

    /// Borrow the output value mutably. First call begins the validated
    /// write window and performs the deferred copy-in if renamed.
    pub fn get_mut(&mut self) -> &mut T {
        if !self.active {
            self.buf.begin_write();
            self.active = true;
            if let Some(src) = self.copy_from.take() {
                src.begin_read();
                // SAFETY: src's producer finished (true dependency); other
                // concurrent accesses to src are reads; dst is exclusively
                // ours (fresh version, begin_write validated).
                unsafe {
                    (*self.buf.get()).clone_from(&*src.get());
                }
                src.end_read();
            }
        }
        // SAFETY: see above — exclusive write window validated.
        unsafe { &mut *self.buf.get() }
    }
}

impl<T: TaskData> Drop for WriteBinding<T> {
    fn drop(&mut self) {
        if self.active {
            self.buf.end_write();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vbuf(v: i32) -> Arc<VBuf<i32>> {
        Arc::new(VBuf::new(v))
    }

    #[test]
    fn read_binding_counts_pending() {
        let b = vbuf(7);
        {
            let mut r = ReadBinding::new(b.clone());
            assert_eq!(b.window().pending_acquire(), 1);
            assert_eq!(*r.get(), 7);
            let mut r2 = ReadBinding::new(b.clone());
            assert_eq!(b.window().pending_acquire(), 2);
            assert_eq!(*r2.get(), 7); // concurrent reads are fine
        }
        assert_eq!(b.window().pending_acquire(), 0);
    }

    #[test]
    fn write_binding_plain() {
        let b = vbuf(1);
        let mut w = WriteBinding::new(b.clone(), None);
        assert!(!w.is_renamed_copy());
        *w.get_mut() = 42;
        drop(w);
        let mut r = ReadBinding::new(b);
        assert_eq!(*r.get(), 42);
    }

    #[test]
    fn copy_in_on_first_access() {
        let old = vbuf(99);
        let new = vbuf(0);
        let mut w = WriteBinding::new(new.clone(), Some(old.clone()));
        assert!(w.is_renamed_copy());
        let v = w.get_mut();
        assert_eq!(*v, 99, "copy-in must materialise the predecessor value");
        *v += 1;
        drop(w);
        // Old version untouched; new version updated.
        unsafe {
            assert_eq!(*old.peek(), 99);
            assert_eq!(*new.peek(), 100);
        }
    }

    #[test]
    #[should_panic(expected = "two concurrent writers")]
    fn two_writers_trip_validation() {
        let b = vbuf(0);
        let mut w1 = WriteBinding::new(b.clone(), None);
        let mut w2 = WriteBinding::new(b, None);
        let _ = w1.get_mut();
        let _ = w2.get_mut();
    }

    #[test]
    #[should_panic(expected = "read overlapping an active write")]
    fn read_during_write_trips_validation() {
        let b = vbuf(0);
        let mut w = WriteBinding::new(b.clone(), None);
        let _ = w.get_mut();
        let mut r = ReadBinding::new(b);
        let _ = r.get();
    }

    #[test]
    #[should_panic(expected = "write overlapping active reads")]
    fn write_during_read_trips_validation() {
        let b = vbuf(0);
        let mut r = ReadBinding::new(b.clone());
        let _ = r.get();
        let mut w = WriteBinding::new(b, None);
        let _ = w.get_mut();
    }

    #[test]
    fn reads_release_window_on_drop() {
        let b = vbuf(0);
        {
            let mut r = ReadBinding::new(b.clone());
            let _ = r.get();
        }
        let mut w = WriteBinding::new(b, None);
        let _ = w.get_mut(); // must not panic: reader window closed
    }

    #[test]
    fn byte_credit_grabs_chunks_and_returns_surplus_on_drop() {
        let acct = Arc::new(AtomicUsize::new(0));
        let credit = ByteCredit::new(Arc::clone(&acct));
        assert!(credit.cover(1000));
        assert_eq!(acct.load(Ordering::Acquire), 4000, "one 4x chunk grab");
        assert_eq!(credit.surplus(), 3000);
        assert!(credit.cover(3000));
        assert_eq!(acct.load(Ordering::Acquire), 4000, "covered from surplus");
        assert_eq!(credit.surplus(), 0);
        assert!(credit.cover(100_000));
        assert_eq!(
            acct.load(Ordering::Acquire),
            104_000,
            "over-cap mints grab exactly their own size"
        );
        assert_eq!(credit.surplus(), 0);
        assert!(credit.cover(8));
        let surplus = credit.surplus();
        assert!(surplus > 0);
        let before = acct.load(Ordering::Acquire);
        drop(credit);
        assert_eq!(
            acct.load(Ordering::Acquire),
            before - surplus,
            "dropping the credit returns the un-spent surplus"
        );
    }

    #[test]
    fn prepaid_ticket_balances_global_account() {
        let acct = Arc::new(AtomicUsize::new(0));
        let credit = ByteCredit::new(Arc::clone(&acct));
        let t = MemTicket::new_charged(
            100,
            Arc::clone(&acct),
            TicketCharge {
                credit: Some(&credit),
                sess: None,
            },
        );
        assert_eq!(
            acct.load(Ordering::Acquire),
            400,
            "chunk grab, no per-ticket add"
        );
        drop(t);
        assert_eq!(
            acct.load(Ordering::Acquire),
            300,
            "ticket drop returns its bytes"
        );
        drop(credit);
        assert_eq!(
            acct.load(Ordering::Acquire),
            0,
            "credit drop returns the surplus"
        );
    }

    #[test]
    fn uncharged_ticket_is_exact() {
        let acct = Arc::new(AtomicUsize::new(0));
        let t = MemTicket::new_charged(64, Arc::clone(&acct), TicketCharge::NONE);
        assert_eq!(acct.load(Ordering::Acquire), 64);
        drop(t);
        assert_eq!(acct.load(Ordering::Acquire), 0);
    }

    #[test]
    fn last_reader_out_is_detected_exactly_once() {
        let w = ReadWindow::new();
        w.open();
        w.open();
        w.open();
        assert!(!w.close());
        assert!(!w.close());
        assert!(w.close(), "third close is last-reader-out");
        w.open();
        assert!(w.close(), "detection re-arms after reuse");
    }
}
