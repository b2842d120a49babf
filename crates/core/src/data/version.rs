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

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use super::TaskData;

/// Memory-accounting ticket: registers `bytes` against a runtime-wide
/// counter for as long as the owning version buffer is alive. This is
/// what the §III *memory limit* blocking condition watches — renaming
/// trades memory for parallelism, and the ticket count is exactly that
/// traded memory. The counter is a single shared atomic (AcqRel both
/// ways), and every ticket is minted through [`new`](Self::new),
/// whichever thread spawned the renaming task: with sessions open every
/// spawner's renames fold into one exact account, and the spawn
/// throttle (`Runtime::after_submit`, and each session's post-submit
/// wait) observes the *sum* of renamed bytes across all spawners.
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
}

impl MemTicket {
    pub(crate) fn new(bytes: usize, acct: Arc<AtomicUsize>) -> Self {
        acct.fetch_add(bytes, Ordering::AcqRel);
        MemTicket { bytes, acct }
    }
}

impl Drop for MemTicket {
    fn drop(&mut self) {
        self.acct.fetch_sub(self.bytes, Ordering::AcqRel);
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
    use crate::runtime::spawner::SpawnHost;

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

    const BYTES: usize = 1024;

    fn object(rt: &crate::Runtime) -> crate::Handle<Vec<u8>> {
        rt.data_sized(vec![0u8; BYTES], BYTES, || vec![0u8; BYTES])
    }

    /// One write task on `h`. At one thread nothing runs before the
    /// barrier, so a write that finds the previous writer pending
    /// renames.
    fn write<H: SpawnHost>(mut sp: crate::TaskSpawner<'_, H>, h: &crate::Handle<Vec<u8>>) {
        let mut w = sp.write(h);
        sp.submit(move || w.get_mut()[0] = 1);
    }

    /// A session's renames add exactly their version bytes to the
    /// runtime-wide account, one ticket each, and dropping the session
    /// mid-graph leaves the account as it is: a session holds no bytes
    /// of its own.
    #[test]
    fn byte_credit_grabs_chunks_and_returns_surplus_on_drop() {
        let rt = crate::Runtime::builder().threads(1).build();
        let h = object(&rt);
        let s = rt.session();
        for k in 0..4 {
            write(s.task("w").expect("no quota configured"), &h);
            // The first write reuses the quiescent initial version.
            assert_eq!(rt.live_version_bytes(), (1 + k) * BYTES, "write {k}");
        }
        drop(s);
        assert_eq!(rt.live_version_bytes(), 4 * BYTES, "the drop moves nothing");
        rt.barrier();
        // The superseded versions are dead, parked and still charged.
        assert_eq!(rt.stats().slab_parked_bytes, 3 * BYTES as u64);
        assert_eq!(rt.shared.slab.reclaim(usize::MAX), 3 * BYTES);
        assert_eq!(rt.live_version_bytes(), BYTES);
    }

    /// Renames from several spawners fold into one exact account: the
    /// main thread and two sessions rename objects of their own, and
    /// after every spawn the account is the sum of the live versions,
    /// whichever host minted the ticket — also once both sessions are
    /// dropped with their tasks pending.
    #[test]
    fn prepaid_ticket_balances_global_account() {
        let rt = crate::Runtime::builder().threads(1).build();
        let objs: Vec<_> = (0..3).map(|_| object(&rt)).collect();
        let sessions = [rt.session(), rt.session()];
        for round in 0..3 {
            write(rt.task("main"), &objs[0]);
            for (s, h) in sessions.iter().zip(&objs[1..]) {
                write(s.task("session").expect("no quota configured"), h);
            }
            assert_eq!(rt.live_version_bytes(), (3 + 3 * round) * BYTES);
        }
        drop(sessions);
        assert_eq!(rt.live_version_bytes(), 9 * BYTES);
        rt.barrier();
        assert_eq!(rt.shared.slab.reclaim(usize::MAX), 6 * BYTES);
        assert_eq!(rt.live_version_bytes(), 3 * BYTES);
    }

    #[test]
    fn uncharged_ticket_is_exact() {
        let acct = Arc::new(AtomicUsize::new(0));
        let t = MemTicket::new(64, Arc::clone(&acct));
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
