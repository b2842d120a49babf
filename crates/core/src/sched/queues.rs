//! Ready-queue plumbing: injector draining, the idle spin and the
//! event-count park.

use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use crossbeam_deque::{Injector, Steal, Stealer};

use crate::graph::node::TaskNode;
use crate::padded::CachePadded;

/// A schedulable unit: a ready task node.
pub type Job = Arc<TaskNode>;

/// Where a job was obtained from — drives the stats counters and lets tests
/// assert the paper's lookup order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskSource {
    HighPriority,
    OwnList,
    MainList,
    Stolen { victim: usize },
}

/// Exponential backoff for `Steal::Retry` loops. A `Retry` means a
/// concurrent operation won a race this very instant, so the contended
/// line is hot: spin a doubling number of pause hints, then start
/// yielding the core (which matters when threads outnumber CPUs).
///
/// Deliberately duplicates the private `Backoff` inside the
/// crossbeam-deque shim rather than importing it: the real
/// crossbeam-deque exports no such type (upstream it lives in
/// `crossbeam_utils`), and the shim must stay swappable for the
/// registry crate by editing only the manifest layer.
pub(crate) struct Backoff {
    step: u32,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 5;

    pub(crate) fn new() -> Self {
        Backoff { step: 0 }
    }

    pub(crate) fn snooze(&mut self) {
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

/// Drain one job from an injector, absorbing `Steal::Retry` with
/// exponential backoff. The lock-free injector's empty check is a pair
/// of plain loads — much cheaper than a steal attempt (which issues a
/// full fence) — so probe it first: `find_task` polls mostly-empty
/// queues (the high-priority list above all) on every lookup.
pub(crate) fn pop_injector(inj: &Injector<Job>) -> Option<Job> {
    if inj.is_empty() {
        return None;
    }
    let mut backoff = Backoff::new();
    loop {
        match inj.steal() {
            Steal::Success(job) => return Some(job),
            Steal::Empty => return None,
            Steal::Retry => backoff.snooze(),
        }
    }
}

/// How many tasks one main-list claim may drain. Big enough to amortise
/// the claim's fence + CAS across several tasks, small enough that a
/// claimer never hoards more than a few microseconds of fine-grain work
/// away from thieves.
const CLAIM_BATCH: usize = 8;

/// Drain a small batch from an injector with **one** fenced head
/// claim, returning the first task and feeding the surplus to `sink`
/// (`Injector::steal_batch_with_limit_and_collect` in the deque shim).
/// This is the batched main-list pop of the completion-side fast path —
/// the throttled helper and every worker hitting the main list pay one
/// fenced claim per [`CLAIM_BATCH`] tasks instead of one per task.
///
/// Where the surplus goes is the caller's liveness decision. A private
/// buffer (plain fence-free pops) is sound only while nobody can starve
/// on the claimed tasks: a single-thread runtime (no thieves exist), or
/// the single-tenant model where every body is a terminating compute
/// kernel. A multi-thread runtime with **sessions** enabled MUST route
/// the surplus somewhere stealable — tenant bodies may park
/// indefinitely, and a private buffer would strand the whole batch
/// behind one blocking body while every other worker idles (the
/// BENCH_0008 head-of-line hang: a batch-claimer that picked up a
/// tenant's parked blocker froze the other tenants' already-published
/// tasks it had claimed alongside).
pub(crate) fn pop_injector_batch(
    inj: &Injector<Job>,
    sink: &mut impl FnMut(Job),
) -> Option<Job> {
    if inj.is_empty() {
        return None;
    }
    let mut backoff = Backoff::new();
    loop {
        match inj.steal_batch_with_limit_and_collect(CLAIM_BATCH, sink) {
            Steal::Success(job) => return Some(job),
            Steal::Empty => return None,
            Steal::Retry => backoff.snooze(),
        }
    }
}

/// Steal one job from another thread's deque, absorbing `Steal::Retry`
/// with exponential backoff (same empty-probe-first shape as
/// [`pop_injector`]).
pub(crate) fn steal_from(stealer: &Stealer<Job>) -> Option<Job> {
    if stealer.is_empty() {
        return None;
    }
    let mut backoff = Backoff::new();
    loop {
        match stealer.steal() {
            Steal::Success(job) => return Some(job),
            Steal::Empty => return None,
            Steal::Retry => backoff.snooze(),
        }
    }
}

/// How long an idle thread keeps scanning before it parks: 80 µs.
///
/// The window is sized to the open-loop regime where waking is most of
/// a request's latency: at 20 000 requests/s (`tenant_open_loop.r1`)
/// work arrives every 50 µs, so a worker that finishes a ~3 µs body is
/// idle for ~47 µs before the next one. A window that covers that gap,
/// with 30 µs of slack for host jitter, finds the next request by
/// scanning instead of paying a park and a wake (~8 µs on a KVM guest);
/// a 20 µs window measured no gain. Past a gap of that size a wake is a
/// small share of the wait, and the window is capped so an idle thread
/// burns at most 80 µs of CPU per idle spell.
pub(crate) const SPIN_WINDOW: Duration = Duration::from_micros(80);

/// One thread's idle spell: when it started, and whether the thread
/// still spins at its start. The spin is **arrival-adaptive**: a thread
/// whose previous spell outlasted [`SPIN_WINDOW`] parks right after its
/// first empty scan, so sparse traffic and an idle runtime pay no spin.
/// A spell is measured from the first empty scan to the next task found,
/// parks included, so a thread that parks on a short gap learns to spin
/// again on the next one.
pub(crate) struct Idle {
    since: Option<Instant>,
    spin: bool,
}

impl Default for Idle {
    fn default() -> Self {
        Idle {
            since: None,
            spin: true,
        }
    }
}

impl Idle {
    /// The thread found work: close the spell, if one was open, and
    /// remember whether it ended inside the window.
    #[inline]
    pub(crate) fn end(&mut self) {
        if let Some(t0) = self.since.take() {
            self.spin = t0.elapsed() <= SPIN_WINDOW;
        }
    }

    /// The thread's scan came up empty: inside the window, yield once
    /// and return for another scan; past it, park thread `idx` in
    /// `sleep` (see [`SleepCtl::park`] for `ready`). Opens a spell on
    /// the first empty scan.
    #[inline]
    pub(crate) fn wait(&mut self, sleep: &SleepCtl, idx: usize, ready: impl FnOnce() -> bool) {
        let t0 = *self.since.get_or_insert_with(Instant::now);
        if self.spin && t0.elapsed() < SPIN_WINDOW {
            std::hint::spin_loop();
            std::thread::yield_now();
        } else {
            sleep.park(idx, ready);
        }
    }
}

const AWAKE: u8 = 0;
const CLAIMED: u8 = 1;
const PARKED: u8 = 2;
const NOTIFYING: u8 = 3;
const NOTIFIED: u8 = 4;

/// One thread's sleeper slot. `state` moves `AWAKE → CLAIMED → PARKED`
/// (a parking thread takes the slot, stores its handle, announces), then
/// either `PARKED → AWAKE` (it cancels) or `PARKED → NOTIFYING →
/// NOTIFIED → AWAKE` (a waker claims the slot, copies the handle out,
/// releases it, and the owner consumes the wake). `thread` is written
/// only in `CLAIMED`, by the one thread whose CAS took the slot, and
/// read only in `NOTIFYING`, by the one waker whose CAS took it, so the
/// two never overlap.
#[derive(Default)]
struct Slot {
    state: AtomicU8,
    thread: UnsafeCell<Option<Thread>>,
}

/// Idle-thread parking: an **event count** with one sleeper slot per
/// compute thread (index 0 is the main thread, parked in `barrier`).
///
/// The protocol, in full:
///
/// - **Sleeper** (`park`): announce (mark the slot `PARKED`, a SeqCst
///   increment of `sleepers`, a SeqCst fence), re-scan every queue and
///   the shutdown flag (the caller's `ready` probe), and if that finds
///   nothing, park with no timeout until a waker releases the slot.
/// - **Waker** (`notify_one` / `notify_all`), after publishing: one
///   SeqCst fence and one load of `sleepers`. Only a nonzero count costs
///   more: claim an announced slot and unpark its thread.
///
/// The two fences make it exact. Either the waker's load sees the
/// announcement, and a parked or about-to-park thread is woken, or the
/// sleeper's re-scan sees the publication and it does not park. So
/// every publication that could leave a thread asleep next to work
/// calls a notify after its push: `enqueue_ready`, a completion's batch
/// (`Wake` in `sched/completion.rs`), the main thread's
/// `finish_helping`, the steal-propagation wake and the session spill in
/// `find_task`, and shutdown; `barrier`'s all-done wake pairs the
/// finished-shard store with the main thread's announcement the same
/// way. No park has a timeout, and none needs one.
pub struct SleepCtl {
    /// Announced, unreleased slots. Cache-line-padded: every publication
    /// loads it, and parking threads write it.
    sleepers: CachePadded<AtomicUsize>,
    slots: Box<[CachePadded<Slot>]>,
}

// SAFETY: `sleepers` and every slot's `state` are atomics. The one
// non-`Sync` field, `Slot::thread`, holds a `Thread` (itself `Send +
// Sync`) that the slot state machine gives one accessor at a time: the
// thread whose CAS took the slot writes it in `CLAIMED`, the waker
// whose CAS took it reads it in `NOTIFYING` (see `Slot`).
unsafe impl Sync for SleepCtl {}

impl SleepCtl {
    /// Sleeper slots for `threads` compute threads.
    pub fn new(threads: usize) -> Self {
        SleepCtl {
            sleepers: CachePadded::new(AtomicUsize::new(0)),
            slots: (0..threads)
                .map(|_| CachePadded::new(Slot::default()))
                .collect(),
        }
    }

    /// Park the calling thread in slot `idx` until a waker releases it,
    /// unless `ready` — the caller's re-scan of every queue it serves
    /// and of its exit condition — finds a reason not to, after the
    /// announcement. Panics if another thread is parked in the slot.
    pub fn park(&self, idx: usize, ready: impl FnOnce() -> bool) {
        let slot = &self.slots[idx];
        let took =
            slot.state
                .compare_exchange(AWAKE, CLAIMED, Ordering::Acquire, Ordering::Relaxed);
        assert!(
            took.is_ok(),
            "one thread at a time parks in sleeper slot {idx}"
        );
        // SAFETY: our CAS took the slot, so nobody else touches the
        // handle until we publish it with the `PARKED` store.
        unsafe { *slot.thread.get() = Some(std::thread::current()) };
        slot.state.store(PARKED, Ordering::Release);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        crate::fault::wake_site();
        // A planned spurious wake returns as if woken: the caller
        // re-scans, which it must tolerate anyway.
        if (ready() || crate::fault::park_site())
            && slot
                .state
                .compare_exchange(PARKED, AWAKE, Ordering::Release, Ordering::Relaxed)
                .is_ok()
        {
            self.sleepers.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        // Parked, or a waker already claimed the slot: wait for the
        // release. `thread::park` may return spuriously; the loop
        // re-checks the state.
        while slot.state.load(Ordering::Acquire) != NOTIFIED {
            std::thread::park();
        }
        slot.state.store(AWAKE, Ordering::Release);
    }

    /// Has some thread announced? The waker side's probe: a SeqCst fence,
    /// then one load. The fence orders the caller's publication before
    /// the load, pairing with the fence in `park`.
    #[inline]
    pub fn has_sleepers(&self) -> bool {
        fence(Ordering::SeqCst);
        self.sleepers.load(Ordering::Acquire) > 0
    }

    /// Wake one announced thread, if any. Call after publishing work.
    #[inline]
    pub fn notify_one(&self) {
        crate::fault::wake_site();
        if self.has_sleepers() {
            self.release(false);
        }
    }

    /// Wake every announced thread (shutdown, the all-done wake, several
    /// high-priority tasks at once).
    #[inline]
    pub fn notify_all(&self) {
        crate::fault::wake_site();
        if self.has_sleepers() {
            self.release(true);
        }
    }

    #[cold]
    fn release(&self, all: bool) {
        for slot in self.slots.iter() {
            if slot.state.load(Ordering::Relaxed) == PARKED
                && slot
                    .state
                    .compare_exchange(PARKED, NOTIFYING, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                self.sleepers.fetch_sub(1, Ordering::Relaxed);
                // SAFETY: our CAS took the slot in `NOTIFYING`: nobody
                // writes the handle until the slot is `AWAKE` again,
                // after our `NOTIFIED` store, and the Acquire CAS saw
                // the handle stored before `PARKED`.
                let thread = unsafe { (*slot.thread.get()).clone() };
                slot.state.store(NOTIFIED, Ordering::Release);
                if let Some(t) = thread {
                    t.unpark();
                }
                if !all {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskId;
    use crate::runtime::Priority;

    fn job(id: u64) -> Job {
        TaskNode::new(TaskId(id), "t", Priority::Normal)
    }

    #[test]
    fn injector_is_fifo() {
        let inj = Injector::new();
        inj.push(job(1));
        inj.push(job(2));
        inj.push(job(3));
        assert_eq!(pop_injector(&inj).unwrap().id(), TaskId(1));
        assert_eq!(pop_injector(&inj).unwrap().id(), TaskId(2));
        assert_eq!(pop_injector(&inj).unwrap().id(), TaskId(3));
        assert!(pop_injector(&inj).is_none());
    }

    #[test]
    fn own_deque_lifo_steal_fifo() {
        // The paper's central queue discipline: owner LIFO, thief FIFO.
        let w = crossbeam_deque::Worker::new_lifo();
        let s = w.stealer();
        w.push(job(1));
        w.push(job(2));
        w.push(job(3));
        // Thief takes the oldest.
        assert_eq!(steal_from(&s).unwrap().id(), TaskId(1));
        // Owner takes the newest.
        assert_eq!(w.pop().unwrap().id(), TaskId(3));
        assert_eq!(w.pop().unwrap().id(), TaskId(2));
        assert!(w.pop().is_none());
    }

    /// Spawn a thread parked in slot 1 of `ctl` (nothing to re-scan)
    /// and wait until it has announced.
    fn parked(ctl: &Arc<SleepCtl>, woke: &Arc<AtomicUsize>) -> std::thread::JoinHandle<()> {
        let (c2, w2) = (Arc::clone(ctl), Arc::clone(woke));
        let h = std::thread::spawn(move || {
            c2.park(1, || false);
            w2.fetch_add(1, Ordering::SeqCst);
        });
        while !ctl.has_sleepers() {
            std::thread::yield_now();
        }
        h
    }

    /// There is no park timeout: an announced sleeper that nobody wakes
    /// stays parked, however long, and a wake that finds no announced
    /// slot costs nothing.
    #[test]
    fn park_times_out() {
        let ctl = Arc::new(SleepCtl::new(2));
        ctl.notify_one(); // nobody announced: a fence and a load
        let woke = Arc::new(AtomicUsize::new(0));
        let h = parked(&ctl, &woke);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(woke.load(Ordering::SeqCst), 0, "no wake, no return");
        assert!(ctl.has_sleepers(), "still announced");
        ctl.notify_one();
        h.join().unwrap();
        assert_eq!(woke.load(Ordering::SeqCst), 1);
        assert!(!ctl.has_sleepers(), "the wake released the slot");
    }

    /// A notify releases a parked thread, and a `ready` re-scan that
    /// finds work after the announcement cancels the park outright.
    #[test]
    fn notify_wakes_parked_thread() {
        let ctl = Arc::new(SleepCtl::new(2));
        let woke = Arc::new(AtomicUsize::new(0));
        let h = parked(&ctl, &woke);
        ctl.notify_all();
        h.join().unwrap();
        assert_eq!(woke.load(Ordering::SeqCst), 1);
        ctl.park(0, || true);
        assert!(!ctl.has_sleepers(), "a cancelled park leaves no sleeper");
    }

    /// A slot holds one parked thread: a second thread parking in the
    /// same slot panics instead of racing the first for its handle.
    #[test]
    fn a_slot_parks_one_thread() {
        let ctl = Arc::new(SleepCtl::new(2));
        let woke = Arc::new(AtomicUsize::new(0));
        let h = parked(&ctl, &woke);
        let second =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctl.park(1, || true)));
        assert!(second.is_err(), "slot 1 is taken");
        ctl.notify_one();
        h.join().unwrap();
        assert_eq!(woke.load(Ordering::SeqCst), 1);
    }
}
