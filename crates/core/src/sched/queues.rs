//! Ready-queue plumbing: injector draining, idle parking.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_deque::{Injector, Steal, Stealer};
use parking_lot::{Condvar, Mutex};

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

/// Idle-thread parking. Workers that repeatedly find no work park on the
/// condvar with a timeout; every enqueue wakes one sleeper.
///
/// Wakeup protocol: `sleepers` is incremented **under the lock** before
/// waiting and a notifier that observes `sleepers > 0` takes the same
/// lock before notifying, so a notify cannot slip between a parker's
/// registration and its wait. Publication paths additionally **re-probe
/// after publishing**: batched completion publication
/// (`sched/completion.rs`) decides its wake against pre-push emptiness
/// observations, then — if that decision was "nobody to wake" despite
/// having pushed work — checks [`has_sleepers`](SleepCtl::has_sleepers)
/// once more *after* the pushes are visible, so a worker that parked
/// between a publisher's scan of the queues and its push is still
/// woken. The one remaining window is a worker whose last queue scan
/// missed the push **and** whose sleeper registration lands after the
/// publisher's re-probe; that stale miss is bounded by the park timeout
/// (`RuntimeConfig::park_micros`, default 100µs): the worker re-scans
/// at most one timeout later, so the scheduler can stall but never
/// hang.
///
/// Orderings: Acquire/Release suffice. The notifier's Release increment
/// of queue state happens before its Acquire load of `sleepers`; the
/// parker's Release increment of `sleepers` (under the lock) pairs with
/// it. No ordering between two unrelated wakeups is needed, so SeqCst
/// buys nothing here.
pub struct SleepCtl {
    lock: Mutex<()>,
    cv: Condvar,
    /// Cache-line-padded: every completion probes this count (the wake
    /// fast path), and without padding it false-shares with the mutex
    /// word that parking threads write.
    sleepers: CachePadded<AtomicUsize>,
}

impl Default for SleepCtl {
    fn default() -> Self {
        SleepCtl {
            lock: Mutex::new(()),
            cv: Condvar::new(),
            sleepers: CachePadded::new(AtomicUsize::new(0)),
        }
    }
}

impl SleepCtl {
    /// Park the calling thread for at most `timeout`.
    pub fn park(&self, timeout: Duration) {
        let mut guard = self.lock.lock();
        // Registered under the lock: a notifier that sees this count
        // holds the lock before notifying, so it cannot fire before the
        // wait below starts.
        self.sleepers.fetch_add(1, Ordering::Release);
        self.cv.wait_for(&mut guard, timeout);
        self.sleepers.fetch_sub(1, Ordering::Release);
        drop(guard);
    }

    /// Is anyone parked right now? The completion path gates its
    /// all-done probe on this (an Acquire load, lock-free).
    pub fn has_sleepers(&self) -> bool {
        self.sleepers.load(Ordering::Acquire) > 0
    }

    /// Wake one parked thread, if any. The unlocked fast path is a
    /// single Acquire load when nobody sleeps (the steady busy state).
    pub fn notify_one(&self) {
        if self.sleepers.load(Ordering::Acquire) > 0 {
            let _guard = self.lock.lock();
            self.cv.notify_one();
        }
    }

    /// Wake every parked thread (shutdown, barrier completion).
    pub fn notify_all(&self) {
        if self.sleepers.load(Ordering::Acquire) > 0 {
            let _guard = self.lock.lock();
            self.cv.notify_all();
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

    #[test]
    fn park_times_out() {
        let ctl = SleepCtl::default();
        let t0 = std::time::Instant::now();
        ctl.park(Duration::from_millis(5));
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn notify_wakes_parked_thread() {
        let ctl = Arc::new(SleepCtl::default());
        let c2 = Arc::clone(&ctl);
        let h = std::thread::spawn(move || {
            c2.park(Duration::from_secs(10));
        });
        // Give the thread a moment to park, then wake it; the join proves
        // the wakeup (well before the 10s timeout).
        while ctl.sleepers.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        ctl.notify_all();
        h.join().unwrap();
    }
}
