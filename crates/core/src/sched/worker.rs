//! The worker loop: task lookup, execution and completion propagation.
//!
//! A thread looks for work in exactly the §III order — high-priority
//! list, own list (LIFO), main list (FIFO), then one task stolen from
//! the other threads in creation order starting from the next one
//! (FIFO) — and, after running a
//! task, takes the released successor the completion hands it
//! (`finish_task`) before looking again. Nothing else decides where a
//! ready task runs.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crossbeam_deque::Worker;

use super::completion::{finish_task, Wake};
use super::cost::SAMPLE_EVERY;
use super::queues::{pop_injector, pop_injector_batch, steal_from, Idle, Job, TaskSource};
use crate::config::OnPanic;
use crate::runtime::{Priority, Shared};
use crate::trace::EventKind;

/// One thread's scheduling state: its own ready list, the private
/// buffer of tasks batch-claimed from the main list, and the reusable
/// ready-successor buffer of the completion fast path. Thread 0's
/// context lives in the [`Runtime`](crate::Runtime); workers own theirs
/// on the stack.
pub struct WorkerCtx {
    /// The thread's own ready list (LIFO for the owner, FIFO-stolen).
    pub(crate) local: Worker<Job>,
    /// Tasks claimed from the main list in a batch but not yet run —
    /// **single-thread or sessions-off runtimes only**. Private and
    /// single-owner, so pops are plain pointer moves (no fence, no CAS)
    /// and the batch preserves the main list's FIFO order exactly; its
    /// tasks still count as main-list pops. Once the builder enables
    /// sessions (bodies may park indefinitely) a multi-thread runtime
    /// spills the batch surplus onto the stealable `local` deque
    /// instead (see the claim sites in [`find_task`]): a buffer no
    /// thief can reach would strand the whole batch behind one blocking
    /// body — the BENCH_0008 head-of-line hang.
    claimed: VecDeque<Job>,
    /// The helper path's deferred hand-off: `help_once` must return
    /// after one task (its caller re-checks a blocking condition), so
    /// the released successor the worker loop would run immediately is
    /// parked here and picked up by the next lookup — still bypassing
    /// every queue. Logically the hottest entry of the own list.
    pub(crate) pending: Option<Job>,
    /// Reusable buffer for one completion's released-ready successors
    /// (the batched-publication scratch space; capacity persists, so
    /// steady-state completions allocate nothing).
    ready: Vec<Job>,
    /// Bodies this thread ran, modulo [`SAMPLE_EVERY`]: every
    /// `SAMPLE_EVERY`-th one is timed into [`Shared::costs`].
    runs: u32,
}

impl WorkerCtx {
    pub(crate) fn new(local: Worker<Job>) -> Self {
        WorkerCtx {
            local,
            claimed: VecDeque::with_capacity(16),
            pending: None,
            ready: Vec::with_capacity(32),
            runs: 0,
        }
    }

    /// The spawner is about to publish a task of a watched site (see
    /// `sched::cost`). If this thread's next run is a timed one, say so:
    /// the caller runs the task here instead, and the sample is taken
    /// on the spawner. Otherwise count the task against the schedule, so
    /// one in [`SAMPLE_EVERY`] of such tasks runs here even when this
    /// thread runs nothing else.
    pub(crate) fn sample_turn(&mut self) -> bool {
        if self.runs + 1 == SAMPLE_EVERY {
            true
        } else {
            self.runs += 1;
            false
        }
    }
}

/// Look for a ready task following the paper's §III order:
/// high-priority list → own list (LIFO) → main list (FIFO; served first
/// from the privately claimed batch, then by a fresh batch claim) →
/// steal one task from the other threads in creation order starting
/// from the next one (FIFO). A successful steal from a victim that
/// still has work wakes one more sleeper — demand-driven wake
/// propagation, which lets completions wake a single thief instead of
/// broadcasting.
#[inline]
pub fn find_task(shared: &Shared, ctx: &mut WorkerCtx, idx: usize) -> Option<(Job, TaskSource)> {
    // One relaxed load short-circuits the high-priority probe for
    // programs that never use `highpriority` (the common case); once a
    // single HP task has been enqueued the full check runs forever
    // after. The latch is stored before the push, and the pre-park
    // re-scan (`Shared::has_work`) probes the HP list itself, so a
    // racing first HP push is never slept through.
    if shared.hp_used.load(Ordering::Relaxed) {
        if let Some(job) = pop_injector(&shared.hp) {
            return Some((job, TaskSource::HighPriority));
        }
    }
    if let Some(job) = ctx.local.pop() {
        return Some((job, TaskSource::OwnList));
    }
    // Previously claimed main-list tasks: the front of the main
    // list, FIFO, already paid for — a plain buffer pop.
    if let Some(job) = ctx.claimed.pop_front() {
        return Some((job, TaskSource::MainList));
    }
    // Batch claims: one fenced head claim pays for the whole
    // batch. Where the surplus lands is a policy split:
    //
    // - **A private buffer** (plain fence-free pops) whenever the
    //   claimer can't starve anyone: a single-thread runtime (no
    //   thieves exist), or a sessions-off runtime — the paper's
    //   single-tenant model, where task bodies are compute
    //   kernels assumed to run to completion, so a claimed batch
    //   is pinned behind at most a few microseconds of work.
    // - **The claimer's stealable deque** once a session is
    //   open: the multi-tenant front door admits
    //   bodies that may park indefinitely, and a private batch
    //   would strand one tenant's already-published tasks behind
    //   another tenant's blocker while the rest of the pool
    //   idles (the BENCH_0008 head-of-line hang). Isolation
    //   costs those runtimes one fenced owner pop per surplus
    //   task — the price of making every claimed task reachable
    //   without the claimer's cooperation.
    //
    // A spill is a publication like any other, so it probes for
    // sleepers: the claim emptied the main list, and a worker
    // that announced before it would otherwise sleep next to
    // stealable work while the claimer blocks in a body. The
    // probe is a fence and a load; the futex wake is paid only
    // when someone has announced, which spinning workers in a
    // storm have not.
    //
    // The sessions level is read per surplus task, *after* the
    // claim: the sink runs past the Acquire load that saw the
    // task's push, and a session task is pushed after the first
    // `Runtime::session` call latched the level, so a session
    // task always reads it and spills. A task claimed into the
    // private buffer before the latch is session-less.
    let threads1 = shared.cfg.threads == 1;
    let claimed = &mut ctx.claimed;
    let local = &ctx.local;
    let mut spilled = false;
    let job = pop_injector_batch(&shared.main_q, &mut |j| {
        if threads1 || !shared.sessions_used() {
            claimed.push_back(j);
        } else {
            local.push(j);
            spilled = true;
        }
    });
    if spilled {
        shared.sleep.notify_one();
    }
    if let Some(job) = job {
        return Some((job, TaskSource::MainList));
    }
    let n = shared.stealers.len();
    for off in 1..n {
        let victim = (idx + off) % n;
        if let Some(job) = steal_from(&shared.stealers[victim]) {
            if !shared.stealers[victim].is_empty() {
                // The victim has more: propagate the wake so the
                // next sleeper comes for it.
                shared.sleep.notify_one();
            }
            return Some((job, TaskSource::Stolen { victim }));
        }
    }
    None
}

/// Publish a task born ready on the spawning path: to the main list
/// (the §III "point of distribution of tasks in areas of the graph that
/// are not being explored"). High-priority tasks always go to the
/// global high-priority list so that they are "scheduled as soon as
/// possible independently of any locality consideration".
///
/// Tasks a completion releases never come here: the completing thread
/// keeps them (`finish_task`'s batch and hand-off).
#[inline]
pub fn enqueue_ready(shared: &Shared, job: Job) {
    // Every push probes for sleepers (see `SleepCtl`): a fence and a
    // load, and a futex wake only if some thread has announced. A task
    // storm onto busy or spinning workers therefore pays no system call.
    if job.priority() == Priority::High {
        shared.hp_used.store(true, Ordering::Relaxed);
        shared.hp.push(job);
    } else {
        shared.main_q.push(job);
    }
    shared.sleep.notify_one();
}

/// Execute one task and propagate readiness to its successors. The
/// finished node goes to `give_back` (the caller's way back into the
/// spawn-side pool) before the completion counts. Returns the direct
/// hand-off, if any: the released successor this worker should run
/// next without any queue round-trip.
///
/// `owned` marks a job that was never published to any queue (a direct
/// hand-off): its consumer is statically unique, so the body take skips
/// the consumer-election CAS.
#[allow(clippy::too_many_arguments)]
pub fn run_task(
    shared: &Shared,
    ctx: &mut WorkerCtx,
    idx: usize,
    job: Job,
    source: TaskSource,
    allow_handoff: bool,
    owned: bool,
    give_back: impl FnOnce(Job),
) -> Option<Job> {
    let claimed_empty = ctx.claimed.is_empty();
    match source {
        TaskSource::HighPriority => shared.stats.hp_pops(idx),
        TaskSource::OwnList => shared.stats.own_pops(idx),
        TaskSource::MainList => shared.stats.main_pops(idx),
        TaskSource::Stolen { victim } => {
            shared.stats.steals(idx);
            shared.trace_event(idx, EventKind::Steal { victim });
        }
    }
    shared.trace_event(idx, EventKind::Start(job.id(), job.name()));
    // `threads == 1` means the main thread is the only consumer and the
    // only completer: the one-shot protocols degrade to plain loads and
    // stores (no CAS, no RMW, no wakeups — nobody else exists to race
    // or to wake). This is the §III spawner-limited case the paper pins
    // scalability on, so the serial path is kept as lean as possible.
    let mut body = if owned || shared.cfg.threads == 1 {
        job.take_body_owned()
    } else {
        job.take_body()
    };
    // Failure containment: a cancelled task's body never runs (dropping
    // the taken body drops the captured bindings, so read windows still
    // close lock-free), and a panicking body is caught here — the task
    // is stamped and completes through the normal protocol below, so
    // the scheduler never loses count. `catch_unwind` costs nothing on
    // the non-panic path (a landing pad, no allocation), keeping the
    // alloc-budget and perf gates intact.
    // The whole check rides behind one Relaxed load of the runtime-wide
    // fault flag (false until some task has failed): a cancellation
    // stamp can only exist after a failure was noted, and the note's
    // flag store is ordered before the stamp's release edge, so leading
    // with the flag never misses a stamped node — and the fault-free
    // hot path pays one always-false padded-line load instead of a
    // per-node probe plus a policy compare. Sessions add one more
    // always-false padded-line probe (`sessions_used`, latched by the
    // first `Runtime::session()` call): session-less runs take the
    // original branch bit for bit, sessioned runs take the scoped one.
    let skip = if shared.sessions_used() {
        session_skip(shared, &job)
    } else {
        shared.faulted() && (job.cancel_requested() || shared.cfg.on_panic == OnPanic::FailFast)
    };
    let mut poisoned = false;
    if skip {
        drop(body); // bindings drop here: read windows close lock-free
        contain_cancelled(shared, &job);
        poisoned = true;
    } else {
        // Cost sampling for inline placement (only on runtimes that can
        // inline): one body in `SAMPLE_EVERY` on this thread is timed.
        let sample = shared.inline_costs().and_then(|costs| {
            ctx.runs = (ctx.runs + 1) % SAMPLE_EVERY;
            (ctx.runs == 0).then(|| (costs, Instant::now()))
        });
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::fault::body_site(job.id().0);
            // By-ref: bindings drop inside; read windows close lock-free.
            body.run_in_place();
        })) {
            Ok(()) => {
                if let Some((costs, t0)) = sample {
                    // Thread 0 is the spawner: the table is in use only
                    // while it is the one spawner.
                    costs.record(job.name(), t0.elapsed().as_nanos() as u64, idx == 0);
                }
            }
            Err(payload) => {
                contain_failed(shared, &job, payload);
                poisoned = true;
            }
        }
    }
    // CancelDependents propagates through the completion walk below;
    // FailFast relies on the runtime-wide flag instead, and Isolate
    // contains the fault to this node.
    let poison = poisoned && shared.cfg.on_panic == OnPanic::CancelDependents;
    shared.trace_event(idx, EventKind::End(job.id()));

    // The completion hand-off is lock-free end to end: `complete`
    // detaches the successor list with one swap, the batch publishes in
    // one shot, and accounting is a padded single-writer shard — see
    // `sched::completion`. The wake *plan* is executed here, outside
    // the lock-free module.
    let (handoff, wake) = finish_task(
        shared,
        &ctx.local,
        idx,
        job,
        poison,
        allow_handoff,
        claimed_empty,
        &mut ctx.ready,
        give_back,
    );
    match wake {
        Wake::None => {}
        Wake::One => shared.sleep.notify_one(),
        Wake::Barrier => shared.sleep.notify_barrier(),
        Wake::All => shared.sleep.notify_all(),
    }
    handoff
}

/// Session-aware skip decision, taken only once some session has been
/// opened (`sessions_used`). Extends the fault-driven skip of the
/// session-less branch with **session-scoped FailFast** — a panic under
/// `FailFast` sheds at most the offending session's pending set (a
/// session task probes its own session's fault flag, a session-less
/// task probes the session-0 flag) — and adds the two session-driven
/// skips: revocation (`Session::cancel_all`) and an armed, expired
/// deadline, which revokes the session on first observation so every
/// later task of that session skips on the cheap revoked probe.
fn session_skip(shared: &Shared, job: &Job) -> bool {
    let ctl = job.session_ctl();
    if shared.faulted() {
        if job.cancel_requested() {
            return true;
        }
        if shared.cfg.on_panic == OnPanic::FailFast {
            let hit = match ctl {
                Some(c) => c.is_faulted(),
                None => shared.faulted0(),
            };
            if hit {
                return true;
            }
        }
    }
    ctl.is_some_and(|c| c.should_skip(shared))
}

/// Skip path for a cancelled task: stamp the node, log it. `#[cold]`
/// keeps the registry call out of `run_task`'s straight-line code.
#[cold]
#[inline(never)]
fn contain_cancelled(shared: &Shared, job: &Job) {
    job.stamp_cancelled();
    shared.note_cancelled(job);
}

/// Containment path for a panicked body: stamp the node, bank the
/// payload. `#[cold]` for the same reason as [`contain_cancelled`].
#[cold]
#[inline(never)]
fn contain_failed(shared: &Shared, job: &Job, payload: Box<dyn std::any::Any + Send>) {
    job.stamp_failed();
    shared.note_failed(job, payload);
}

/// Body of each spawned worker thread.
///
/// After each task the worker first rides the direct hand-off chain —
/// the released successor runs immediately, no queue, no wake — unless
/// high-priority work appeared, which preempts the chain ("scheduled as
/// soon as possible"). Idle handling is one bounded spin and one exact
/// park: the worker keeps scanning for up to `SPIN_WINDOW` (80 µs; not
/// at all if its last idle spell outlasted the window), then parks in its
/// [`SleepCtl`](super::queues::SleepCtl) slot with no timeout. The
/// park's re-scan covers every queue and the shutdown flag.
pub fn worker_loop(shared: Arc<Shared>, local: Worker<Job>, idx: usize) {
    let mut ctx = WorkerCtx::new(local);
    let mut idle = Idle::default();
    loop {
        if let Some((job, src)) = find_task(&shared, &mut ctx, idx) {
            idle.end();
            let mut next = Some((job, src, false));
            while let Some((job, src, owned)) = next.take() {
                // Spawn-side fast path: the finished node goes back
                // through the lock-free free stack; the spawner recycles
                // it.
                let handoff = run_task(&shared, &mut ctx, idx, job, src, true, owned, |done| {
                    shared.recycle_node(done)
                });
                if let Some(succ) = handoff {
                    if shared.hp_used.load(Ordering::Relaxed) && !shared.hp.is_empty() {
                        // High-priority work preempts the chain: park the
                        // successor on the own list (where it would have
                        // gone) and rescan from the top of the order.
                        ctx.local.push(succ);
                    } else {
                        shared.stats.handoffs(idx);
                        next = Some((succ, TaskSource::OwnList, true));
                    }
                }
            }
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        idle.wait(&shared.sleep, idx, || {
            shared.has_work() || shared.shutdown.load(Ordering::Acquire)
        });
    }
}
