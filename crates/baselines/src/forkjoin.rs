//! A fork-join task pool with spawn/sync semantics and no dependency
//! analysis — the common substrate of the Cilk-like and OpenMP-3.0-like
//! baselines.
//!
//! Tasks are `'static` closures receiving a [`TaskCtx`] so they can spawn
//! nested tasks (both Cilk and OpenMP 3.0 support nesting — it is SMPSs
//! that treats nested task calls as plain function calls, §VII.B/D).
//! A [`Joiner`] counts outstanding children; [`TaskCtx::sync`] helps run
//! pool tasks until its joiner drains, which is the work-first "busy
//! sync" of Cilk-style runtimes.
//!
//! Helping runs a task on top of the waiting frame, so which tasks a
//! `sync` may run bounds the stack. Every task carries its spawn depth
//! (the root frame of [`ForkJoinPool::run`] is depth 0, its children 1,
//! theirs 2, …), and a `sync` at depth *d* runs only tasks deeper than
//! *d*, yielding otherwise — TBB's depth rule. Nested frames then grow
//! strictly deeper, so a thread's stack holds at most one frame per
//! level of the task tree, whatever the schedule. Without the rule a
//! waiting frame could run any stolen task, including a shallow one
//! that syncs and helps in turn, and `examples/nqueens` overflowed a
//! debug worker stack about one run in ten.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

/// How idle workers find tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Per-worker LIFO deques with FIFO stealing — the Cilk 5 scheduler
    /// ("work-stealing is done in FIFO order to steal tasks as big as
    /// possible", §VII.D).
    WorkStealing,
    /// One central FIFO queue — the original OpenMP 3.0 task-pool
    /// proposal (§VII.B).
    CentralQueue,
}

/// A queued task: its body and its spawn depth.
struct Task {
    depth: u32,
    body: Box<dyn FnOnce(&TaskCtx<'_>) + Send>,
}

struct Shared {
    policy: Policy,
    central: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    live: AtomicUsize,
    steals: AtomicU64,
    executed: AtomicU64,
    shutdown: AtomicBool,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    sleepers: AtomicUsize,
}

impl Shared {
    fn notify_one(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.sleep_lock.lock();
            self.sleep_cv.notify_one();
        }
    }

    fn notify_all(&self) {
        let _g = self.sleep_lock.lock();
        self.sleep_cv.notify_all();
    }
}

/// Execution context handed to every task body; also usable from the
/// caller thread through [`ForkJoinPool::run`].
pub struct TaskCtx<'a> {
    shared: &'a Shared,
    local: &'a Worker<Task>,
    index: usize,
    /// Depth of the frame running on this thread: 0 outside any task,
    /// else the running task's spawn depth.
    depth: Cell<u32>,
}

impl TaskCtx<'_> {
    /// Spawn a child task registered with `joiner`.
    pub fn spawn(&self, joiner: &Joiner, f: impl FnOnce(&TaskCtx<'_>) + Send + 'static) {
        joiner.0.fetch_add(1, Ordering::AcqRel);
        self.shared.live.fetch_add(1, Ordering::AcqRel);
        let j = Joiner(Arc::clone(&joiner.0));
        let task = Task {
            depth: self.depth.get() + 1,
            body: Box::new(move |ctx| {
                f(ctx);
                j.0.fetch_sub(1, Ordering::AcqRel);
            }),
        };
        match self.shared.policy {
            Policy::WorkStealing => self.local.push(task),
            Policy::CentralQueue => self.shared.central.push(task),
        }
        self.shared.notify_one();
    }

    /// Cilk's `sync` / OpenMP's `taskwait`: block until every child
    /// registered with `joiner` has finished, executing pool tasks
    /// deeper than this frame meanwhile (work-first, under the depth
    /// rule of the module docs).
    pub fn sync(&self, joiner: &Joiner) {
        while joiner.0.load(Ordering::Acquire) > 0 {
            if !self.run_one() {
                std::thread::yield_now();
            }
        }
    }

    /// Run one task deeper than the current frame, if one can be found.
    /// Returns whether anything ran.
    fn run_one(&self) -> bool {
        let depth = self.depth.get();
        if let Some(task) = self.find_task(depth) {
            self.depth.set(task.depth);
            (task.body)(self);
            self.depth.set(depth);
            self.shared.executed.fetch_add(1, Ordering::Relaxed);
            let was = self.shared.live.fetch_sub(1, Ordering::AcqRel);
            if was == 1 {
                self.shared.notify_all();
            }
            true
        } else {
            false
        }
    }

    /// A task deeper than `depth`. At depth 0 (the worker loop and the
    /// drain in [`ForkJoinPool::run`]) every task qualifies.
    ///
    /// Inside a task (`depth > 0`) only the own deque is searched. Its
    /// owner end holds this frame's children and their descendants,
    /// all deeper, above anything older, so a too-shallow pop means no
    /// deeper task is left there: it goes back and the frame yields.
    /// A stolen task could not go back to its victim, and parking it on
    /// the own deque would bury the deeper tasks under it; so waiting
    /// frames leave stealing to threads at depth 0, which run whatever
    /// they steal. Every child is therefore either reachable by its
    /// waiting parent or run to completion by a thief, and the rule
    /// cannot deadlock.
    fn find_task(&self, depth: u32) -> Option<Task> {
        match self.shared.policy {
            Policy::WorkStealing => {
                if let Some(t) = self.local.pop() {
                    if t.depth > depth {
                        return Some(t);
                    }
                    self.local.push(t);
                    return None;
                }
                if depth > 0 {
                    return None;
                }
                let n = self.shared.stealers.len();
                for off in 1..n {
                    let victim = (self.index + off) % n;
                    // `Retry` is a real outcome of the lock-free deque (a
                    // lost CAS race): yield rather than hard-spin so the
                    // winner can finish, which matters when threads
                    // outnumber cores.
                    loop {
                        match self.shared.stealers[victim].steal() {
                            Steal::Success(t) => {
                                self.shared.steals.fetch_add(1, Ordering::Relaxed);
                                return Some(t);
                            }
                            Steal::Empty => break,
                            Steal::Retry => std::thread::yield_now(),
                        }
                    }
                }
                None
            }
            // One queue for everyone: a too-shallow task goes back to
            // its tail for a thread at a lower depth.
            Policy::CentralQueue => loop {
                match self.shared.central.steal() {
                    Steal::Success(t) if t.depth > depth => return Some(t),
                    Steal::Success(t) => {
                        self.shared.central.push(t);
                        return None;
                    }
                    Steal::Empty => return None,
                    Steal::Retry => std::thread::yield_now(),
                }
            },
        }
    }
}

/// Child-counting join point (Cilk's implicit frame counter made
/// explicit).
pub struct Joiner(Arc<AtomicUsize>);

impl Joiner {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Joiner(Arc::new(AtomicUsize::new(0)))
    }

    /// Outstanding children.
    pub fn pending(&self) -> usize {
        self.0.load(Ordering::Acquire)
    }
}

/// The pool: `threads` compute threads including the caller of
/// [`run`](Self::run).
pub struct ForkJoinPool {
    shared: Arc<Shared>,
    main_local: Worker<Task>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl ForkJoinPool {
    pub fn new(threads: usize, policy: Policy) -> Self {
        Self::with_stack(threads, policy, None)
    }

    /// [`new`](Self::new) with an explicit worker stack size (`None`:
    /// the platform default).
    fn with_stack(threads: usize, policy: Policy, stack: Option<usize>) -> Self {
        assert!(threads >= 1);
        let mut locals: Vec<Worker<Task>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(|w| w.stealer()).collect();
        let shared = Arc::new(Shared {
            policy,
            central: Injector::new(),
            stealers,
            live: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
        });
        let main_local = locals.remove(0);
        let joins = locals
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let shared = Arc::clone(&shared);
                let builder = std::thread::Builder::new().name(format!("forkjoin-{}", i + 1));
                let builder = match stack {
                    Some(bytes) => builder.stack_size(bytes),
                    None => builder,
                };
                builder
                    .spawn(move || worker_loop(shared, local, i + 1))
                    .expect("failed to spawn baseline worker")
            })
            .collect();
        ForkJoinPool {
            shared,
            main_local,
            joins,
        }
    }

    /// Total compute threads.
    pub fn threads(&self) -> usize {
        self.shared.stealers.len()
    }

    /// Run `f` with the calling thread participating as worker 0. All
    /// tasks spawned inside must be synced by `f` (enforced: the pool
    /// drains remaining tasks before returning).
    pub fn run<R>(&self, f: impl FnOnce(&TaskCtx<'_>) -> R) -> R {
        let ctx = TaskCtx {
            shared: &self.shared,
            local: &self.main_local,
            index: 0,
            depth: Cell::new(0),
        };
        let r = f(&ctx);
        // Drain any stragglers so the pool is reusable.
        while self.shared.live.load(Ordering::Acquire) > 0 {
            if !ctx.run_one() {
                std::thread::yield_now();
            }
        }
        r
    }

    /// Parallel for over `0..n` in `chunks` roughly equal chunks: the
    /// inner-BLAS parallelism of the threaded-library baselines.
    pub fn parallel_for(&self, n: usize, chunks: usize, body: impl Fn(usize) + Send + Sync) {
        if n == 0 {
            return;
        }
        let chunks = chunks.clamp(1, n);
        let step = n.div_ceil(chunks);
        // SAFETY: the borrow is extended to 'static so chunk tasks can
        // capture it, but `sync` below guarantees every task finishes
        // before this frame returns, so no task outlives the borrow.
        let body_ref: &(dyn Fn(usize) + Send + Sync) = &body;
        let body_static: &'static (dyn Fn(usize) + Send + Sync) =
            unsafe { std::mem::transmute(body_ref) };
        self.run(|ctx| {
            let j = Joiner::new();
            let mut lo = 0;
            while lo < n {
                let hi = (lo + step).min(n);
                ctx.spawn(&j, move |_| {
                    for i in lo..hi {
                        body_static(i);
                    }
                });
                lo = hi;
            }
            ctx.sync(&j);
        });
    }

    /// Tasks executed / steals performed so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.shared.executed.load(Ordering::Relaxed),
            self.shared.steals.load(Ordering::Relaxed),
        )
    }
}

impl Drop for ForkJoinPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify_all();
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, local: Worker<Task>, index: usize) {
    let ctx = TaskCtx {
        shared: &shared,
        local: &local,
        index,
        depth: Cell::new(0),
    };
    let mut idle = 0;
    loop {
        if ctx.run_one() {
            idle = 0;
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        idle += 1;
        if idle < 64 {
            std::thread::yield_now();
        } else {
            shared.sleepers.fetch_add(1, Ordering::SeqCst);
            let mut g = shared.sleep_lock.lock();
            shared.sleep_cv.wait_for(&mut g, Duration::from_micros(200));
            drop(g);
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    fn fib(ctx: &TaskCtx<'_>, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let a = Arc::new(AtomicU64::new(0));
        let j = Joiner::new();
        let a2 = Arc::clone(&a);
        ctx.spawn(&j, move |ctx| {
            a2.store(fib(ctx, n - 1), Ordering::SeqCst);
        });
        let b = fib(ctx, n - 2);
        ctx.sync(&j);
        a.load(Ordering::SeqCst) + b
    }

    #[test]
    fn nested_fib_work_stealing() {
        let pool = ForkJoinPool::new(4, Policy::WorkStealing);
        let r = pool.run(|ctx| fib(ctx, 15));
        assert_eq!(r, 610);
    }

    #[test]
    fn nested_fib_central_queue() {
        let pool = ForkJoinPool::new(3, Policy::CentralQueue);
        let r = pool.run(|ctx| fib(ctx, 12));
        assert_eq!(r, 144);
    }

    #[test]
    fn sync_waits_for_all_children() {
        let pool = ForkJoinPool::new(4, Policy::WorkStealing);
        let counter = Arc::new(AtomicI64::new(0));
        pool.run(|ctx| {
            let j = Joiner::new();
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                ctx.spawn(&j, move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            ctx.sync(&j);
            assert_eq!(counter.load(Ordering::SeqCst), 100);
        });
    }

    /// Board prefixes of an n-queens search as one task each, the
    /// Cilk-like shape of `cilk::nqueens`, counting how many task frames
    /// are stacked on the running thread and recording the maximum.
    fn queens_nested(
        ctx: &TaskCtx<'_>,
        sol: Vec<u32>,
        row: usize,
        total: &Arc<AtomicU64>,
        deepest: &Arc<AtomicUsize>,
    ) {
        thread_local!(static NESTED: Cell<usize> = const { Cell::new(0) });
        let n = sol.len();
        if row == n {
            total.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let j = Joiner::new();
        for col in 0..n as u32 {
            if smpss_apps::nqueens::safe(&sol, row, col) {
                let mut next = sol.clone();
                next[row] = col;
                let (total, deepest) = (Arc::clone(total), Arc::clone(deepest));
                ctx.spawn(&j, move |ctx| {
                    let nested = NESTED.with(|c| {
                        c.set(c.get() + 1);
                        c.get()
                    });
                    deepest.fetch_max(nested, Ordering::Relaxed);
                    queens_nested(ctx, next, row + 1, &total, &deepest);
                    NESTED.with(|c| c.set(c.get() - 1));
                });
            }
        }
        ctx.sync(&j);
    }

    /// The depth rule bounds the stack by the task tree's depth: an
    /// n = 12 n-queens tree (tasks at depths 1..=12) runs on 256 KiB
    /// stacks, the caller's included, and no thread ever stacks more
    /// task frames than the tree has levels. Without the rule a waiting
    /// frame could run any stolen task, shallow ones included, so the
    /// nesting was bounded only by the schedule.
    #[test]
    fn depth_rule_bounds_the_stack_by_tree_depth() {
        const N: usize = 12;
        const STACK: usize = 256 << 10;
        let (solutions, deepest) = std::thread::Builder::new()
            .stack_size(STACK)
            .spawn(|| {
                let pool = ForkJoinPool::with_stack(4, Policy::WorkStealing, Some(STACK));
                let total = Arc::new(AtomicU64::new(0));
                let deepest = Arc::new(AtomicUsize::new(0));
                pool.run(|ctx| queens_nested(ctx, vec![0; N], 0, &total, &deepest));
                (total.load(Ordering::SeqCst), deepest.load(Ordering::SeqCst))
            })
            .expect("spawn the caller thread")
            .join()
            .expect("no stack overflow");
        assert_eq!(solutions, 14_200);
        assert!(
            deepest <= N,
            "{deepest} task frames nested on one thread, tree depth {N}"
        );
    }

    #[test]
    fn pool_is_reusable() {
        let pool = ForkJoinPool::new(2, Policy::WorkStealing);
        for _ in 0..5 {
            let r = pool.run(|ctx| fib(ctx, 10));
            assert_eq!(r, 55);
        }
        assert!(pool.stats().0 > 0);
    }

    #[test]
    fn parallel_for_covers_range() {
        let pool = ForkJoinPool::new(4, Policy::WorkStealing);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(1000, 8, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn parallel_for_empty_and_single() {
        let pool = ForkJoinPool::new(2, Policy::CentralQueue);
        pool.parallel_for(0, 4, |_| panic!("must not run"));
        let ran = AtomicUsize::new(0);
        pool.parallel_for(1, 4, |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }
}
