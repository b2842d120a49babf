//! The multi-session front door: admission control, per-session
//! cancellation and graceful overload shedding.
//!
//! A [`Session`] is a tenant's handle onto a shared runtime, and the one
//! way for a thread other than the main thread to spawn: every task
//! spawned through it is stamped with the session's control block, and
//! two per-tenant behaviours hang off that stamp —
//!
//! * **Admission control**: [`Session::task`] enforces the builder's
//!   per-session in-flight quota ([`session_max_in_flight`]) as real
//!   backpressure *before* the task exists. The [`AdmissionPolicy`]
//!   decides what over-quota means: `Block` waits (bounded backoff,
//!   draining as workers finish), `Shed` returns [`Overloaded`]
//!   immediately — never silently dropping analysed state, because the
//!   rejection happens before any analysis.
//! * **Scoped cancellation**: [`Session::cancel_all`] revokes one
//!   session; its pending tasks cancel while every other tenant keeps
//!   running untouched. [`Session::wait`] quiesces and reports exactly
//!   this session's failures, leaving other tenants' records in place.
//!
//! Failure containment is session-scoped too: a panic poisons only
//! same-session dependents (see `TaskNode::same_session`).
//!
//! ## Hot-path containment
//!
//! A runtime that never opens a session pays exactly one always-false
//! padded load per task (`Shared::sessions_used`, the same trick as
//! the fault probe) — no session pointer is ever read or written. The
//! first [`Runtime::session`] call latches the runtime's spawner mode
//! to sessions; nothing on the builder opts in.
//! The admission path itself is atomics + backoff only: the session
//! registry's locking lives behind `Shared` methods in `runtime/mod.rs`,
//! and a unit test below (plus the workspace test
//! `tests/lock_free_sources.rs`) pins this file free of blocking
//! primitives, like the completion path and the shard module.
//!
//! [`session_max_in_flight`]: crate::RuntimeBuilder::session_max_in_flight

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::config::AdmissionPolicy;
use crate::ids::SessionId;
use crate::padded::CachePadded;
use crate::runtime::shard::LaneCache;
use crate::runtime::spawner::{SpawnHost, TaskSpawner};
use crate::runtime::{Runtime, TaskFailures};
use crate::sched::queues::Backoff;

/// Per-session control block. One allocation per session, owned by the
/// runtime's session registry (so the raw pointers stamped on task
/// nodes outlive every task) and shared with the [`Session`] handle.
///
/// Counter roles:
/// * `spawned` is single-writer — the session thread bumps it at
///   admission (a `Session` is `!Sync`, so no RMW needed);
/// * `finished` is multi-writer — whichever worker completes a session
///   task bumps it with a Release RMW that [`Session::wait`]'s Acquire
///   load pairs with.
///
/// Each counter sits on its own cache line: workers hammer `finished`
/// while the session thread polls it plus its own `spawned` on every
/// admission check.
pub(crate) struct SessionCtl {
    id: SessionId,
    spawned: CachePadded<AtomicU64>,
    finished: CachePadded<AtomicU64>,
    /// Sticky once set by `cancel_all`: pending tasks skip as
    /// cancelled, new submissions shed.
    revoked: AtomicBool,
}

impl SessionCtl {
    fn new(id: SessionId) -> SessionCtl {
        SessionCtl {
            id,
            spawned: CachePadded::new(AtomicU64::new(0)),
            finished: CachePadded::new(AtomicU64::new(0)),
            revoked: AtomicBool::new(false),
        }
    }

    /// The session's 1-based id.
    #[inline]
    pub(crate) fn id(&self) -> SessionId {
        self.id
    }

    /// Admission reserved one task slot (single writer: the session
    /// thread, under its `!Sync` pin — load + store, no RMW).
    #[inline]
    fn note_spawned(&self) {
        let next = self.spawned.load(Ordering::Relaxed) + 1;
        self.spawned.store(next, Ordering::Relaxed);
    }

    /// A session task completed. Called from the completion path
    /// (multi-writer); the Release pairs with [`Session::wait`]'s
    /// Acquire, ordering the task's effects before the waiter resumes.
    #[inline]
    pub(crate) fn note_finished(&self) {
        self.finished.fetch_add(1, Ordering::Release);
    }

    /// Admitted-but-unfinished session tasks. The `spawned` read is
    /// exact on the session thread; `finished` can only lag, so the
    /// quota check may briefly over-count — it never under-blocks.
    #[inline]
    fn in_flight(&self) -> u64 {
        let spawned = self.spawned.load(Ordering::Relaxed);
        spawned.saturating_sub(self.finished.load(Ordering::Acquire))
    }

    #[inline]
    fn revoke(&self) {
        self.revoked.store(true, Ordering::Relaxed);
    }

    /// Has [`Session::cancel_all`] revoked this session? The worker-side
    /// skip probe for a session-stamped task: one Relaxed flag load.
    #[inline]
    pub(crate) fn revoked(&self) -> bool {
        self.revoked.load(Ordering::Relaxed)
    }
}

/// Why a submission was refused. Carried by [`Overloaded`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadReason {
    /// The session's in-flight task quota
    /// ([`session_max_in_flight`](crate::RuntimeBuilder::session_max_in_flight))
    /// is full.
    InFlight,
    /// The session was revoked by [`Session::cancel_all`].
    Revoked,
}

/// A submission was refused by admission control. Returned by
/// [`Session::task`]; nothing was spawned, analysed or dropped — the
/// caller still owns whatever it meant to run and can retry, back off,
/// or give up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded {
    /// The refusing session.
    pub session: SessionId,
    /// What was over (or gone).
    pub reason: OverloadReason,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.reason {
            OverloadReason::InFlight => "in-flight task quota full",
            OverloadReason::Revoked => "session revoked",
        };
        write!(f, "{} rejected a submission: {}", self.session, what)
    }
}

impl std::error::Error for Overloaded {}

/// One tenant's front door onto a shared [`Runtime`]: a spawner that
/// stamps its tasks with the session, plus admission control. Created
/// by [`Runtime::session`]; `Send + !Sync` — move it onto the tenant's
/// thread and spawn through [`task`](Session::task). Any number of
/// sessions may spawn at once, beside the main thread: the analysis
/// sequence, renaming decisions and recorded graph are the main
/// thread's, only the id mint turns into an RMW and every object access
/// enters the runtime's one analysis gate.
///
/// A session does not run tasks. A runtime whose sessions meet a §III
/// blocking condition should keep `threads >= 2`: the session-side
/// throttle waits for workers to drain the graph rather than helping
/// (it has no scheduling context to help with).
///
/// ```
/// # use smpss::Runtime;
/// let rt = Runtime::builder()
///     .threads(2)
///     .session_max_in_flight(64)
///     .build();
/// let session = rt.session();
/// let x = rt.data(0u32);
/// let mut sp = session.task("set").expect("under quota");
/// let mut w = sp.write(&x);
/// sp.submit(move || *w.get_mut() = 7);
/// session.wait().expect("no failures");
/// assert_eq!(rt.read(&x), 7);
/// ```
pub struct Session {
    /// This session's recycled nodes and spare links.
    cache: LaneCache,
    /// Stamped on every node the session acquires.
    ctl: Arc<SessionCtl>,
}

impl Session {
    /// This session's id (1-based; [`SessionId::NONE`] never names a
    /// real session).
    pub fn id(&self) -> SessionId {
        self.ctl.id()
    }

    /// Revoke the session: every pending (not-yet-started) task of this
    /// session cancels (stamped and reported exactly, like
    /// failure-containment cancellations), every later submission
    /// returns [`OverloadReason::Revoked`] — and no other session is
    /// touched. Tasks already executing run to completion: cancellation
    /// is between tasks, never inside one. Sticky: open a new session
    /// to continue work.
    pub fn cancel_all(&self) {
        self.ctl.revoke();
    }

    /// Begin a task invocation, subject to admission control. `Ok` is a
    /// reserved slot: the spawner analyses and submits exactly like
    /// [`Runtime::task`](crate::Runtime::task). `Err` means the quota
    /// verdict of the configured [`AdmissionPolicy`] (or a revoked
    /// session) — nothing was created.
    pub fn task(&self, name: &'static str) -> Result<TaskSpawner<'_, Session>, Overloaded> {
        self.admit()?;
        Ok(TaskSpawner::new(self, name))
    }

    /// Has any task failed (body panicked) or been cancelled since the
    /// runtime's last [`wait_all`](Runtime::wait_all) drain? One Relaxed
    /// flag load — a producer thread can probe this per submission to
    /// stop feeding a graph whose downstream already died, without
    /// waiting for a barrier. The payloads stay with
    /// [`wait`](Self::wait) and [`wait_all`](Runtime::wait_all); this is
    /// only the tripwire.
    #[inline]
    pub fn has_failures(&self) -> bool {
        self.shared().faulted()
    }

    /// Block until every task admitted through this session has
    /// finished, then report exactly this session's failures since its
    /// last drain — other tenants' records stay in the registry for
    /// their own `wait` (or the runtime's
    /// [`wait_all`](crate::Runtime::wait_all)). Helps nobody: the
    /// session thread is a producer, not a worker, so this parks on
    /// backoff like the session-side throttle.
    pub fn wait(&self) -> Result<(), TaskFailures> {
        let target = self.ctl.spawned.load(Ordering::Relaxed);
        let mut backoff = Backoff::new();
        while self.ctl.finished.load(Ordering::Acquire) < target {
            backoff.snooze();
        }
        let log = self.shared().drain_session_failures(self.ctl.id());
        if log.failed.is_empty() && log.cancelled.is_empty() {
            return Ok(());
        }
        Err(TaskFailures {
            failed: log.failed,
            cancelled: log.cancelled,
        })
    }

    /// Admitted-but-unfinished tasks of this session.
    pub fn in_flight(&self) -> u64 {
        self.ctl.in_flight()
    }

    /// The admission state machine (see DESIGN.md): revoked → refuse;
    /// under quota → reserve + admit; over quota → the policy decides
    /// (shed now, or wait and re-probe). Stats count one
    /// `admission_waits` per waiting *submission* (not per spin) and
    /// one `admission_sheds` per refusal.
    fn admit(&self) -> Result<(), Overloaded> {
        let mut backoff = Backoff::new();
        let mut counted_wait = false;
        loop {
            if self.ctl.revoked() {
                return Err(self.refuse(OverloadReason::Revoked));
            }
            if !self.over_quota() {
                self.ctl.note_spawned();
                return Ok(());
            }
            match self.shared().cfg.admission {
                AdmissionPolicy::Shed => {
                    self.shared().stats.admission_sheds();
                    return Err(self.refuse(OverloadReason::InFlight));
                }
                AdmissionPolicy::Block => {
                    if !counted_wait {
                        counted_wait = true;
                        self.shared().stats.admission_waits();
                    }
                    backoff.snooze();
                }
            }
        }
    }

    /// One quota probe. A planned fault-injection stall
    /// (`admission_site`) reads as over-quota for exactly the planned
    /// number of probes; a planned forced shed (`shed_site`) likewise —
    /// under the `Shed` policy the latter turns into a refusal, which
    /// is the injection's point.
    fn over_quota(&self) -> bool {
        if crate::fault::admission_site() || crate::fault::shed_site() {
            return true;
        }
        self.shared()
            .cfg
            .session_max_in_flight
            .is_some_and(|limit| self.ctl.in_flight() >= limit as u64)
    }

    #[cold]
    fn refuse(&self, reason: OverloadReason) -> Overloaded {
        Overloaded {
            session: self.ctl.id(),
            reason,
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.ctl.id())
            .field("in_flight", &self.ctl.in_flight())
            .finish()
    }
}

impl SpawnHost for Session {
    #[inline]
    fn lane_cache(&self) -> &LaneCache {
        &self.cache
    }

    /// The session-side §III throttle: watch the same shared live-task
    /// count and live-version bytes as the runtime's throttle, but
    /// *wait* for the workers instead of helping (a session has no
    /// worker context).
    fn after_submit(&self) {
        let shared = self.shared();
        if let Some(limit) = shared.cfg.graph_size_limit {
            if shared.live_now() > limit {
                shared.stats.throttle_blocks();
                while shared.live_now() > limit {
                    std::thread::yield_now();
                }
            }
        }
        if let Some(limit) = shared.cfg.memory_limit {
            if shared.live_bytes.load(Ordering::Acquire) > limit && shared.live_now() > 0 {
                // Give the version slab a chance to free dead parked
                // spares before blocking at all.
                shared.reclaim_spares(limit);
                if shared.live_bytes.load(Ordering::Acquire) > limit && shared.live_now() > 0 {
                    shared.stats.throttle_blocks();
                    while shared.live_bytes.load(Ordering::Acquire) > limit && shared.live_now() > 0
                    {
                        // Completions may have killed the last readers
                        // of parked spares; a reclaim pass frees bytes
                        // a bare yield would keep waiting on.
                        if shared.reclaim_spares(limit) == 0 {
                            std::thread::yield_now();
                        }
                    }
                }
            }
        }
    }

    /// Every node the session acquires is stamped with its control
    /// block (`TaskSpawner::new`).
    #[inline]
    fn session_ctl(&self) -> Option<&SessionCtl> {
        Some(&self.ctl)
    }
}

impl Runtime {
    /// Open a session: a `Send` front-door handle for one tenant
    /// thread, admitted against the builder's in-flight quota. Any
    /// runtime opens sessions, at any time, from the main thread; move
    /// each to its tenant's thread. Any number of sessions can spawn
    /// concurrently — object accesses serialise on the runtime's one
    /// analysis gate. The first call moves the runtime's own spawn
    /// path onto the gated paths for good.
    pub fn session(&self) -> Session {
        self.latch_spawners();
        let id = SessionId(self.shared.next_session.fetch_add(1, Ordering::Relaxed) + 1);
        let ctl = Arc::new(SessionCtl::new(id));
        self.shared.register_session(&ctl);
        Session {
            cache: LaneCache::new(Arc::clone(&self.shared)),
            ctl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The session admission path must add no blocking primitive: the
    /// quota loop is atomics + backoff, and all registry locking lives
    /// behind `Shared` methods in `runtime/mod.rs`. Runtime-assembled
    /// needles so this test does not match itself (same trick as the
    /// completion-path and shard-module gates).
    #[test]
    fn session_module_contains_no_mutex() {
        let source = include_str!("session.rs");
        let needles = [["Mu", "tex"].concat(), [".lo", "ck()"].concat()];
        for needle in &needles {
            assert_eq!(
                source.matches(needle.as_str()).count(),
                0,
                "the session admission path must stay lock-free (found {:?})",
                needle
            );
        }
    }

    /// Sessions are Send (one per tenant thread); compile-time pin.
    #[test]
    fn session_is_send() {
        fn require_send<T: Send>() {}
        require_send::<Session>();
    }

    /// A session needs no builder opt-in: a plain runtime starts with
    /// one spawner and opening a session moves it to the sessions mode,
    /// where the session's task runs and is waited for.
    #[test]
    fn session_requires_builder_opt_in() {
        let rt = Runtime::builder().threads(1).build();
        assert!(!rt.shared.sessions_used());
        let s = rt.session();
        assert!(rt.shared.sessions_used());
        let x = rt.data(0u32);
        let mut sp = s.task("set").expect("no quota configured");
        let mut w = sp.write(&x);
        sp.submit(move || *w.get_mut() = 3);
        // One thread: the helping barrier runs the task, not `wait`.
        rt.barrier();
        s.wait().expect("no failures");
        assert_eq!(rt.read(&x), 3);
    }

    /// Sessions get distinct ids and spawn into one runtime: every
    /// session's cache feeds from the runtime's one free stack.
    #[test]
    fn sessions_get_distinct_ids_and_round_robin_lanes() {
        let rt = Runtime::builder().threads(1).build();
        let a = rt.session();
        let b = rt.session();
        let c = rt.session();
        assert_eq!(a.id(), SessionId(1));
        assert_eq!(b.id(), SessionId(2));
        assert_eq!(c.id(), SessionId(3));
        for s in [&a, &b, &c] {
            assert!(std::ptr::eq(s.shared(), &*rt.shared));
        }
        assert_eq!(rt.stats().sessions_opened, 3);
    }

    /// Opening a session moves the runtime to concurrent spawners, so
    /// the main thread enters the one gate too; the session spawns
    /// through that same gate and its task runs.
    #[test]
    fn single_shard_session_spawns_through_lane_zero() {
        let rt = Runtime::builder().threads(2).build();
        assert!(
            !rt.shared.sessions_used(),
            "one spawner until a session opens"
        );
        let s = rt.session();
        assert!(rt.shared.sessions_used());
        assert!(s.lane_enter().is_some(), "a session always gates");
        let x = rt.data(0u32);
        let mut sp = s.task("set").expect("no quota configured");
        let mut w = sp.write(&x);
        sp.submit(move || *w.get_mut() = 7);
        s.wait().expect("no failures");
        assert_eq!(rt.read(&x), 7);
    }

    /// The Shed policy refuses the (quota+1)-th concurrent submission
    /// immediately, with the exact reason, and admits again once the
    /// quota drains.
    #[test]
    fn shed_policy_refuses_over_quota_and_recovers() {
        let rt = Runtime::builder()
            .threads(2)
            .session_max_in_flight(1)
            .admission(AdmissionPolicy::Shed)
            .build();
        let s = rt.session();
        let gate = Arc::new(AtomicBool::new(false));
        {
            let g = Arc::clone(&gate);
            let sp = s.task("hold").expect("first task admits");
            sp.submit(move || {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        }
        let err = s.task("refused").expect_err("quota of one is full");
        assert_eq!(err.session, s.id());
        assert_eq!(err.reason, OverloadReason::InFlight);
        assert_eq!(rt.stats().admission_sheds, 1);
        gate.store(true, Ordering::Release);
        s.wait().expect("no failures");
        let sp = s.task("admitted").expect("quota drained");
        sp.submit(|| {});
        s.wait().expect("no failures");
    }

    /// `cancel_all` revokes: pending tasks cancel (reported via this
    /// session's `wait`), later submissions refuse, other sessions run.
    #[test]
    fn cancel_all_is_sticky_and_scoped() {
        let rt = Runtime::builder().threads(2).build();
        let victim = rt.session();
        let other = rt.session();
        victim.cancel_all();
        let err = victim.task("late").expect_err("revoked sessions refuse");
        assert_eq!(err.reason, OverloadReason::Revoked);
        let x = rt.data(0u32);
        let mut sp = other.task("unaffected").expect("other tenant admits");
        let mut w = sp.write(&x);
        sp.submit(move || *w.get_mut() = 5);
        other.wait().expect("other tenant unaffected");
        assert_eq!(rt.read(&x), 5);
    }

    /// `cancel_all` after admission: every admitted task that has not
    /// started cancels (the exact set, reported by this session's
    /// `wait`), and new submissions refuse with `Revoked`. At one
    /// thread nothing runs before the barrier, so all are pending.
    #[test]
    fn expired_deadline_cancels_pending_and_sheds_new() {
        let rt = Runtime::builder().threads(1).build();
        let s = rt.session();
        let x = rt.data(0u32);
        let pending: Vec<_> = (0..3)
            .map(|_| {
                let mut sp = s.task("pending").expect("no quota configured");
                let id = sp.id();
                let mut w = sp.inout(&x);
                sp.submit(move || *w.get_mut() += 1);
                id
            })
            .collect();
        s.cancel_all();
        let err = s.task("too-late").expect_err("revoked sessions refuse");
        assert_eq!(err.reason, OverloadReason::Revoked);
        rt.barrier();
        let err = s.wait().expect_err("the pending tasks were cancelled");
        assert!(err.failed.is_empty(), "nothing panicked");
        let cancelled: Vec<_> = err.cancelled.iter().map(|c| c.id).collect();
        assert_eq!(cancelled, pending);
        assert_eq!(rt.read(&x), 0, "no cancelled body ran");
        let st = rt.stats();
        assert_eq!((st.cancelled, st.admission_sheds), (3, 0));
        assert_eq!(st.deadline_fires, 0, "sessions have no deadline");
    }

    /// A renaming task is admitted like any other: the Shed policy
    /// refuses on the in-flight quota while the renaming tasks are live
    /// and admits once they retire. The renamed bytes count in the
    /// runtime-wide account only, exactly.
    #[test]
    fn renamed_bytes_quota_sheds_until_versions_retire() {
        let rt = Runtime::builder()
            .threads(2)
            .session_max_in_flight(2)
            .admission(AdmissionPolicy::Shed)
            .build();
        let s = rt.session();
        let h = rt.data_sized(vec![0u8; 1024], 1024, || vec![0u8; 1024]);
        let gate = Arc::new(AtomicBool::new(false));
        for name in ["blocker", "renamer"] {
            // The second write finds the first one's producer live: a
            // forced rename. Both bodies hold their slot until the gate.
            let g = Arc::clone(&gate);
            let mut sp = s.task(name).expect("under quota");
            let mut w = sp.write(&h);
            sp.submit(move || {
                let _ = w.get_mut();
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        }
        assert_eq!(rt.live_version_bytes(), 2048, "initial + renamed");
        let err = s.task("refused").expect_err("two tasks in flight");
        assert_eq!(err.reason, OverloadReason::InFlight);
        gate.store(true, Ordering::Release);
        s.wait().expect("no failures");
        assert_eq!(s.in_flight(), 0);
        s.task("admitted").expect("quota drained").submit(|| {});
        s.wait().expect("no failures");
        // The superseded initial version sits dead in the slab, still
        // charged; reclaiming it leaves the renamed current version.
        assert_eq!(rt.stats().slab_parked_bytes, 1024);
        assert_eq!(rt.shared.slab.reclaim(usize::MAX), 1024);
        assert_eq!(rt.live_version_bytes(), 1024);
    }

    /// The Block policy waits instead of refusing: a second submission
    /// over a quota of one parks until the first task finishes, then
    /// admits — and counts one admission wait.
    #[test]
    fn block_policy_waits_for_quota_to_drain() {
        let rt = Runtime::builder()
            .threads(2)
            .session_max_in_flight(1)
            .build();
        assert_eq!(rt.shared.cfg.admission, AdmissionPolicy::Block);
        let s = rt.session();
        let gate = Arc::new(AtomicBool::new(false));
        {
            let g = Arc::clone(&gate);
            let sp = s.task("hold").expect("first admits");
            sp.submit(move || {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        }
        // Open the gate from another thread shortly; the admission wait
        // below must then observe the drained quota and admit.
        let opener = {
            let g = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                g.store(true, Ordering::Release);
            })
        };
        let sp = s.task("waits").expect("Block admits after the drain");
        sp.submit(|| {});
        opener.join().unwrap();
        s.wait().expect("no failures");
        assert_eq!(rt.stats().admission_waits, 1);
    }
}
