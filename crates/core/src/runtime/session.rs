//! The multi-session front door: admission control, deadlines,
//! per-session cancellation and graceful overload shedding.
//!
//! A [`Session`] is a tenant's handle onto a shared runtime: every task
//! spawned through it is stamped with the session's control block, and
//! three per-tenant behaviours hang off that stamp —
//!
//! * **Admission control**: [`Session::task`] enforces the builder's
//!   per-session quotas ([`session_max_in_flight`], [`session_max_renamed_bytes`])
//!   as real backpressure *before* the task exists. The
//!   [`AdmissionPolicy`] decides what over-quota means: `Block` waits
//!   (bounded backoff, draining as workers finish), `Shed` returns
//!   [`Overloaded`] immediately — never silently dropping analysed
//!   state, because the rejection happens before any analysis — and
//!   `Deadline` blocks until the session's deadline, then sheds.
//! * **Deadlines**: [`Session::with_deadline`] arms a wall-clock budget.
//!   A task observed past the deadline never runs its body — it is
//!   cancelled through the same skip/stamp machinery as failure
//!   containment, so the exact cancelled set is reported — and the
//!   session is revoked so later submissions shed.
//! * **Scoped cancellation**: [`Session::cancel_all`] revokes one
//!   session; its pending tasks cancel while every other tenant keeps
//!   running untouched. [`Session::wait`] quiesces and reports exactly
//!   this session's failures, leaving other tenants' records in place.
//!
//! Failure containment is session-scoped too: a panic under
//! `CancelDependents` poisons only same-session dependents (see
//! `TaskNode::same_session`), and under `FailFast` only the offending
//! session's pending set sheds (see `sched::worker::session_skip`).
//!
//! ## Hot-path containment
//!
//! A runtime that never opens a session pays exactly one always-false
//! padded flag load per task (`Shared::sessions_used`, the same trick
//! as the fault probe) — no session pointer is ever read or written.
//! The admission path itself is atomics + backoff only: the session
//! registry's locking lives behind `Shared` methods in `runtime/mod.rs`,
//! and a unit test below (plus the workspace test
//! `tests/lock_free_sources.rs`) pins this file free of blocking
//! primitives, like the completion path and the shard module.
//!
//! [`session_max_in_flight`]: crate::RuntimeBuilder::session_max_in_flight
//! [`session_max_renamed_bytes`]: crate::RuntimeBuilder::session_max_renamed_bytes

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::config::AdmissionPolicy;
use crate::ids::SessionId;
use crate::padded::CachePadded;
use crate::runtime::shard::Submitter;
use crate::runtime::spawner::{SpawnHost, TaskSpawner};
use crate::runtime::{Runtime, Shared, TaskFailures};
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
///   load pairs with;
/// * `bytes` is the session's renamed-version footprint, maintained by
///   the version tickets themselves (creation-time attribution: a
///   pooled-buffer reuse keeps its original session's charge, exactly
///   like the global account).
///
/// Each counter sits on its own cache line: workers hammer `finished`
/// and `bytes` while the session thread polls them plus its own
/// `spawned` on every admission check.
pub(crate) struct SessionCtl {
    id: SessionId,
    spawned: CachePadded<AtomicU64>,
    finished: CachePadded<AtomicU64>,
    bytes: CachePadded<AtomicUsize>,
    /// Sticky once set (by `cancel_all` or a fired deadline): pending
    /// tasks skip as cancelled, new submissions shed.
    revoked: AtomicBool,
    /// This session's FailFast scope: latched by a panic in one of its
    /// tasks, cleared by `Session::wait` / `Runtime::wait_all`.
    faulted: AtomicBool,
    /// Armed deadline in nanoseconds since `Shared::epoch`; `u64::MAX`
    /// means none, so the common probe is one load and a compare.
    deadline_nanos: AtomicU64,
}

impl SessionCtl {
    fn new(id: SessionId) -> SessionCtl {
        SessionCtl {
            id,
            spawned: CachePadded::new(AtomicU64::new(0)),
            finished: CachePadded::new(AtomicU64::new(0)),
            bytes: CachePadded::new(AtomicUsize::new(0)),
            revoked: AtomicBool::new(false),
            faulted: AtomicBool::new(false),
            deadline_nanos: AtomicU64::new(u64::MAX),
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

    /// Version-ticket attribution (see `MemTicket::new_charged`).
    #[inline]
    pub(crate) fn add_bytes(&self, n: usize) {
        self.bytes.fetch_add(n, Ordering::AcqRel);
    }

    /// Ticket retirement returns the session's share.
    #[inline]
    pub(crate) fn sub_bytes(&self, n: usize) {
        self.bytes.fetch_sub(n, Ordering::AcqRel);
    }

    #[inline]
    fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Acquire)
    }

    #[inline]
    fn revoke(&self) {
        self.revoked.store(true, Ordering::Relaxed);
    }

    #[inline]
    fn revoked(&self) -> bool {
        self.revoked.load(Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn set_faulted(&self) {
        self.faulted.store(true, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn clear_faulted(&self) {
        self.faulted.store(false, Ordering::Relaxed);
    }

    /// Has a task of *this* session panicked since the last drain? (The
    /// FailFast probe a worker runs for session-stamped tasks.)
    #[inline]
    pub(crate) fn is_faulted(&self) -> bool {
        self.faulted.load(Ordering::Relaxed)
    }

    fn arm_deadline(&self, shared: &Shared, budget: Duration) {
        let now = elapsed_nanos(shared);
        let at = now.saturating_add(nanos_u64(budget));
        self.deadline_nanos.store(at.min(u64::MAX - 1), Ordering::Relaxed);
    }

    /// Probe the armed deadline; the first observation of expiry (real
    /// clock, or a planned fault-injection fire) revokes the session —
    /// so the expensive `Instant` read happens at most until the first
    /// fire, after which the cheap `revoked` flag answers — and counts
    /// exactly one `deadline_fires` stat.
    fn deadline_expired(&self, shared: &Shared) -> bool {
        let d = self.deadline_nanos.load(Ordering::Relaxed);
        if d == u64::MAX {
            return false;
        }
        let fired = crate::fault::deadline_site() || elapsed_nanos(shared) >= d;
        if fired && !self.revoked.swap(true, Ordering::Relaxed) {
            shared.stats.deadline_fires();
        }
        fired
    }

    /// Worker-side skip decision for a session-stamped task: revoked
    /// sessions (including those whose deadline already fired) skip on
    /// one Relaxed flag; an armed, unexpired deadline pays the clock
    /// probe until it fires.
    pub(crate) fn should_skip(&self, shared: &Shared) -> bool {
        if self.revoked() {
            return true;
        }
        self.deadline_expired(shared)
    }
}

/// Nanoseconds since the runtime's construction epoch, saturating.
#[inline]
fn elapsed_nanos(shared: &Shared) -> u64 {
    let n = shared.epoch.elapsed().as_nanos();
    n.min(u64::MAX as u128) as u64
}

#[inline]
fn nanos_u64(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Why a submission was refused. Carried by [`Overloaded`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadReason {
    /// The session's in-flight task quota
    /// ([`session_max_in_flight`](crate::RuntimeBuilder::session_max_in_flight))
    /// is full.
    InFlight,
    /// The session's renamed-bytes quota
    /// ([`session_max_renamed_bytes`](crate::RuntimeBuilder::session_max_renamed_bytes))
    /// is exceeded.
    RenamedBytes,
    /// The session's deadline fired (submission-side observation; the
    /// session is now revoked).
    DeadlineExpired,
    /// The session was revoked by [`Session::cancel_all`] (or an
    /// earlier deadline fire).
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
            OverloadReason::RenamedBytes => "renamed-bytes quota exceeded",
            OverloadReason::DeadlineExpired => "deadline expired",
            OverloadReason::Revoked => "session revoked",
        };
        write!(f, "{} rejected a submission: {}", self.session, what)
    }
}

impl std::error::Error for Overloaded {}

/// One tenant's front door onto a shared [`Runtime`]: a [`Submitter`]
/// lane that stamps its tasks with the session, plus admission control.
/// Created by [`Runtime::session`]; `Send + !Sync` like the submitter it
/// is — move it onto the tenant's thread and spawn through
/// [`task`](Session::task).
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
    /// The analysis lane this session spawns through (lane index
    /// `(id - 1) % shards`), carrying `ctl`: the session spawns exactly
    /// as a submitter does — same id minting, pools, publication and
    /// throttle, so its recorded graph is bit-identical to a submitter
    /// run's — and the lane stamps every node it acquires with `ctl`.
    sub: Submitter,
    ctl: Arc<SessionCtl>,
}

impl Session {
    /// This session's id (1-based; [`SessionId::NONE`] never names a
    /// real session).
    pub fn id(&self) -> SessionId {
        self.ctl.id()
    }

    /// Arm a wall-clock budget, measured from now. Once it elapses, the
    /// session's not-yet-started tasks are cancelled (stamped and
    /// reported exactly, like failure-containment cancellations) and
    /// new submissions return [`OverloadReason::DeadlineExpired`].
    /// Tasks already executing run to completion — cancellation is
    /// between tasks, never inside one.
    pub fn with_deadline(self, budget: Duration) -> Self {
        self.ctl.arm_deadline(self.sub.shared(), budget);
        self
    }

    /// Revoke the session: every pending (not-yet-started) task of this
    /// session cancels, every later submission returns
    /// [`OverloadReason::Revoked`] — and no other session is touched.
    /// Sticky: open a new session to continue work.
    pub fn cancel_all(&self) {
        self.ctl.revoke();
    }

    /// Begin a task invocation, subject to admission control. `Ok` is a
    /// reserved slot: the spawner analyses and submits exactly like
    /// [`Runtime::task`](crate::Runtime::task). `Err` means the quota
    /// verdict of the configured [`AdmissionPolicy`] (or a revoked /
    /// expired session) — nothing was created.
    pub fn task(&self, name: &'static str) -> Result<TaskSpawner<'_, Submitter>, Overloaded> {
        self.admit()?;
        Ok(self.sub.task(name))
    }

    /// Block until every task admitted through this session has
    /// finished, then report exactly this session's failures since its
    /// last drain — other tenants' records stay in the registry for
    /// their own `wait` (or the runtime's
    /// [`wait_all`](crate::Runtime::wait_all)). Helps nobody: the
    /// session thread is a producer, not a worker, so this parks on
    /// backoff like the submitter-side throttle.
    pub fn wait(&self) -> Result<(), TaskFailures> {
        let target = self.ctl.spawned.load(Ordering::Relaxed);
        let mut backoff = Backoff::new();
        while self.ctl.finished.load(Ordering::Acquire) < target {
            backoff.snooze();
        }
        let log = self.sub.shared().drain_session_failures(self.ctl.id());
        // A drained session resumes scheduling under FailFast, exactly
        // like `wait_all`'s global reset — but scoped to this tenant.
        self.ctl.clear_faulted();
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

    /// Bytes currently attributed to this session's data versions.
    pub fn renamed_bytes(&self) -> usize {
        self.ctl.bytes()
    }

    /// The admission state machine (see DESIGN.md): revoked → refuse;
    /// deadline fired → revoke + refuse; under quota → reserve + admit;
    /// over quota → the policy decides (shed now, or wait and re-probe
    /// — with the wait itself bounded by the deadline when one is
    /// armed). Stats count one `admission_waits` per waiting
    /// *submission* (not per spin) and one `admission_sheds` per
    /// refusal.
    fn admit(&self) -> Result<(), Overloaded> {
        let mut backoff = Backoff::new();
        let mut counted_wait = false;
        loop {
            if self.ctl.revoked() {
                return Err(self.refuse(OverloadReason::Revoked));
            }
            if self.ctl.deadline_expired(self.sub.shared()) {
                return Err(self.refuse(OverloadReason::DeadlineExpired));
            }
            match self.over_quota() {
                None => {
                    self.ctl.note_spawned();
                    return Ok(());
                }
                Some(reason) => match self.sub.shared().cfg.admission {
                    AdmissionPolicy::Shed => {
                        self.sub.shared().stats.admission_sheds();
                        return Err(self.refuse(reason));
                    }
                    // `Deadline` is `Block` whose wait the loop head
                    // bounds: once the armed deadline fires, the next
                    // iteration refuses with `DeadlineExpired`.
                    AdmissionPolicy::Block | AdmissionPolicy::Deadline => {
                        if !counted_wait {
                            counted_wait = true;
                            self.sub.shared().stats.admission_waits();
                        }
                        backoff.snooze();
                    }
                },
            }
        }
    }

    /// One quota probe. A planned fault-injection stall
    /// (`admission_site`) reads as over-quota for exactly the planned
    /// number of probes; a planned forced shed (`shed_site`) likewise —
    /// under the `Shed` policy the latter turns into a refusal, which
    /// is the injection's point.
    fn over_quota(&self) -> Option<OverloadReason> {
        if crate::fault::admission_site() || crate::fault::shed_site() {
            return Some(OverloadReason::InFlight);
        }
        let cfg = &self.sub.shared().cfg;
        if let Some(limit) = cfg.session_max_in_flight {
            if self.ctl.in_flight() >= limit as u64 {
                return Some(OverloadReason::InFlight);
            }
        }
        if let Some(limit) = cfg.session_max_renamed_bytes {
            if self.ctl.bytes() > limit {
                // Versions this session renamed may be sitting dead in
                // the runtime's slab, still charged to our quota (a
                // parked spare keeps its ticket, and the ticket its
                // session attribution, until it is dropped). Ask the
                // slab to free dead spares before refusing or blocking:
                // each one minted by us returns its bytes to the quota
                // through the ticket's drop.
                self.sub.shared().reclaim_dead_spares(self.ctl.bytes() - limit);
                if self.ctl.bytes() > limit {
                    return Some(OverloadReason::RenamedBytes);
                }
            }
        }
        None
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
            .field("lane", &self.sub.lane())
            .field("in_flight", &self.ctl.in_flight())
            .finish()
    }
}

impl Runtime {
    /// Open a session: a `Send` front-door handle for one tenant
    /// thread. Requires sessions to be enabled on the builder
    /// ([`sessions`](crate::RuntimeBuilder::sessions), or implied by
    /// any session quota / admission setting). Sessions may be opened
    /// at any time, from the main thread, and moved to their tenant's
    /// thread; each wraps one analysis lane (round-robin over
    /// `shards`), and any number of sessions can spawn concurrently —
    /// lane access serialises on the lane gates.
    pub fn session(&self) -> Session {
        assert!(
            self.shared.cfg.sessions,
            "session() requires sessions to be enabled: \
             RuntimeBuilder::sessions(true), or any session quota / admission setting"
        );
        let id = SessionId(self.shared.next_session.fetch_add(1, Ordering::Relaxed) + 1);
        let lane = (id.0 as usize - 1) % self.shared.cfg.shards;
        let ctl = Arc::new(SessionCtl::new(id));
        self.shared.register_session(&ctl);
        Session {
            sub: Submitter::new_lane(Arc::clone(&self.shared), lane, Some(Arc::clone(&ctl))),
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

    #[test]
    #[should_panic(expected = "requires sessions to be enabled")]
    fn session_requires_builder_opt_in() {
        let rt = Runtime::builder().threads(1).build();
        let _ = rt.session();
    }

    #[test]
    fn sessions_get_distinct_ids_and_round_robin_lanes() {
        let rt = Runtime::builder().threads(1).shards(2).sessions(true).build();
        let a = rt.session();
        let b = rt.session();
        let c = rt.session();
        assert_eq!(a.id(), SessionId(1));
        assert_eq!(b.id(), SessionId(2));
        assert_eq!(c.id(), SessionId(3));
        assert_eq!(a.sub.lane(), 0);
        assert_eq!(b.sub.lane(), 1);
        assert_eq!(c.sub.lane(), 0);
        assert_eq!(rt.stats().sessions_opened, 3);
    }

    /// `sessions(true)` alone makes the runtime sharded even at one
    /// shard: the session wraps lane 0 and everything works, which is
    /// what lets the isolation proptests run a `shards == 1` matrix.
    #[test]
    fn single_shard_session_spawns_through_lane_zero() {
        let rt = Runtime::builder().threads(2).sessions(true).build();
        assert!(rt.shared.sharded);
        let s = rt.session();
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
        let rt = Runtime::builder().threads(2).sessions(true).build();
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

    /// An already-expired deadline cancels the session's pending tasks
    /// (exact set reported by `wait`) and refuses new submissions with
    /// `DeadlineExpired`; the fire is counted exactly once.
    #[test]
    fn expired_deadline_cancels_pending_and_sheds_new() {
        let rt = Runtime::builder().threads(2).sessions(true).build();
        let s = rt.session().with_deadline(Duration::from_nanos(0));
        // The deadline is observed either at admission (this probe) or
        // by the worker-side skip — both paths end in a refusal here
        // because admission probes first.
        let err = s.task("too-late").expect_err("deadline already passed");
        assert_eq!(err.reason, OverloadReason::DeadlineExpired);
        assert_eq!(rt.stats().deadline_fires, 1, "counted once");
        let err2 = s.task("still-late").expect_err("sticky");
        assert_eq!(err2.reason, OverloadReason::Revoked);
        assert_eq!(rt.stats().deadline_fires, 1, "not recounted");
    }

    /// Renamed-bytes quota: forcing a rename under a session charges
    /// the session's byte account, and the Shed policy refuses while
    /// the charge is live. The displaced version parks in the slab; it
    /// was never this session's, so freeing it leaves the quota alone.
    #[test]
    fn renamed_bytes_quota_sheds_until_versions_retire() {
        let rt = Runtime::builder()
            .threads(2)
            .session_max_renamed_bytes(512)
            .admission(AdmissionPolicy::Shed)
            .build();
        let s = rt.session();
        let h = rt.data_sized(vec![0u8; 1024], 1024, || vec![0u8; 1024]);
        let gate = Arc::new(AtomicBool::new(false));
        {
            let g = Arc::clone(&gate);
            let mut sp = s.task("blocker").expect("bytes start at zero");
            let mut w = sp.write(&h);
            sp.submit(move || {
                let _ = w.get_mut();
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        }
        {
            // Write while the producer is live: forced rename, 1024
            // bytes attributed to this session.
            let mut sp = s.task("renamer").expect("quota probed before the rename");
            let mut w = sp.write(&h);
            sp.submit(move || {
                let _ = w.get_mut();
            });
        }
        assert_eq!(s.renamed_bytes(), 1024);
        let err = s.task("refused").expect_err("1024 > 512");
        assert_eq!(err.reason, OverloadReason::RenamedBytes);
        gate.store(true, Ordering::Release);
        s.wait().expect("no failures");
        rt.barrier();
        // The superseded initial version sits dead in the slab. It was
        // minted outside the session, so reclaiming it returns global
        // bytes only; the renamed current version stays charged.
        assert_eq!(rt.stats().slab_parked_bytes, 1024);
        let live = rt.live_version_bytes();
        assert_eq!(rt.shared.reclaim_dead_spares(usize::MAX), 1024);
        assert_eq!(rt.live_version_bytes(), live - 1024);
        assert_eq!(s.renamed_bytes(), 1024, "current version still charged");
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
                std::thread::sleep(Duration::from_millis(20));
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
