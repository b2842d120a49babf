//! Runtime counters.
//!
//! The counters make scheduler and analyser behaviour observable, which the
//! test-suite and the ablation benches rely on: e.g. renaming must drive
//! `anti_edges` to zero ("the graph only contains true dependencies", §III),
//! and the §III own lists plus the completion hand-off should make
//! `own_pops` dominate `steals` on dependency chains.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One thread's ready-list pop counters, cacheline-aligned so threads
/// never share a counter line. Each shard has a single writer (the
/// thread with that index), so bumps are plain load+store — no RMW on
/// the per-task hot path; other threads only read (snapshot), which
/// Relaxed atomics permit.
#[repr(align(64))]
#[derive(Default, Debug)]
pub(crate) struct PopShard {
    own_pops: AtomicU64,
    main_pops: AtomicU64,
    hp_pops: AtomicU64,
    steals: AtomicU64,
    /// Of the own-list pops, how many were direct hand-offs: the
    /// completing worker ran the released successor immediately, with no
    /// queue round-trip (a subset of `own_pops`, not a fifth source).
    handoffs: AtomicU64,
}

impl PopShard {
    /// Single-writer bump on every runtime shape: a pop shard is indexed
    /// by the thread that runs the task, and only task-running threads
    /// (the workers, and the main thread as it helps or runs inline)
    /// bump one. Session threads never run tasks.
    #[inline]
    fn bump(c: &AtomicU64) {
        c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

/// Shared atomic counters.
///
/// Three cost tiers, hottest first: the four pop counters are sharded
/// per thread (see `PopShard`); the analyser-side counters are
/// single-writer (`Runtime: !Sync` pins spawning to one thread) and use
/// load+store; `tasks_executed` is *derived* in the snapshot — every
/// executed task is popped from exactly one ready list, so the pop sum
/// is the execution count.
#[derive(Debug)]
pub struct Stats {
    pub(crate) tasks_spawned: AtomicU64,
    /// True (read-after-write) dependency edges that gated a task.
    pub(crate) true_edges: AtomicU64,
    /// Anti/output edges (only produced with renaming disabled, or by the
    /// region analyser which — like the paper's runtime — does not rename).
    pub(crate) anti_edges: AtomicU64,
    /// Fresh versions allocated by the renamer.
    pub(crate) renames: AtomicU64,
    /// Deferred copy-ins performed for renamed `inout` parameters.
    pub(crate) copy_ins: AtomicU64,
    /// Task spawns served by a recycled node from the spawn-side pool.
    pub(crate) node_pool_hits: AtomicU64,
    /// Born-ready tasks the spawner ran inline at submit.
    pub(crate) inline_runs: AtomicU64,
    /// Join nodes the region analyser created.
    pub(crate) joins: AtomicU64,
    /// Per-thread pop counters, indexed by thread index (0 = main).
    shards: Box<[PopShard]>,
    /// Task bodies that panicked (contained by `catch_unwind`).
    /// Completion-side and multi-writer — any worker can catch a panic —
    /// so bumps are Relaxed `fetch_add`s, never the single-writer
    /// load+store of the spawner counters.
    pub(crate) panics: AtomicU64,
    /// Tasks cancelled without running their body (failure propagation).
    /// Multi-writer, like `panics`.
    pub(crate) cancelled: AtomicU64,
    /// Barriers executed.
    pub(crate) barriers: AtomicU64,
    /// Times the main thread blocked on the graph-size limit and helped.
    pub(crate) throttle_blocks: AtomicU64,
    /// Sessions opened through `Runtime::session`. Multi-writer
    /// (sessions are opened from arbitrary threads), like `panics`.
    pub(crate) sessions_opened: AtomicU64,
    /// Submissions refused with `Err(Overloaded)` by the admission gate
    /// (Shed policy). Multi-writer.
    pub(crate) admission_sheds: AtomicU64,
    /// Submissions that waited at least once at the admission gate
    /// before being admitted (Block backpressure; counts waits, not
    /// snooze iterations). Multi-writer.
    pub(crate) admission_waits: AtomicU64,
    /// Concurrent-spawner mode: session threads may bump the
    /// spawn-path counters beside the main thread, so the single-writer
    /// load+store bumps upgrade to Relaxed `fetch_add`s. False until the
    /// runtime's spawner latch (`Runtime::latch_spawners`, its only
    /// writer) sets it, which keeps the `Runtime: !Sync` single-writer
    /// fast path until then.
    pub(crate) concurrent: AtomicBool,
}

impl Default for Stats {
    /// One shard — enough for single-threaded unit tests; the runtime
    /// builds with `Stats::new`.
    fn default() -> Self {
        Stats::new(1)
    }
}

/// Single-writer counters: bumped only on the spawning path (dependency
/// analysis, barriers, throttling), which `Runtime: !Sync` pins to one
/// thread — so a plain load+store replaces the locked RMW on the
/// per-task hot path. Other threads may concurrently *read* (snapshot),
/// which Relaxed atomics permit. Once other spawners exist
/// (`concurrent`, set by the spawner latch before the first session
/// handle is built) the bump upgrades to a Relaxed
/// `fetch_add` — exact counts, no ordering obligations. A load+store
/// made before the latch cannot race one of theirs: the handle's move
/// to its thread orders it first.
macro_rules! bump_spawner {
    ($($name:ident),* $(,)?) => {
        $(
            #[inline]
            pub(crate) fn $name(&self) {
                if self.concurrent.load(Ordering::Relaxed) {
                    self.$name.fetch_add(1, Ordering::Relaxed);
                } else {
                    let v = self.$name.load(Ordering::Relaxed);
                    self.$name.store(v + 1, Ordering::Relaxed);
                }
            }
        )*
    };
}

#[allow(non_snake_case)]
impl Stats {
    bump_spawner!(
        tasks_spawned,
        true_edges,
        anti_edges,
        renames,
        copy_ins,
        node_pool_hits,
        inline_runs,
        joins,
        barriers,
        throttle_blocks,
    );

    pub(crate) fn new(threads: usize) -> Self {
        Stats {
            tasks_spawned: AtomicU64::new(0),
            true_edges: AtomicU64::new(0),
            anti_edges: AtomicU64::new(0),
            renames: AtomicU64::new(0),
            copy_ins: AtomicU64::new(0),
            node_pool_hits: AtomicU64::new(0),
            inline_runs: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            shards: (0..threads.max(1)).map(|_| PopShard::default()).collect(),
            panics: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            barriers: AtomicU64::new(0),
            throttle_blocks: AtomicU64::new(0),
            sessions_opened: AtomicU64::new(0),
            admission_sheds: AtomicU64::new(0),
            admission_waits: AtomicU64::new(0),
            concurrent: AtomicBool::new(false),
        }
    }

    #[inline]
    pub(crate) fn own_pops(&self, idx: usize) {
        PopShard::bump(&self.shards[idx].own_pops);
    }

    #[inline]
    pub(crate) fn main_pops(&self, idx: usize) {
        PopShard::bump(&self.shards[idx].main_pops);
    }

    #[inline]
    pub(crate) fn hp_pops(&self, idx: usize) {
        PopShard::bump(&self.shards[idx].hp_pops);
    }

    #[inline]
    pub(crate) fn steals(&self, idx: usize) {
        PopShard::bump(&self.shards[idx].steals);
    }

    #[inline]
    pub(crate) fn handoffs(&self, idx: usize) {
        PopShard::bump(&self.shards[idx].handoffs);
    }

    /// Completion-side fault counters: always a `fetch_add` — any worker
    /// can catch a panic or skip a cancelled body, concurrently, so the
    /// single-writer (or sharded per-thread) bump schemes do not apply.
    /// Off the healthy hot path: only failing workloads pay the RMW.
    #[inline]
    pub(crate) fn panics(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Session front-door counters: always `fetch_add` — sessions live on
    /// arbitrary client threads, several of which can hit the admission
    /// gate at once. Only session-enabled runtimes ever bump these.
    #[inline]
    pub(crate) fn sessions_opened(&self) {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn admission_sheds(&self) {
        self.admission_sheds.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn admission_waits(&self) {
        self.admission_waits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let sum = |f: fn(&PopShard) -> &AtomicU64| self.shards.iter().map(|s| ld(f(s))).sum();
        let own_pops: u64 = sum(|s| &s.own_pops);
        let main_pops: u64 = sum(|s| &s.main_pops);
        let hp_pops: u64 = sum(|s| &s.hp_pops);
        let steals: u64 = sum(|s| &s.steals);
        let handoffs: u64 = sum(|s| &s.handoffs);
        StatsSnapshot {
            tasks_spawned: ld(&self.tasks_spawned),
            tasks_executed: own_pops + main_pops + hp_pops + steals,
            true_edges: ld(&self.true_edges),
            anti_edges: ld(&self.anti_edges),
            renames: ld(&self.renames),
            copy_ins: ld(&self.copy_ins),
            node_pool_hits: ld(&self.node_pool_hits),
            inline_runs: ld(&self.inline_runs),
            joins: ld(&self.joins),
            own_pops,
            main_pops,
            hp_pops,
            steals,
            handoffs,
            panics: ld(&self.panics),
            cancelled: ld(&self.cancelled),
            barriers: ld(&self.barriers),
            throttle_blocks: ld(&self.throttle_blocks),
            sessions_opened: ld(&self.sessions_opened),
            admission_sheds: ld(&self.admission_sheds),
            admission_waits: ld(&self.admission_waits),
            deadline_fires: 0,
            // The slab counts its own hits and occupancy; `Runtime::stats`
            // overlays them.
            version_pool_hits: 0,
            slab_hits: 0,
            locality_hits: 0,
            batch_steals: 0,
            slab_evicted_dead: 0,
            slab_evicted_live: 0,
            slab_parked_bytes: 0,
            version_bytes_live: 0,
            version_bytes_peak: 0,
        }
    }
}

/// A point-in-time copy of the runtime counters; see
/// [`Runtime::stats`](crate::Runtime::stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub tasks_spawned: u64,
    /// Derived from the pop counters (each executed task is popped from
    /// exactly one ready list). Mid-run snapshots therefore count tasks
    /// whose body is *in flight*, not only completed bodies; after a
    /// [`barrier`](crate::Runtime::barrier) the two notions coincide.
    pub tasks_executed: u64,
    pub true_edges: u64,
    pub anti_edges: u64,
    pub renames: u64,
    pub copy_ins: u64,
    /// Spawns that reused a pooled task node (spawn-side fast path).
    pub node_pool_hits: u64,
    /// Renames that reused a parked version buffer from the version
    /// slab instead of allocating. The slab is the only version store,
    /// so this always equals [`slab_hits`](Self::slab_hits): the two
    /// names read one counter.
    pub version_pool_hits: u64,
    /// Born-ready tasks the spawning thread ran itself, inside `submit`,
    /// because their task name's sampled body cost is under the inline
    /// threshold (1 µs) — too cheap to pay for a hand-off to another
    /// core. A subset of `own_pops` (thread 0 ran them without any
    /// queue), like `handoffs`. Zero at one thread, once a session has
    /// opened, and for high-priority tasks.
    pub inline_runs: u64,
    /// Join nodes the region analyser created: each stands for a wide
    /// set of producers that several consumers share (one `par_merge`'s
    /// chunk tasks, for instance), linked once instead of once per
    /// consumer. Joins have no body and no [`TaskId`](crate::TaskId):
    /// they are not in `tasks_spawned`, `tasks_executed`, the recorded
    /// graph (which holds their expanded producer→consumer edges) or
    /// the trace. `true_edges`/`anti_edges` count the links actually
    /// made, producer→join and join→consumer included.
    pub joins: u64,
    pub own_pops: u64,
    pub main_pops: u64,
    pub hp_pops: u64,
    pub steals: u64,
    /// Own-list pops served by direct hand-off (completion-side fast
    /// path): the released successor ran next on the completing worker
    /// without touching any queue. Subset of `own_pops`.
    pub handoffs: u64,
    /// Always 0. Ready tasks are placed by the §III order alone, with
    /// no routing by where their inputs were last written; the field
    /// stays so snapshot consumers keep compiling.
    pub locality_hits: u64,
    /// Always 0. Every steal takes one task, in creation order (§III);
    /// the field stays so snapshot consumers keep compiling.
    pub batch_steals: u64,
    /// Task bodies that panicked; the panics were contained and the
    /// tasks completed through the normal protocol (see
    /// [`Runtime::wait_all`](crate::Runtime::wait_all)).
    pub panics: u64,
    /// Tasks cancelled without running their body — same-session
    /// transitive dependents of a failed task, and the pending tasks of
    /// a session revoked by [`Session::cancel_all`](crate::Session::cancel_all).
    /// Cancelled tasks still count
    /// one pop (`tasks_executed`): they pass through the scheduler like
    /// any other task.
    pub cancelled: u64,
    pub barriers: u64,
    pub throttle_blocks: u64,
    /// Sessions opened through [`Runtime::session`](crate::Runtime::session).
    pub sessions_opened: u64,
    /// Submissions refused with `Err(Overloaded)` at the admission gate.
    pub admission_sheds: u64,
    /// Submissions that waited at the admission gate before being
    /// admitted (one per submission that waited, not per backoff spin).
    pub admission_waits: u64,
    /// Always 0. Sessions have no deadline; revocation is
    /// [`Session::cancel_all`](crate::Session::cancel_all), counted in
    /// `cancelled`. The field stays so snapshot consumers keep compiling.
    pub deadline_fires: u64,
    /// Renames served by the runtime-wide version slab; equal to
    /// [`version_pool_hits`](Self::version_pool_hits).
    pub slab_hits: u64,
    /// Parked spares evicted while dead — their memory tickets released
    /// the bytes immediately (spare-cap trims + backpressure reclaims).
    pub slab_evicted_dead: u64,
    /// Parked spares evicted while readers still held them: only the
    /// slab's clone was dropped; the bytes stay charged until the last
    /// reader drops (the accounting invariant the slab pins).
    pub slab_evicted_live: u64,
    /// Bytes currently parked in the slab as reusable spares, each at
    /// its resident size (declared bytes, but never less than its `Arc`
    /// allocation plus its slab entry — what the spare cap bounds). A gauge,
    /// not a counter — overlaid at [`Runtime::stats`](crate::Runtime::stats)
    /// time, like the two fields below.
    pub slab_parked_bytes: u64,
    /// Current live-version bytes (the §III account), as
    /// [`Runtime::live_version_bytes`](crate::Runtime::live_version_bytes).
    pub version_bytes_live: u64,
    /// High-water mark of the live-version account, sampled at every
    /// fresh version allocation.
    pub version_bytes_peak: u64,
}

impl StatsSnapshot {
    /// Total dependency edges of any kind.
    pub fn total_edges(&self) -> u64 {
        self.true_edges + self.anti_edges
    }

    /// Total ready-queue acquisitions (one per executed task).
    pub fn total_pops(&self) -> u64 {
        self.own_pops + self.main_pops + self.hp_pops + self.steals
    }

    /// Pops attributed to one [`TaskSource`](crate::TaskSource) of the §III lookup order.
    /// Lets code outside the crate (the determinism test) assert
    /// scheduler behaviour without private counter access. Steal counts
    /// are aggregated over victims.
    pub fn source_pops(&self, src: crate::sched::TaskSource) -> u64 {
        use crate::sched::TaskSource::*;
        match src {
            HighPriority => self.hp_pops,
            OwnList => self.own_pops,
            MainList => self.main_pops,
            Stolen { .. } => self.steals,
        }
    }

    /// All four ready-list counters, labelled in the §III lookup order
    /// (high-priority, own, main, stolen), in a form ready to
    /// serialise.
    pub fn pops_by_source(&self) -> [(&'static str, u64); 4] {
        [
            ("hp_pops", self.hp_pops),
            ("own_pops", self.own_pops),
            ("main_pops", self.main_pops),
            ("steals", self.steals),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_snapshot() {
        let s = Stats::default();
        s.tasks_spawned();
        s.tasks_spawned();
        s.true_edges();
        s.steals(0);
        let snap = s.snapshot();
        assert_eq!(snap.tasks_spawned, 2);
        assert_eq!(snap.true_edges, 1);
        assert_eq!(snap.steals, 1);
        assert_eq!(snap.total_edges(), 1);
        assert_eq!(snap.total_pops(), 1);
        assert_eq!(snap.tasks_executed, 1, "executed derives from pops");
    }

    #[test]
    fn fault_counters_bump_concurrently() {
        let s = Stats::default();
        assert!(
            !s.concurrent.load(Ordering::Relaxed),
            "fault bumps must be RMWs even when not"
        );
        s.panics();
        s.cancelled();
        s.cancelled();
        let snap = s.snapshot();
        assert_eq!(snap.panics, 1);
        assert_eq!(snap.cancelled, 2);
    }

    #[test]
    fn session_counters_bump_concurrently() {
        let s = Stats::default();
        s.sessions_opened();
        s.admission_sheds();
        s.admission_sheds();
        s.admission_waits();
        let snap = s.snapshot();
        assert_eq!(snap.sessions_opened, 1);
        assert_eq!(snap.admission_sheds, 2);
        assert_eq!(snap.admission_waits, 1);
        assert_eq!(snap.deadline_fires, 0, "no deadline to fire");
    }

    #[test]
    fn shards_sum_across_threads() {
        let s = Stats::new(4);
        s.own_pops(0);
        s.own_pops(3);
        s.main_pops(1);
        s.hp_pops(2);
        s.steals(3);
        let snap = s.snapshot();
        assert_eq!(snap.own_pops, 2);
        assert_eq!(snap.main_pops, 1);
        assert_eq!(snap.hp_pops, 1);
        assert_eq!(snap.steals, 1);
        assert_eq!(snap.tasks_executed, 5);
        assert_eq!(snap.total_pops(), 5);
    }
}
