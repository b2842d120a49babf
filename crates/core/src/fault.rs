//! Deterministic fault injection (feature `fault-inject`).
//!
//! The scheduler's failure paths — contained body panics, cancellation
//! propagation, forced throttle stalls, spurious wakes — are exactly the
//! paths a normal test run almost never exercises. This module plants
//! **named injection sites** in the runtime ([`body_site`],
//! [`throttle_site`], [`park_site`], [`wake_site`]) and a seeded
//! `FaultPlan` that decides, reproducibly, which site invocations fire.
//!
//! Two design rules keep the harness honest:
//!
//! * **Zero default-build footprint.** Without the feature, every hook
//!   is an empty `#[inline(always)]` function: the alloc-budget test and
//!   the BENCH trajectory gates measure the same machine code as before.
//!   With the feature on, the crate exports a marker symbol
//!   (`SMPSS_FAULT_INJECT_HOOKS`) that CI greps release binaries for, to
//!   prove no fault machinery leaks into default builds.
//! * **Host-predictable decisions.** Which tasks panic is a pure
//!   function of `(seed, task id)` (`FaultPlan::hits_body`), so a test
//!   computes the expected failed set up front and asserts
//!   [`wait_all`](crate::Runtime::wait_all) reports exactly it.
//!
//! The plan is installed process-globally (`FaultPlan::install`):
//! tests that install one must serialise with each other and
//! `FaultPlan::clear` when done.

#[cfg(feature = "fault-inject")]
mod imp {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, RwLock};

    /// Marker pulled into any binary compiled with the feature, so a CI
    /// grep over the release artifact can prove the default build is
    /// hook-free.
    #[used]
    #[no_mangle]
    pub static SMPSS_FAULT_INJECT_HOOKS: [u8; 22] = *b"SMPSS_FAULT_INJECT_ON\0";

    static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);
    /// Monotone site-invocation counters (throttle, park, admission,
    /// deadline, shed) for the one-in-N / first-N decisions; reset on
    /// install.
    static THROTTLE_HITS: AtomicU64 = AtomicU64::new(0);
    static PARK_CALLS: AtomicU64 = AtomicU64::new(0);
    static WAKE_CALLS: AtomicU64 = AtomicU64::new(0);
    static ADMISSION_HITS: AtomicU64 = AtomicU64::new(0);
    static DEADLINE_HITS: AtomicU64 = AtomicU64::new(0);
    static SHED_HITS: AtomicU64 = AtomicU64::new(0);

    /// splitmix64: one cheap, statistically solid mix of seed and id.
    fn mix(seed: u64, x: u64) -> u64 {
        let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded, reproducible fault schedule. Build with
    /// [`seeded`](FaultPlan::seeded), configure, then
    /// [`install`](FaultPlan::install).
    #[derive(Clone, Debug, Default)]
    pub struct FaultPlan {
        seed: u64,
        /// Panic roughly one body in N (seed-mixed per task id).
        panic_one_in: Option<u64>,
        /// Panic these exact task ids.
        panic_tasks: Vec<u64>,
        /// Force the first N `throttle_site` invocations to stall.
        throttle_stalls: u64,
        /// Spuriously wake one park in N (counted per park call).
        spurious_wake_one_in: Option<u64>,
        /// Stall one `wake_site` invocation in N for ~200 µs.
        wake_stall_one_in: Option<u64>,
        /// Force the first N session admission checks to report
        /// over-quota (stalling Block sessions, shedding Shed ones).
        admission_stalls: u64,
        /// Force the first N session deadline probes to report the
        /// deadline as already passed (deadline-fire race: the probe
        /// fires while submissions are still arriving).
        deadline_fires: u64,
        /// Force the first N Shed-policy admissions to shed even while
        /// under quota (shed-under-load race).
        forced_sheds: u64,
    }

    impl FaultPlan {
        /// A plan that injects nothing until configured.
        pub fn seeded(seed: u64) -> Self {
            FaultPlan {
                seed,
                ..FaultPlan::default()
            }
        }

        /// Panic roughly one task body in `n`, chosen by a seed-mixed
        /// hash of the task id (deterministic per `(seed, id)`).
        pub fn panic_one_in(mut self, n: u64) -> Self {
            self.panic_one_in = Some(n.max(1));
            self
        }

        /// Panic the bodies of exactly these task ids (1-based spawn
        /// order, as [`TaskSpawner::id`](crate::TaskSpawner::id)
        /// reports).
        pub fn panic_tasks(mut self, ids: impl IntoIterator<Item = u64>) -> Self {
            self.panic_tasks = ids.into_iter().collect();
            self
        }

        /// Force the first `n` post-submit throttle checks to stall (one
        /// help quantum each), regardless of the configured limits.
        pub fn throttle_stalls(mut self, n: u64) -> Self {
            self.throttle_stalls = n;
            self
        }

        /// Turn one worker park in `n` into a spurious wake (the park is
        /// skipped and the worker rescans immediately).
        pub fn spurious_wake_one_in(mut self, n: u64) -> Self {
            self.spurious_wake_one_in = Some(n.max(1));
            self
        }

        /// Stall one [`wake_site`] invocation in `n` for ~200 µs,
        /// yielding the core: a sleeper between its announcement and
        /// its re-scan, or a publisher between its push and its sleeper
        /// probe, is held there while the other side runs. On one CPU
        /// this is where a lost wakeup would show.
        pub fn wake_stall_one_in(mut self, n: u64) -> Self {
            self.wake_stall_one_in = Some(n.max(1));
            self
        }

        /// Force the first `n` session admission checks to see the
        /// session as over-quota: Block/Deadline sessions stall one
        /// backoff quantum each, Shed sessions return `Err(Overloaded)`.
        pub fn admission_stalls(mut self, n: u64) -> Self {
            self.admission_stalls = n;
            self
        }

        /// Force the first `n` session deadline probes to fire as if the
        /// deadline had already passed, exercising the race between a
        /// firing deadline and in-flight submissions/dispatches.
        pub fn deadline_fires(mut self, n: u64) -> Self {
            self.deadline_fires = n;
            self
        }

        /// Force the first `n` Shed-policy admissions to shed even while
        /// the session is under quota.
        pub fn forced_sheds(mut self, n: u64) -> Self {
            self.forced_sheds = n;
            self
        }

        /// Would this plan panic the body of task `id`? Pure — tests use
        /// it to precompute the expected failed set.
        pub fn hits_body(&self, id: u64) -> bool {
            if self.panic_tasks.contains(&id) {
                return true;
            }
            match self.panic_one_in {
                Some(n) => mix(self.seed, id).is_multiple_of(n),
                None => false,
            }
        }

        /// Install this plan process-globally and reset the site
        /// counters. Replaces any previous plan.
        pub fn install(self) {
            THROTTLE_HITS.store(0, Ordering::Relaxed);
            PARK_CALLS.store(0, Ordering::Relaxed);
            WAKE_CALLS.store(0, Ordering::Relaxed);
            ADMISSION_HITS.store(0, Ordering::Relaxed);
            DEADLINE_HITS.store(0, Ordering::Relaxed);
            SHED_HITS.store(0, Ordering::Relaxed);
            *PLAN.write().unwrap() = Some(Arc::new(self));
        }

        /// Remove the installed plan (all sites go quiet).
        pub fn clear() {
            *PLAN.write().unwrap() = None;
        }
    }

    fn plan() -> Option<Arc<FaultPlan>> {
        PLAN.read().unwrap().as_ref().cloned()
    }

    /// Body site: called inside the worker's `catch_unwind`, right
    /// before the body runs. Panics when the plan says task `id` fails.
    pub fn body_site(id: u64) {
        if let Some(p) = plan() {
            if p.hits_body(id) {
                panic!("fault-inject: planned panic in task {id}");
            }
        }
    }

    /// Throttle site: `true` forces the spawner into one stall quantum.
    pub fn throttle_site() -> bool {
        match plan() {
            Some(p) if p.throttle_stalls > 0 => {
                THROTTLE_HITS.fetch_add(1, Ordering::Relaxed) < p.throttle_stalls
            }
            _ => false,
        }
    }

    /// Park site: reached by every thread about to park (its re-scan
    /// found nothing) while a plan is installed, and counted. `true`
    /// turns this park into a spurious wake.
    pub fn park_site() -> bool {
        match plan() {
            Some(p) => {
                let k = PARK_CALLS.fetch_add(1, Ordering::Relaxed);
                p.spurious_wake_one_in.is_some_and(|n| k % n == n - 1)
            }
            None => false,
        }
    }

    /// How many times [`park_site`] was reached since the plan was
    /// installed.
    pub fn park_calls() -> u64 {
        PARK_CALLS.load(Ordering::Relaxed)
    }

    /// Wake site: between a sleeper's announcement and its re-scan, and
    /// between a publisher's push and its sleeper probe. A planned hit
    /// yields the core for ~200 µs.
    pub fn wake_site() {
        if let Some(n) = plan().and_then(|p| p.wake_stall_one_in) {
            if WAKE_CALLS.fetch_add(1, Ordering::Relaxed) % n == n - 1 {
                let t0 = std::time::Instant::now();
                while t0.elapsed() < std::time::Duration::from_micros(200) {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Admission site: `true` forces this session admission check to see
    /// the session as over-quota.
    pub fn admission_site() -> bool {
        match plan() {
            Some(p) if p.admission_stalls > 0 => {
                ADMISSION_HITS.fetch_add(1, Ordering::Relaxed) < p.admission_stalls
            }
            _ => false,
        }
    }

    /// Deadline site: `true` forces this session deadline probe to fire.
    pub fn deadline_site() -> bool {
        match plan() {
            Some(p) if p.deadline_fires > 0 => {
                DEADLINE_HITS.fetch_add(1, Ordering::Relaxed) < p.deadline_fires
            }
            _ => false,
        }
    }

    /// Shed site: `true` forces this under-quota Shed admission to shed.
    pub fn shed_site() -> bool {
        match plan() {
            Some(p) if p.forced_sheds > 0 => {
                SHED_HITS.fetch_add(1, Ordering::Relaxed) < p.forced_sheds
            }
            _ => false,
        }
    }
}

#[cfg(feature = "fault-inject")]
pub use imp::{
    admission_site, body_site, deadline_site, park_calls, park_site, shed_site, throttle_site,
    wake_site, FaultPlan,
};

/// Default build: every site is an empty inline function the optimiser
/// erases — the scheduler carries no fault machinery (see the module
/// docs and the CI marker grep).
#[cfg(not(feature = "fault-inject"))]
mod imp {
    #[inline(always)]
    pub fn body_site(_id: u64) {}

    #[inline(always)]
    pub fn throttle_site() -> bool {
        false
    }

    #[inline(always)]
    pub fn park_site() -> bool {
        false
    }

    #[inline(always)]
    pub fn wake_site() {}

    #[inline(always)]
    pub fn admission_site() -> bool {
        false
    }

    #[inline(always)]
    pub fn deadline_site() -> bool {
        false
    }

    #[inline(always)]
    pub fn shed_site() -> bool {
        false
    }
}

#[cfg(not(feature = "fault-inject"))]
pub use imp::{
    admission_site, body_site, deadline_site, park_site, shed_site, throttle_site, wake_site,
};

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::FaultPlan;

    #[test]
    fn hits_body_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7).panic_one_in(4);
        let b = FaultPlan::seeded(7).panic_one_in(4);
        let c = FaultPlan::seeded(8).panic_one_in(4);
        let hits = |p: &FaultPlan| {
            (1..=1000u64)
                .filter(|&i| p.hits_body(i))
                .collect::<Vec<_>>()
        };
        assert_eq!(hits(&a), hits(&b), "same seed, same schedule");
        assert_ne!(hits(&a), hits(&c), "different seed, different schedule");
        // Roughly one in four, with generous slack.
        let n = hits(&a).len();
        assert!((150..=350).contains(&n), "got {n} hits out of 1000");
    }

    #[test]
    fn explicit_task_list_always_hits() {
        let p = FaultPlan::seeded(0).panic_tasks([3, 5]);
        assert!(p.hits_body(3));
        assert!(p.hits_body(5));
        assert!(!p.hits_body(4));
    }
}
