//! Sampled per-task-type body cost: the granularity signal behind inline
//! execution of cheap born-ready tasks (see
//! [`Runtime::publish_born_ready`](crate::Runtime)).
//!
//! The paper's main thread generates the graph while workers run it. On
//! a task whose body costs tens of nanoseconds, shipping it to another
//! core (queue push, cross-core cache misses on the node, the body's
//! data and the completion counters) costs more than running it. The
//! cure is the adaptive cut-off of Duran, Corbalán and Ayguadé (SC'08)
//! and the oracle scheduling of Acar, Charguéraud and Rainey
//! (OOPSLA'11): measure task cost at run time and stop deferring tasks
//! too small to pay for their own hand-off.
//!
//! The table is keyed by the `&'static str` passed to
//! [`Runtime::task`](crate::Runtime::task), compared **by address** —
//! one call site, one key, no string compare. It is open-addressed over
//! [`SLOTS`] slots claimed by CAS and never freed. Every thread times
//! one body in [`SAMPLE_EVERY`] inside `run_task` and folds the sample
//! into a racy exponentially weighted average: two concurrent folds may
//! lose one sample, which only delays the estimate by one sample.
//!
//! One interrupted body must not keep a cheap site away from the
//! spawner for long. A timer interrupt or a preemption inside a timed
//! 100 ns body reads 4–36 µs, and one such sample has to evict the site
//! (a body that really turned dear must stop inlining at once). An
//! evicted site runs only on workers, and a worker measures a different
//! cost: the body's data and the node are hot on the spawner's core,
//! not on the worker's. In a debug build a `task_flood` body reads about
//! 220 ns on the spawner and over 1 µs on a worker, so workers' samples
//! alone can hold the estimate over the line for the rest of the run,
//! sending every task of the site, and every later task that depends on
//! one, to a worker. So a sample that takes a cheap estimate out of the
//! inline range puts the site on *watch*
//! ([`is_watched`](CostTable::is_watched)) until the spawner has timed
//! it again:
//!
//! * the spawner keeps timing a watched site: one in [`SAMPLE_EVERY`] of
//!   its born-ready tasks still runs inline, timed
//!   (`Runtime::publish_born_ready`);
//! * only those samples count: each replaces the estimate, and the
//!   workers' samples are ignored;
//! * the watch ends when one reads under the threshold (the site is
//!   back) or over [`DEAR_NS`] (it really turned dear). In between, a
//!   slowed-down host and a body of a few microseconds read alike, so
//!   the site stays watched.
//!
//! One outlier then costs the site one timed run on the spawner, and a
//! body that really turned dear stops inlining after that same run. A
//! site that was never cheap is never watched.
//!
//! All accesses are `Relaxed` because the estimate publishes no other data
//! and only steers placement — a stale or lost value can make a task
//! run on a worker instead of the spawner (or the reverse for one
//! sample period), never change what it computes.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

/// Slots in the table. A program with more distinct task names than
/// this keeps publishing the overflow, which is the pre-inline
/// behaviour.
const SLOTS: usize = 64;

/// Every thread times one task body in this many.
pub(crate) const SAMPLE_EVERY: u32 = 16;

/// A born-ready task whose site's measured body cost is under this many
/// nanoseconds runs inline on the spawner.
///
/// Rationale: handing a task to another core costs about 300 ns more
/// than running it where it was spawned — `spawner.submit_ns` is 523 at
/// `threads(2)` on `task_flood` against about 200 ns to spawn and run
/// inline. A body well under that overhead is cheaper to run than to
/// ship. 1 µs sits between the cheapest and the next real sites the
/// benchmark measures: 74–92 ns per `task_flood` site against 2.5 µs
/// and up on `rename_pressure`, 6.8 µs for `region_sort`'s merges and
/// 0.8 ms on `dense_cholesky`. The nearest real site is therefore 2.5×
/// above the threshold, a margin the estimate's noise does not cross.
pub(crate) const INLINE_MAX_NS: u32 = 1_000;

/// A spawner sample of a watched site over this many nanoseconds ends
/// the watch with the site out of the inline range: four times
/// [`INLINE_MAX_NS`], well past what a slowed-down host makes of a
/// body near the threshold.
const DEAR_NS: u32 = 4 * INLINE_MAX_NS;

/// One site: its key (the name's address, 0 = free), its estimate in
/// nanoseconds (0 = not measured yet) and whether it is watched.
#[derive(Default)]
struct Slot {
    key: AtomicUsize,
    ns: AtomicU32,
    watch: AtomicBool,
}

/// The per-site cost table; one per runtime that may inline.
pub(crate) struct CostTable {
    slots: [Slot; SLOTS],
}

impl CostTable {
    pub(crate) fn new() -> Self {
        CostTable {
            slots: std::array::from_fn(|_| Slot::default()),
        }
    }

    /// First probe slot of a key: Fibonacci hash of the address.
    #[inline]
    fn first_slot(key: usize) -> usize {
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOTS.trailing_zeros())) as usize
    }

    #[inline]
    fn key(name: &'static str) -> usize {
        name.as_ptr() as usize
    }

    /// The slot holding `key`, claiming a free one when `claim` is set.
    /// `None` when the key is absent (or the table is full).
    #[inline]
    fn find(&self, key: usize, claim: bool) -> Option<&Slot> {
        let mut i = Self::first_slot(key);
        for _ in 0..SLOTS {
            let slot = &self.slots[i];
            let k = slot.key.load(Ordering::Relaxed);
            if k == key {
                return Some(slot);
            }
            if k == 0 {
                if !claim {
                    return None;
                }
                match slot
                    .key
                    .compare_exchange(0, key, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => return Some(slot),
                    Err(k) if k == key => return Some(slot),
                    Err(_) => {} // another site took it: keep probing
                }
            }
            i = (i + 1) % SLOTS;
        }
        None
    }

    /// Fold one body-time sample for site `name`; `spawner` says whether
    /// the spawning thread ran the body. The first sample sets the
    /// estimate; later ones move it a quarter of the way, so a site that
    /// turns 1 000× dearer leaves the inline range on its next sample.
    /// A sample that takes a cheap estimate out of the inline range
    /// starts watching the site. A watched site ignores other threads'
    /// samples; each of the spawner's replaces its estimate, and one
    /// under [`INLINE_MAX_NS`] or over [`DEAR_NS`] ends the watch.
    pub(crate) fn record(&self, name: &'static str, ns: u64, spawner: bool) {
        let Some(slot) = self.find(Self::key(name), true) else {
            return;
        };
        let sample = ns.clamp(1, u64::from(u32::MAX)) as u32;
        if slot.watch.load(Ordering::Relaxed) {
            if spawner {
                slot.ns.store(sample, Ordering::Relaxed);
                if !(INLINE_MAX_NS..=DEAR_NS).contains(&sample) {
                    slot.watch.store(false, Ordering::Relaxed);
                }
            }
            return;
        }
        let old = slot.ns.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            (old - old / 4 + sample / 4).max(1)
        };
        slot.ns.store(new, Ordering::Relaxed);
        let cheap = |ns| ns != 0 && ns < INLINE_MAX_NS;
        if cheap(old) && !cheap(new) {
            slot.watch.store(true, Ordering::Relaxed);
        }
    }

    /// Has site `name` been measured, and is it under
    /// [`INLINE_MAX_NS`]? Unknown and unmeasured sites are not cheap, so
    /// the first task of any type is always published.
    #[inline]
    pub(crate) fn is_cheap(&self, name: &'static str) -> bool {
        self.find(Self::key(name), false).is_some_and(|s| {
            let ns = s.ns.load(Ordering::Relaxed);
            ns != 0 && ns < INLINE_MAX_NS
        })
    }

    /// Was cheap site `name` evicted from the inline range by a sample,
    /// with no spawner sample since that settles it either way? One
    /// outlier puts a site here, and so does a body that really turned
    /// dear; the spawner's timed runs of it tell the two apart.
    #[inline]
    pub(crate) fn is_watched(&self, name: &'static str) -> bool {
        self.find(Self::key(name), false)
            .is_some_and(|s| s.watch.load(Ordering::Relaxed))
    }

    /// The current estimate for `name` in nanoseconds (0 = unmeasured).
    #[cfg(test)]
    pub(crate) fn estimate(&self, name: &'static str) -> u32 {
        self.find(Self::key(name), false)
            .map_or(0, |s| s.ns.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmeasured_sites_are_never_cheap() {
        let t = CostTable::new();
        assert!(!t.is_cheap("never_seen"));
        t.record("cheap", 80, true);
        assert!(t.is_cheap("cheap"));
        t.record("dear", 20_000, true);
        assert!(!t.is_cheap("dear"));
        assert_eq!(t.estimate("never_seen"), 0);
    }

    #[test]
    fn a_cost_jump_leaves_the_inline_range_on_one_sample() {
        let t = CostTable::new();
        t.record("site", 50, true);
        assert!(t.is_cheap("site"));
        t.record("site", 50_000, true);
        assert!(!t.is_cheap("site"), "estimate {}", t.estimate("site"));
        for _ in 0..40 {
            t.record("site", 50, true);
        }
        assert!(t.is_cheap("site"), "and it comes back once cheap again");
    }

    /// One outlier sample evicts a cheap site and watches it; a
    /// worker's sample then leaves it alone, a slowed-down spawner
    /// sample keeps it watched, and a clear one settles it either way.
    /// A site that was never cheap is never watched.
    #[test]
    fn one_outlier_evicts_a_cheap_site_for_one_sample() {
        let t = CostTable::new();
        t.record("site", 100, true);
        t.record("site", 36_000, true);
        assert!(!t.is_cheap("site") && t.is_watched("site"));
        t.record("site", 100, false);
        assert!(
            !t.is_cheap("site"),
            "a worker's sample does not move a watched site"
        );
        t.record("site", 1_500, true);
        assert!(
            !t.is_cheap("site") && t.is_watched("site"),
            "still undecided"
        );
        t.record("site", 100, true);
        assert!(
            t.is_cheap("site") && !t.is_watched("site"),
            "the spawner's sample decides"
        );
        t.record("site", 36_000, true);
        t.record("site", 36_000, true);
        assert!(
            !t.is_cheap("site") && !t.is_watched("site"),
            "confirmed dear"
        );
        assert_eq!(t.estimate("site"), 36_000);
        for ns in [2_500, 900, 3_000] {
            t.record("dear", ns, true);
            assert!(!t.is_watched("dear"), "never cheap, never watched");
        }
    }

    /// A full table drops new sites (they keep being published) but
    /// keeps serving the ones it has.
    #[test]
    fn a_full_table_keeps_its_sites_and_drops_the_rest() {
        let t = CostTable::new();
        let names: Vec<&'static str> = (0..SLOTS + 8)
            .map(|i| &*Box::leak(format!("site{i}").into_boxed_str()))
            .collect();
        for &n in &names {
            t.record(n, 10, true);
        }
        assert!(names[..SLOTS].iter().all(|&n| t.is_cheap(n)));
        assert!(names[SLOTS..].iter().all(|&n| !t.is_cheap(n)));
    }
}
