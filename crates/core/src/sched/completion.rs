//! The completion-side release path: what a thread does after a task
//! body returns, built so that **no mutex is reachable from it** (a unit
//! test below and the workspace test `tests/lock_free_sources.rs` pin
//! this file lock-free, like the deque shim). It is the only release
//! path, on workers and on the main thread alike.
//!
//! Three mechanisms, mirroring the spawn-side fast path:
//!
//! 1. **Lock-free read-window close** — happens before this module runs:
//!    dropping the body's `ReadBinding`s closes each read window through
//!    the [`ReadWindow`](crate::data::version) protocol (one Release
//!    `fetch_sub` per `input` parameter). The object mutex is never
//!    touched off the spawning thread.
//! 2. **Batched ready publication** (`finish_task`): `complete()`
//!    detaches the successor stack with one swap; the released-ready
//!    successors are walked into a reusable per-worker buffer and
//!    published in one shot. The *last* released normal successor — the
//!    one the own-list LIFO would pop next anyway — is handed straight
//!    back to the completing worker (the paper's cache-affinity argument
//!    for per-thread lists, taken to its limit: no queue round-trip at
//!    all), the rest are pushed to its own list as a batch, and one wake
//!    decision covers them all. A chain completion therefore publishes
//!    nothing and wakes nobody.
//! 3. **Sharded completion accounting**: each thread owns a
//!    cache-line-padded `finished` shard bumped with a single-writer
//!    load + Release store, so completions share no counter line and
//!    pay no RMW. The barrier sums the shards (Acquire) when it
//!    needs the total. The all-done wake is only probed on *leaf*
//!    completions (`n_ready == 0` — only a leaf can be the last task)
//!    on a worker (the main thread is the one the wake is for) whose
//!    own queues are empty, and only there does it pay the sleep
//!    protocol's fence: shard store, fence, sleeper load, then the
//!    cross-shard sum. The barrier announces, fences and re-sums, so
//!    either it sees the last shard store or the last completer sees
//!    its announcement, and two racing last completers see each
//!    other's stores. The wake is exact; no park times out. It releases
//!    the barrier's slot alone: workers parked beside it have nothing
//!    to find in a drained graph.

use std::sync::atomic::Ordering;

use crossbeam_deque::Worker;

use super::queues::Job;
use crate::runtime::{Priority, Shared};

/// How strongly to wake sleepers after a completion. The caller
/// (`run_task`) executes the plan against [`SleepCtl`], whose notify is
/// the publisher's fence and sleeper probe.
///
/// Surplus releases wake **one** sleeper, not all: the woken thief
/// propagates the wake if its victim still has work (`find_task`), so a
/// fan-out recruits exactly as many workers as the work sustains instead
/// of paying a thundering herd up front.
///
/// [`SleepCtl`]: super::queues::SleepCtl
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Wake {
    /// Nothing was published (a chain hand-off, or a leaf): no probe.
    None,
    /// The whole graph may just have drained: release the main thread
    /// if it is parked in `barrier` (slot 0), and nobody else.
    Barrier,
    /// New stealable or high-priority work: probe for sleepers; one
    /// comes, and brings the next one itself if there is more (wake
    /// propagation).
    One,
    /// Several high-priority tasks appeared at once: everyone should
    /// look.
    All,
}

/// Close out a finished task: mark it finished, publish every successor
/// it released, hand the node to `give_back`, and account the
/// completion. Returns the direct hand-off
/// (the task this worker should run next, bypassing all queues) and the
/// wake plan.
///
/// `claimed_empty` is the caller's private claimed-buffer state: a
/// non-empty claim means this thread already knows of unfinished work,
/// so the all-done probe (a cross-shard sum) is skipped outright.
///
/// `poison` stamps a cancellation request on every registered successor
/// as it is released (the `OnPanic::CancelDependents` propagation step);
/// a failed or cancelled task otherwise completes exactly like a
/// successful one, so counts, pools and the barrier never diverge.
///
/// A completion on the main thread while it is the only spawner
/// (`idx == 0`, the only thread that registers successors then) closes
/// the list with [`complete_single`](crate::graph::node::TaskNode::complete_single)'s
/// plain stores; every other completion closes it with an AcqRel swap.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_task(
    shared: &Shared,
    local: &Worker<Job>,
    idx: usize,
    job: Job,
    poison: bool,
    allow_handoff: bool,
    claimed_empty: bool,
    ready: &mut Vec<Job>,
    give_back: impl FnOnce(Job),
) -> (Option<Job>, Wake) {
    // The thread that registers successors closes lists with plain
    // stores: until a session exists only the main thread (index 0)
    // runs dependency analysis, so only it ever pushes onto a successor
    // list, and a task it completes cannot have a push racing the
    // close. The mode is read on the main thread, which wrote it
    // (`Runtime::latch_spawners`), so a plain close is never made once
    // another spawner exists. Worker completions, and every completion
    // after that, keep the AcqRel swap: session threads register
    // successors on the main thread's tasks while it helps (even at
    // `threads == 1`), so an `idx == 0` completion must assume a
    // concurrent push.
    let registrar = idx == 0 && !shared.sessions_used();
    debug_assert!(ready.is_empty(), "ready buffer must be drained");
    let n_ready = if registrar {
        job.complete_single(poison, |s| ready.push(s))
    } else {
        job.complete(poison, |s| ready.push(s))
    };

    let mut wake = Wake::None;
    let mut handoff = None;
    if !ready.is_empty() {
        wake = publish_batch(shared, local, ready, allow_handoff, &mut handoff);
    }

    // Session completion accounting: a task stamped with a session bumps
    // its session's `finished` counter with a Release RMW that pairs with
    // `Session::wait`'s Acquire load, ordering the task's effects before
    // the waiter proceeds. Gated behind the always-false-until-used
    // `sessions_used` probe (one Relaxed load, same trick as the fault
    // probe) so session-less runs never touch the node's session slot.
    if shared.sessions_used() {
        if let Some(ctl) = job.session_ctl() {
            ctl.note_finished();
        }
    }
    // The node goes back to the spawn-side pool before the completion
    // counts: a spawner that a §III throttle holds until this completion
    // then finds the node there instead of allocating a new one. The
    // node is not touched after this.
    give_back(job);

    // Completion accounting. The shards are indexed by thread, padded
    // and single-writer: a load + Release store, no RMW. The Release
    // pairs with the barrier's Acquire sum (`Shared::finished_total`),
    // ordering this task's effects before the barrier proceeds.
    let shard = &shared.finished[idx];
    shard.store(shard.load(Ordering::Relaxed) + 1, Ordering::Release);
    // All-done probe, gated three ways before paying the sleep
    // protocol's fence: the wake is for the main thread parked in
    // `barrier`, so a completion *on* the main thread (`idx == 0`,
    // which helps or runs tasks inline and is therefore not parked)
    // never owes it; only a leaf can be the last task; and a thread
    // whose own queues still hold work cannot have finished the graph.
    // None of these gates can skip the last task's wake. Past them the
    // fence orders the shard store above before the sleeper load and
    // the cross-shard sum, pairing with the barrier's announcement; an
    // announced slot 0 is therefore seen, and only it is released.
    if idx != 0
        && n_ready == 0
        && claimed_empty
        && local.is_empty()
        && shared.sleep.has_sleepers()
        && shared.finished_total() == shared.next_task.load(Ordering::Acquire)
    {
        wake = Wake::Barrier;
    }
    (handoff, wake)
}

/// Publish one completion's released successors as a batch. Successors
/// arrive in registration order (the order `complete` releases and the
/// policy tests pin). High-priority successors go to the global HP list
/// ("independently of any locality consideration"). Every other
/// successor stays with the completing worker — the §III rule for a
/// task whose last input dependency this thread removed — and the
/// *last* one is returned as the hand-off when allowed, exactly the
/// task the own list's LIFO pop would have produced next; the rest are
/// pushed to the own list. One wake decision covers the batch:
/// `One` whenever anything was pushed (the notify's sleeper probe is
/// what keeps the publication exact; the woken thief propagates further
/// wakes on demand), `All` only when several high-priority tasks appear
/// at once.
fn publish_batch(
    shared: &Shared,
    local: &Worker<Job>,
    ready: &mut Vec<Job>,
    allow_handoff: bool,
    handoff: &mut Option<Job>,
) -> Wake {
    let normals = ready
        .iter()
        .filter(|s| s.priority() == Priority::Normal)
        .count();
    let take_handoff = allow_handoff && normals > 0;
    let mut hp_pushed = 0usize;
    let mut pushed = 0usize;
    let mut normals_seen = 0usize;
    for s in ready.drain(..) {
        if s.priority() == Priority::High {
            shared.hp_used.store(true, Ordering::Relaxed);
            shared.hp.push(s);
            hp_pushed += 1;
        } else {
            normals_seen += 1;
            if take_handoff && normals_seen == normals {
                *handoff = Some(s);
            } else {
                local.push(s);
                pushed += 1;
            }
        }
    }
    // No emptiness heuristic: "the queue was non-empty" does not imply
    // "someone awake will drain it" (the last scanner may have announced
    // since), so every push is followed by the notify's sleeper probe.
    if hp_pushed > 1 {
        Wake::All
    } else if hp_pushed + pushed > 0 {
        Wake::One
    } else {
        Wake::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::node::TaskNode;
    use crate::ids::TaskId;
    use std::sync::Arc;

    /// `finish_task` for a completion of `node` on thread `idx`: no
    /// poison, an empty claimed buffer, and the node dropped.
    fn finish(
        shared: &Shared,
        local: &Worker<Job>,
        idx: usize,
        node: &Job,
        allow_handoff: bool,
    ) -> (Option<Job>, Wake) {
        let node = Arc::clone(node);
        finish_task(
            shared,
            local,
            idx,
            node,
            false,
            allow_handoff,
            true,
            &mut Vec::new(),
            drop,
        )
    }

    /// The acceptance gate of the completion-side rewrite: the path a
    /// worker takes from a finished body to the next task must contain
    /// no mutex — atomics, deque/injector pushes and the wake *plan*
    /// only. The needle is assembled at runtime so this test does not
    /// match itself (same trick as the deque shim's gate).
    #[test]
    fn completion_path_contains_no_mutex() {
        let source = include_str!("completion.rs");
        let needles = [["Mu", "tex"].concat(), [".lo", "ck()"].concat()];
        for needle in &needles {
            assert_eq!(
                source.matches(needle.as_str()).count(),
                0,
                "the completion fast path must stay lock-free (found {:?})",
                needle
            );
        }
    }

    #[test]
    fn wake_strength_orders() {
        assert!(Wake::None < Wake::Barrier);
        assert!(Wake::Barrier < Wake::One);
        assert!(Wake::One < Wake::All);
    }

    fn shared(threads: usize) -> Shared {
        Shared::for_tests(crate::RuntimeBuilder::default().threads(threads).config())
    }

    fn ready_node(id: u64) -> Job {
        let n = TaskNode::new(TaskId(id), "t", Priority::Normal);
        n.install_body(|| {});
        n
    }

    /// A fan-out completion hands the *last* released successor to the
    /// worker (the own-list LIFO order) and pushes the rest in order.
    #[test]
    fn batch_hands_off_the_lifo_next_task() {
        let shared = shared(2);
        let local = Worker::new_lifo();
        let producer = ready_node(1);
        let succs: Vec<Job> = (2..6).map(ready_node).collect();
        for s in &succs {
            assert!(producer.add_successor(s));
            s.retain_dep();
            assert!(!s.release_dep()); // drop the spawn guard
        }
        producer.take_body().run_in_place();
        let (handoff, wake) = finish(&shared, &local, 0, &producer, true);
        assert_eq!(handoff.expect("fan-out hands off").id(), TaskId(5));
        assert_eq!(wake, Wake::One, "surplus wakes one thief; it propagates");
        // The remaining successors sit in the own list; LIFO pops give
        // 4, 3, 2 — identical to the pre-hand-off order after popping 5.
        assert_eq!(local.pop().unwrap().id(), TaskId(4));
        assert_eq!(local.pop().unwrap().id(), TaskId(3));
        assert_eq!(local.pop().unwrap().id(), TaskId(2));
        assert!(local.pop().is_none());
        assert_eq!(shared.finished_total(), 1);
    }

    /// A chain completion (exactly one successor) publishes nothing and
    /// wakes nobody: the successor is the hand-off.
    #[test]
    fn chain_completion_is_silent() {
        let shared = shared(2);
        let local = Worker::new_lifo();
        let producer = ready_node(1);
        let succ = ready_node(2);
        assert!(producer.add_successor(&succ));
        succ.retain_dep();
        assert!(!succ.release_dep());
        producer.take_body().run_in_place();
        let (handoff, wake) = finish(&shared, &local, 0, &producer, true);
        assert_eq!(handoff.unwrap().id(), TaskId(2));
        assert_eq!(wake, Wake::None, "a hand-off needs no wake");
        assert!(local.is_empty());
    }

    /// The helper path never takes a hand-off; the successor goes to the
    /// own list instead (today's pre-hand-off behaviour).
    #[test]
    fn helper_path_declines_handoff() {
        let shared = shared(2);
        let local = Worker::new_lifo();
        let producer = ready_node(1);
        let succ = ready_node(2);
        assert!(producer.add_successor(&succ));
        succ.retain_dep();
        assert!(!succ.release_dep());
        producer.take_body().run_in_place();
        let (handoff, wake) = finish(&shared, &local, 0, &producer, false);
        assert!(handoff.is_none());
        assert_eq!(wake, Wake::One, "empty-transition push wakes one");
        assert_eq!(local.pop().unwrap().id(), TaskId(2));
    }

    /// A fan-out at four threads stays with the completing worker: the
    /// §III rule puts a task whose last input dependency this thread
    /// removed on this thread's list, and the batch hands the last one
    /// off. Nothing reaches the main list, and nothing is routed by
    /// where its inputs were written (`locality_hits` stays 0).
    #[test]
    fn hinted_successor_routes_to_the_preferred_mailbox() {
        let shared = shared(4);
        let local = Worker::new_lifo();
        let producer = ready_node(1);
        let succs: Vec<Job> = (2..5).map(ready_node).collect();
        for s in &succs {
            assert!(producer.add_successor(s));
            s.retain_dep();
            assert!(!s.release_dep());
        }
        producer.take_body().run_in_place();
        let (handoff, wake) = finish(&shared, &local, 3, &producer, true);
        assert_eq!(handoff.expect("local successors hand off").id(), TaskId(4));
        assert_eq!(wake, Wake::One, "surplus on the own list wakes a thief");
        assert_eq!(local.pop().unwrap().id(), TaskId(3));
        assert_eq!(local.pop().unwrap().id(), TaskId(2));
        assert!(local.pop().is_none());
        assert!(
            shared.main_q.is_empty(),
            "released tasks never go to the main list"
        );
        assert_eq!(shared.stats.snapshot().locality_hits, 0);
        assert_eq!(shared.finished[3].load(Ordering::Relaxed), 1);
    }

    /// A completion never routes by policy: on the helper path (no
    /// hand-off allowed) every released normal successor goes to the
    /// completing thread's own list, in release order, and a released
    /// high-priority successor to the HP list. Nothing reaches the main
    /// list, which holds born-ready tasks only.
    #[test]
    fn locality_off_never_routes() {
        let shared = shared(4);
        let local = Worker::new_lifo();
        let producer = ready_node(1);
        let succs: Vec<Job> = (2..5).map(ready_node).collect();
        succs[1].set_high_priority();
        for s in &succs {
            assert!(producer.add_successor(s));
            s.retain_dep();
            assert!(!s.release_dep());
        }
        producer.take_body().run_in_place();
        let (handoff, wake) = finish(&shared, &local, 1, &producer, false);
        assert!(handoff.is_none(), "the helper path takes no hand-off");
        assert_eq!(wake, Wake::One);
        let own: Vec<_> = std::iter::from_fn(|| local.pop()).map(|j| j.id()).collect();
        assert_eq!(own, vec![TaskId(4), TaskId(2)], "own list, LIFO");
        let hp: Vec<_> = std::iter::from_fn(|| crate::sched::queues::pop_injector(&shared.hp))
            .map(|j| j.id())
            .collect();
        assert_eq!(hp, vec![TaskId(3)]);
        assert!(
            shared.main_q.is_empty(),
            "released tasks never go to the main list"
        );
    }

    /// Lost-wakeup regression (the batched-publication bugfix): a push
    /// onto an already-non-empty own list used to return `Wake::None`
    /// on the theory that an awake worker was draining the list — but a
    /// worker that parked *after* the publisher's emptiness observation
    /// and *before* the push breaks that theory. The publisher must
    /// probe the sleeper count after every push and wake one.
    #[test]
    fn publish_to_nonempty_queue_wakes_a_late_sleeper() {
        let shared = std::sync::Arc::new(shared(2));
        // Park a real thread so the post-publish re-probe sees it.
        let parked = {
            let shared = std::sync::Arc::clone(&shared);
            std::thread::spawn(move || {
                shared.sleep.park(1, || false);
            })
        };
        while !shared.sleep.has_sleepers() {
            std::thread::yield_now();
        }
        let local = Worker::new_lifo();
        local.push(ready_node(99)); // own list is NOT empty
        let producer = ready_node(1);
        let succ = ready_node(2);
        assert!(producer.add_successor(&succ));
        succ.retain_dep();
        assert!(!succ.release_dep());
        producer.take_body().run_in_place();
        // Helper path (no hand-off): the successor is pushed onto the
        // non-empty own list — the exact shape that used to lose the
        // wake.
        let (handoff, wake) = finish(&shared, &local, 0, &producer, false);
        assert!(handoff.is_none());
        assert_eq!(
            wake,
            Wake::One,
            "publishing with a registered sleeper must wake it even when \
             the target queue was already non-empty"
        );
        shared.sleep.notify_all();
        parked.join().unwrap();
    }

    /// The re-probe only fires when something was actually published:
    /// a pure hand-off (chain) stays silent even with sleepers present.
    #[test]
    fn chain_handoff_stays_silent_despite_sleepers() {
        let shared = std::sync::Arc::new(shared(2));
        let parked = {
            let shared = std::sync::Arc::clone(&shared);
            std::thread::spawn(move || {
                shared.sleep.park(1, || false);
            })
        };
        while !shared.sleep.has_sleepers() {
            std::thread::yield_now();
        }
        let local = Worker::new_lifo();
        let producer = ready_node(1);
        let succ = ready_node(2);
        assert!(producer.add_successor(&succ));
        succ.retain_dep();
        assert!(!succ.release_dep());
        producer.take_body().run_in_place();
        let (handoff, wake) = finish(&shared, &local, 0, &producer, true);
        assert_eq!(handoff.unwrap().id(), TaskId(2));
        assert_eq!(
            wake,
            Wake::None,
            "a hand-off publishes nothing — no wake owed"
        );
        shared.sleep.notify_all();
        parked.join().unwrap();
    }

    /// The all-done wake is for the main thread parked in `barrier`: a
    /// completion on the main thread itself (an inline run, or a help)
    /// that finishes the graph owes no wake, even with a sleeper
    /// registered; the same completion on a worker releases the
    /// barrier's slot only.
    #[test]
    fn main_thread_completion_skips_the_all_done_wake() {
        for (idx, want) in [(0, Wake::None), (1, Wake::Barrier)] {
            let shared = std::sync::Arc::new(shared(2));
            shared.next_task.store(1, Ordering::Relaxed);
            let parked = {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || {
                    shared.sleep.park(1, || false);
                })
            };
            while !shared.sleep.has_sleepers() {
                std::thread::yield_now();
            }
            let local = Worker::new_lifo();
            let last = ready_node(1);
            last.take_body().run_in_place();
            let (handoff, wake) = finish(&shared, &local, idx, &last, false);
            assert!(handoff.is_none());
            assert_eq!(shared.finished_total(), 1, "the graph is done");
            assert_eq!(wake, want, "completion on thread {idx}");
            shared.sleep.notify_all();
            parked.join().unwrap();
        }
    }

    /// Once a session exists the main thread must keep the AcqRel
    /// successor-list close even at `threads == 1`: the session may be
    /// CAS-publishing links concurrently (`complete_single`'s plain
    /// close would race it). Nothing on the builder switches it;
    /// opening the session does.
    #[test]
    fn sharded_single_thread_uses_concurrent_close() {
        let rt = crate::Runtime::builder().threads(1).build();
        assert!(!rt.shared.sessions_used(), "no session yet");
        let _session = rt.session();
        assert!(rt.shared.sessions_used());
        let shared = &*rt.shared;
        let local = Worker::new_lifo();
        let producer = ready_node(1);
        producer.take_body().run_in_place();
        let (_, _) = finish(shared, &local, 0, &producer, true);
        // Both closes look alike from one thread, so the observable pin
        // is the list being closed at all — a late add_successor must
        // fail as "already finished".
        let late = ready_node(2);
        assert!(
            !producer.add_successor(&late),
            "post-completion registration must see the closed list"
        );
        assert_eq!(shared.finished_total(), 1);
    }

    /// There is one release path, on workers as on the main thread: a
    /// worker's fan-out completion hands the last successor off, pushes
    /// the rest in order, and bumps the worker's own finished shard —
    /// never shard 0, and never with an RMW another thread contends.
    #[test]
    fn legacy_release_path_matches_bench_0003_shape() {
        let shared = shared(2);
        let local = Worker::new_lifo();
        let producer = ready_node(1);
        let succs: Vec<Job> = (2..5).map(ready_node).collect();
        for s in &succs {
            assert!(producer.add_successor(s));
            s.retain_dep();
            assert!(!s.release_dep());
        }
        producer.take_body().run_in_place();
        let (handoff, wake) = finish(&shared, &local, 1, &producer, true);
        assert_eq!(
            handoff.expect("worker completions hand off").id(),
            TaskId(4)
        );
        assert_eq!(wake, Wake::One, "surplus wakes one thief, not all");
        assert_eq!(local.len(), 2);
        assert_eq!(shared.finished[0].load(Ordering::Relaxed), 0);
        assert_eq!(shared.finished[1].load(Ordering::Relaxed), 1);
    }
}
