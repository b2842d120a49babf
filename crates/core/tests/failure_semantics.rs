//! Failure containment semantics (default build, no fault-inject
//! feature): a panicking task body is a contained event — the node is
//! stamped `Failed`, the completion protocol still runs in full, the
//! `OnPanic` policy decides what happens to dependents, and
//! [`Runtime::wait_all`] reports the exact failed + cancelled sets.

use proptest::prelude::*;
use smpss::{OnPanic, Runtime, TaskFailures, TaskId};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Worker-thread panics are the *subject* of these tests, not failures
/// of them: silence the default hook's backtrace spam for panics that
/// unwind inside `smpss-worker-*` threads (the payloads still surface
/// through `wait_all`). Panics on test threads keep the full report.
fn quiet_worker_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("smpss-worker"));
            if !in_worker {
                prev(info);
            }
        }));
    });
}

fn failed_ids(e: &TaskFailures) -> Vec<TaskId> {
    e.failed.iter().map(|f| f.id).collect()
}

fn cancelled_ids(e: &TaskFailures) -> BTreeSet<TaskId> {
    e.cancelled.iter().map(|c| c.id).collect()
}

#[test]
fn panicked_task_is_contained_and_reported() {
    quiet_worker_panics();
    let rt = Runtime::builder().threads(2).build();
    let ok_runs = Arc::new(AtomicUsize::new(0));
    let x = rt.data(0i64);
    let mut sp = rt.task("boom");
    let _w = sp.write(&x);
    let bad = sp.id();
    sp.submit(|| panic!("boom payload"));
    for _ in 0..16 {
        let h = rt.data(0i64);
        let mut sp = rt.task("ok");
        let mut w = sp.write(&h);
        let ok_runs = ok_runs.clone();
        sp.submit(move || {
            *w.get_mut() = 1;
            ok_runs.fetch_add(1, Ordering::Relaxed);
        });
    }
    let err = rt.wait_all().expect_err("one task panicked");
    assert_eq!(failed_ids(&err), [bad]);
    assert_eq!(err.failed[0].name, "boom");
    assert_eq!(err.failed[0].payload_str(), Some("boom payload"));
    assert!(err.cancelled.is_empty(), "no task depended on the failure");
    assert_eq!(ok_runs.load(Ordering::Relaxed), 16, "independent tasks ran");
    let st = rt.stats();
    assert_eq!(st.panics, 1);
    assert_eq!(st.cancelled, 0);
}

#[test]
fn string_payloads_survive_into_the_report() {
    quiet_worker_panics();
    let rt = Runtime::builder().threads(1).build();
    let x = rt.data(0i64);
    let mut sp = rt.task("fmt_boom");
    let _w = sp.write(&x);
    sp.submit(|| panic!("bad value: {}", 42));
    let err = rt.wait_all().expect_err("task panicked");
    assert_eq!(err.failed[0].payload_str(), Some("bad value: 42"));
    // Display is human-readable and names the first failure.
    let msg = err.to_string();
    assert!(msg.contains("bad value: 42"), "Display was: {msg}");
}

/// Default policy: a panic poisons the failed task's *transitive*
/// dependents — they are cancelled without running — while independent
/// chains are untouched.
#[test]
fn cancel_dependents_cancels_the_transitive_chain_only() {
    quiet_worker_panics();
    let rt = Runtime::builder().threads(2).build();
    let poisoned = rt.data(0i64);
    let healthy = rt.data(0i64);
    let ran = Arc::new(AtomicUsize::new(0));

    let mut sp = rt.task("head");
    let _w = sp.write(&poisoned);
    let bad = sp.id();
    sp.submit(|| panic!("head failed"));

    let mut chain = Vec::new();
    for _ in 0..8 {
        let mut sp = rt.task("dependent");
        let mut w = sp.inout(&poisoned);
        chain.push(sp.id());
        let ran = ran.clone();
        sp.submit(move || {
            *w.get_mut() += 1;
            ran.fetch_add(1, Ordering::Relaxed);
        });
    }
    let mut healthy_runs = 0;
    for _ in 0..8 {
        let mut sp = rt.task("independent");
        let mut w = sp.inout(&healthy);
        healthy_runs += 1;
        sp.submit(move || *w.get_mut() += 1);
    }

    let err = rt.wait_all().expect_err("the chain head panicked");
    assert_eq!(failed_ids(&err), [bad]);
    assert_eq!(
        cancelled_ids(&err),
        chain.iter().copied().collect::<BTreeSet<_>>(),
        "exactly the dependents are cancelled"
    );
    assert_eq!(ran.load(Ordering::Relaxed), 0, "cancelled bodies never run");
    assert_eq!(
        rt.read(&healthy),
        healthy_runs,
        "independent chain completed"
    );
    let st = rt.stats();
    assert_eq!(st.panics, 1);
    assert_eq!(st.cancelled, 8);
}

/// A task spawned *after* its producer already failed must still be
/// cancelled (the poison check at link time, not only the completion
/// walk). Two ways the producer finishes first: at `threads(1)` the main
/// thread runs it while helping in `wait_on`; at `threads(2)`, once
/// its site is measured cheap, the spawner runs it inline inside
/// `submit`. Either way the consumer meets a closed successor list.
#[test]
fn spawning_against_an_already_failed_producer_cancels() {
    quiet_worker_panics();
    fn early_boom(rt: &Runtime, x: &smpss::Handle<i64>, fail: bool) -> TaskId {
        let mut sp = rt.task("early_boom");
        let mut w = sp.write(x);
        let id = sp.id();
        sp.submit(move || {
            if fail {
                panic!("early");
            }
            *w.get_mut() = 1;
        });
        id
    }
    for threads in [1, 2] {
        let rt = Runtime::builder().threads(threads).build();
        if threads > 1 {
            // Warm the site until the spawner runs it inline.
            let warm: Vec<_> = (0..64).map(|_| rt.data(0i64)).collect();
            let t0 = std::time::Instant::now();
            while rt.stats().inline_runs == 0 {
                assert!(t0.elapsed().as_secs() < 30, "the site never inlined");
                for h in &warm {
                    early_boom(&rt, h, false);
                }
                rt.barrier();
            }
        }
        let x = rt.data(0i64);
        let before = rt.stats().inline_runs;
        let bad = early_boom(&rt, &x, true);
        if threads > 1 {
            assert_eq!(
                rt.stats().inline_runs - before,
                1,
                "the producer ran inline"
            );
        }
        // Run the failing task to completion before the dependent is
        // even analysed (main-thread help executes it when it did not
        // already run inline; the panic is contained).
        rt.wait_on(&x);

        let ran = Arc::new(AtomicBool::new(false));
        let mut sp = rt.task("late_reader");
        let mut r = sp.read(&x);
        let late = sp.id();
        let ran2 = ran.clone();
        sp.submit(move || {
            let _ = r.get();
            ran2.store(true, Ordering::Relaxed);
        });

        let err = rt.wait_all().expect_err("producer failed");
        assert_eq!(failed_ids(&err), [bad], "threads({threads})");
        assert_eq!(
            cancelled_ids(&err),
            [late].into_iter().collect(),
            "threads({threads})"
        );
        assert!(!ran.load(Ordering::Relaxed), "threads({threads})");
    }
}

/// `OnPanic::Isolate`: the failure is recorded but nothing is cancelled —
/// dependents run against whatever the failed task left behind.
#[test]
fn isolate_policy_runs_dependents() {
    quiet_worker_panics();
    let rt = Runtime::builder()
        .threads(2)
        .on_panic(OnPanic::Isolate)
        .build();
    let x = rt.data(0i64);
    let mut sp = rt.task("boom");
    let _w = sp.write(&x);
    let bad = sp.id();
    sp.submit(|| panic!("isolated failure"));
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..8 {
        let mut sp = rt.task("dependent");
        let mut w = sp.inout(&x);
        let ran = ran.clone();
        sp.submit(move || {
            *w.get_mut() += 1;
            ran.fetch_add(1, Ordering::Relaxed);
        });
    }
    let err = rt.wait_all().expect_err("the panic is still reported");
    assert_eq!(failed_ids(&err), [bad]);
    assert!(err.cancelled.is_empty(), "Isolate cancels nothing");
    assert_eq!(ran.load(Ordering::Relaxed), 8, "dependents all ran");
}

/// `OnPanic::FailFast`: after the first panic, every not-yet-executed
/// task — related or not — is cancelled.
#[test]
fn fail_fast_cancels_unrelated_pending_tasks() {
    quiet_worker_panics();
    let rt = Runtime::builder()
        .threads(1)
        .on_panic(OnPanic::FailFast)
        .build();
    let x = rt.data(0i64);
    let mut sp = rt.task("boom");
    let _w = sp.write(&x);
    let bad = sp.id();
    sp.submit(|| panic!("fail fast"));
    rt.wait_on(&x); // the failure has happened by the time these spawn
    let ran = Arc::new(AtomicUsize::new(0));
    let mut others = BTreeSet::new();
    for _ in 0..16 {
        let h = rt.data(0i64);
        let mut sp = rt.task("unrelated");
        let mut w = sp.write(&h);
        others.insert(sp.id());
        let ran = ran.clone();
        sp.submit(move || {
            *w.get_mut() = 1;
            ran.fetch_add(1, Ordering::Relaxed);
        });
    }
    let err = rt.wait_all().expect_err("fail fast");
    assert_eq!(failed_ids(&err), [bad]);
    assert_eq!(cancelled_ids(&err), others, "every pending task cancelled");
    assert_eq!(ran.load(Ordering::Relaxed), 0);
}

/// `wait_all` drains: a second call reports `Ok`, and the runtime keeps
/// scheduling afterwards — a later failure starts a fresh report.
#[test]
fn wait_all_drains_and_the_runtime_recovers() {
    quiet_worker_panics();
    let rt = Runtime::builder().threads(2).build();
    let x = rt.data(0i64);
    let mut sp = rt.task("boom1");
    let _w = sp.write(&x);
    sp.submit(|| panic!("first"));
    let err = rt.wait_all().expect_err("first failure");
    assert_eq!(err.failed.len(), 1);
    assert!(rt.wait_all().is_ok(), "drained: second call is clean");

    // The runtime still runs tasks after a failure...
    let y = rt.data(0i64);
    let mut sp = rt.task("ok");
    let mut w = sp.write(&y);
    sp.submit(move || *w.get_mut() = 7);
    assert!(rt.wait_all().is_ok());
    assert_eq!(rt.read(&y), 7);

    // ...and a later panic is a fresh, exact report.
    let mut sp = rt.task("boom2");
    let _w = sp.write(&y);
    let second = sp.id();
    sp.submit(|| panic!("second"));
    let err = rt.wait_all().expect_err("second failure");
    assert_eq!(failed_ids(&err), [second]);
    assert_eq!(err.failed[0].payload_str(), Some("second"));
}

/// `Submitter::has_failures` is the sharded-lane view of the fault flag:
/// a single atomic load, observable from any lane, reset by `wait_all`.
#[test]
fn submitter_side_failure_flag() {
    quiet_worker_panics();
    let rt = Runtime::builder().threads(2).shards(2).build();
    let subs = rt.submitters();
    assert!(!subs[0].has_failures());
    let x = rt.data(0i64);
    let mut sp = subs[1].task("boom");
    let _w = sp.write(&x);
    sp.submit(|| panic!("lane failure"));
    rt.barrier();
    assert!(subs[0].has_failures(), "visible from another lane");
    let err = rt.wait_all().expect_err("reported");
    assert_eq!(err.failed.len(), 1);
    assert!(!subs[0].has_failures(), "wait_all resets the flag");
}

/// Satellite: fallible construction. `try_build` hands back a runtime
/// (or a `RuntimeBuildError` joining any half-spawned workers — not
/// forceable in-process, but the Ok path and error type are public API).
#[test]
fn try_build_constructs_a_working_runtime() {
    let rt = Runtime::builder()
        .threads(2)
        .try_build()
        .expect("spawning two threads succeeds");
    let x = rt.data(0i64);
    let mut sp = rt.task("ok");
    let mut w = sp.write(&x);
    sp.submit(move || *w.get_mut() = 3);
    assert!(rt.wait_all().is_ok());
    assert_eq!(rt.read(&x), 3);
    // The error type is ordinary std error machinery.
    fn assert_error<E: std::error::Error>() {}
    assert_error::<smpss::RuntimeBuildError>();
    assert_error::<TaskFailures>();
}

/// Satellite regression: dropping a `Runtime` with pending tasks while
/// the *owning* thread is unwinding must not double-panic (which would
/// abort the process). Pins the `!std::thread::panicking()` guard in
/// `Drop for Runtime`.
#[test]
fn runtime_drop_during_unwind_does_not_double_panic() {
    quiet_worker_panics();
    let unwound = std::panic::catch_unwind(|| {
        let rt = Runtime::builder().threads(1).build();
        let x = rt.data(0i64);
        for _ in 0..64 {
            let mut sp = rt.task("pending");
            let mut w = sp.inout(&x);
            sp.submit(move || *w.get_mut() += 1);
        }
        panic!("user code failed with tasks pending");
    });
    assert!(unwound.is_err(), "the panic unwound cleanly through Drop");
}

/// Same shape for `TaskSpawner`: a spawner dropped mid-unwind (before
/// `submit`) must swallow its "dropped without submit" report instead of
/// double-panicking.
#[test]
fn spawner_drop_during_unwind_does_not_double_panic() {
    quiet_worker_panics();
    let unwound = std::panic::catch_unwind(|| {
        let rt = Runtime::builder().threads(1).build();
        let x = rt.data(0i64);
        let mut sp = rt.task("never_submitted");
        let _w = sp.write(&x);
        panic!("user code failed while building a task");
    });
    assert!(unwound.is_err());
}

/// And for a sharded runtime with live `Submitter`s on the unwinding
/// thread.
#[test]
fn submitter_drop_during_unwind_does_not_double_panic() {
    quiet_worker_panics();
    let unwound = std::panic::catch_unwind(|| {
        let rt = Runtime::builder().threads(2).shards(2).build();
        let subs = rt.submitters();
        let x = rt.data(0i64);
        let mut sp = subs[0].task("pending");
        let mut w = sp.write(&x);
        sp.submit(move || *w.get_mut() = 1);
        panic!("user code failed with submitters live");
    });
    assert!(unwound.is_err());
}

// ---------------------------------------------------------------------
// Satellite proptest: one injected panic in a random task of a random
// graph.
// ---------------------------------------------------------------------

const CELLS: usize = 6;

/// One task: reads a few cells, writes one. With renaming on, the
/// recorded graph holds exactly the true dependencies of this program.
#[derive(Clone, Debug)]
struct Spec {
    writes: usize,
    reads: Vec<usize>,
}

fn program_strategy() -> impl Strategy<Value = Vec<Spec>> {
    prop::collection::vec(
        (0..CELLS, prop::collection::vec(0..CELLS, 0..3))
            .prop_map(|(writes, reads)| Spec { writes, reads }),
        2..14,
    )
}

struct Run {
    ids: Vec<TaskId>,
    ran: Vec<bool>,
    result: Result<(), TaskFailures>,
    graph: smpss::GraphRecord,
}

fn run_program(
    specs: &[Spec],
    threads: usize,
    shards: usize,
    policy: OnPanic,
    fail_idx: Option<usize>,
) -> Run {
    let rt = Runtime::builder()
        .threads(threads)
        .shards(shards)
        .record_graph(true)
        .on_panic(policy)
        .build();
    if shards > 1 {
        drop(rt.submitters()); // the main thread now takes the gated paths
    }
    let cells: Vec<_> = (0..CELLS).map(|_| rt.data(0i64)).collect();
    let ran: Arc<Vec<AtomicBool>> =
        Arc::new((0..specs.len()).map(|_| AtomicBool::new(false)).collect());
    let mut ids = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let mut sp = rt.task("t");
        let mut reads: Vec<_> = spec.reads.iter().map(|&r| sp.read(&cells[r])).collect();
        let mut w = sp.inout(&cells[spec.writes]);
        ids.push(sp.id());
        let ran = ran.clone();
        let fails = fail_idx == Some(i);
        sp.submit(move || {
            let mut sum = 0i64;
            for r in &mut reads {
                sum += *r.get();
            }
            *w.get_mut() += sum + 1;
            ran[i].store(true, Ordering::Relaxed);
            if fails {
                panic!("injected");
            }
        });
    }
    let result = rt.wait_all();
    let graph = rt.graph().expect("graph recording was enabled");
    Run {
        ids,
        ran: ran.iter().map(|f| f.load(Ordering::Relaxed)).collect(),
        result,
        graph,
    }
}

/// Transitive successors of `root` in the recorded graph.
fn descendants(g: &smpss::GraphRecord, root: TaskId) -> BTreeSet<TaskId> {
    let mut seen = BTreeSet::new();
    let mut work = vec![root];
    while let Some(n) = work.pop() {
        for s in g.successors(n) {
            if seen.insert(s) {
                work.push(s);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Inject one panic into a random task of a random graph. Under the
    /// default policy, `wait_all` must report exactly {failed task} and
    /// {its transitive dependents in the recorded graph}; every other
    /// task must have run. Under `Isolate`, everything runs and the
    /// recorded graph is identical to the no-failure oracle's.
    #[test]
    fn one_injected_panic_fails_exactly_the_dependent_closure(
        specs in program_strategy(),
        fail_sel in 0usize..4096,
    ) {
        quiet_worker_panics();
        let f = fail_sel % specs.len();
        for &threads in &[1usize, 8] {
            for &shards in &[1usize, 4] {
                // Default policy: exact failed + cancelled sets.
                let run = run_program(&specs, threads, shards, OnPanic::CancelDependents, Some(f));
                let err = run.result.as_ref().expect_err("one task panicked");
                prop_assert_eq!(failed_ids(err), [run.ids[f]]);
                let expect = descendants(&run.graph, run.ids[f]);
                prop_assert_eq!(
                    cancelled_ids(err), expect.clone(),
                    "cancelled = recorded dependents (threads={}, shards={})", threads, shards
                );
                for (i, &id) in run.ids.iter().enumerate() {
                    let should_run = i == f || !expect.contains(&id);
                    prop_assert_eq!(
                        run.ran[i], should_run,
                        "task {} ran-ness (threads={}, shards={})", i, threads, shards
                    );
                }

                // Isolate: same graph as the no-failure oracle, all ran.
                let oracle = run_program(&specs, threads, shards, OnPanic::Isolate, None);
                prop_assert!(oracle.result.is_ok());
                let iso = run_program(&specs, threads, shards, OnPanic::Isolate, Some(f));
                let err = iso.result.as_ref().expect_err("still reported");
                prop_assert_eq!(failed_ids(err), [iso.ids[f]]);
                prop_assert!(err.cancelled.is_empty());
                prop_assert!(iso.ran.iter().all(|&r| r), "Isolate runs every task");
                prop_assert_eq!(iso.graph.nodes(), oracle.graph.nodes());
                prop_assert_eq!(iso.graph.edges(), oracle.graph.edges());
            }
        }
    }
}
