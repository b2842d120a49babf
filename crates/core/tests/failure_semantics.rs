//! Failure containment semantics (default build, no fault-inject
//! feature): a panicking task body is a contained event — the node is
//! stamped `Failed`, the completion protocol still runs in full, its
//! transitive dependents are cancelled while independent tasks run,
//! and [`Runtime::wait_all`] reports the exact failed + cancelled sets.

use proptest::prelude::*;
use smpss::{Runtime, TaskFailures, TaskId};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[macro_use]
#[path = "../../../tests/support/oracle.rs"]
mod oracle;

use oracle::{check, config, faulty_program, program, run, Front, Kind, Op};

/// A failing head over cell 0, `n` dependents chained on it (`inout`
/// cell 0), and `n` independent tasks on cell 1, run at two threads:
/// the shape of the cancellation tests below.
fn chain_behind_a_failure(n: usize) -> oracle::Outcome {
    let mut ops = vec![Op {
        panics: true,
        ..Op::from(Kind::Set { dst: 0, k: 1 })
    }];
    ops.extend((0..n).map(|_| Op::from(Kind::Mut { dst: 0 })));
    ops.extend((0..n).map(|_| Op::from(Kind::Mut { dst: 1 })));
    let out = run(&ops, Runtime::builder().threads(2), Front::Runtime);
    check(&ops, &out, true).unwrap();
    out
}

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

/// One panicking task among 16 independent ones: the panic is
/// contained, reported with its name and payload, and cancels nothing.
#[test]
fn panicked_task_is_contained_and_reported() {
    let mut ops = vec![Op {
        panics: true,
        ..Op::from(Kind::Set { dst: 0, k: 1 })
    }];
    ops.extend((0..16).map(|k| {
        Op::from(Kind::Set {
            dst: 1 + k % 5,
            k: k as i64,
        })
    }));
    let out = run(&ops, Runtime::builder().threads(2), Front::Runtime);
    check(&ops, &out, true).unwrap();
    let err = out.failures.expect_err("one task panicked");
    assert_eq!(failed_ids(&err), [TaskId(1)]);
    assert_eq!(err.failed[0].name, "set");
    assert_eq!(err.failed[0].payload_str(), Some(oracle::INJECTED));
    assert!(err.cancelled.is_empty(), "no task depended on the failure");
    assert_eq!((out.stats.panics, out.stats.cancelled), (1, 0));
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

/// A panic poisons the failed task's *transitive* dependents — they
/// are cancelled without running — while independent chains are
/// untouched.
#[test]
fn cancel_dependents_cancels_the_transitive_chain_only() {
    let out = chain_behind_a_failure(8);
    let err = out.failures.expect_err("the chain head panicked");
    assert_eq!(failed_ids(&err), [TaskId(1)]);
    assert_eq!(cancelled_ids(&err), (2..=9).map(TaskId).collect());
    assert_eq!((out.stats.panics, out.stats.cancelled), (1, 8));
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

/// There is no policy that lets dependents run: every dependent of the
/// failed head is cancelled without starting, and every independent
/// task runs once.
#[test]
fn isolate_policy_runs_dependents() {
    let out = chain_behind_a_failure(8);
    let err = out.failures.expect_err("the panic is still reported");
    assert_eq!(failed_ids(&err), [TaskId(1)]);
    assert_eq!(cancelled_ids(&err), (2..=9).map(TaskId).collect());
    let runs = &out.parts[0].runs;
    assert!(runs[1..=8].iter().all(|&r| r == 0), "no dependent started");
    assert!(runs[9..].iter().all(|&r| r == 1), "every independent ran");
}

/// There is no policy that stops unrelated work: at one thread the
/// failing head is the first main-list pop, so every other task is
/// still pending when it panics, and every one of them still runs.
#[test]
fn fail_fast_cancels_unrelated_pending_tasks() {
    let mut ops = vec![Op {
        panics: true,
        ..Op::from(Kind::Set { dst: 0, k: 1 })
    }];
    ops.extend((0..16).map(|k| {
        Op::from(Kind::Set {
            dst: 1 + k % 5,
            k: k as i64,
        })
    }));
    let out = run(&ops, Runtime::builder().threads(1), Front::Runtime);
    check(&ops, &out, true).unwrap();
    let err = out.failures.expect_err("the head panicked");
    assert_eq!(failed_ids(&err), [TaskId(1)]);
    assert!(err.cancelled.is_empty(), "no task depended on the head");
    assert!(out.parts[0].runs.iter().all(|&r| r == 1), "every task ran");
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

/// `Session::has_failures` is the producer-side view of the fault flag:
/// a single atomic load, observable from any session, reset by
/// `wait_all`.
#[test]
fn submitter_side_failure_flag() {
    quiet_worker_panics();
    let rt = Runtime::builder().threads(2).build();
    let sessions = [rt.session(), rt.session()];
    assert!(!sessions[0].has_failures());
    let x = rt.data(0i64);
    let mut sp = sessions[1].task("boom").expect("no quota configured");
    let _w = sp.write(&x);
    sp.submit(|| panic!("session failure"));
    rt.barrier();
    assert!(sessions[0].has_failures(), "visible from another session");
    let err = rt.wait_all().expect_err("reported");
    assert_eq!(err.failed.len(), 1);
    assert!(!sessions[0].has_failures(), "wait_all resets the flag");
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

/// And for a runtime with a live `Session` on the unwinding thread.
#[test]
fn submitter_drop_during_unwind_does_not_double_panic() {
    quiet_worker_panics();
    let unwound = std::panic::catch_unwind(|| {
        let rt = Runtime::builder().threads(2).build();
        let session = rt.session();
        let x = rt.data(0i64);
        let mut sp = session.task("pending").expect("no quota configured");
        let mut w = sp.write(&x);
        sp.submit(move || *w.get_mut() = 1);
        panic!("user code failed with a session live");
    });
    assert!(unwound.is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The whole oracle: random programs with region accesses, priority
    /// tasks and one panicking task in eight, under one drawn
    /// configuration each (threads, front door, renaming, memory limit).
    #[test]
    fn drawn_programs_fail_and_cancel_as_the_oracle_says(
        ops in faulty_program(1..60),
        cfg in config(),
    ) {
        let checked = check(&ops, &oracle::run_config(&ops, &cfg), cfg.renaming);
        prop_assert!(checked.is_ok(), "{:?}: {:?}", cfg, checked);
    }

    /// Inject one panic into a random task of a random program, under a
    /// drawn configuration: the report is exactly the failed task and
    /// the closure of its dependents in the program; every task runs,
    /// fails or is cancelled once, and every untainted value is the
    /// sequential program's.
    #[test]
    fn one_injected_panic_fails_exactly_the_dependent_closure(
        mut ops in program(2..40),
        fail_sel in 0usize..4096,
        cfg in config(),
    ) {
        let f = fail_sel % ops.len();
        ops[f].panics = true;
        let out = oracle::run_config(&ops, &cfg);
        let checked = check(&ops, &out, cfg.renaming);
        prop_assert!(checked.is_ok(), "{:?}: {:?}", cfg, checked);
    }
}
