//! Inline execution of cheap born-ready tasks: when a task name's
//! sampled body cost is under the 1 µs threshold, the spawner runs the
//! task itself inside `submit` instead of shipping it to a worker. These
//! tests pin that it changes where tasks run and nothing else: results,
//! failure sets and the scope of the rule.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smpss::{Handle, OnPanic, Runtime, TaskFailures, TaskId};

fn spin_for(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Inline runs since `before` (a `stats().inline_runs` reading).
fn inline_since(rt: &Runtime, before: u64) -> u64 {
    rt.stats().inline_runs - before
}

// ---- the task_flood shape against its sequential replay -------------

#[derive(Clone, Copy)]
enum Op {
    Bump(usize),
    Fold(usize, usize),
    Store(usize, usize),
}

fn flood_ops(tasks: usize, handles: usize) -> Vec<Op> {
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    let mut next = |m: usize| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % m as u64) as usize
    };
    (0..tasks)
        .map(|_| {
            let a = next(handles);
            let b = (a + 1 + next(handles - 1)) % handles;
            match next(10) {
                0..=2 => Op::Bump(a),
                3..=7 => Op::Fold(a, b),
                _ => Op::Store(a, b),
            }
        })
        .collect()
}

fn bump(a: &mut u64, k: u64) {
    *a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
}

fn fold(a: u64, b: &mut u64, k: u64) {
    *b = (*b ^ a).rotate_left(7).wrapping_add(k);
}

fn store(a: u64, b: &mut u64, k: u64) {
    *b = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k;
}

fn replay(ops: &[Op], v: &mut [u64]) {
    for (k, op) in ops.iter().enumerate() {
        let k = k as u64;
        match *op {
            Op::Bump(a) => bump(&mut v[a], k),
            Op::Fold(a, b) => {
                let av = v[a];
                fold(av, &mut v[b], k)
            }
            Op::Store(a, b) => {
                let av = v[a];
                store(av, &mut v[b], k)
            }
        }
    }
}

fn spawn_flood(rt: &Runtime, ops: &[Op], hs: &[Handle<u64>]) {
    for (k, op) in ops.iter().enumerate() {
        let k = k as u64;
        match *op {
            Op::Bump(a) => {
                let mut sp = rt.task("flood_bump");
                let mut w = sp.inout(&hs[a]);
                sp.submit(move || bump(w.get_mut(), k));
            }
            Op::Fold(a, b) => {
                let mut sp = rt.task("flood_fold");
                let mut r = sp.read(&hs[a]);
                let mut w = sp.inout(&hs[b]);
                sp.submit(move || fold(*r.get(), w.get_mut(), k));
            }
            Op::Store(a, b) => {
                let mut sp = rt.task("flood_store");
                let mut r = sp.read(&hs[a]);
                let mut w = sp.write(&hs[b]);
                sp.submit(move || store(*r.get(), w.get_mut(), k));
            }
        }
    }
}

/// Tiny bodies over many objects at `threads(2)`: after one warm-up
/// repetition has measured the three sites, the spawner runs nearly
/// every task itself, and every repetition still ends where the plain
/// sequential program does. One preempted timing sample evicts a site
/// until the spawner has timed it again, and the tasks it sends to the
/// worker leave the tasks behind them not born ready, so one
/// repetition's share depends on the host. No outlier strikes every
/// repetition, though: at least one of up to `MAX_REPS` measured
/// repetitions runs 95 % of its tasks inline.
#[test]
fn flood_inlines_and_matches_the_sequential_replay() {
    const TASKS: usize = 20_000;
    const HANDLES: usize = 512;
    const MAX_REPS: usize = 8;
    let ops = flood_ops(TASKS, HANDLES);
    let init: Vec<u64> = (0..HANDLES as u64)
        .map(|i| i.wrapping_mul(0x1F1F_1F1F))
        .collect();
    let mut oracle = init.clone();
    replay(&ops, &mut oracle);

    let rt = Runtime::builder().threads(2).build();
    let hs: Vec<_> = init.iter().map(|&v| rt.data(v)).collect();
    let mut best = 0;
    for rep in 0..=MAX_REPS {
        for (h, &v) in hs.iter().zip(&init) {
            rt.update(h, |x| *x = v);
        }
        let before = rt.stats().inline_runs;
        spawn_flood(&rt, &ops, &hs);
        rt.barrier();
        let got: Vec<u64> = hs.iter().map(|h| rt.read(h)).collect();
        assert!(got == oracle, "repetition {rep} diverged from the replay");
        if rep > 0 {
            best = best.max(inline_since(&rt, before));
            if rep >= 2 && best as f64 >= 0.95 * TASKS as f64 {
                break;
            }
        }
    }
    assert!(
        best as f64 >= 0.95 * TASKS as f64,
        "at best {best} of {TASKS} tasks ran inline in {MAX_REPS} repetitions"
    );
    let st = rt.stats();
    assert!(
        st.inline_runs <= st.own_pops,
        "inline runs are own-list pops"
    );
    assert_eq!(st.total_pops(), st.tasks_executed);
}

// ---- what the estimate lets in ---------------------------------------

/// A 20 µs site is measured, never cheap: none of its tasks runs inline.
#[test]
fn a_dear_site_is_never_inlined() {
    let rt = Runtime::builder().threads(2).build();
    for _ in 0..200 {
        rt.task("dear")
            .submit(|| spin_for(Duration::from_micros(20)));
    }
    rt.barrier();
    assert_eq!(rt.stats().inline_runs, 0);
}

/// A site whose body turns from 50 ns to 50 µs leaves the inline path
/// within 32 runs: inline runs are sampled too.
#[test]
fn a_site_that_turns_dear_stops_inlining() {
    let rt = Runtime::builder().threads(2).build();
    let body_ns = Arc::new(AtomicU64::new(50));
    let submit = |rt: &Runtime| {
        let body_ns = Arc::clone(&body_ns);
        rt.task("shifty")
            .submit(move || spin_for(Duration::from_nanos(body_ns.load(Ordering::Relaxed))));
    };
    // Cheap until a worker has measured it and the spawner inlines it.
    let t0 = Instant::now();
    while rt.stats().inline_runs < 64 {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "a 50 ns site never inlined"
        );
        submit(&rt);
    }
    rt.barrier();
    body_ns.store(50_000, Ordering::Relaxed);
    let before = rt.stats().inline_runs;
    for _ in 0..200 {
        submit(&rt);
    }
    rt.barrier();
    let after_jump = inline_since(&rt, before);
    assert!(after_jump <= 32, "{after_jump} inline runs after the jump");
}

/// The rule's scope: high-priority tasks, runtimes that have opened a
/// session, and single-thread runtimes never inline, however cheap the
/// site. A session quota alone does not take a runtime out of scope:
/// with no session opened it inlines like the default. Each storm runs twice, so the site is measured
/// before the second (one body in 16 is timed on every thread).
#[test]
fn out_of_scope_runtimes_and_tasks_never_inline() {
    const N: usize = 500;
    let cheap_storm = |rt: &Runtime, high: bool| {
        for _ in 0..2 {
            for _ in 0..N {
                let mut sp = rt.task("cheap");
                if high {
                    sp.high_priority();
                }
                sp.submit(|| {
                    std::hint::black_box(1u64);
                });
            }
            rt.barrier();
        }
    };
    let rt = Runtime::builder().threads(2).build();
    cheap_storm(&rt, false);
    assert!(
        rt.stats().inline_runs > 0,
        "control: the same storm in scope inlines"
    );
    let rt = Runtime::builder()
        .threads(2)
        .session_max_in_flight(8)
        .build();
    cheap_storm(&rt, false);
    assert!(
        rt.stats().inline_runs > 0,
        "control: a session quota with no session opened inlines"
    );
    let rt = Runtime::builder().threads(2).build();
    cheap_storm(&rt, true);
    assert_eq!(rt.stats().inline_runs, 0, "high priority");
    let sessions = Runtime::builder().threads(2).build();
    drop(sessions.session());
    for (what, rt) in [
        ("a session opened", sessions),
        ("threads(1)", Runtime::builder().threads(1).build()),
    ] {
        cheap_storm(&rt, false);
        assert_eq!(rt.stats().inline_runs, 0, "{what}");
    }
    let rt = Runtime::builder().threads(2).build();
    let session = rt.session();
    for _ in 0..N {
        session.task("cheap").expect("no quota set").submit(|| {
            std::hint::black_box(1u64);
        });
    }
    session.wait().expect("nothing fails");
    assert_eq!(rt.stats().inline_runs, 0, "session tasks");
}

// ---- failure containment on the inline path ---------------------------

/// An inline panic on the test thread is the subject here: keep it out
/// of the test output.
fn quiet_inline_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&"inline boom") {
                prev(info);
            }
        }));
    });
}

fn ids(e: &TaskFailures) -> (BTreeSet<TaskId>, BTreeSet<TaskId>) {
    (
        e.failed.iter().map(|f| f.id).collect(),
        e.cancelled.iter().map(|c| c.id).collect(),
    )
}

/// One task that panics while running inline, one dependent and one
/// independent task spawned after it: each policy reports exactly the
/// failed and cancelled sets a worker-run panic would.
#[test]
fn an_inline_panic_gives_the_exact_failure_sets() {
    quiet_inline_panics();
    for policy in [
        OnPanic::CancelDependents,
        OnPanic::FailFast,
        OnPanic::Isolate,
    ] {
        let rt = Runtime::builder().threads(2).on_panic(policy).build();
        let cell = |rt: &Runtime, out: &Handle<u64>, input: Option<&Handle<u64>>, fail: bool| {
            let mut sp = rt.task("cell");
            let id = sp.id();
            let mut r = input.map(|h| sp.read(h));
            let mut w = sp.inout(out);
            sp.submit(move || {
                if fail {
                    panic!("inline boom");
                }
                *w.get_mut() += 1 + r.as_mut().map_or(0, |r| *r.get());
            });
            id
        };
        // Warm the site until the spawner inlines it.
        let warm: Vec<_> = (0..64).map(|_| rt.data(0u64)).collect();
        let t0 = Instant::now();
        while rt.stats().inline_runs == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "the site never inlined"
            );
            for h in &warm {
                cell(&rt, h, None, false);
            }
            rt.barrier();
        }
        let (x, y, z) = (rt.data(0u64), rt.data(0u64), rt.data(0u64));
        let before = rt.stats().inline_runs;
        let bad = cell(&rt, &x, None, true);
        assert_eq!(
            inline_since(&rt, before),
            1,
            "{policy:?}: the panic ran inline"
        );
        let dependent = cell(&rt, &y, Some(&x), false);
        let independent = cell(&rt, &z, None, false);
        let err = rt.wait_all().expect_err("one task panicked");
        assert_eq!(err.failed[0].payload_str(), Some("inline boom"));
        let (failed, cancelled) = ids(&err);
        let expect: BTreeSet<TaskId> = match policy {
            OnPanic::CancelDependents => [dependent].into(),
            OnPanic::FailFast => [dependent, independent].into(),
            OnPanic::Isolate => BTreeSet::new(),
        };
        assert_eq!(failed, [bad].into(), "{policy:?}");
        assert_eq!(cancelled, expect, "{policy:?}");
        let ran = |h: &Handle<u64>| rt.read(h) == 1;
        assert!(!ran(&x), "{policy:?}: the failed body wrote nothing");
        assert_eq!(ran(&y), policy == OnPanic::Isolate, "{policy:?}: dependent");
        assert_eq!(
            ran(&z),
            policy != OnPanic::FailFast,
            "{policy:?}: independent"
        );
        assert!(rt.wait_all().is_ok(), "{policy:?}: drained");
    }
}
