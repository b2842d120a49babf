//! Integration tests for the deterministic fault-injection harness
//! (`--features fault-inject`): a seeded [`FaultPlan`] drives body
//! panics, forced throttle stalls, spurious wakes and stalls inside the
//! wake protocol through the named sites in the scheduler, and the
//! failed set is exactly predictable from the plan alone.

#![cfg(feature = "fault-inject")]

use smpss::{FaultPlan, Runtime};
use std::collections::BTreeSet;

/// The plan is process-global: serialise the tests that install one and
/// clear it even if the test body panics.
static PLAN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct Installed<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

impl<'a> Installed<'a> {
    fn new(plan: FaultPlan) -> Self {
        let guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        plan.install();
        Installed(guard)
    }
}

impl Drop for Installed<'_> {
    fn drop(&mut self) {
        FaultPlan::clear();
    }
}

/// See `failure_semantics.rs`: injected worker panics are the point,
/// not noise-worthy.
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

/// Run `n` independent tasks and return the set of task ids `wait_all`
/// reports as failed.
fn failed_set(n: u64, threads: usize) -> BTreeSet<u64> {
    let rt = Runtime::builder().threads(threads).build();
    let handles: Vec<_> = (0..n).map(|_| rt.data(0i64)).collect();
    for h in &handles {
        let mut sp = rt.task("probe");
        let mut w = sp.write(h);
        sp.submit(move || *w.get_mut() = 1);
    }
    match rt.wait_all() {
        Ok(()) => BTreeSet::new(),
        Err(e) => e.failed.iter().map(|f| f.id.0).collect(),
    }
}

#[test]
fn planned_panics_hit_exactly_the_predicted_tasks() {
    quiet_worker_panics();
    let plan = FaultPlan::seeded(42).panic_one_in(5);
    // The failed set is computable on the host before anything runs:
    // task ids are 1-based spawn order.
    let expect: BTreeSet<u64> = (1..=64u64).filter(|&i| plan.hits_body(i)).collect();
    assert!(!expect.is_empty() && expect.len() < 64, "seed sanity");

    let _installed = Installed::new(plan.clone());
    assert_eq!(failed_set(64, 2), expect);
    // Determinism: a fresh runtime under the same plan fails the same set.
    assert_eq!(failed_set(64, 1), expect);
}

#[test]
fn explicit_task_list_panics_those_tasks_only() {
    quiet_worker_panics();
    let _installed = Installed::new(FaultPlan::seeded(0).panic_tasks([3, 7, 9]));
    assert_eq!(failed_set(16, 2), [3, 7, 9].into_iter().collect());
}

#[test]
fn forced_throttle_stalls_engage_the_throttle_path() {
    let _installed = Installed::new(FaultPlan::seeded(1).throttle_stalls(3));
    let rt = Runtime::builder().threads(1).build();
    let x = rt.data(0i64);
    for _ in 0..10 {
        let mut sp = rt.task("inc");
        let mut w = sp.inout(&x);
        sp.submit(move || *w.get_mut() += 1);
    }
    rt.barrier();
    assert_eq!(rt.read(&x), 10, "forced stalls never lose work");
    assert!(
        rt.stats().throttle_blocks >= 3,
        "the first 3 spawns were forced through the stall path, got {}",
        rt.stats().throttle_blocks
    );
}

/// A planned spurious wake returns from the park as if woken, with no
/// notify: the thread re-scans and parks again. Idle gaps between the
/// rounds make the workers park, so the planned wakes really fire, and
/// the results stay intact.
#[test]
fn spurious_wakes_do_not_perturb_results() {
    let _installed = Installed::new(FaultPlan::seeded(2).spurious_wake_one_in(2));
    let rt = Runtime::builder().threads(2).build();
    let x = rt.data(0i64);
    for _ in 0..10 {
        for _ in 0..10 {
            let mut sp = rt.task("inc");
            let mut w = sp.inout(&x);
            sp.submit(move || {
                std::thread::sleep(std::time::Duration::from_micros(20));
                *w.get_mut() += 1;
            });
        }
        rt.barrier();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert_eq!(
        rt.read(&x),
        100,
        "every spurious wake became a rescan, work intact"
    );
    assert!(
        smpss::fault::park_calls() >= 2,
        "the idle gaps parked a thread at least twice, so a planned wake fired"
    );
}

/// Fails the process if `body` does not return within 30 s: a lost
/// wakeup is a hang, and no park timeout will rescue it.
fn within_30s(what: &'static str, body: impl FnOnce()) {
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let done = Arc::new(AtomicBool::new(false));
    let watchdog = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            while !done.load(Ordering::Acquire) {
                if t0.elapsed() > std::time::Duration::from_secs(30) {
                    // Written past the test harness's output capture,
                    // which `exit` would discard.
                    let _ = writeln!(
                        std::io::stderr(),
                        "liveness watchdog: {what} hung for 30 s (lost wakeup)"
                    );
                    std::process::exit(101);
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
    };
    body();
    done.store(true, Ordering::Release);
    watchdog.join().unwrap();
}

/// A runtime whose workers have spun out their window and parked.
fn parked_runtime(builder: smpss::RuntimeBuilder) -> Runtime {
    let rt = builder.build();
    std::thread::sleep(std::time::Duration::from_millis(5));
    rt
}

/// Liveness with no timeout to hide behind: every sleeper is held
/// ~200 µs between its announcement and its re-scan, and every
/// publisher between its push and its sleeper probe, one time in
/// eight, across the shapes that exercise each publication point. The
/// session shapes run on parked workers and wait without helping, so
/// a publication that skipped its sleeper probe would hang them.
#[test]
fn wake_stalls_never_lose_a_wakeup() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let _installed = Installed::new(FaultPlan::seeded(6).wake_stall_one_in(8));

    within_30s("10 000-link inout chain", || {
        let rt = parked_runtime(Runtime::builder().threads(3));
        let x = rt.data(0u64);
        for _ in 0..10_000 {
            let mut sp = rt.task("link");
            let mut w = sp.inout(&x);
            sp.submit(move || *w.get_mut() += 1);
        }
        rt.barrier();
        assert_eq!(rt.read(&x), 10_000);
    });

    within_30s("50 000-task session fan-out flood", || {
        let rt = parked_runtime(Runtime::builder().threads(3));
        let s = rt.session();
        let ran = Arc::new(AtomicU64::new(0));
        for _ in 0..50_000 {
            let ran = Arc::clone(&ran);
            s.task("leaf").expect("no quota").submit(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        s.wait().expect("no body panics");
        assert_eq!(ran.load(Ordering::Relaxed), 50_000);
    });

    // Each round's one task runs on a worker before the barrier starts
    // and outlasts the spin window, so the barrier parks and only the
    // all-done wake ends it.
    within_30s("1 000 back-to-back barriers", || {
        let rt = Runtime::builder().threads(3).build();
        let x = rt.data(0u64);
        for _ in 0..1_000 {
            let started = Arc::new(AtomicBool::new(false));
            let mut sp = rt.task("step");
            let mut w = sp.inout(&x);
            let st = Arc::clone(&started);
            sp.submit(move || {
                st.store(true, Ordering::Release);
                let t0 = std::time::Instant::now();
                while t0.elapsed() < std::time::Duration::from_micros(300) {
                    std::hint::spin_loop();
                }
                *w.get_mut() += 1;
            });
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            rt.barrier();
        }
        assert_eq!(rt.read(&x), 1_000);
    });

    // The session batch-claim shape: one tenant's blocker and eight
    // tenants' born-ready tasks on the main list; whichever worker
    // claims the batch blocks, and the other must run the rest.
    within_30s("batch-claimed tasks beside a blocking neighbour", || {
        let rt = parked_runtime(Runtime::builder().threads(3));
        let hog = rt.session();
        let tenants: Vec<_> = (0..8).map(|_| rt.session()).collect();
        let release = Arc::new(AtomicBool::new(false));
        {
            let release = Arc::clone(&release);
            hog.task("blocker").expect("no quota").submit(move || {
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        }
        let ran = Arc::new(AtomicU64::new(0));
        for s in &tenants {
            let ran = Arc::clone(&ran);
            s.task("polite").expect("no quota").submit(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        for s in &tenants {
            s.wait().expect("tenant work never fails");
        }
        assert_eq!(ran.load(Ordering::Relaxed), 8);
        release.store(true, Ordering::Release);
        hog.wait().expect("the blocker completes once released");
    });
}

/// An idle runtime goes quiet: each worker spins out one window, parks
/// once, and stays parked — no timer wakes it to re-scan.
#[test]
fn idle_runtime_parks_each_worker_once() {
    let _installed = Installed::new(FaultPlan::seeded(7));
    let rt = Runtime::builder().threads(4).build();
    std::thread::sleep(std::time::Duration::from_millis(200));
    let parks = smpss::fault::park_calls();
    assert!(
        parks <= 3,
        "three idle workers parked {parks} times in 200 ms (at most one each)"
    );
    drop(rt);
}

/// The all-done wake releases the barrier's slot only. Each round
/// hands one task that outlasts the spin window to a worker of an idle
/// pool and waits for it in a barrier, so the main thread parks and the
/// last completion wakes it; the two workers that ran nothing stay
/// parked. A wake of every sleeper would have each of them re-scan and
/// park again, once per round (4 parks a round instead of 2).
#[test]
fn barrier_wake_leaves_idle_workers_parked() {
    const ROUNDS: u64 = 40;
    let _installed = Installed::new(FaultPlan::seeded(8));
    let rt = Runtime::builder().threads(4).build();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let before = smpss::fault::park_calls();
    for _ in 0..ROUNDS {
        rt.task("slow")
            .submit(|| std::thread::sleep(std::time::Duration::from_millis(1)));
        // Let a worker take the task before the barrier could help.
        std::thread::sleep(std::time::Duration::from_micros(200));
        rt.barrier();
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let parks = smpss::fault::park_calls() - before;
    // Per round: the main thread parks in the barrier, and the worker
    // that ran the task parks after it. Waking the two idle workers
    // too would add two parks a round.
    assert!(
        parks <= ROUNDS * 5 / 2,
        "{parks} parks in {ROUNDS} rounds: the barrier's wake reached idle workers"
    );
    drop(rt);
}

/// Session site: forced admission stalls. The planned hits read as
/// over-quota probes, so the first submission takes the Block wait path
/// (counted once) and then admits — no work is lost, no quota needed.
#[test]
fn forced_admission_stalls_engage_the_wait_path() {
    let _installed = Installed::new(FaultPlan::seeded(3).admission_stalls(3));
    let rt = Runtime::builder().threads(2).build();
    let s = rt.session();
    let x = rt.data(0i64);
    for _ in 0..10 {
        let mut sp = s.task("inc").expect("Block admits after the stall");
        let mut w = sp.inout(&x);
        sp.submit(move || *w.get_mut() += 1);
    }
    s.wait().expect("forced stalls never lose work");
    assert_eq!(rt.read(&x), 10);
    assert!(
        rt.stats().admission_waits >= 1,
        "the stalled submission must be counted, got {}",
        rt.stats().admission_waits
    );
}

/// Session site: forced sheds under load. Under the `Shed` policy the
/// planned hits become immediate `Overloaded` refusals — exactly the
/// planned number, before any analysis, so the admitted work is intact.
#[test]
fn forced_sheds_refuse_exactly_the_planned_submissions() {
    let _installed = Installed::new(FaultPlan::seeded(4).forced_sheds(2));
    let rt = Runtime::builder()
        .threads(2)
        .admission(smpss::AdmissionPolicy::Shed)
        .build();
    let s = rt.session();
    let x = rt.data(0i64);
    let mut shed = 0u32;
    for _ in 0..10 {
        match s.task("inc") {
            Ok(mut sp) => {
                let mut w = sp.inout(&x);
                sp.submit(move || *w.get_mut() += 1);
            }
            Err(e) => {
                assert_eq!(e.session, s.id());
                shed += 1;
            }
        }
    }
    assert_eq!(shed, 2, "exactly the planned submissions shed");
    assert_eq!(rt.stats().admission_sheds, 2);
    s.wait().expect("admitted work is unaffected");
    assert_eq!(rt.read(&x), 8);
}

/// Session site: a deadline-fire race. The session's deadline is armed
/// far in the future but the plan fires it at the first worker-side
/// probe — every not-yet-started task of that session cancels (exact
/// set reported by its `wait`), while another session's work survives.
#[test]
fn forced_deadline_fire_cancels_exactly_the_armed_session() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let _installed = Installed::new(FaultPlan::seeded(5).deadline_fires(1));
    let rt = Runtime::builder().threads(2).build();
    let s = rt.session();
    let other = rt.session();
    let gate = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    let h = rt.data(0i64);
    {
        let g = Arc::clone(&gate);
        let st = Arc::clone(&started);
        let mut sp = s.task("blocker").expect("no quota");
        let mut w = sp.write(&h);
        sp.submit(move || {
            *w.get_mut() = 1;
            st.store(true, Ordering::Release);
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
    }
    let outs: Vec<_> = (0..3).map(|_| rt.data(0i64)).collect();
    let mut pending = std::collections::BTreeSet::new();
    for o in &outs {
        let mut sp = s.task("dependent").expect("no quota");
        pending.insert(sp.id().0);
        let mut r = sp.read(&h);
        let mut w = sp.write(o);
        sp.submit(move || *w.get_mut() = *r.get() + 10);
    }
    // Arm only once the blocker is *executing* (it can no longer be
    // skipped) and *after* submitting, so admission never observes the
    // fire — only the worker-side probe of a pending dependent can
    // consume it.
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let s = s.with_deadline(std::time::Duration::from_secs(3600));
    let y = rt.data(0i64);
    {
        let mut sp = other.task("survivor").expect("other tenant");
        let mut w = sp.write(&y);
        sp.submit(move || *w.get_mut() = 7);
    }
    gate.store(true, Ordering::Release);
    let err = s
        .wait()
        .expect_err("the fired deadline cancelled the dependents");
    let cancelled: std::collections::BTreeSet<u64> = err.cancelled.iter().map(|c| c.id.0).collect();
    assert_eq!(cancelled, pending, "exactly the pending set cancelled");
    assert!(err.failed.is_empty(), "nothing panicked");
    assert_eq!(rt.stats().deadline_fires, 1);
    other.wait().expect("the other session is untouched");
    assert_eq!(rt.read(&y), 7);
    assert_eq!(rt.read(&h), 1, "the running blocker completed normally");
    for o in &outs {
        assert_eq!(rt.read(o), 0, "cancelled dependents never wrote");
    }
}

#[test]
fn cleared_plan_injects_nothing() {
    quiet_worker_panics();
    {
        let _installed = Installed::new(FaultPlan::seeded(42).panic_one_in(2));
        // Dropped immediately: plan cleared.
    }
    let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(failed_set(32, 2).is_empty());
}
