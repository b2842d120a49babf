//! Tests pinning the §III scheduling policy: queue disciplines, lookup
//! order, locality, stealing.

use std::sync::atomic::Ordering;

use smpss::{task_def, Runtime};

#[allow(dead_code)]
#[path = "../../../tests/support/gate.rs"]
mod gate;

use gate::gate;

task_def! {
    fn bump(inout x: i64) { *x += 1; }
}

task_def! {
    /// `bump` with a 2 µs body, twice the inline threshold: tasks that
    /// must reach the ready lists, not run inline on the spawner.
    fn bump_slow(inout x: i64) {
        spin_2us();
        *x += 1;
    }
}

fn spin_2us() {
    let t0 = std::time::Instant::now();
    while t0.elapsed() < std::time::Duration::from_micros(2) {
        std::hint::spin_loop();
    }
}

/// With one thread, tasks born ready go to the main list and are consumed
/// in FIFO order; tasks released by a completion go to the (main thread's)
/// own list and are consumed LIFO. We pin the order via side effects.
#[test]
fn main_list_fifo_order() {
    let rt = Runtime::builder().threads(1).build();
    let log = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    // 8 independent tasks: all born ready -> main list, FIFO.
    for i in 0..8 {
        let mut sp = rt.task("probe");
        let h = rt.data(0u8);
        let _w = sp.write(&h);
        let log = log.clone();
        sp.submit(move || log.lock().push(i));
    }
    rt.barrier();
    assert_eq!(&*log.lock(), &[0, 1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(rt.stats().main_pops, 8);
}

/// Successors released by a completing task land on that thread's own list
/// and are popped LIFO — the pseudo-depth-first descent of §III.
#[test]
fn own_list_lifo_depth_first() {
    let rt = Runtime::builder().threads(1).build();
    let log = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let root = rt.data(0i64);
    bump(&rt, &root); // T1, born ready
                      // T2..T4 all depend on T1 only (they read root): when T1 finishes on
                      // the main thread, all three land on its own list; LIFO pop runs them
                      // in reverse spawn order.
    for i in 0..3 {
        let mut sp = rt.task("child");
        let mut r = sp.read(&root);
        let log = log.clone();
        sp.submit(move || {
            let _ = r.get();
            log.lock().push(i);
        });
    }
    rt.barrier();
    assert_eq!(&*log.lock(), &[2, 1, 0], "own list must be LIFO");
    let st = rt.stats();
    assert_eq!(st.own_pops, 3);
    assert_eq!(st.main_pops, 1);
}

/// High-priority tasks bypass both lists ("scheduled as soon as possible").
#[test]
fn high_priority_jumps_the_queue() {
    let rt = Runtime::builder().threads(1).build();
    let log = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    for i in 0..4 {
        let mut sp = rt.task("normal");
        if i == 3 {
            sp.high_priority();
        }
        let h = rt.data(0u8);
        let _w = sp.write(&h);
        let log = log.clone();
        sp.submit(move || log.lock().push(i));
    }
    rt.barrier();
    assert_eq!(
        log.lock()[0],
        3,
        "the high-priority task must run before earlier normal tasks"
    );
    assert_eq!(rt.stats().hp_pops, 1);
}

/// Work stealing: tasks parked in one thread's own list get stolen by idle
/// threads. We force the situation by having one completion release many
/// successors (they all go to the finishing thread's list) and verifying
/// every task still executes with several workers.
#[test]
fn stealing_spreads_a_fat_release() {
    let rt = Runtime::builder().threads(4).build();
    let root = rt.data(0i64);
    bump(&rt, &root);
    let sinks: Vec<_> = (0..64).map(|_| rt.data(0i64)).collect();
    for s in &sinks {
        let mut sp = rt.task("fan");
        let mut r = sp.read(&root);
        let mut w = sp.write(s);
        sp.submit(move || {
            let _ = r.get();
            // Enough work that thieves have time to engage.
            std::thread::sleep(std::time::Duration::from_micros(100));
            *w.get_mut() = 1;
        });
    }
    rt.barrier();
    for s in &sinks {
        assert_eq!(rt.read(s), 1);
    }
    assert_eq!(rt.stats().tasks_executed, 65);
}

/// The locality design: a linear chain stays on one thread (each
/// completion hands its successor to the finisher), so with many workers
/// every link is an own-list pop and none is stolen. A gate task holds
/// the chain's object until the whole chain is spawned, so every link is
/// pending when its predecessor finishes, whoever wins the spawn race.
#[test]
fn chains_exhibit_locality() {
    let rt = Runtime::builder().threads(4).build();
    let x = rt.data(0i64);
    let release = gate(&rt, &[&x]);
    let n = 400;
    for _ in 0..n {
        bump_slow(&rt, &x);
    }
    release.store(true, Ordering::Release);
    rt.barrier();
    let st = rt.stats();
    assert_eq!(rt.read(&x), n as i64);
    assert_eq!(
        (st.main_pops, st.own_pops, st.steals),
        (1, n, 0),
        "the gate comes off the main list, then the chain is consumed \
         depth-first from own lists"
    );
}

/// Two chains behind a gate compute the same values at one thread and
/// at three, and at both every link after the gate is consumed through
/// the own lists (the completion hand-off), not the main list: only the
/// gate is born ready, and at three threads one of its two successors
/// may be stolen.
#[test]
fn central_queue_vs_smpss_same_result() {
    for threads in [1, 3] {
        let rt = Runtime::builder().threads(threads).build();
        let x = rt.data(1i64);
        let y = rt.data(2i64);
        let release = gate(&rt, &[&x, &y]);
        for _ in 0..50 {
            bump_slow(&rt, &x);
            bump_slow(&rt, &y);
        }
        release.store(true, Ordering::Release);
        rt.barrier();
        assert_eq!((rt.read(&x), rt.read(&y)), (51, 52), "threads({threads})");
        let st = rt.stats();
        assert_eq!(st.main_pops, 1, "threads({threads}): only the gate");
        assert_eq!(st.own_pops + st.steals, 100, "threads({threads})");
        assert!(st.own_pops >= 99, "threads({threads}): {st:?}");
    }
}
