//! Black-box tests of the runtime's programming-model semantics:
//! dependency ordering, renaming, priorities, barriers, throttling.

use smpss::{task_def, Runtime};

task_def! {
    fn set_t(output x: i64, val v: i64) { *x = v; }
}

task_def! {
    fn add_t(input a: i64, input b: i64, output c: i64) { *c = *a + *b; }
}

task_def! {
    fn acc_t(input a: i64, inout c: i64) { *c += *a; }
}

task_def! {
    fn copy_t(input a: i64, output b: i64) { *b = *a; }
}

task_def! {
    fn slow_inc(inout x: i64) {
        std::thread::sleep(std::time::Duration::from_micros(200));
        *x += 1;
    }
}

#[test]
fn sequential_semantics_one_thread() {
    let rt = Runtime::builder().threads(1).build();
    let x = rt.data(0i64);
    set_t(&rt, &x, 5);
    let y = rt.data(0i64);
    add_t(&rt, &x, &x, &y);
    acc_t(&rt, &x, &y);
    rt.barrier();
    assert_eq!(rt.read(&y), 15);
}

#[test]
fn true_dependency_chain_many_threads() {
    let rt = Runtime::builder().threads(4).build();
    let x = rt.data(0i64);
    for _ in 0..500 {
        slow_incless(&rt, &x);
    }
    rt.barrier();
    assert_eq!(rt.read(&x), 500);
}

task_def! {
    fn slow_incless(inout x: i64) { *x += 1; }
}

#[test]
fn independent_tasks_all_run() {
    let rt = Runtime::builder().threads(4).build();
    let handles: Vec<_> = (0..64).map(|_| rt.data(0i64)).collect();
    for (i, h) in handles.iter().enumerate() {
        set_t(&rt, h, i as i64);
    }
    rt.barrier();
    for (i, h) in handles.iter().enumerate() {
        assert_eq!(rt.read(h), i as i64);
    }
    assert_eq!(rt.stats().tasks_executed, 64);
}

/// The renaming scenario of §II: a task overwrites data that pending
/// readers still need. With renaming, readers keep the old version.
#[test]
fn renaming_preserves_reader_values() {
    let rt = Runtime::builder().threads(2).build();
    let src = rt.data(1i64);
    let sinks: Vec<_> = (0..32).map(|_| rt.data(0i64)).collect();
    // Phase 1: many readers of src's value 1.
    for s in &sinks {
        copy_t(&rt, &src, s);
    }
    // Overwrite src immediately: renaming must give writers a fresh
    // version, so the copies above still observe 1.
    set_t(&rt, &src, 99);
    for s in &sinks {
        acc_t(&rt, &src, s); // now reads 99
    }
    rt.barrier();
    for s in &sinks {
        assert_eq!(rt.read(s), 100, "1 (old version) + 99 (new version)");
    }
    let st = rt.stats();
    assert_eq!(st.anti_edges, 0, "renaming leaves only true dependencies");
}

/// Same program with renaming disabled must still be correct (the writer
/// gets anti-dependency edges instead of a fresh version).
#[test]
fn no_renaming_is_correct_but_adds_hazard_edges() {
    let rt = Runtime::builder().threads(2).renaming(false).build();
    let src = rt.data(1i64);
    let sinks: Vec<_> = (0..8).map(|_| rt.data(0i64)).collect();
    for s in &sinks {
        copy_t(&rt, &src, s);
    }
    set_t(&rt, &src, 99);
    for s in &sinks {
        acc_t(&rt, &src, s);
    }
    rt.barrier();
    for s in &sinks {
        assert_eq!(rt.read(s), 100);
    }
    let st = rt.stats();
    assert!(
        st.anti_edges >= 8,
        "anti edges from 8 readers expected, got {}",
        st.anti_edges
    );
    assert_eq!(st.renames, 0);
}

#[test]
fn renaming_counts_renames_and_copy_ins() {
    let rt = Runtime::builder().threads(2).build();
    let src = rt.data(7i64);
    let sink = rt.data(0i64);
    // Keep a reader pending on the old version, then write in-out: the
    // writer must rename + copy-in.
    copy_t(&rt, &src, &sink);
    slow_incless(&rt, &src);
    rt.barrier();
    assert_eq!(rt.read(&src), 8);
    assert_eq!(rt.read(&sink), 7);
    let st = rt.stats();
    // Rename may or may not trigger depending on whether the reader
    // finished before the inout was analysed — but the sum of both legal
    // outcomes must preserve values (asserted above). With one thread
    // helping only at the barrier, the reader is typically still pending.
    assert!(st.renames <= 1 && st.copy_ins == st.renames);
}

#[test]
fn output_only_never_creates_edges() {
    let rt = Runtime::builder().threads(2).record_graph(true).build();
    let x = rt.data(0i64);
    for i in 0..10 {
        set_t(&rt, &x, i); // WAW chain: renaming kills all of it
    }
    rt.barrier();
    let g = rt.graph().unwrap();
    assert_eq!(g.node_count(), 10);
    assert_eq!(g.edge_count(), 0, "output-output chains carry no edges");
    // Sequential semantics: last writer wins even though unordered writes
    // hit distinct versions — the *current* version is the last spawned.
    assert_eq!(rt.read(&x), 9);
}

#[test]
fn graph_record_matches_program_structure() {
    let rt = Runtime::builder().threads(1).record_graph(true).build();
    let a = rt.data(1i64);
    let b = rt.data(2i64);
    let c = rt.data(0i64);
    add_t(&rt, &a, &b, &c); // T1
    acc_t(&rt, &a, &c); // T2: true dep on T1 (c), none on a
    acc_t(&rt, &c, &c); // T3: reads+writes c -> dep on T2 only (no self edge)
    rt.barrier();
    let g = rt.graph().unwrap();
    g.validate().unwrap();
    assert_eq!(g.node_count(), 3);
    use smpss::TaskId;
    assert_eq!(g.predecessors(TaskId(2)), [TaskId(1)].into_iter().collect());
    assert_eq!(g.predecessors(TaskId(3)), [TaskId(2)].into_iter().collect());
    assert_eq!(rt.read(&c), 1 + 2 + 1 + 4);
}

#[test]
fn barrier_is_reusable_and_counts() {
    let rt = Runtime::builder().threads(2).build();
    let x = rt.data(0i64);
    for round in 1..=3 {
        slow_incless(&rt, &x);
        rt.barrier();
        assert_eq!(rt.read(&x), round);
    }
    assert!(rt.stats().barriers >= 3);
}

#[test]
fn graph_size_limit_blocks_spawner() {
    let rt = Runtime::builder().threads(1).graph_size_limit(4).build();
    let x = rt.data(0i64);
    for _ in 0..100 {
        slow_incless(&rt, &x);
        assert!(
            rt.live_tasks() <= 5,
            "spawner must throttle at the graph-size limit"
        );
    }
    rt.barrier();
    assert_eq!(rt.read(&x), 100);
    assert!(rt.stats().throttle_blocks > 0);
}

#[test]
fn wait_on_specific_handle() {
    let rt = Runtime::builder().threads(2).build();
    let x = rt.data(0i64);
    let y = rt.data(0i64);
    slow_inc(&rt, &x);
    slow_inc(&rt, &y);
    rt.wait_on(&x);
    assert_eq!(rt.read(&x), 1);
    rt.barrier();
    assert_eq!(rt.read(&y), 1);
}

#[test]
fn update_from_main_thread() {
    let rt = Runtime::builder().threads(2).build();
    let x = rt.data(1i64);
    slow_incless(&rt, &x);
    rt.update(&x, |v| *v *= 10);
    slow_incless(&rt, &x);
    rt.barrier();
    assert_eq!(rt.read(&x), 21);
}

#[test]
fn high_priority_tasks_use_hp_list() {
    let rt = Runtime::builder().threads(1).build();
    let normal = rt.data(0i64);
    let urgent = rt.data(0i64);
    // Spawn normals first, then a high-priority task; with one thread all
    // run at the barrier, and the hp task must be popped from the hp list.
    for _ in 0..5 {
        slow_incless(&rt, &normal);
    }
    let mut sp = rt.task("urgent");
    sp.high_priority();
    let mut w = sp.write(&urgent);
    sp.submit(move || *w.get_mut() = 1);
    rt.barrier();
    let st = rt.stats();
    assert_eq!(st.hp_pops, 1);
    assert_eq!(rt.read(&urgent), 1);
}

#[test]
fn stats_pops_account_for_all_tasks() {
    let rt = Runtime::builder().threads(3).build();
    let x = rt.data(0i64);
    for _ in 0..200 {
        slow_incless(&rt, &x);
    }
    rt.barrier();
    let st = rt.stats();
    assert_eq!(st.tasks_executed, 200);
    assert_eq!(st.total_pops(), 200);
}

#[test]
fn tracing_runtime_captures_events() {
    let rt = Runtime::builder().threads(2).tracing(true).build();
    let x = rt.data(0i64);
    for _ in 0..10 {
        slow_inc(&rt, &x);
    }
    rt.barrier();
    let trace = rt.take_trace().unwrap();
    let spawns = trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, smpss::EventKind::Spawn(_)))
        .count();
    assert_eq!(spawns, 10);
    let total_runs: usize = trace.summaries().iter().map(|s| s.tasks_run).sum();
    assert_eq!(total_runs, 10);
    assert!(trace.to_paraver().lines().count() > 10);
}

/// A 300-link chain computes the same value at one thread and at four,
/// with the main thread free or throttled by the §III graph-size limit
/// into helping, and at four threads the chain is consumed from the own
/// lists (its links are released, never born ready, after the first).
#[test]
fn central_queue_policy_still_correct() {
    for threads in [1, 4] {
        for limit in [None, Some(8)] {
            let mut b = Runtime::builder().threads(threads);
            if let Some(l) = limit {
                b = b.graph_size_limit(l);
            }
            let rt = b.build();
            let x = rt.data(0i64);
            for _ in 0..300 {
                slow_incless(&rt, &x);
            }
            rt.barrier();
            assert_eq!(rt.read(&x), 300, "threads {threads} limit {limit:?}");
            let st = rt.stats();
            assert_eq!(st.total_pops(), 300, "threads {threads} limit {limit:?}");
            assert_eq!(st.hp_pops, 0);
        }
    }
}

#[test]
fn representants_order_opaque_data() {
    use smpss::Opaque;
    // Figure 9/10 pattern: the real data is opaque; representants carry
    // the dependencies.
    let rt = Runtime::builder().threads(4).build();
    let flat = Opaque::new(vec![0i64; 8]);
    let reps: Vec<_> = (0..8).map(|_| rt.representant()).collect();
    // Writer task per slot, then an accumulating chain over all slots.
    for (i, rep) in reps.iter().enumerate() {
        let mut sp = rt.task("write_slot");
        let _w = sp.write(rep);
        let flat = flat.clone();
        sp.submit(move || {
            // SAFETY: ordered via the representant.
            unsafe { flat.with_mut(|v| v[i] = (i + 1) as i64) };
        });
    }
    let total = rt.data(0i64);
    {
        let mut sp = rt.task("sum_all");
        let mut reads: Vec<_> = reps.iter().map(|r| sp.read(r)).collect();
        let mut out = sp.write(&total);
        let flat = flat.clone();
        sp.submit(move || {
            for r in &mut reads {
                let _ = r.get(); // activate read windows (validation)
            }
            // SAFETY: all writers ordered before us via representants.
            let sum = unsafe { flat.with(|v| v.iter().sum::<i64>()) };
            *out.get_mut() = sum;
        });
    }
    rt.barrier();
    assert_eq!(rt.read(&total), (1..=8).sum::<i64>());
}

#[test]
fn many_objects_many_tasks_stress() {
    let rt = Runtime::builder().threads(4).build();
    let n = 50;
    let cells: Vec<_> = (0..n).map(|_| rt.data(1i64)).collect();
    // Repeated pairwise reductions, exercising mixed read/write patterns.
    for round in 0..6 {
        let stride = 1 << round;
        let mut i = 0;
        while i + stride < n {
            acc_t(&rt, &cells[i + stride], &cells[i]);
            i += stride * 2;
        }
    }
    rt.barrier();
    // With n=50 the reduction tree sums cells reachable by the strides.
    let v = rt.read(&cells[0]);
    assert!(v > 1);
}

#[test]
fn runtime_drop_drains_pending_tasks() {
    let done = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    {
        let rt = Runtime::builder().threads(2).build();
        let x = rt.data(0i64);
        for _ in 0..50 {
            let mut sp = rt.task("count");
            let mut w = sp.inout(&x);
            let done = done.clone();
            sp.submit(move || {
                *w.get_mut() += 1;
                done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        }
        // No explicit barrier: Drop must drain.
    }
    assert_eq!(done.load(std::sync::atomic::Ordering::SeqCst), 50);
}

/// Two interleaved chains on different objects can proceed independently;
/// the end values prove no cross-chain interference.
#[test]
fn independent_chains_do_not_interfere() {
    let rt = Runtime::builder().threads(4).build();
    let a = rt.data(0i64);
    let b = rt.data(100i64);
    for _ in 0..100 {
        slow_incless(&rt, &a);
        slow_incless(&rt, &b);
    }
    rt.barrier();
    assert_eq!(rt.read(&a), 100);
    assert_eq!(rt.read(&b), 200);
}

#[test]
fn trace_type_histogram_accounts_every_task() {
    let rt = Runtime::builder().threads(2).tracing(true).build();
    let x = rt.data(0i64);
    let y = rt.data(0i64);
    for _ in 0..7 {
        slow_incless(&rt, &x);
    }
    for _ in 0..3 {
        slow_inc(&rt, &y);
    }
    rt.barrier();
    let trace = rt.take_trace().unwrap();
    let h = trace.type_histogram();
    assert_eq!(h["slow_incless"].0, 7);
    assert_eq!(h["slow_inc"].0, 3);
    assert!(h["slow_inc"].1 >= 3 * 200_000, "slow_inc sleeps 200µs each");
}
