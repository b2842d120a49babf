//! Ready-task placement is the paper's §III order and nothing else:
//! born-ready tasks go to the main list (or run inline on the spawner
//! when they are cheap), released tasks stay with the thread that
//! released them (the completion hand-off, then its own list), and idle
//! threads steal one task at a time in creation order. Placement must
//! never change what the analyser records or what a program computes —
//! checked against the shared sequential oracle at one thread and at
//! four, with and without the §III throttle — and the counts a
//! fixed schedule determines are pinned through the public stats.

use proptest::prelude::*;
use smpss::Runtime;
use smpss_apps::stencil;

#[macro_use]
#[path = "support/oracle.rs"]
mod oracle;

use oracle::{check_graph, program, run, sequential, Front};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At one thread and at four, with the main thread throttled into
    /// helping or not, the recorded graph passes the oracle's check and
    /// the values are the sequential program's.
    #[test]
    fn placement_records_identical_graphs(
        ops in program(10..80),
        renaming in prop_oneof![Just(true), Just(false)],
    ) {
        for threads in [1, 4] {
            for limit in [None, Some(2)] {
                let mut b = Runtime::builder()
                    .threads(threads)
                    .renaming(renaming)
                    .record_graph(true);
                if let Some(l) = limit {
                    b = b.graph_size_limit(l);
                }
                let out = run(&ops, b, Front::Runtime);
                prop_assert_eq!(&out.values, &sequential(&ops), "t{} limit {:?}", threads, limit);
                let check = check_graph(&ops, &out.graph.expect("recording was on"), renaming);
                prop_assert!(check.is_ok(), "t{} limit {:?}: {:?}", threads, limit, check);
            }
        }
    }

    /// Eight threads, with the spawner throttled so it helps between
    /// submits, must match the sequential interpreter value for value
    /// (sequential semantics, §II).
    #[test]
    fn placement_preserves_sequential_semantics_at_eight_threads(
        ops in program(10..60),
        renaming in prop_oneof![Just(true), Just(false)],
    ) {
        let b = Runtime::builder().threads(8).renaming(renaming).graph_size_limit(4);
        let out = run(&ops, b, Front::Runtime);
        prop_assert_eq!(&out.values, &sequential(&ops));
    }
}

const N: usize = 66; // 64 interior rows
const STEPS: usize = 24;
const BAND: usize = 4;
const BANDS: u64 = ((N - 2) / BAND) as u64;

/// A Jacobi stencil sweep: `STEPS` waves of `BANDS` region tasks, each
/// band reading its neighbours' rows of the previous wave.
fn jacobi_stats(threads: usize) -> (Vec<f32>, smpss::StatsSnapshot) {
    let rt = Runtime::builder().threads(threads).build();
    let out = stencil::jacobi(&rt, vec![1.0f32; N * N], N, STEPS, BAND);
    (out, rt.stats())
}

/// At one thread the schedule is fixed: every task is spawned before
/// the barrier runs any, so only the first wave is born ready. Those
/// are the main-list pops; every later wave is released by a
/// completion and consumed from the own list, most of it straight off
/// the hand-off. Nobody steals.
#[test]
fn stencil_own_list_consumption_dominates() {
    let (grid, st) = jacobi_stats(1);
    assert_eq!(grid, stencil::jacobi_ref(vec![1.0f32; N * N], N, STEPS));
    let tasks = BANDS * STEPS as u64;
    assert_eq!(st.tasks_executed, tasks);
    assert_eq!(st.total_pops(), tasks, "pop conservation");
    assert_eq!(st.main_pops, BANDS, "only the first wave is born ready");
    assert_eq!(
        st.own_pops,
        tasks - BANDS,
        "released waves stay on the own list"
    );
    assert_eq!(st.steals, 0);
    assert!(
        st.handoffs > 0 && st.handoffs <= st.own_pops,
        "hand-offs are a share of own-list pops (handoffs={} own={})",
        st.handoffs,
        st.own_pops
    );
}

/// No task is routed by where its inputs were last written and no
/// steal takes more than one task: the two counters are fixed at 0.
#[test]
fn locality_off_records_no_hits() {
    let (grid, st) = jacobi_stats(4);
    assert_eq!(grid, stencil::jacobi_ref(vec![1.0f32; N * N], N, STEPS));
    assert_eq!(st.locality_hits, 0, "no hint routing");
    assert_eq!(st.batch_steals, 0, "single-task steals only");
    assert_eq!(st.total_pops(), st.tasks_executed);
}

/// High-priority tasks are "scheduled as soon as possible independently
/// of any locality consideration": even under a throttle that keeps the
/// spawner helping, every HP task comes off the global HP list.
#[test]
fn high_priority_ignores_locality_hints() {
    let rt = Runtime::builder().threads(2).graph_size_limit(1).build();
    let h = rt.data(0u64);
    for _ in 0..50 {
        let mut sp = rt.task("w");
        let mut w = sp.inout(&h);
        sp.submit(move || *w.get_mut() += 1);
    }
    for _ in 0..8 {
        let mut sp = rt.task("hp");
        sp.high_priority();
        let mut r = sp.read(&h);
        sp.submit(move || {
            std::hint::black_box(*r.get());
        });
    }
    rt.barrier();
    let st = rt.stats();
    assert_eq!(st.hp_pops, 8, "every HP task must come off the HP list");
    assert_eq!(st.total_pops(), st.tasks_executed);
}

/// Busy-wait for `us` microseconds: a body too dear to run inline on
/// the spawner (the inline threshold is 1 µs).
fn spin_us(us: u64) {
    let t0 = std::time::Instant::now();
    while t0.elapsed() < std::time::Duration::from_micros(us) {
        std::hint::spin_loop();
    }
}

/// Born-ready readers of settled data all go through the main list:
/// none has a producer left to release it, so no task ever reaches an
/// own list (except the spawner's inline runs, which count there) and
/// nothing is stolen. Every task executes exactly once.
#[test]
fn born_ready_readers_ride_the_mailboxes() {
    const SITES: usize = 16;
    const READS: usize = 1200;
    let rt = Runtime::builder().threads(4).graph_size_limit(64).build();
    let objs: Vec<_> = (0..SITES).map(|_| rt.data(0u64)).collect();
    for (i, h) in objs.iter().enumerate() {
        let mut sp = rt.task("init");
        let mut w = sp.write(h);
        sp.submit(move || {
            spin_us(2);
            *w.get_mut() = i as u64;
        });
    }
    rt.barrier();
    for i in 0..READS {
        let mut sp = rt.task("probe");
        let mut r = sp.read(&objs[i % SITES]);
        sp.submit(move || {
            spin_us(2);
            std::hint::black_box(*r.get());
        });
    }
    rt.barrier();
    let st = rt.stats();
    let tasks = (SITES + READS) as u64;
    assert_eq!(st.tasks_executed, tasks);
    assert_eq!(st.total_pops(), tasks);
    assert_eq!(
        st.main_pops + st.inline_runs,
        tasks,
        "every task is born ready"
    );
    assert_eq!(st.own_pops, st.inline_runs);
    assert_eq!((st.steals, st.handoffs, st.locality_hits), (0, 0, 0));
}
