//! Locality-aware placement must be **semantically invisible**: the
//! `last_writer` hints, the preferred-worker ballot, the affinity
//! mailboxes and the steal-half batches (`locality(true)`, the default)
//! only move ready tasks between queues — they must never change what
//! the analyser records or what a program computes, with renaming on or
//! off, at one thread or many. Placement itself is pinned through the
//! public stats surface: on a stencil sweep the own-list/hand-off
//! counters must dominate steals and main-list pops, and the
//! `locality_hits` counter must be exactly zero when the builder switch
//! is off. (Shape of `crates/core/tests/release_semantics.rs`.)

use proptest::prelude::*;
use smpss::Runtime;
use smpss_apps::stencil;

type Edges = Vec<(smpss::TaskId, smpss::TaskId, smpss::graph::record::EdgeKind)>;

/// One randomly generated task program over `CELLS` objects, mixing
/// every directionality so producer chains, fan-outs and WAR renames
/// all occur; returns final values and (optionally) the recorded graph.
fn run_program(
    ops: &[(u8, usize, usize, usize)],
    threads: usize,
    renaming: bool,
    locality: bool,
    record: bool,
) -> (Vec<i64>, Option<Edges>) {
    const CELLS: usize = 5;
    let rt = Runtime::builder()
        .threads(threads)
        .renaming(renaming)
        .locality(locality)
        .record_graph(record)
        .build();
    let hs: Vec<_> = (0..CELLS).map(|i| rt.data(i as i64)).collect();
    for &(kind, a, b, dst) in ops {
        let (a, b, dst) = (a % CELLS, b % CELLS, dst % CELLS);
        match kind % 4 {
            0 => {
                let mut sp = rt.task("add");
                let mut ra = sp.read(&hs[a]);
                let mut rb = sp.read(&hs[b]);
                let mut w = sp.write(&hs[dst]);
                sp.submit(move || *w.get_mut() = ra.get().wrapping_add(*rb.get()));
            }
            1 => {
                let mut sp = rt.task("acc");
                let mut ra = sp.read(&hs[a]);
                let mut w = sp.inout(&hs[dst]);
                sp.submit(move || *w.get_mut() = w.get_mut().wrapping_add(*ra.get()));
            }
            2 => {
                let mut sp = rt.task("fan");
                let mut ra = sp.read(&hs[a]);
                sp.submit(move || {
                    std::hint::black_box(*ra.get());
                });
            }
            _ => {
                let mut sp = rt.task("mut");
                let mut w = sp.inout(&hs[dst]);
                sp.submit(move || {
                    let v = w.get_mut();
                    *v = v.wrapping_mul(3).wrapping_add(1);
                });
            }
        }
    }
    rt.barrier();
    let values = hs.iter().map(|h| rt.read(h)).collect();
    let edges = rt.graph().map(|g| {
        let mut e: Vec<_> = g.edges().to_vec();
        e.sort_unstable_by_key(|(from, to, _)| (from.0, to.0));
        e
    });
    (values, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Locality on vs off: identical results and identical recorded
    /// graphs, across renaming settings (single-threaded, where the
    /// recorded graph is deterministic).
    #[test]
    fn placement_records_identical_graphs(
        ops in prop::collection::vec((0u8..4, 0usize..5, 0usize..5, 0usize..5), 10..80),
        renaming in prop_oneof![Just(true), Just(false)],
    ) {
        let (vals_on, edges_on) = run_program(&ops, 1, renaming, true, true);
        let (vals_off, edges_off) = run_program(&ops, 1, renaming, false, true);
        prop_assert_eq!(&vals_on, &vals_off);
        prop_assert_eq!(edges_on.as_ref().unwrap(), edges_off.as_ref().unwrap());
    }

    /// Eight threads with hints, mailboxes and steal-half batches live
    /// must match the single-threaded locality-off oracle value for
    /// value (sequential semantics, §II).
    #[test]
    fn placement_preserves_sequential_semantics_at_eight_threads(
        ops in prop::collection::vec((0u8..4, 0usize..5, 0usize..5, 0usize..5), 10..60),
        renaming in prop_oneof![Just(true), Just(false)],
    ) {
        let (oracle, _) = run_program(&ops, 1, renaming, false, false);
        let (placed, _) = run_program(&ops, 8, renaming, true, false);
        prop_assert_eq!(&placed, &oracle);
    }
}

/// A Jacobi stencil sweep with `steps` waves of `bands` region tasks:
/// the placement-pinning workload (each band's halo rows were written
/// by neighbouring bands, so hints and completion-releases interact).
fn jacobi_stats(threads: usize, locality: bool) -> (Vec<f32>, smpss::StatsSnapshot) {
    let n = 66; // 64 interior rows
    let steps = 24;
    let rt = Runtime::builder().threads(threads).locality(locality).build();
    let grid = vec![1.0f32; n * n];
    let out = stencil::jacobi(&rt, grid, n, steps, 4);
    (out, rt.stats())
}

/// The stats-based placement gate: with locality on, a stencil's tasks
/// are overwhelmingly consumed from own lists (waves released by
/// completions, hint-routed mailbox drains, direct hand-offs) — steals
/// and main-list pops must stay a small minority.
#[test]
fn stencil_own_list_consumption_dominates() {
    let (grid, st) = jacobi_stats(4, true);
    // Semantics first: the sweep must still compute the right thing.
    assert_eq!(grid, stencil::jacobi_ref(vec![1.0f32; 66 * 66], 66, 24));
    assert_eq!(st.total_pops(), st.tasks_executed, "pop conservation");
    let affine = st.own_pops + st.handoffs;
    let spread = st.steals + st.main_pops;
    assert!(
        affine >= 2 * spread,
        "locality placement must keep the stencil on own lists \
         (own_pops={} handoffs={} vs steals={} main_pops={})",
        st.own_pops,
        st.handoffs,
        st.steals,
        st.main_pops
    );
}

/// The ablation switch is airtight: with `locality(false)` no task is
/// ever hint-routed and no steal moves more than one task.
#[test]
fn locality_off_records_no_hits() {
    let (grid, st) = jacobi_stats(4, false);
    assert_eq!(grid, stencil::jacobi_ref(vec![1.0f32; 66 * 66], 66, 24));
    assert_eq!(st.locality_hits, 0, "switch off: no hint routing");
    assert_eq!(st.batch_steals, 0, "switch off: single-task steals only");
    assert_eq!(st.total_pops(), st.tasks_executed);
}

/// High-priority tasks are "scheduled as soon as possible independently
/// of any locality consideration": even a born-ready HP task whose
/// hints elect the throttling spawner itself must take the global HP
/// list (pinned as `hp_pops`), never the private self-hand-off window.
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
/// the spawner (the inline threshold is 1 µs), so the placement paths
/// pinned below still see every task.
fn spin_us(us: u64) {
    let t0 = std::time::Instant::now();
    while t0.elapsed() < std::time::Duration::from_micros(us) {
        std::hint::spin_loop();
    }
}

/// Born-ready readers of settled data carry their writer's hint: under
/// a throttled read storm the spawner must route through the affinity
/// mailboxes (observable as `locality_hits`), and every task still
/// executes exactly once.
#[test]
fn born_ready_readers_ride_the_mailboxes() {
    const SITES: usize = 16;
    const READS: usize = 1200;
    let rt = Runtime::builder()
        .threads(4)
        .graph_size_limit(64)
        .build();
    let objs: Vec<_> = (0..SITES).map(|_| rt.data(0u64)).collect();
    for (i, h) in objs.iter().enumerate() {
        let mut sp = rt.task("init");
        let mut w = sp.write(h);
        sp.submit(move || {
            spin_us(2);
            *w.get_mut() = i as u64;
        });
    }
    rt.barrier(); // writers finished: their ran_on records are settled
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
    assert_eq!(st.tasks_executed, (SITES + READS) as u64);
    assert_eq!(st.total_pops(), st.tasks_executed);
    assert!(
        st.locality_hits > (READS / 2) as u64,
        "settled-writer hints must route the read storm \
         (locality_hits={} of {} reads)",
        st.locality_hits,
        READS
    );
}
