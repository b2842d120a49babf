//! The completion-side fast path must be **semantically invisible**:
//! batched publication + direct hand-off + sharded accounting
//! (`lockfree_release(true)`, the default) must produce exactly the
//! same results and exactly the same recorded dependency graph as the
//! legacy per-successor release path, with renaming on or off, at one
//! thread or many.
//!
//! The random programs mix every directionality over a small object
//! working set (the shape of the determinism suite) so producer chains,
//! fan-outs (many readers of one version) and WAR-hazard renames all
//! occur; the proptest shim drives reproducible instances.

use proptest::prelude::*;
use smpss::Runtime;

/// One randomly generated task program, interpreted over `CELLS`
/// objects. Returns the final cell values.
type Edges = Vec<(smpss::TaskId, smpss::TaskId, smpss::graph::record::EdgeKind)>;

fn run_program(
    ops: &[(u8, usize, usize, usize)],
    threads: usize,
    renaming: bool,
    lockfree: bool,
    record: bool,
) -> (Vec<i64>, Option<Edges>) {
    const CELLS: usize = 5;
    let rt = Runtime::builder()
        .threads(threads)
        .renaming(renaming)
        .lockfree_release(lockfree)
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

    /// Lock-free vs legacy release: identical results and identical
    /// recorded graphs, across renaming settings, single-threaded
    /// (where the recorded graph is deterministic).
    #[test]
    fn release_paths_record_identical_graphs(
        ops in prop::collection::vec((0u8..4, 0usize..5, 0usize..5, 0usize..5), 10..80),
        renaming in prop_oneof![Just(true), Just(false)],
    ) {
        let (vals_fast, edges_fast) = run_program(&ops, 1, renaming, true, true);
        let (vals_legacy, edges_legacy) = run_program(&ops, 1, renaming, false, true);
        prop_assert_eq!(&vals_fast, &vals_legacy);
        prop_assert_eq!(edges_fast.as_ref().unwrap(), edges_legacy.as_ref().unwrap());
    }

    /// Multi-threaded execution with the fast path must match the
    /// single-threaded legacy oracle value-for-value (sequential
    /// semantics, §II).
    #[test]
    fn fast_path_preserves_sequential_semantics_at_eight_threads(
        ops in prop::collection::vec((0u8..4, 0usize..5, 0usize..5, 0usize..5), 10..60),
        renaming in prop_oneof![Just(true), Just(false)],
    ) {
        let (oracle, _) = run_program(&ops, 1, renaming, false, false);
        let (fast, _) = run_program(&ops, 8, renaming, true, false);
        prop_assert_eq!(&fast, &oracle);
    }
}

/// The direct hand-off is observable through the public stats surface:
/// a dependency chain must be dominated by hand-offs (each completion
/// runs its successor without a queue round-trip), and hand-offs are a
/// subset of own-list pops so conservation still holds. Bodies of 2 µs,
/// twice the inline threshold, keep the chain off the spawner.
#[test]
fn chains_ride_the_handoff_and_counters_stay_conserved() {
    let rt = Runtime::builder().threads(4).build();
    let x = rt.data(0i64);
    const N: u64 = 400;
    for _ in 0..N {
        let mut sp = rt.task("bump");
        let mut w = sp.inout(&x);
        sp.submit(move || {
            let t0 = std::time::Instant::now();
            while t0.elapsed() < std::time::Duration::from_micros(2) {
                std::hint::spin_loop();
            }
            *w.get_mut() += 1;
        });
    }
    rt.barrier();
    assert_eq!(rt.read(&x), N as i64);
    let st = rt.stats();
    assert_eq!(st.total_pops(), st.tasks_executed);
    assert!(
        st.handoffs as f64 >= 0.8 * N as f64,
        "a chain should ride the direct hand-off (handoffs={} of {})",
        st.handoffs,
        N
    );
    assert!(
        st.handoffs <= st.own_pops,
        "hand-offs are a subset of own-list pops (handoffs={}, own={})",
        st.handoffs,
        st.own_pops
    );
}

/// The legacy ablation path must never hand off.
#[test]
fn legacy_release_never_hands_off() {
    let rt = Runtime::builder().threads(4).lockfree_release(false).build();
    let x = rt.data(0i64);
    for _ in 0..200 {
        let mut sp = rt.task("bump");
        let mut w = sp.inout(&x);
        sp.submit(move || *w.get_mut() += 1);
    }
    rt.barrier();
    assert_eq!(rt.read(&x), 200);
    assert_eq!(rt.stats().handoffs, 0);
}
