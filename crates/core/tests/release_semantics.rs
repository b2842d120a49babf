//! The completion-side release path — batched publication, direct
//! hand-off and sharded accounting — must be **semantically
//! invisible**: every run computes the sequential program's values and
//! records a graph the shared oracle accepts, with renaming on or off,
//! at one thread or many.

use proptest::prelude::*;
use smpss::Runtime;

#[macro_use]
#[path = "../../../tests/support/oracle.rs"]
mod oracle;

use oracle::{check_graph, program, run, sequential, Front};

#[allow(dead_code)]
#[path = "../../../tests/support/gate.rs"]
mod gate;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At one thread and at eight, with renaming on and off, the
    /// recorded graph orders every conflict the program has (and only
    /// those), and the values are the sequential program's.
    #[test]
    fn release_paths_record_identical_graphs(
        ops in program(10..80),
        renaming in prop_oneof![Just(true), Just(false)],
    ) {
        for threads in [1, 8] {
            let b = Runtime::builder().threads(threads).renaming(renaming).record_graph(true);
            let out = run(&ops, b, Front::Runtime);
            prop_assert_eq!(&out.values, &sequential(&ops), "t{}", threads);
            let check = check_graph(&ops, &out.graph.expect("recording was on"), renaming);
            prop_assert!(check.is_ok(), "t{} renaming {}: {:?}", threads, renaming, check);
        }
    }

    /// Multi-threaded execution must match the sequential interpreter
    /// value for value (sequential semantics, §II).
    #[test]
    fn fast_path_preserves_sequential_semantics_at_eight_threads(
        ops in program(10..60),
        renaming in prop_oneof![Just(true), Just(false)],
    ) {
        let out = run(&ops, Runtime::builder().threads(8).renaming(renaming), Front::Runtime);
        prop_assert_eq!(&out.values, &sequential(&ops));
    }
}

/// The direct hand-off is observable through the public stats surface:
/// every link of a dependency chain is a hand-off (each completion runs
/// its successor without a queue round-trip), and hand-offs are a
/// subset of own-list pops so conservation still holds. A gate task
/// holds the chain's object until the whole chain is spawned, so every
/// link is pending when its predecessor finishes, and the hand-off count
/// is exact whoever wins the spawn race.
#[test]
fn chains_ride_the_handoff_and_counters_stay_conserved() {
    use std::sync::atomic::Ordering;

    let rt = Runtime::builder().threads(4).build();
    let x = rt.data(0i64);
    let release = gate::gate(&rt, &[&x]);
    const N: u64 = 400;
    for _ in 0..N {
        let mut sp = rt.task("bump");
        let mut w = sp.inout(&x);
        sp.submit(move || *w.get_mut() += 1);
    }
    release.store(true, Ordering::Release);
    rt.barrier();
    assert_eq!(rt.read(&x), N as i64);
    let st = rt.stats();
    assert_eq!(st.total_pops(), st.tasks_executed);
    assert_eq!(st.handoffs, N, "every link rides the direct hand-off");
    assert!(
        st.handoffs <= st.own_pops,
        "hand-offs are a subset of own-list pops (handoffs={}, own={})",
        st.handoffs,
        st.own_pops
    );
}

/// Born-ready tasks never ride the hand-off: at one thread (no inline
/// runs, no thieves) 200 independent tasks are main-list pops taken in
/// spawn order, FIFO, and no completion has a successor to hand off.
#[test]
fn legacy_release_never_hands_off() {
    let rt = Runtime::builder().threads(1).build();
    let order = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    for i in 0..200 {
        let x = rt.data(0i64);
        let mut sp = rt.task("independent");
        let mut w = sp.write(&x);
        let order = std::sync::Arc::clone(&order);
        sp.submit(move || {
            *w.get_mut() = 1;
            order.lock().unwrap().push(i);
        });
    }
    rt.barrier();
    assert_eq!(*order.lock().unwrap(), (0..200).collect::<Vec<_>>());
    let st = rt.stats();
    assert_eq!(st.handoffs, 0);
    assert_eq!((st.main_pops, st.own_pops), (200, 0));
    assert_eq!(st.total_pops(), 200);
}
