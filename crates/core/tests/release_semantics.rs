//! The completion-side release path — batched publication, direct
//! hand-off and sharded accounting — must be **semantically
//! invisible**: every run computes the sequential program's values and
//! records a graph the shared oracle accepts, with renaming on or off,
//! at one thread or many.

use proptest::prelude::*;
use smpss::config::SchedulerPolicy;
use smpss::Runtime;

#[macro_use]
#[path = "../../../tests/support/oracle.rs"]
mod oracle;

use oracle::{check_graph, program, run, sequential, Front};

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

/// The one release that never hands off is the central-queue policy's:
/// every released task goes to the central FIFO, chains included.
#[test]
fn legacy_release_never_hands_off() {
    let rt = Runtime::builder()
        .threads(4)
        .policy(SchedulerPolicy::CentralQueue)
        .build();
    let x = rt.data(0i64);
    for _ in 0..200 {
        let mut sp = rt.task("bump");
        let mut w = sp.inout(&x);
        sp.submit(move || *w.get_mut() += 1);
    }
    rt.barrier();
    assert_eq!(rt.read(&x), 200);
    let st = rt.stats();
    assert_eq!(st.handoffs, 0);
    assert_eq!(st.own_pops, 0, "the central queue is a main-list pop");
    assert_eq!(st.total_pops(), 200);
}
