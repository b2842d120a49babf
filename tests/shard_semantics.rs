//! Concurrent spawners must be invisible in the graph and in program
//! semantics. Threads other than the main thread spawn through
//! sessions, and every spawner shares the runtime's one analysis gate.
//!
//! Two layers of evidence:
//!
//! 1. **Graph equality.** For random task programs submitted from the
//!    main thread, a runtime that has opened a session records
//!    *bit-identical* dependency graphs to one that has not — same
//!    nodes, same edges, same order. Opening the session routes every
//!    main-thread object access through the analysis gate and switches
//!    the spawn counters to RMWs, none of which may change one
//!    analysis decision.
//! 2. **Concurrent-session semantics.** With real concurrent session
//!    threads the task *ids* interleave nondeterministically, so the
//!    graphs are not comparable run to run — but each session's part
//!    of the graph passes the oracle's check, per-session programs over
//!    disjoint objects give exactly their sequential results, and
//!    commutative updates to one shared object survive any
//!    interleaving (the gate serialises the analysis, the graph
//!    serialises the bodies).

use proptest::prelude::*;
use smpss::{OnPanic, Runtime};

#[macro_use]
#[path = "support/oracle.rs"]
mod oracle;

use oracle::{
    check, check_graph, fixed_program, program, run_config, run_on, sequential, Config, Front,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The equality gate: main-thread submission records the same graph,
    /// node for node and edge for edge, whether or not a session has
    /// opened, passes the oracle's check and produces the sequential
    /// values. Workers finish producers while the main thread analyses,
    /// so the recorded order must not depend on which producers have
    /// finished. The programs mix whole objects and region accesses.
    #[test]
    fn sharding_never_changes_the_recorded_graph(ops in program(1..80)) {
        let recorded = |gated: bool| {
            let rt = Runtime::builder().threads(2).record_graph(true).build();
            if gated {
                drop(rt.session()); // the main thread now takes the gated paths
            }
            let out = run_on(rt, &ops, Front::Runtime);
            (out.values, out.graph.expect("graph recording was enabled"))
        };
        let (base_vals, base) = recorded(false);
        prop_assert_eq!(&base_vals, &sequential(&ops));
        let checked = check_graph(&ops, &base, true);
        prop_assert!(checked.is_ok(), "{:?}", checked);
        for gated in [false, true] {
            let (vals, g) = recorded(gated);
            prop_assert_eq!(&vals, &base_vals, "values, gated: {}", gated);
            prop_assert_eq!(g.nodes(), base.nodes(), "nodes, gated: {}", gated);
            prop_assert_eq!(g.edges(), base.edges(), "edges, gated: {}", gated);
        }
    }

    /// Concurrent sessions over disjoint objects: each spawns its own
    /// copy of a program, and each copy ends at exactly its sequential
    /// values and records its own graph, whatever the interleaving of
    /// their analysis was.
    #[test]
    fn concurrent_submitters_preserve_per_lane_semantics(ops in program(1..120)) {
        let cfg = Config {
            threads: 2,
            front: Front::Sessions,
            renaming: true,
            tight: false,
            on_panic: OnPanic::CancelDependents,
        };
        let checked = check(&ops, &run_config(&ops, &cfg), true, cfg.on_panic);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }
}

/// Concurrent sessions hammering ONE shared object with commutative
/// updates: the gate serialises every analysis step, the graph
/// serialises the bodies, so no increment can be lost. Every session's
/// spawn races every other's on the same `SpawnerCell`.
#[test]
fn concurrent_submitters_share_one_object_safely() {
    const PER_SESSION: u64 = 500;
    const SESSIONS: u64 = 4;
    let rt = Runtime::builder().threads(2).build();
    let total = rt.data(0u64);
    let sessions: Vec<_> = (0..SESSIONS).map(|_| rt.session()).collect();
    std::thread::scope(|s| {
        for sess in sessions {
            let total = total.clone();
            s.spawn(move || {
                for _ in 0..PER_SESSION {
                    let mut sp = sess.task("acc").expect("no quota configured");
                    let mut w = sp.inout(&total);
                    sp.submit(move || *w.get_mut() += 1);
                }
            });
        }
    });
    rt.barrier();
    assert_eq!(rt.read(&total), PER_SESSION * SESSIONS);
}

/// Renaming folds into one account: two sessions spawn a program each
/// under a memory limit of the programs' initial data. The throttle
/// watches the fleet-wide renamed bytes, and both programs still end at
/// their sequential values.
#[test]
fn renamed_bytes_account_spans_lanes() {
    let ops = fixed_program(400);
    let cfg = Config {
        threads: 2,
        front: Front::Sessions,
        renaming: true,
        tight: true,
        on_panic: OnPanic::CancelDependents,
    };
    let out = run_config(&ops, &cfg);
    check(&ops, &out, true, cfg.on_panic).unwrap();
    assert!(out.stats.renames > 0, "the workload must actually rename");
}

/// Session spawns settle against main-thread spawns: the runtime's own
/// spawn path gates object accesses once a session exists, so a
/// producer spawned by a session and a consumer spawned by the main
/// thread get a true edge exactly as if one thread had spawned both.
#[test]
fn submitter_and_runtime_spawns_interleave() {
    let rt = Runtime::builder().threads(2).build();
    let h = rt.data(0i64);
    let sess = rt.session();
    // Producer from a session thread...
    let h2 = h.clone();
    std::thread::spawn(move || {
        let mut sp = sess.task("produce").expect("no quota configured");
        let mut w = sp.write(&h2);
        sp.submit(move || *w.get_mut() = 41);
    })
    .join()
    .unwrap();
    // ...consumer from the main thread, after the session joined.
    let mut sp = rt.task("consume");
    let mut w = sp.inout(&h);
    sp.submit(move || *w.get_mut() += 1);
    rt.barrier();
    assert_eq!(rt.read(&h), 42);
}
