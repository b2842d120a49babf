//! Sharded dependency analysis must be invisible in the graph and in
//! program semantics.
//!
//! Two layers of evidence, matching the BENCH_0006 gate:
//!
//! 1. **Graph equality.** For random task programs submitted from the
//!    main thread, a runtime built with `shards(k)` for any `k` records
//!    *bit-identical* dependency graphs to the default single-spawner
//!    runtime — same nodes, same edges, same order. `shards(1)` is the
//!    ablation that must preserve today's scheduler exactly; at `k > 1`
//!    the run first hands out (and drops) the submitters, which routes
//!    every main-thread object access through its lane gate and
//!    switches the spawn counters to RMWs, none of which may change one
//!    analysis decision.
//! 2. **Multi-submitter semantics.** With real concurrent [`Submitter`]
//!    threads the task *ids* interleave nondeterministically, so the
//!    graphs are not comparable run to run — but each submitter's part
//!    of the graph passes the oracle's check, per-lane programs over
//!    disjoint objects give exactly their sequential results, and
//!    commutative updates to one shared object survive any
//!    interleaving (the lane gate serialises the analysis, the graph
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

    /// The BENCH_0006 equality gate: for every shard count — including
    /// the `shards(1)` ablation that must be today's scheduler exactly —
    /// main-thread submission records the same graph, node for node and
    /// edge for edge, as a runtime built without `shards`, passes the
    /// oracle's check and produces the sequential values. The programs
    /// mix whole objects and region accesses, so lane hashing sees both
    /// id kinds.
    #[test]
    fn sharding_never_changes_the_recorded_graph(ops in program(1..80)) {
        let recorded = |shards: Option<usize>| {
            let b = Runtime::builder().threads(2).record_graph(true);
            let rt = match shards {
                Some(k) => b.shards(k).build(),
                None => b.build(),
            };
            if shards > Some(1) {
                drop(rt.submitters()); // the main thread now takes the gated paths
            }
            let out = run_on(rt, &ops, Front::Runtime);
            (out.values, out.graph.expect("graph recording was enabled"))
        };
        let (base_vals, base) = recorded(None);
        prop_assert_eq!(&base_vals, &sequential(&ops));
        let checked = check_graph(&ops, &base, true);
        prop_assert!(checked.is_ok(), "{:?}", checked);
        for shards in [1usize, 2, 7, 64] {
            let (vals, g) = recorded(Some(shards));
            prop_assert_eq!(&vals, &base_vals, "values at shards={}", shards);
            prop_assert_eq!(g.nodes(), base.nodes(), "nodes at shards={}", shards);
            prop_assert_eq!(g.edges(), base.edges(), "edges at shards={}", shards);
        }
    }

    /// Concurrent submitters over disjoint objects: each spawns its own
    /// copy of a program, and each copy ends at exactly its sequential
    /// values and records its own graph, whatever the interleaving of
    /// analysis across lanes was.
    #[test]
    fn concurrent_submitters_preserve_per_lane_semantics(ops in program(1..120)) {
        let cfg = Config {
            threads: 2,
            shards: 4,
            front: Front::Submitters,
            renaming: true,
            tight: false,
            on_panic: OnPanic::CancelDependents,
        };
        let checked = check(&ops, &run_config(&ops, &cfg), true, cfg.on_panic);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }
}

/// Concurrent submitters hammering ONE shared object with commutative
/// updates: the lane gate serialises every analysis step, the graph
/// serialises the bodies, so no increment can be lost. This is the
/// cross-shard edge case in its purest form — every submitter's spawn
/// races every other's on the same `SpawnerCell`.
#[test]
fn concurrent_submitters_share_one_object_safely() {
    const PER_LANE: u64 = 500;
    let rt = Runtime::builder().threads(2).shards(4).build();
    let total = rt.data(0u64);
    let submitters = rt.submitters();
    let lanes = submitters.len() as u64;
    std::thread::scope(|s| {
        for sub in submitters {
            let total = total.clone();
            s.spawn(move || {
                for _ in 0..PER_LANE {
                    let mut sp = sub.task("acc");
                    let mut w = sp.inout(&total);
                    sp.submit(move || *w.get_mut() += 1);
                }
            });
        }
    });
    rt.barrier();
    assert_eq!(rt.read(&total), PER_LANE * lanes);
}

/// Cross-lane renaming folds into one account: two submitters spawn
/// a program each, renaming objects that hash to different lanes, under
/// a memory limit of the programs' initial data. The throttle watches
/// the fleet-wide renamed bytes, and both programs still end at their
/// sequential values.
#[test]
fn renamed_bytes_account_spans_lanes() {
    let ops = fixed_program(400);
    let cfg = Config {
        threads: 2,
        shards: 2,
        front: Front::Submitters,
        renaming: true,
        tight: true,
        on_panic: OnPanic::CancelDependents,
    };
    let out = run_config(&ops, &cfg);
    check(&ops, &out, true, cfg.on_panic).unwrap();
    assert!(out.stats.renames > 0, "the workload must actually rename");
}

/// Submitter spawns settle against main-thread spawns: the runtime's own
/// spawn path gates object accesses once submitters exist, so a producer spawned
/// by a submitter and a consumer spawned by the main thread (and vice
/// versa) get a true edge exactly as if one thread had spawned both.
#[test]
fn submitter_and_runtime_spawns_interleave() {
    let rt = Runtime::builder().threads(2).shards(2).build();
    let h = rt.data(0i64);
    let mut submitters = rt.submitters();
    // Producer from a submitter thread...
    let sub = submitters.remove(1);
    let h2 = h.clone();
    std::thread::spawn(move || {
        let mut sp = sub.task("produce");
        let mut w = sp.write(&h2);
        sp.submit(move || *w.get_mut() = 41);
    })
    .join()
    .unwrap();
    // ...consumer from the main thread, after the submitter joined.
    let mut sp = rt.task("consume");
    let mut w = sp.inout(&h);
    sp.submit(move || *w.get_mut() += 1);
    rt.barrier();
    assert_eq!(rt.read(&h), 42);
}
