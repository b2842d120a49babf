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
//!    graphs are not comparable — but program outcomes still are:
//!    per-lane programs over disjoint objects give exactly their
//!    sequential results, and commutative updates to one shared object
//!    survive any interleaving (the lane gate serialises the analysis,
//!    the graph serialises the bodies).

use proptest::prelude::*;
use smpss::{region, Runtime};

/// A random straight-line program over whole-object cells *and* one
/// shared region buffer, so lane hashing sees both id kinds: cell
/// accesses gate on the object id, region accesses on the buffer's
/// representant id — and one buffer's regions always share a lane even
/// when the program's objects straddle every shard boundary.
#[derive(Clone, Debug)]
enum Op {
    /// cells[dst] = cells[a] + cells[b]
    Add { a: usize, b: usize, dst: usize },
    /// cells[dst] += cells[a]
    Acc { a: usize, dst: usize },
    /// cells[dst] = k
    Set { dst: usize, k: i64 },
    /// buf[lo..=lo+len-1] = cells[src]        (region write)
    Blit { src: usize, lo: usize, len: usize },
    /// cells[dst] = sum(buf[lo..=lo+len-1])   (region read)
    Gather { dst: usize, lo: usize, len: usize },
}

const CELLS: usize = 6;
const BUF: usize = 32;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..CELLS, 0..CELLS, 0..CELLS).prop_map(|(a, b, dst)| Op::Add { a, b, dst }),
        (0..CELLS, 0..CELLS).prop_map(|(a, dst)| Op::Acc { a, dst }),
        (0..CELLS, -100i64..100).prop_map(|(dst, k)| Op::Set { dst, k }),
        (0..CELLS, 0..BUF - 8, 1..8usize).prop_map(|(src, lo, len)| Op::Blit { src, lo, len }),
        (0..CELLS, 0..BUF - 8, 1..8usize).prop_map(|(dst, lo, len)| Op::Gather { dst, lo, len }),
    ]
}

/// Ground truth: run the program sequentially.
fn run_sequential(ops: &[Op]) -> Vec<i64> {
    let mut cells = vec![0i64; CELLS];
    let mut buf = vec![0i64; BUF];
    for op in ops {
        match *op {
            Op::Add { a, b, dst } => cells[dst] = cells[a].wrapping_add(cells[b]),
            Op::Acc { a, dst } => cells[dst] = cells[dst].wrapping_add(cells[a]),
            Op::Set { dst, k } => cells[dst] = k,
            Op::Blit { src, lo, len } => buf[lo..lo + len].fill(cells[src]),
            Op::Gather { dst, lo, len } => cells[dst] = buf[lo..lo + len].iter().sum(),
        }
    }
    cells
}

type Recorded = (
    Vec<i64>,
    Vec<smpss::graph::record::NodeInfo>,
    Vec<(smpss::TaskId, smpss::TaskId, smpss::graph::record::EdgeKind)>,
);

/// Run the program through a runtime, main-thread submission, recording
/// the graph. Returns (final cell values, nodes, edges).
fn run_recorded(ops: &[Op], shards: usize) -> Recorded {
    let mut b = Runtime::builder().threads(2).record_graph(true);
    if shards > 0 {
        b = b.shards(shards);
    }
    let rt = b.build();
    if shards > 1 {
        drop(rt.submitters()); // the main thread now takes the gated paths
    }
    let cells: Vec<_> = (0..CELLS).map(|_| rt.data(0i64)).collect();
    let buf = rt.region_data(vec![0i64; BUF]);
    for op in ops {
        match *op {
            Op::Add { a, b, dst } => {
                let mut sp = rt.task("add");
                let mut ra = sp.read(&cells[a]);
                let mut rb = sp.read(&cells[b]);
                let mut w = sp.write(&cells[dst]);
                sp.submit(move || *w.get_mut() = ra.get().wrapping_add(*rb.get()));
            }
            Op::Acc { a, dst } => {
                let mut sp = rt.task("acc");
                let mut ra = sp.read(&cells[a]);
                let mut w = sp.inout(&cells[dst]);
                sp.submit(move || *w.get_mut() = w.get_mut().wrapping_add(*ra.get()));
            }
            Op::Set { dst, k } => {
                let mut sp = rt.task("set");
                let mut w = sp.write(&cells[dst]);
                sp.submit(move || *w.get_mut() = k);
            }
            Op::Blit { src, lo, len } => {
                let hi = lo + len - 1;
                let mut sp = rt.task("blit");
                let mut r = sp.read(&cells[src]);
                let mut w = sp.write_region(&buf, region![lo..=hi]);
                sp.submit(move || {
                    let v = *r.get();
                    w.slice_mut(lo, hi).fill(v);
                });
            }
            Op::Gather { dst, lo, len } => {
                let hi = lo + len - 1;
                let mut sp = rt.task("gather");
                let mut r = sp.read_region(&buf, region![lo..=hi]);
                let mut w = sp.write(&cells[dst]);
                sp.submit(move || *w.get_mut() = r.slice(lo, hi).iter().sum());
            }
        }
    }
    rt.barrier();
    let vals = cells.iter().map(|h| rt.read(h)).collect();
    let g = rt.graph().expect("graph recording was enabled");
    (vals, g.nodes().to_vec(), g.edges().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The BENCH_0006 equality gate: for every shard count — including
    /// the `shards(1)` ablation that must be today's scheduler exactly —
    /// main-thread submission records the same graph, node for node and
    /// edge for edge, as the unsharded oracle, and produces the
    /// sequential values.
    #[test]
    fn sharding_never_changes_the_recorded_graph(
        ops in prop::collection::vec(op_strategy(), 1..80)
    ) {
        let expect = run_sequential(&ops);
        // shards == 0 means "don't call .shards() at all": the oracle is
        // a builder untouched by this PR's knob.
        let (base_vals, base_nodes, base_edges) = run_recorded(&ops, 0);
        prop_assert_eq!(&base_vals, &expect);
        for shards in [1usize, 2, 7, 64] {
            let (vals, nodes, edges) = run_recorded(&ops, shards);
            prop_assert_eq!(&vals, &expect, "values at shards={}", shards);
            prop_assert_eq!(&nodes, &base_nodes, "nodes at shards={}", shards);
            prop_assert_eq!(&edges, &base_edges, "edges at shards={}", shards);
        }
    }

    /// Concurrent submitters, disjoint objects: each lane's program is
    /// sequential on its own cells, so every cell must end at exactly
    /// its per-lane sequential value — whatever the global interleaving
    /// of analysis across lanes was.
    #[test]
    fn concurrent_submitters_preserve_per_lane_semantics(
        chains in prop::collection::vec(1u64..200, 4..5),
    ) {
        let rt = Runtime::builder().threads(2).shards(4).build();
        let handles: Vec<_> = chains.iter().map(|_| rt.data(0u64)).collect();
        let submitters = rt.submitters();
        std::thread::scope(|s| {
            for (sub, (h, &n)) in submitters.into_iter().zip(handles.iter().zip(&chains)) {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..n {
                        let mut sp = sub.task("bump");
                        let mut w = sp.inout(&h);
                        sp.submit(move || *w.get_mut() += 1);
                    }
                });
            }
        });
        rt.barrier();
        for (h, &n) in handles.iter().zip(&chains) {
            prop_assert_eq!(rt.read(h), n);
        }
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

/// Cross-lane renaming folds into one account: submitters force renames
/// on objects hashing to different lanes while a memory limit is set;
/// the throttle must bound the fleet-wide renamed bytes and the program
/// must still finish with the right values.
#[test]
fn renamed_bytes_account_spans_lanes() {
    let rt = Runtime::builder()
        .threads(2)
        .shards(2)
        .memory_limit(64 * 1024)
        .build();
    let objs: Vec<_> = (0..8)
        .map(|_| rt.data_sized(vec![0u8; 4096], 4096, || vec![0u8; 4096]))
        .collect();
    let submitters = rt.submitters();
    std::thread::scope(|s| {
        for (lane, sub) in submitters.into_iter().enumerate() {
            let objs = objs.to_vec();
            s.spawn(move || {
                for round in 0..200u64 {
                    for h in objs.iter().skip(lane % 2).step_by(2) {
                        // read-then-write forces a rename per round once
                        // the reader is in flight.
                        let mut sp = sub.task("r");
                        let mut r = sp.read(h);
                        sp.submit(move || {
                            std::hint::black_box(r.get()[0]);
                        });
                        let mut sp = sub.task("w");
                        let mut w = sp.write(h);
                        sp.submit(move || w.get_mut()[0] = round as u8);
                    }
                }
            });
        }
    });
    rt.barrier();
    let st = rt.stats();
    assert!(st.renames > 0, "the workload must actually rename");
    for h in &objs {
        assert_eq!(rt.read(h)[0], 199, "last write per object wins");
    }
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
