//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **renaming on/off** — §II/§VII.C: without renaming the analyser
//!    must emit anti/output edges (SuperMatrix-style); measure the edge
//!    inflation and the simulated slowdown on the renaming-heavy
//!    workloads (Strassen, N Queens).
//! 2. **queue policy** — §VII.C: per-thread ready lists + FIFO stealing
//!    (SMPSs) vs one central queue (SuperMatrix) vs LIFO stealing, in
//!    the simulator; the runtime implements the SMPSs policy only.
//! 3. **graph-size limit** — §III blocking condition: how hard can the
//!    main thread be throttled before makespan suffers?
//!
//! The runtime's fast paths (completion hand-off, version slab) have no
//! off switch, so they have no ablation here: the tier-1 suites check
//! them against a sequential oracle instead. Sharded analysis has none
//! either: recorded-graph equality across `shards(k)` and concurrent
//! submitters on one object are tests in `tests/shard_semantics.rs`.

use smpss::Runtime;
use smpss_apps::{strassen, FlatMatrix, HyperMatrix};
use smpss_bench::calibrate::Calibration;
use smpss_bench::record::cholesky_flat_graph;
use smpss_bench::series::Table;
use smpss_blas::Vendor;
use smpss_sim::{simulate, MachineConfig, SimGraph, SimPolicy};

fn strassen_graph_with_renaming(renaming: bool) -> (smpss::GraphRecord, smpss::StatsSnapshot) {
    let rt = Runtime::builder()
        .threads(1)
        .renaming(renaming)
        .record_graph(true)
        .build();
    let n = 8;
    let m = 2;
    let af = FlatMatrix::random(n * m, 51);
    let bf = FlatMatrix::random(n * m, 52);
    let a = HyperMatrix::from_flat(&rt, &af, m);
    let b = HyperMatrix::from_flat(&rt, &bf, m);
    let c = HyperMatrix::dense_zeros(&rt, n, m);
    strassen::strassen(&rt, &a, &b, &c, Vendor::Tuned, 1);
    rt.barrier();
    (rt.graph().unwrap(), rt.stats())
}

fn ablation_renaming(cal: &Calibration) {
    println!("== Ablation 1: renaming on/off (Strassen, 8 blocks, cutoff 1) ==\n");
    let (g_on, s_on) = strassen_graph_with_renaming(true);
    let (g_off, s_off) = strassen_graph_with_renaming(false);
    println!(
        "renaming ON : {} tasks, {} true edges, {} hazard edges, {} renames",
        g_on.node_count(),
        s_on.true_edges,
        s_on.anti_edges,
        s_on.renames
    );
    println!(
        "renaming OFF: {} tasks, {} true edges, {} hazard edges, {} renames",
        g_off.node_count(),
        s_off.true_edges,
        s_off.anti_edges,
        s_off.renames
    );
    assert_eq!(s_on.anti_edges, 0);
    assert!(
        s_off.anti_edges > 0,
        "hazard edges must appear without renaming"
    );

    let bs = 512;
    let mut table = Table::new(
        "simulated Strassen makespan (ms) vs threads",
        "threads",
        &["renaming on", "renaming off", "slowdown"],
    );
    for p in [1usize, 4, 8, 16, 32] {
        let cfg = MachineConfig::with_threads(p);
        let on = simulate(
            &SimGraph::from_record(&g_on, |n| cal.tuned.task_cost_us(n, bs)),
            &cfg,
        )
        .makespan_us
            / 1e3;
        let off = simulate(
            &SimGraph::from_record(&g_off, |n| cal.tuned.task_cost_us(n, bs)),
            &cfg,
        )
        .makespan_us
            / 1e3;
        table.row(p as f64, vec![on, off, off / on]);
    }
    table.print();
    let slow = table.column("slowdown");
    assert!(
        slow.last().unwrap() > &1.05,
        "renaming must buy parallelism at scale (slowdown={:?})",
        slow
    );

    // Correctness equivalence at small scale on the real runtime.
    for renaming in [true, false] {
        let rt = Runtime::builder().threads(4).renaming(renaming).build();
        let af = FlatMatrix::random(8, 1);
        let bf = FlatMatrix::random(8, 2);
        let a = HyperMatrix::from_flat(&rt, &af, 2);
        let b = HyperMatrix::from_flat(&rt, &bf, 2);
        let c = HyperMatrix::dense_zeros(&rt, 4, 2);
        strassen::strassen(&rt, &a, &b, &c, Vendor::Tuned, 1);
        rt.barrier();
        let expect = FlatMatrix::multiply_ref(&af, &bf);
        assert!(c.to_flat(&rt).max_abs_diff(&expect) < 1e-2);
    }
    println!("real-runtime correctness with renaming on/off: ok\n");
}

fn ablation_queues(cal: &Calibration) {
    println!("== Ablation 2: ready-queue policy (flat Cholesky, 32 blocks) ==\n");
    let record = cholesky_flat_graph(32);
    let bs = 256;
    let mut table = Table::new(
        "simulated Cholesky makespan (ms) + locality",
        "threads",
        &[
            "SMPSs policy",
            "central queue",
            "LIFO stealing",
            "SMPSs locality hits %",
            "SMPSs steals",
        ],
    );
    for p in [4usize, 8, 16, 32] {
        let mk = |policy| {
            let mut cfg = MachineConfig::with_threads(p);
            cfg.policy = policy;
            simulate(
                &SimGraph::from_record(&record, |n| cal.tuned.task_cost_us(n, bs)),
                &cfg,
            )
        };
        let smpss = mk(SimPolicy::Smpss);
        let central = mk(SimPolicy::CentralQueue);
        let lifo = mk(SimPolicy::StealLifo);
        let hits = 100.0 * smpss.locality_hits as f64 / record.node_count() as f64;
        table.row(
            p as f64,
            vec![
                smpss.makespan_us / 1e3,
                central.makespan_us / 1e3,
                lifo.makespan_us / 1e3,
                hits,
                smpss.steals as f64,
            ],
        );
    }
    table.print();
    let smpss = table.column("SMPSs policy");
    let central = table.column("central queue");
    // The locality benefit: SMPSs policy should not lose to the central
    // queue (it wins once the locality factor matters).
    for i in 0..smpss.len() {
        assert!(
            smpss[i] <= central[i] * 1.02,
            "SMPSs policy must be at least on par with a central queue"
        );
    }
}

fn ablation_graph_limit(cal: &Calibration) {
    println!("\n== Ablation 3: graph-size limit (flat Cholesky, 32 blocks) ==\n");
    let record = cholesky_flat_graph(32);
    let bs = 256;
    let mut table = Table::new(
        "simulated makespan (ms) vs graph-size limit (16 threads)",
        "limit",
        &["makespan", "spawn end"],
    );
    for limit in [usize::MAX, 4096, 1024, 256, 64, 16] {
        let mut cfg = MachineConfig::with_threads(16);
        if limit != usize::MAX {
            cfg.graph_size_limit = Some(limit);
        }
        let r = simulate(
            &SimGraph::from_record(&record, |n| cal.tuned.task_cost_us(n, bs)),
            &cfg,
        );
        let x = if limit == usize::MAX {
            0.0
        } else {
            limit as f64
        };
        table.row(x, vec![r.makespan_us / 1e3, r.spawn_end_us / 1e3]);
    }
    table.print();
    println!("(limit 0 row = unlimited)");
    let span = table.column("makespan");
    assert!(
        span[span.len() - 1] >= span[0] * 0.99,
        "very tight limits cannot beat the unlimited run"
    );
}

fn main() {
    let cal = Calibration::default();
    ablation_renaming(&cal);
    ablation_queues(&cal);
    ablation_graph_limit(&cal);
    println!("\nall ablation checks passed.");
}
