//! Figure 16: N Queens **scalability** — each programming model
//! normalised to its own single-thread execution ("by comparing with
//! such a version, we can infer a measure of their scalability").
//!
//! Expected shape (paper): once the per-model constant costs are divided
//! out, all three scale comparably.

use smpss_bench::calibrate::{explore_subtree_nodes, Calibration};
use smpss_bench::dags::{cilk_nqueens, omp_nqueens, FjCosts};
use smpss_bench::record::nqueens_graph;
use smpss_bench::series::Table;
use smpss_bench::PAPER_THREADS;
use smpss_sim::{simulate, MachineConfig, SimGraph, SimPolicy};

fn main() {
    let quick = smpss_bench::quick_mode();
    let n = if quick { 10 } else { 12 };
    let task_levels = if quick { 6 } else { 7 }; // see fig15 on granularity
    let cal = Calibration {
        nqueens_ns_per_node: 2000.0,
        ..Default::default()
    };
    let fj = FjCosts::default();
    println!("# Figure 16 — N Queens n={n}, scalability vs same-paradigm 1 thread\n");

    let record = nqueens_graph(n, task_levels);
    let subtree = explore_subtree_nodes(n, task_levels);
    let mut next = 0usize;
    let smpss_graph = SimGraph::from_record_with(&record, |_, name| match name {
        "set_cell_t" => 0.3,
        "explore_t" => {
            let c = subtree[next] as f64 * cal.nqueens_ns_per_node / 1e3;
            next += 1;
            c
        }
        other => panic!("unexpected task {other}"),
    });
    let cilk_graph = cilk_nqueens(n, &cal, &fj);
    let omp_graph = omp_nqueens(n, task_levels, &cal, &fj);

    let run = |g: &SimGraph, p: usize, policy: SimPolicy, serial_spawner: bool| {
        let mut cfg = MachineConfig::with_threads(p);
        cfg.policy = policy;
        cfg.spawn_overhead_us = if serial_spawner { 1.0 } else { 0.0 };
        if !serial_spawner {
            // Per-runtime overheads; see fig14/fig15 for the reasoning.
            cfg.dispatch_overhead_us = if policy == SimPolicy::CentralQueue {
                0.5
            } else {
                0.1
            };
            cfg.locality_factor = 1.0;
        }
        simulate(g, &cfg).makespan_us
    };

    let base_cilk = run(&cilk_graph, 1, SimPolicy::Smpss, false);
    let base_omp = run(&omp_graph, 1, SimPolicy::CentralQueue, false);
    let base_smpss = run(&smpss_graph, 1, SimPolicy::Smpss, true);

    let mut table = Table::new(
        "Fig 16: N Queens speedup vs same model at 1 thread",
        "threads",
        &["Cilk", "OMP3 tasks", "SMPSs"],
    );
    for &p in PAPER_THREADS {
        table.row(
            p as f64,
            vec![
                base_cilk / run(&cilk_graph, p, SimPolicy::Smpss, false),
                base_omp / run(&omp_graph, p, SimPolicy::CentralQueue, false),
                base_smpss / run(&smpss_graph, p, SimPolicy::Smpss, true),
            ],
        );
    }
    table.print();

    let at = |p: usize| PAPER_THREADS.iter().position(|&x| x == p).unwrap();
    for name in ["Cilk", "OMP3 tasks", "SMPSs"] {
        let col = table.column(name);
        assert!((col[at(1)] - 1.0).abs() < 1e-9, "{name} normalised to 1");
        assert!(
            col[at(32)] > 8.0,
            "{name} must scale well against itself (got {:.1})",
            col[at(32)]
        );
        assert!(
            col.windows(2).all(|w| w[1] >= w[0] * 0.9),
            "{name}'s scalability curve should be near-monotone"
        );
    }
    println!("shape checks passed: all three models scale against themselves.");
}
