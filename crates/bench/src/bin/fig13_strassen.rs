//! Figure 13: blocked Strassen on 8192x8192 (512x512 blocks) — Gflop/s
//! vs threads, SMPSs only.
//!
//! Expected shape (paper): "much smoother response to varying the number
//! of threads" than the plain multiply (the less linearised graph allows
//! more work-stealing and prevents starvation), but a lower absolute
//! rate: renaming allocations plus bandwidth-bound add/sub kernels.

use smpss_bench::calibrate::Calibration;
use smpss_bench::record::{matmul_flat_graph, strassen_graph};
use smpss_bench::series::Table;
use smpss_bench::PAPER_THREADS;
use smpss_blas::flops;
use smpss_sim::models::gflops;
use smpss_sim::{simulate, MachineConfig, SimGraph};

fn main() {
    let quick = smpss_bench::quick_mode();
    let matrix = if quick { 4096 } else { 8192 };
    let bs = 512;
    let n = matrix / bs; // 16 blocks, recursion 16 -> 8 -> ... -> cutoff
    let cutoff = 2;
    let cal = if quick {
        Calibration::default()
    } else {
        Calibration::measure()
    };
    // "The Gflops figures have been calculated using Strassen's formula".
    let total_flops = flops::strassen_total(matrix, cutoff * bs);
    println!(
        "# Figure 13 — Strassen {matrix}x{matrix}, blocks {bs}x{bs}, cutoff {cutoff} blocks\n"
    );

    let record = strassen_graph(n, cutoff);
    println!(
        "graph: {} tasks, {} edges (all true deps)\n",
        record.node_count(),
        record.unique_edge_count()
    );

    let mut table = Table::new(
        "Fig 13: Strassen Gflop/s vs threads",
        "threads",
        &["SMPSs + Goto tiles", "SMPSs + MKL tiles", "Peak"],
    );
    for &p in PAPER_THREADS {
        let cfg = MachineConfig::with_threads(p);
        let s_goto = {
            let g = SimGraph::from_record(&record, |name| cal.tuned.task_cost_us(name, bs));
            gflops(total_flops, simulate(&g, &cfg).makespan_us)
        };
        let s_mkl = {
            let g = SimGraph::from_record(&record, |name| cal.reference.task_cost_us(name, bs));
            gflops(total_flops, simulate(&g, &cfg).makespan_us)
        };
        table.row(
            p as f64,
            vec![s_goto, s_mkl, p as f64 * cal.tuned.gemm_gflops],
        );
    }
    table.print();

    // Shape checks vs the plain multiply (Fig. 12 comparison in §VI.C).
    let strassen = table.column("SMPSs + Goto tiles");
    let mm_record = matmul_flat_graph(n);
    let eff_drop = |vals: &[f64]| {
        // Worst per-step efficiency ratio: 1.0 = perfectly smooth.
        let mut worst = f64::INFINITY;
        for i in 1..vals.len() {
            let e0 = vals[i - 1] / PAPER_THREADS[i - 1] as f64;
            let e1 = vals[i] / PAPER_THREADS[i] as f64;
            worst = worst.min(e1 / e0);
        }
        worst
    };
    let mm_vals: Vec<f64> = PAPER_THREADS
        .iter()
        .map(|&p| {
            let g = SimGraph::from_record(&mm_record, |name| cal.tuned.task_cost_us(name, bs));
            gflops(
                flops::matmul_total(matrix),
                simulate(&g, &MachineConfig::with_threads(p)).makespan_us,
            )
        })
        .collect();
    let smooth_strassen = eff_drop(&strassen);
    let smooth_mm = eff_drop(&mm_vals);
    println!(
        "smoothness (worst step-efficiency ratio): Strassen {smooth_strassen:.3} vs matmul {smooth_mm:.3}"
    );
    assert!(
        smooth_strassen > smooth_mm,
        "paper: Strassen responds more smoothly to the thread count than the multiply"
    );
    let at = |p: usize| PAPER_THREADS.iter().position(|&x| x == p).unwrap();
    assert!(
        strassen[at(32)] < mm_vals[at(32)],
        "paper: Strassen's Gflop/s stay below the multiply's (renaming + bandwidth)"
    );
    assert!(
        strassen[at(32)] > strassen[at(8)] * 1.8,
        "Strassen must keep scaling to 32 threads"
    );
}
