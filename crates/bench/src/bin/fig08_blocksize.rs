//! Figure 8: Cholesky Gflop/s on 32 threads vs block size
//! (8192x8192 single-precision matrix; flat variant with on-demand block
//! copies, as in §VI.A).
//!
//! Expected shape (paper): collapse at 32/64 blocks (per-task work too
//! small next to the cost of managing 374,272 tasks), a broad healthy
//! plateau at 128–512, and a drop at 1024–2048 from lost parallelism.

use smpss_bench::calibrate::Calibration;
use smpss_bench::record::cholesky_flat_graph;
use smpss_bench::series::Table;
use smpss_blas::{flops, kernels};
use smpss_sim::models::gflops;
use smpss_sim::{simulate, MachineConfig, SimGraph};

fn main() {
    let quick = smpss_bench::quick_mode();
    let matrix = if quick { 2048 } else { 8192 };
    let threads = 32;
    let cal = if quick {
        Calibration::default()
    } else {
        Calibration::measure()
    };
    println!(
        "# Figure 8 — Cholesky on {threads} threads, {matrix}x{matrix} f32, varying block size"
    );
    println!(
        "# calibration: tuned {:.2} Gflop/s, reference {:.2} Gflop/s per core; \
         tuned kernel instance on this CPU: {}\n",
        cal.tuned.gemm_gflops,
        cal.reference.gemm_gflops,
        kernels::instance()
    );

    let mut table = Table::new(
        "Fig 8: Cholesky Gflop/s vs block size (32 threads)",
        "block",
        &["SMPSs + Goto tiles", "SMPSs + MKL tiles", "tasks"],
    );

    let block_sizes: &[usize] = if quick {
        &[32, 64, 128, 256, 512, 1024]
    } else {
        &[32, 64, 128, 256, 512, 1024, 2048]
    };
    let total_flops = flops::cholesky_total(matrix);
    for &bs in block_sizes {
        let n = matrix / bs;
        if n < 2 {
            continue;
        }
        let record = cholesky_flat_graph(n);
        let cfg = MachineConfig::with_threads(threads);
        let mut row = Vec::new();
        for rates in [cal.tuned, cal.reference] {
            let g = SimGraph::from_record(&record, |name| rates.task_cost_us(name, bs));
            let res = simulate(&g, &cfg);
            row.push(gflops(total_flops, res.makespan_us));
        }
        row.push(record.node_count() as f64);
        table.row(bs as f64, row);
    }
    table.print();
    println!("peak of the paper's machine: 204.8 Gflop/s (32 x 6.4)");
    println!(
        "peak of this cost model:       {:.1} Gflop/s (32 x {:.2})",
        32.0 * cal.tuned.gemm_gflops,
        cal.tuned.gemm_gflops
    );

    // Shape assertions (who wins where), not absolute numbers.
    let goto = table.column("SMPSs + Goto tiles");
    let best = goto.iter().cloned().fold(0.0, f64::max);
    let best_idx = goto.iter().position(|&v| v == best).unwrap();
    let best_bs = table.rows[best_idx].0;
    println!("\nbest block size: {best_bs} ({best:.1} Gflop/s)");
    assert!(
        best_idx != 0 && best_idx != goto.len() - 1,
        "the sweet spot must be interior: small blocks drown in overhead, \
         big blocks lose parallelism (got index {best_idx})"
    );
    if !quick {
        assert!(
            (128.0..=512.0).contains(&best_bs),
            "paper: at 8192x8192 the sweet spot sits in 128..512 (got {best_bs})"
        );
    }
    assert!(
        goto[0] < best * 0.7,
        "paper: tiny blocks collapse under task-management overhead"
    );
    assert!(
        *goto.last().unwrap() < best * 0.8,
        "paper: big blocks lose parallelism"
    );
}
