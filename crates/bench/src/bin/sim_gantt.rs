//! Visualise the simulated §III schedule of a small Cholesky as a text
//! Gantt chart, and export the virtual trace in the same Paraver-style
//! format the real tracing runtime emits.
//!
//! ```text
//! sim_gantt [n_blocks] [threads] [block_size]
//! ```

use smpss_bench::calibrate::Calibration;
use smpss_bench::record::cholesky_hyper_graph;
use smpss_sim::{simulate_with_schedule, MachineConfig, SimGraph};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    let threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let bs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);

    let cal = Calibration::default();
    let record = cholesky_hyper_graph(n);
    let graph = SimGraph::from_record(&record, |name| cal.tuned.task_cost_us(name, bs));
    let cfg = MachineConfig::with_threads(threads);
    let (res, sched) = simulate_with_schedule(&graph, &cfg);
    sched
        .validate()
        .expect("simulated schedule must be feasible");

    println!(
        "Cholesky {n}x{n} blocks of {bs} on {threads} virtual threads: {} tasks, makespan {:.1} ms",
        graph.node_count(),
        res.makespan_us / 1e3
    );
    println!(
        "utilization {:.0}%, {} steals, {} locality hits\n",
        res.utilization() * 100.0,
        res.steals,
        res.locality_hits
    );
    println!("{}", sched.gantt(100));
    println!("('#' = locally scheduled task, 'x' = stolen task)");

    let path = "cholesky_sim.prv";
    std::fs::write(path, sched.to_paraver()).expect("write virtual trace");
    println!("virtual Paraver trace written to {path}");
}
