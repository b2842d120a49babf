//! The tracing runtime (§VII.C): capture per-thread events during a
//! Cholesky factorisation, print the activity summary, and export a
//! Paraver-style `.prv` file for post-mortem inspection.
//!
//! Run with: `cargo run --release --example trace_demo`

use smpss::Runtime;
use smpss_apps::cholesky::cholesky_hyper;
use smpss_apps::{FlatMatrix, HyperMatrix};
use smpss_blas::Vendor;

fn main() {
    let threads = 4;
    let rt = Runtime::builder().threads(threads).tracing(true).build();

    let n = 8;
    let m = 48;
    let spd = FlatMatrix::random_spd(n * m, 3);
    let a = HyperMatrix::from_flat(&rt, &spd, m);
    cholesky_hyper(&rt, &a, Vendor::Tuned);
    rt.barrier();

    let trace = rt.take_trace().expect("tracing was enabled");
    println!(
        "trace: {} events over {:.2} ms on {} threads, utilization {:.1}%",
        trace.events().len(),
        trace.span_ns() as f64 / 1e6,
        trace.thread_count(),
        trace.utilization() * 100.0
    );
    for (t, s) in trace.summaries().iter().enumerate() {
        println!(
            "  thread {t}: {:>4} tasks, busy {:>8.2} ms, {:>3} steals{}",
            s.tasks_run,
            s.busy_ns as f64 / 1e6,
            s.steals,
            if t == 0 {
                "   (main: spawns, helps at the barrier)"
            } else {
                ""
            }
        );
    }

    println!("per-task-type profile:");
    for (name, (count, ns)) in trace.type_histogram() {
        println!(
            "  {name:<10} x{count:<5} total {:>8.2} ms  avg {:>7.1} µs",
            ns as f64 / 1e6,
            ns as f64 / count as f64 / 1e3
        );
    }

    let prv = trace.to_paraver();
    std::fs::write("cholesky_trace.prv", &prv).expect("write trace");
    println!(
        "wrote cholesky_trace.prv ({} records) — Paraver-style state/event lines",
        prv.lines().count()
    );
}
