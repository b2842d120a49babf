//! §VI.E: N Queens. The point of this example is the **partial solution
//! array**: the SMPSs version keeps writing prefixes into one logical
//! array while spawned subtree tasks still read their snapshots — the
//! runtime renames instead of blocking, so the program needs none of the
//! hand-made copies the Cilk/OpenMP versions carry.
//!
//! Run with: `cargo run --release --example nqueens [n]`

use smpss::Runtime;
use smpss_apps::nqueens::{nqueens_seq, nqueens_smpss};
use smpss_baselines::{cilk, omp_tasks};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    println!("N Queens, n = {n}");

    let t0 = std::time::Instant::now();
    let seq = nqueens_seq(n);
    println!(
        "sequential:     {seq} solutions  ({:.1} ms)",
        t0.elapsed().as_secs_f64() * 1e3
    );

    let rt = Runtime::builder().threads(4).build();
    let t0 = std::time::Instant::now();
    let smpss = nqueens_smpss(&rt, n, 4);
    let stats = rt.stats();
    println!(
        "SMPSs:          {smpss} solutions  ({:.1} ms, {} tasks, {} renames — the automatic copies)",
        t0.elapsed().as_secs_f64() * 1e3,
        stats.tasks_spawned,
        stats.renames
    );

    let pool = cilk::pool(4);
    let t0 = std::time::Instant::now();
    let ck = cilk::nqueens(&pool, n);
    println!(
        "Cilk-like:      {ck} solutions  ({:.1} ms, hand-copied array per spawn)",
        t0.elapsed().as_secs_f64() * 1e3
    );

    let pool = omp_tasks::pool(4);
    let t0 = std::time::Instant::now();
    let omp = omp_tasks::nqueens(&pool, n, 4);
    println!(
        "OMP3-like:      {omp} solutions  ({:.1} ms, central queue, sequential last-4-levels)",
        t0.elapsed().as_secs_f64() * 1e3
    );

    assert_eq!(seq, smpss);
    assert_eq!(seq, ck);
    assert_eq!(seq, omp);
    println!("all four agree.");
}
