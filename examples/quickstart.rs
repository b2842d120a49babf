//! Quickstart: the paper's Figure 1 — dense hyper-matrix multiplication.
//!
//! ```text
//! for (i) for (j) for (k) sgemm_t(A[i][k], B[k][j], C[i][j]);
//! ```
//!
//! The program reads sequentially; the runtime discovers the N² chains of
//! N dependent gemms and runs independent chains in parallel.
//!
//! Run with: `cargo run --release --example quickstart`

use smpss::Runtime;
use smpss_apps::matmul::matmul_hyper;
use smpss_apps::{FlatMatrix, HyperMatrix};
use smpss_blas::Vendor;

fn main() {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let rt = Runtime::builder().threads(threads).build();
    println!(
        "SMPSs runtime with {threads} threads (1 main + {} workers)",
        threads - 1
    );

    // A 512x512 multiply tiled into 8x8 blocks of 64x64 elements.
    let (n, m) = (8, 64);
    let af = FlatMatrix::random(n * m, 1);
    let bf = FlatMatrix::random(n * m, 2);
    let a = HyperMatrix::from_flat(&rt, &af, m);
    let b = HyperMatrix::from_flat(&rt, &bf, m);
    let c = HyperMatrix::dense_zeros(&rt, n, m);

    let t0 = std::time::Instant::now();
    matmul_hyper(&rt, &a, &b, &c, Vendor::Tuned); // looks sequential…
    rt.barrier(); // …runs as N³ dependency-scheduled tasks
    let dt = t0.elapsed();

    let stats = rt.stats();
    println!(
        "{} tasks ({} expected), {} true edges, {} steals, {:.1} ms",
        stats.tasks_spawned,
        n * n * n,
        stats.true_edges,
        stats.steals,
        dt.as_secs_f64() * 1e3
    );

    // Verify against the sequential reference.
    let expect = FlatMatrix::multiply_ref(&af, &bf);
    let got = c.to_flat(&rt);
    let err = got.max_abs_diff(&expect);
    println!("max |Δ| vs sequential reference: {err:.2e}");
    assert!(err < 1e-2);
    println!("ok — same result as the sequential program, computed in parallel.");
}
