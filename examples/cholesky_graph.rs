//! Figure 5 live: factorise a 6x6-block SPD hyper-matrix, record the task
//! graph, print its structure and write the Graphviz rendering.
//!
//! Run with: `cargo run --release --example cholesky_graph`

use std::collections::BTreeSet;

use smpss::{Runtime, TaskId};
use smpss_apps::cholesky::cholesky_hyper;
use smpss_apps::{FlatMatrix, HyperMatrix};
use smpss_blas::Vendor;

fn main() {
    let rt = Runtime::builder().threads(4).record_graph(true).build();

    let n = 6;
    let m = 16;
    let spd = FlatMatrix::random_spd(n * m, 7);
    let a = HyperMatrix::from_flat(&rt, &spd, m);
    cholesky_hyper(&rt, &a, Vendor::Tuned);
    rt.barrier();

    // Check the factorisation is real before talking about the graph.
    let mut expect = spd.clone();
    expect.cholesky_ref();
    let got = a.to_flat(&rt);
    assert!(got.max_abs_diff_lower(&expect) / spd.frob_norm() < 1e-4);

    let g = rt.graph().expect("graph recording was enabled");
    println!("6x6 blocked Cholesky: {} tasks (paper: 56)", g.node_count());
    for (name, count) in g.histogram() {
        println!("  {name:<10} x{count}");
    }
    println!("unique dependency edges: {}", g.unique_edge_count());

    // The §IV claim: distant parallelism.
    let done: BTreeSet<TaskId> = [TaskId(1), TaskId(6)].into_iter().collect();
    println!(
        "task 51 ready after only tasks 1 and 6: {}",
        g.ready_after(TaskId(51), &done)
    );
    println!(
        "graph parallelism (work/span at unit cost): {:.2}",
        g.max_parallelism(|_| 1.0)
    );

    let path = "cholesky_6x6.dot";
    std::fs::write(path, g.to_dot()).expect("write DOT");
    println!("wrote {path}; render with: dot -Tpdf {path} -o cholesky.pdf");
}
