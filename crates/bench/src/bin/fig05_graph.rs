//! Figure 5: the task dependency graph created by a 6x6 block Cholesky.
//!
//! Reproduces and checks the paper's exact claims: 56 tasks, true
//! dependencies only, and "after running tasks 1 and 6, the runtime is
//! able to start executing task 51". Writes the Graphviz rendering to
//! `fig05_cholesky_6x6.dot`.

use std::collections::BTreeSet;

use smpss::TaskId;
use smpss_bench::record::cholesky_hyper_graph;

fn main() {
    let g = cholesky_hyper_graph(6);
    g.validate().expect("recorded graph must be a forward DAG");

    println!("# Figure 5 — task graph of the 6x6 blocked Cholesky (Fig. 4 code)");
    println!("tasks:         {}", g.node_count());
    println!(
        "true edges:    {} ({} unique pairs)",
        g.edge_count(),
        g.unique_edge_count()
    );
    println!("roots:         {:?}", g.roots());
    let hist = g.histogram();
    for (name, count) in &hist {
        println!("  {name:<10} x{count}");
    }

    // Paper claim: only 56 tasks.
    assert_eq!(g.node_count(), 56, "paper: 6x6 Cholesky generates 56 tasks");
    // Paper claim: parallelism between distant code: T51 after T1 and T6.
    let finished: BTreeSet<TaskId> = [TaskId(1), TaskId(6)].into_iter().collect();
    assert!(
        g.ready_after(TaskId(51), &finished),
        "paper: task 51 must be ready once tasks 1 and 6 have run"
    );
    println!(
        "\npredecessors of T51: {:?}  (T6 is strsm(A[0][0], A[5][0]), which depends on T1 = spotrf(A[0][0]))",
        g.predecessors(TaskId(51))
    );
    println!("predecessors of T6:  {:?}", g.predecessors(TaskId(6)));
    println!("=> after tasks 1 and 6, task 51 can start — out of 56 total. [matches §IV]");

    let dot = g.to_dot();
    let path = "fig05_cholesky_6x6.dot";
    std::fs::write(path, &dot).expect("write dot file");
    println!(
        "\nDOT written to {path} ({} bytes); render with `dot -Tpdf`.",
        dot.len()
    );
}
