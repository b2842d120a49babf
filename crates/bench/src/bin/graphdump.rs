//! `graphdump` — record the task graph of any paper workload and emit it
//! as a summary, DOT, or the `smpss` text format (loadable by
//! `GraphRecord::from_text` for offline simulation).
//!
//! ```text
//! graphdump <workload> [size] [--dot|--text]
//!
//! workloads:
//!   cholesky-hyper N    Figure 4, N blocks per dimension
//!   cholesky-flat  N    Figure 9 (with get/put tasks)
//!   matmul-flat    N    §VI.B flat multiply
//!   strassen       N    §VI.C (power-of-two blocks, cutoff 1)
//!   multisort      N    Figure 7, N elements
//!   nqueens        N    §VI.E (last 4 levels as tasks)
//!   lu             N    blocked LU, N blocks
//! ```

use smpss::GraphRecord;
use smpss_apps::sort::SortParams;
use smpss_bench::record;

fn usage() -> ! {
    eprintln!(
        "usage: graphdump <cholesky-hyper|cholesky-flat|matmul-flat|strassen|multisort|nqueens|lu> [size] [--dot|--text]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let size: usize = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(match workload {
            "multisort" => 1 << 14,
            "nqueens" => 9,
            _ => 8,
        });

    let g: GraphRecord = match workload {
        "cholesky-hyper" => record::cholesky_hyper_graph(size),
        "cholesky-flat" => record::cholesky_flat_graph(size),
        "matmul-flat" => record::matmul_flat_graph(size),
        "strassen" => record::strassen_graph(size, 1),
        "multisort" => record::multisort_graph(
            size,
            SortParams {
                quick_size: (size / 16).max(4),
                merge_chunk: (size / 16).max(4),
            },
        ),
        "nqueens" => record::nqueens_graph(size, 4),
        "lu" => record::lu_hyper_graph(size),
        _ => usage(),
    };
    g.validate().expect("recorded graph must validate");

    if args.iter().any(|a| a == "--dot") {
        print!("{}", g.to_dot());
    } else if args.iter().any(|a| a == "--text") {
        print!("{}", g.to_text());
    } else {
        println!("workload:   {workload} (size {size})");
        println!("tasks:      {}", g.node_count());
        println!(
            "edges:      {} ({} unique pairs)",
            g.edge_count(),
            g.unique_edge_count()
        );
        println!("roots:      {}", g.roots().len());
        println!(
            "parallelism (work/span, unit costs): {:.2}",
            g.max_parallelism(|_| 1.0)
        );
        println!("task types:");
        for (name, count) in g.histogram() {
            println!("  {name:<14} x{count}");
        }
    }
}
