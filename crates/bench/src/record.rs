//! Run the real applications on the real runtime (single thread,
//! structural block sizes) and record their task graphs.

use smpss::{GraphRecord, Runtime};
use smpss_apps::sort::SortParams;
use smpss_apps::{cholesky, lu, matmul, nqueens, strassen, FlatMatrix, HyperMatrix};
use smpss_blas::Vendor;

/// Structural block dimension: big enough for the kernels to be
/// numerically healthy, small enough that recording 10⁵–10⁶ tasks is
/// cheap. Graph *shape* depends only on the block count.
pub const STRUCT_M: usize = 2;

fn recording_runtime() -> Runtime {
    Runtime::builder().threads(1).record_graph(true).build()
}

/// Figure 4 dense hyper Cholesky graph with `n` blocks per dimension.
pub fn cholesky_hyper_graph(n: usize) -> GraphRecord {
    let rt = recording_runtime();
    let spd = FlatMatrix::random_spd(n * STRUCT_M, 11);
    let a = HyperMatrix::from_flat(&rt, &spd, STRUCT_M);
    cholesky::cholesky_hyper(&rt, &a, Vendor::Tuned);
    rt.barrier();
    rt.graph().expect("recording enabled")
}

/// Figure 9 flat Cholesky graph (with get/put tasks), `n` blocks.
pub fn cholesky_flat_graph(n: usize) -> GraphRecord {
    let rt = recording_runtime();
    let spd = FlatMatrix::random_spd(n * STRUCT_M, 12);
    let mut a = spd;
    let tasks = cholesky::cholesky_flat(&rt, &mut a, STRUCT_M, Vendor::Tuned);
    debug_assert_eq!(tasks, cholesky::flat_task_count(n));
    rt.graph().expect("recording enabled")
}

/// §VI.B flat matmul graph (with on-demand copies), `n` blocks.
pub fn matmul_flat_graph(n: usize) -> GraphRecord {
    let rt = recording_runtime();
    let a = FlatMatrix::random(n * STRUCT_M, 13);
    let b = FlatMatrix::random(n * STRUCT_M, 14);
    let mut c = FlatMatrix::zeros(n * STRUCT_M);
    let tasks = matmul::matmul_flat(&rt, &a, &b, &mut c, STRUCT_M, Vendor::Tuned);
    debug_assert_eq!(tasks, matmul::flat_task_count(n));
    rt.graph().expect("recording enabled")
}

/// §VI.C Strassen graph: `n` blocks per dimension (power of two),
/// recursing to `cutoff` blocks.
pub fn strassen_graph(n: usize, cutoff: usize) -> GraphRecord {
    let rt = recording_runtime();
    let af = FlatMatrix::random(n * STRUCT_M, 15);
    let bf = FlatMatrix::random(n * STRUCT_M, 16);
    let a = HyperMatrix::from_flat(&rt, &af, STRUCT_M);
    let b = HyperMatrix::from_flat(&rt, &bf, STRUCT_M);
    let c = HyperMatrix::dense_zeros(&rt, n, STRUCT_M);
    strassen::strassen(&rt, &a, &b, &c, Vendor::Tuned, cutoff);
    rt.barrier();
    rt.graph().expect("recording enabled")
}

/// §VI.D Multisort graph over `n` elements. Unlike the linear-algebra
/// graphs, the element count matters structurally, so record at the real
/// size (tasks are cheap: the runtime executes the actual sort).
pub fn multisort_graph(n: usize, params: SortParams) -> GraphRecord {
    let rt = recording_runtime();
    let input = smpss_apps::sort::random_input(n, 17);
    let _sorted = smpss_apps::sort::multisort(&rt, input, params);
    rt.graph().expect("recording enabled")
}

/// §VI.E N Queens graph (`set_cell_t` chain + `explore_t` leaves).
pub fn nqueens_graph(n: usize, task_levels: usize) -> GraphRecord {
    let rt = recording_runtime();
    let _count = nqueens::nqueens_smpss(&rt, n, task_levels);
    rt.barrier();
    rt.graph().expect("recording enabled")
}

/// Blocked-LU graph (extension workload), `n` blocks.
pub fn lu_hyper_graph(n: usize) -> GraphRecord {
    let rt = recording_runtime();
    let mut src = FlatMatrix::random(n * STRUCT_M, 18);
    for i in 0..n * STRUCT_M {
        src.set(i, i, src.at(i, i) + (n * STRUCT_M) as f32);
    }
    let a = HyperMatrix::from_flat(&rt, &src, STRUCT_M);
    lu::lu_hyper(&rt, &a, Vendor::Tuned);
    rt.barrier();
    rt.graph().expect("recording enabled")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_graphs_have_the_closed_form_counts() {
        assert_eq!(cholesky_hyper_graph(6).node_count(), 56); // Figure 5
        assert_eq!(
            cholesky_flat_graph(8).node_count(),
            cholesky::flat_task_count(8)
        );
    }

    #[test]
    fn matmul_flat_graph_counts() {
        assert_eq!(
            matmul_flat_graph(4).node_count(),
            matmul::flat_task_count(4)
        );
    }

    #[test]
    fn strassen_graph_has_renaming_free_edges() {
        let g = strassen_graph(4, 1);
        g.validate().unwrap();
        assert!(g.node_count() > 100);
        use smpss::graph::record::EdgeKind;
        assert!(g.edges().iter().all(|&(_, _, k)| k == EdgeKind::True));
    }

    #[test]
    fn multisort_graph_shapes() {
        let g = multisort_graph(
            4096,
            SortParams {
                quick_size: 256,
                merge_chunk: 256,
            },
        );
        g.validate().unwrap();
        let h = g.histogram();
        assert!(h["seqquick"] >= 16);
        assert!(h["seqmerge"] > h["seqquick"]);
    }

    #[test]
    fn nqueens_graph_shapes() {
        let g = nqueens_graph(7, 3);
        g.validate().unwrap();
        let h = g.histogram();
        assert!(h.contains_key("set_cell_t"));
        assert!(h.contains_key("explore_t"));
        let sizes = crate::calibrate::explore_subtree_nodes(7, 3);
        assert_eq!(h["explore_t"], sizes.len());
    }

    #[test]
    fn lu_graph_count() {
        assert_eq!(
            lu_hyper_graph(5).node_count(),
            smpss_apps::lu::hyper_task_count(5)
        );
    }
}
