//! Synthetic fork-join DAGs for the Cilk-like and OpenMP-3.0-like
//! baselines of Figures 14–16.
//!
//! The baseline runtimes create tasks dynamically inside running tasks,
//! so their graphs cannot be recorded by the SMPSs runtime; instead the
//! spawn/sync structure is constructed directly (it is deterministic for
//! both applications). Costs carry the baselines' characteristic
//! overhead: the hand-made copy of the partial N Queens solution at
//! every task entrance.
//!
//! The fork-join runtimes have no serial spawn bottleneck (parents spawn
//! their own children), so these DAGs are simulated with
//! `spawn_overhead_us = 0` and per-task spawn costs folded into node
//! costs.

use smpss_apps::nqueens::safe;
use smpss_sim::graph::DagBuilder;
use smpss_sim::SimGraph;

use crate::calibrate::Calibration;

/// Cost parameters of a fork-join baseline.
#[derive(Clone, Copy, Debug)]
pub struct FjCosts {
    /// Per-task runtime overhead (spawn + schedule), µs.
    pub task_overhead_us: f64,
    /// Copying one solution-array element, µs (the §VI.E hand copies).
    pub copy_per_elem_us: f64,
}

impl Default for FjCosts {
    fn default() -> Self {
        FjCosts {
            task_overhead_us: 0.3,
            copy_per_elem_us: 0.008,
        }
    }
}

/// Build the Cilk/OpenMP multisort DAG over `n` elements: quadrisection
/// sort tasks, sync, pairwise divide-and-conquer merges. Returns the DAG;
/// the caller picks the scheduling policy (work-stealing = Cilk, central
/// queue = OpenMP 3.0).
pub fn forkjoin_multisort(
    n: usize,
    quick_size: usize,
    merge_size: usize,
    cal: &Calibration,
    fj: &FjCosts,
) -> SimGraph {
    let mut b = DagBuilder::new();
    let _root = sort_node(&mut b, n, quick_size, merge_size, cal, fj, &mut Vec::new());
    b.build()
}

/// Recursively build the sort of one range; returns the node whose
/// completion means "this range is sorted".
fn sort_node(
    b: &mut DagBuilder,
    n: usize,
    quick: usize,
    merge: usize,
    cal: &Calibration,
    fj: &FjCosts,
    _stack: &mut Vec<usize>,
) -> usize {
    if n <= quick.max(4) {
        return b.task("seqquick", cal.seqquick_us(n) + fj.task_overhead_us);
    }
    let q = n / 4;
    let parts = [q, q, q, n - 3 * q];
    let children: Vec<usize> = parts
        .iter()
        .map(|&s| sort_node(b, s, quick, merge, cal, fj, _stack))
        .collect();
    // sync, then two pair merges (data -> tmp), sync, final merge.
    let m1 = merge_node(b, parts[0] + parts[1], merge, cal, fj);
    let m2 = merge_node(b, parts[2] + parts[3], merge, cal, fj);
    b.join(&[children[0], children[1]], m1.0);
    b.join(&[children[2], children[3]], m2.0);
    let f = merge_node(b, n, merge, cal, fj);
    b.join(&[m1.1, m2.1], f.0);
    f.1
}

/// Build the divide-and-conquer merge of `n` elements; returns
/// (entry node, completion node).
fn merge_node(
    b: &mut DagBuilder,
    n: usize,
    merge: usize,
    cal: &Calibration,
    fj: &FjCosts,
) -> (usize, usize) {
    if n <= merge.max(2) {
        let t = b.task("seqmerge", cal.seqmerge_us(n) + fj.task_overhead_us);
        return (t, t);
    }
    // The splitting task does two binary searches, then spawns halves.
    let split = b.task("merge_split", 0.2 + fj.task_overhead_us);
    let left = merge_node(b, n / 2, merge, cal, fj);
    let right = merge_node(b, n - n / 2, merge, cal, fj);
    b.edge(split, left.0);
    b.edge(split, right.0);
    // Continuation after sync.
    let done = b.task("merge_join", 0.1);
    b.join(&[left.1, right.1], done);
    (split, done)
}

/// Build the fully recursive **Cilk** N Queens DAG: one task per valid
/// prefix, each paying the hand-made array copy. Returns the DAG.
pub fn cilk_nqueens(n: usize, cal: &Calibration, fj: &FjCosts) -> SimGraph {
    let mut b = DagBuilder::new();
    let per_node_work = cal.nqueens_ns_per_node / 1e3;
    let root = b.task("queens", fj.task_overhead_us + per_node_work);
    let mut sol = vec![0u32; n];
    build_queens_subtree(&mut b, root, &mut sol, 0, n, n, cal, fj, per_node_work);
    b.build()
}

/// The **OpenMP 3.0** N Queens DAG: recursive tasks down to the split
/// depth, then one sequential leaf task per surviving prefix.
pub fn omp_nqueens(n: usize, seq_levels: usize, cal: &Calibration, fj: &FjCosts) -> SimGraph {
    let mut b = DagBuilder::new();
    let per_node_work = cal.nqueens_ns_per_node / 1e3;
    let split = n.saturating_sub(seq_levels);
    let root = b.task("queens", fj.task_overhead_us + per_node_work);
    let mut sol = vec![0u32; n];
    build_queens_subtree(&mut b, root, &mut sol, 0, split, n, cal, fj, per_node_work);
    b.build()
}

#[allow(clippy::too_many_arguments)]
fn build_queens_subtree(
    b: &mut DagBuilder,
    parent: usize,
    sol: &mut Vec<u32>,
    row: usize,
    split: usize,
    n: usize,
    cal: &Calibration,
    fj: &FjCosts,
    per_node_work: f64,
) {
    if row == n {
        return;
    }
    if row == split && split < n {
        // Sequential leaf exploring the whole remaining subtree.
        let nodes = subtree_nodes(&mut sol.clone(), row, n);
        let cost = fj.task_overhead_us
            + fj.copy_per_elem_us * n as f64
            + nodes as f64 * cal.nqueens_ns_per_node / 1e3;
        let leaf = b.task("queens_leaf", cost);
        b.edge(parent, leaf);
        return;
    }
    for col in 0..n as u32 {
        if safe(sol, row, col) {
            sol[row] = col;
            let cost = fj.task_overhead_us + fj.copy_per_elem_us * n as f64 + per_node_work;
            let child = b.task("queens", cost);
            b.edge(parent, child);
            build_queens_subtree(b, child, sol, row + 1, split, n, cal, fj, per_node_work);
        }
    }
}

fn subtree_nodes(sol: &mut [u32], row: usize, n: usize) -> u64 {
    if row == n {
        return 1;
    }
    let mut nodes = 1;
    for col in 0..n as u32 {
        if safe(sol, row, col) {
            sol[row] = col;
            nodes += subtree_nodes(sol, row + 1, n);
        }
    }
    nodes
}

/// Total sequential sort work (µs) — the Figure 14 speedup denominator.
pub fn multisort_seq_work_us(n: usize, quick: usize, cal: &Calibration) -> f64 {
    // The sequential multisort does the same quicksorts + merge passes
    // without any task overhead: model it as the DAG's work minus
    // overheads, i.e. quicksort leaves + ~log4 full merge sweeps... The
    // simplest faithful denominator: measure-equivalent analytic cost of
    // the same recursion.
    fn rec(n: usize, quick: usize, cal: &Calibration) -> f64 {
        if n <= quick.max(4) {
            return cal.seqquick_us(n);
        }
        let q = n / 4;
        let parts = [q, q, q, n - 3 * q];
        let children: f64 = parts.iter().map(|&s| rec(s, quick, cal)).sum();
        children
            + cal.seqmerge_us(parts[0] + parts[1])
            + cal.seqmerge_us(parts[2] + parts[3])
            + cal.seqmerge_us(n)
    }
    rec(n, quick, cal)
}

/// Total sequential N Queens work (µs) — the Figure 15 denominator.
pub fn nqueens_seq_work_us(n: usize, cal: &Calibration) -> f64 {
    crate::calibrate::count_search_nodes(n) as f64 * cal.nqueens_ns_per_node / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpss_sim::{simulate, MachineConfig};

    fn cal() -> Calibration {
        Calibration::default()
    }

    fn fj_machine(threads: usize) -> MachineConfig {
        let mut c = MachineConfig::with_threads(threads);
        c.spawn_overhead_us = 0.0; // fork-join runtimes have no serial spawner
        c.dispatch_overhead_us = 0.0; // overhead lives in node costs
        c
    }

    #[test]
    fn multisort_dag_is_schedulable_and_scales() {
        let g = forkjoin_multisort(1 << 14, 512, 512, &cal(), &FjCosts::default());
        let t1 = simulate(&g, &fj_machine(1)).makespan_us;
        let t8 = simulate(&g, &fj_machine(8)).makespan_us;
        assert!(t8 < t1 / 3.0, "t1={t1} t8={t8}");
    }

    #[test]
    fn cilk_nqueens_dag_counts_prefixes() {
        let g = cilk_nqueens(6, &cal(), &FjCosts::default());
        // One task per valid prefix + root.
        assert_eq!(
            g.node_count() as u64,
            crate::calibrate::count_search_nodes(6) + 1
        );
        let r = simulate(&g, &fj_machine(4));
        assert_eq!(r.total_executed(), g.node_count());
    }

    #[test]
    fn omp_nqueens_has_fewer_tasks_than_cilk() {
        let c = cilk_nqueens(8, &cal(), &FjCosts::default());
        let o = omp_nqueens(8, 4, &cal(), &FjCosts::default());
        assert!(o.node_count() < c.node_count());
    }

    #[test]
    fn copy_overhead_penalises_baselines_at_one_thread() {
        // Figure 15's key claim: vs the *sequential* solver, the
        // copy-burdened baselines lose at 1 thread.
        let n = 8;
        let seq = nqueens_seq_work_us(n, &cal());
        let g = cilk_nqueens(n, &cal(), &FjCosts::default());
        let t1 = simulate(&g, &fj_machine(1)).makespan_us;
        assert!(
            t1 > seq,
            "Cilk at 1 thread must be slower than sequential (t1={t1}, seq={seq})"
        );
    }

    #[test]
    fn seq_work_denominators_positive() {
        assert!(multisort_seq_work_us(1 << 14, 512, &cal()) > 0.0);
        assert!(nqueens_seq_work_us(8, &cal()) > 0.0);
    }
}
