//! Calibration: measure real single-core rates on this machine so the
//! simulator's task costs are grounded in executed kernels, not guesses.

use std::time::Instant;

use smpss_blas::{flops, Block, Vendor};
use smpss_sim::models::KernelRates;

/// Measured machine characteristics feeding the cost models.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Rates with the tuned ("Goto tiles") kernels.
    pub tuned: KernelRates,
    /// Rates with the reference ("MKL tiles") kernels.
    pub reference: KernelRates,
    /// Sequential sort throughput, ns per element per log2(n) level.
    pub sort_ns_per_elem_level: f64,
    /// Sequential merge throughput, ns per element.
    pub merge_ns_per_elem: f64,
    /// N Queens search throughput, ns per explored tree node.
    pub nqueens_ns_per_node: f64,
}

impl Default for Calibration {
    /// Paper-ballpark defaults (1.6 GHz Itanium2 class), used when
    /// measurement is skipped.
    fn default() -> Self {
        Calibration {
            tuned: KernelRates {
                gemm_gflops: 5.6,
                mem_gbps: 2.0,
            },
            reference: KernelRates {
                gemm_gflops: 4.2,
                mem_gbps: 2.0,
            },
            sort_ns_per_elem_level: 3.0,
            merge_ns_per_elem: 4.0,
            nqueens_ns_per_node: 60.0,
        }
    }
}

fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

impl Calibration {
    /// Measure everything (takes on the order of a second).
    pub fn measure() -> Self {
        let m = 192;
        let a = Block::random(m, 1);
        let b = Block::random(m, 2);
        let mut c = Block::zeros(m);
        let gemm_secs_tuned = best_of(3, || Vendor::Tuned.gemm_add(&a, &b, &mut c));
        let gemm_secs_ref = best_of(3, || Vendor::Reference.gemm_add(&a, &b, &mut c));
        let gflops_tuned = flops::gemm(m) / gemm_secs_tuned / 1e9;
        let gflops_ref = flops::gemm(m) / gemm_secs_ref / 1e9;

        // Memory rate: block clone_from (read + write).
        let src = Block::random(512, 3);
        let mut dst = Block::zeros(512);
        let copy_secs = best_of(5, || dst.as_mut_slice().copy_from_slice(src.as_slice()));
        let mem_gbps = (2.0 * 4.0 * 512.0 * 512.0) / copy_secs / 1e9;

        // Sort rate.
        let n = 1 << 17;
        let input = smpss_apps::sort::random_input(n, 7);
        let mut work = input.clone();
        let sort_secs = best_of(2, || {
            work.copy_from_slice(&input);
            smpss_apps::sort::seq_sort(&mut work);
        });
        let sort_ns_per_elem_level = sort_secs * 1e9 / (n as f64 * (n as f64).log2());

        // Merge rate.
        let half: Vec<i64> = (0..n as i64 / 2).map(|x| x * 2).collect();
        let other: Vec<i64> = (0..n as i64 / 2).map(|x| x * 2 + 1).collect();
        let mut out = vec![0i64; n];
        let merge_secs = best_of(3, || smpss_apps::sort::seq_merge(&half, &other, &mut out));
        let merge_ns_per_elem = merge_secs * 1e9 / n as f64;

        // N Queens node rate.
        let nq = 10;
        let nodes = count_search_nodes(nq) as f64;
        let nq_secs = best_of(2, || {
            let _ = smpss_apps::nqueens::nqueens_seq(nq);
        });
        let nqueens_ns_per_node = nq_secs * 1e9 / nodes;

        Calibration {
            tuned: KernelRates {
                gemm_gflops: gflops_tuned,
                mem_gbps,
            },
            reference: KernelRates {
                gemm_gflops: gflops_ref,
                mem_gbps,
            },
            sort_ns_per_elem_level,
            merge_ns_per_elem,
            nqueens_ns_per_node,
        }
    }

    /// Cost (µs) of one `seqquick` task over `len` elements.
    pub fn seqquick_us(&self, len: usize) -> f64 {
        let lf = len.max(2) as f64;
        self.sort_ns_per_elem_level * lf * lf.log2() / 1e3
    }

    /// Cost (µs) of one `seqmerge` chunk task over `len` output elements
    /// (includes the two rank binary searches — logarithmic, negligible).
    pub fn seqmerge_us(&self, len: usize) -> f64 {
        self.merge_ns_per_elem * len as f64 / 1e3
    }
}

/// Number of nodes the sequential N Queens backtracker visits (valid
/// prefixes, including the root's children attempts that pass `safe`).
pub fn count_search_nodes(n: usize) -> u64 {
    fn rec(sol: &mut [u32], row: usize, n: usize) -> u64 {
        if row == n {
            return 1;
        }
        let mut nodes = 1; // this prefix
        for col in 0..n as u32 {
            if smpss_apps::nqueens::safe(sol, row, col) {
                sol[row] = col;
                nodes += rec(sol, row + 1, n);
            }
        }
        nodes
    }
    let mut sol = vec![0u32; n];
    rec(&mut sol, 0, n) - 1 // exclude the root itself
}

/// Per-prefix subtree node counts, in the spawn order of
/// `smpss_apps::nqueens::nqueens_smpss` — used to give each recorded
/// `explore_t` its own cost.
pub fn explore_subtree_nodes(n: usize, task_levels: usize) -> Vec<u64> {
    fn subtree(sol: &mut [u32], row: usize, n: usize) -> u64 {
        if row == n {
            return 1;
        }
        let mut nodes = 1;
        for col in 0..n as u32 {
            if smpss_apps::nqueens::safe(sol, row, col) {
                sol[row] = col;
                nodes += subtree(sol, row + 1, n);
            }
        }
        nodes
    }
    fn walk(sol: &mut Vec<u32>, depth: usize, split: usize, n: usize, out: &mut Vec<u64>) {
        if depth == split {
            out.push(subtree(&mut sol.clone(), depth, n));
            return;
        }
        for col in 0..n as u32 {
            if smpss_apps::nqueens::safe(sol, depth, col) {
                sol[depth] = col;
                walk(sol, depth + 1, split, n, out);
            }
        }
    }
    let split = n.saturating_sub(task_levels);
    let mut out = Vec::new();
    walk(&mut vec![0u32; n], 0, split, n, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Calibration::default();
        assert!(c.tuned.gemm_gflops > c.reference.gemm_gflops);
        assert!(c.seqquick_us(1024) > 0.0);
        assert!(c.seqmerge_us(1024) > 0.0);
    }

    #[test]
    fn measure_produces_positive_rates() {
        let c = Calibration::measure();
        assert!(c.tuned.gemm_gflops > 0.05);
        assert!(c.reference.gemm_gflops > 0.01);
        assert!(c.tuned.mem_gbps > 0.05);
        assert!(c.sort_ns_per_elem_level > 0.0);
        assert!(c.nqueens_ns_per_node > 0.0);
    }

    #[test]
    fn search_node_counts() {
        // Tree sizes are stable facts of the algorithm.
        assert_eq!(count_search_nodes(4), 16);
        assert!(count_search_nodes(8) > 2000);
    }

    #[test]
    fn explore_costs_align_with_task_count() {
        // The number of explore tasks equals the number of valid prefixes
        // at the split depth; their subtree sizes sum to the whole tree.
        let n = 8;
        let sizes = explore_subtree_nodes(n, 4);
        let rt = smpss::Runtime::builder().threads(1).build();
        let count = smpss_apps::nqueens::nqueens_smpss(&rt, n, 4);
        assert_eq!(count, 92);
        let g_explorers = rt.stats().tasks_spawned;
        // tasks = set_cell (one per valid prefix above split) + explorers.
        assert!(g_explorers as usize > sizes.len());
        assert!(!sizes.is_empty());
    }
}
