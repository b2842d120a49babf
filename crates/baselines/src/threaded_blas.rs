//! "Threaded Goto" / "Threaded MKL" stand-ins (§VI.A, §VI.B).
//!
//! The paper's Figures 11–12 compare SMPSs against the multithreaded
//! builds of Goto BLAS and Intel MKL and observe that "the MKL
//! parallelization does not scale beyond 4 processors and the Goto
//! parallelization does not scale beyond 10 … we suspect their
//! implementations are limited by [the dependency complexity]".
//!
//! The structural cause is that a threaded BLAS parallelises each call
//! **internally** while the algorithm above it stays sequential: every
//! `potrf`/`trsm`/`gemm` call is a fork-join region with a barrier at the
//! end, dependent calls never overlap, and panel factorisations leave most
//! threads idle. This module implements exactly that structure — a
//! sequential blocked algorithm whose individual BLAS calls use
//! [`ForkJoinPool::parallel_for`] — so the saturation emerges from the
//! same mechanism rather than from a curve fit.

use smpss_blas::{Block, Vendor};

use crate::forkjoin::ForkJoinPool;
use smpss_apps::flat::FlatMatrix;

/// Shared-mutable matrix-of-blocks used inside one fork-join call.
/// Tasks touch disjoint blocks; indices derive from the parallel_for
/// induction variable.
struct BlockGrid {
    n: usize,
    blocks: Vec<parking_lot::Mutex<Block>>,
}

impl BlockGrid {
    fn from_flat(src: &FlatMatrix, m: usize) -> Self {
        let n = src.dim() / m;
        let mut blocks = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let mut b = Block::zeros(m);
                src.copy_block_out(m, i, j, &mut b);
                blocks.push(parking_lot::Mutex::new(b));
            }
        }
        BlockGrid { n, blocks }
    }

    fn to_flat(&self, m: usize) -> FlatMatrix {
        let mut out = FlatMatrix::zeros(self.n * m);
        for i in 0..self.n {
            for j in 0..self.n {
                out.copy_block_in(m, i, j, &self.blocks[i * self.n + j].lock());
            }
        }
        out
    }

    fn with<R>(&self, i: usize, j: usize, f: impl FnOnce(&mut Block) -> R) -> R {
        f(&mut self.blocks[i * self.n + j].lock())
    }
}

/// Cholesky with parallelism only inside each step's BLAS calls:
/// sequential right-looking outer loop; the panel `trsm`s and the
/// trailing `syrk`/`gemm` updates of step `k` are each one fork-join
/// region. Returns the factored matrix (lower triangle = L).
pub fn threaded_cholesky(
    pool: &ForkJoinPool,
    a: &FlatMatrix,
    m: usize,
    vendor: Vendor,
) -> FlatMatrix {
    let nm = a.dim();
    assert_eq!(nm % m, 0);
    let n = nm / m;
    let grid = BlockGrid::from_flat(a, m);
    for k in 0..n {
        // Sequential pivot factorisation — threads idle, like the real
        // libraries' panel bottleneck.
        grid.with(k, k, |akk| {
            vendor.potrf(akk).expect("not positive definite");
        });
        // Parallel panel solve (one barrier).
        let panel = n - k - 1;
        if panel > 0 {
            pool.parallel_for(panel, pool.threads(), |t| {
                let i = k + 1 + t;
                let l = grid.blocks[k * n + k].lock().clone();
                grid.with(i, k, |aik| vendor.trsm_rlt(&l, aik));
            });
            // Parallel trailing update (one barrier): all (i, j) with
            // k < j <= i < n.
            let pairs: Vec<(usize, usize)> = (k + 1..n)
                .flat_map(|i| (k + 1..=i).map(move |j| (i, j)))
                .collect();
            pool.parallel_for(pairs.len(), pool.threads(), |t| {
                let (i, j) = pairs[t];
                let aik = grid.blocks[i * n + k].lock().clone();
                if i == j {
                    grid.with(j, j, |ajj| vendor.syrk_sub(&aik, ajj));
                } else {
                    let ajk = grid.blocks[j * n + k].lock().clone();
                    grid.with(i, j, |aij| vendor.gemm_nt_sub(&aik, &ajk, aij));
                }
            });
        }
    }
    grid.to_flat(m)
}

/// Matrix multiply with parallelism only inside the one big `gemm` call:
/// the output tiles are computed in a single fork-join region — this is
/// what a threaded BLAS does well, which is why the paper's Figure 12
/// shows the libraries scaling smoothly on the multiply.
pub fn threaded_matmul(
    pool: &ForkJoinPool,
    a: &FlatMatrix,
    b: &FlatMatrix,
    m: usize,
    vendor: Vendor,
) -> FlatMatrix {
    let nm = a.dim();
    assert_eq!(b.dim(), nm);
    assert_eq!(nm % m, 0);
    let n = nm / m;
    let ga = BlockGrid::from_flat(a, m);
    let gb = BlockGrid::from_flat(b, m);
    let gc = BlockGrid::from_flat(&FlatMatrix::zeros(nm), m);
    let tiles: Vec<(usize, usize)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
    pool.parallel_for(tiles.len(), pool.threads() * 4, |t| {
        let (i, j) = tiles[t];
        let mut acc = Block::zeros(m);
        for k in 0..n {
            let ab = ga.blocks[i * n + k].lock().clone();
            let bb = gb.blocks[k * n + j].lock().clone();
            vendor.gemm_add(&ab, &bb, &mut acc);
        }
        *gc.blocks[i * n + j].lock() = acc;
    });
    gc.to_flat(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forkjoin::Policy;

    #[test]
    fn threaded_cholesky_matches_reference() {
        let pool = ForkJoinPool::new(3, Policy::WorkStealing);
        let a = FlatMatrix::random_spd(16, 4);
        let got = threaded_cholesky(&pool, &a, 4, Vendor::Tuned);
        let mut expect = a.clone();
        expect.cholesky_ref();
        assert!(got.max_abs_diff_lower(&expect) / a.frob_norm() < 1e-4);
    }

    #[test]
    fn threaded_matmul_matches_reference() {
        let pool = ForkJoinPool::new(4, Policy::WorkStealing);
        let a = FlatMatrix::random(12, 1);
        let b = FlatMatrix::random(12, 2);
        let got = threaded_matmul(&pool, &a, &b, 4, Vendor::Tuned);
        let expect = FlatMatrix::multiply_ref(&a, &b);
        assert!(got.max_abs_diff(&expect) < 1e-3);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ForkJoinPool::new(1, Policy::WorkStealing);
        let a = FlatMatrix::random_spd(8, 6);
        let got = threaded_cholesky(&pool, &a, 4, Vendor::Reference);
        let mut expect = a.clone();
        expect.cholesky_ref();
        assert!(got.max_abs_diff_lower(&expect) / a.frob_norm() < 1e-4);
    }
}
