//! Cholesky factorisation: the left-looking in-place blocked algorithm of
//! Figure 4 (dense hyper-matrix) and the flat variant with on-demand block
//! copies of Figure 9 (§VI.A). Includes the task-count closed forms the
//! paper quotes and the Figure 5 graph shape.

use smpss::{task_def, Handle, Opaque, Runtime};
use smpss_blas::{Block, Vendor};

use crate::flat::{copy_block_in_raw, copy_block_out_raw, FlatMatrix};
use crate::hyper::{alloc_block, HyperMatrix};

task_def! {
    /// Figure 4's `sgemm_t`: the trailing update `c -= a · bᵀ`.
    pub fn sgemm_t(input a: Block, input b: Block, inout c: Block, val v: Vendor) {
        v.gemm_nt_sub(a, b, c);
    }
}

task_def! {
    /// `ssyrk_t`: `c -= a · aᵀ`.
    pub fn ssyrk_t(input a: Block, inout c: Block, val v: Vendor) {
        v.syrk_sub(a, c);
    }
}

task_def! {
    /// `spotrf_t`: in-place lower Cholesky of the diagonal block.
    pub fn spotrf_t(inout a: Block, val v: Vendor) {
        v.potrf(a).expect("diagonal block is not positive definite");
    }
}

task_def! {
    /// `strsm_t`: panel solve `b ← b · L⁻ᵀ`.
    pub fn strsm_t(input l: Block, inout b: Block, val v: Vendor) {
        v.trsm_rlt(l, b);
    }
}

task_def! {
    /// `get_block` (Figure 10) for the flat Cholesky.
    pub fn get_block_t(output blk: Block, val flat: Opaque<FlatMatrix>, val i: usize, val j: usize) {
        let m = blk.dim();
        // SAFETY: every writer of this flat region is a put_block task
        // ordered after this get through the block-handle chain.
        unsafe {
            flat.with(|f| copy_block_out_raw(f.as_slice().as_ptr(), f.dim(), m, i, j, blk));
        }
    }
}

task_def! {
    /// `put_block` (Figure 10) for the flat Cholesky.
    pub fn put_block_t(input blk: Block, val flat: Opaque<FlatMatrix>, val i: usize, val j: usize) {
        let m = blk.dim();
        // SAFETY: disjoint flat region per (i, j); ordered after all
        // compute on this block via the handle dependency.
        unsafe {
            flat.with_mut(|f| {
                let n = f.dim();
                copy_block_in_raw(f.as_mut_slice().as_mut_ptr(), n, m, i, j, blk)
            });
        }
    }
}

/// Figure 4: left-looking in-place Cholesky on a dense hyper-matrix. On
/// completion the lower-triangle blocks hold `L` (strict upper-triangle
/// blocks are untouched).
pub fn cholesky_hyper(rt: &Runtime, a: &HyperMatrix, vendor: Vendor) {
    let n = a.nblocks();
    for j in 0..n {
        for k in 0..j {
            for i in j + 1..n {
                sgemm_t(rt, a.block(i, k), a.block(j, k), a.block(i, j), vendor);
            }
        }
        for i in 0..j {
            ssyrk_t(rt, a.block(j, i), a.block(j, j), vendor);
        }
        spotrf_t(rt, a.block(j, j), vendor);
        for i in j + 1..n {
            strsm_t(rt, a.block(j, j), a.block(i, j), vendor);
        }
    }
}

/// Figure 9: Cholesky on a **flat** matrix with on-demand hyper-matrix
/// copies. "The flat input matrix is copied block by block into an
/// hyper-matrix on an as needed basis"; at the end every touched block is
/// copied back. Returns the number of tasks spawned.
pub fn cholesky_flat(rt: &Runtime, a: &mut FlatMatrix, m: usize, vendor: Vendor) -> usize {
    let nm = a.dim();
    assert_eq!(nm % m, 0);
    let n = nm / m;
    let flat = Opaque::new(std::mem::replace(a, FlatMatrix::zeros(1)));

    let mut cache: Vec<Option<Handle<Block>>> = vec![None; n * n];
    let mut tasks = 0usize;
    {
        // `get_block_once` of Figure 10.
        let get_once = |cache: &mut Vec<Option<Handle<Block>>>,
                        i: usize,
                        j: usize,
                        tasks: &mut usize|
         -> Handle<Block> {
            let slot = &mut cache[i * n + j];
            if slot.is_none() {
                let h = alloc_block(rt, m);
                get_block_t(rt, &h, flat.clone(), i, j);
                *tasks += 1;
                *slot = Some(h);
            }
            slot.as_ref().unwrap().clone()
        };

        for j in 0..n {
            for k in 0..j {
                for i in j + 1..n {
                    let aik = get_once(&mut cache, i, k, &mut tasks);
                    let ajk = get_once(&mut cache, j, k, &mut tasks);
                    let aij = get_once(&mut cache, i, j, &mut tasks);
                    sgemm_t(rt, &aik, &ajk, &aij, vendor);
                    tasks += 1;
                }
            }
            for i in 0..j {
                let aji = get_once(&mut cache, j, i, &mut tasks);
                let ajj = get_once(&mut cache, j, j, &mut tasks);
                ssyrk_t(rt, &aji, &ajj, vendor);
                tasks += 1;
            }
            let ajj = get_once(&mut cache, j, j, &mut tasks);
            spotrf_t(rt, &ajj, vendor);
            tasks += 1;
            for i in j + 1..n {
                let aij = get_once(&mut cache, i, j, &mut tasks);
                strsm_t(rt, &ajj, &aij, vendor);
                tasks += 1;
            }
        }
        // Copy-back phase of Figure 9.
        for i in 0..n {
            for j in 0..n {
                if let Some(h) = &cache[i * n + j] {
                    put_block_t(rt, h, flat.clone(), i, j);
                    tasks += 1;
                }
            }
        }
    }
    rt.barrier();
    *a = flat.try_unwrap().expect("all tasks finished at barrier");
    tasks
}

/// Task count of the dense hyper Cholesky (Figure 4):
/// `N(N-1)(N-2)/6` gemms + `N(N-1)/2` syrks + `N` potrfs + `N(N-1)/2`
/// trsms `= N(N-1)(N-2)/6 + N²`. For `N = 6` this is the **56 tasks** of
/// Figure 5.
pub fn hyper_task_count(n: usize) -> usize {
    n * (n - 1) * (n - 2) / 6 + n * n
}

/// Task count of the flat Cholesky (Figure 9): the dense count plus one
/// `get_block` and one `put_block` per lower-triangle block
/// (`2 · N(N+1)/2 = N(N+1)`). The paper's §VI quotes **49,920** and
/// **374,272** tasks — exactly this formula at `N = 64` and `N = 128`.
pub fn flat_task_count(n: usize) -> usize {
    hyper_task_count(n) + n * (n + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_hyper(threads: usize, n: usize, m: usize, vendor: Vendor) {
        let rt = Runtime::builder().threads(threads).build();
        let spd = FlatMatrix::random_spd(n * m, 42);
        let a = HyperMatrix::from_flat(&rt, &spd, m);
        cholesky_hyper(&rt, &a, vendor);
        rt.barrier();
        let got = a.to_flat(&rt);
        let mut expect = spd.clone();
        expect.cholesky_ref();
        let scale = spd.frob_norm().max(1.0);
        assert!(
            got.max_abs_diff_lower(&expect) / scale < 1e-4,
            "threads={threads} n={n} m={m}"
        );
    }

    #[test]
    fn hyper_single_thread() {
        check_hyper(1, 4, 4, Vendor::Tuned);
    }

    #[test]
    fn hyper_parallel_both_vendors() {
        check_hyper(4, 6, 4, Vendor::Tuned);
        check_hyper(4, 6, 4, Vendor::Reference);
    }

    #[test]
    fn task_count_formula_matches_spawned() {
        for n in [2, 3, 6, 10] {
            let rt = Runtime::builder().threads(1).build();
            let spd = FlatMatrix::random_spd(n * 2, 1);
            let a = HyperMatrix::from_flat(&rt, &spd, 2);
            cholesky_hyper(&rt, &a, Vendor::Tuned);
            rt.barrier();
            assert_eq!(
                rt.stats().tasks_spawned as usize,
                hyper_task_count(n),
                "n={n}"
            );
        }
    }

    /// The exact numbers §VI prints.
    #[test]
    fn paper_quoted_task_counts() {
        assert_eq!(hyper_task_count(6), 56); // Figure 5
        assert_eq!(flat_task_count(64), 49_920);
        assert_eq!(flat_task_count(128), 374_272);
    }

    #[test]
    fn flat_matches_reference_and_count() {
        let rt = Runtime::builder().threads(4).build();
        let n = 4;
        let m = 4;
        let spd = FlatMatrix::random_spd(n * m, 9);
        let mut a = spd.clone();
        let tasks = cholesky_flat(&rt, &mut a, m, Vendor::Tuned);
        assert_eq!(tasks, flat_task_count(n));
        assert_eq!(rt.stats().tasks_spawned as usize, tasks);
        let mut expect = spd.clone();
        expect.cholesky_ref();
        let scale = spd.frob_norm().max(1.0);
        assert!(a.max_abs_diff_lower(&expect) / scale < 1e-4);
        // The untouched upper triangle must survive the round trip.
        for i in 0..n * m {
            for j in i + 1..n * m {
                assert_eq!(a.at(i, j), spd.at(i, j));
            }
        }
    }

    #[test]
    fn flat_only_copies_lower_triangle() {
        let rt = Runtime::builder().threads(1).build();
        let n = 5;
        let m = 2;
        let spd = FlatMatrix::random_spd(n * m, 3);
        let mut a = spd.clone();
        let tasks = cholesky_flat(&rt, &mut a, m, Vendor::Tuned);
        // gets + puts = n(n+1) exactly (lower triangle incl. diagonal).
        assert_eq!(tasks - hyper_task_count(n), n * (n + 1));
    }
}
