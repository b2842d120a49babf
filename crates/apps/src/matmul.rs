//! Matrix multiplication: the Figure 1 (dense hyper), Figure 3 (sparse
//! hyper) and §VI.B (flat with on-demand block copies) variants.

use smpss::{task_def, Handle, Opaque, Runtime};
use smpss_blas::{Block, Vendor};

use crate::flat::{copy_block_in_raw, copy_block_out_raw, FlatMatrix};
use crate::hyper::{alloc_block, HyperMatrix};

task_def! {
    /// The `sgemm_t` of Figure 2: `c += a · b`.
    pub fn sgemm_t(input a: Block, input b: Block, inout c: Block, val v: Vendor) {
        v.gemm_add(a, b, c);
    }
}

task_def! {
    /// `get_block` of Figure 10: copy block `(i, j)` out of the opaque
    /// flat matrix into a runtime-managed block.
    pub fn get_block_t(output blk: Block, val flat: Opaque<FlatMatrix>, val i: usize, val j: usize) {
        let m = blk.dim();
        // SAFETY: the flat source is read-only during the whole algorithm
        // (all writers are put_block tasks, ordered after every compute
        // task on the same block through handle dependencies).
        unsafe {
            flat.with(|f| copy_block_out_raw(f.as_slice().as_ptr(), f.dim(), m, i, j, blk));
        }
    }
}

task_def! {
    /// `put_block` of Figure 10: copy a block back into the opaque flat
    /// matrix. Distinct `(i, j)` targets are disjoint, so concurrent puts
    /// never alias.
    pub fn put_block_t(input blk: Block, val flat: Opaque<FlatMatrix>, val i: usize, val j: usize) {
        let m = blk.dim();
        // SAFETY: disjoint target region per (i, j); the only other writer
        // of this region would be another put of the same block, which the
        // handle dependency chain orders.
        unsafe {
            flat.with_mut(|f| {
                let n = f.dim();
                copy_block_in_raw(f.as_mut_slice().as_mut_ptr(), n, m, i, j, blk)
            });
        }
    }
}

/// Figure 1: dense hyper-matrix multiply, `C += A · B`.
///
/// "The code generates N³ tasks arranged as N² chains of N tasks. Note
/// that any ordering of the three nested loops produces correct results."
pub fn matmul_hyper(
    rt: &Runtime,
    a: &HyperMatrix,
    b: &HyperMatrix,
    c: &HyperMatrix,
    vendor: Vendor,
) {
    let n = a.nblocks();
    assert_eq!(b.nblocks(), n);
    assert_eq!(c.nblocks(), n);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                sgemm_t(rt, a.block(i, k), b.block(k, j), c.block(i, j), vendor);
            }
        }
    }
}

/// Figure 1 with the loop order permuted (k outermost) — the paper's point
/// that "the programmer does not have to take care of what is the best
/// task order"; the runtime reorders. Tests assert both orders agree.
pub fn matmul_hyper_kij(
    rt: &Runtime,
    a: &HyperMatrix,
    b: &HyperMatrix,
    c: &HyperMatrix,
    vendor: Vendor,
) {
    let n = a.nblocks();
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                sgemm_t(rt, a.block(i, k), b.block(k, j), c.block(i, j), vendor);
            }
        }
    }
}

/// Figure 3: sparse hyper-matrix multiply. Missing blocks are treated as
/// zero; `C` blocks are allocated on demand ("this code dynamically
/// allocates memory and executes tasks according to the data needs").
pub fn matmul_sparse(
    rt: &Runtime,
    a: &HyperMatrix,
    b: &HyperMatrix,
    c: &mut HyperMatrix,
    vendor: Vendor,
) {
    let n = a.nblocks();
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                if let (Some(ab), Some(bb)) = (a.get(i, k), b.get(k, j)) {
                    let ab = ab.clone();
                    let bb = bb.clone();
                    let cb = c.alloc_block_once(rt, i, j);
                    sgemm_t(rt, &ab, &bb, cb, vendor);
                }
            }
        }
    }
}

/// §VI.B: flat-matrix multiply with on-demand block copies — "the original
/// matrix multiplication code but with transformations similar to the
/// Cholesky case in order to make the comparison with the multithreaded
/// BLAS implementations fair".
///
/// `a`, `b` are read-only flat inputs; `c` is the flat output. Returns the
/// number of tasks spawned.
pub fn matmul_flat(
    rt: &Runtime,
    a: &FlatMatrix,
    b: &FlatMatrix,
    c: &mut FlatMatrix,
    m: usize,
    vendor: Vendor,
) -> usize {
    let nm = a.dim();
    assert_eq!(b.dim(), nm);
    assert_eq!(c.dim(), nm);
    assert_eq!(nm % m, 0);
    let n = nm / m;

    let a_op = Opaque::new(a.clone());
    let b_op = Opaque::new(b.clone());
    let c_op = Opaque::new(std::mem::replace(c, FlatMatrix::zeros(1)));

    let mut tasks = 0usize;
    let mut a_cache: Vec<Option<Handle<Block>>> = vec![None; n * n];
    let mut b_cache: Vec<Option<Handle<Block>>> = vec![None; n * n];
    let mut c_blocks: Vec<Option<Handle<Block>>> = vec![None; n * n];

    {
        let get_once = |cache: &mut Vec<Option<Handle<Block>>>,
                        src: &Opaque<FlatMatrix>,
                        i: usize,
                        j: usize,
                        tasks: &mut usize|
         -> Handle<Block> {
            let slot = &mut cache[i * n + j];
            if slot.is_none() {
                let h = alloc_block(rt, m);
                get_block_t(rt, &h, src.clone(), i, j);
                *tasks += 1;
                *slot = Some(h);
            }
            slot.as_ref().unwrap().clone()
        };

        for i in 0..n {
            for j in 0..n {
                let cb = alloc_block(rt, m);
                // C starts at zero, so no get for C (matches the paper's
                // multiply where C is pure output of the block chain).
                for k in 0..n {
                    let ab = get_once(&mut a_cache, &a_op, i, k, &mut tasks);
                    let bb = get_once(&mut b_cache, &b_op, k, j, &mut tasks);
                    sgemm_t(rt, &ab, &bb, &cb, vendor);
                    tasks += 1;
                }
                put_block_t(rt, &cb, c_op.clone(), i, j);
                tasks += 1;
                c_blocks[i * n + j] = Some(cb);
            }
        }
    }

    rt.barrier();
    drop((a_op, b_op));
    *c = c_op.try_unwrap().expect("all tasks finished at barrier");
    tasks
}

/// Expected task count of [`matmul_hyper`]: `N³` gemm tasks.
pub fn hyper_task_count(n: usize) -> usize {
    n * n * n
}

/// Expected task count of [`matmul_flat`]: `N³` gemms + `2N²` gets +
/// `N²` puts.
pub fn flat_task_count(n: usize) -> usize {
    n * n * n + 3 * n * n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_multiply(threads: usize, n: usize, m: usize, vendor: Vendor) {
        let rt = Runtime::builder().threads(threads).build();
        let af = FlatMatrix::random(n * m, 1);
        let bf = FlatMatrix::random(n * m, 2);
        let a = HyperMatrix::from_flat(&rt, &af, m);
        let b = HyperMatrix::from_flat(&rt, &bf, m);
        let c = HyperMatrix::dense_zeros(&rt, n, m);
        matmul_hyper(&rt, &a, &b, &c, vendor);
        rt.barrier();
        let got = c.to_flat(&rt);
        let expect = FlatMatrix::multiply_ref(&af, &bf);
        assert!(
            got.max_abs_diff(&expect) < 1e-3,
            "threads={threads} n={n} m={m}"
        );
    }

    #[test]
    fn hyper_multiply_single_thread() {
        check_multiply(1, 3, 4, Vendor::Tuned);
    }

    #[test]
    fn hyper_multiply_parallel_both_vendors() {
        check_multiply(4, 4, 4, Vendor::Tuned);
        check_multiply(4, 4, 4, Vendor::Reference);
    }

    #[test]
    fn loop_order_is_irrelevant() {
        // "any ordering of the three nested loops produces correct results"
        let rt = Runtime::builder().threads(2).build();
        let af = FlatMatrix::random(8, 3);
        let bf = FlatMatrix::random(8, 4);
        let a = HyperMatrix::from_flat(&rt, &af, 2);
        let b = HyperMatrix::from_flat(&rt, &bf, 2);
        let c1 = HyperMatrix::dense_zeros(&rt, 4, 2);
        let c2 = HyperMatrix::dense_zeros(&rt, 4, 2);
        matmul_hyper(&rt, &a, &b, &c1, Vendor::Tuned);
        matmul_hyper_kij(&rt, &a, &b, &c2, Vendor::Tuned);
        rt.barrier();
        assert!(c1.to_flat(&rt).max_abs_diff(&c2.to_flat(&rt)) < 1e-4);
    }

    #[test]
    fn task_count_is_n_cubed() {
        let rt = Runtime::builder().threads(1).build();
        let a = HyperMatrix::dense_zeros(&rt, 5, 2);
        let b = HyperMatrix::dense_zeros(&rt, 5, 2);
        let c = HyperMatrix::dense_zeros(&rt, 5, 2);
        matmul_hyper(&rt, &a, &b, &c, Vendor::Tuned);
        rt.barrier();
        assert_eq!(rt.stats().tasks_spawned as usize, hyper_task_count(5));
    }

    #[test]
    fn sparse_multiplies_only_present_blocks() {
        let rt = Runtime::builder().threads(2).build();
        let n = 4;
        let m = 2;
        // Block-diagonal A and dense B.
        let af = FlatMatrix::from_fn(n * m, |i, j| {
            if i / m == j / m {
                ((i + 2 * j) % 5) as f32 - 2.0
            } else {
                0.0
            }
        });
        let bf = FlatMatrix::random(n * m, 8);
        let mut a = HyperMatrix::empty(n, m);
        for d in 0..n {
            let mut blk = Block::zeros(m);
            af.copy_block_out(m, d, d, &mut blk);
            a.set_block(d, d, rt.data_with_alloc(blk, move || Block::zeros(m)));
        }
        let b = HyperMatrix::from_flat(&rt, &bf, m);
        let mut c = HyperMatrix::empty(n, m);
        matmul_sparse(&rt, &a, &b, &mut c, Vendor::Tuned);
        rt.barrier();
        // Only n*n gemm tasks (one per C block) for a block-diagonal A.
        assert_eq!(rt.stats().tasks_spawned as usize, n * n);
        assert_eq!(c.allocated(), n * n);
        let expect = FlatMatrix::multiply_ref(&af, &bf);
        assert!(c.to_flat(&rt).max_abs_diff(&expect) < 1e-3);
    }

    #[test]
    fn flat_on_demand_matches_reference() {
        let rt = Runtime::builder().threads(4).build();
        let n = 3;
        let m = 4;
        let a = FlatMatrix::random(n * m, 5);
        let b = FlatMatrix::random(n * m, 6);
        let mut c = FlatMatrix::zeros(n * m);
        let tasks = matmul_flat(&rt, &a, &b, &mut c, m, Vendor::Tuned);
        assert_eq!(tasks, flat_task_count(n));
        assert_eq!(rt.stats().tasks_spawned as usize, tasks);
        let expect = FlatMatrix::multiply_ref(&a, &b);
        assert!(c.max_abs_diff(&expect) < 1e-3);
    }
}
