//! Figure 3: sparse hyper-matrix multiplication. "In most cases,
//! converting a dense algorithm into a sparse variant is simple and
//! straightforward" — the same triple loop, skipping missing blocks and
//! allocating C blocks on demand.
//!
//! Run with: `cargo run --release --example sparse_matmul`

use smpss::Runtime;
use smpss_apps::matmul::{matmul_sparse, sgemm_t};
use smpss_apps::{FlatMatrix, HyperMatrix};
use smpss_blas::{Block, Vendor};

fn main() {
    let rt = Runtime::builder().threads(4).build();
    let (n, m) = (8, 32);

    // A: block-tridiagonal; B: block-diagonal. Most blocks are absent.
    let mut a = HyperMatrix::empty(n, m);
    let mut b = HyperMatrix::empty(n, m);
    let mut af = FlatMatrix::zeros(n * m);
    let mut bf = FlatMatrix::zeros(n * m);
    for i in 0..n {
        for j in 0..n {
            if i.abs_diff(j) <= 1 {
                let blk = Block::random(m, (i * n + j) as u64 + 1);
                af_write(&mut af, m, i, j, &blk);
                a.set_block(i, j, rt.data_with_alloc(blk, move || Block::zeros(m)));
            }
            if i == j {
                let blk = Block::random(m, 100 + i as u64);
                af_write(&mut bf, m, i, j, &blk);
                b.set_block(i, j, rt.data_with_alloc(blk, move || Block::zeros(m)));
            }
        }
    }

    let mut c = HyperMatrix::empty(n, m);
    matmul_sparse(&rt, &a, &b, &mut c, Vendor::Tuned);
    rt.barrier();

    let stats = rt.stats();
    println!(
        "sparse multiply: {} gemm tasks (dense would need {}), C has {}/{} blocks",
        stats.tasks_spawned,
        n * n * n,
        c.allocated(),
        n * n
    );
    // Tridiagonal x diagonal = tridiagonal: 3n-2 product blocks.
    assert_eq!(c.allocated(), 3 * n - 2);
    assert_eq!(stats.tasks_spawned as usize, 3 * n - 2);

    let expect = FlatMatrix::multiply_ref(&af, &bf);
    let got = c.to_flat(&rt);
    println!(
        "max |Δ| vs dense reference: {:.2e}",
        got.max_abs_diff(&expect)
    );
    assert!(got.max_abs_diff(&expect) < 1e-3);
    // The dense code on the same data also works — just does more tasks.
    let c2 = HyperMatrix::dense_zeros(&rt, n, m);
    let a_dense = HyperMatrix::from_flat(&rt, &af, m);
    let b_dense = HyperMatrix::from_flat(&rt, &bf, m);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                sgemm_t(
                    &rt,
                    a_dense.block(i, k),
                    b_dense.block(k, j),
                    c2.block(i, j),
                    Vendor::Tuned,
                );
            }
        }
    }
    rt.barrier();
    assert!(c2.to_flat(&rt).max_abs_diff(&expect) < 1e-3);
    println!(
        "ok — sparse and dense agree; sparse spawned {}x fewer tasks.",
        (n * n * n) / (3 * n - 2)
    );
}

fn af_write(f: &mut FlatMatrix, m: usize, bi: usize, bj: usize, blk: &Block) {
    f.copy_block_in(m, bi, bj, blk);
}
