//! Strassen's matrix multiplication (§VI.C).
//!
//! "While the standard matrix multiplication does not require additional
//! storage, Strassen's algorithm makes heavy usage of temporary matrices,
//! which combined with a recursive implementation, results in an intensive
//! renaming test case."
//!
//! Each recursion node computes the seven Strassen products. The operand
//! sums (`S1..S10`) are written into **two reused scratch grids** (`T1`
//! for left operands, `T2` for right operands): by the time `S3`
//! overwrites `T1`, the tasks of the previous product still read `T1`'s
//! old blocks, so the runtime renames — exactly the behaviour the paper
//! stresses. Products `P1..P7` must coexist until the quadrant
//! recombination and therefore get their own storage.

use smpss::{task_def, Handle, Runtime};
use smpss_blas::{Block, Vendor};

use crate::hyper::{alloc_block, HyperMatrix};

task_def! {
    /// `c = a + b`.
    pub fn add_t(input a: Block, input b: Block, output c: Block, val v: Vendor) {
        v.add(a, b, c);
    }
}

task_def! {
    /// `c = a - b`.
    pub fn sub_t(input a: Block, input b: Block, output c: Block, val v: Vendor) {
        v.sub(a, b, c);
    }
}

task_def! {
    /// `c += a`.
    pub fn acc_t(input a: Block, inout c: Block, val v: Vendor) {
        v.acc(a, c);
    }
}

task_def! {
    /// `c -= a`.
    pub fn acc_sub_t(input a: Block, inout c: Block, val v: Vendor) {
        v.acc_sub(a, c);
    }
}

task_def! {
    /// `c = a · b` (fresh output block).
    pub fn gemm_out_t(input a: Block, input b: Block, output c: Block, val v: Vendor) {
        c.clear();
        v.gemm_add(a, b, c);
    }
}

task_def! {
    /// `c += a · b`.
    pub fn gemm_add_t(input a: Block, input b: Block, inout c: Block, val v: Vendor) {
        v.gemm_add(a, b, c);
    }
}

/// A shallow grid of block handles (quadrant views share handles).
#[derive(Clone)]
struct Grid {
    n: usize,
    h: Vec<Handle<Block>>,
}

impl Grid {
    fn from_hyper(hm: &HyperMatrix) -> Grid {
        let n = hm.nblocks();
        let mut h = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                h.push(hm.block(i, j).clone());
            }
        }
        Grid { n, h }
    }

    fn fresh(rt: &Runtime, n: usize, m: usize) -> Grid {
        Grid {
            n,
            h: (0..n * n).map(|_| alloc_block(rt, m)).collect(),
        }
    }

    fn at(&self, i: usize, j: usize) -> &Handle<Block> {
        &self.h[i * self.n + j]
    }

    fn quad(&self, qi: usize, qj: usize) -> Grid {
        let half = self.n / 2;
        let mut h = Vec::with_capacity(half * half);
        for i in 0..half {
            for j in 0..half {
                h.push(self.at(qi * half + i, qj * half + j).clone());
            }
        }
        Grid { n: half, h }
    }
}

/// Per-block elementwise op over two grids into a third.
fn grid_add(rt: &Runtime, a: &Grid, b: &Grid, c: &Grid, v: Vendor) {
    for i in 0..a.n {
        for j in 0..a.n {
            add_t(rt, a.at(i, j), b.at(i, j), c.at(i, j), v);
        }
    }
}

fn grid_sub(rt: &Runtime, a: &Grid, b: &Grid, c: &Grid, v: Vendor) {
    for i in 0..a.n {
        for j in 0..a.n {
            sub_t(rt, a.at(i, j), b.at(i, j), c.at(i, j), v);
        }
    }
}

fn grid_acc(rt: &Runtime, a: &Grid, c: &Grid, v: Vendor) {
    for i in 0..a.n {
        for j in 0..a.n {
            acc_t(rt, a.at(i, j), c.at(i, j), v);
        }
    }
}

fn grid_acc_sub(rt: &Runtime, a: &Grid, c: &Grid, v: Vendor) {
    for i in 0..a.n {
        for j in 0..a.n {
            acc_sub_t(rt, a.at(i, j), c.at(i, j), v);
        }
    }
}

/// Classic tiled multiply `c = a · b` (full overwrite of `c`).
fn grid_mul_classic(rt: &Runtime, a: &Grid, b: &Grid, c: &Grid, v: Vendor) {
    let n = a.n;
    for i in 0..n {
        for j in 0..n {
            gemm_out_t(rt, a.at(i, 0), b.at(0, j), c.at(i, j), v);
            for k in 1..n {
                gemm_add_t(rt, a.at(i, k), b.at(k, j), c.at(i, j), v);
            }
        }
    }
}

fn strassen_rec(rt: &Runtime, a: &Grid, b: &Grid, c: &Grid, m: usize, v: Vendor, cutoff: usize) {
    let n = a.n;
    if n <= cutoff || n == 1 {
        grid_mul_classic(rt, a, b, c, v);
        return;
    }
    let half = n / 2;
    let (a11, a12, a21, a22) = (a.quad(0, 0), a.quad(0, 1), a.quad(1, 0), a.quad(1, 1));
    let (b11, b12, b21, b22) = (b.quad(0, 0), b.quad(0, 1), b.quad(1, 0), b.quad(1, 1));
    let (c11, c12, c21, c22) = (c.quad(0, 0), c.quad(0, 1), c.quad(1, 0), c.quad(1, 1));

    // Two reused scratch grids: the renaming stress (see module docs).
    let t1 = Grid::fresh(rt, half, m);
    let t2 = Grid::fresh(rt, half, m);
    let p: Vec<Grid> = (0..7).map(|_| Grid::fresh(rt, half, m)).collect();

    // P1 = A11 · (B12 - B22)
    grid_sub(rt, &b12, &b22, &t2, v);
    strassen_rec(rt, &a11, &t2, &p[0], m, v, cutoff);
    // P2 = (A11 + A12) · B22
    grid_add(rt, &a11, &a12, &t1, v);
    strassen_rec(rt, &t1, &b22, &p[1], m, v, cutoff);
    // P3 = (A21 + A22) · B11        (T1 reused -> rename)
    grid_add(rt, &a21, &a22, &t1, v);
    strassen_rec(rt, &t1, &b11, &p[2], m, v, cutoff);
    // P4 = A22 · (B21 - B11)        (T2 reused -> rename)
    grid_sub(rt, &b21, &b11, &t2, v);
    strassen_rec(rt, &a22, &t2, &p[3], m, v, cutoff);
    // P5 = (A11 + A22) · (B11 + B22)
    grid_add(rt, &a11, &a22, &t1, v);
    grid_add(rt, &b11, &b22, &t2, v);
    strassen_rec(rt, &t1, &t2, &p[4], m, v, cutoff);
    // P6 = (A12 - A22) · (B21 + B22)
    grid_sub(rt, &a12, &a22, &t1, v);
    grid_add(rt, &b21, &b22, &t2, v);
    strassen_rec(rt, &t1, &t2, &p[5], m, v, cutoff);
    // P7 = (A11 - A21) · (B11 + B12)
    grid_sub(rt, &a11, &a21, &t1, v);
    grid_add(rt, &b11, &b12, &t2, v);
    strassen_rec(rt, &t1, &t2, &p[6], m, v, cutoff);

    // C11 = P5 + P4 - P2 + P6
    grid_add(rt, &p[4], &p[3], &c11, v);
    grid_acc_sub(rt, &p[1], &c11, v);
    grid_acc(rt, &p[5], &c11, v);
    // C12 = P1 + P2
    grid_add(rt, &p[0], &p[1], &c12, v);
    // C21 = P3 + P4
    grid_add(rt, &p[2], &p[3], &c21, v);
    // C22 = P5 + P1 - P3 - P7
    grid_add(rt, &p[4], &p[0], &c22, v);
    grid_acc_sub(rt, &p[2], &c22, v);
    grid_acc_sub(rt, &p[6], &c22, v);
}

/// Strassen multiply `C = A · B` over dense hyper-matrices whose block
/// count per dimension is a power of two. `cutoff_blocks` is the recursion
/// cutoff (in blocks) below which the classic tiled multiply is used.
pub fn strassen(
    rt: &Runtime,
    a: &HyperMatrix,
    b: &HyperMatrix,
    c: &HyperMatrix,
    vendor: Vendor,
    cutoff_blocks: usize,
) {
    let n = a.nblocks();
    assert!(
        n.is_power_of_two(),
        "Strassen needs a power-of-two block count"
    );
    assert_eq!(b.nblocks(), n);
    assert_eq!(c.nblocks(), n);
    let ga = Grid::from_hyper(a);
    let gb = Grid::from_hyper(b);
    let gc = Grid::from_hyper(c);
    strassen_rec(
        rt,
        &ga,
        &gb,
        &gc,
        a.block_dim(),
        vendor,
        cutoff_blocks.max(1),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatMatrix;

    fn check(threads: usize, nblocks: usize, m: usize, cutoff: usize) -> smpss::StatsSnapshot {
        let rt = Runtime::builder().threads(threads).build();
        let af = FlatMatrix::random(nblocks * m, 21);
        let bf = FlatMatrix::random(nblocks * m, 22);
        let a = HyperMatrix::from_flat(&rt, &af, m);
        let b = HyperMatrix::from_flat(&rt, &bf, m);
        let c = HyperMatrix::dense_zeros(&rt, nblocks, m);
        strassen(&rt, &a, &b, &c, Vendor::Tuned, cutoff);
        rt.barrier();
        let expect = FlatMatrix::multiply_ref(&af, &bf);
        let got = c.to_flat(&rt);
        assert!(
            got.max_abs_diff(&expect) < 1e-2,
            "threads={threads} n={nblocks} m={m} cutoff={cutoff}: diff={}",
            got.max_abs_diff(&expect)
        );
        rt.stats()
    }

    #[test]
    fn one_level_single_thread() {
        check(1, 2, 4, 1);
    }

    #[test]
    fn two_levels_parallel() {
        check(4, 4, 4, 1);
    }

    #[test]
    fn cutoff_reduces_to_classic() {
        // cutoff >= n: no Strassen recursion at all, just tiled multiply.
        let stats = check(2, 4, 2, 4);
        assert_eq!(stats.tasks_spawned, 4 * 4 * 4);
    }

    #[test]
    fn scratch_reuse_triggers_renaming() {
        // With recursion, T1/T2 reuse across products must rename (tasks of
        // the previous product still read the old version at spawn time).
        let stats = check(1, 4, 2, 1);
        assert!(
            stats.renames > 0,
            "Strassen must be an intensive renaming test case (renames={})",
            stats.renames
        );
        assert_eq!(stats.anti_edges, 0, "renaming leaves only true deps");
    }

    #[test]
    fn three_levels_deep_recursion() {
        check(2, 8, 2, 1);
    }
}
