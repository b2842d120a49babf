//! Hyper-matrices: "1-level hyper-matrixes of N by N blocks, each of M by
//! M elements" (§IV), with each block a runtime-managed data object so the
//! analyser can track per-block dependencies.

use smpss::{Handle, Runtime};
use smpss_blas::Block;

use crate::flat::FlatMatrix;

/// An `N x N` grid of optional `M x M` blocks. `None` entries model the
//  unallocated blocks of the sparse codes (Figure 3).
pub struct HyperMatrix {
    n: usize,
    m: usize,
    blocks: Vec<Option<Handle<Block>>>,
}

impl HyperMatrix {
    /// Dense hyper-matrix of zero blocks.
    pub fn dense_zeros(rt: &Runtime, n: usize, m: usize) -> Self {
        let mut h = HyperMatrix::empty(n, m);
        for idx in 0..n * n {
            h.blocks[idx] = Some(alloc_block(rt, m));
        }
        h
    }

    /// Fully unallocated (sparse) hyper-matrix.
    pub fn empty(n: usize, m: usize) -> Self {
        assert!(n > 0 && m > 0);
        HyperMatrix {
            n,
            m,
            blocks: vec![None; n * n],
        }
    }

    /// Block the flat matrix `src` into an `(src.dim()/m)²` hyper-matrix
    /// (main-thread copies; the *on-demand task* variant lives in the
    /// individual algorithms, mirroring Figure 9).
    pub fn from_flat(rt: &Runtime, src: &FlatMatrix, m: usize) -> Self {
        let nm = src.dim();
        assert_eq!(
            nm % m,
            0,
            "matrix dimension must be divisible by block size"
        );
        let n = nm / m;
        let mut h = HyperMatrix::empty(n, m);
        for bi in 0..n {
            for bj in 0..n {
                let mut blk = Block::zeros(m);
                src.copy_block_out(m, bi, bj, &mut blk);
                let mblk = m;
                h.blocks[bi * n + bj] = Some(rt.data_with_alloc(blk, move || Block::zeros(mblk)));
            }
        }
        h
    }

    /// Un-block into a flat matrix (waits for each block's producer).
    /// `None` blocks read as zero.
    pub fn to_flat(&self, rt: &Runtime) -> FlatMatrix {
        let mut out = FlatMatrix::zeros(self.n * self.m);
        for bi in 0..self.n {
            for bj in 0..self.n {
                if let Some(h) = &self.blocks[bi * self.n + bj] {
                    let blk = rt.read(h);
                    out.copy_block_in(self.m, bi, bj, &blk);
                }
            }
        }
        out
    }

    /// Blocks per dimension (`N`).
    pub fn nblocks(&self) -> usize {
        self.n
    }

    /// Elements per block dimension (`M`).
    pub fn block_dim(&self) -> usize {
        self.m
    }

    /// Total element dimension (`N*M`).
    pub fn dim(&self) -> usize {
        self.n * self.m
    }

    /// The block handle at `(i, j)`; panics if unallocated.
    pub fn block(&self, i: usize, j: usize) -> &Handle<Block> {
        self.get(i, j)
            .unwrap_or_else(|| panic!("block ({i},{j}) is not allocated"))
    }

    /// The block handle at `(i, j)`, if allocated.
    pub fn get(&self, i: usize, j: usize) -> Option<&Handle<Block>> {
        assert!(i < self.n && j < self.n, "block index out of range");
        self.blocks[i * self.n + j].as_ref()
    }

    /// Allocate (zeroed) the block at `(i, j)` if missing and return it —
    /// the `alloc_block` of Figure 3.
    pub fn alloc_block_once(&mut self, rt: &Runtime, i: usize, j: usize) -> &Handle<Block> {
        assert!(i < self.n && j < self.n);
        let slot = &mut self.blocks[i * self.n + j];
        if slot.is_none() {
            *slot = Some(alloc_block(rt, self.m));
        }
        slot.as_ref().unwrap()
    }

    /// Install an existing handle at `(i, j)` (used by quadrant views).
    pub fn set_block(&mut self, i: usize, j: usize, h: Handle<Block>) {
        assert!(i < self.n && j < self.n);
        self.blocks[i * self.n + j] = Some(h);
    }

    /// Number of allocated blocks.
    pub fn allocated(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }

    /// A shallow clone of the `n x n` sub-grid starting at `(r0, c0)` —
    /// handles are shared, so tasks on the view affect this matrix.
    pub fn view(&self, r0: usize, c0: usize, n: usize) -> HyperMatrix {
        assert!(r0 + n <= self.n && c0 + n <= self.n);
        let mut v = HyperMatrix::empty(n, self.m);
        for i in 0..n {
            for j in 0..n {
                v.blocks[i * n + j] = self.blocks[(r0 + i) * self.n + (c0 + j)].clone();
            }
        }
        v
    }
}

/// A fresh runtime-managed zero block whose renaming allocator produces
/// zero blocks of the same size (cheaper than cloning live contents).
/// Declares its true heap footprint (`m²·4` bytes) so the §III memory
/// limit sees renamed block copies.
pub fn alloc_block(rt: &Runtime, m: usize) -> Handle<Block> {
    rt.data_sized(Block::zeros(m), m * m * 4, move || Block::zeros(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpss::Runtime;

    #[test]
    fn flat_roundtrip() {
        let rt = Runtime::builder().threads(1).build();
        let src = FlatMatrix::random(12, 4);
        let h = HyperMatrix::from_flat(&rt, &src, 4);
        assert_eq!(h.nblocks(), 3);
        assert_eq!(h.block_dim(), 4);
        assert_eq!(h.dim(), 12);
        assert_eq!(h.allocated(), 9);
        let back = h.to_flat(&rt);
        assert_eq!(src, back);
    }

    #[test]
    fn sparse_allocation() {
        let rt = Runtime::builder().threads(1).build();
        let mut h = HyperMatrix::empty(4, 2);
        assert_eq!(h.allocated(), 0);
        assert!(h.get(1, 1).is_none());
        h.alloc_block_once(&rt, 1, 1);
        h.alloc_block_once(&rt, 1, 1); // idempotent
        assert_eq!(h.allocated(), 1);
        assert!(h.get(1, 1).is_some());
    }

    #[test]
    fn views_share_handles() {
        let rt = Runtime::builder().threads(1).build();
        let h = HyperMatrix::dense_zeros(&rt, 4, 2);
        let v = h.view(2, 2, 2);
        assert!(v.block(0, 0).same_object(h.block(2, 2)));
        assert!(v.block(1, 1).same_object(h.block(3, 3)));
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn missing_block_panics() {
        let h = HyperMatrix::empty(2, 2);
        let _ = h.block(0, 0);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn from_flat_requires_divisibility() {
        let rt = Runtime::builder().threads(1).build();
        let src = FlatMatrix::zeros(10);
        let _ = HyperMatrix::from_flat(&rt, &src, 4);
    }
}
