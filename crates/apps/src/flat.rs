//! Flat `n x n` matrices — the "data that is not naturally structured in
//! blocks" of §V — plus reference (sequential, unblocked) algorithms used
//! to verify every tiled implementation, and the raw block copy helpers
//! behind `get_block` / `put_block` (Figure 10).

use smpss_blas::Block;

/// Dense row-major `n x n` single-precision matrix.
#[derive(Clone, PartialEq, Debug)]
pub struct FlatMatrix {
    n: usize,
    data: Vec<f32>,
}

impl FlatMatrix {
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0);
        FlatMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    pub fn identity(n: usize) -> Self {
        let mut m = FlatMatrix::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = FlatMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Deterministic pseudo-random entries in `[-0.5, 0.5)`.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        FlatMatrix::from_fn(n, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
    }

    /// Symmetric positive definite: `G·Gᵀ + n·I`.
    pub fn random_spd(n: usize, seed: u64) -> Self {
        let g = FlatMatrix::random(n, seed);
        let mut out = FlatMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0f32;
                for k in 0..n {
                    s += g.at(i, k) * g.at(j, k);
                }
                if i == j {
                    s += n as f32;
                }
                out.set(i, j, s);
                out.set(j, i, s);
            }
        }
        out
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.n + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.n + j] = v;
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    pub fn from_vec(n: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), n * n);
        FlatMatrix { n, data }
    }

    pub fn max_abs_diff(&self, other: &FlatMatrix) -> f32 {
        assert_eq!(self.n, other.n);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Max abs difference over the lower triangle only (tiled Cholesky
    /// leaves the strict upper triangle untouched).
    pub fn max_abs_diff_lower(&self, other: &FlatMatrix) -> f32 {
        assert_eq!(self.n, other.n);
        let mut worst = 0.0f32;
        for i in 0..self.n {
            for j in 0..=i {
                worst = worst.max((self.at(i, j) - other.at(i, j)).abs());
            }
        }
        worst
    }

    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Reference `C = A·B` (sequential, unblocked). For verification only.
    pub fn multiply_ref(a: &FlatMatrix, b: &FlatMatrix) -> FlatMatrix {
        assert_eq!(a.n, b.n);
        let n = a.n;
        let mut c = FlatMatrix::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let aik = a.at(i, k);
                for j in 0..n {
                    let v = c.at(i, j) + aik * b.at(k, j);
                    c.set(i, j, v);
                }
            }
        }
        c
    }

    /// Reference in-place lower Cholesky. For verification only.
    pub fn cholesky_ref(&mut self) {
        let n = self.n;
        for j in 0..n {
            let mut d = self.at(j, j);
            for k in 0..j {
                let v = self.at(j, k);
                d -= v * v;
            }
            assert!(d > 0.0, "reference Cholesky: not SPD at pivot {j}");
            let d = d.sqrt();
            self.set(j, j, d);
            for i in j + 1..n {
                let mut s = self.at(i, j);
                for k in 0..j {
                    s -= self.at(i, k) * self.at(j, k);
                }
                self.set(i, j, s / d);
            }
        }
    }

    /// Reference in-place LU without pivoting (L unit-lower, U upper, both
    /// stored in place). For verification only.
    pub fn lu_nopiv_ref(&mut self) {
        let n = self.n;
        for k in 0..n {
            let pivot = self.at(k, k);
            assert!(pivot != 0.0, "reference LU: zero pivot at {k}");
            for i in k + 1..n {
                let l = self.at(i, k) / pivot;
                self.set(i, k, l);
                for j in k + 1..n {
                    let v = self.at(i, j) - l * self.at(k, j);
                    self.set(i, j, v);
                }
            }
        }
    }

    /// Copy block `(bi, bj)` (of `m x m` elements) out of this matrix —
    /// the body of the paper's `get_block` task (Figure 10).
    pub fn copy_block_out(&self, m: usize, bi: usize, bj: usize, block: &mut Block) {
        assert_eq!(block.dim(), m);
        for r in 0..m {
            let src = &self.data[(bi * m + r) * self.n + bj * m..][..m];
            block.row_mut(r).copy_from_slice(src);
        }
    }

    /// Copy a block back — the body of `put_block` (Figure 10).
    pub fn copy_block_in(&mut self, m: usize, bi: usize, bj: usize, block: &Block) {
        assert_eq!(block.dim(), m);
        for r in 0..m {
            let dst = &mut self.data[(bi * m + r) * self.n + bj * m..][..m];
            dst.copy_from_slice(block.row(r));
        }
    }
}

/// Raw-pointer variants of the block copies, used when the flat matrix is
/// behind an [`Opaque`](smpss::Opaque) pointer and several `put_block`
/// tasks write disjoint blocks concurrently (the Figure 9 epilogue).
///
/// # Safety
/// `flat` must point to an `n*n` buffer; `(bi, bj)` must address an
/// `m x m` block inside it; and — as with any opaque data — the caller
/// must guarantee no concurrent conflicting access to the *same* block
/// (the apps order these through handle dependencies; distinct blocks
/// never alias).
pub unsafe fn copy_block_out_raw(
    flat: *const f32,
    n: usize,
    m: usize,
    bi: usize,
    bj: usize,
    block: &mut Block,
) {
    debug_assert!(bi * m + m <= n && bj * m + m <= n);
    for r in 0..m {
        let src = flat.add((bi * m + r) * n + bj * m);
        std::ptr::copy_nonoverlapping(src, block.row_mut(r).as_mut_ptr(), m);
    }
}

/// See [`copy_block_out_raw`].
///
/// # Safety
/// Same contract as [`copy_block_out_raw`].
pub unsafe fn copy_block_in_raw(
    flat: *mut f32,
    n: usize,
    m: usize,
    bi: usize,
    bj: usize,
    block: &Block,
) {
    debug_assert!(bi * m + m <= n && bj * m + m <= n);
    for r in 0..m {
        let dst = flat.add((bi * m + r) * n + bj * m);
        std::ptr::copy_nonoverlapping(block.row(r).as_ptr(), dst, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiply_ref_identity() {
        let a = FlatMatrix::random(8, 1);
        let c = FlatMatrix::multiply_ref(&a, &FlatMatrix::identity(8));
        assert!(a.max_abs_diff(&c) < 1e-5);
    }

    #[test]
    fn cholesky_ref_roundtrip() {
        let n = 12;
        let a = FlatMatrix::random_spd(n, 3);
        let mut l = a.clone();
        l.cholesky_ref();
        // rebuild lower of A from L
        let mut rebuilt = FlatMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..=j {
                    s += l.at(i, k) * l.at(j, k);
                }
                rebuilt.set(i, j, s);
            }
        }
        assert!(a.max_abs_diff_lower(&rebuilt) / a.frob_norm() < 1e-4);
    }

    #[test]
    fn lu_ref_roundtrip() {
        let n = 10;
        // Diagonally dominant -> stable without pivoting.
        let mut a = FlatMatrix::random(n, 5);
        for i in 0..n {
            a.set(i, i, a.at(i, i) + n as f32);
        }
        let orig = a.clone();
        a.lu_nopiv_ref();
        // rebuild A = L·U
        let mut rebuilt = FlatMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { a.at(i, k) };
                    let u = a.at(k, j);
                    if k <= j {
                        s += l * u;
                    }
                }
                rebuilt.set(i, j, s);
            }
        }
        assert!(orig.max_abs_diff(&rebuilt) / orig.frob_norm() < 1e-3);
    }

    #[test]
    fn block_copy_roundtrip() {
        let n = 12;
        let m = 4;
        let a = FlatMatrix::random(n, 7);
        let mut out = FlatMatrix::zeros(n);
        for bi in 0..n / m {
            for bj in 0..n / m {
                let mut blk = Block::zeros(m);
                a.copy_block_out(m, bi, bj, &mut blk);
                out.copy_block_in(m, bi, bj, &blk);
            }
        }
        assert_eq!(a, out);
    }

    #[test]
    fn raw_block_copy_matches_safe() {
        let n = 8;
        let m = 4;
        let a = FlatMatrix::random(n, 9);
        let mut b1 = Block::zeros(m);
        let mut b2 = Block::zeros(m);
        a.copy_block_out(m, 1, 0, &mut b1);
        unsafe { copy_block_out_raw(a.as_slice().as_ptr(), n, m, 1, 0, &mut b2) };
        assert_eq!(b1.as_slice(), b2.as_slice());
        let mut dst1 = FlatMatrix::zeros(n);
        let mut dst2 = FlatMatrix::zeros(n);
        dst1.copy_block_in(m, 0, 1, &b1);
        unsafe { copy_block_in_raw(dst2.as_mut_slice().as_mut_ptr(), n, m, 0, 1, &b2) };
        assert_eq!(dst1, dst2);
    }

    #[test]
    fn spd_is_symmetric() {
        let a = FlatMatrix::random_spd(9, 11);
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(a.at(i, j), a.at(j, i));
            }
        }
    }
}
