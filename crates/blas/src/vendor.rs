//! Vendor dispatch: the two "tiles" implementations of the paper's plots.

use crate::block::Block;
use crate::kernels;
pub use crate::kernels::NotPositiveDefinite;

/// Which kernel library a task body uses — the stand-ins for the paper's
/// non-threaded Goto BLAS ("Tuned") and Intel MKL ("Reference"). Both are
/// numerically equivalent; they differ in speed, which is all the paper's
/// comparison needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Vendor {
    /// Register-blocked kernels (the "Goto tiles" series): gemm, syrk,
    /// trsm and potrf all run on one packed micro-kernel, 6×16 with FMA
    /// on CPUs with AVX2 and FMA and 4×8 elsewhere (see
    /// [`kernels::instance`]). The LU kernels and the element-wise ones
    /// have a single implementation shared by both vendors.
    #[default]
    Tuned,
    /// Textbook kernels (the "MKL tiles" series).
    Reference,
}

impl Vendor {
    /// Display name used by the benchmark harness.
    pub fn label(self) -> &'static str {
        match self {
            Vendor::Tuned => "Goto-like (tuned)",
            Vendor::Reference => "MKL-like (reference)",
        }
    }

    /// `C += A · B` (matrix-multiply task of Figure 1).
    pub fn gemm_add(self, a: &Block, b: &Block, c: &mut Block) {
        match self {
            Vendor::Tuned => kernels::gemm_add_tuned(a, b, c),
            Vendor::Reference => kernels::gemm_add_ref(a, b, c),
        }
    }

    /// `C -= A · Bᵀ` (`sgemm_t` inside the Cholesky of Figure 4).
    pub fn gemm_nt_sub(self, a: &Block, b: &Block, c: &mut Block) {
        match self {
            Vendor::Tuned => kernels::gemm_nt_sub_tuned(a, b, c),
            Vendor::Reference => kernels::gemm_nt_sub_ref(a, b, c),
        }
    }

    /// `C -= A · Aᵀ` (`ssyrk_t`).
    pub fn syrk_sub(self, a: &Block, c: &mut Block) {
        match self {
            Vendor::Tuned => kernels::syrk_sub_tuned(a, c),
            Vendor::Reference => kernels::syrk_sub(a, c),
        }
    }

    /// In-place lower Cholesky (`spotrf_t`).
    pub fn potrf(self, a: &mut Block) -> Result<(), NotPositiveDefinite> {
        match self {
            Vendor::Tuned => kernels::potrf_tuned(a),
            Vendor::Reference => kernels::potrf(a),
        }
    }

    /// `B ← B · L⁻ᵀ` (`strsm_t`).
    pub fn trsm_rlt(self, l: &Block, b: &mut Block) {
        match self {
            Vendor::Tuned => kernels::trsm_rlt_tuned(l, b),
            Vendor::Reference => kernels::trsm_rlt(l, b),
        }
    }

    /// `C -= A · B` (blocked LU trailing update).
    pub fn gemm_nn_sub(self, a: &Block, b: &Block, c: &mut Block) {
        kernels::gemm_nn_sub(a, b, c)
    }

    /// In-place LU without pivoting (`sgetrf_t`).
    pub fn getrf_nopiv(self, a: &mut Block) -> Result<(), NotPositiveDefinite> {
        kernels::getrf_nopiv(a)
    }

    /// `B ← L⁻¹ · B` (LU row-panel solve).
    pub fn trsm_llu(self, lu: &Block, b: &mut Block) {
        kernels::trsm_llu(lu, b)
    }

    /// `B ← B · U⁻¹` (LU column-panel solve).
    pub fn trsm_ru(self, lu: &Block, b: &mut Block) {
        kernels::trsm_ru(lu, b)
    }

    /// `C = A + B` (Strassen).
    pub fn add(self, a: &Block, b: &Block, c: &mut Block) {
        kernels::add(a, b, c)
    }

    /// `C = A - B` (Strassen).
    pub fn sub(self, a: &Block, b: &Block, c: &mut Block) {
        kernels::sub(a, b, c)
    }

    /// `C += A`.
    pub fn acc(self, a: &Block, c: &mut Block) {
        kernels::acc(a, c)
    }

    /// `C -= A`.
    pub fn acc_sub(self, a: &Block, c: &mut Block) {
        kernels::acc_sub(a, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendors_agree() {
        let a = Block::random(16, 1);
        let b = Block::random(16, 2);
        let mut c1 = Block::zeros(16);
        let mut c2 = Block::zeros(16);
        Vendor::Tuned.gemm_add(&a, &b, &mut c1);
        Vendor::Reference.gemm_add(&a, &b, &mut c2);
        assert!(c1.max_abs_diff(&c2) < 1e-3);
        Vendor::Tuned.gemm_nt_sub(&a, &b, &mut c1);
        Vendor::Reference.gemm_nt_sub(&a, &b, &mut c2);
        assert!(c1.max_abs_diff(&c2) < 1e-3);
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(Vendor::Tuned.label(), Vendor::Reference.label());
    }

    /// A speed-ratio canary, not a benchmark: on a 128-block every tuned
    /// kernel must beat its reference twin by at least 1.5x, both timed
    /// in this process (median of 5). A ratio survives a shared host
    /// where absolute Gflop/s do not.
    #[test]
    fn tuned_is_not_slower_on_large_blocks() {
        let m = 128;
        let a = Block::random(m, 1);
        let b = Block::random(m, 2);
        let spd = Block::random_spd(m, 3);
        let mut l = spd.clone();
        Vendor::Reference.potrf(&mut l).unwrap();
        let median_secs = |run: &mut dyn FnMut()| {
            let mut times: Vec<f64> = (0..5)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    run();
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            times.sort_by(f64::total_cmp);
            times[2]
        };
        type Kernel<'a> = &'a dyn Fn(Vendor, &mut Block);
        let kernels: [(&str, Kernel); 5] = [
            ("gemm_add", &|v, c| v.gemm_add(&a, &b, c)),
            ("gemm_nt_sub", &|v, c| v.gemm_nt_sub(&a, &b, c)),
            ("syrk_sub", &|v, c| v.syrk_sub(&a, c)),
            ("trsm_rlt", &|v, c| v.trsm_rlt(&l, c)),
            ("potrf", &|v, c| {
                c.as_mut_slice().copy_from_slice(spd.as_slice());
                v.potrf(c).unwrap();
            }),
        ];
        for (name, kernel) in kernels {
            let mut c = Block::random(m, 4);
            let [tuned, reference] = [Vendor::Tuned, Vendor::Reference]
                .map(|v| median_secs(&mut || kernel(v, std::hint::black_box(&mut c))));
            assert!(
                tuned * 1.5 <= reference,
                "{name}: tuned {tuned:.2e} s vs reference {reference:.2e} s"
            );
        }
    }
}
