//! Floating-point operation counts used to convert times into the Gflop/s
//! numbers plotted by the paper's figures.

/// Flops of `C += A · B` on `m x m` blocks.
pub fn gemm(m: usize) -> f64 {
    2.0 * (m as f64).powi(3)
}

/// Flops of `C -= A · Bᵀ` — same as [`gemm`].
pub fn gemm_nt(m: usize) -> f64 {
    gemm(m)
}

/// Flops of `C -= A · Aᵀ` on the lower triangle (incl. the diagonal) —
/// the `m(m+1)/2` elements the kernel computes, `2m` flops each.
pub fn syrk(m: usize) -> f64 {
    let m = m as f64;
    m * m * (m + 1.0)
}

/// Flops of the in-place block Cholesky (`n³/3` leading term).
pub fn potrf(m: usize) -> f64 {
    (m as f64).powi(3) / 3.0
}

/// Flops of the triangular solve `B ← B · L⁻ᵀ`.
pub fn trsm(m: usize) -> f64 {
    (m as f64).powi(3)
}

/// Flops of a block add/sub.
pub fn add(m: usize) -> f64 {
    (m as f64).powi(2)
}

/// Conventional flop count of an `n x n` Cholesky factorisation (`n³/3`) —
/// the numerator of Figure 8/11's Gflop/s.
pub fn cholesky_total(n: usize) -> f64 {
    (n as f64).powi(3) / 3.0
}

/// Conventional flop count of an `n x n` matrix multiplication (`2·n³`) —
/// Figure 12's numerator.
pub fn matmul_total(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

/// "The Gflops figures have been calculated using Strassen's formula from
/// \[15\]" (§VI.C): one recursion level costs 7 sub-multiplications plus 18
/// quadrant-sized additions; below the cutoff the classic `2·m³` applies.
pub fn strassen_total(n: usize, cutoff: usize) -> f64 {
    if n <= cutoff {
        matmul_total(n)
    } else {
        let half = n / 2;
        7.0 * strassen_total(half, cutoff) + 18.0 * (half as f64).powi(2)
    }
}

/// Gflop/s given a flop count and a duration in seconds.
pub fn gflops(flops: f64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        flops / seconds / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_counts() {
        assert_eq!(gemm(10), 2000.0);
        assert_eq!(gemm_nt(10), gemm(10));
        assert_eq!(syrk(10), 1100.0);
        assert_eq!(potrf(3), 9.0);
        assert_eq!(trsm(3), 27.0);
        assert_eq!(add(4), 16.0);
    }

    #[test]
    fn totals() {
        assert_eq!(cholesky_total(8192), 8192.0_f64.powi(3) / 3.0);
        assert_eq!(matmul_total(1024), 2.0 * 1024.0_f64.powi(3));
    }

    #[test]
    fn strassen_below_cutoff_is_classic() {
        assert_eq!(strassen_total(256, 512), matmul_total(256));
    }

    #[test]
    fn strassen_saves_operations() {
        // One level: 7/8 of the multiplies plus O(n²) additions.
        let classic = matmul_total(8192);
        let strassen = strassen_total(8192, 512);
        assert!(strassen < classic);
        assert!(strassen > 0.5 * classic);
    }

    #[test]
    fn strassen_recursion_matches_closed_form_one_level() {
        let n = 1024;
        let expected = 7.0 * matmul_total(n / 2) + 18.0 * (n as f64 / 2.0).powi(2);
        assert_eq!(strassen_total(n, 512), expected);
    }

    #[test]
    fn gflops_conversion() {
        assert_eq!(gflops(2e9, 1.0), 2.0);
        assert_eq!(gflops(1e9, 0.0), 0.0);
    }

    /// The tiled Cholesky's per-task flops must sum to the flat-matrix
    /// total (leading order): N(N-1)(N-2)/6 gemms + N(N-1)/2 syrks +
    /// N potrfs + N(N-1)/2 trsms on M-blocks ≈ (N·M)³/3.
    #[test]
    fn tiled_cholesky_flops_consistent() {
        let n_blocks = 16usize;
        let m = 64usize;
        let gemms = n_blocks * (n_blocks - 1) * (n_blocks - 2) / 6;
        let syrks = n_blocks * (n_blocks - 1) / 2;
        let trsms = n_blocks * (n_blocks - 1) / 2;
        let total_tiled = gemms as f64 * gemm_nt(m)
            + syrks as f64 * syrk(m)
            + n_blocks as f64 * potrf(m)
            + trsms as f64 * trsm(m);
        let total_flat = cholesky_total(n_blocks * m);
        let ratio = total_tiled / total_flat;
        // Every per-task count charges only what its kernel computes
        // (syrk the lower triangle), so the tiled sum matches the flat
        // n³/3 up to lower-order terms: 1.0014 at these sizes.
        assert!((1.0..1.01).contains(&ratio), "ratio={ratio}");
    }
}
