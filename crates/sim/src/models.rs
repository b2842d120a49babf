//! Cost models: per-task kernel costs for the DAG simulator, and the
//! analytic fork-join model of the threaded-BLAS baselines.

/// Single-core kernel throughput (Gflop/s) used to convert flop counts
/// into virtual-time task costs. Calibrate from real kernel runs (the
/// bench harness does) or use the defaults, which are in the ballpark of
/// the paper's 1.6 GHz Itanium2 (6.4 Gflop/s peak/core; Goto BLAS
/// sustained most of it, MKL slightly less on that machine).
#[derive(Clone, Copy, Debug)]
pub struct KernelRates {
    /// Compute throughput of the multiply-class kernels, Gflop/s.
    pub gemm_gflops: f64,
    /// Memory bandwidth for copy/add-class kernels, GB/s per core.
    pub mem_gbps: f64,
}

impl Default for KernelRates {
    fn default() -> Self {
        KernelRates {
            gemm_gflops: 5.6,
            mem_gbps: 2.0,
        }
    }
}

impl KernelRates {
    /// The second-vendor ("MKL tiles") rate set: same machine, somewhat
    /// lower sustained kernel throughput — the offset between the two
    /// SMPSs series in Figures 8/11/12.
    pub fn reference_vendor(self) -> KernelRates {
        KernelRates {
            gemm_gflops: self.gemm_gflops * 0.8,
            mem_gbps: self.mem_gbps,
        }
    }

    /// Cost in µs of `flops` floating-point operations.
    pub fn compute_us(&self, flops: f64) -> f64 {
        flops / (self.gemm_gflops * 1e3)
    }

    /// Cost in µs of moving `bytes` bytes.
    pub fn memory_us(&self, bytes: f64) -> f64 {
        bytes / (self.mem_gbps * 1e3)
    }

    /// Cost of one task of the linear-algebra applications, by task name
    /// (the names of `smpss-apps`' `task_def!`s) and block dimension `m`.
    pub fn task_cost_us(&self, name: &str, m: usize) -> f64 {
        let mf = m as f64;
        match name {
            // Multiply-class: 2·m³ flops.
            "sgemm_t" | "gemm_out_t" | "gemm_add_t" | "sgemm_sub_t" => {
                self.compute_us(2.0 * mf.powi(3))
            }
            // Lower-triangle syrk: m³ flops.
            "ssyrk_t" => self.compute_us(mf.powi(3)),
            // Cholesky/LU of one block: m³/3 flops.
            "spotrf_t" | "sgetrf_t" => self.compute_us(mf.powi(3) / 3.0),
            // Triangular solves: m³ flops.
            "strsm_t" | "strsm_l_t" | "strsm_u_t" => self.compute_us(mf.powi(3)),
            // Block copies: read+write m² f32.
            "get_block_t" | "put_block_t" => self.memory_us(2.0 * 4.0 * mf * mf),
            // Element-wise adds: 3 block accesses of m² f32 (2 in, 1 out)
            // — "additions and subtractions … have less arithmetic
            // operations per memory access, thus demanding more memory
            // bandwidth" (§VI.C).
            "add_t" | "sub_t" => self.memory_us(3.0 * 4.0 * mf * mf),
            "acc_t" | "acc_sub_t" => self.memory_us(3.0 * 4.0 * mf * mf),
            other => panic!("no cost model for task type {other:?}"),
        }
    }
}

/// Analytic model of a **threaded BLAS** library running a sequential
/// algorithm: each library call is a fork-join region; only the call's
/// internal loop parallelises; a barrier (whose cost grows with the
/// thread count) ends every region. `sync_us_per_thread` captures the
/// library's parallel-region efficiency — the paper's observed difference
/// between MKL (saturates ≈ 4 threads) and Goto (≈ 10) is exactly a
/// difference in this constant.
#[derive(Clone, Copy, Debug)]
pub struct ForkJoinBlas {
    pub rates: KernelRates,
    /// Barrier/fork cost per participating thread per parallel region, µs.
    pub sync_us_per_thread: f64,
    /// Smallest work quantum a library parallelises (one block row), µs —
    /// regions shorter than this run serially.
    pub min_parallel_us: f64,
    /// Effective-parallelism ceiling of the library's memory access
    /// pattern. A threaded BLAS walking one big **flat** matrix on the
    /// paper's ccNUMA Altix saturates the memory system at a
    /// library-dependent point; the paper *measures* where ("MKL … does
    /// not scale beyond 4 processors and … Goto … beyond 10", §VI.A) and
    /// this constant encodes that measured characteristic. (SMPSs escapes
    /// the ceiling because its on-demand block copies turn the access
    /// pattern into cache-resident block sweeps — which is mechanistic in
    /// the DAG simulator, not parameterised.)
    pub parallel_cap: f64,
}

impl ForkJoinBlas {
    /// A Goto-like threaded library: efficient parallel regions, flat
    /// accesses saturating around 10 threads on the Altix.
    pub fn goto_like(rates: KernelRates) -> Self {
        ForkJoinBlas {
            rates,
            sync_us_per_thread: 25.0,
            min_parallel_us: 50.0,
            parallel_cap: 10.5,
        }
    }

    /// An MKL-9.1-like threaded library: more expensive parallel regions
    /// and flat accesses saturating around 4 threads.
    pub fn mkl_like(rates: KernelRates) -> Self {
        ForkJoinBlas {
            rates: rates.reference_vendor(),
            sync_us_per_thread: 220.0,
            min_parallel_us: 50.0,
            parallel_cap: 4.3,
        }
    }

    /// One parallel region over `work_us` of total work on `p` threads.
    pub fn region_us(&self, work_us: f64, p: usize) -> f64 {
        let p = p.max(1);
        if p == 1 || work_us < self.min_parallel_us {
            return work_us;
        }
        let eff = (p as f64).min(self.parallel_cap);
        work_us / eff + self.sync_us_per_thread * p as f64
    }

    /// Virtual time of the full threaded Cholesky on an `n x n` matrix
    /// with internal blocking `m`, on `p` threads: for each panel step —
    /// serial `potrf`, one parallel `trsm` region, one parallel trailing
    /// `syrk`/`gemm` region.
    pub fn cholesky_us(&self, n: usize, m: usize, p: usize) -> f64 {
        let nb = n / m;
        let mf = m as f64;
        let mut total = 0.0;
        for k in 0..nb {
            let rem = nb - k - 1;
            total += self.rates.compute_us(mf.powi(3) / 3.0); // serial potrf
            if rem > 0 {
                let trsm_work = self.rates.compute_us(rem as f64 * mf.powi(3));
                total += self.region_us(trsm_work, p);
                let gemm_blocks = (rem * (rem + 1)) / 2;
                let upd_work = self.rates.compute_us(gemm_blocks as f64 * 2.0 * mf.powi(3));
                total += self.region_us(upd_work, p);
            }
        }
        total
    }

    /// Virtual time of the threaded matrix multiply (`C = A·B`, `n x n`):
    /// effectively one huge, perfectly parallel region per output sweep —
    /// this is why the libraries scale smoothly in Figure 12.
    pub fn matmul_us(&self, n: usize, p: usize) -> f64 {
        let work = self.rates.compute_us(2.0 * (n as f64).powi(3));
        self.region_us(work, p)
    }
}

/// Gflop/s achieved for `flops` work in `us` microseconds of virtual time.
pub fn gflops(flops: f64, us: f64) -> f64 {
    if us <= 0.0 {
        0.0
    } else {
        flops / (us * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_convert_sanely() {
        let r = KernelRates::default();
        // 2·256³ flops at 5.6 Gflop/s ≈ 5 992 µs.
        let us = r.task_cost_us("sgemm_t", 256);
        let expect = 2.0 * 256.0f64.powi(3) / (5.6 * 1e3);
        assert!((us - expect).abs() < 1e-9);
        assert!(
            us > 1000.0,
            "a 256-block gemm is a healthy-granularity task"
        );
        let tiny = r.task_cost_us("sgemm_t", 32);
        assert!(tiny < 20.0, "a 32-block gemm is runtime-overhead-bound");
    }

    #[test]
    fn copy_tasks_are_bandwidth_bound() {
        let r = KernelRates::default();
        let copy = r.task_cost_us("get_block_t", 256);
        let gemm = r.task_cost_us("sgemm_t", 256);
        assert!(copy < gemm / 10.0, "copies must be cheap next to gemms");
    }

    #[test]
    #[should_panic(expected = "no cost model")]
    fn unknown_task_panics() {
        KernelRates::default().task_cost_us("mystery_t", 8);
    }

    #[test]
    fn region_model_has_an_optimum() {
        let fj = ForkJoinBlas::mkl_like(KernelRates::default());
        let work = 10_000.0;
        let t1 = fj.region_us(work, 1);
        let t4 = fj.region_us(work, 4);
        let t32 = fj.region_us(work, 32);
        assert!(t4 < t1, "small thread counts help");
        assert!(
            t32 > t4,
            "sync costs must eventually beat the work split (t32={t32}, t4={t4})"
        );
    }

    #[test]
    fn mkl_like_saturates_before_goto_like() {
        let rates = KernelRates::default();
        let goto = ForkJoinBlas::goto_like(rates);
        let mkl = ForkJoinBlas::mkl_like(rates);
        let n = 8192;
        let m = 256;
        let best_p = |fj: &ForkJoinBlas| {
            (1..=32)
                .min_by(|&a, &b| fj.cholesky_us(n, m, a).total_cmp(&fj.cholesky_us(n, m, b)))
                .unwrap()
        };
        let goto_best = best_p(&goto);
        let mkl_best = best_p(&mkl);
        assert!(
            mkl_best < goto_best,
            "MKL-like must saturate earlier (mkl={mkl_best}, goto={goto_best})"
        );
        assert!(
            mkl_best <= 6,
            "paper: MKL does not scale beyond ~4 (got {mkl_best})"
        );
        assert!(
            (8..=14).contains(&goto_best),
            "paper: Goto scales to ~10 (got {goto_best})"
        );
        // Beyond the knee, more threads must not help meaningfully.
        let flat = mkl.cholesky_us(n, m, 32) / mkl.cholesky_us(n, m, mkl_best);
        assert!(
            flat >= 0.95,
            "MKL curve must be flat past its knee ({flat})"
        );
    }

    #[test]
    fn matmul_scales_more_smoothly_than_cholesky() {
        let fj = ForkJoinBlas::goto_like(KernelRates::default());
        let n = 4096;
        let m = 256;
        let chol_speedup = fj.cholesky_us(n, m, 1) / fj.cholesky_us(n, m, 32);
        let mm_speedup = fj.matmul_us(n, 1) / fj.matmul_us(n, 32);
        assert!(
            mm_speedup > chol_speedup,
            "one big region must scale better than many small ones \
             (matmul {mm_speedup:.1}x vs cholesky {chol_speedup:.1}x)"
        );
    }

    #[test]
    fn gflops_helper() {
        assert_eq!(gflops(2e9, 1e6), 2.0); // 2 Gflop in 1 s
        assert_eq!(gflops(1.0, 0.0), 0.0);
    }
}
