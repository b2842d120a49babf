//! `dense_cholesky`: blocked Cholesky of a dense SPD matrix — few, fat
//! tasks, so the kernels do nearly all the work.

use std::time::Instant;

use smpss::Runtime;
use smpss_apps::cholesky::cholesky_hyper;
use smpss_apps::flat::FlatMatrix;
use smpss_apps::hyper::HyperMatrix;
use smpss_blas::{flops, Block, Vendor};
use smpss_sim::{simulate, MachineConfig, SimGraph};

use super::{Closed, LayerCtx, Metrics, RtOpts, Size};
use crate::rng::mix;
use crate::spans::Spans;
use crate::summary::Summary;

const VENDOR: Vendor = Vendor::Tuned;
/// Relative error allowed against the reference factorisation.
const TOLERANCE: f32 = 1e-4;

pub struct Cholesky {
    rt: Runtime,
    /// Blocks per side and elements per block side.
    n: usize,
    m: usize,
    input: FlatMatrix,
    a: HyperMatrix,
}

/// A symmetric, strictly diagonally dominant matrix with a positive
/// diagonal — hence positive definite — in O(n²): entry (i, j) is a hash
/// of the seed and the unordered pair, in [-0.5, 0.5), and the diagonal
/// exceeds any row's absolute off-diagonal sum (< n/2).
fn spd_from_seed(dim: usize, seed: u64) -> FlatMatrix {
    FlatMatrix::from_fn(dim, |i, j| {
        let (lo, hi) = (i.min(j) as u64, i.max(j) as u64);
        let unit = (mix(seed ^ mix(lo << 32 | hi)) >> 40) as f32 / (1u64 << 24) as f32;
        if i == j {
            dim as f32 / 2.0 + 1.0 + unit
        } else {
            unit - 0.5
        }
    })
}

/// Blocks the algorithm touches per task, for the computed byte count:
/// gemm reads a, b, c and writes c; syrk and trsm read two, write one;
/// potrf reads and writes one.
fn block_accesses(task: &str) -> f64 {
    match task {
        "sgemm_t" => 4.0,
        "ssyrk_t" | "strsm_t" => 3.0,
        "spotrf_t" => 2.0,
        _ => 0.0,
    }
}

fn task_flops(task: &str, m: usize) -> f64 {
    match task {
        "sgemm_t" => flops::gemm_nt(m),
        "ssyrk_t" => flops::syrk(m),
        "strsm_t" => flops::trsm(m),
        "spotrf_t" => flops::potrf(m),
        _ => 0.0,
    }
}

impl Cholesky {
    /// Seconds per call of each kernel at this block size, single thread,
    /// on private blocks: the median of `ROUNDS` timings.
    fn kernel_seconds(&self) -> [(&'static str, f64); 4] {
        const ROUNDS: usize = 9;
        let m = self.m;
        let a = Block::random(m, 1);
        let b = Block::random(m, 2);
        let spd = Block::random_spd(m, 3);
        let mut l = spd.clone();
        VENDOR
            .potrf(&mut l)
            .expect("random_spd is positive definite");
        let mut c = Block::random(m, 4);
        let median = |f: &mut dyn FnMut()| {
            let times: Vec<f64> = (0..ROUNDS)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            Summary::of(&times).median
        };
        let gemm = median(&mut || VENDOR.gemm_nt_sub(&a, &b, std::hint::black_box(&mut c)));
        let syrk = median(&mut || VENDOR.syrk_sub(&a, std::hint::black_box(&mut c)));
        let trsm = median(&mut || VENDOR.trsm_rlt(&l, std::hint::black_box(&mut c)));
        let potrf = median(&mut || {
            let mut p = spd.clone();
            VENDOR
                .potrf(std::hint::black_box(&mut p))
                .expect("random_spd is positive definite");
        });
        [
            ("sgemm_t", gemm),
            ("ssyrk_t", syrk),
            ("strsm_t", trsm),
            ("spotrf_t", potrf),
        ]
    }
}

impl Closed for Cholesky {
    /// The reference factor `L` (lower triangle) and its largest entry.
    type Oracle = (FlatMatrix, f32);

    fn setup(seed: u64, size: Size, opts: RtOpts, spans: &mut Spans) -> Self {
        let (n, m) = size.pick((8, 128), (4, 32));
        let s = spans.enter("runtime.build", 0);
        let rt = opts.builder().build();
        spans.exit(s);
        let s = spans.enter("input.generate", 0);
        let input = spd_from_seed(n * m, seed);
        spans.exit(s);
        let s = spans.enter("data.alloc", 0);
        let a = HyperMatrix::from_flat(&rt, &input, m);
        spans.exit(s);
        Cholesky { rt, n, m, input, a }
    }

    fn oracle(&self) -> Self::Oracle {
        let mut l = self.input.clone();
        l.cholesky_ref();
        let dim = l.dim();
        let largest = (0..dim)
            .flat_map(|i| (0..=i).map(move |j| (i, j)))
            .map(|(i, j)| l.at(i, j).abs())
            .fold(0.0, f32::max);
        (l, largest)
    }

    fn rt(&self) -> &Runtime {
        &self.rt
    }

    fn reset(&mut self) {
        // The factorisation is in place: every repetition starts from
        // freshly blocked input.
        self.a = HyperMatrix::from_flat(&self.rt, &self.input, self.m);
    }

    fn spawn(&mut self) {
        cholesky_hyper(&self.rt, &self.a, VENDOR);
    }

    fn verify(&mut self, (l, largest): &Self::Oracle) -> bool {
        let got = self.a.to_flat(&self.rt);
        let err = got.max_abs_diff_lower(l) / largest;
        err.is_finite() && err < TOLERANCE
    }

    fn tasks_per_rep(&self) -> u64 {
        // n potrf, n(n-1)/2 trsm, n(n-1)/2 syrk, n(n-1)(n-2)/6 gemm.
        let n = self.n as u64;
        n + n * (n - 1) + n * (n - 1) * (n - 2) / 6
    }

    fn handles(&self) -> usize {
        self.n * self.n
    }

    /// The same blocked algorithm calling the kernels directly.
    fn sequential_s(&self) -> f64 {
        let (n, m) = (self.n, self.m);
        let mut blocks: Vec<Option<Block>> = (0..n * n)
            .map(|idx| {
                let mut b = Block::zeros(m);
                self.input.copy_block_out(m, idx / n, idx % n, &mut b);
                Some(b)
            })
            .collect();
        // The written block is taken out of the grid while the kernel
        // runs, so the blocks it reads can be borrowed beside it.
        fn read(grid: &[Option<Block>], idx: usize) -> &Block {
            grid[idx]
                .as_ref()
                .expect("only the written block is out of the grid")
        }
        let take = |grid: &mut [Option<Block>], idx: usize| {
            grid[idx].take().expect("block is in the grid")
        };
        let t0 = Instant::now();
        for j in 0..n {
            for k in 0..j {
                for i in j + 1..n {
                    let mut c = take(&mut blocks, i * n + j);
                    VENDOR.gemm_nt_sub(read(&blocks, i * n + k), read(&blocks, j * n + k), &mut c);
                    blocks[i * n + j] = Some(c);
                }
            }
            let mut d = take(&mut blocks, j * n + j);
            for i in 0..j {
                VENDOR.syrk_sub(read(&blocks, j * n + i), &mut d);
            }
            VENDOR.potrf(&mut d).expect("input is positive definite");
            blocks[j * n + j] = Some(d);
            for i in j + 1..n {
                let mut c = take(&mut blocks, i * n + j);
                VENDOR.trsm_rlt(read(&blocks, j * n + j), &mut c);
                blocks[i * n + j] = Some(c);
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(&blocks);
        secs
    }

    const PHASE_SPLIT: bool = true;

    fn layer_extras(&self, ctx: &LayerCtx, out: &mut Metrics) {
        let m = self.m;
        let kernels = self.kernel_seconds();
        let secs = |task: &str| {
            kernels
                .iter()
                .find(|(k, _)| *k == task)
                .map_or(0.0, |(_, s)| *s)
        };
        for (metric, task) in [
            ("blas.gemm_nt_gflops", "sgemm_t"),
            ("blas.syrk_gflops", "ssyrk_t"),
            ("blas.trsm_gflops", "strsm_t"),
            ("blas.potrf_gflops", "spotrf_t"),
        ] {
            out.set(metric, flops::gflops(task_flops(task, m), secs(task)));
        }
        let histogram = ctx.graph.histogram();
        let sum = |f: &dyn Fn(&str) -> f64| {
            histogram
                .iter()
                .map(|(task, count)| *count as f64 * f(task))
                .sum::<f64>()
        };
        out.set(
            "blas.kernel_share",
            sum(&secs) / (ctx.threads as f64 * ctx.op_p50_s),
        );
        let block_bytes = (m * m * std::mem::size_of::<f32>()) as f64;
        out.set(
            "blas.computed_bytes_per_flop",
            sum(&|t| block_accesses(t) * block_bytes) / sum(&|t| task_flops(t, m)),
        );
        // The recorded graph at the probed kernel costs on an ideal machine
        // of as many threads: what scheduling alone could reach.
        let graph = SimGraph::from_record(ctx.graph, |task| secs(task) * 1e6);
        let ideal_us = simulate(&graph, &MachineConfig::ideal(ctx.threads)).makespan_us;
        out.set("sim.makespan_ratio", ctx.op_p50_s * 1e6 / ideal_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_matrix_is_symmetric_dominant_and_seeded() {
        let a = spd_from_seed(24, 5);
        for i in 0..24 {
            let off: f32 = (0..24).filter(|&j| j != i).map(|j| a.at(i, j).abs()).sum();
            assert!(a.at(i, i) > off, "row {i} is not diagonally dominant");
            for j in 0..24 {
                assert_eq!(a.at(i, j), a.at(j, i));
            }
        }
        assert_eq!(a, spd_from_seed(24, 5));
        assert_ne!(a, spd_from_seed(24, 6));
    }

    #[test]
    fn a_quick_factorisation_passes_its_gate_and_a_spoiled_one_fails() {
        let mut w = Cholesky::setup(3, Size::Quick, RtOpts::plain(2), &mut Spans::new(false, 0));
        let oracle = w.oracle();
        w.reset();
        w.spawn();
        w.rt().barrier();
        assert!(w.verify(&oracle));
        assert_eq!(w.rt().stats().tasks_executed, w.tasks_per_rep());
        // Unfactored input must not pass for a factor.
        w.reset();
        assert!(!w.verify(&oracle));
        assert!(w.sequential_s() > 0.0);
    }
}
