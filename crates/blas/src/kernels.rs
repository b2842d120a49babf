//! The level-3 kernels behind the paper's task bodies (Figure 2), in two
//! implementations each — see [`crate::Vendor`] for the dispatch layer.
//!
//! Semantics follow the tiled algorithms of §IV:
//!
//! * [`gemm_add_ref`]/[`gemm_add_tuned`] — `C += A · B`            (matrix-multiply task, Fig. 1)
//! * [`gemm_nt_sub_ref`]/[`gemm_nt_sub_tuned`] — `C -= A · Bᵀ`           (`sgemm_t` in the Cholesky of Fig. 4)
//! * [`syrk_sub`]/[`syrk_sub_tuned`] — `C -= A · Aᵀ`           (`ssyrk_t`)
//! * [`potrf`]/[`potrf_tuned`] — in-place lower Cholesky (`spotrf_t`)
//! * [`trsm_rlt`]/[`trsm_rlt_tuned`] — `B ← B · L⁻ᵀ`           (`strsm_t`, right-solve with the
//!   lower-triangular factor produced by `potrf`)
//! * [`add`] / [`sub`] — block add/subtract     (Strassen, §VI.C)
//!
//! The reference kernels are textbook scalar loops; they are
//! `Vendor::Reference` and the oracle every tuned kernel is tested
//! against. The tuned kernels share one register-tiled micro-kernel in
//! the packed-panel style of Goto & van de Geijn (TOMS 2008): operands
//! are copied into `MR`-row and `NR`-column panels laid out k-major, and
//! an `MR × NR` tile of accumulators is updated from one panel of each.
//! That path is one generic source compiled twice: a portable 4×8
//! instance and, on x86-64 CPUs reporting AVX2 and FMA, a 6×16 instance
//! built for those features, chosen per call ([`instance`]).
//! `gemm_*` and `syrk` are that update alone (syrk only on tiles that
//! touch the lower triangle); `trsm` and `potrf` are blocked by `NB`
//! columns, with a small solve or factorisation on each diagonal block
//! and every other flop on the micro-kernel. The LU kernels
//! (`gemm_nn_sub`, `getrf_nopiv`, `trsm_llu`, `trsm_ru`) have one
//! implementation each.

use std::cell::RefCell;

use crate::block::Block;

/// `C += A · B` — reference (textbook i-j-k).
pub fn gemm_add_ref(a: &Block, b: &Block, c: &mut Block) {
    let m = check_dims(a, b, c);
    for i in 0..m {
        for j in 0..m {
            let mut s = 0.0f32;
            for k in 0..m {
                s += a.at(i, k) * b.at(k, j);
            }
            *c.row_mut(i).get_mut(j).unwrap() += s;
        }
    }
}

/// `C += A · B` — tuned: `B` is packed untransposed (its rows are
/// already k-major) and the whole block is one tiled update.
pub fn gemm_add_tuned(a: &Block, b: &Block, c: &mut Block) {
    Isa::selected().gemm_add(a, b, c)
}

/// `C -= A · Bᵀ` — reference.
pub fn gemm_nt_sub_ref(a: &Block, b: &Block, c: &mut Block) {
    let m = check_dims(a, b, c);
    for i in 0..m {
        for j in 0..m {
            let mut s = 0.0f32;
            for k in 0..m {
                s += a.at(i, k) * b.at(j, k);
            }
            let v = c.at(i, j) - s;
            c.set(i, j, v);
        }
    }
}

/// `C -= A · Bᵀ` — tuned: both operands are packed from their rows and
/// the whole block is one tiled update.
pub fn gemm_nt_sub_tuned(a: &Block, b: &Block, c: &mut Block) {
    Isa::selected().gemm_nt_sub(a, b, c)
}

/// `C -= A · Aᵀ`, lower triangle only (BLAS `ssyrk` with `uplo = 'L'`):
/// the strict upper triangle of `c` is left untouched, exactly like the
/// library routine the paper's `ssyrk_t` wraps — this is what keeps the
/// in-place Cholesky's unreferenced upper triangle intact (§VI.A).
pub fn syrk_sub(a: &Block, c: &mut Block) {
    let m = check_square(a, c);
    for i in 0..m {
        for j in 0..=i {
            let mut s = 0.0f32;
            for k in 0..m {
                s += a.at(i, k) * a.at(j, k);
            }
            let v = c.at(i, j) - s;
            c.set(i, j, v);
        }
    }
}

/// Tuned variant of [`syrk_sub`]: the tiled update of `A · Aᵀ`, run only
/// on tiles that touch the lower triangle and written back under the
/// triangle mask, so the strict upper triangle is never stored to.
pub fn syrk_sub_tuned(a: &Block, c: &mut Block) {
    Isa::selected().syrk_sub(a, c)
}

/// Error raised by [`potrf`] when a diagonal pivot is not positive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Index of the failing pivot.
    pub pivot: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite at pivot {}", self.pivot)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// In-place Cholesky factorisation of the lower triangle: on success the
/// lower triangle (incl. diagonal) of `a` holds `L` with `L·Lᵀ = A`. The
/// strict upper triangle is left untouched.
pub fn potrf(a: &mut Block) -> Result<(), NotPositiveDefinite> {
    let m = a.dim();
    potrf_in(a.as_mut_slice(), m, m)
}

/// [`potrf`] on the `m × m` window of `a` whose element `(i, j)` is
/// `a[i * ld + j]`.
fn potrf_in(a: &mut [f32], ld: usize, m: usize) -> Result<(), NotPositiveDefinite> {
    for j in 0..m {
        let mut d = a[j * ld + j];
        for k in 0..j {
            let v = a[j * ld + k];
            d -= v * v;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(NotPositiveDefinite { pivot: j });
        }
        let d = d.sqrt();
        a[j * ld + j] = d;
        for i in j + 1..m {
            let mut s = a[i * ld + j];
            for k in 0..j {
                s -= a[i * ld + k] * a[j * ld + k];
            }
            a[i * ld + j] = s / d;
        }
    }
    Ok(())
}

/// Tuned variant of [`potrf`], right-looking by `NB`-column blocks: the
/// diagonal block is factored in place by [`potrf`]'s own loop, the rows
/// below it are solved against that factor, and the trailing lower
/// triangle takes their `A·Aᵀ` update on the micro-kernel. Reads and
/// writes only the lower triangle; a failing pivot is reported by its
/// index in `a`, as [`potrf`] reports it.
pub fn potrf_tuned(a: &mut Block) -> Result<(), NotPositiveDefinite> {
    Isa::selected().potrf(a)
}

/// `B ← B · L⁻ᵀ` where `l`'s lower triangle is the Cholesky factor of the
/// diagonal block: the `strsm_t` of Figure 2/4.
pub fn trsm_rlt(l: &Block, b: &mut Block) {
    let m = check_square(l, b);
    for r in 0..m {
        for j in 0..m {
            let mut s = b.at(r, j);
            for k in 0..j {
                s -= b.at(r, k) * l.at(j, k);
            }
            b.set(r, j, s / l.at(j, j));
        }
    }
}

/// Tuned variant of [`trsm_rlt`], right-looking by `NB`-column blocks:
/// each block column of `B` is solved against the diagonal block of `L`,
/// then every column right of it takes the solved block's update on the
/// micro-kernel. Reads only the lower triangle of `l`.
pub fn trsm_rlt_tuned(l: &Block, b: &mut Block) {
    Isa::selected().trsm_rlt(l, b)
}

/// `C -= A · B` (the trailing update of the blocked LU).
pub fn gemm_nn_sub(a: &Block, b: &Block, c: &mut Block) {
    let m = check_dims(a, b, c);
    for i in 0..m {
        for k in 0..m {
            let aik = a.at(i, k);
            if aik == 0.0 {
                continue;
            }
            let brow = b.row(k);
            let crow = c.row_mut(i);
            for j in 0..m {
                crow[j] -= aik * brow[j];
            }
        }
    }
}

/// In-place LU factorisation without pivoting: on success `a` holds the
/// unit-lower factor `L` (implicit unit diagonal) below the diagonal and
/// `U` on/above it (`sgetrf` without the pivot vector — the paper notes
/// pivoting is what makes LU hard to block, §V, so the blocked variant
/// omits it).
pub fn getrf_nopiv(a: &mut Block) -> Result<(), NotPositiveDefinite> {
    let m = a.dim();
    for k in 0..m {
        let pivot = a.at(k, k);
        if pivot == 0.0 || !pivot.is_finite() {
            return Err(NotPositiveDefinite { pivot: k });
        }
        for i in k + 1..m {
            let l = a.at(i, k) / pivot;
            a.set(i, k, l);
            for j in k + 1..m {
                let v = a.at(i, j) - l * a.at(k, j);
                a.set(i, j, v);
            }
        }
    }
    Ok(())
}

/// `B ← L⁻¹ · B` where `lu`'s strict lower triangle is the unit-lower
/// factor from [`getrf_nopiv`] (left solve; updates the row panel).
pub fn trsm_llu(lu: &Block, b: &mut Block) {
    let m = check_square(lu, b);
    for j in 0..m {
        for i in 0..m {
            let mut s = b.at(i, j);
            for k in 0..i {
                s -= lu.at(i, k) * b.at(k, j);
            }
            b.set(i, j, s); // unit diagonal: no division
        }
    }
}

/// `B ← B · U⁻¹` where `lu`'s upper triangle (incl. diagonal) is the
/// factor from [`getrf_nopiv`] (right solve; updates the column panel).
pub fn trsm_ru(lu: &Block, b: &mut Block) {
    let m = check_square(lu, b);
    for i in 0..m {
        for j in 0..m {
            let mut s = b.at(i, j);
            for k in 0..j {
                s -= b.at(i, k) * lu.at(k, j);
            }
            b.set(i, j, s / lu.at(j, j));
        }
    }
}

/// `C = A + B` (Strassen).
pub fn add(a: &Block, b: &Block, c: &mut Block) {
    let _ = check_dims(a, b, c);
    for ((cv, av), bv) in c
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *cv = av + bv;
    }
}

/// `C = A - B` (Strassen).
pub fn sub(a: &Block, b: &Block, c: &mut Block) {
    let _ = check_dims(a, b, c);
    for ((cv, av), bv) in c
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *cv = av - bv;
    }
}

/// `C += A` (Strassen recombination).
pub fn acc(a: &Block, c: &mut Block) {
    assert_eq!(a.dim(), c.dim());
    for (cv, av) in c.as_mut_slice().iter_mut().zip(a.as_slice()) {
        *cv += av;
    }
}

/// `C -= A` (Strassen recombination).
pub fn acc_sub(a: &Block, c: &mut Block) {
    assert_eq!(a.dim(), c.dim());
    for (cv, av) in c.as_mut_slice().iter_mut().zip(a.as_slice()) {
        *cv -= av;
    }
}

// The tiled path shared by every tuned kernel.

/// Width of the diagonal blocks `trsm` and `potrf` solve outside the
/// micro-kernel.
const NB: usize = 16;

/// The name of the tiled-path instance the tuned kernels run on this
/// CPU: `"x86-64-v3 6x16 fma"` on an x86-64 CPU that reports AVX2 and
/// FMA, `"portable 4x8"` otherwise.
pub fn instance() -> &'static str {
    Isa::selected().name()
}

/// The tiled path, compiled once per instance from this one source: an
/// `MR × NR` tile of f32 accumulators and, with `FMA`, every multiply-add
/// of the micro-kernel, the write-back and the solve fused into one
/// rounding. Each instance's tile is sized to its register file.
struct Tiled<const MR: usize, const NR: usize, const FMA: bool>;

/// Built for the baseline x86-64 target (SSE2, 16 registers of 4 f32):
/// the 4×8 = 32 accumulators fill 8 registers, leaving room for the two
/// B vectors and the broadcast A value of each k step.
type Portable = Tiled<4, 8, false>;

/// Built with AVX2 and FMA (16 registers of 8 f32): the 6×16 = 96
/// accumulators fill 12 registers, the B row 2 more and the broadcast 1.
/// The same tile on the baseline target needs 24 of its 16 registers and
/// spills, which is why [`Portable`] keeps 4×8.
#[cfg(target_arch = "x86_64")]
type X86V3 = Tiled<6, 16, true>;

/// The instances of the tiled path in this build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    /// [`Portable`], for any CPU.
    Portable,
    /// [`X86V3`], for an x86-64 CPU with AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    X86V3,
}

#[cfg(target_arch = "x86_64")]
fn has_avx2_fma() -> bool {
    std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
}

/// Packed A and B operands.
type Packs = (Vec<f32>, Vec<f32>);

thread_local! {
    /// Kept per thread so a task body reuses the previous call's buffers
    /// instead of allocating.
    static PACKS: RefCell<Packs> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// One tuned kernel call on row-major `m × m` blocks, handed whole to an
/// instance so that every loop of it runs on that instance's code.
enum Call<'a> {
    /// `C += alpha · A · Bᵀ`, with `A`'s element `(p, k)` at `a[p * m +
    /// k]` and `Bᵀ`'s at `b[p * sp + k * sk]` for `b_strides = (sp, sk)`;
    /// `lower` as in [`Tiled::update`].
    Update {
        a: &'a [f32],
        b: &'a [f32],
        b_strides: (usize, usize),
        c: &'a mut [f32],
        alpha: f32,
        lower: bool,
    },
    /// `B ← B · L⁻ᵀ`, reading only `L`'s lower triangle.
    Trsm { l: &'a [f32], b: &'a mut [f32] },
    /// In-place lower Cholesky.
    Potrf { a: &'a mut [f32] },
}

impl Isa {
    /// The instance this CPU runs: x86-64-v3 when it reports AVX2 and FMA.
    fn selected() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if has_avx2_fma() {
            return Isa::X86V3;
        }
        Isa::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable 4x8",
            #[cfg(target_arch = "x86_64")]
            Isa::X86V3 => "x86-64-v3 6x16 fma",
        }
    }

    fn gemm_add(self, a: &Block, b: &Block, c: &mut Block) {
        self.update(a, b, (1, a.dim()), c, 1.0, false)
    }

    fn gemm_nt_sub(self, a: &Block, b: &Block, c: &mut Block) {
        self.update(a, b, (b.dim(), 1), c, -1.0, false)
    }

    fn syrk_sub(self, a: &Block, c: &mut Block) {
        self.update(a, a, (a.dim(), 1), c, -1.0, true)
    }

    /// [`Call::Update`] on whole blocks.
    fn update(
        self,
        a: &Block,
        b: &Block,
        b_strides: (usize, usize),
        c: &mut Block,
        alpha: f32,
        lower: bool,
    ) {
        let m = check_dims(a, b, c);
        let call = Call::Update {
            a: a.as_slice(),
            b: b.as_slice(),
            b_strides,
            c: c.as_mut_slice(),
            alpha,
            lower,
        };
        self.run(m, call).expect("only potrf fails");
    }

    fn trsm_rlt(self, l: &Block, b: &mut Block) {
        let m = check_square(l, b);
        let (l, b) = (l.as_slice(), b.as_mut_slice());
        self.run(m, Call::Trsm { l, b }).expect("only potrf fails");
    }

    fn potrf(self, a: &mut Block) -> Result<(), NotPositiveDefinite> {
        let m = a.dim();
        let a = a.as_mut_slice();
        self.run(m, Call::Potrf { a })
    }

    /// Runs `call` on this instance with the thread's packing scratch.
    fn run(self, m: usize, call: Call) -> Result<(), NotPositiveDefinite> {
        PACKS.with(|packs| {
            let packs = &mut *packs.borrow_mut();
            match self {
                Isa::Portable => Portable::run(m, call, packs),
                #[cfg(target_arch = "x86_64")]
                Isa::X86V3 => {
                    assert!(has_avx2_fma(), "the x86-64-v3 instance needs AVX2 and FMA");
                    // SAFETY: `run_x86_v3` is compiled for AVX2 and FMA, so
                    // it may only run on a CPU that has both. The assert
                    // above checks this CPU's report of both with
                    // `has_avx2_fma`, the check `selected` uses; the unit
                    // test `selected_instance_follows_the_cpu` pins that
                    // choice against the CPU's own report.
                    unsafe { run_x86_v3(m, call, packs) }
                }
            }
        })
    }
}

/// [`X86V3`] built with AVX2 and FMA enabled. Every function of the
/// tiled path is `#[inline(always)]`, so all of its loops are compiled
/// into this one function for those features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_x86_v3(m: usize, call: Call, packs: &mut Packs) -> Result<(), NotPositiveDefinite> {
    X86V3::run(m, call, packs)
}

/// `a · b + c`, rounded once when `FMA`.
#[inline(always)]
fn madd<const FMA: bool>(a: f32, b: f32, c: f32) -> f32 {
    if FMA {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// An operand packed by [`pack`]: `n` rows of `depth` values in panels of
/// `W` rows, each panel k-major (the `W` values of one k are adjacent).
struct Panels<'a> {
    data: &'a [f32],
    n: usize,
    depth: usize,
}

/// Packs the `n × depth` operand whose element `(p, k)` is
/// `src[p * sp + k * sk]` into `out` as `⌈n / W⌉` panels of `W` rows.
/// Rows past `n` are zero, so edge tiles compute on padding and are
/// masked at write-back.
#[inline(always)]
fn pack<'a, const W: usize>(
    out: &'a mut Vec<f32>,
    src: &[f32],
    sp: usize,
    sk: usize,
    n: usize,
    depth: usize,
) -> Panels<'a> {
    out.clear();
    out.resize(n.div_ceil(W) * W * depth, 0.0);
    for (q, panel) in out.chunks_exact_mut(W * depth).enumerate() {
        let (slots, _) = panel.as_chunks_mut::<W>();
        for r in 0..W.min(n - q * W) {
            let line = src[(q * W + r) * sp..].iter().step_by(sk);
            for (slot, v) in slots.iter_mut().zip(line) {
                slot[r] = *v;
            }
        }
    }
    Panels {
        data: out,
        n,
        depth,
    }
}

impl<const MR: usize, const NR: usize, const FMA: bool> Tiled<MR, NR, FMA> {
    /// Runs `call` on `m × m` blocks with `packs` as packing scratch.
    #[inline(always)]
    fn run(m: usize, call: Call, (ap, bp): &mut Packs) -> Result<(), NotPositiveDefinite> {
        match call {
            Call::Update {
                a,
                b,
                b_strides: (sp, sk),
                c,
                alpha,
                lower,
            } => {
                let a = pack::<MR>(ap, a, m, 1, m, m);
                let b = pack::<NR>(bp, b, sp, sk, m, m);
                Self::update(c, m, &a, &b, alpha, lower);
            }
            Call::Trsm { l, b } => Self::trsm(m, l, b, ap, bp),
            Call::Potrf { a } => Self::potrf(m, a, ap, bp)?,
        }
        Ok(())
    }

    /// See [`trsm_rlt_tuned`].
    #[inline(always)]
    fn trsm(m: usize, l: &[f32], b: &mut [f32], ap: &mut Vec<f32>, bp: &mut Vec<f32>) {
        for j0 in (0..m).step_by(NB) {
            let nb = NB.min(m - j0);
            Self::solve_rows(&mut b[j0..], m, m, &diagonal_factor(l, m, j0, nb), nb);
            let j1 = j0 + nb;
            if j1 < m {
                // B[.., j1..] -= X[.., J] · L[j1.., J]ᵀ
                let x = pack::<MR>(ap, &b[j0..], m, 1, m, nb);
                let lt = pack::<NR>(bp, &l[j1 * m + j0..], m, 1, m - j1, nb);
                Self::update(&mut b[j1..], m, &x, &lt, -1.0, false);
            }
        }
    }

    /// See [`potrf_tuned`].
    #[inline(always)]
    fn potrf(
        m: usize,
        a: &mut [f32],
        ap: &mut Vec<f32>,
        bp: &mut Vec<f32>,
    ) -> Result<(), NotPositiveDefinite> {
        for j0 in (0..m).step_by(NB) {
            let nb = NB.min(m - j0);
            // The diagonal block already holds every update from the
            // columns left of it.
            potrf_in(&mut a[j0 * m + j0..], m, nb).map_err(|local| NotPositiveDefinite {
                pivot: j0 + local.pivot,
            })?;
            let j1 = j0 + nb;
            if j1 < m {
                let l = diagonal_factor(a, m, j0, nb);
                Self::solve_rows(&mut a[j1 * m + j0..], m, m - j1, &l, nb);
                // A[j1.., j1..] -= A[j1.., J] · A[j1.., J]ᵀ, lower triangle.
                let rows = pack::<MR>(ap, &a[j1 * m + j0..], m, 1, m - j1, nb);
                let cols = pack::<NR>(bp, &a[j1 * m + j0..], m, 1, m - j1, nb);
                Self::update(&mut a[j1 * m + j1..], m, &rows, &cols, -1.0, true);
            }
        }
        Ok(())
    }

    /// `C += alpha · A · Bᵀ` on the `a.n × b.n` window of `c` whose element
    /// `(i, j)` is `c[i * ldc + j]`, with `a` packed in `MR`-row and `b` in
    /// `NR`-row panels. With `lower`, only elements with `j ≤ i` are written
    /// and tiles wholly above the diagonal are not computed.
    #[inline(always)]
    fn update(c: &mut [f32], ldc: usize, a: &Panels, b: &Panels, alpha: f32, lower: bool) {
        let depth = a.depth;
        assert_eq!(b.depth, depth, "packed operands must have the same depth");
        for (jp, bpanel) in b.data.chunks_exact(NR * depth).enumerate() {
            let j0 = jp * NR;
            for (ip, apanel) in a.data.chunks_exact(MR * depth).enumerate() {
                let i0 = ip * MR;
                if lower && j0 >= i0 + MR {
                    continue;
                }
                let tile = Self::micro_kernel(apanel, bpanel);
                for (r, acc) in tile.iter().enumerate().take(a.n - i0) {
                    let i = i0 + r;
                    let end = if lower { b.n.min(i + 1) } else { b.n };
                    if end <= j0 {
                        continue;
                    }
                    let crow = &mut c[i * ldc + j0..][..NR.min(end - j0)];
                    match <&mut [f32; NR]>::try_from(&mut *crow) {
                        // Full-width rows as one fixed-length (vector) loop.
                        Ok(full) => {
                            for (cv, av) in full.iter_mut().zip(acc) {
                                *cv = madd::<FMA>(alpha, *av, *cv);
                            }
                        }
                        Err(_) => {
                            for (cv, av) in crow.iter_mut().zip(acc) {
                                *cv = madd::<FMA>(alpha, *av, *cv);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The one register-tiled loop: `tile[i][j] = Σ_k a[k][i] · b[k][j]`
    /// over an `MR`-wide and an `NR`-wide k-major panel. The fixed trip
    /// counts let the autovectoriser keep the tile in registers (one
    /// broadcast of `a[k][i]` times the vectors of `b[k]` per row). Each
    /// row is rebuilt as a whole array, not stored element by element:
    /// with element stores the 6×16 row loop was left rolled in some
    /// inlining contexts (trsm's, in builds without LTO), and the tile
    /// then lived in stack memory under scalar FMAs.
    #[inline(always)]
    fn micro_kernel(a: &[f32], b: &[f32]) -> [[f32; NR]; MR] {
        let mut tile = [[0.0f32; NR]; MR];
        let (a, _) = a.as_chunks::<MR>();
        let (b, _) = b.as_chunks::<NR>();
        for (ak, bk) in a.iter().zip(b) {
            for (row, &aik) in tile.iter_mut().zip(ak) {
                *row = std::array::from_fn(|j| madd::<FMA>(aik, bk[j], row[j]));
            }
        }
        tile
    }

    /// `X ← X · L⁻ᵀ` on the `rows × nb` window of `x` whose element `(r, j)`
    /// is `x[r * ld + j]`, with `l` the lower-triangular `nb × nb` diagonal
    /// block (`nb ≤ NB`). Rows are taken `NR` at a time and transposed into
    /// a local tile, so every step of the substitution is one vector
    /// operation across those rows.
    #[inline(always)]
    fn solve_rows(x: &mut [f32], ld: usize, rows: usize, l: &[[f32; NB]; NB], nb: usize) {
        for r0 in (0..rows).step_by(NR) {
            let h = NR.min(rows - r0);
            let mut t = [[0.0f32; NR]; NB];
            for r in 0..h {
                for (j, v) in x[(r0 + r) * ld..][..nb].iter().enumerate() {
                    t[j][r] = *v;
                }
            }
            for k in 0..nb {
                let (head, below) = t[..nb].split_at_mut(k + 1);
                let d = l[k][k];
                let xk = &mut head[k];
                for v in xk.iter_mut() {
                    *v /= d;
                }
                for (tj, lj) in below.iter_mut().zip(&l[k + 1..]) {
                    let ljk = lj[k];
                    for (v, xv) in tj.iter_mut().zip(xk.iter()) {
                        *v = madd::<FMA>(-xv, ljk, *v);
                    }
                }
            }
            for r in 0..h {
                for (j, v) in x[(r0 + r) * ld..][..nb].iter_mut().enumerate() {
                    *v = t[j][r];
                }
            }
        }
    }
}

/// The lower triangle of the `nb × nb` diagonal block at `(j0, j0)` of
/// the row-major `m × m` matrix `a`, as a fixed-size array (so the solve
/// indexes it without bounds checks) that is zero above the diagonal:
/// nothing of `a`'s strict upper triangle is read.
#[inline(always)]
fn diagonal_factor(a: &[f32], m: usize, j0: usize, nb: usize) -> [[f32; NB]; NB] {
    let mut l = [[0.0f32; NB]; NB];
    for (i, row) in l.iter_mut().enumerate().take(nb) {
        row[..=i].copy_from_slice(&a[(j0 + i) * m + j0..][..=i]);
    }
    l
}

fn check_dims(a: &Block, b: &Block, c: &Block) -> usize {
    let m = a.dim();
    assert_eq!(b.dim(), m, "block dimensions must agree");
    assert_eq!(c.dim(), m, "block dimensions must agree");
    m
}

fn check_square(a: &Block, b: &Block) -> usize {
    let m = a.dim();
    assert_eq!(b.dim(), m, "block dimensions must agree");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f32 = 1e-3;

    /// Every instance this CPU can run, whichever one it selects.
    fn instances() -> Vec<Isa> {
        #[cfg(target_arch = "x86_64")]
        if has_avx2_fma() {
            return vec![Isa::Portable, Isa::X86V3];
        }
        eprintln!("skipping the x86-64-v3 instance: not an x86-64 CPU with AVX2 and FMA");
        vec![Isa::Portable]
    }

    /// Block sizes the instance sweeps cover: every remainder of both
    /// tiles and of `NB`, plus two full diagonal blocks and a ragged third.
    const SIZES: std::ops::RangeInclusive<usize> = 1..=40;

    /// Every entry of `got` is within `tol` of `want`, relative to
    /// `want`'s largest entry; a NaN anywhere fails.
    fn close(got: &Block, want: &Block, tol: f32) -> bool {
        let scale = want.as_slice().iter().fold(1.0f32, |s, v| s.max(v.abs()));
        got.as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(g, w)| (g - w).abs() <= tol * scale)
    }

    /// An SPD block whose strict upper triangle holds `fill`: a NaN
    /// catches a read of it, a finite value a write.
    fn spd_with_upper(m: usize, seed: u64, fill: f32) -> Block {
        let mut a = Block::random_spd(m, seed);
        for i in 0..m {
            for j in i + 1..m {
                a.set(i, j, fill);
            }
        }
        a
    }

    fn upper_bits(a: &Block) -> Vec<u32> {
        let m = a.dim();
        (0..m)
            .flat_map(|i| (i + 1..m).map(move |j| a.at(i, j).to_bits()))
            .collect()
    }

    #[test]
    fn gemm_identity() {
        let a = Block::random(8, 1);
        let id = Block::identity(8);
        let mut c = Block::zeros(8);
        gemm_add_ref(&a, &id, &mut c);
        assert!(a.max_abs_diff(&c) < EPS);
        let mut c2 = Block::zeros(8);
        gemm_add_tuned(&a, &id, &mut c2);
        assert!(a.max_abs_diff(&c2) < EPS);
    }

    #[test]
    fn tuned_matches_reference_gemm() {
        for isa in instances() {
            for m in SIZES {
                let a = Block::random(m, 10 + m as u64);
                let b = Block::random(m, 20 + m as u64);
                let mut want = Block::random(m, 30 + m as u64);
                let mut got = want.clone();
                gemm_add_ref(&a, &b, &mut want);
                isa.gemm_add(&a, &b, &mut got);
                assert!(close(&got, &want, 1e-5), "{isa:?} m={m}");
            }
        }
    }

    #[test]
    fn tuned_matches_reference_gemm_nt() {
        for isa in instances() {
            for m in SIZES {
                let a = Block::random(m, 1);
                let b = Block::random(m, 2);
                let mut want = Block::random(m, 3);
                let mut got = want.clone();
                gemm_nt_sub_ref(&a, &b, &mut want);
                isa.gemm_nt_sub(&a, &b, &mut got);
                assert!(close(&got, &want, 1e-5), "{isa:?} m={m}");
            }
        }
    }

    #[test]
    fn gemm_accumulates() {
        let a = Block::identity(4);
        let b = Block::from_fn(4, |i, j| (i + j) as f32);
        let mut c = Block::from_fn(4, |_, _| 1.0);
        gemm_add_ref(&a, &b, &mut c);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(c.at(i, j), 1.0 + (i + j) as f32);
            }
        }
    }

    #[test]
    fn potrf_recovers_factor() {
        let m = 12;
        let spd = Block::random_spd(m, 7);
        let mut l = spd.clone();
        potrf(&mut l).unwrap();
        // Rebuild A from the lower triangle and compare.
        let mut rebuilt = Block::zeros(m);
        for i in 0..m {
            for j in 0..m {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    s += l.at(i, k) * l.at(j, k);
                }
                rebuilt.set(i, j, s);
            }
        }
        let scale = spd.frob_norm().max(1.0);
        assert!(
            spd.max_abs_diff(&rebuilt) / scale < 1e-4,
            "relative reconstruction error too large"
        );
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut a = Block::identity(3);
        a.set(2, 2, -1.0);
        assert_eq!(potrf(&mut a), Err(NotPositiveDefinite { pivot: 2 }));
    }

    #[test]
    fn trsm_inverts_factor_application() {
        // If B = X · Lᵀ then trsm_rlt(L, B) must recover X.
        let m = 10;
        let spd = Block::random_spd(m, 3);
        let mut l = spd.clone();
        potrf(&mut l).unwrap();
        // Zero out the upper triangle to get a clean L.
        let mut lclean = Block::zeros(m);
        for i in 0..m {
            for j in 0..=i {
                lclean.set(i, j, l.at(i, j));
            }
        }
        let x = Block::random(m, 9);
        let mut b = Block::zeros(m);
        gemm_add_ref(&x, &lclean.transposed(), &mut b);
        trsm_rlt(&lclean, &mut b);
        assert!(x.max_abs_diff(&b) < 1e-2);
    }

    #[test]
    fn syrk_equals_gemm_nt_on_lower_triangle() {
        let a = Block::random(9, 4);
        let orig = Block::random(9, 5);
        let mut c1 = orig.clone();
        let mut c2 = orig.clone();
        syrk_sub(&a, &mut c1);
        gemm_nt_sub_ref(&a, &a, &mut c2);
        for i in 0..9 {
            for j in 0..9 {
                if j <= i {
                    assert!((c1.at(i, j) - c2.at(i, j)).abs() < EPS);
                } else {
                    assert_eq!(c1.at(i, j), orig.at(i, j), "upper must be untouched");
                }
            }
        }
    }

    /// syrk agrees on the lower triangle and leaves the strict upper
    /// triangle bit-for-bit as it was.
    #[test]
    fn syrk_tuned_matches_reference() {
        for isa in instances() {
            for m in SIZES {
                let a = Block::random(m, 6);
                let c = Block::random(m, 7);
                let (mut got, mut want) = (c.clone(), c.clone());
                syrk_sub(&a, &mut want);
                isa.syrk_sub(&a, &mut got);
                assert!(close(&got, &want, 1e-5), "{isa:?} m={m}");
                assert_eq!(upper_bits(&got), upper_bits(&c), "{isa:?} m={m}");
            }
        }
    }

    #[test]
    fn add_sub_acc_roundtrip() {
        let a = Block::random(6, 1);
        let b = Block::random(6, 2);
        let mut s = Block::zeros(6);
        add(&a, &b, &mut s);
        let mut d = Block::zeros(6);
        sub(&s, &b, &mut d);
        assert!(a.max_abs_diff(&d) < EPS);
        let mut acc_t = a.clone();
        acc(&b, &mut acc_t);
        assert!(acc_t.max_abs_diff(&s) < EPS);
        acc_sub(&b, &mut acc_t);
        assert!(acc_t.max_abs_diff(&a) < EPS);
    }

    #[test]
    fn getrf_and_solves_roundtrip() {
        // A = L·U rebuilt from the in-place factors must match.
        let m = 10;
        let mut a = Block::random(m, 13);
        for i in 0..m {
            a.set(i, i, a.at(i, i) + m as f32); // diagonally dominant
        }
        let orig = a.clone();
        getrf_nopiv(&mut a).unwrap();
        let mut rebuilt = Block::zeros(m);
        for i in 0..m {
            for j in 0..m {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { a.at(i, k) };
                    s += l * a.at(k, j) * if k <= j { 1.0 } else { 0.0 };
                }
                rebuilt.set(i, j, s);
            }
        }
        assert!(orig.max_abs_diff(&rebuilt) / orig.frob_norm() < 1e-3);
    }

    #[test]
    fn getrf_rejects_zero_pivot() {
        let mut a = Block::zeros(3);
        assert!(getrf_nopiv(&mut a).is_err());
    }

    #[test]
    fn trsm_llu_inverts_left_application() {
        // If C = L·X then trsm_llu(L, C) recovers X.
        let m = 8;
        let mut lu = Block::random(m, 17);
        for i in 0..m {
            lu.set(i, i, lu.at(i, i) + m as f32);
        }
        getrf_nopiv(&mut lu).unwrap();
        let x = Block::random(m, 18);
        // Build L·X with implicit unit diagonal.
        let mut c = x.clone();
        for i in (0..m).rev() {
            for j in 0..m {
                let mut s = x.at(i, j);
                for k in 0..i {
                    s += lu.at(i, k) * x.at(k, j);
                }
                c.set(i, j, s);
            }
        }
        trsm_llu(&lu, &mut c);
        assert!(x.max_abs_diff(&c) < 1e-2);
    }

    #[test]
    fn trsm_ru_inverts_right_application() {
        // If C = X·U then trsm_ru(LU, C) recovers X.
        let m = 8;
        let mut lu = Block::random(m, 19);
        for i in 0..m {
            lu.set(i, i, lu.at(i, i) + m as f32);
        }
        getrf_nopiv(&mut lu).unwrap();
        let x = Block::random(m, 20);
        let mut c = Block::zeros(m);
        for i in 0..m {
            for j in 0..m {
                let mut s = 0.0;
                for k in 0..=j {
                    s += x.at(i, k) * lu.at(k, j);
                }
                c.set(i, j, s);
            }
        }
        trsm_ru(&lu, &mut c);
        assert!(x.max_abs_diff(&c) < 1e-2);
    }

    #[test]
    fn gemm_nn_sub_is_negated_add() {
        let a = Block::random(7, 21);
        let b = Block::random(7, 22);
        let mut c1 = Block::random(7, 23);
        let mut c2 = c1.clone();
        gemm_nn_sub(&a, &b, &mut c1);
        let mut prod = Block::zeros(7);
        gemm_add_ref(&a, &b, &mut prod);
        for (v, p) in c2.as_mut_slice().iter_mut().zip(prod.as_slice()) {
            *v -= p;
        }
        assert!(c1.max_abs_diff(&c2) < EPS);
    }

    #[test]
    #[should_panic(expected = "dimensions must agree")]
    fn dimension_mismatch_panics() {
        let a = Block::zeros(2);
        let b = Block::zeros(3);
        let mut c = Block::zeros(2);
        gemm_add_ref(&a, &b, &mut c);
    }

    /// The instance is chosen from the CPU's own report, checked here
    /// apart from `has_avx2_fma`: a broken detection that fell back to
    /// the portable instance would pass every numeric test.
    #[test]
    fn selected_instance_follows_the_cpu() {
        #[cfg(target_arch = "x86_64")]
        let want = if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
        {
            "x86-64-v3 6x16 fma"
        } else {
            "portable 4x8"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let want = "portable 4x8";
        assert_eq!(instance(), want);
    }

    #[test]
    fn tuned_trsm_matches_reference_reading_only_the_lower_triangle() {
        for isa in instances() {
            for m in SIZES {
                let mut l = spd_with_upper(m, 6, f32::NAN);
                potrf(&mut l).unwrap();
                let b = Block::random(m, 7);
                let (mut got, mut want) = (b.clone(), b);
                isa.trsm_rlt(&l, &mut got);
                trsm_rlt(&l, &mut want);
                assert!(close(&got, &want, 1e-4), "{isa:?} m={m}");
            }
        }
    }

    #[test]
    fn tuned_potrf_matches_reference_on_the_lower_triangle_only() {
        for isa in instances() {
            for m in SIZES {
                for fill in [f32::NAN, -7.0] {
                    let a = spd_with_upper(m, 8, fill);
                    let (mut got, mut want) = (a.clone(), a.clone());
                    isa.potrf(&mut got).unwrap();
                    potrf(&mut want).unwrap();
                    for i in 0..m {
                        for j in 0..=i {
                            let (x, y) = (got.at(i, j), want.at(i, j));
                            assert!(
                                (x - y).abs() <= 1e-4 * y.abs().max(1.0),
                                "{isa:?} m={m} ({i}, {j})"
                            );
                        }
                    }
                    assert_eq!(upper_bits(&got), upper_bits(&a), "{isa:?} m={m}");
                }
            }
        }
    }

    #[test]
    fn tuned_potrf_fails_an_indefinite_block_at_the_reference_pivot() {
        for isa in instances() {
            for m in SIZES {
                for pivot in [0, m / 2, m - 1] {
                    let mut a = Block::random_spd(m, 9);
                    a.set(pivot, pivot, -1.0);
                    let want = potrf(&mut a.clone());
                    assert_eq!(want, Err(NotPositiveDefinite { pivot }));
                    assert_eq!(isa.potrf(&mut a), want, "{isa:?} m={m}");
                }
            }
        }
    }
}
