//! Property-based tests of the kernel substrate.

use proptest::prelude::*;
use smpss_blas::{kernels, Block, Vendor};

fn random_block(m: usize, seed: u64) -> Block {
    Block::random(m, seed)
}

/// Block sizes the Tuned-vs-Reference properties sweep: every remainder
/// of the register tile (4×8 portable, 6×16 with AVX2+FMA) and of the
/// 16-wide trsm/potrf diagonal block, plus two full diagonal blocks and a
/// ragged third. These run whichever instance this CPU selects; the unit
/// tests in `kernels.rs` run both.
const SIZES: std::ops::RangeInclusive<usize> = 1..=40;

/// Every entry of `got` is within `tol` of `want`, relative to `want`'s
/// largest entry; a NaN anywhere fails.
fn close(got: &Block, want: &Block, tol: f32) -> bool {
    let scale = want.as_slice().iter().fold(1.0f32, |s, v| s.max(v.abs()));
    got.as_slice()
        .iter()
        .zip(want.as_slice())
        .all(|(g, w)| (g - w).abs() <= tol * scale)
}

/// An SPD block whose strict upper triangle holds `fill`. A NaN fill
/// catches a kernel that reads the upper triangle (its result turns
/// NaN); a finite fill catches one that writes it (a read-modify-write
/// of NaN would stay NaN).
fn spd_with_upper(m: usize, seed: u64, fill: f32) -> Block {
    let mut a = Block::random_spd(m, seed);
    for i in 0..m {
        for j in i + 1..m {
            a.set(i, j, fill);
        }
    }
    a
}

/// Whether `a`'s strict upper triangle is bit-for-bit `fill`.
fn upper_is(a: &Block, fill: f32) -> bool {
    let m = a.dim();
    (0..m).all(|i| (i + 1..m).all(|j| a.at(i, j).to_bits() == fill.to_bits()))
}

proptest! {
    // Each case sweeps all of SIZES.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The two vendors are numerically interchangeable.
    #[test]
    fn vendors_agree_on_gemm(s1 in 1u64..1000, s2 in 1u64..1000) {
        for m in SIZES {
            let a = random_block(m, s1);
            let b = random_block(m, s2);
            let mut c1 = random_block(m, s1 ^ s2);
            let mut c2 = c1.clone();
            Vendor::Tuned.gemm_add(&a, &b, &mut c1);
            Vendor::Reference.gemm_add(&a, &b, &mut c2);
            prop_assert!(c1.max_abs_diff(&c2) < 1e-3 * m as f32, "m={}", m);
        }
    }

    #[test]
    fn vendors_agree_on_gemm_nt(s in 1u64..1000) {
        for m in SIZES {
            let a = random_block(m, s);
            let b = random_block(m, s + 1);
            let mut c1 = random_block(m, s + 2);
            let mut c2 = c1.clone();
            Vendor::Tuned.gemm_nt_sub(&a, &b, &mut c1);
            Vendor::Reference.gemm_nt_sub(&a, &b, &mut c2);
            prop_assert!(c1.max_abs_diff(&c2) < 1e-3 * m as f32, "m={}", m);
        }
    }

    /// syrk agrees on the lower triangle and leaves the strict upper
    /// triangle bit-for-bit as it was (the in-place Cholesky keeps its
    /// unreferenced half there).
    #[test]
    fn vendors_agree_on_syrk(s in 1u64..1000) {
        for m in SIZES {
            let a = random_block(m, s);
            let orig = random_block(m, s + 1);
            let mut c1 = orig.clone();
            let mut c2 = orig.clone();
            Vendor::Tuned.syrk_sub(&a, &mut c1);
            Vendor::Reference.syrk_sub(&a, &mut c2);
            prop_assert!(c1.max_abs_diff(&c2) < 1e-3 * m as f32, "m={}", m);
            for i in 0..m {
                for j in i + 1..m {
                    prop_assert_eq!(c1.at(i, j).to_bits(), orig.at(i, j).to_bits(), "m={} ({}, {})", m, i, j);
                }
            }
        }
    }

    /// trsm agrees and reads only the factor's lower triangle.
    #[test]
    fn vendors_agree_on_trsm(s in 1u64..1000) {
        for m in SIZES {
            let mut l = spd_with_upper(m, s, f32::NAN);
            Vendor::Reference.potrf(&mut l).unwrap();
            let mut b1 = random_block(m, s + 1);
            let mut b2 = b1.clone();
            Vendor::Tuned.trsm_rlt(&l, &mut b1);
            Vendor::Reference.trsm_rlt(&l, &mut b2);
            prop_assert!(close(&b1, &b2, 1e-4), "m={}", m);
        }
    }

    /// potrf agrees on the factor and neither reads nor writes the strict
    /// upper triangle.
    #[test]
    fn vendors_agree_on_potrf(s in 1u64..1000) {
        for m in SIZES {
            for fill in [f32::NAN, -7.0] {
                let mut l1 = spd_with_upper(m, s, fill);
                let mut l2 = l1.clone();
                prop_assert!(Vendor::Tuned.potrf(&mut l1).is_ok());
                prop_assert!(Vendor::Reference.potrf(&mut l2).is_ok());
                for i in 0..m {
                    for j in 0..=i {
                        let (x, y) = (l1.at(i, j), l2.at(i, j));
                        prop_assert!((x - y).abs() <= 1e-4 * y.abs().max(1.0), "m={} ({}, {})", m, i, j);
                    }
                }
                prop_assert!(upper_is(&l1, fill), "m={} upper triangle written", m);
            }
        }
    }

    /// An indefinite block fails at the same global pivot in both.
    #[test]
    fn potrf_pivots_agree_on_indefinite(s in 1u64..1000, at in 0u64..1000) {
        for m in SIZES {
            let pivot = at as usize % m;
            let mut a1 = Block::random_spd(m, s);
            a1.set(pivot, pivot, -1.0);
            let mut a2 = a1.clone();
            let want = Err(kernels::NotPositiveDefinite { pivot });
            prop_assert_eq!(Vendor::Tuned.potrf(&mut a1), want, "m={}", m);
            prop_assert_eq!(Vendor::Reference.potrf(&mut a2), want, "m={}", m);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// potrf on an SPD block reconstructs it: L·Lᵀ ≈ A (lower triangle).
    #[test]
    fn potrf_reconstructs(m in 1usize..20, s in 1u64..500) {
        let a = Block::random_spd(m, s);
        let mut l = a.clone();
        prop_assert!(kernels::potrf(&mut l).is_ok());
        let mut worst = 0.0f32;
        for i in 0..m {
            for j in 0..=i {
                let mut rebuilt = 0.0f32;
                for k in 0..=j {
                    rebuilt += l.at(i, k) * l.at(j, k);
                }
                worst = worst.max((rebuilt - a.at(i, j)).abs());
            }
        }
        prop_assert!(worst / a.frob_norm().max(1.0) < 1e-3);
    }

    /// trsm_rlt really applies L⁻ᵀ: (B·Lᵀ) then trsm gives back B.
    #[test]
    fn trsm_inverts(m in 1usize..16, s in 1u64..500) {
        let spd = Block::random_spd(m, s);
        let mut l = spd.clone();
        prop_assert!(kernels::potrf(&mut l).is_ok());
        let mut lclean = Block::zeros(m);
        for i in 0..m {
            for j in 0..=i {
                lclean.set(i, j, l.at(i, j));
            }
        }
        let x = random_block(m, s + 7);
        let mut b = Block::zeros(m);
        kernels::gemm_add_ref(&x, &lclean.transposed(), &mut b);
        kernels::trsm_rlt(&lclean, &mut b);
        prop_assert!(x.max_abs_diff(&b) < 0.05);
    }

    /// A full tiled-Cholesky *step* preserves the mathematical identity:
    /// syrk followed by potrf equals potrf of the updated block.
    #[test]
    fn cholesky_step_identity(m in 2usize..12, s in 1u64..200) {
        // c - a·aᵀ must stay SPD: build c = spd + a·aᵀ first.
        let a = random_block(m, s);
        let spd = Block::random_spd(m, s + 1);
        let mut c = spd.clone();
        // c += a·aᵀ on the lower triangle.
        for i in 0..m {
            for j in 0..=i {
                let mut acc = c.at(i, j);
                for k in 0..m {
                    acc += a.at(i, k) * a.at(j, k);
                }
                c.set(i, j, acc);
            }
        }
        kernels::syrk_sub(&a, &mut c);
        prop_assert!(c.max_abs_diff(&spd) < 0.25 * m as f32, "syrk undoes the add");
        prop_assert!(kernels::potrf(&mut c).is_ok());
    }

    /// LU without pivoting reconstructs diagonally-dominant blocks.
    #[test]
    fn getrf_reconstructs(m in 1usize..14, s in 1u64..300) {
        let mut a = random_block(m, s);
        for i in 0..m {
            a.set(i, i, a.at(i, i) + m as f32 + 1.0);
        }
        let orig = a.clone();
        prop_assert!(kernels::getrf_nopiv(&mut a).is_ok());
        let mut worst = 0.0f32;
        for i in 0..m {
            for j in 0..m {
                let mut rebuilt = 0.0f32;
                for k in 0..=i.min(j) {
                    let lv = if k == i { 1.0 } else { a.at(i, k) };
                    rebuilt += lv * a.at(k, j);
                }
                worst = worst.max((rebuilt - orig.at(i, j)).abs());
            }
        }
        prop_assert!(worst / orig.frob_norm().max(1.0) < 1e-3);
    }

    /// add/sub/acc/acc_sub satisfy ring identities.
    #[test]
    fn elementwise_identities(m in 1usize..16, s in 1u64..500) {
        let a = random_block(m, s);
        let b = random_block(m, s + 1);
        let mut apb = Block::zeros(m);
        kernels::add(&a, &b, &mut apb);
        let mut back = Block::zeros(m);
        kernels::sub(&apb, &b, &mut back);
        prop_assert!(back.max_abs_diff(&a) < 1e-4);
        let mut acc = a.clone();
        kernels::acc(&b, &mut acc);
        prop_assert!(acc.max_abs_diff(&apb) < 1e-4);
        kernels::acc_sub(&b, &mut acc);
        prop_assert!(acc.max_abs_diff(&a) < 1e-4);
    }
}
