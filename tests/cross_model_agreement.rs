//! Every programming model computes the same answers: SMPSs, the
//! Cilk-like and OpenMP-3.0-like baselines, the threaded-BLAS baselines,
//! and the sequential references.

use smpss::Runtime;
use smpss_apps::sort::{multisort, random_input, sequential_multisort, SortParams};
use smpss_apps::{cholesky, matmul, nqueens, FlatMatrix};
use smpss_baselines::threaded_blas::{threaded_cholesky, threaded_matmul};
use smpss_baselines::{cilk, omp_tasks, ForkJoinPool, Policy};
use smpss_blas::Vendor;

#[test]
fn cholesky_three_ways() {
    let n = 5;
    let m = 4;
    let spd = FlatMatrix::random_spd(n * m, 77);

    // Sequential reference.
    let mut reference = spd.clone();
    reference.cholesky_ref();

    // SMPSs flat (on-demand copies).
    let rt = Runtime::builder().threads(4).build();
    let mut smpss_out = spd.clone();
    cholesky::cholesky_flat(&rt, &mut smpss_out, m, Vendor::Tuned);

    // Threaded-BLAS baseline.
    let pool = ForkJoinPool::new(3, Policy::WorkStealing);
    let threaded = threaded_cholesky(&pool, &spd, m, Vendor::Tuned);

    let scale = spd.frob_norm();
    assert!(smpss_out.max_abs_diff_lower(&reference) / scale < 1e-4);
    assert!(threaded.max_abs_diff_lower(&reference) / scale < 1e-4);
}

#[test]
fn matmul_three_ways() {
    let n = 3;
    let m = 4;
    let a = FlatMatrix::random(n * m, 1);
    let b = FlatMatrix::random(n * m, 2);
    let reference = FlatMatrix::multiply_ref(&a, &b);

    let rt = Runtime::builder().threads(3).build();
    let mut smpss_out = FlatMatrix::zeros(n * m);
    matmul::matmul_flat(&rt, &a, &b, &mut smpss_out, m, Vendor::Reference);

    let pool = ForkJoinPool::new(2, Policy::CentralQueue);
    let threaded = threaded_matmul(&pool, &a, &b, m, Vendor::Tuned);

    assert!(smpss_out.max_abs_diff(&reference) < 1e-3);
    assert!(threaded.max_abs_diff(&reference) < 1e-3);
}

#[test]
fn multisort_four_ways() {
    let input = random_input(30_000, 99);
    let mut expect = input.clone();
    expect.sort_unstable();

    // Sequential multisort.
    let mut seq = input.clone();
    sequential_multisort(
        &mut seq,
        SortParams {
            quick_size: 512,
            merge_chunk: 512,
        },
    );
    assert_eq!(seq, expect);

    // SMPSs region version.
    let rt = Runtime::builder().threads(4).build();
    let smpss_out = multisort(
        &rt,
        input.clone(),
        SortParams {
            quick_size: 512,
            merge_chunk: 512,
        },
    );
    assert_eq!(smpss_out, expect);

    // Cilk-like.
    let pool = cilk::pool(4);
    let mut ck = input.clone();
    cilk::multisort(
        &pool,
        &mut ck,
        cilk::SortParams {
            quick_size: 512,
            merge_size: 512,
        },
    );
    assert_eq!(ck, expect);

    // OpenMP-3.0-like.
    let pool = omp_tasks::pool(3);
    let mut omp = input.clone();
    omp_tasks::multisort(
        &pool,
        &mut omp,
        cilk::SortParams {
            quick_size: 512,
            merge_size: 512,
        },
    );
    assert_eq!(omp, expect);
}

#[test]
fn nqueens_four_ways() {
    for n in [6usize, 8] {
        let expect = nqueens::nqueens_seq(n);
        let rt = Runtime::builder().threads(4).build();
        assert_eq!(nqueens::nqueens_smpss(&rt, n, 4), expect, "smpss n={n}");
        let pool = cilk::pool(3);
        assert_eq!(cilk::nqueens(&pool, n), expect, "cilk n={n}");
        let pool = omp_tasks::pool(3);
        assert_eq!(omp_tasks::nqueens(&pool, n, 4), expect, "omp n={n}");
    }
}

/// The same SMPSs program must produce identical results under every
/// runtime configuration (threads, and the main thread throttled by the
/// §III graph-size limit or not).
#[test]
fn smpss_configuration_matrix() {
    let input = random_input(5_000, 123);
    let mut expect = input.clone();
    expect.sort_unstable();
    let params = SortParams {
        quick_size: 256,
        merge_chunk: 256,
    };
    for threads in [1usize, 2, 4] {
        for limit in [None, Some(64)] {
            let mut b = Runtime::builder().threads(threads);
            if let Some(l) = limit {
                b = b.graph_size_limit(l);
            }
            let out = multisort(&b.build(), input.clone(), params);
            assert_eq!(out, expect, "threads={threads} limit={limit:?}");
        }
    }
}
