//! Stress tests for the baseline fork-join runtimes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smpss_baselines::{cilk, omp_tasks, ForkJoinPool, Joiner, Policy};

/// A 4-ary spawn tree: 4^depth leaves, heavy nesting.
fn spawn_tree_counts_leaves(depth: u32) {
    fn tree(ctx: &smpss_baselines::forkjoin::TaskCtx<'_>, depth: u32, hits: &Arc<AtomicU64>) {
        if depth == 0 {
            hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let j = Joiner::new();
        for _ in 0..4 {
            let hits = Arc::clone(hits);
            ctx.spawn(&j, move |ctx| tree(ctx, depth - 1, &hits));
        }
        ctx.sync(&j);
    }
    let pool = ForkJoinPool::new(4, Policy::WorkStealing);
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    pool.run(|ctx| tree(ctx, depth, &h));
    assert_eq!(hits.load(Ordering::Relaxed), 4u64.pow(depth));
}

#[test]
fn deep_nesting_work_stealing() {
    spawn_tree_counts_leaves(6);
}

#[test]
#[ignore = "heavy: 4^9 = 262144 spawned leaves; run with `cargo test -- --ignored`"]
fn deep_nesting_work_stealing_heavy() {
    spawn_tree_counts_leaves(9);
}

#[test]
fn deep_nesting_central_queue() {
    fn count(ctx: &smpss_baselines::forkjoin::TaskCtx<'_>, n: u64) -> u64 {
        if n == 0 {
            return 1;
        }
        let acc = Arc::new(AtomicU64::new(0));
        let j = Joiner::new();
        for _ in 0..2 {
            let acc = Arc::clone(&acc);
            ctx.spawn(&j, move |ctx| {
                acc.fetch_add(count(ctx, n - 1), Ordering::Relaxed);
            });
        }
        ctx.sync(&j);
        acc.load(Ordering::Relaxed)
    }
    let pool = ForkJoinPool::new(3, Policy::CentralQueue);
    let total = pool.run(|ctx| count(ctx, 10));
    assert_eq!(total, 1024);
}

#[test]
fn joiners_are_independent() {
    // Two joiners in one frame: syncing one must not wait for the other.
    let pool = ForkJoinPool::new(2, Policy::WorkStealing);
    let fast_done = Arc::new(AtomicU64::new(0));
    let slow_done = Arc::new(AtomicU64::new(0));
    pool.run(|ctx| {
        let fast = Joiner::new();
        let slow = Joiner::new();
        let sd = Arc::clone(&slow_done);
        ctx.spawn(&slow, move |_| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            sd.fetch_add(1, Ordering::SeqCst);
        });
        let fd = Arc::clone(&fast_done);
        ctx.spawn(&fast, move |_| {
            fd.fetch_add(1, Ordering::SeqCst);
        });
        ctx.sync(&fast);
        assert_eq!(fast_done.load(Ordering::SeqCst), 1);
        // slow may or may not be done yet; pending() reflects it.
        ctx.sync(&slow);
        assert_eq!(slow_done.load(Ordering::SeqCst), 1);
        assert_eq!(slow.pending(), 0);
    });
}

/// Both baseline multisorts must agree with the sequential sort.
fn assert_sorts_agree(
    cpool: &smpss_baselines::ForkJoinPool,
    opool: &smpss_baselines::ForkJoinPool,
    input: Vec<i64>,
    params: cilk::SortParams,
) {
    let mut expect = input.clone();
    expect.sort_unstable();
    let mut a = input.clone();
    cilk::multisort(cpool, &mut a, params);
    assert_eq!(a, expect);
    let mut b = input;
    omp_tasks::multisort(opool, &mut b, params);
    assert_eq!(b, expect);
}

#[test]
fn cilk_and_omp_sort_agree_on_adversarial_inputs() {
    let params = cilk::SortParams {
        quick_size: 16,
        merge_size: 16,
    };
    let cases: Vec<Vec<i64>> = vec![
        (0..2000).collect(),                         // sorted
        (0..2000).rev().collect(),                   // reversed
        vec![7; 1500],                               // constant
        (0..1500).map(|i| (i % 3) as i64).collect(), // few distinct
        smpss_apps::sort::random_input(3000, 5),
    ];
    let cpool = cilk::pool(4);
    let opool = omp_tasks::pool(4);
    for input in cases {
        assert_sorts_agree(&cpool, &opool, input, params);
    }
}

#[test]
#[ignore = "heavy: 300k-element sorts on both baselines; run with `cargo test -- --ignored`"]
fn cilk_and_omp_sort_agree_heavy() {
    let params = cilk::SortParams {
        quick_size: 512,
        merge_size: 512,
    };
    let cpool = cilk::pool(4);
    let opool = omp_tasks::pool(4);
    assert_sorts_agree(
        &cpool,
        &opool,
        smpss_apps::sort::random_input(300_000, 11),
        params,
    );
}

#[test]
fn pools_survive_many_reuse_cycles() {
    let pool = cilk::pool(2);
    for n in [4usize, 5, 6, 7] {
        let seq = smpss_apps::nqueens::nqueens_seq(n);
        assert_eq!(cilk::nqueens(&pool, n), seq);
    }
    let (executed, _) = pool.stats();
    assert!(executed > 100);
}

#[test]
fn parallel_for_nested_inside_run() {
    let pool = ForkJoinPool::new(3, Policy::WorkStealing);
    let grid = (0..64).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
    pool.parallel_for(64, 16, |i| {
        grid[i].store(i as u64 * 2, Ordering::Relaxed);
    });
    pool.parallel_for(64, 8, |i| {
        let v = grid[i].load(Ordering::Relaxed);
        grid[i].store(v + 1, Ordering::Relaxed);
    });
    for (i, c) in grid.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), i as u64 * 2 + 1);
    }
}
