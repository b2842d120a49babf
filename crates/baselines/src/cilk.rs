//! The Cilk-5-style baseline applications (§VI.D, §VI.E, §VII.D).
//!
//! Characteristics the paper attributes to Cilk, reproduced here:
//! fully recursive decomposition (including the merge), an explicit
//! `sync` before using sibling results, **no** cross-sibling dependency
//! tracking, and a hand-made copy of the partial N Queens solution at
//! every task entrance ("Cilk has exactly the same problem").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::forkjoin::{ForkJoinPool, Joiner, Policy, TaskCtx};

/// A Cilk-flavoured pool: per-worker deques + stealing.
pub fn pool(threads: usize) -> ForkJoinPool {
    ForkJoinPool::new(threads, Policy::WorkStealing)
}

/// Element type shared with the SMPSs Multisort.
pub type Elm = i64;

/// Raw pointer wrapper so recursive tasks can address disjoint slices of
/// one array (fork-join runtimes have no analyser to prove disjointness;
/// this is the manual reasoning Cilk programs rely on).
#[derive(Clone, Copy)]
struct SendPtr(*mut Elm);
// SAFETY: every task touches a range disjoint from all concurrently live
// tasks (guaranteed by the recursion structure + syncs below).
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Granularities (mirrors the SMPSs `SortParams`).
#[derive(Clone, Copy, Debug)]
pub struct SortParams {
    pub quick_size: usize,
    pub merge_size: usize,
}

impl Default for SortParams {
    fn default() -> Self {
        SortParams {
            quick_size: 1024,
            merge_size: 1024,
        }
    }
}

/// Cilk-style multisort: quadrisect, spawn four recursive sorts, `sync`,
/// spawn two merges into tmp, `sync`, merge back. The merge itself is the
/// classic Cilk divide-and-conquer with a run-time binary search (legal
/// here because the recursion happens *inside* tasks, after the sync).
pub fn multisort(pool: &ForkJoinPool, data: &mut [Elm], params: SortParams) {
    multisort_on(pool, data, params)
}

/// The same task structure on any fork-join pool (the OpenMP-3.0 baseline
/// reuses it with the central-queue policy — OpenMP 3.0 supports nested
/// tasks, so the decomposition is identical; only scheduling differs).
pub fn multisort_on(pool: &ForkJoinPool, data: &mut [Elm], params: SortParams) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let mut tmp = vec![0 as Elm; n];
    let d = SendPtr(data.as_mut_ptr());
    let t = SendPtr(tmp.as_mut_ptr());
    pool.run(|ctx| {
        sort_rec(ctx, d, t, 0, n, params);
    });
}

fn sort_rec(ctx: &TaskCtx<'_>, d: SendPtr, t: SendPtr, lo: usize, n: usize, p: SortParams) {
    // SAFETY: [lo, lo+n) is this frame's exclusive range.
    let v = unsafe { std::slice::from_raw_parts_mut(d.0.add(lo), n) };
    if n <= p.quick_size.max(4) {
        smpss_apps::sort::seq_sort(v);
        return;
    }
    let q = n / 4;
    let j = Joiner::new();
    // Four sub-sorts on disjoint quarters; the fourth absorbs the tail.
    let sizes = [q, q, q, n - 3 * q];
    let mut off = lo;
    for s in sizes {
        ctx.spawn(&j, move |ctx| sort_rec(ctx, d, t, off, s, p));
        off += s;
    }
    ctx.sync(&j); // Cilk "must place barriers before using sibling results"

    let j2 = Joiner::new();
    ctx.spawn(&j2, move |ctx| {
        merge_rec(ctx, d, lo, lo + q, lo + q, lo + 2 * q, t, lo, p)
    });
    ctx.spawn(&j2, move |ctx| {
        merge_rec(
            ctx,
            d,
            lo + 2 * q,
            lo + 3 * q,
            lo + 3 * q,
            lo + n,
            t,
            lo + 2 * q,
            p,
        )
    });
    ctx.sync(&j2);
    merge_rec(ctx, t, lo, lo + 2 * q, lo + 2 * q, lo + n, d, lo, p);
}

/// Divide-and-conquer merge of `src[a0..a1)` and `src[b0..b1)` (both
/// sorted) into `dst[d0..)`: split the larger input at its midpoint,
/// binary-search the split value in the smaller, spawn both halves.
#[allow(clippy::too_many_arguments)]
fn merge_rec(
    ctx: &TaskCtx<'_>,
    src: SendPtr,
    a0: usize,
    a1: usize,
    b0: usize,
    b1: usize,
    dst: SendPtr,
    d0: usize,
    p: SortParams,
) {
    let alen = a1 - a0;
    let blen = b1 - b0;
    if alen + blen <= p.merge_size.max(2) {
        // SAFETY: source ranges are settled (synced); dst range exclusive.
        unsafe {
            let a = std::slice::from_raw_parts(src.0.add(a0), alen);
            let b = std::slice::from_raw_parts(src.0.add(b0), blen);
            let out = std::slice::from_raw_parts_mut(dst.0.add(d0), alen + blen);
            smpss_apps::sort::seq_merge(a, b, out);
        }
        return;
    }
    // Split the larger array in half; partition the smaller by value.
    let (sa, sb) = if alen >= blen {
        let mid = a0 + alen / 2;
        let split_val = unsafe { *src.0.add(mid) };
        let bsplit = b0 + lower_bound(src, b0, b1, split_val);
        (mid, bsplit)
    } else {
        let mid = b0 + blen / 2;
        let split_val = unsafe { *src.0.add(mid) };
        let asplit = a0 + upper_bound(src, a0, a1, split_val);
        (asplit, mid)
    };
    let left_len = (sa - a0) + (sb - b0);
    let j = Joiner::new();
    ctx.spawn(&j, move |ctx| {
        merge_rec(ctx, src, a0, sa, b0, sb, dst, d0, p)
    });
    merge_rec(ctx, src, sa, a1, sb, b1, dst, d0 + left_len, p);
    ctx.sync(&j);
}

fn lower_bound(src: SendPtr, lo: usize, hi: usize, val: Elm) -> usize {
    let s = unsafe { std::slice::from_raw_parts(src.0.add(lo), hi - lo) };
    s.partition_point(|&x| x < val)
}

fn upper_bound(src: SendPtr, lo: usize, hi: usize, val: Elm) -> usize {
    let s = unsafe { std::slice::from_raw_parts(src.0.add(lo), hi - lo) };
    s.partition_point(|&x| x <= val)
}

/// Cilk-style N Queens: fully recursive ("the Cilk version is totally
/// recursive and does not make any depth distinction"), with the partial
/// solution **copied at every spawn** — the hand-made duplication §VI.E
/// calls out.
pub fn nqueens(pool: &ForkJoinPool, n: usize) -> u64 {
    let total = Arc::new(AtomicU64::new(0));
    let t = Arc::clone(&total);
    pool.run(|ctx| {
        queens_rec(ctx, vec![0u32; n], 0, n, &t);
    });
    total.load(Ordering::SeqCst)
}

fn queens_rec(ctx: &TaskCtx<'_>, sol: Vec<u32>, row: usize, n: usize, total: &Arc<AtomicU64>) {
    if row == n {
        total.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let j = Joiner::new();
    for col in 0..n as u32 {
        if smpss_apps::nqueens::safe(&sol, row, col) {
            // The per-branch copy Cilk requires.
            let mut copy = sol.clone();
            copy[row] = col;
            let total = Arc::clone(total);
            ctx.spawn(&j, move |ctx| queens_rec(ctx, copy, row + 1, n, &total));
        }
    }
    ctx.sync(&j);
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpss_apps::sort::random_input;

    #[test]
    fn multisort_sorts() {
        let pool = pool(4);
        let input = random_input(10_000, 77);
        let mut v = input.clone();
        multisort(
            &pool,
            &mut v,
            SortParams {
                quick_size: 128,
                merge_size: 256,
            },
        );
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(v, expect);
    }

    #[test]
    fn multisort_odd_sizes_and_dupes() {
        let pool = pool(2);
        for n in [1, 2, 17, 255, 1001] {
            let input: Vec<Elm> = (0..n).map(|i| ((i * 37) % 11) as Elm).collect();
            let mut v = input.clone();
            multisort(
                &pool,
                &mut v,
                SortParams {
                    quick_size: 8,
                    merge_size: 8,
                },
            );
            let mut expect = input;
            expect.sort_unstable();
            assert_eq!(v, expect, "n={n}");
        }
    }

    #[test]
    fn nqueens_matches_known() {
        let pool = pool(4);
        assert_eq!(nqueens(&pool, 6), 4);
        assert_eq!(nqueens(&pool, 8), 92);
    }

    #[test]
    fn nqueens_single_thread() {
        let pool = pool(1);
        assert_eq!(nqueens(&pool, 7), 40);
    }
}
