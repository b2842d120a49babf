//! Multisort (Figure 7 / §VI.D): quadrisection mergesort over **array
//! regions**, with a divide-and-conquer parallel merge.
//!
//! The recursion mirrors Figure 7: split the range in four, sort each
//! quarter (recursively; `seqquick` task below the cutoff), merge quarter
//! pairs into `tmp`, then merge the halves back into `data`.
//!
//! §VI.D replaces whole-range `seqmerge` calls with "a recursive merge
//! function that ends up calling said task when the operated range is
//! small enough". The classic Cilk merge splits at data-dependent binary
//! search points, which a spawn-time analyser cannot know; the equivalent
//! data-independent decomposition (Akl & Santoro's rank partitioning —
//! the paper's own reference \[16\]) fixes the *output* chunks instead:
//! every merge task owns one fixed chunk of the destination region,
//! locates its input ranges by a dual binary search at *run* time, and
//! merges exactly those elements. Task structure and region declarations
//! stay spawn-time-static; the data-dependent work lives inside the task
//! bodies — precisely the contract the SMPSs model requires.
//!
//! ## Kernels
//!
//! The two task bodies are tuned the way the BLAS blocks are:
//! [`seq_sort`] is the standard library's unstable quicksort (small-sort
//! base cases, no allocation), and [`seq_merge`] is a branchless merge
//! whose "`a` wins ties" rule [`merge_partition`] relies on. Slow bodies
//! would hide the runtime: with a hand-rolled 3-way quicksort and a
//! branchy merge the bodies took three times as long as the region
//! analysis they are meant to exercise.
//!
//! Every consumer of a multisort runs these same two kernels: the task
//! graph here, the sequential baseline [`sequential_multisort`], the
//! Cilk-style baseline (`smpss_baselines::cilk`) and the simulator's
//! kernel calibration (`smpss_bench::calibrate`). A speedup over the
//! sequential sort, or one programming model against another, then
//! compares scheduling, not kernels.

use smpss::{region, RegionHandle, Runtime};

/// Element type (the paper's `ELM`).
pub type Elm = i64;

/// Granularities of the sort. The paper tunes `QUICKSIZE` (serial sort
/// cutoff) and the seqmerge chunk size the same way it tunes block sizes.
#[derive(Clone, Copy, Debug)]
pub struct SortParams {
    /// Ranges up to this length are sorted by one `seqquick` task.
    pub quick_size: usize,
    /// Merge tasks own destination chunks of at most this length.
    pub merge_chunk: usize,
}

impl Default for SortParams {
    fn default() -> Self {
        SortParams {
            quick_size: 1024,
            merge_chunk: 1024,
        }
    }
}

/// The `seqquick` kernel: the standard library's unstable sort, a
/// pattern-defeating quicksort with small-sort base cases — "the main
/// recursive part uses quicksort to solve the base case and insertion
/// sort for very small regions" (§VI.D). It sorts in place and never
/// allocates. Used by the `seqquick` task and by every baseline.
pub fn seq_sort(v: &mut [Elm]) {
    v.sort_unstable();
}

/// Sequential mergesort-by-quadrisection — the same algorithm shape as
/// the task version, used as the speedup baseline of Figure 14.
pub fn sequential_multisort(v: &mut [Elm], params: SortParams) {
    let n = v.len();
    if n == 0 {
        return;
    }
    let mut tmp = vec![0 as Elm; n];
    seq_sort_rec(v, &mut tmp, params.quick_size);
}

fn seq_sort_rec(v: &mut [Elm], tmp: &mut [Elm], quick: usize) {
    let n = v.len();
    if n <= quick.max(4) {
        seq_sort(v);
        return;
    }
    let q = n / 4;
    {
        let (q1, rest) = v.split_at_mut(q);
        let (q2, rest2) = rest.split_at_mut(q);
        let (q3, q4) = rest2.split_at_mut(q);
        let (t1, trest) = tmp.split_at_mut(q);
        let (t2, trest2) = trest.split_at_mut(q);
        let (t3, t4) = trest2.split_at_mut(q);
        seq_sort_rec(q1, t1, quick);
        seq_sort_rec(q2, t2, quick);
        seq_sort_rec(q3, t3, quick);
        seq_sort_rec(q4, t4, quick);
    }
    seq_merge(&v[..q], &v[q..2 * q], &mut tmp[..2 * q]);
    seq_merge(&v[2 * q..3 * q], &v[3 * q..], &mut tmp[2 * q..]);
    let (ta, tb) = tmp.split_at(2 * q);
    seq_merge(ta, tb, v);
}

/// The `seqmerge` kernel: a branchless two-way merge of sorted inputs.
/// On equal keys `a` wins, the rule [`merge_partition`] assumes, so
/// chunked merges through it concatenate to this merge exactly.
///
/// Two independent chains run interleaved, so the processor overlaps
/// them: the front one places the smallest remaining element, the back
/// one the largest. Each step's choice compiles to a select, not a
/// branch, so random keys cost no mispredictions.
pub fn seq_merge(a: &[Elm], b: &[Elm], out: &mut [Elm]) {
    assert_eq!(a.len() + b.len(), out.len());
    // Unmerged: a[i..ie] and b[j..je], bound for out[i + j..ie + je].
    let (mut i, mut j, mut ie, mut je) = (0, 0, a.len(), b.len());
    loop {
        // A step pair takes at most two elements from either side, so
        // `steps` pairs keep every index inside its side, whatever the
        // inputs hold.
        let steps = (ie - i).min(je - j) / 2;
        if steps == 0 {
            break;
        }
        for _ in 0..steps {
            let (x, y) = (a[i], b[j]);
            let take_b = y < x;
            out[i + j] = if take_b { y } else { x };
            i += !take_b as usize;
            j += take_b as usize;
            // From the back, `b` wins ties: its equal keys go last.
            let (x, y) = (a[ie - 1], b[je - 1]);
            let take_a = x > y;
            out[ie + je - 1] = if take_a { x } else { y };
            ie -= take_a as usize;
            je -= !take_a as usize;
        }
    }
    // One side has at most one element left.
    let (a, b, out) = (&a[i..ie], &b[j..je], &mut out[i + j..ie + je]);
    match (a, b) {
        ([x], _) => {
            let k = b.partition_point(|y| y < x);
            out[..k].copy_from_slice(&b[..k]);
            out[k] = *x;
            out[k + 1..].copy_from_slice(&b[k..]);
        }
        (_, [y]) => {
            let k = a.partition_point(|x| x <= y);
            out[..k].copy_from_slice(&a[..k]);
            out[k] = *y;
            out[k + 1..].copy_from_slice(&a[k..]);
        }
        _ => out.copy_from_slice(if a.is_empty() { b } else { a }),
    }
}

/// Canonical partition of the `k` smallest elements of two sorted slices:
/// returns `(ia, ib)` with `ia + ib == k` such that `a[..ia] ∪ b[..ib]`
/// are `k` smallest elements (everything taken ≤ everything untaken).
/// Monotone in `k`, so chunked merges partition consistently.
pub fn merge_partition(a: &[Elm], b: &[Elm], k: usize) -> (usize, usize) {
    assert!(k <= a.len() + b.len());
    // Canonical state of the tie-broken merge (a wins ties): after k
    // outputs, (ia, ib) is valid iff every taken b element is *strictly*
    // smaller than every untaken a element. "Need more a" — i.e. the
    // canonical merge would have taken a[ia] before b[ib-1] — is the
    // monotone predicate `b[ib-1] >= a[ia]`; binary-search its boundary.
    // Uniqueness of the boundary makes the partition monotone in k, so
    // adjacent chunks never overlap.
    let mut lo = k.saturating_sub(b.len());
    let mut hi = k.min(a.len());
    while lo < hi {
        let ia = lo + (hi - lo) / 2;
        let ib = k - ia;
        if ib > 0 && ia < a.len() && b[ib - 1] >= a[ia] {
            lo = ia + 1;
        } else {
            hi = ia;
        }
    }
    (lo, k - lo)
}

/// Spawn the divide-and-conquer merge: sorted `src[a_lo..=a_hi]` and
/// `src[b_lo..=b_hi]` are merged into `dst[d_lo ..]`, one task per
/// destination chunk of at most `chunk` elements. Each task declares
/// `input` on both full source regions (exactly like Figure 7's
/// `seqmerge` region specifiers) and `output` on its own chunk.
#[allow(clippy::too_many_arguments)]
pub fn par_merge(
    rt: &Runtime,
    src: &RegionHandle<Vec<Elm>>,
    (a_lo, a_hi): (usize, usize),
    (b_lo, b_hi): (usize, usize),
    dst: &RegionHandle<Vec<Elm>>,
    d_lo: usize,
    chunk: usize,
) {
    let alen = a_hi - a_lo + 1;
    let blen = b_hi - b_lo + 1;
    let total = alen + blen;
    let chunk = chunk.max(1);
    let mut k0 = 0usize;
    while k0 < total {
        let k1 = (k0 + chunk).min(total);
        let (dc_lo, dc_hi) = (d_lo + k0, d_lo + k1 - 1);
        let mut sp = rt.task("seqmerge");
        let mut ra = sp.read_region(src, region![a_lo..=a_hi]);
        let mut rb = sp.read_region(src, region![b_lo..=b_hi]);
        let mut w = sp.write_region(dst, region![dc_lo..=dc_hi]);
        sp.submit(move || {
            let a = ra.slice(a_lo, a_hi);
            let b = rb.slice(b_lo, b_hi);
            let (ia0, ib0) = merge_partition(a, b, k0);
            let (ia1, ib1) = merge_partition(a, b, k1);
            // `merge_partition` is monotone, so these nest.
            let a_part = &a[ia0..ia1];
            let b_part = &b[ib0..ib1];
            let out = w.slice_mut(dc_lo, dc_hi);
            seq_merge(a_part, b_part, out);
        });
        k0 = k1;
    }
}

/// The Figure 7 `sort` function: task-parallel multisort of
/// `data[lo..=hi]`, using `tmp` (same length) as the merge buffer.
pub fn multisort_range(
    rt: &Runtime,
    data: &RegionHandle<Vec<Elm>>,
    tmp: &RegionHandle<Vec<Elm>>,
    lo: usize,
    hi: usize,
    params: SortParams,
) {
    let size = hi - lo + 1;
    if size <= params.quick_size.max(4) {
        let mut sp = rt.task("seqquick");
        let mut w = sp.inout_region(data, region![lo..=hi]);
        sp.submit(move || seq_sort(w.declared_mut()));
        return;
    }
    let q = size / 4;
    let (i1, j1) = (lo, lo + q - 1);
    let (i2, j2) = (lo + q, lo + 2 * q - 1);
    let (i3, j3) = (lo + 2 * q, lo + 3 * q - 1);
    let (i4, j4) = (lo + 3 * q, hi);
    multisort_range(rt, data, tmp, i1, j1, params);
    multisort_range(rt, data, tmp, i2, j2, params);
    multisort_range(rt, data, tmp, i3, j3, params);
    multisort_range(rt, data, tmp, i4, j4, params);
    // seqmerge(data, i1, j1, i2, j2, tmp); seqmerge(data, i3, j3, i4, j4, tmp);
    par_merge(rt, data, (i1, j1), (i2, j2), tmp, i1, params.merge_chunk);
    par_merge(rt, data, (i3, j3), (i4, j4), tmp, i3, params.merge_chunk);
    // seqmerge(tmp, i1, j2, i3, j4, data);
    par_merge(rt, tmp, (i1, j2), (i3, j4), data, i1, params.merge_chunk);
}

/// Sort a vector with the task-parallel multisort; runs to a barrier and
/// returns the sorted contents.
pub fn multisort(rt: &Runtime, input: Vec<Elm>, params: SortParams) -> Vec<Elm> {
    let n = input.len();
    if n <= 1 {
        return input;
    }
    let data = rt.region_data(input);
    let tmp = rt.region_data(vec![0 as Elm; n]);
    multisort_range(rt, &data, &tmp, 0, n - 1, params);
    rt.barrier();
    rt.with_region(&data, |v| v.clone())
}

/// Deterministic pseudo-random input (xorshift), identical across
/// runtimes and baselines for like-for-like comparisons.
pub fn random_input(n: usize, seed: u64) -> Vec<Elm> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 16) as Elm
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sorted_permutation(original: &[Elm], sorted: &[Elm]) {
        assert_eq!(original.len(), sorted.len());
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "not sorted");
        let mut expect = original.to_vec();
        expect.sort_unstable();
        assert_eq!(expect, sorted, "not a permutation of the input");
    }

    #[test]
    fn seq_sort_small_and_dupes() {
        for input in [
            vec![],
            vec![1],
            vec![2, 1],
            vec![5, 5, 5, 5],
            vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5],
        ] {
            let mut v = input.clone();
            seq_sort(&mut v);
            assert_sorted_permutation(&input, &v);
        }
    }

    #[test]
    fn seq_sort_large_random() {
        let input = random_input(10_000, 1);
        let mut v = input.clone();
        seq_sort(&mut v);
        assert_sorted_permutation(&input, &v);
    }

    /// The textbook merge, kept as the oracle for the branchless one.
    fn reference_merge(a: &[Elm], b: &[Elm]) -> Vec<Elm> {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(a.len() + b.len());
        while i < a.len() || j < b.len() {
            if j == b.len() || (i < a.len() && a[i] <= b[j]) {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        out
    }

    /// A sorted run of `n` keys drawn from `distinct` values: few
    /// distinct values make heavy duplicates.
    fn sorted_run(n: usize, distinct: i64, seed: u64) -> Vec<Elm> {
        let mut v: Vec<Elm> = random_input(n, seed)
            .into_iter()
            .map(|x| x.rem_euclid(distinct))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn seq_merge_matches_the_reference_merge() {
        let mut seed = 10;
        for (na, nb) in [
            (0, 0),
            (0, 7),
            (9, 0),
            (1, 1),
            (33, 5),
            (100, 100),
            (257, 31),
        ] {
            for distinct in [1, 3, 1_000_000] {
                seed += 1;
                let a = sorted_run(na, distinct, seed);
                let b = sorted_run(nb, distinct, seed + 1000);
                let mut out = vec![0; na + nb];
                seq_merge(&a, &b, &mut out);
                assert_eq!(out, reference_merge(&a, &b), "{na}+{nb}, {distinct} keys");
            }
        }
        // Unsorted inputs break the contract, not memory safety: every
        // element still lands in the output exactly once.
        let (a, b) = (random_input(37, 1), random_input(64, 2));
        let mut out = vec![0; a.len() + b.len()];
        seq_merge(&a, &b, &mut out);
        let mut all = [a, b].concat();
        all.sort();
        out.sort();
        assert_eq!(out, all);
    }

    #[test]
    fn chunked_merges_concatenate_to_the_whole_merge() {
        let a = sorted_run(150, 5, 21);
        let b = sorted_run(97, 5, 22);
        let whole = reference_merge(&a, &b);
        let total = a.len() + b.len();
        for chunk in 1..=64 {
            let mut out = Vec::with_capacity(total);
            let mut k0 = 0;
            while k0 < total {
                let k1 = (k0 + chunk).min(total);
                let (ia0, ib0) = merge_partition(&a, &b, k0);
                let (ia1, ib1) = merge_partition(&a, &b, k1);
                let mut part = vec![0; k1 - k0];
                seq_merge(&a[ia0..ia1], &b[ib0..ib1], &mut part);
                out.extend_from_slice(&part);
                k0 = k1;
            }
            assert_eq!(out, whole, "chunk {chunk}");
        }
    }

    #[test]
    fn seq_sort_matches_the_stable_sort_on_structured_inputs() {
        let n = 1_000;
        let half = n as Elm / 2;
        let inputs: [(&str, Vec<Elm>); 4] = [
            ("sorted", (0..n as Elm).collect()),
            ("reversed", (0..n as Elm).rev().collect()),
            ("all equal", vec![7; n]),
            (
                "organ pipe",
                (0..n as Elm).map(|i| half - (i - half).abs()).collect(),
            ),
        ];
        for (name, input) in inputs {
            let mut v = input.clone();
            seq_sort(&mut v);
            let mut expect = input;
            expect.sort();
            assert_eq!(v, expect, "{name}");
        }
    }

    #[test]
    fn sequential_multisort_matches() {
        let input = random_input(5000, 2);
        let mut v = input.clone();
        sequential_multisort(
            &mut v,
            SortParams {
                quick_size: 64,
                merge_chunk: 64,
            },
        );
        assert_sorted_permutation(&input, &v);
    }

    #[test]
    fn merge_partition_properties() {
        let a: Vec<Elm> = vec![1, 3, 3, 7, 9];
        let b: Vec<Elm> = vec![2, 3, 4, 10];
        for k in 0..=a.len() + b.len() {
            let (ia, ib) = merge_partition(&a, &b, k);
            assert_eq!(ia + ib, k);
            let taken_max = a[..ia].iter().chain(b[..ib].iter()).max();
            let untaken_min = a[ia..].iter().chain(b[ib..].iter()).min();
            if let (Some(t), Some(u)) = (taken_max, untaken_min) {
                assert!(t <= u, "k={k}: taken {t} > untaken {u}");
            }
        }
        let mut prev = (0, 0);
        for k in 0..=a.len() + b.len() {
            let p = merge_partition(&a, &b, k);
            assert!(p.0 >= prev.0 && p.1 >= prev.1, "partition not monotone");
            prev = p;
        }
    }

    #[test]
    fn merge_partition_extremes() {
        let a: Vec<Elm> = vec![1, 2, 3];
        let b: Vec<Elm> = vec![10, 20];
        assert_eq!(merge_partition(&a, &b, 0), (0, 0));
        assert_eq!(merge_partition(&a, &b, 3), (3, 0));
        assert_eq!(merge_partition(&a, &b, 5), (3, 2));
        let empty: Vec<Elm> = vec![];
        assert_eq!(merge_partition(&empty, &b, 1), (0, 1));
        assert_eq!(merge_partition(&a, &empty, 2), (2, 0));
    }

    #[test]
    fn multisort_small_serial() {
        let rt = Runtime::builder().threads(1).build();
        let input = random_input(100, 3);
        let out = multisort(
            &rt,
            input.clone(),
            SortParams {
                quick_size: 8,
                merge_chunk: 8,
            },
        );
        assert_sorted_permutation(&input, &out);
    }

    #[test]
    fn multisort_parallel_many_tasks() {
        let rt = Runtime::builder().threads(4).build();
        let input = random_input(20_000, 4);
        let out = multisort(
            &rt,
            input.clone(),
            SortParams {
                quick_size: 256,
                merge_chunk: 512,
            },
        );
        assert_sorted_permutation(&input, &out);
        assert!(rt.stats().tasks_spawned > 100, "should decompose heavily");
    }

    #[test]
    fn multisort_already_sorted_and_reversed() {
        let rt = Runtime::builder().threads(2).build();
        let params = SortParams {
            quick_size: 16,
            merge_chunk: 32,
        };
        let asc: Vec<Elm> = (0..1000).collect();
        assert_eq!(multisort(&rt, asc.clone(), params), asc);
        let desc: Vec<Elm> = (0..1000).rev().collect();
        assert_eq!(multisort(&rt, desc, params), asc);
    }

    #[test]
    fn multisort_with_duplicates() {
        let rt = Runtime::builder().threads(4).build();
        let input: Vec<Elm> = (0..5000).map(|i| (i % 7) as Elm).collect();
        let out = multisort(
            &rt,
            input.clone(),
            SortParams {
                quick_size: 100,
                merge_chunk: 128,
            },
        );
        assert_sorted_permutation(&input, &out);
    }

    #[test]
    fn multisort_tiny_inputs() {
        let rt = Runtime::builder().threads(2).build();
        let params = SortParams::default();
        assert_eq!(multisort(&rt, vec![], params), Vec::<Elm>::new());
        assert_eq!(multisort(&rt, vec![5], params), vec![5]);
        assert_eq!(multisort(&rt, vec![2, 1], params), vec![1, 2]);
    }

    #[test]
    fn non_multiple_of_four_sizes() {
        let rt = Runtime::builder().threads(2).build();
        for n in [17, 63, 101, 1023] {
            let input = random_input(n, n as u64);
            let out = multisort(
                &rt,
                input.clone(),
                SortParams {
                    quick_size: 8,
                    merge_chunk: 16,
                },
            );
            assert_sorted_permutation(&input, &out);
        }
    }
}
