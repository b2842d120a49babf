//! Property-based tests of the core invariant the whole paper rests on:
//! **dependency-scheduled parallel execution preserves sequential
//! semantics** — for random task programs, any thread count, renaming on
//! or off.

#[macro_use]
#[path = "support/oracle.rs"]
mod oracle;

use oracle::{program, run, sequential, Front, Op};
use proptest::prelude::*;
use smpss::Runtime;

/// Run the program as SMPSs tasks under the given configuration.
fn run_tasks(ops: &[Op], threads: usize, renaming: bool) -> Vec<i64> {
    let b = Runtime::builder().threads(threads).renaming(renaming);
    run(ops, b, Front::Runtime).values
}

// Note on the Add/Acc aliasing: when dst == a (or b), the task both
// reads and writes the same logical object through *separate* accesses.
// The analyser resolves the read against the pre-task version and the
// write against a fresh/renamed one, exactly like the sequential
// statement `v[dst] = v[a] + v[b]` evaluates its right-hand side first.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel = sequential, with renaming, multiple threads.
    #[test]
    fn parallel_preserves_sequential_semantics(
        ops in program(1..120)
    ) {
        let expect = sequential(&ops);
        let got = run_tasks(&ops, 4, true);
        prop_assert_eq!(&got, &expect);
    }

    /// Same without renaming (hazard edges instead of versions).
    #[test]
    fn no_renaming_preserves_semantics(
        ops in program(1..80)
    ) {
        let expect = sequential(&ops);
        let got = run_tasks(&ops, 3, false);
        prop_assert_eq!(&got, &expect);
    }

    /// One thread is the degenerate case: pure sequential scheduling.
    #[test]
    fn single_thread_matches(
        ops in program(1..60)
    ) {
        let expect = sequential(&ops);
        let got = run_tasks(&ops, 1, true);
        prop_assert_eq!(&got, &expect);
    }

    /// Region merges: the rank-partitioned parallel merge agrees with a
    /// plain merge for arbitrary sorted inputs.
    #[test]
    fn merge_partition_is_a_valid_split(
        mut a in prop::collection::vec(-1000i64..1000, 0..60),
        mut b in prop::collection::vec(-1000i64..1000, 0..60),
    ) {
        a.sort_unstable();
        b.sort_unstable();
        use smpss_apps::sort::merge_partition;
        let total = a.len() + b.len();
        let mut prev = (0usize, 0usize);
        for k in 0..=total {
            let (ia, ib) = merge_partition(&a, &b, k);
            prop_assert_eq!(ia + ib, k);
            prop_assert!(ia >= prev.0 && ib >= prev.1, "monotone");
            let taken_max = a[..ia].iter().chain(b[..ib].iter()).max();
            let untaken_min = a[ia..].iter().chain(b[ib..].iter()).min();
            if let (Some(t), Some(u)) = (taken_max, untaken_min) {
                prop_assert!(t <= u);
            }
            prev = (ia, ib);
        }
    }

    /// Full multisort under the task runtime, random input.
    #[test]
    fn multisort_sorts_anything(
        input in prop::collection::vec(-5000i64..5000, 0..2000),
        quick in 4usize..64,
        chunk in 4usize..64,
    ) {
        let rt = Runtime::builder().threads(2).build();
        let mut expect = input.clone();
        expect.sort_unstable();
        let got = smpss_apps::sort::multisort(
            &rt,
            input,
            smpss_apps::sort::SortParams { quick_size: quick, merge_chunk: chunk },
        );
        prop_assert_eq!(got, expect);
    }

    /// Region overlap algebra: overlap is symmetric, containment implies
    /// overlap, and disjoint 1-D ranges never overlap.
    #[test]
    fn region_algebra(
        l1 in 0usize..100, len1 in 1usize..50,
        l2 in 0usize..100, len2 in 1usize..50,
    ) {
        use smpss::Region;
        let r1 = Region::d1(l1..=l1 + len1 - 1);
        let r2 = Region::d1(l2..=l2 + len2 - 1);
        prop_assert_eq!(r1.overlaps(&r2), r2.overlaps(&r1));
        let intervals_overlap = l1 < l2 + len2 && l2 < l1 + len1;
        prop_assert_eq!(r1.overlaps(&r2), intervals_overlap);
        if r1.contains(&r2) {
            prop_assert!(r1.overlaps(&r2));
        }
    }

    /// BLAS property: (A·B)·I == A·B and gemm distributes over add/sub
    /// within f32 tolerance.
    #[test]
    fn blas_algebra(seed in 1u64..500, m in 1usize..12) {
        use smpss_blas::{Block, Vendor};
        let a = Block::random(m, seed);
        let b = Block::random(m, seed + 1);
        let id = Block::identity(m);
        let mut ab = Block::zeros(m);
        Vendor::Tuned.gemm_add(&a, &b, &mut ab);
        let mut abi = Block::zeros(m);
        Vendor::Tuned.gemm_add(&ab, &id, &mut abi);
        prop_assert!(ab.max_abs_diff(&abi) < 1e-3);
        // (A+A)·B == 2·(A·B)
        let mut a2 = Block::zeros(m);
        Vendor::Tuned.add(&a, &a, &mut a2);
        let mut a2b = Block::zeros(m);
        Vendor::Tuned.gemm_add(&a2, &b, &mut a2b);
        let mut two_ab = Block::zeros(m);
        Vendor::Tuned.acc(&ab, &mut two_ab);
        Vendor::Tuned.acc(&ab, &mut two_ab);
        prop_assert!(a2b.max_abs_diff(&two_ab) < 1e-2);
    }

    /// Simulator invariants: makespan ≥ max(critical path, work/threads);
    /// everything executes exactly once; more threads never hurt an
    /// overhead-free greedy schedule by more than the greedy bound.
    #[test]
    fn simulator_bounds(
        costs in prop::collection::vec(0.5f64..50.0, 1..80),
        edge_density in 0.0f64..0.6,
        threads in 1usize..9,
        seed in 0u64..1000,
    ) {
        use smpss_sim::{simulate, DagBuilder, MachineConfig};
        let mut b = DagBuilder::new();
        let ids: Vec<usize> = costs.iter().map(|&c| b.task("t", c)).collect();
        // Pseudo-random forward edges.
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                if rnd() < edge_density / ids.len() as f64 * 4.0 {
                    b.edge(ids[i], ids[j]);
                }
            }
        }
        let g = b.build();
        let res = simulate(&g, &MachineConfig::ideal(threads));
        prop_assert_eq!(res.total_executed(), g.node_count());
        let work: f64 = g.total_work();
        let span = g.critical_path();
        let lower = span.max(work / threads as f64);
        prop_assert!(res.makespan_us >= lower - 1e-6,
            "makespan {} below lower bound {}", res.makespan_us, lower);
        // Greedy list scheduling is within 2x of optimal (Graham).
        prop_assert!(res.makespan_us <= span + work / threads as f64 + 1e-6,
            "makespan {} above Graham bound {}", res.makespan_us,
            span + work / threads as f64);
    }
}
