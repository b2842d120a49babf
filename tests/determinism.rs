//! Scheduler-determinism guard: the same task program must produce the
//! same results at `threads(1)` and `threads(8)`, run after run.
//!
//! The paper's §II contract is that dependency-scheduled parallel
//! execution preserves *sequential* semantics. For same-object updates
//! the analyser enforces program order, so even floating-point results
//! are bitwise identical across thread counts — any divergence here is
//! a scheduler or renaming regression, not numerical noise.

#[macro_use]
#[path = "support/oracle.rs"]
mod oracle;

use oracle::{run, Front, Op, CELLS};
use smpss::Runtime;
use smpss_apps::cholesky;
use smpss_apps::sort::{multisort, random_input, SortParams};
use smpss_apps::FlatMatrix;
use smpss_blas::Vendor;

/// A fixed 600-task program over the oracle's cells (fixed-seed
/// xorshift) mixing every directionality the runtime analyses
/// (input/output/inout), run on `threads` workers.
fn run_mixed_program(threads: usize, renaming: bool) -> Vec<i64> {
    let mut x = 0x5eed_cafe_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let ops: Vec<Op> = (0..600)
        .map(|_| {
            let (a, b, dst) = [next(), next(), next()]
                .map(|r| (r % CELLS as u64) as usize)
                .into();
            match next() % 4 {
                0 => Op::Add { a, b, dst },
                1 => Op::Acc { a, dst },
                2 => Op::Set {
                    dst,
                    k: next() as i64 & 0xff,
                },
                _ => Op::Mut { dst },
            }
        })
        .collect();
    let b = Runtime::builder().threads(threads).renaming(renaming);
    run(&ops, b, Front::Runtime).values
}

#[test]
fn mixed_program_single_vs_eight_threads() {
    let baseline = run_mixed_program(1, true);
    for _ in 0..3 {
        assert_eq!(run_mixed_program(8, true), baseline);
    }
}

#[test]
fn mixed_program_deterministic_without_renaming() {
    let baseline = run_mixed_program(1, false);
    for _ in 0..3 {
        assert_eq!(run_mixed_program(8, false), baseline);
    }
}

#[test]
fn cholesky_is_bitwise_deterministic_across_thread_counts() {
    let n = 6;
    let m = 4;
    let spd = FlatMatrix::random_spd(n * m, 2024);
    let factor = |threads: usize| {
        let rt = Runtime::builder().threads(threads).build();
        let mut a = spd.clone();
        cholesky::cholesky_flat(&rt, &mut a, m, Vendor::Tuned);
        a
    };
    let one = factor(1);
    let eight = factor(8);
    // Same-block updates are serialized in program order, so equality is
    // exact — no tolerance.
    assert_eq!(one.as_slice(), eight.as_slice());
}

/// The §III lookup order is observable through the *public* stats
/// surface (`StatsSnapshot::source_pops`), so this guard needs no
/// private counter access: a dependency chain on one thread must take
/// its first task from the main list and every successor from the own
/// list (LIFO descent), never stealing and never touching the
/// high-priority list.
#[test]
fn lookup_order_is_observable_through_public_counters() {
    use smpss::TaskSource;
    const N: u64 = 100;
    let rt = Runtime::builder().threads(1).build();
    let x = rt.data(0u64);
    for _ in 0..N {
        let mut sp = rt.task("chain");
        let mut w = sp.inout(&x);
        sp.submit(move || *w.get_mut() += 1);
    }
    rt.barrier();
    assert_eq!(rt.read(&x), N);
    let st = rt.stats();
    // Exactly one task is born ready (the chain head): main list, FIFO.
    assert_eq!(st.source_pops(TaskSource::MainList), 1);
    // Every completion releases its successor onto the finisher's own
    // list: own-list LIFO pops for the rest of the chain.
    assert_eq!(st.source_pops(TaskSource::OwnList), N - 1);
    assert_eq!(st.source_pops(TaskSource::HighPriority), 0);
    // threads(1): there is nobody to steal from.
    assert_eq!(st.source_pops(TaskSource::Stolen { victim: 0 }), 0);
    // Conservation: every executed task was popped from exactly one list.
    assert_eq!(st.total_pops(), st.tasks_executed);
    assert_eq!(st.tasks_spawned, st.tasks_executed);
    // The labelled form agrees with the per-source accessor.
    let by_source = st.pops_by_source();
    assert_eq!(by_source[0], ("hp_pops", 0));
    assert_eq!(by_source[1], ("own_pops", N - 1));
    assert_eq!(by_source[2], ("main_pops", 1));
    assert_eq!(by_source[3], ("steals", 0));
}

#[test]
fn multisort_single_vs_eight_threads() {
    let input = random_input(20_000, 99);
    let params = SortParams {
        quick_size: 32,
        merge_chunk: 64,
    };
    let sort_with = |threads: usize| {
        let rt = Runtime::builder().threads(threads).build();
        multisort(&rt, input.clone(), params)
    };
    let one = sort_with(1);
    let eight = sort_with(8);
    assert_eq!(one, eight);
    let mut expect = input;
    expect.sort_unstable();
    assert_eq!(one, expect);
}
