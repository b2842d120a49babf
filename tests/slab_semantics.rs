//! The size-classed version slab must be invisible in program
//! semantics and exact in its byte accounting.
//!
//! Three layers of evidence:
//!
//! 1. **The oracle.** For random task programs, every run — threads
//!    {1,8} × sessions on/off, and a slab starved to a
//!    zero-byte spare cap so every parked version is evicted mid-run —
//!    computes the sequential program's values and records a graph the
//!    shared oracle accepts. Where a renamed buffer comes *from* may
//!    never change one analysis decision.
//! 2. **Live-eviction accounting.** Evicting a still-read parked
//!    version releases slab occupancy but must NOT release its memory
//!    ticket: the ticket travels inside the buffer and only the final
//!    reader's release returns the bytes. A read window held open
//!    across forced evictions pins the account at its exact value.
//! 3. **Backpressure.** Under rename churn with a working set far
//!    beyond `memory_limit`, the spare pool plus the spawner stall
//!    keeps peak resident version bytes next to the limit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use smpss::Runtime;

#[macro_use]
#[path = "support/oracle.rs"]
mod oracle;

use oracle::{check_graph, program, run, sequential, Front};

/// threads {1,8} × sessions on/off.
const COMBOS: &[(usize, Front)] = &[
    (1, Front::Runtime),
    (8, Front::Runtime),
    (1, Front::Session),
    (8, Front::Session),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every scheduler shape, and for a starved slab whose every
    /// park evicts, the values are the sequential program's and the
    /// recorded graph passes the oracle's check.
    #[test]
    fn the_slab_never_changes_the_recorded_graph(ops in program(1..60)) {
        let expect = sequential(&ops);
        let starved = (2, Front::Runtime);
        for &(threads, front) in COMBOS.iter().chain([&starved]) {
            let mut b = Runtime::builder().threads(threads).record_graph(true);
            if (threads, front) == starved {
                // Cap 0: renames always miss, and eviction runs on the
                // analysis path.
                b = b.slab_spare_bytes(0);
            }
            let out = run(&ops, b, front);
            prop_assert_eq!(&out.values, &expect, "t{} {:?}", threads, front);
            let check = check_graph(&ops, &out.graph.expect("recording was on"), true);
            prop_assert!(check.is_ok(), "t{} {:?}: {:?}", threads, front, check);
            prop_assert_eq!(out.stats.slab_hits, out.stats.version_pool_hits);
        }
    }
}

/// The regression the slab was built around: a parked version that
/// still has a read window open can be *evicted from the slab* (its
/// spare-pool occupancy released) without its memory ticket moving an
/// inch. The ticket lives inside the buffer and only the last reader's
/// release returns the bytes — so the live account stays exact from
/// allocation to final release, through park, eviction and drain.
#[test]
fn live_eviction_keeps_the_account_exact() {
    const BYTES: usize = 4096;
    let rt = Runtime::builder()
        .threads(2)
        // Starve the spare pool: every parked version evicts
        // immediately, while its reader still holds a window.
        .slab_spare_bytes(0)
        .build();
    let h = rt.data_sized(vec![0u8; BYTES], BYTES, || vec![0u8; BYTES]);
    assert_eq!(rt.live_version_bytes(), BYTES, "initial version charged");

    // Each round pins a reader open on the current version, then
    // renames it away: the parked version is live (pending reader), the
    // cap-0 slab evicts it on the analysis path, and the eviction must
    // not return its ticket.
    let gate = Arc::new(AtomicBool::new(false));
    const ROUNDS: usize = 3;
    for _ in 0..ROUNDS {
        let g = Arc::clone(&gate);
        let mut sp = rt.task("pinned-reader");
        let mut r = sp.read(&h);
        sp.submit(move || {
            std::hint::black_box(r.get().len());
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        let mut sp = rt.task("renamer");
        let mut w = sp.write(&h);
        sp.submit(move || w.get_mut()[0] = 1);
    }

    // Renames happen at submit time on this thread, so the account is
    // deterministic here: three renamed-away versions — each evicted
    // live — plus the current one.
    assert_eq!(
        rt.live_version_bytes(),
        (ROUNDS + 1) * BYTES,
        "evicting a live parked version must not release its ticket"
    );
    let st = rt.stats();
    assert_eq!(
        st.slab_evicted_live, ROUNDS as u64,
        "every parked version was evicted while its reader was open"
    );
    assert_eq!(st.slab_hits, 0, "a starved slab never serves a rename");
    assert_eq!(st.slab_parked_bytes, 0, "cap 0 keeps the pool empty");
    assert_eq!(
        st.version_bytes_peak,
        ((ROUNDS + 1) * BYTES) as u64,
        "peak samples the exact account"
    );

    // Release the read windows: the evicted versions' last Arcs drop,
    // their tickets return, and only the current version stays charged.
    gate.store(true, Ordering::Release);
    rt.barrier();
    assert_eq!(
        rt.live_version_bytes(),
        BYTES,
        "after the last reader drops, exactly the current version remains"
    );
}

/// The backpressure half of the BENCH_0009 gate, in miniature: rename
/// churn pushes a working set far beyond `memory_limit`, and the spare
/// pool (reuse + dead-spare reclaim + spawner stall) keeps peak
/// resident version bytes next to the limit instead of the working
/// set.
#[test]
fn memory_throttle_bounds_resident_bytes_under_churn() {
    const VERSION: usize = 16 * 1024;
    const LIMIT: usize = 256 * 1024;
    const OBJECTS: usize = 8;
    const ROUNDS: usize = 400;
    let rt = Runtime::builder().threads(2).memory_limit(LIMIT).build();
    let objs: Vec<_> = (0..OBJECTS)
        .map(|_| rt.data_sized(vec![0u8; VERSION], VERSION, || vec![0u8; VERSION]))
        .collect();
    for i in 0..ROUNDS {
        let h = &objs[i % OBJECTS];
        let mut sp = rt.task("r");
        let mut r = sp.read(h);
        // A real body keeps the read window open across the writer's
        // analysis, so the writer reliably renames (see the identical
        // pattern in `rename_churn`).
        sp.submit(move || {
            std::hint::black_box(r.get().iter().map(|&b| b as u64).sum::<u64>());
        });
        let mut sp = rt.task("w");
        let mut w = sp.write(h);
        sp.submit(move || w.get_mut()[0] = 1);
    }
    rt.barrier();
    let st = rt.stats();
    assert!(
        st.renames > (ROUNDS / 2) as u64,
        "the churn must actually rename (renames={})",
        st.renames
    );
    let working = st.renames as usize * VERSION + OBJECTS * VERSION;
    assert!(
        working >= 8 * LIMIT,
        "the working set must dwarf the limit (working={working} limit={LIMIT})"
    );
    assert!(
        st.version_bytes_peak as usize <= LIMIT + 2 * VERSION,
        "peak resident bytes must hug the throttle \
         (peak={} limit={LIMIT} working={working})",
        st.version_bytes_peak
    );
    assert!(
        st.slab_hits > 0,
        "steady-state churn at the limit is served from the spare pool"
    );
    assert_eq!(st.slab_hits, st.version_pool_hits, "one counter, two names");
}
