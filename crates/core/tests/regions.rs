//! Black-box tests of the array-region extension (§V.A) and its
//! equivalence with the representant workaround (§V.B).

use proptest::prelude::*;
use smpss::{region, Region, Runtime, TaskId};

#[macro_use]
#[path = "../../../tests/support/oracle.rs"]
mod oracle;

use oracle::{check, program, run, Front, Kind, Op, Span};

/// Run `kinds` with the graph recorded, check the run against the
/// oracle and return what it left.
fn run_checked(kinds: &[Kind], threads: usize) -> oracle::Outcome {
    let ops: Vec<Op> = kinds.iter().copied().map(Op::from).collect();
    let b = Runtime::builder().threads(threads).record_graph(true);
    let out = run(&ops, b, Front::Runtime);
    check(&ops, &out, true).unwrap();
    out
}

/// Sort-free miniature of the Figure 7 pattern: four independent
/// writers of quarter bands, then two readers of a half each, then one
/// reader of the whole.
#[test]
fn quarters_then_merges() {
    let q = oracle::ROWS / 4;
    let fills = (0..4).map(|k| Kind::Fill {
        src: k,
        at: Span::Rows(k * q, k * q + q - 1),
    });
    let halves = (0..2).map(|h| Kind::Sum {
        dst: 4 + h,
        at: Span::Rows(h * 2 * q, h * 2 * q + 2 * q - 1),
    });
    let whole = Kind::Sum {
        dst: 0,
        at: Span::Rows(0, oracle::ROWS - 1),
    };
    let kinds: Vec<_> = fills.chain(halves).chain([whole]).collect();
    let g = run_checked(&kinds, 4).graph.unwrap();
    assert_eq!(g.predecessors(TaskId(5)), [1, 2].map(TaskId).into());
    assert_eq!(g.predecessors(TaskId(7)).len(), 4);
}

/// 100 `inout`s of windows that all hold row 5 serialise: every value
/// is the sequential program's.
#[test]
fn overlapping_writes_serialise() {
    let kinds: Vec<_> = (0..100)
        .map(|i| Kind::Scale {
            at: Span::Rows(i % 5, 9),
        })
        .collect();
    run_checked(&kinds, 4);
}

/// Writers of disjoint row bands never order against each other.
#[test]
fn disjoint_writes_have_no_edges() {
    let kinds: Vec<_> = (0..10)
        .map(|k| Kind::Fill {
            src: k % 6,
            at: Span::Rows(k, k),
        })
        .collect();
    let g = run_checked(&kinds, 1).graph.unwrap();
    assert_eq!(g.node_count(), 10);
    assert_eq!(g.edge_count(), 0, "disjoint regions must not serialise");
}

/// T1 writes rows 0..=7; T2 reads rows 0..=3 (true); T3 writes rows
/// 2..=5 (anti on T2, output on T1).
#[test]
fn read_write_edge_kinds_are_recorded() {
    use smpss::graph::record::EdgeKind;
    let g = run_checked(
        &[
            Kind::Fill {
                src: 0,
                at: Span::Rows(0, 7),
            },
            Kind::Sum {
                dst: 1,
                at: Span::Rows(0, 3),
            },
            Kind::Fill {
                src: 2,
                at: Span::Rows(2, 5),
            },
        ],
        1,
    )
    .graph
    .unwrap();
    let kinds = g.edges();
    assert!(kinds.contains(&(TaskId(1), TaskId(2), EdgeKind::True)));
    assert!(kinds.contains(&(TaskId(2), TaskId(3), EdgeKind::Anti)));
    assert!(kinds.contains(&(TaskId(1), TaskId(3), EdgeKind::Output)));
}

#[test]
fn update_region_from_main() {
    let rt = Runtime::builder().threads(2).build();
    let data = rt.region_data(vec![1i64; 4]);
    {
        let mut sp = rt.task("double");
        let mut w = sp.inout_region(&data, Region::all());
        sp.submit(move || {
            for v in w.slice_mut(0, 3) {
                *v *= 2;
            }
        });
    }
    rt.update_region(&data, |v| v.push(99));
    rt.barrier();
    rt.with_region(&data, |v| assert_eq!(v, &[2, 2, 2, 2, 99]));
}

/// §V.B: for non-overlapping regions, one representant per region plus an
/// opaque pointer reproduces the region behaviour. Check the two
/// formulations give the same dependency counts on the quarter/merge shape.
#[test]
fn representants_equal_regions_for_disjoint_sets() {
    use smpss::Opaque;

    // Region formulation.
    let rt1 = Runtime::builder().threads(1).record_graph(true).build();
    {
        let data = rt1.region_data(vec![0i64; 16]);
        for k in 0..4usize {
            let (lo, hi) = (k * 4, k * 4 + 3);
            let mut sp = rt1.task("fill");
            let mut w = sp.write_region(&data, region![lo..=hi]);
            sp.submit(move || w.slice_mut(lo, hi).fill(k as i64));
        }
        // One reader per adjacent pair.
        for k in 0..3usize {
            let (lo, hi) = (k * 4, k * 4 + 7);
            let mut sp = rt1.task("pair");
            let mut r = sp.read_region(&data, region![lo..=hi]);
            sp.submit(move || {
                let _ = r.slice(lo, hi);
            });
        }
        rt1.barrier();
    }
    let g1 = rt1.graph().unwrap();

    // Representant formulation: one representant per quarter.
    let rt2 = Runtime::builder().threads(1).record_graph(true).build();
    {
        let flat = Opaque::new(vec![0i64; 16]);
        let reps: Vec<_> = (0..4).map(|_| rt2.representant()).collect();
        for (k, rep) in reps.iter().enumerate() {
            let mut sp = rt2.task("fill");
            let _w = sp.write(rep);
            let flat = flat.clone();
            sp.submit(move || unsafe {
                flat.with_mut(|v| v[k * 4..k * 4 + 4].fill(k as i64));
            });
        }
        for k in 0..3usize {
            let mut sp = rt2.task("pair");
            let _r1 = sp.read(&reps[k]);
            let _r2 = sp.read(&reps[k + 1]);
            let flat = flat.clone();
            sp.submit(move || unsafe {
                flat.with(|v| {
                    let _ = &v[k * 4..k * 4 + 8];
                });
            });
        }
        rt2.barrier();
    }
    let g2 = rt2.graph().unwrap();

    assert_eq!(g1.node_count(), g2.node_count());
    // Same dependency structure: every pair-reader depends on exactly the
    // two producers of its quarters.
    for id in 5..=7u64 {
        assert_eq!(
            g1.predecessors(smpss::TaskId(id)),
            g2.predecessors(smpss::TaskId(id)),
            "region and representant formulations must induce the same deps"
        );
    }
}

/// 2-D regions track submatrices: a row-0 read overlaps the top-left
/// tile's writer and not the bottom-right one's.
#[test]
fn two_dimensional_regions_track_submatrices() {
    let g = run_checked(
        &[
            Kind::Fill {
                src: 0,
                at: Span::Tile(0, 1, 0, 1),
            },
            Kind::Fill {
                src: 1,
                at: Span::Tile(2, 3, 2, 3),
            },
            Kind::Sum {
                dst: 2,
                at: Span::Tile(0, 0, 0, 3),
            },
        ],
        1,
    )
    .graph
    .unwrap();
    assert_eq!(g.predecessors(TaskId(3)), [TaskId(1)].into_iter().collect());
    assert_eq!(g.predecessors(TaskId(2)).len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Reachability through the public API: on random programs of
    /// overlapping 1-D and 2-D region accesses interleaved with
    /// whole-object traffic, the recorded graph holds only conflicting
    /// earlier→later pairs and orders every conflicting region pair —
    /// the closure a linear scan of every earlier access gives — with
    /// renaming on and off (regions never rename; whole-object renaming
    /// interleaves with region tracking in mixed programs).
    #[test]
    fn indexed_region_log_records_the_same_graph_as_linear(
        ops in program(80..160),
        renaming in prop_oneof![Just(true), Just(false)],
    ) {
        let b = Runtime::builder().threads(1).renaming(renaming).record_graph(true);
        let checked = check(&ops, &run(&ops, b, Front::Runtime), renaming);
        prop_assert!(checked.is_ok(), "renaming {}: {:?}", renaming, checked);
    }
}

/// `writers` tasks each write one chunk of a buffer, then `readers`
/// tasks each read the whole buffer: a complete bipartite fan-in, the
/// shape of one chunked `par_merge` level. At one thread nothing runs
/// before the barrier, so every producer is live at every read. Returns
/// where the readers push their sums once they run.
fn fan_in(
    rt: &Runtime,
    writers: usize,
    readers: usize,
) -> std::sync::Arc<std::sync::Mutex<Vec<u64>>> {
    let chunk = 4usize;
    let n = writers * chunk;
    let data = rt.region_data(vec![0u64; n]);
    for w in 0..writers {
        let (lo, hi) = (w * chunk, w * chunk + chunk - 1);
        let mut sp = rt.task("fill");
        let mut out = sp.write_region(&data, region![lo..=hi]);
        sp.submit(move || out.slice_mut(lo, hi).fill(w as u64));
    }
    let sums = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    for _ in 0..readers {
        let mut sp = rt.task("sum");
        let mut r = sp.read_region(&data, region![0..=n - 1]);
        let sums = sums.clone();
        sp.submit(move || {
            let s = r.slice(0, n - 1).iter().sum();
            sums.lock().unwrap().push(s);
        });
    }
    sums
}

#[test]
fn wide_fan_in_links_through_shared_joins() {
    let rt = Runtime::builder().threads(1).build();
    let k = 1024u64;
    let sums = fan_in(&rt, k as usize, k as usize);
    rt.barrier();
    let chunk_sum = 4 * k * (k - 1) / 2;
    assert_eq!(*sums.lock().unwrap(), vec![chunk_sum; k as usize]);
    let st = rt.stats();
    // Direct links would be k * k = 1 M; the readers share one join.
    let links = st.true_edges + st.anti_edges;
    assert!(links <= 4 * k, "{links} links for a {k} x {k} fan-in");
    assert!(st.joins >= 1 && st.joins <= 4, "{} joins", st.joins);
    // Joins are not tasks.
    assert_eq!(st.tasks_spawned, 2 * k);
    assert_eq!(st.tasks_executed, 2 * k);
    assert_eq!(st.total_pops(), 2 * k);
}

#[test]
fn joins_stay_out_of_task_counts_ids_and_the_graph() {
    let rt = Runtime::builder().threads(1).record_graph(true).build();
    let (w, r) = (64usize, 64usize);
    fan_in(&rt, w, r);
    rt.barrier();
    let st = rt.stats();
    assert!(st.joins >= 1, "the fan-in must go through a join");
    assert_eq!(st.tasks_executed, (w + r) as u64);
    let g = rt.graph().unwrap();
    assert_eq!(g.node_count(), w + r);
    let ids: Vec<u64> = g.nodes().iter().map(|n| n.id.0).collect();
    assert_eq!(
        ids,
        (1..=(w + r) as u64).collect::<Vec<_>>(),
        "no id went to a join"
    );
    // The record holds the expanded edges: every reader after every
    // writer, as direct links would have recorded them.
    for reader in w + 1..=w + r {
        let preds = g.predecessors(smpss::TaskId(reader as u64));
        assert_eq!(preds, (1..=w as u64).map(smpss::TaskId).collect());
    }
}

/// Two spawners can be open at once, so the task that hits a memoised
/// join may be one of the join's own members: it must then link after
/// the other producers, never to the join (which would wait for the
/// task itself, and the barrier would hang). Both memo sides, at one
/// thread so nothing runs before the barrier.
#[test]
fn a_memoised_join_never_serves_one_of_its_members() {
    const CHUNKS: usize = 10;
    const CHUNK: usize = 4;
    const N: usize = CHUNKS * CHUNK;
    fn chunk(c: usize) -> Region {
        region![c * CHUNK..=c * CHUNK + CHUNK - 1]
    }

    // Writer side: `t` writes the last chunk, `u` reads the whole buffer
    // through a join over every writer (`t` included), then `t` reads
    // the same range.
    fn writer_side() {
        let rt = Runtime::builder().threads(1).build();
        let data = rt.region_data(vec![0u64; N]);
        for c in 0..CHUNKS - 1 {
            let mut sp = rt.task("fill");
            let mut out = sp.write_region(&data, chunk(c));
            sp.submit(move || out.slice_mut(c * CHUNK, c * CHUNK + CHUNK - 1).fill(1));
        }
        let mut t = rt.task("last");
        let mut out = t.write_region(&data, chunk(CHUNKS - 1));
        let mut u = rt.task("sum");
        let mut all = u.read_region(&data, region![0..=N - 1]);
        let sum = std::sync::Arc::new(std::sync::Mutex::new(0u64));
        let s = sum.clone();
        u.submit(move || *s.lock().unwrap() = all.slice(0, N - 1).iter().sum());
        drop(t.read_region(&data, region![0..=N - 1]));
        t.submit(move || out.slice_mut(N - CHUNK, N - 1).fill(2));
        rt.barrier();
        assert!(rt.stats().joins >= 1, "u's read must go through a join");
        assert_eq!(*sum.lock().unwrap(), (N - CHUNK) as u64 + 2 * CHUNK as u64);
    }

    // Reader side: nine readers and `t` read the whole buffer; `u`'s
    // write of chunk 0 links them through a join memoised on `t`'s
    // list entry, which still heads the rest of the buffer when `t`
    // writes chunk 1.
    fn reader_side() {
        let rt = Runtime::builder().threads(1).build();
        let data = rt.region_data(vec![1u64; N]);
        let sums = std::sync::Arc::new(std::sync::Mutex::new(Vec::<u64>::new()));
        for _ in 0..CHUNKS - 1 {
            let mut sp = rt.task("sum");
            let mut all = sp.read_region(&data, region![0..=N - 1]);
            let s = sums.clone();
            sp.submit(move || s.lock().unwrap().push(all.slice(0, N - 1).iter().sum()));
        }
        let mut t = rt.task("sum then write");
        let mut all = t.read_region(&data, region![0..=N - 1]);
        let mut u = rt.task("zero");
        let mut first = u.write_region(&data, chunk(0));
        u.submit(move || first.slice_mut(0, CHUNK - 1).fill(0));
        let mut second = t.write_region(&data, chunk(1));
        let s = sums.clone();
        t.submit(move || {
            let sum = all.slice(0, N - 1).iter().sum();
            drop(all);
            s.lock().unwrap().push(sum);
            second.slice_mut(CHUNK, 2 * CHUNK - 1).fill(0);
        });
        rt.barrier();
        assert!(rt.stats().joins >= 1, "u's write must go through a join");
        assert_eq!(*sums.lock().unwrap(), vec![N as u64; CHUNKS]);
    }

    // A cycle hangs the barrier: run each side on its own thread and
    // fail, rather than hang, when it does not come back.
    for (side, run) in [
        ("writer side", writer_side as fn()),
        ("reader side", reader_side),
    ] {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            run();
            tx.send(()).unwrap();
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("{side}: the barrier hung on a join cycle")
            }
            // Disconnected: the side panicked; report its own failure.
            _ => worker
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e)),
        }
    }
}

/// A panic in one writer of a fan-in that goes through a join gives the
/// oracle's failure sets: 16 single-row writers, the sixth panicking,
/// then 16 readers of the whole buffer, at one thread. The join carries
/// the cancellation: every reader is cancelled, every other writer
/// runs.
#[test]
fn a_panic_through_a_join_gives_the_exact_failure_sets() {
    let (rows, bad) = (oracle::ROWS, 5);
    let mut ops: Vec<Op> = (0..rows)
        .map(|k| Op {
            panics: k == bad,
            ..Op::from(Kind::Fill {
                src: 0,
                at: Span::Rows(k, k),
            })
        })
        .collect();
    ops.extend((0..rows).map(|k| {
        Op::from(Kind::Sum {
            dst: k % oracle::CELLS,
            at: Span::Rows(0, rows - 1),
        })
    }));
    let b = Runtime::builder().threads(1).record_graph(true);
    let out = run(&ops, b, Front::Runtime);
    check(&ops, &out, true).unwrap();
    assert!(out.stats.joins >= 1, "the fan-in must go through a join");
    let err = out.failures.unwrap_err();
    assert_eq!(err.failed[0].id, TaskId(bad as u64 + 1));
    let mut cancelled: Vec<u64> = err.cancelled.iter().map(|c| c.id.0).collect();
    cancelled.sort_unstable();
    assert_eq!(
        cancelled,
        (rows as u64 + 1..=2 * rows as u64).collect::<Vec<_>>()
    );
}
