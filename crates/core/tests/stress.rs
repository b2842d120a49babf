//! Stress and edge-case tests for the runtime: large graphs, deep
//! chains, wide fans, mixed access patterns, repeated barriers,
//! throttled spawning under contention, tracing overhead correctness.

use smpss::{region, task_def, Runtime};

task_def! {
    fn bump(inout x: i64) { *x += 1; }
}

task_def! {
    // Wrapping: the cascade tests below grow values exponentially.
    fn xfer(input src: i64, inout dst: i64) { *dst = dst.wrapping_add(*src); }
}

/// `rounds` waves over `cells` objects mixing self-bumps and
/// neighbour transfers; asserts every task executed exactly once.
fn task_wave(rounds: usize, cells_n: usize) {
    let rt = Runtime::builder().threads(4).build();
    let cells: Vec<_> = (0..cells_n).map(|_| rt.data(0i64)).collect();
    for round in 0..rounds {
        for (i, c) in cells.iter().enumerate() {
            if (round + i) % 3 == 0 {
                bump(&rt, c);
            } else {
                xfer(&rt, &cells[(i + 1) % cells_n], c);
            }
        }
    }
    rt.barrier();
    let st = rt.stats();
    assert_eq!(st.tasks_executed, (rounds * cells_n) as u64);
    assert_eq!(st.total_pops(), (rounds * cells_n) as u64);
}

fn deep_chain(len: i64) {
    let rt = Runtime::builder()
        .threads(2)
        .graph_size_limit(2)
        .build();
    let x = rt.data(0i64);
    for _ in 0..len {
        bump(&rt, &x);
    }
    rt.barrier();
    assert_eq!(rt.read(&x), len);
    assert!(rt.stats().throttle_blocks > 0);
}

#[test]
fn ten_thousand_task_wave() {
    task_wave(100, 100);
}

#[test]
#[ignore = "heavy: ~100k tasks; run with `cargo test -- --ignored`"]
fn hundred_thousand_task_wave() {
    task_wave(1_000, 100);
}

#[test]
fn deep_chain_with_tiny_graph_limit() {
    deep_chain(2_000);
}

#[test]
#[ignore = "heavy: 50k-deep dependency chain; run with `cargo test -- --ignored`"]
fn very_deep_chain_with_tiny_graph_limit() {
    deep_chain(50_000);
}

#[test]
fn wide_fan_in_and_out() {
    let rt = Runtime::builder().threads(4).build();
    let hub = rt.data(0i64);
    bump(&rt, &hub);
    // 256 readers of the hub…
    let leaves: Vec<_> = (0..256).map(|_| rt.data(0i64)).collect();
    for l in &leaves {
        xfer(&rt, &hub, l);
    }
    // …then a fan-in accumulating everything.
    let total = rt.data(0i64);
    for l in &leaves {
        xfer(&rt, l, &total);
    }
    rt.barrier();
    assert_eq!(rt.read(&total), 256);
}

#[test]
fn interleaved_barriers_and_reads() {
    let rt = Runtime::builder().threads(3).build();
    let x = rt.data(0i64);
    let mut expect = 0;
    for round in 1..=20 {
        for _ in 0..round {
            bump(&rt, &x);
        }
        expect += round;
        if round % 3 == 0 {
            rt.barrier();
        }
        // read() waits on the producer chain regardless of barriers.
        assert_eq!(rt.read(&x), expect);
    }
}

#[test]
fn output_storm_only_keeps_last() {
    // 1000 pure writers to one object: renaming gives each its own
    // version; the current version is the last spawned.
    let rt = Runtime::builder().threads(4).build();
    let x = rt.data(-1i64);
    for k in 0..1000 {
        let mut sp = rt.task("setk");
        let mut w = sp.write(&x);
        sp.submit(move || *w.get_mut() = k);
    }
    rt.barrier();
    assert_eq!(rt.read(&x), 999);
    assert_eq!(rt.stats().true_edges, 0);
}

#[test]
fn region_checkerboard_stress() {
    let rt = Runtime::builder().threads(4).build();
    let n = 64usize;
    let data = rt.region_data(vec![0i64; n * 8]);
    // Alternating rounds of disjoint writes and overlapping read-sums.
    for round in 0..8usize {
        for k in 0..n {
            let (lo, hi) = (k * 8, k * 8 + 7);
            let mut sp = rt.task("w");
            let mut w = sp.inout_region(&data, region![lo..=hi]);
            sp.submit(move || {
                for v in w.slice_mut(lo, hi) {
                    *v += 1 + round as i64;
                }
            });
        }
    }
    rt.barrier();
    let expect: i64 = (1..=8).sum();
    rt.with_region(&data, |v| {
        assert!(v.iter().all(|&x| x == expect));
    });
}

#[test]
fn mixed_objects_and_regions_same_program() {
    let rt = Runtime::builder().threads(2).build();
    let obj = rt.data(5i64);
    let reg = rt.region_data(vec![0i64; 16]);
    for k in 0..16usize {
        let mut sp = rt.task("mix");
        let mut r = sp.read(&obj);
        let mut w = sp.write_region(&reg, region![k..=k]);
        sp.submit(move || {
            w.slice_mut(k, k)[0] = *r.get() * (k as i64 + 1);
        });
    }
    rt.barrier();
    rt.with_region(&reg, |v| {
        for (k, &x) in v.iter().enumerate() {
            assert_eq!(x, 5 * (k as i64 + 1));
        }
    });
}

#[test]
fn tracing_does_not_change_results() {
    let run = |tracing: bool| {
        let rt = Runtime::builder().threads(3).tracing(tracing).build();
        let x = rt.data(1i64);
        let y = rt.data(0i64);
        for _ in 0..200 {
            bump(&rt, &x);
            xfer(&rt, &x, &y);
        }
        rt.barrier();
        (rt.read(&x), rt.read(&y))
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn handles_survive_many_generations_of_renames() {
    let rt = Runtime::builder().threads(4).build();
    let src = rt.data(vec![1u8; 4096]);
    let count = rt.data(0i64);
    for _ in 0..200 {
        // Reader pins the current version…
        let mut sp = rt.task("read");
        let mut r = sp.read(&src);
        let mut w = sp.inout(&count);
        sp.submit(move || {
            *w.get_mut() += r.get()[0] as i64;
        });
        // …writer forces a rename of the 4 KiB payload.
        let mut sp = rt.task("write");
        let mut w = sp.inout(&src);
        sp.submit(move || {
            let v = w.get_mut();
            v[0] = v[0].wrapping_add(1);
        });
    }
    rt.barrier();
    // Each reader sees the value as of its spawn point: 1, 2, 3, …
    let total: i64 = (0..200).map(|i| (1 + i) % 256).sum();
    assert_eq!(rt.read(&count), total);
}

#[test]
fn memory_limit_bounds_renamed_versions() {
    // Without a limit, the reader/writer ping-pong renames freely; with
    // the §III memory limit the spawner blocks until versions retire.
    let payload = 64 * 1024usize;
    let run = |limit: Option<usize>| {
        let mut b = Runtime::builder().threads(2);
        if let Some(l) = limit {
            b = b.memory_limit(l);
        }
        let rt = b.build();
        let src = rt.data_sized(vec![1u8; payload], payload, move || vec![0u8; payload]);
        let total = rt.data(0i64);
        let mut peak = 0usize;
        for _ in 0..50 {
            let mut sp = rt.task("read");
            let mut r = sp.read(&src);
            let mut w = sp.inout(&total);
            sp.submit(move || {
                *w.get_mut() += r.get()[0] as i64;
            });
            let mut sp = rt.task("write");
            let mut w = sp.inout(&src);
            sp.submit(move || {
                let v = w.get_mut();
                v[0] = v[0].wrapping_add(1);
            });
            peak = peak.max(rt.live_version_bytes());
        }
        rt.barrier();
        let total_v = rt.read(&total);
        (peak, total_v, rt.stats().throttle_blocks)
    };
    let (peak_free, v_free, _) = run(None);
    let limit = 4 * payload;
    let (peak_lim, v_lim, blocks) = run(Some(limit));
    assert_eq!(v_free, v_lim, "the limit must not change results");
    assert!(
        peak_lim <= limit + 2 * payload,
        "footprint must stay near the limit (peak {peak_lim}, limit {limit})"
    );
    // The free run is allowed to balloon past the limited one (it usually
    // does; scheduling noise can keep it low, so only sanity-check it).
    assert!(peak_free >= payload);
    // Whether the limited run had to throttle is a fact about that run
    // alone: either it blocked, or its footprint never left the limit
    // plus the object's base version.
    assert!(
        blocks > 0 || peak_lim <= limit + payload,
        "an unthrottled run must have stayed under the limit (peak {peak_lim}, limit {limit})"
    );
}

#[test]
fn many_runtimes_sequentially() {
    // Runtime startup/shutdown must be leak-free and re-entrant.
    for threads in [1usize, 2, 4] {
        for _ in 0..5 {
            let rt = Runtime::builder().threads(threads).build();
            let x = rt.data(0i64);
            bump(&rt, &x);
            rt.barrier();
            assert_eq!(rt.read(&x), 1);
        }
    }
}

#[test]
fn priority_inside_dependency_cascades() {
    // A high-priority task released mid-graph must use the hp list.
    let rt = Runtime::builder().threads(1).build();
    let a = rt.data(0i64);
    bump(&rt, &a);
    {
        let mut sp = rt.task("urgent_dependent");
        sp.high_priority();
        let mut w = sp.inout(&a);
        sp.submit(move || *w.get_mut() *= 10);
    }
    bump(&rt, &a);
    rt.barrier();
    assert_eq!(rt.read(&a), 11);
    assert_eq!(rt.stats().hp_pops, 1);
}
