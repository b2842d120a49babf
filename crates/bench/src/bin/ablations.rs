//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **renaming on/off** — §II/§VII.C: without renaming the analyser
//!    must emit anti/output edges (SuperMatrix-style); measure the edge
//!    inflation and the simulated slowdown on the renaming-heavy
//!    workloads (Strassen, N Queens).
//! 2. **queue policy** — §VII.C: per-thread ready lists + FIFO stealing
//!    (SMPSs) vs one central queue (SuperMatrix) vs LIFO stealing.
//! 3. **graph-size limit** — §III blocking condition: how hard can the
//!    main thread be throttled before makespan suffers?
//! 4. **spawn-side fast path** — BENCH_0003's machinery: the
//!    version-buffer pool on vs off (`spawn_ablation`; the task-node pool
//!    has no off switch). Structure is asserted through the pool-hit
//!    counters; timing is reported, not asserted (1-CPU CI hosts).

use smpss::config::SchedulerPolicy;
use smpss::Runtime;
use smpss_apps::{strassen, FlatMatrix, HyperMatrix};
use smpss_bench::calibrate::Calibration;
use smpss_bench::record::cholesky_flat_graph;
use smpss_bench::series::Table;
use smpss_blas::Vendor;
use smpss_sim::{simulate, MachineConfig, SimGraph, SimPolicy};

fn strassen_graph_with_renaming(renaming: bool) -> (smpss::GraphRecord, smpss::StatsSnapshot) {
    let rt = Runtime::builder()
        .threads(1)
        .renaming(renaming)
        .record_graph(true)
        .build();
    let n = 8;
    let m = 2;
    let af = FlatMatrix::random(n * m, 51);
    let bf = FlatMatrix::random(n * m, 52);
    let a = HyperMatrix::from_flat(&rt, &af, m);
    let b = HyperMatrix::from_flat(&rt, &bf, m);
    let c = HyperMatrix::dense_zeros(&rt, n, m);
    strassen::strassen(&rt, &a, &b, &c, Vendor::Tuned, 1);
    rt.barrier();
    (rt.graph().unwrap(), rt.stats())
}

fn ablation_renaming(cal: &Calibration) {
    println!("== Ablation 1: renaming on/off (Strassen, 8 blocks, cutoff 1) ==\n");
    let (g_on, s_on) = strassen_graph_with_renaming(true);
    let (g_off, s_off) = strassen_graph_with_renaming(false);
    println!(
        "renaming ON : {} tasks, {} true edges, {} hazard edges, {} renames",
        g_on.node_count(),
        s_on.true_edges,
        s_on.anti_edges,
        s_on.renames
    );
    println!(
        "renaming OFF: {} tasks, {} true edges, {} hazard edges, {} renames",
        g_off.node_count(),
        s_off.true_edges,
        s_off.anti_edges,
        s_off.renames
    );
    assert_eq!(s_on.anti_edges, 0);
    assert!(s_off.anti_edges > 0, "hazard edges must appear without renaming");

    let bs = 512;
    let mut table = Table::new(
        "simulated Strassen makespan (ms) vs threads",
        "threads",
        &["renaming on", "renaming off", "slowdown"],
    );
    for p in [1usize, 4, 8, 16, 32] {
        let cfg = MachineConfig::with_threads(p);
        let on = simulate(
            &SimGraph::from_record(&g_on, |n| cal.tuned.task_cost_us(n, bs)),
            &cfg,
        )
        .makespan_us
            / 1e3;
        let off = simulate(
            &SimGraph::from_record(&g_off, |n| cal.tuned.task_cost_us(n, bs)),
            &cfg,
        )
        .makespan_us
            / 1e3;
        table.row(p as f64, vec![on, off, off / on]);
    }
    table.print();
    let slow = table.column("slowdown");
    assert!(
        slow.last().unwrap() > &1.05,
        "renaming must buy parallelism at scale (slowdown={:?})",
        slow
    );

    // Correctness equivalence at small scale on the real runtime.
    for renaming in [true, false] {
        let rt = Runtime::builder().threads(4).renaming(renaming).build();
        let af = FlatMatrix::random(8, 1);
        let bf = FlatMatrix::random(8, 2);
        let a = HyperMatrix::from_flat(&rt, &af, 2);
        let b = HyperMatrix::from_flat(&rt, &bf, 2);
        let c = HyperMatrix::dense_zeros(&rt, 4, 2);
        strassen::strassen(&rt, &a, &b, &c, Vendor::Tuned, 1);
        rt.barrier();
        let expect = FlatMatrix::multiply_ref(&af, &bf);
        assert!(c.to_flat(&rt).max_abs_diff(&expect) < 1e-2);
    }
    println!("real-runtime correctness with renaming on/off: ok\n");
}

fn ablation_queues(cal: &Calibration) {
    println!("== Ablation 2: ready-queue policy (flat Cholesky, 32 blocks) ==\n");
    let record = cholesky_flat_graph(32);
    let bs = 256;
    let mut table = Table::new(
        "simulated Cholesky makespan (ms) + locality",
        "threads",
        &[
            "SMPSs policy",
            "central queue",
            "LIFO stealing",
            "SMPSs locality hits %",
            "SMPSs steals",
        ],
    );
    for p in [4usize, 8, 16, 32] {
        let mk = |policy| {
            let mut cfg = MachineConfig::with_threads(p);
            cfg.policy = policy;
            simulate(
                &SimGraph::from_record(&record, |n| cal.tuned.task_cost_us(n, bs)),
                &cfg,
            )
        };
        let smpss = mk(SimPolicy::Smpss);
        let central = mk(SimPolicy::CentralQueue);
        let lifo = mk(SimPolicy::StealLifo);
        let hits = 100.0 * smpss.locality_hits as f64 / record.node_count() as f64;
        table.row(
            p as f64,
            vec![
                smpss.makespan_us / 1e3,
                central.makespan_us / 1e3,
                lifo.makespan_us / 1e3,
                hits,
                smpss.steals as f64,
            ],
        );
    }
    table.print();
    let smpss = table.column("SMPSs policy");
    let central = table.column("central queue");
    // The locality benefit: SMPSs policy should not lose to the central
    // queue (it wins once the locality factor matters).
    for i in 0..smpss.len() {
        assert!(
            smpss[i] <= central[i] * 1.02,
            "SMPSs policy must be at least on par with a central queue"
        );
    }
    println!();

    // Real-runtime counter comparison (scheduling behaviour, not time).
    let run = |policy| {
        let rt = Runtime::builder().threads(4).policy(policy).build();
        let spd = FlatMatrix::random_spd(32, 53);
        let a = HyperMatrix::from_flat(&rt, &spd, 4);
        smpss_apps::cholesky::cholesky_hyper(&rt, &a, Vendor::Tuned);
        rt.barrier();
        rt.stats()
    };
    let s = run(SchedulerPolicy::Smpss);
    let c = run(SchedulerPolicy::CentralQueue);
    println!(
        "real runtime, 4 threads: SMPSs own-pops {} / steals {}; central own-pops {} (must be 0)",
        s.own_pops, s.steals, c.own_pops
    );
    assert!(s.own_pops > 0);
    assert_eq!(c.own_pops, 0);
}

fn ablation_graph_limit(cal: &Calibration) {
    println!("\n== Ablation 3: graph-size limit (flat Cholesky, 32 blocks) ==\n");
    let record = cholesky_flat_graph(32);
    let bs = 256;
    let mut table = Table::new(
        "simulated makespan (ms) vs graph-size limit (16 threads)",
        "limit",
        &["makespan", "spawn end"],
    );
    for limit in [usize::MAX, 4096, 1024, 256, 64, 16] {
        let mut cfg = MachineConfig::with_threads(16);
        if limit != usize::MAX {
            cfg.graph_size_limit = Some(limit);
        }
        let r = simulate(
            &SimGraph::from_record(&record, |n| cal.tuned.task_cost_us(n, bs)),
            &cfg,
        );
        let x = if limit == usize::MAX { 0.0 } else { limit as f64 };
        table.row(x, vec![r.makespan_us / 1e3, r.spawn_end_us / 1e3]);
    }
    table.print();
    println!("(limit 0 row = unlimited)");
    let span = table.column("makespan");
    assert!(
        span[span.len() - 1] >= span[0] * 0.99,
        "very tight limits cannot beat the unlimited run"
    );
}

fn ablation_spawn() {
    use std::time::Instant;
    println!("\n== Ablation 4: spawn-side fast path (version pool) ==\n");

    // --- version-buffer pool on Strassen-shaped rename churn ---------
    let rename_rate = |pool: bool| {
        let pairs = 15_000u64;
        let rt = Runtime::builder()
            .threads(1)
            .graph_size_limit(256)
            .version_pool(pool)
            .build();
        let objs: Vec<_> = (0..64)
            .map(|_| rt.data_sized(vec![0f32; 64], 256, || vec![0f32; 64]))
            .collect();
        let t0 = Instant::now();
        for i in 0..pairs {
            let h = &objs[(i % 64) as usize];
            let mut sp = rt.task("r");
            let mut r = sp.read(h);
            sp.submit(move || {
                std::hint::black_box(r.get()[0]);
            });
            let mut sp = rt.task("w");
            let mut w = sp.write(h);
            sp.submit(move || w.get_mut()[0] = 1.0);
        }
        rt.barrier();
        let rate = 2.0 * pairs as f64 / t0.elapsed().as_secs_f64();
        (rate, rt.stats())
    };
    let (vrate_on, vst_on) = rename_rate(true);
    let (vrate_off, vst_off) = rename_rate(false);
    println!(
        "version pool ON : {:>9.0} tasks/s, {} pool hits / {} renames",
        vrate_on, vst_on.version_pool_hits, vst_on.renames
    );
    println!(
        "version pool OFF: {:>9.0} tasks/s, {} pool hits / {} renames",
        vrate_off, vst_off.version_pool_hits, vst_off.renames
    );
    assert!(vst_on.renames > 0 && vst_off.renames > 0, "churn must rename");
    assert!(
        vst_on.version_pool_hits > vst_on.renames * 3 / 4,
        "version pool must serve steady-state renames"
    );
    assert_eq!(vst_off.version_pool_hits, 0);
}

fn ablation_release() {
    println!("\n== Ablation 5: completion-side fast path (lock-free release) ==\n");

    // --- release-bound fan-out: batched vs per-successor publication -
    // The exact BENCH_0004 workload shapes, via perf's `_cfg` variants,
    // so the ablation always measures what the trajectory benchmarks.
    let fanout_rate = |lockfree: bool| {
        let r = smpss_bench::perf::fanout_storm_cfg(4, 30_000, 1, lockfree);
        (r.tasks_per_sec, r.counters)
    };
    let (fr_on, fst_on) = fanout_rate(true);
    let (fr_off, fst_off) = fanout_rate(false);
    println!(
        "fan-out  lock-free release: {:>9.0} tasks/s, {} hand-offs / {} tasks",
        fr_on, fst_on.handoffs, fst_on.tasks_executed
    );
    println!(
        "fan-out  legacy release   : {:>9.0} tasks/s, {} hand-offs",
        fr_off, fst_off.handoffs
    );
    assert!(
        fst_on.handoffs > 0,
        "the fast path must hand completions off directly"
    );
    assert_eq!(fst_off.handoffs, 0, "the legacy path must never hand off");
    assert_eq!(fst_on.total_pops(), fst_on.tasks_executed);
    assert_eq!(fst_off.total_pops(), fst_off.tasks_executed);

    // --- chain storm: the direct hand-off vs one enqueue+wake per link
    let chain_rate = |lockfree: bool| {
        let r = smpss_bench::perf::chain_storm_cfg(4, 30_000, 1, lockfree);
        (r.tasks_per_sec, r.counters)
    };
    let (cr_on, cst_on) = chain_rate(true);
    let (cr_off, cst_off) = chain_rate(false);
    println!(
        "chains   lock-free release: {:>9.0} tasks/s, {} hand-offs / {} tasks",
        cr_on, cst_on.handoffs, cst_on.tasks_executed
    );
    println!(
        "chains   legacy release   : {:>9.0} tasks/s, {} hand-offs",
        cr_off, cst_off.handoffs
    );
    assert!(
        cst_on.handoffs as f64 > 0.5 * cst_on.tasks_executed as f64,
        "chains must ride the hand-off (handoffs={} of {})",
        cst_on.handoffs,
        cst_on.tasks_executed
    );
    assert_eq!(cst_off.handoffs, 0);

    // Structural equality: the two release paths must record identical
    // graphs and produce identical values on one deterministic program
    // (timing above may wobble on shared hosts; this must not).
    let record = |lockfree: bool| {
        let rt = Runtime::builder()
            .threads(1)
            .lockfree_release(lockfree)
            .record_graph(true)
            .build();
        let hs: Vec<_> = (0..4).map(|i| rt.data(i as i64)).collect();
        for i in 0..64usize {
            let (a, d) = (i % 4, (i * 7 + 1) % 4);
            let mut sp = rt.task("acc");
            let mut r = sp.read(&hs[a]);
            let mut w = sp.inout(&hs[d]);
            sp.submit(move || *w.get_mut() = w.get_mut().wrapping_add(*r.get()));
        }
        rt.barrier();
        let vals: Vec<i64> = hs.iter().map(|h| rt.read(h)).collect();
        (vals, rt.graph().unwrap().edges().to_vec())
    };
    assert_eq!(
        record(true),
        record(false),
        "lock-free and legacy release must record identical graphs"
    );
    println!("lock-free/legacy recorded-graph equality: ok");
}

fn ablation_locality() {
    println!("\n== Ablation 6: locality-aware placement (hints, mailboxes, steal-half) ==\n");

    // --- the BENCH_0005 gate shape, both switch positions ------------
    let storm_rate = |locality: bool| {
        let r = smpss_bench::perf::locality_storm_cfg(4, 30_000, 1, locality);
        (r.tasks_per_sec, r.counters)
    };
    let (lr_on, lst_on) = storm_rate(true);
    let (lr_off, lst_off) = storm_rate(false);
    println!(
        "locality ON : {:>9.0} tasks/s, {} renames / {} hint routes / {} batch steals",
        lr_on, lst_on.renames, lst_on.locality_hits, lst_on.batch_steals
    );
    println!(
        "locality OFF: {:>9.0} tasks/s, {} renames / {} hint routes ({:.2}x speedup)",
        lr_off,
        lst_off.renames,
        lst_off.locality_hits,
        lr_on / lr_off
    );
    assert!(
        lst_on.locality_hits > 0,
        "placement must route through the hints when enabled"
    );
    assert_eq!(lst_off.locality_hits, 0, "disabled placement must never route");
    assert_eq!(lst_off.batch_steals, 0, "disabled placement keeps single steals");
    assert!(
        lst_on.renames * 10 < lst_off.renames,
        "prompt affine consumption must collapse the WAR renames \
         (on={}, off={})",
        lst_on.renames,
        lst_off.renames
    );
    assert_eq!(lst_on.total_pops(), lst_on.tasks_executed);
    assert_eq!(lst_off.total_pops(), lst_off.tasks_executed);

    // Structural equality: placement on/off must record identical
    // graphs and values on one deterministic multi-threaded program
    // (edges are timing-independent; only *where* tasks run may differ).
    let record = |locality: bool| {
        let rt = Runtime::builder()
            .threads(4)
            .locality(locality)
            .record_graph(true)
            .build();
        let hs: Vec<_> = (0..4).map(|i| rt.data(i as i64)).collect();
        for i in 0..96usize {
            let (a, d) = (i % 4, (i * 5 + 2) % 4);
            let mut sp = rt.task("acc");
            let mut r = sp.read(&hs[a]);
            let mut w = sp.inout(&hs[d]);
            sp.submit(move || *w.get_mut() = w.get_mut().wrapping_add(*r.get()));
        }
        rt.barrier();
        let vals: Vec<i64> = hs.iter().map(|h| rt.read(h)).collect();
        let mut edges = rt.graph().unwrap().edges().to_vec();
        edges.sort_unstable_by_key(|(from, to, _)| (from.0, to.0));
        (vals, edges)
    };
    assert_eq!(
        record(true),
        record(false),
        "locality on/off must record identical graphs"
    );
    println!("locality on/off recorded-graph equality (4 threads): ok");
}

fn ablation_shard() {
    println!("\n== Ablation 7: sharded dependency analysis (lanes, gates, submitters) ==\n");

    // --- graph equality: shards(k) vs the unsharded scheduler --------
    // Main-thread submission through a sharded runtime must record the
    // same graph bit for bit: `shards(1)` takes the untouched
    // single-writer path, `k > 1` adds lane gates + RMW counters and
    // still may not change one analysis decision.
    let record = |shards: Option<usize>| {
        let mut b = Runtime::builder().threads(1).record_graph(true);
        if let Some(k) = shards {
            b = b.shards(k);
        }
        let rt = b.build();
        let hs: Vec<_> = (0..6).map(|i| rt.data(i as i64)).collect();
        let buf = rt.region_data(vec![0i64; 64]);
        for i in 0..96usize {
            let (a, d) = (i % 6, (i * 7 + 1) % 6);
            match i % 3 {
                0 => {
                    let mut sp = rt.task("acc");
                    let mut r = sp.read(&hs[a]);
                    let mut w = sp.inout(&hs[d]);
                    sp.submit(move || *w.get_mut() = w.get_mut().wrapping_add(*r.get()));
                }
                1 => {
                    let (lo, hi) = ((i * 11) % 48, (i * 11) % 48 + 7);
                    let mut sp = rt.task("blit");
                    let mut w = sp.write_region(&buf, smpss::Region::d1(lo..=hi));
                    sp.submit(move || w.slice_mut(lo, hi).fill(1));
                }
                _ => {
                    let (lo, hi) = ((i * 5) % 40, (i * 5) % 40 + 11);
                    let mut sp = rt.task("gather");
                    let mut r = sp.read_region(&buf, smpss::Region::d1(lo..=hi));
                    let mut w = sp.write(&hs[a]);
                    sp.submit(move || *w.get_mut() = r.slice(lo, hi).iter().sum());
                }
            }
        }
        rt.barrier();
        let vals: Vec<i64> = hs.iter().map(|h| rt.read(h)).collect();
        (vals, rt.graph().unwrap().edges().to_vec())
    };
    let base = record(None);
    for k in [1usize, 2, 7] {
        assert_eq!(
            record(Some(k)),
            base,
            "shards({}) must record the unsharded graph exactly",
            k
        );
    }
    println!("shards(1)/(2)/(7) recorded-graph equality vs unsharded: ok");

    // --- multi-submitter correctness ---------------------------------
    // Four concurrent lanes hammering one shared object: the lane gate
    // serialises analysis, the graph serialises bodies; nothing is lost.
    let rt = Runtime::builder().threads(2).shards(4).build();
    let total = rt.data(0u64);
    let lanes = {
        let submitters = rt.submitters();
        let n = submitters.len() as u64;
        std::thread::scope(|s| {
            for sub in submitters {
                let total = total.clone();
                s.spawn(move || {
                    for _ in 0..1_000u64 {
                        let mut sp = sub.task("acc");
                        let mut w = sp.inout(&total);
                        sp.submit(move || *w.get_mut() += 1);
                    }
                });
            }
        });
        n
    };
    rt.barrier();
    assert_eq!(rt.read(&total), 1_000 * lanes);
    println!("4 concurrent submitters, one shared object: {} updates, none lost", 1_000 * lanes);

    // --- funnel vs sharded submission rate (reported, not asserted) --
    let sharded = smpss_bench::perf::submit_storm_cfg(4, 30_000, 1, true);
    let funnel = smpss_bench::perf::submit_storm_cfg(4, 30_000, 1, false);
    println!(
        "submit   sharded lanes   : {:>9.0} tasks/s",
        sharded.tasks_per_sec
    );
    println!(
        "submit   funnel baseline : {:>9.0} tasks/s   ({:.2}x)",
        funnel.tasks_per_sec,
        sharded.tasks_per_sec / funnel.tasks_per_sec
    );
    assert_eq!(sharded.tasks, funnel.tasks, "both modes run the same storm");
}

fn ablation_slab() {
    use std::time::Instant;
    println!("\n== Ablation 8: size-classed version slab (global spare pool) ==\n");

    // --- occupancy counters on rename churn, both switch positions ---
    // The BENCH_0009 shape: read+write pairs force a rename on nearly
    // every writer. With the slab (default), renamed buffers come from
    // the global size-classed pool; with `version_slab(false)` the
    // legacy per-object spares must still serve them — same hit rate,
    // different store.
    let churn = |slab: bool| {
        let pairs = 15_000u64;
        let rt = Runtime::builder()
            .threads(1)
            .graph_size_limit(256)
            .version_slab(slab)
            .build();
        let objs: Vec<_> = (0..64)
            .map(|_| rt.data_sized(vec![0f32; 64], 256, || vec![0f32; 64]))
            .collect();
        let t0 = Instant::now();
        for i in 0..pairs {
            let h = &objs[(i % 64) as usize];
            let mut sp = rt.task("r");
            let mut r = sp.read(h);
            sp.submit(move || {
                std::hint::black_box(r.get()[0]);
            });
            let mut sp = rt.task("w");
            let mut w = sp.write(h);
            sp.submit(move || w.get_mut()[0] = 1.0);
        }
        rt.barrier();
        let rate = 2.0 * pairs as f64 / t0.elapsed().as_secs_f64();
        (rate, rt.stats())
    };
    let (rate_on, st_on) = churn(true);
    let (rate_off, st_off) = churn(false);
    println!(
        "slab ON : {:>9.0} tasks/s, {} slab hits / {} renames, {} B parked, {} live-evictions",
        rate_on, st_on.slab_hits, st_on.renames, st_on.slab_parked_bytes, st_on.slab_evicted_live
    );
    println!(
        "slab OFF: {:>9.0} tasks/s, {} slab hits / {} renames ({} per-object hits)",
        rate_off, st_off.slab_hits, st_off.renames, st_off.version_pool_hits
    );
    assert!(st_on.renames > 0 && st_off.renames > 0, "churn must rename");
    assert!(
        st_on.slab_hits > st_on.renames * 3 / 4,
        "the slab must serve steady-state renames (hits={} renames={})",
        st_on.slab_hits,
        st_on.renames
    );
    assert_eq!(
        st_on.slab_hits, st_on.version_pool_hits,
        "on the slab path every pool hit is a slab hit"
    );
    assert_eq!(st_off.slab_hits, 0, "a disabled slab must never hit");
    assert_eq!(st_off.slab_parked_bytes, 0, "a disabled slab holds no bytes");
    assert!(
        st_off.version_pool_hits > st_off.renames * 3 / 4,
        "the legacy per-object spares must still serve the ablation"
    );

    // --- backpressure: resident bytes vs a working set 8x the limit --
    let bounded = |slab: bool| {
        const VERSION: usize = 16 * 1024;
        const LIMIT: usize = 256 * 1024;
        let rt = Runtime::builder()
            .threads(2)
            .memory_limit(LIMIT)
            .version_slab(slab)
            .build();
        let objs: Vec<_> = (0..8)
            .map(|_| rt.data_sized(vec![0u8; VERSION], VERSION, || vec![0u8; VERSION]))
            .collect();
        for i in 0..400usize {
            let h = &objs[i % 8];
            let mut sp = rt.task("r");
            let mut r = sp.read(h);
            // A real body (sum the version) keeps the read window open
            // across the writer's analysis, so the writer renames
            // instead of reusing in place — the byte churn under test.
            sp.submit(move || {
                std::hint::black_box(r.get().iter().map(|&b| b as u64).sum::<u64>());
            });
            let mut sp = rt.task("w");
            let mut w = sp.write(h);
            sp.submit(move || w.get_mut()[0] = 1);
        }
        rt.barrier();
        let st = rt.stats();
        let working = st.renames as usize * VERSION + 8 * VERSION;
        if slab {
            // Only the slab sustains churn under the throttle: the
            // legacy path cannot reclaim its ticketed spares, so once
            // over the limit every submit drains the graph, readers
            // finish, and writers degrade to in-place reuse (single
            // digit renames) — the stall-instead-of-churn failure mode
            // this PR replaces.
            assert!(
                working >= 8 * LIMIT,
                "the slab must sustain churn past the throttle \
                 (renames={} working={working} limit={LIMIT})",
                st.renames
            );
            assert!(
                st.version_bytes_peak as usize <= LIMIT + 2 * VERSION,
                "slab backpressure must hold resident bytes at the throttle \
                 (peak={} limit={LIMIT})",
                st.version_bytes_peak
            );
        }
        (st.version_bytes_peak, working)
    };
    let (peak_on, working) = bounded(true);
    let (peak_off, _) = bounded(false);
    println!(
        "backpressure (limit 256 KiB, working set {} KiB): peak slab {} KiB, legacy {} KiB",
        working / 1024,
        peak_on / 1024,
        peak_off / 1024
    );

    // Structural equality: where a renamed buffer comes from must never
    // change one analysis decision — slab on, slab off and a starved
    // slab (cap 0: every park evicts mid-run) record identical graphs
    // and values on one deterministic program.
    let record = |slab: bool, spare: Option<usize>| {
        let mut b = Runtime::builder()
            .threads(1)
            .version_slab(slab)
            .record_graph(true);
        if let Some(cap) = spare {
            b = b.slab_spare_bytes(cap);
        }
        let rt = b.build();
        let hs: Vec<_> = (0..4).map(|i| rt.data(i as i64)).collect();
        for i in 0..96usize {
            let (a, d) = (i % 4, (i * 7 + 1) % 4);
            let mut sp = rt.task("acc");
            let mut r = sp.read(&hs[a]);
            let mut w = sp.inout(&hs[d]);
            sp.submit(move || *w.get_mut() = w.get_mut().wrapping_add(*r.get()));
        }
        rt.barrier();
        let vals: Vec<i64> = hs.iter().map(|h| rt.read(h)).collect();
        (vals, rt.graph().unwrap().edges().to_vec())
    };
    let base = record(false, None);
    assert_eq!(
        record(true, None),
        base,
        "slab on/off must record identical graphs"
    );
    assert_eq!(
        record(true, Some(0)),
        base,
        "a starved slab (every park evicts) must record identical graphs"
    );
    println!("slab on/off/starved recorded-graph equality: ok");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "slab_ablation") {
        ablation_slab();
        println!("\nslab ablation checks passed.");
        return;
    }
    if args.iter().any(|a| a == "shard_ablation") {
        ablation_shard();
        println!("\nshard ablation checks passed.");
        return;
    }
    if args.iter().any(|a| a == "spawn_ablation") {
        ablation_spawn();
        println!("\nspawn ablation checks passed.");
        return;
    }
    if args.iter().any(|a| a == "release_ablation") {
        ablation_release();
        println!("\nrelease ablation checks passed.");
        return;
    }
    if args.iter().any(|a| a == "locality_ablation") {
        ablation_locality();
        println!("\nlocality ablation checks passed.");
        return;
    }
    let cal = Calibration::default();
    ablation_renaming(&cal);
    ablation_queues(&cal);
    ablation_graph_limit(&cal);
    ablation_spawn();
    ablation_release();
    ablation_locality();
    ablation_shard();
    ablation_slab();
    println!("\nall ablation checks passed.");
}
