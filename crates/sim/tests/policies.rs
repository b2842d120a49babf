//! Simulator policy behaviour on characteristic graph shapes, plus
//! consistency checks between the simulator and the real runtime's
//! scheduling counters.

use smpss_sim::graph::{chain, DagBuilder};
use smpss_sim::{simulate, MachineConfig, SimPolicy};

/// Build a "comb": K independent chains of L tasks — the shape of the
/// hyper-matrix multiply (N² chains of N gemms).
fn comb(k: usize, l: usize, cost: f64) -> smpss_sim::SimGraph {
    let mut b = DagBuilder::new();
    for _ in 0..k {
        let mut prev = None;
        for _ in 0..l {
            let t = b.task("link", cost);
            if let Some(p) = prev {
                b.edge(p, t);
            }
            prev = Some(t);
        }
    }
    b.build()
}

#[test]
fn comb_scales_to_chain_count() {
    let g = comb(8, 20, 10.0);
    let t1 = simulate(&g, &MachineConfig::ideal(1)).makespan_us;
    let t8 = simulate(&g, &MachineConfig::ideal(8)).makespan_us;
    let t32 = simulate(&g, &MachineConfig::ideal(32)).makespan_us;
    assert!((t1 - 1600.0).abs() < 1e-6);
    assert!((t8 - 200.0).abs() < 1e-6, "8 threads, 8 chains: perfect");
    assert!(
        (t32 - 200.0).abs() < 1e-6,
        "more threads than chains: no gain"
    );
}

#[test]
fn locality_keeps_chains_on_their_threads() {
    let g = comb(4, 50, 5.0);
    let cfg = MachineConfig::with_threads(4);
    let r = simulate(&g, &cfg);
    // After the initial distribution, every released successor should run
    // where its predecessor ran.
    assert!(
        r.locality_hits as usize >= 4 * 49 - 20,
        "chains must stay put (hits={})",
        r.locality_hits
    );
}

#[test]
fn steal_lifo_is_a_different_policy() {
    // A fan released onto one worker's list: FIFO stealing takes the
    // oldest (first-released), LIFO the newest. Both must complete
    // everything; the steal counters may differ.
    let mut b = DagBuilder::new();
    // The root outlives the spawn phase, so every leaf is released by the
    // root's completion onto ONE worker's own list (not born ready).
    let root = b.task("root", 500.0);
    for _ in 0..64 {
        let t = b.task("leaf", 20.0);
        b.edge(root, t);
    }
    let g = b.build();
    for policy in [SimPolicy::Smpss, SimPolicy::StealLifo] {
        let mut cfg = MachineConfig::with_threads(8);
        cfg.policy = policy;
        let r = simulate(&g, &cfg);
        assert_eq!(r.total_executed(), 65, "{policy:?}");
        assert!(r.steals > 0, "{policy:?} must steal from the fan");
    }
}

#[test]
fn simulated_policy_counters_match_real_runtime_shape() {
    // The same chain program on the real runtime and in the simulator
    // must both show own-list domination (the §III locality design).
    use smpss::{task_def, Runtime};
    task_def! {
        // 2 µs, twice the inline threshold: the chain must run on the
        // ready lists, not inline on the spawner.
        fn bump(inout x: i64) {
            let t0 = std::time::Instant::now();
            while t0.elapsed() < std::time::Duration::from_micros(2) {
                std::hint::spin_loop();
            }
            *x += 1;
        }
    }
    let rt = Runtime::builder().threads(4).record_graph(true).build();
    let x = rt.data(0i64);
    for _ in 0..200 {
        bump(&rt, &x);
    }
    rt.barrier();
    let st = rt.stats();
    let record = rt.graph().unwrap();

    let g = smpss_sim::SimGraph::from_record(&record, |_| 5.0);
    let r = simulate(&g, &MachineConfig::with_threads(4));

    // Real runtime: own pops dominate; simulator: locality hits dominate.
    assert!(st.own_pops > 150, "real own_pops = {}", st.own_pops);
    assert!(r.locality_hits > 150, "sim locality = {}", r.locality_hits);
}

#[test]
fn spawn_rate_bounds_throughput_exactly() {
    // With zero-cost tasks, the makespan is exactly the serial spawn time
    // (plus the last dispatch): the Figure 8 wall in its purest form.
    let g = smpss_sim::graph::independent(500, 0.0);
    let mut cfg = MachineConfig::with_threads(16);
    cfg.dispatch_overhead_us = 0.0;
    cfg.spawn_overhead_us = 3.0;
    let r = simulate(&g, &cfg);
    assert!((r.spawn_end_us - 1500.0).abs() < 1e-6);
    assert!((r.makespan_us - 1500.0).abs() < 1e-6);
}

#[test]
fn hp_tasks_jump_queues_in_sim() {
    // 1 worker; many slow normals spawned before one hp task: the hp
    // task must not wait for all of them.
    let mut b = DagBuilder::new();
    for _ in 0..20 {
        b.task("slow", 100.0);
    }
    let hp = b.task_hp("urgent", 1.0);
    let g = b.build();
    let mut cfg = MachineConfig::ideal(2);
    cfg.spawn_overhead_us = 0.1; // spawner finishes quickly
    let r = simulate(&g, &cfg);
    assert_eq!(r.total_executed(), 21);
    let _ = hp;
    // The single worker runs the hp task early: makespan is bounded by
    // the normals alone (the hp task hides inside).
    assert!(r.makespan_us <= 20.0 * 100.0 + 10.0);
}

#[test]
fn chain_with_overheads_costs_linearly() {
    let g = chain(100, 10.0);
    let mut cfg = MachineConfig::ideal(1);
    cfg.dispatch_overhead_us = 2.0;
    let r = simulate(&g, &cfg);
    assert!((r.makespan_us - 100.0 * 12.0).abs() < 1e-6);
}
