//! What the benchmark declares: its workloads and its metrics.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`benchmark --print-spec`) and a unit test holds the two together, so
//! the names a run prints and the names the contract lists cannot drift.

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
pub const PATHS: &[&str] = &["benchmark"];
pub const RUN_SECONDS: u64 = 15;

/// Fixed aggregate request rates of the open-loop workloads, per second.
/// Constants: they are not scaled by the host.
pub const RATES: [(&str, u64); 3] = [
    ("tenant_open_loop.r1", 20_000),
    ("tenant_open_loop.r2", 100_000),
    ("tenant_open_loop.r3", 200_000),
];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dense_cholesky",
        why: "1024x1024 f32 Cholesky as 8x8 blocks of 128: 120 tasks of ~0.3 ms, so blas does >90% of the work and the runtime almost none; the bypass for runtime changes, the mechanism for kernel and locality work",
    },
    Workload {
        name: "task_flood",
        why: "200k tasks of a few integer ops over 4096 u64 handles: spawner, dependency analysis, graph and scheduler do nearly all the work, blas none, renames are rare; saturating, workers never park",
    },
    Workload {
        name: "rename_pressure",
        why: "reader-then-writer pairs over 32 objects of 64 KiB under an 8 MiB limit: writers rename off pending readers, so version allocation, copy-in, slab eviction and the memory throttle do the work",
    },
    Workload {
        name: "region_sort",
        why: "multisort of 1 Mi i64 over array regions: range-overlap analysis on an irregular recursive graph with real sort and merge bodies; analysis-bound, 5x slower than the sequential sort",
    },
    Workload {
        name: "tenant_open_loop.r1",
        why: "open loop, 8 sessions, 20 000 requests/s of one ~2.7 us task each: the worker is mostly idle, so latency is park/wake latency; the opposite scheduler regime from task_flood",
    },
    Workload {
        name: "tenant_open_loop.r2",
        why: "the same open loop at 100 000 requests/s: the worker is about half busy, between the wake-latency and queueing regimes; the middle rung of the rate ladder",
    },
    Workload {
        name: "tenant_open_loop.r3",
        why: "the same open loop at 200 000 requests/s: session admission and queueing set the latency. p99 at every rate is per-layer only (apps.op_tail_us): it does not repeat within 0.25 on shared cores",
    },
];

/// Measured with tracing off; every workload reports every one.
pub const END_TO_END: &[Metric] = &[e2e("setup_s", "s", 0.25), e2e("op_p25_us", "us", 0.25)];

use Better::{Higher, Lower};

/// From the traced run; every workload reports every one, 0 where a
/// layer is not exercised (README.md has the glossary).
pub const PER_LAYER: &[Metric] = &[
    layer("runtime.build_us", "us", Lower),
    layer("runtime.data_alloc_ns", "ns", Lower),
    layer("runtime.barrier_wait_us", "us", Lower),
    layer("runtime.throttle_blocks", "count", Lower),
    layer("runtime.peak_rss_mb", "MB", Lower),
    layer("spawner.submit_ns", "ns", Lower),
    layer("spawner.spawn_phase_frac", "ratio", Lower),
    layer("dep.analyse_ns_per_task", "ns", Lower),
    layer("dep.true_edges_per_task", "ratio", Lower),
    layer("dep.anti_edges_per_task", "ratio", Lower),
    layer("region_log.analyse_us_per_task", "us", Lower),
    layer("data.renames_per_task", "ratio", Lower),
    layer("data.copy_ins_per_task", "ratio", Lower),
    layer("data.slab_hit_ratio", "ratio", Higher),
    layer("data.slab_evicted_live", "count", Lower),
    layer("data.version_pool_hit_ratio", "ratio", Higher),
    layer("data.resident_over_limit", "ratio", Lower),
    layer("graph.node_pool_hit_ratio", "ratio", Higher),
    layer("graph.tasks", "count", Lower),
    layer("graph.cp_over_work", "ratio", Lower),
    layer("sched.drain_ns_per_task", "ns", Lower),
    layer("sched.own_pop_frac", "ratio", Higher),
    layer("sched.main_pop_frac", "ratio", Lower),
    layer("sched.steal_frac", "ratio", Lower),
    layer("sched.handoff_frac", "ratio", Higher),
    layer("sched.locality_hit_ratio", "ratio", Higher),
    layer("sched.worker_busy_frac", "ratio", Higher),
    layer("sched.wake_us", "us", Lower),
    layer("sched.cpu_frac", "ratio", Lower),
    layer("session.admit_ns", "ns", Lower),
    layer("session.submit_ns", "ns", Lower),
    layer("session.wait_us", "us", Lower),
    layer("session.sheds", "count", Lower),
    layer("session.admission_waits", "count", Lower),
    layer("session.backlog_end", "count", Lower),
    layer("session.gen_late_p99_us", "us", Lower),
    layer("session.lat_p99_pooled_us", "us", Lower),
    layer("session.lat_p999_us", "us", Lower),
    layer("session.rate_ok", "count", Higher),
    layer("session.shed_frac.overload", "ratio", Lower),
    layer("session.goodput_per_s.overload", "1/s", Higher),
    layer("session.lat_p99_us.overload", "us", Lower),
    layer("blas.gemm_nt_gflops", "Gflop/s", Higher),
    layer("blas.syrk_gflops", "Gflop/s", Higher),
    layer("blas.trsm_gflops", "Gflop/s", Higher),
    layer("blas.potrf_gflops", "Gflop/s", Higher),
    layer("blas.kernel_share", "ratio", Higher),
    layer("blas.computed_bytes_per_flop", "B/flop", Lower),
    layer("apps.seq_s", "s", Lower),
    layer("apps.speedup_vs_seq", "ratio", Higher),
    layer("apps.body_us", "us", Lower),
    layer("apps.tasks_per_s", "1/s", Higher),
    layer("apps.op_p50_us", "us", Lower),
    layer("apps.op_tail_us", "us", Lower),
    layer("sim.makespan_ratio", "ratio", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.runtime_overhead_frac", "ratio", Lower),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        ("command", strs(COMMAND)),
        ("paths", strs(PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why has {} chars",
                w.name,
                w.why.len()
            );
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(!name_ok(".hidden") && !name_ok("a b") && !name_ok("") && !unit_ok("µs"));
    }

    #[test]
    fn the_tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
        for (name, _) in RATES {
            assert!(WORKLOADS.iter().any(|w| w.name == name));
        }
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&on_disk).unwrap(),
            benchmark_json(),
            "regenerate with `benchmark --print-spec`"
        );
    }
}
