//! The workloads and the two drivers that run them: [`run_closed`] for the
//! four batch workloads (one client, next repetition after the previous
//! one completes) and [`tenant::run`] for the open-loop request workloads.

pub mod cholesky;
pub mod flood;
pub mod rename;
pub mod sort;
pub mod tenant;

use std::time::{Duration, Instant};

use smpss::{GraphRecord, Runtime, RuntimeBuilder, StatsSnapshot, Trace};
use smpss_sim::SimGraph;

use crate::procfs;
use crate::spans::Spans;
use crate::summary::Summary;

/// Problem sizes: the measured ones, or the small ones of `--quick`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Quick,
}

impl Size {
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Size::Full => full,
            Size::Quick => quick,
        }
    }
}

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub size: Size,
    /// Total compute threads (the spawning main thread plus workers).
    pub threads: usize,
    /// Taken at the top of `main`: set-up time runs from here.
    pub process_start: Instant,
    pub trace_out: Option<std::path::PathBuf>,
}

impl Plan {
    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        self.size.pick(5, 2)
    }

    /// A closed workload times at least this many repetitions.
    pub fn min_reps(&self) -> usize {
        self.size.pick(10, 2)
    }
}

/// Total threads never exceed the cores (capped at 4 so a larger host
/// measures the same program); the open loop needs one worker besides the
/// generator, so never fewer than 2.
pub fn threads_for(nproc: usize) -> usize {
    nproc.clamp(2, 4)
}

/// Which runtime a workload should build.
#[derive(Clone, Copy, Debug)]
pub struct RtOpts {
    pub threads: usize,
    pub tracing: bool,
    pub record_graph: bool,
}

impl RtOpts {
    pub fn plain(threads: usize) -> RtOpts {
        RtOpts {
            threads,
            tracing: false,
            record_graph: false,
        }
    }

    pub fn builder(self) -> RuntimeBuilder {
        Runtime::builder()
            .threads(self.threads)
            .tracing(self.tracing)
            .record_graph(self.record_graph)
    }
}

/// Named values, in the order they were set.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Facts printed beside the metrics and written to `--out`: sample
    /// counts, quartiles, derived throughput.
    pub info: Metrics,
}

/// A batch workload: the driver owns the clock, the workload owns the
/// calls into the program.
pub trait Closed: Sized {
    /// What a correct repetition must produce.
    type Oracle;

    /// Runtime build, input generation from the seed and handle
    /// allocation, each under its own span.
    fn setup(seed: u64, size: Size, opts: RtOpts, spans: &mut Spans) -> Self;
    /// Expected outputs, worked out without the runtime. Not part of
    /// set-up: this is the benchmark's cost, not the program's.
    fn oracle(&self) -> Self::Oracle;
    fn rt(&self) -> &Runtime;
    /// Restore the inputs (untimed).
    fn reset(&mut self);
    /// The spawn phase: every call that creates tasks, in program order.
    fn spawn(&mut self);
    /// Check the outputs of the last repetition.
    fn verify(&mut self, oracle: &Self::Oracle) -> bool;
    fn tasks_per_rep(&self) -> u64;
    /// Handles the `data.alloc` set-up span allocated.
    fn handles(&self) -> usize;
    /// Seconds for the same problem with no runtime (one timing).
    fn sequential_s(&self) -> f64;
    /// Whether the phase-split probe applies: the same repetition on a
    /// one-thread runtime, where the spawn loop is pure analysis and the
    /// barrier pure drain.
    const PHASE_SPLIT: bool;
    /// Per-layer metrics only this workload can supply.
    fn layer_extras(&self, _ctx: &LayerCtx, _out: &mut Metrics) {}
}

/// What the traced run learnt, handed to [`Closed::layer_extras`].
pub struct LayerCtx<'a> {
    pub threads: usize,
    /// Untraced median repetition, seconds.
    pub op_p50_s: f64,
    /// Spawn-phase span per task, ns (`spawner.submit_ns`).
    pub submit_ns: f64,
    pub graph: &'a GraphRecord,
    pub stats_end: &'a StatsSnapshot,
}

/// One timed repetition: first spawn to barrier return, in seconds.
fn rep<W: Closed>(w: &mut W, spans: &mut Spans, id: u32) -> f64 {
    let whole = spans.enter("rep", id);
    let t0 = Instant::now();
    let spawn = spans.enter("spawn", id);
    w.spawn();
    spans.exit(spawn);
    let barrier = spans.enter("barrier", id);
    w.rt().barrier();
    spans.exit(barrier);
    let secs = t0.elapsed().as_secs_f64();
    spans.exit(whole);
    secs
}

/// Repetitions (reset, timed run, verify) until `min_reps` are done and
/// `deadline` has passed. Appends the rep times, returns the failed-check
/// count.
fn timed_reps<W: Closed>(
    w: &mut W,
    oracle: &W::Oracle,
    spans: &mut Spans,
    min_reps: usize,
    deadline: Instant,
    samples: &mut Vec<f64>,
) -> u64 {
    let mut failed = 0;
    let first = samples.len();
    while samples.len() - first < min_reps || Instant::now() < deadline {
        if samples.len() == samples.capacity() {
            break;
        }
        w.reset();
        let id = samples.len() as u32;
        samples.push(rep(w, spans, id));
        if !w.verify(oracle) {
            failed += 1;
        }
    }
    failed
}

/// Room for the repetition samples of one run, allocated before the clock.
const MAX_REPS: usize = 1 << 16;

/// Set up `plan.setups()` times and keep the last. `build` builds,
/// generates and allocates; `warm_up` is the discarded warm-up, given the
/// set-up's index. Returns what was built and the seconds each set-up
/// took; the first runs from process start.
pub fn set_up<T>(
    plan: &Plan,
    spans: &mut Spans,
    mut build: impl FnMut(&mut Spans) -> T,
    mut warm_up: impl FnMut(&mut T, usize),
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(plan.setups());
    let mut kept: Option<T> = None;
    for i in 0..plan.setups() {
        // Joining the previous runtime's workers is not set-up.
        drop(kept.take());
        let t0 = if i == 0 {
            plan.process_start
        } else {
            Instant::now()
        };
        let whole = spans.enter("setup", i as u32);
        let mut built = build(spans);
        let warm = spans.enter("warmup", i as u32);
        warm_up(&mut built, i);
        spans.exit(warm);
        spans.exit(whole);
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(built);
    }
    (kept.expect("at least one set-up"), times)
}

fn e2e_metrics(
    metrics: &mut Metrics,
    info: &mut Metrics,
    setups: &[f64],
    reps: &[f64],
    tasks_per_rep: u64,
) {
    let setup = Summary::of(setups);
    let op = Summary::of(reps);
    metrics.set("setup_s", setup.median);
    metrics.set("op_p25_us", op.q1 * 1e6);
    info.set("setup_s.q1", setup.q1);
    info.set("setup_s.q3", setup.q3);
    info.set("setup_s.n", setup.n as f64);
    info.set("op_p50_us", op.median * 1e6);
    info.set("op_p75_us", op.q3 * 1e6);
    info.set("op_us.n", op.n as f64);
    info.set("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(0.0));
    info.set("tasks_per_op", tasks_per_rep as f64);
    info.set("tasks_per_s", tasks_per_rep as f64 / op.median);
}

pub fn run_closed<W: Closed>(plan: &Plan) -> Outcome {
    let mut spans = Spans::new(plan.traced, 64 * 1024);
    let (mut w, setups) = set_up(
        plan,
        &mut spans,
        |spans| W::setup(plan.seed, plan.size, RtOpts::plain(plan.threads), spans),
        |w: &mut W, _| {
            w.reset();
            rep(w, &mut Spans::new(false, 0), 0);
        },
    );
    let oracle = w.oracle();
    let mut failed = u64::from(!w.verify(&oracle)); // the last warm-up's output
    let mut attempted = 1;
    let mut metrics = Metrics::default();
    let mut info = Metrics::default();
    let budget = Duration::from_secs_f64(plan.seconds);

    if !plan.traced {
        let mut reps = Vec::with_capacity(MAX_REPS);
        let deadline = Instant::now() + budget;
        let mut off = Spans::new(false, 0);
        failed += timed_reps(
            &mut w,
            &oracle,
            &mut off,
            plan.min_reps(),
            deadline,
            &mut reps,
        );
        attempted += reps.len() as u64;
        e2e_metrics(&mut metrics, &mut info, &setups, &reps, w.tasks_per_rep());
        return Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
            info,
        };
    }

    // Traced run: the same repetitions first with the spans off, then on
    // (their difference is the tracing overhead), then the probes.
    let min_reps = plan.min_reps().div_ceil(3);
    let mut base = Vec::with_capacity(MAX_REPS);
    failed += timed_reps(
        &mut w,
        &oracle,
        &mut Spans::new(false, 0),
        min_reps,
        Instant::now() + budget.mul_f64(0.3),
        &mut base,
    );
    let before = w.rt().stats();
    let (cpu0, main0, wall0) = (
        procfs::process_cpu_s(),
        procfs::thread_cpu_s(),
        Instant::now(),
    );
    let mut traced = Vec::with_capacity(MAX_REPS);
    failed += timed_reps(
        &mut w,
        &oracle,
        &mut spans,
        min_reps,
        Instant::now() + budget.mul_f64(0.3),
        &mut traced,
    );
    let wall = wall0.elapsed().as_secs_f64();
    let after = w.rt().stats();
    attempted += (base.len() + traced.len()) as u64;

    let base_op = Summary::of(&base);
    let op_p50_s = base_op.median;
    let tasks = w.tasks_per_rep() as f64;
    let m = &mut metrics;
    m.set("apps.tasks_per_s", tasks / op_p50_s);
    m.set("apps.op_p50_us", op_p50_s * 1e6);
    m.set("apps.op_tail_us", base_op.q3 * 1e6);
    m.set("runtime.peak_rss_mb", procfs::peak_rss_mb().unwrap_or(0.0));
    m.set(
        "trace.overhead_frac",
        Summary::of(&traced).median / op_p50_s - 1.0,
    );
    if let (Some(c0), Some(m0), Some(c1), Some(m1)) =
        (cpu0, main0, procfs::process_cpu_s(), procfs::thread_cpu_s())
    {
        m.set("sched.cpu_frac", ((c1 - c0) - (m1 - m0)).max(0.0) / wall);
    }

    // Spans: set-up layers, then the spawn and barrier phases of each rep.
    let median_of = |v: Vec<f64>| Summary::of(&v).median;
    m.set(
        "runtime.build_us",
        median_of(spans.durations("runtime.build")) / 1e3,
    );
    m.set(
        "runtime.data_alloc_ns",
        median_of(spans.durations("data.alloc")) / w.handles().max(1) as f64,
    );
    let spawn_ns = spans.self_durations("spawn");
    let rep_ns = spans.durations("rep");
    let submit_ns = median_of(spawn_ns.clone()) / tasks;
    m.set("spawner.submit_ns", submit_ns);
    m.set(
        "spawner.spawn_phase_frac",
        median_of(spawn_ns.iter().zip(&rep_ns).map(|(s, r)| s / r).collect()),
    );
    m.set(
        "runtime.barrier_wait_us",
        median_of(spans.durations("barrier")) / 1e3,
    );

    let delta = stats_delta(&before, &after);
    counter_metrics(m, &delta);

    // One runtime with the program's own tracing on: worker busy time and
    // what that tracing costs.
    let trace = {
        let mut t = W::setup(
            plan.seed,
            plan.size,
            RtOpts {
                tracing: true,
                ..RtOpts::plain(plan.threads)
            },
            &mut spans,
        );
        let mut off = Spans::new(false, 0);
        let mut times = Vec::with_capacity(4);
        let mut last = None;
        for i in 0..4 {
            t.reset();
            t.rt().take_trace();
            let secs = rep(&mut t, &mut off, 0);
            if i > 0 {
                times.push(secs); // the first warms this runtime up
            }
            last = t.rt().take_trace();
        }
        attempted += 1;
        failed += u64::from(!t.verify(&oracle));
        m.set(
            "trace.runtime_overhead_frac",
            Summary::of(&times).median / op_p50_s - 1.0,
        );
        last.expect("built with tracing on")
    };
    m.set("sched.worker_busy_frac", busy_frac(&trace));

    // One runtime recording the graph: its size and its critical path.
    let graph = {
        let mut g = W::setup(
            plan.seed,
            plan.size,
            RtOpts {
                record_graph: true,
                ..RtOpts::plain(plan.threads)
            },
            &mut spans,
        );
        g.reset();
        rep(&mut g, &mut Spans::new(false, 0), 0);
        attempted += 1;
        failed += u64::from(!g.verify(&oracle));
        g.rt().graph().expect("built with graph recording on")
    };
    let unit = SimGraph::from_record(&graph, |_| 1.0);
    m.set("graph.tasks", unit.node_count() as f64);
    m.set(
        "graph.cp_over_work",
        unit.critical_path() / unit.total_work().max(1.0),
    );

    if W::PHASE_SPLIT {
        phase_split::<W>(plan, &oracle, m, &mut spans, &mut attempted, &mut failed);
    }

    let seq = Summary::of(&[w.sequential_s(), w.sequential_s(), w.sequential_s()]).median;
    m.set("apps.seq_s", seq);
    m.set("apps.speedup_vs_seq", seq / op_p50_s);

    w.layer_extras(
        &LayerCtx {
            threads: plan.threads,
            op_p50_s,
            submit_ns,
            graph: &graph,
            stats_end: &after,
        },
        m,
    );
    info.set("op_p50_us.untraced", op_p50_s * 1e6);
    info.set("op_us.n", base.len() as f64);
    info.set("spans", spans.all().len() as f64);
    info.set("spans.dropped", spans.dropped as f64);
    write_spans(plan, &spans);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        info,
    }
}

/// The phase-split probe: the same repetition on a one-thread runtime
/// (graph limit lifted, as everywhere here), where nothing runs until the
/// barrier — so the spawn loop is pure analysis, the barrier pure drain,
/// and the edge counts are exact.
fn phase_split<W: Closed>(
    plan: &Plan,
    oracle: &W::Oracle,
    m: &mut Metrics,
    spans: &mut Spans,
    attempted: &mut u64,
    failed: &mut u64,
) {
    let mut p = W::setup(plan.seed, plan.size, RtOpts::plain(1), spans);
    let tasks = p.tasks_per_rep() as f64;
    let (mut analyse, mut drain) = (Vec::with_capacity(3), Vec::with_capacity(3));
    let mut edges = (0.0, 0.0);
    for i in 0..4 {
        p.reset();
        let before = p.rt().stats();
        let t0 = Instant::now();
        p.spawn();
        let spawned = t0.elapsed();
        p.rt().barrier();
        let total = t0.elapsed();
        if i > 0 {
            analyse.push(spawned.as_nanos() as f64 / tasks);
            drain.push((total - spawned).as_nanos() as f64 / tasks);
        }
        let d = stats_delta(&before, &p.rt().stats());
        edges = (d.true_edges as f64 / tasks, d.anti_edges as f64 / tasks);
    }
    *attempted += 1;
    *failed += u64::from(!p.verify(oracle));
    m.set("dep.analyse_ns_per_task", Summary::of(&analyse).median);
    m.set("sched.drain_ns_per_task", Summary::of(&drain).median);
    m.set("dep.true_edges_per_task", edges.0);
    m.set("dep.anti_edges_per_task", edges.1);
}

pub fn write_spans(plan: &Plan, spans: &Spans) {
    if let Some(path) = &plan.trace_out {
        if let Err(e) = spans.write_jsonl(path) {
            eprintln!("benchmark: cannot write spans to {}: {e}", path.display());
        }
    }
}

/// Share of `threads x span` the runtime's own trace saw inside task
/// bodies.
pub fn busy_frac(trace: &Trace) -> f64 {
    let busy: u64 = trace.summaries().iter().map(|s| s.busy_ns).sum();
    let denom = trace.span_ns() as f64 * trace.thread_count() as f64;
    if denom == 0.0 {
        0.0
    } else {
        busy as f64 / denom
    }
}

/// `after - before` for the event counters; the gauges (`slab_parked_bytes`,
/// `version_bytes_*`) keep their `after` value.
pub fn stats_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> StatsSnapshot {
    let mut d = *after;
    macro_rules! sub {
        ($($field:ident),*) => { $( d.$field = after.$field - before.$field; )* };
    }
    sub!(
        tasks_spawned,
        tasks_executed,
        true_edges,
        anti_edges,
        renames,
        copy_ins,
        node_pool_hits,
        version_pool_hits,
        own_pops,
        main_pops,
        hp_pops,
        steals,
        handoffs,
        locality_hits,
        batch_steals,
        panics,
        cancelled,
        barriers,
        throttle_blocks,
        sessions_opened,
        admission_sheds,
        admission_waits,
        deadline_fires,
        slab_hits,
        slab_evicted_dead,
        slab_evicted_live
    );
    d
}

/// The per-layer ratios every workload takes from `Runtime::stats()`
/// deltas.
pub fn counter_metrics(m: &mut Metrics, d: &StatsSnapshot) {
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let tasks = d.tasks_executed;
    m.set("runtime.throttle_blocks", d.throttle_blocks as f64);
    m.set("dep.true_edges_per_task", per(d.true_edges, tasks));
    m.set("dep.anti_edges_per_task", per(d.anti_edges, tasks));
    m.set("data.renames_per_task", per(d.renames, tasks));
    m.set("data.copy_ins_per_task", per(d.copy_ins, tasks));
    m.set("data.slab_hit_ratio", per(d.slab_hits, d.renames));
    m.set("data.slab_evicted_live", d.slab_evicted_live as f64);
    m.set(
        "data.version_pool_hit_ratio",
        per(d.version_pool_hits, d.renames),
    );
    m.set(
        "graph.node_pool_hit_ratio",
        per(d.node_pool_hits, d.tasks_spawned),
    );
    m.set("sched.own_pop_frac", per(d.own_pops, d.total_pops()));
    m.set("sched.main_pop_frac", per(d.main_pops, d.total_pops()));
    m.set("sched.steal_frac", per(d.steals, d.total_pops()));
    m.set("sched.handoff_frac", per(d.handoffs, d.total_pops()));
    m.set("sched.locality_hit_ratio", per(d.locality_hits, tasks));
    m.set("session.sheds", d.admission_sheds as f64);
    m.set("session.admission_waits", d.admission_waits as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_stays_within_the_cores_and_the_cap() {
        assert_eq!(threads_for(1), 2);
        assert_eq!(threads_for(2), 2);
        assert_eq!(threads_for(3), 3);
        assert_eq!(threads_for(64), 4);
    }

    #[test]
    fn counter_deltas_subtract_events_and_keep_gauges() {
        let before = StatsSnapshot {
            tasks_executed: 10,
            renames: 4,
            own_pops: 6,
            main_pops: 4,
            ..Default::default()
        };
        let after = StatsSnapshot {
            tasks_executed: 30,
            renames: 14,
            own_pops: 21,
            main_pops: 9,
            version_bytes_peak: 777,
            ..Default::default()
        };
        let d = stats_delta(&before, &after);
        assert_eq!(
            (d.tasks_executed, d.renames, d.version_bytes_peak),
            (20, 10, 777)
        );
        let mut m = Metrics::default();
        counter_metrics(&mut m, &d);
        assert_eq!(m.get("data.renames_per_task"), Some(0.5));
        assert_eq!(m.get("sched.own_pop_frac"), Some(0.75));
        assert_eq!(m.get("data.slab_hit_ratio"), Some(0.0));
    }
}
