//! The mechanical `BENCH_*.json` perf subsystem.
//!
//! DESIGN.md asked for a trajectory format so perf PRs can be compared
//! mechanically; this module is that format plus the workloads that fill
//! it. The [`perfsuite`](../bin/perfsuite.rs) binary runs
//!
//! 1. a **fine-grain task storm** — empty-body, zero-parameter tasks,
//!    the purest measure of spawn/schedule/complete overhead — across
//!    1/2/4/8 threads and both scheduler policies;
//! 2. a **dependency chain** storm that pins the §III own-list (LIFO)
//!    path, where every completion releases exactly one successor;
//! 3. the **paper applications at structural scale** (tiny blocks:
//!    graph shape depends only on block count), so the numbers track
//!    end-to-end runtime behaviour, not just the microbench.
//!
//! Results are emitted as `BENCH_NNNN.json` in the schema documented in
//! DESIGN.md ("Benchmark trajectory" section), embedding the frozen
//! pre-PR baseline from [`perf_baseline`](crate::perf_baseline) so the
//! speedup of the current tree over the last recorded point is a field
//! in the file, not a by-hand diff.
//!
//! No `serde` in the offline container: [`JsonValue`] is a minimal
//! writer/parser pair (objects, arrays, strings, finite numbers, bools,
//! null) with tests, also used by `perfsuite --check` to validate an
//! emitted file structurally in CI.

use std::time::{Duration, Instant};

use smpss::config::SchedulerPolicy;
use smpss::sched::TaskSource;
use smpss::{Runtime, StatsSnapshot};
use smpss_apps::sort::{multisort, random_input, SortParams};
use smpss_apps::{cholesky, nqueens, stencil, strassen, FlatMatrix, HyperMatrix};
use smpss_blas::Vendor;

use crate::perf_baseline;

/// Trajectory id this tree emits. Bump once per perf PR; the previous
/// file stays in git history, and `baseline` inside the new file carries
/// the comparison point forward.
pub const BENCH_ID: &str = "BENCH_0009";

/// Schema tag checked by `perfsuite --check`.
pub const SCHEMA: &str = "smpss-bench/1";

/// Structural block dimension for the app workloads (see
/// [`crate::record::STRUCT_M`]: shape depends only on block count).
const STRUCT_M: usize = 2;

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// A minimal JSON document: enough to write and re-validate the bench
/// trajectory without a registry dependency.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                assert!(n.is_finite(), "non-finite number in bench JSON");
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{}", n));
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth + 1));
                    item.write(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth + 1));
                    JsonValue::Str(k.clone()).write(out, depth + 1);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (strict enough for round-tripping what
    /// [`render`](Self::render) writes, plus ordinary hand-edits).
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {}", pos));
        }
        Ok(value)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid UTF-8")?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("bad number at byte {}", start))
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// One measured workload run.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Stable key, e.g. `task_storm/t8/smpss` — baselines join on this.
    pub name: String,
    pub threads: usize,
    /// Tasks executed by the run (denominator of `tasks_per_sec`).
    pub tasks: u64,
    /// Best wall-clock seconds over `reps` repetitions.
    pub secs: f64,
    pub tasks_per_sec: f64,
    /// Runtime counters of the best repetition.
    pub counters: StatsSnapshot,
    /// Workload-specific scalars (key, value) — e.g. `tenant_storm`'s
    /// per-session latency percentiles and shed counts. Serialised as
    /// the optional `"extra"` object and round-tripped by
    /// [`parse_workload`]; empty for workloads that have none.
    pub extra: Vec<(String, f64)>,
}

fn policy_key(policy: SchedulerPolicy) -> &'static str {
    match policy {
        SchedulerPolicy::Smpss => "smpss",
        SchedulerPolicy::CentralQueue => "central",
    }
}

/// Run `f` `reps` times; keep the fastest repetition (1-CPU CI hosts are
/// noisy, and the minimum is the least-perturbed estimate of the cost).
fn best_of(reps: usize, mut f: impl FnMut() -> (f64, u64, StatsSnapshot)) -> (f64, u64, StatsSnapshot) {
    let mut best: Option<(f64, u64, StatsSnapshot)> = None;
    for _ in 0..reps.max(1) {
        let r = f();
        if best.as_ref().is_none_or(|b| r.0 < b.0) {
            best = Some(r);
        }
    }
    best.unwrap()
}

/// Empty-body, zero-parameter task storm: every task is born ready and
/// goes through the main list (or the central queue), so the measured
/// rate is the spawn + enqueue + dequeue + complete overhead alone.
#[inline(never)]
pub fn task_storm(
    threads: usize,
    policy: SchedulerPolicy,
    tasks: u64,
    reps: usize,
) -> WorkloadResult {
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(threads).policy(policy).build();
        let t0 = Instant::now();
        for _ in 0..tasks {
            rt.task("storm").submit(|| {});
        }
        rt.barrier();
        let secs = t0.elapsed().as_secs_f64();
        let st = rt.stats();
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: format!("task_storm/t{}/{}", threads, policy_key(policy)),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// A single dependency chain of `inout` bumps: each completion releases
/// exactly one successor onto the finishing thread's own list, pinning
/// the §III LIFO own-list path (own_pops must dominate).
#[inline(never)]
pub fn task_chain(threads: usize, tasks: u64, reps: usize) -> WorkloadResult {
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(threads).build();
        let x = rt.data(0u64);
        let t0 = Instant::now();
        for _ in 0..tasks {
            let mut sp = rt.task("chain");
            let mut w = sp.inout(&x);
            sp.submit(move || *w.get_mut() += 1);
        }
        rt.barrier();
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(rt.read(&x), tasks);
        let st = rt.stats();
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: format!("task_chain/t{}", threads),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// Blocked hyper-matrix Cholesky at structural scale, `n` blocks.
#[inline(never)]
pub fn app_cholesky(threads: usize, n: usize, reps: usize) -> WorkloadResult {
    let spd = FlatMatrix::random_spd(n * STRUCT_M, 11);
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(threads).build();
        let a = HyperMatrix::from_flat(&rt, &spd, STRUCT_M);
        let t0 = Instant::now();
        cholesky::cholesky_hyper(&rt, &a, Vendor::Tuned);
        rt.barrier();
        let secs = t0.elapsed().as_secs_f64();
        let st = rt.stats();
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: format!("cholesky_hyper/n{}/t{}", n, threads),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// Strassen at structural scale (`n` blocks per side, cutoff 1): the
/// paper's intensive-renaming workload.
#[inline(never)]
pub fn app_strassen(threads: usize, n: usize, reps: usize) -> WorkloadResult {
    let af = FlatMatrix::random(n * STRUCT_M, 15);
    let bf = FlatMatrix::random(n * STRUCT_M, 16);
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(threads).build();
        let a = HyperMatrix::from_flat(&rt, &af, STRUCT_M);
        let b = HyperMatrix::from_flat(&rt, &bf, STRUCT_M);
        let c = HyperMatrix::dense_zeros(&rt, n, STRUCT_M);
        let t0 = Instant::now();
        strassen::strassen(&rt, &a, &b, &c, Vendor::Tuned, 1);
        rt.barrier();
        let secs = t0.elapsed().as_secs_f64();
        let st = rt.stats();
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: format!("strassen/n{}/t{}", n, threads),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// Spawner-thread-only storm (BENCH_0003): one thread, empty bodies, a
/// §III graph-size throttle so spawning and execution interleave on the
/// single spawner thread. Every cycle measured here sits on the serial
/// generation path the paper pins scalability on; the throttle also
/// recirculates completed task nodes through the spawn-side pool, so
/// the number is the steady-state (recycled) spawn cost, not the
/// cold-allocation cost.
#[inline(never)]
pub fn spawn_storm(tasks: u64, reps: usize) -> WorkloadResult {
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(1).graph_size_limit(256).build();
        let t0 = Instant::now();
        for _ in 0..tasks {
            rt.task("spawn").submit(|| {});
        }
        rt.barrier();
        let secs = t0.elapsed().as_secs_f64();
        let st = rt.stats();
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: "spawn_storm/t1".into(),
        threads: 1,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// Strassen-shaped renaming churn (BENCH_0003): pairs of reader-then-
/// writer tasks over a working set of objects. The reader is still
/// pending when the writer is analysed, so nearly every writer renames
/// (fresh version buffer + fresh pending-reader counter) — the paper's
/// intensive-renaming case, isolated from the arithmetic.
#[inline(never)]
pub fn rename_storm(tasks: u64, reps: usize) -> WorkloadResult {
    const OBJECTS: usize = 64;
    const ELEMS: usize = 64;
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(1).graph_size_limit(256).build();
        let objs: Vec<_> = (0..OBJECTS)
            .map(|_| rt.data_sized(vec![0f32; ELEMS], ELEMS * 4, || vec![0f32; ELEMS]))
            .collect();
        let t0 = Instant::now();
        for i in 0..(tasks / 2) {
            let h = &objs[(i as usize) % OBJECTS];
            {
                let mut sp = rt.task("rs_read");
                let mut r = sp.read(h);
                sp.submit(move || {
                    std::hint::black_box(r.get()[0]);
                });
            }
            {
                let mut sp = rt.task("rs_write");
                let mut w = sp.write(h);
                sp.submit(move || w.get_mut()[0] = 1.0);
            }
        }
        rt.barrier();
        let secs = t0.elapsed().as_secs_f64();
        let st = rt.stats();
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: "rename_storm/t1".into(),
        threads: 1,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// Rename churn against a memory throttle (BENCH_0009): the
/// `rename_storm` shape, but each version is 64 KiB and the runtime is
/// capped at 8 MiB of resident version bytes — the run churns a working
/// set two orders of magnitude past the cap. The slab's job is to hold
/// resident bytes at the throttle (size-classed reuse, dead-spare
/// reclaim, spawner stall) without giving up rename throughput.
#[inline(never)]
pub fn rename_churn(threads: usize, tasks: u64, reps: usize) -> WorkloadResult {
    const OBJECTS: usize = 32;
    const BYTES: usize = 64 * 1024;
    const LIMIT: usize = 8 * 1024 * 1024;
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(threads).memory_limit(LIMIT).build();
        let objs: Vec<_> = (0..OBJECTS)
            .map(|_| rt.data_sized(vec![0u8; BYTES], BYTES, || vec![0u8; BYTES]))
            .collect();
        let t0 = Instant::now();
        for i in 0..(tasks / 2) {
            let h = &objs[(i as usize) % OBJECTS];
            {
                let mut sp = rt.task("rc_read");
                let mut r = sp.read(h);
                // A real body (sum the version) keeps the read window
                // open across the writer's analysis, so the writer
                // renames instead of reusing in place — without it a
                // fast worker pool drains readers between the pair's
                // two submits and the churn evaporates.
                sp.submit(move || {
                    std::hint::black_box(r.get().iter().map(|&b| b as u64).sum::<u64>());
                });
            }
            {
                let mut sp = rt.task("rc_write");
                let mut w = sp.write(h);
                sp.submit(move || w.get_mut()[0] = 1);
            }
        }
        rt.barrier();
        let secs = t0.elapsed().as_secs_f64();
        let st = rt.stats();
        // --- Audits, outside the clock.
        let working = st.renames as usize * BYTES + OBJECTS * BYTES;
        assert!(
            working >= 8 * LIMIT,
            "the slab must sustain churn past the throttle \
             (renames={} working={working} limit={LIMIT})",
            st.renames
        );
        // The BENCH_0009 resident-bytes gate: 1.25x the throttle.
        assert!(
            st.version_bytes_peak as usize <= LIMIT + LIMIT / 4,
            "slab backpressure must hold resident bytes at the \
             throttle (peak={} limit={LIMIT})",
            st.version_bytes_peak
        );
        (secs, st.tasks_executed, st)
    });
    let peak = counters.version_bytes_peak as f64;
    let working = (counters.renames as usize * BYTES + OBJECTS * BYTES) as f64;
    WorkloadResult {
        name: format!("rename_churn/t{}", threads),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: vec![
            ("resident_peak_bytes".into(), peak),
            ("limit_bytes".into(), LIMIT as f64),
            ("working_set_bytes".into(), working),
            ("bound_ratio".into(), peak / LIMIT as f64),
        ],
    }
}

/// Region-log stress (BENCH_0003): rounds of writers over `BLOCKS`
/// disjoint tiles of one buffer. Each access must be checked against
/// every live log entry for overlap; a graph-size throttle keeps a few
/// hundred entries live, so the linear log scans ~256 entries per
/// access while the indexed log touches only the tile it conflicts on.
#[inline(never)]
pub fn region_storm(tasks: u64, reps: usize) -> WorkloadResult {
    const BLOCKS: usize = 64;
    const WIDTH: usize = 64;
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(1).graph_size_limit(256).build();
        let data = rt.region_data(vec![0u8; BLOCKS * WIDTH]);
        let rounds = (tasks as usize).div_ceil(BLOCKS);
        let t0 = Instant::now();
        for round in 0..rounds {
            for b in 0..BLOCKS {
                let (lo, hi) = (b * WIDTH, b * WIDTH + WIDTH - 1);
                let mut sp = rt.task("region");
                let mut w = sp.write_region(&data, smpss::Region::d1(lo..=hi));
                sp.submit(move || w.slice_mut(lo, hi)[0] = round as u8);
            }
        }
        rt.barrier();
        let secs = t0.elapsed().as_secs_f64();
        let st = rt.stats();
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: "region_storm/t1".into(),
        threads: 1,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// Multisort over `n` elements (§VI.D); element count is structural.
#[inline(never)]
pub fn app_multisort(threads: usize, n: usize, reps: usize) -> WorkloadResult {
    let input = random_input(n, 17);
    let params = SortParams {
        quick_size: 256,
        merge_chunk: 256,
    };
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(threads).build();
        let t0 = Instant::now();
        let sorted = multisort(&rt, input.clone(), params);
        let secs = t0.elapsed().as_secs_f64();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let st = rt.stats();
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: format!("multisort/n{}/t{}", n, threads),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// N Queens with `levels` task levels (§VI.E).
#[inline(never)]
pub fn app_nqueens(threads: usize, n: usize, levels: usize, reps: usize) -> WorkloadResult {
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(threads).build();
        let t0 = Instant::now();
        let _count = nqueens::nqueens_smpss(&rt, n, levels);
        rt.barrier();
        let secs = t0.elapsed().as_secs_f64();
        let st = rt.stats();
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: format!("nqueens/n{}l{}/t{}", n, levels, threads),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// Body time of the release and placement storms below. Twice the
/// runtime's 1 µs inline threshold: a sub-µs body would run inline on
/// the spawner and never reach the release and placement paths these
/// storms exist to exercise.
const PLACEMENT_BODY: Duration = Duration::from_micros(2);

/// Busy-wait for `d`: a task body of a fixed, measurable cost.
fn spin_for(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Release-bound fan-out rounds (BENCH_0004): each round spawns one
/// writer and `FAN` readers of the same object. The writer's completion
/// releases the whole reader wave at once — the batched-publication
/// path (one queue transition + one wake instead of one wake-check per
/// successor) — and every reader completion closes its read window
/// through the lock-free pending-reader protocol. With renaming on, the
/// next round's writer renames off the still-pending readers, so the
/// completion side, not the spawner, is the bottleneck.
#[inline(never)]
pub fn fanout_storm(threads: usize, tasks: u64, reps: usize) -> WorkloadResult {
    const FAN: u64 = 12;
    let rounds = tasks / (FAN + 1);
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(threads).graph_size_limit(512).build();
        let h = rt.data(0u64);
        let t0 = Instant::now();
        for _ in 0..rounds {
            {
                let mut sp = rt.task("fs_write");
                let mut w = sp.write(&h);
                sp.submit(move || {
                    spin_for(PLACEMENT_BODY);
                    *w.get_mut() = 1;
                });
            }
            for _ in 0..FAN {
                let mut sp = rt.task("fs_read");
                let mut r = sp.read(&h);
                sp.submit(move || {
                    spin_for(PLACEMENT_BODY);
                    std::hint::black_box(*r.get());
                });
            }
        }
        rt.barrier();
        let secs = t0.elapsed().as_secs_f64();
        let st = rt.stats();
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: format!("fanout_storm/t{}", threads),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// Independent dependency chains progressing in parallel (BENCH_0004):
/// every completion releases exactly one successor, so with the direct
/// hand-off the released task runs next on the completing worker without
/// a queue round-trip or a wake — the pure release-latency measure,
/// `CHAINS`-wide so all workers ride a chain at once.
#[inline(never)]
pub fn chain_storm(threads: usize, tasks: u64, reps: usize) -> WorkloadResult {
    const CHAINS: usize = 16;
    let per_chain = tasks / CHAINS as u64;
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(threads).build();
        let hs: Vec<_> = (0..CHAINS).map(|_| rt.data(0u64)).collect();
        let t0 = Instant::now();
        for _ in 0..per_chain {
            for h in &hs {
                let mut sp = rt.task("cs_bump");
                let mut w = sp.inout(h);
                sp.submit(move || {
                    spin_for(PLACEMENT_BODY);
                    *w.get_mut() += 1;
                });
            }
        }
        rt.barrier();
        let secs = t0.elapsed().as_secs_f64();
        for h in &hs {
            assert_eq!(rt.read(h), per_chain);
        }
        let st = rt.stats();
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: format!("chain_storm/t{}", threads),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// Locality storm (BENCH_0005): reader + `inout`-writer churn over a
/// fixed working set under a tight §III throttle. Every reader goes
/// through the main list FIFO and is usually still *pending* when its
/// site's next writer is analysed, so the writer renames and pays the
/// deferred copy-in: the WAR pattern renaming exists for, with the
/// version slab recycling the renamed-away buffers.
#[inline(never)]
pub fn locality_storm(threads: usize, tasks: u64, reps: usize) -> WorkloadResult {
    const SITES: usize = 64;
    const ELEMS: usize = 64;
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(threads).graph_size_limit(32).build();
        let objs: Vec<_> = (0..SITES)
            .map(|_| rt.data_sized(vec![0f32; ELEMS], ELEMS * 4, || vec![0f32; ELEMS]))
            .collect();
        let t0 = Instant::now();
        for i in 0..(tasks / 2) {
            let h = &objs[(i as usize) % SITES];
            {
                let mut sp = rt.task("ls_read");
                let mut r = sp.read(h);
                sp.submit(move || {
                    spin_for(PLACEMENT_BODY);
                    std::hint::black_box(r.get()[0]);
                });
            }
            {
                let mut sp = rt.task("ls_write");
                let mut w = sp.inout(h);
                sp.submit(move || {
                    spin_for(PLACEMENT_BODY);
                    w.get_mut()[0] += 1.0;
                });
            }
        }
        rt.barrier();
        let secs = t0.elapsed().as_secs_f64();
        let st = rt.stats();
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: format!("locality_storm/t{}", threads),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// Multi-submitter storm (BENCH_0006): `LANES` producer threads each
/// submit an equal share of tasks, and the clock covers the
/// **submission (analysis) phase only** — the quantity the single-lane
/// ceiling is about. Each producer's tasks read a per-producer gate
/// object whose writer (a "hold" task) parks until the clock stops, so
/// during the measured span no body runs and the CPU belongs entirely
/// to the spawn path; release and drain happen outside the clock.
///
/// In the sharded mode every producer owns a
/// [`Submitter`](smpss::Submitter) lane and runs dependency analysis
/// **in place**; in the funnel baseline ([`submit_storm_cfg`] with
/// `sharded = false`, how the frozen row was captured and what the
/// `shard_ablation` study compares against) the same producers must ship each
/// submission — a boxed closure — over a bounded channel to the single
/// thread allowed to analyse, the only multi-producer topology the
/// pre-sharding runtime admits. The gap is mechanical, not parallel
/// analysis: on the 1-CPU CI host both modes spend the same analysis
/// cycles, but every funnelled task additionally pays the box, the
/// hop, and the single consumer's serial drain, which in-place
/// per-lane analysis simply does not perform.
#[inline(never)]
pub fn submit_storm(threads: usize, tasks: u64, reps: usize) -> WorkloadResult {
    submit_storm_cfg(threads, tasks, reps, true)
}

/// [`submit_storm`] with the shard switch explicit (the `shard_ablation`
/// study runs the same shape both ways).
pub fn submit_storm_cfg(
    threads: usize,
    tasks: u64,
    reps: usize,
    sharded: bool,
) -> WorkloadResult {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const LANES: usize = 4;
    let per_lane = tasks / LANES as u64;

    // The hold body: claims the gate object, then sleeps (parked, not
    // spinning — a spinning worker would steal the 1-CPU host from the
    // submitters) until the submission clock has stopped.
    fn hold(release: &AtomicBool) {
        while !release.load(Ordering::Acquire) {
            std::thread::park_timeout(std::time::Duration::from_micros(200));
        }
    }

    let (secs, executed, counters) = best_of(reps, || {
        if sharded {
            let rt = Runtime::builder().threads(threads).shards(LANES).build();
            let gates: Vec<_> = (0..LANES).map(|_| rt.data(0u64)).collect();
            let release = Arc::new(AtomicBool::new(false));
            let submitters = rt.submitters();
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for (sub, gate) in submitters.into_iter().zip(&gates) {
                    let release = Arc::clone(&release);
                    s.spawn(move || {
                        let mut sp = sub.task("hold");
                        let mut w = sp.write(gate);
                        sp.submit(move || {
                            *w.get_mut() = 1;
                            hold(&release);
                        });
                        for i in 0..per_lane {
                            let mut sp = sub.task("submit");
                            let mut r = sp.read(gate);
                            sp.submit(move || {
                                std::hint::black_box(*r.get());
                                std::hint::black_box(i);
                            });
                        }
                    });
                }
            });
            let secs = t0.elapsed().as_secs_f64();
            release.store(true, Ordering::Release);
            rt.barrier();
            let st = rt.stats();
            (secs, st.tasks_executed, st)
        } else {
            let rt = Runtime::builder().threads(threads).build();
            let gates: Vec<_> = (0..LANES).map(|_| rt.data(0u64)).collect();
            let release = Arc::new(AtomicBool::new(false));
            // A funnelled submission ships its closure's environment and
            // names its accesses: (producer lane, boxed body). Bounded,
            // like any real funnel — the hop's buffer cannot grow without
            // limit (that is what the runtime's own in-flight throttle
            // exists to prevent), so producers park when the single
            // analyser falls behind and pay the wake on drain.
            type Shipped = (usize, Box<dyn FnOnce() + Send>);
            let (tx, rx) = std::sync::mpsc::sync_channel::<Shipped>(256);
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for lane in 0..LANES {
                    let tx = tx.clone();
                    s.spawn(move || {
                        for i in 0..per_lane {
                            tx.send((
                                lane,
                                Box::new(move || {
                                    std::hint::black_box(i);
                                }),
                            ))
                            .unwrap();
                        }
                    });
                }
                drop(tx);
                // The single spawner: claim the gates, then drain the
                // funnel and analyse every shipped task here.
                for gate in &gates {
                    let release = Arc::clone(&release);
                    let mut sp = rt.task("hold");
                    let mut w = sp.write(gate);
                    sp.submit(move || {
                        *w.get_mut() = 1;
                        hold(&release);
                    });
                }
                for (lane, body) in rx.iter() {
                    let mut sp = rt.task("submit");
                    let mut r = sp.read(&gates[lane]);
                    sp.submit(move || {
                        std::hint::black_box(*r.get());
                        body();
                    });
                }
            });
            let secs = t0.elapsed().as_secs_f64();
            release.store(true, Ordering::Release);
            rt.barrier();
            let st = rt.stats();
            (secs, st.tasks_executed, st)
        }
    });
    WorkloadResult {
        name: format!("submit_storm/t{}", threads),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// Suppress the default panic hook's per-panic report for unwinds that
/// happen inside `smpss-worker-*` threads: [`panic_storm`] injects
/// thousands of contained panics per repetition, and printing each one
/// would swamp the child's stderr (and the clock). Panics on any other
/// thread — a real harness bug — still print in full.
fn quiet_worker_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("smpss-worker"));
            if !in_worker {
                prev(info);
            }
        }));
    });
}

/// Panic storm (BENCH_0007): `tasks/2` *independent* two-task chains
/// (a writer head and an `inout` tail), with every `PANIC_EVERY`-th
/// head panicking — at full size that is ~1.9k contained panics per
/// repetition. The run must survive all of them: each panicked head
/// still executes the complete completion protocol (stamp, successor
/// poisoning, pool recycling), its tail is cancelled without running,
/// every chain not behind a failed head finishes, and `wait_all`
/// reports the exact failed + cancelled id sets — all asserted after
/// the clock stops. The rate is total scheduler throughput (executed +
/// cancelled pops) while failure containment is live; note this
/// workload runs on the **default build** — the bodies panic directly,
/// no `fault-inject` hooks involved.
#[inline(never)]
pub fn panic_storm(threads: usize, tasks: u64, reps: usize) -> WorkloadResult {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const PANIC_EVERY: u64 = 8;
    quiet_worker_panics();
    let chains = tasks / 2;
    let failing = chains.div_ceil(PANIC_EVERY);
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(threads).graph_size_limit(512).build();
        let hs: Vec<_> = (0..chains).map(|_| rt.data(0u64)).collect();
        let heads_run = Arc::new(AtomicU64::new(0));
        let tails_run = Arc::new(AtomicU64::new(0));
        let t0 = Instant::now();
        for (i, h) in hs.iter().enumerate() {
            let fails = (i as u64).is_multiple_of(PANIC_EVERY);
            {
                let mut sp = rt.task("ps_head");
                let mut w = sp.write(h);
                let heads_run = Arc::clone(&heads_run);
                sp.submit(move || {
                    if fails {
                        panic!("ps_head down");
                    }
                    *w.get_mut() = 1;
                    heads_run.fetch_add(1, Ordering::Relaxed);
                });
            }
            {
                let mut sp = rt.task("ps_tail");
                let mut w = sp.inout(h);
                let tails_run = Arc::clone(&tails_run);
                sp.submit(move || {
                    *w.get_mut() += 1;
                    tails_run.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        let outcome = rt.wait_all();
        let secs = t0.elapsed().as_secs_f64();

        // Survival audit (outside the clock). Task ids are 1-based spawn
        // order: chain i is (head 2i+1, tail 2i+2).
        let err = outcome.expect_err("the storm injects panics");
        let expect_failed: Vec<u64> = (0..chains)
            .filter(|i| i.is_multiple_of(PANIC_EVERY))
            .map(|i| 2 * i + 1)
            .collect();
        let got_failed: Vec<u64> = {
            let mut v: Vec<u64> = err.failed.iter().map(|f| f.id.0).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(got_failed, expect_failed, "exact failed set");
        let expect_cancelled: Vec<u64> =
            expect_failed.iter().map(|head| head + 1).collect();
        let got_cancelled: Vec<u64> = {
            let mut v: Vec<u64> = err.cancelled.iter().map(|c| c.id.0).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(got_cancelled, expect_cancelled, "exact cancelled set");
        assert_eq!(heads_run.load(Ordering::Relaxed), chains - failing);
        assert_eq!(tails_run.load(Ordering::Relaxed), chains - failing);

        let st = rt.stats();
        assert_eq!(st.panics, failing);
        assert_eq!(st.cancelled, failing);
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: format!("panic_storm/t{}", threads),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

/// Tenant storm (BENCH_0008): the multi-session front door under one
/// noisy neighbour. Phase A runs one polite tenant **solo** — rounds of
/// `POLITE` tasks, each round drained before the next, recording every
/// task's submit-to-complete latency — and freezes its p50/p99. Phase B
/// runs the *same round shape* spread across `POLITE` sessions, plus a
/// **hog** whose in-flight quota is pinned full by a parked blocker
/// (its dependents cannot complete while the blocker holds the gate),
/// so every further hog submission is refused by the `Shed` admission
/// policy — the admitted/shed split is exact, not racy — plus a
/// **laggard** session whose pending tasks are cancelled by an
/// already-elapsed deadline. After the clock stops the workload audits:
/// the hog admitted exactly `quota - 1` dependents and was shed exactly
/// `attempts - (quota - 1)` times (mirrored by the runtime's
/// `admission_sheds` counter), every admitted hog task ran once the
/// gate opened, the laggard's exact cancelled set is its pending ids,
/// every polite task completed, and — at committed-run sample sizes —
/// every polite session's p99 stays within 2x of the solo p99: the
/// noisy neighbour is shed at the front door instead of taxing the
/// other tenants.
#[inline(never)]
pub fn tenant_storm(threads: usize, tasks: u64, reps: usize) -> WorkloadResult {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    use smpss::AdmissionPolicy;

    const POLITE: usize = 8;
    const QUOTA: usize = 64;
    const HOG_TRIES_PER_ROUND: u64 = 2;
    const LAGGARD_TASKS: usize = 4;

    // Session waits help nobody (the session thread is a producer, not
    // a worker), and the hog's blocker occupies one worker for the
    // whole contended phase — so the workload needs at least two
    // worker threads (threads counts the main thread) to make progress.
    assert!(threads >= 3, "tenant_storm needs >= 2 workers; got threads={}", threads);

    let rounds = ((tasks as usize) / POLITE).max(32);
    let solo_rounds = (rounds / 8).max(32);
    // HOG_TRIES_PER_ROUND * rounds must overfill the quota or the
    // exact-shed audit below is vacuous.
    assert!(HOG_TRIES_PER_ROUND * rounds as u64 > (QUOTA - 1) as u64);

    /// p-th percentile of a sorted nanosecond sample, in microseconds.
    fn pct_us(sorted: &[u64], q: f64) -> f64 {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx] as f64 / 1_000.0
    }

    // The hog blocker parks (long timeout: a frequent timer wake on the
    // 1-CPU host would blip the polite latency tail it runs next to).
    fn hold(release: &AtomicBool) {
        while !release.load(Ordering::Acquire) {
            std::thread::park_timeout(std::time::Duration::from_millis(2));
        }
    }

    /// One drained round: each session submits one latency-recording
    /// task into its slot, then every session waits its backlog dry —
    /// so a task's latency spans its own round, solo and contended
    /// alike, and the comparison between the phases is like for like.
    fn run_rounds(
        sessions: &[smpss::Session],
        rounds: usize,
        lat: &[Arc<Vec<AtomicU64>>],
        mut each_round: impl FnMut(usize),
    ) {
        for round in 0..rounds {
            for (s, lat) in sessions.iter().zip(lat) {
                let lat = Arc::clone(lat);
                let sp = s.task("ts_polite").expect("polite stays under quota");
                let t0 = Instant::now();
                sp.submit(move || {
                    lat[round].store((t0.elapsed().as_nanos() as u64).max(1), Ordering::Relaxed);
                });
            }
            each_round(round);
            for s in sessions {
                s.wait().expect("polite work never fails");
            }
        }
    }

    fn sorted_lat(lat: &Arc<Vec<AtomicU64>>) -> Vec<u64> {
        let mut v: Vec<u64> = lat.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        assert!(v.iter().all(|&n| n > 0), "every polite task ran");
        v.sort_unstable();
        v
    }

    let builder = |threads: usize| {
        Runtime::builder()
            .threads(threads)
            .session_max_in_flight(QUOTA)
            .admission(AdmissionPolicy::Shed)
    };

    /// Best-of-rep record: `(secs, executed, counters, extra scalars)`.
    type BestRep = (f64, u64, StatsSnapshot, Vec<(String, f64)>);
    let mut best: Option<BestRep> = None;
    for _ in 0..reps.max(1) {
        // --- Phase A: one tenant, solo, same round shape (POLITE tasks
        // per drained round from the one session).
        let rt = builder(threads).build();
        let solo_sessions: Vec<_> = (0..1).map(|_| rt.session()).collect();
        let solo_lat: Vec<Arc<Vec<AtomicU64>>> = vec![Arc::new(
            (0..solo_rounds * POLITE).map(|_| AtomicU64::new(0)).collect(),
        )];
        for round in 0..solo_rounds {
            let s = &solo_sessions[0];
            for k in 0..POLITE {
                let lat = Arc::clone(&solo_lat[0]);
                let idx = round * POLITE + k;
                let sp = s.task("ts_solo").expect("solo never sheds");
                let t0 = Instant::now();
                sp.submit(move || {
                    lat[idx].store((t0.elapsed().as_nanos() as u64).max(1), Ordering::Relaxed);
                });
            }
            s.wait().expect("solo work never fails");
        }
        let solo = sorted_lat(&solo_lat[0]);
        let (solo_p50, solo_p99) = (pct_us(&solo, 0.50), pct_us(&solo, 0.99));
        drop(rt);

        // --- Phase B: POLITE polite tenants, one hog, one laggard.
        let rt = builder(threads).build();
        let polite: Vec<_> = (0..POLITE).map(|_| rt.session()).collect();
        let hog = rt.session();
        let laggard = rt.session();
        let lat: Vec<Arc<Vec<AtomicU64>>> = (0..POLITE)
            .map(|_| Arc::new((0..rounds).map(|_| AtomicU64::new(0)).collect()))
            .collect();

        let gate = rt.data(0u64);
        let release = Arc::new(AtomicBool::new(false));
        let hog_runs = Arc::new(AtomicU64::new(0));
        let t0 = Instant::now();
        {
            let release = Arc::clone(&release);
            let mut sp = hog.task("ts_hog_blocker").expect("first in flight");
            let mut w = sp.write(&gate);
            sp.submit(move || {
                *w.get_mut() = 1;
                hold(&release);
            });
        }
        let (mut hog_admitted, mut hog_shed) = (0u64, 0u64);
        run_rounds(&polite, rounds, &lat, |_| {
            for _ in 0..HOG_TRIES_PER_ROUND {
                match hog.task("ts_hog") {
                    Ok(mut sp) => {
                        hog_admitted += 1;
                        let mut r = sp.read(&gate);
                        let runs = Arc::clone(&hog_runs);
                        sp.submit(move || {
                            std::hint::black_box(*r.get());
                            runs.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    Err(e) => {
                        assert_eq!(e.session, hog.id(), "the refusal names the hog");
                        hog_shed += 1;
                    }
                }
            }
        });
        // The laggard's tasks queue behind the hog's gate, then its
        // deadline is armed already elapsed: the worker-side probe
        // cancels exactly this pending set once the gate opens.
        let mut laggard_ids = std::collections::BTreeSet::new();
        for _ in 0..LAGGARD_TASKS {
            let mut sp = laggard.task("ts_laggard").expect("under quota");
            laggard_ids.insert(sp.id().0);
            let mut r = sp.read(&gate);
            sp.submit(move || {
                std::hint::black_box(*r.get());
            });
        }
        let laggard = laggard.with_deadline(std::time::Duration::ZERO);
        release.store(true, Ordering::Release);
        hog.wait().expect("admitted hog work completes");
        let secs = t0.elapsed().as_secs_f64();

        // --- Audits, outside the clock.
        let tries = HOG_TRIES_PER_ROUND * rounds as u64;
        assert_eq!(
            hog_admitted,
            (QUOTA - 1) as u64,
            "the blocker pins the quota: exactly quota-1 dependents admitted"
        );
        assert_eq!(hog_shed, tries - hog_admitted, "every further try shed");
        assert_eq!(hog_runs.load(Ordering::Relaxed), hog_admitted);
        let err = laggard.wait().expect_err("the elapsed deadline fired");
        assert!(err.failed.is_empty(), "nothing panicked");
        let cancelled: std::collections::BTreeSet<u64> =
            err.cancelled.iter().map(|c| c.id.0).collect();
        assert_eq!(cancelled, laggard_ids, "exact laggard cancelled set");

        let st = rt.stats();
        assert_eq!(st.admission_sheds, hog_shed, "runtime counter agrees");
        assert_eq!(st.cancelled, LAGGARD_TASKS as u64);
        assert_eq!(st.deadline_fires, 1, "one observer consumed the expiry");

        let mut extra = vec![
            ("solo_p50_us".into(), solo_p50),
            ("solo_p99_us".into(), solo_p99),
            ("hog_admitted".into(), hog_admitted as f64),
            ("hog_sheds".into(), hog_shed as f64),
            ("laggard_cancelled".into(), LAGGARD_TASKS as f64),
        ];
        let mut worst_ratio = 0.0f64;
        for (k, lat) in lat.iter().enumerate() {
            let v = sorted_lat(lat);
            let (p50, p99) = (pct_us(&v, 0.50), pct_us(&v, 0.99));
            worst_ratio = worst_ratio.max(p99 / solo_p99);
            extra.push((format!("polite_p50_us_s{}", k + 1), p50));
            extra.push((format!("polite_p99_us_s{}", k + 1), p99));
        }
        extra.push(("polite_p99_worst_ratio".into(), worst_ratio));
        // The overload-isolation gate. Only asserted at committed-run
        // sample sizes: with a short round count the p99 is a handful
        // of samples and any host blip fails it spuriously (unit tests
        // and --quick runs still emit the ratio for inspection).
        if rounds >= 512 {
            assert!(
                worst_ratio <= 2.0,
                "polite p99 within 2x of solo p99 under the hog, got {:.2}x",
                worst_ratio
            );
        }

        if best.as_ref().is_none_or(|b| secs < b.0) {
            best = Some((secs, st.tasks_executed, st, extra));
        }
    }
    let (secs, executed, counters, extra) = best.unwrap();
    WorkloadResult {
        name: format!("tenant_storm/t{}", threads),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra,
    }
}

/// Region stencil sweep (BENCH_0005): `steps` Jacobi waves over an
/// `n x n` grid in horizontal bands (the §V.A wavefront). Each band of
/// step `s+1` overlaps three writers of step `s`, so almost every task
/// is completion-released: the own-list and hand-off path of the §III
/// order, with thieves spreading each wave.
#[inline(never)]
pub fn stencil_sweep(threads: usize, n: usize, steps: usize, reps: usize) -> WorkloadResult {
    let (secs, executed, counters) = best_of(reps, || {
        let rt = Runtime::builder().threads(threads).build();
        let grid = vec![1.0f32; n * n];
        let t0 = Instant::now();
        let out = stencil::jacobi(&rt, grid, n, steps, 2);
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(&out);
        let st = rt.stats();
        (secs, st.tasks_executed, st)
    });
    WorkloadResult {
        name: format!("stencil_sweep/n{}s{}/t{}", n, steps, threads),
        threads,
        tasks: executed,
        secs,
        tasks_per_sec: executed as f64 / secs,
        counters,
        extra: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Suite assembly and emission
// ---------------------------------------------------------------------

/// Thread counts the storm sweeps (full mode).
pub const STORM_THREADS: &[usize] = &[1, 2, 4, 8];

/// The suite plan: stable workload keys, in run order. The keys double
/// as the `--workload` selector for process-isolated runs.
pub fn suite_plan(quick: bool) -> Vec<String> {
    let storm_threads: &[usize] = if quick { &[1, 8] } else { STORM_THREADS };
    let mut plan = Vec::new();
    for &t in storm_threads {
        for policy in [SchedulerPolicy::Smpss, SchedulerPolicy::CentralQueue] {
            plan.push(format!("task_storm/t{}/{}", t, policy_key(policy)));
        }
    }
    for &t in if quick { &[8usize] as &[usize] } else { &[1usize, 8] as &[usize] } {
        plan.push(format!("task_chain/t{}", t));
    }
    plan.push("spawn_storm/t1".into());
    plan.push("rename_storm/t1".into());
    plan.push("rename_churn/t4".into());
    plan.push("region_storm/t1".into());
    plan.push("fanout_storm/t8".into());
    plan.push("chain_storm/t8".into());
    plan.push("locality_storm/t8".into());
    plan.push("submit_storm/t8".into());
    plan.push("panic_storm/t8".into());
    plan.push("tenant_storm/t8".into());
    if quick {
        plan.push("stencil_sweep/n34s20/t8".into());
        plan.push("cholesky_hyper/n6/t8".into());
        plan.push("multisort/n20000/t8".into());
        plan.push("nqueens/n7l2/t8".into());
    } else {
        plan.push("stencil_sweep/n66s60/t8".into());
        plan.push("cholesky_hyper/n14/t8".into());
        plan.push("strassen/n4/t8".into());
        plan.push("multisort/n120000/t8".into());
        plan.push("nqueens/n9l3/t8".into());
    }
    plan
}

/// Run one workload of the plan by its stable key, after the process
/// warm-up. Returns `None` for an unknown key.
///
/// Workloads are meant to run **one per process** (`perfsuite` spawns
/// itself once per plan entry): the fine-grain storms are sensitive to
/// the process's early heap layout — a few stray allocations before the
/// measurement shift where the runtime's pools land and move the
/// numbers by tens of percent on the CI-class host — so each workload
/// gets a fresh, identically-shaped process. The warm-up then pays the
/// allocator-arena and core-ramp cost before the clock starts.
pub fn run_one(name: &str, quick: bool) -> Option<WorkloadResult> {
    let (storm_tasks, chain_tasks, reps) = if quick { (3_000, 1_500, 1) } else { (30_000, 10_000, 7) };
    // Discarded warm-up (see above).
    let _ = task_storm(1, SchedulerPolicy::Smpss, storm_tasks, 3);
    let mut parts = name.split('/');
    let kind = parts.next()?;
    let result = match kind {
        "task_storm" => {
            let t: usize = parts.next()?.strip_prefix('t')?.parse().ok()?;
            let policy = match parts.next()? {
                "smpss" => SchedulerPolicy::Smpss,
                "central" => SchedulerPolicy::CentralQueue,
                _ => return None,
            };
            task_storm(t, policy, storm_tasks, reps)
        }
        "task_chain" => {
            let t: usize = parts.next()?.strip_prefix('t')?.parse().ok()?;
            task_chain(t, chain_tasks, reps)
        }
        "spawn_storm" => spawn_storm(storm_tasks, reps),
        "rename_storm" => rename_storm(storm_tasks, reps),
        "rename_churn" => {
            let t: usize = parts.next()?.strip_prefix('t')?.parse().ok()?;
            rename_churn(t, storm_tasks, reps.min(3))
        }
        "region_storm" => region_storm(if quick { 2_048 } else { 16_384 }, reps.min(3)),
        "fanout_storm" => fanout_storm(8, storm_tasks, reps),
        "chain_storm" => chain_storm(8, storm_tasks, reps),
        "locality_storm" => locality_storm(8, storm_tasks, reps),
        "submit_storm" => {
            let t: usize = parts.next()?.strip_prefix('t')?.parse().ok()?;
            submit_storm(t, storm_tasks, reps)
        }
        "panic_storm" => {
            let t: usize = parts.next()?.strip_prefix('t')?.parse().ok()?;
            panic_storm(t, storm_tasks, reps)
        }
        "tenant_storm" => {
            let t: usize = parts.next()?.strip_prefix('t')?.parse().ok()?;
            tenant_storm(t, storm_tasks, reps.min(3))
        }
        "stencil_sweep" => {
            let spec = parts.next()?.strip_prefix('n')?;
            let (n, steps) = spec.split_once('s')?;
            stencil_sweep(8, n.parse().ok()?, steps.parse().ok()?, reps.min(3))
        }
        "cholesky_hyper" => {
            let n: usize = parts.next()?.strip_prefix('n')?.parse().ok()?;
            app_cholesky(8, n, if quick { 1 } else { 2 })
        }
        "strassen" => {
            let n: usize = parts.next()?.strip_prefix('n')?.parse().ok()?;
            app_strassen(8, n, 2)
        }
        "multisort" => {
            let n: usize = parts.next()?.strip_prefix('n')?.parse().ok()?;
            app_multisort(8, n, if quick { 1 } else { 2 })
        }
        "nqueens" => {
            if quick {
                app_nqueens(8, 7, 2, 1)
            } else {
                app_nqueens(8, 9, 3, 2)
            }
        }
        _ => return None,
    };
    Some(result)
}

/// Run the whole suite **in this process** (unit tests, and the
/// fallback when self-spawning is unavailable). The committed
/// trajectory point uses the process-isolated path in `perfsuite`
/// instead; see [`run_one`].
pub fn run_suite(quick: bool) -> Vec<WorkloadResult> {
    suite_plan(quick)
        .iter()
        .map(|name| {
            eprintln!("  {}", name);
            run_one(name, quick).expect("plan key must resolve")
        })
        .collect()
}

/// One workload entry of the trajectory document; also the line format
/// a `--workload` child prints for its parent.
pub fn workload_json(r: &WorkloadResult) -> JsonValue {
    let mut fields = vec![
        ("name".into(), JsonValue::Str(r.name.clone())),
        ("threads".into(), JsonValue::Num(r.threads as f64)),
        ("tasks".into(), JsonValue::Num(r.tasks as f64)),
        ("secs".into(), JsonValue::Num(r.secs)),
        ("tasks_per_sec".into(), JsonValue::Num(r.tasks_per_sec)),
        ("counters".into(), counters_json(&r.counters)),
    ];
    if !r.extra.is_empty() {
        fields.push((
            "extra".into(),
            JsonValue::Obj(
                r.extra
                    .iter()
                    .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                    .collect(),
            ),
        ));
    }
    if let Some(base) = baseline_rate(&r.name) {
        fields.push((
            "speedup_vs_baseline".into(),
            JsonValue::Num(r.tasks_per_sec / base),
        ));
    }
    JsonValue::Obj(fields)
}

/// Parse a [`workload_json`] document back (the parent side of the
/// process-isolated runner). Counters not serialised in the document
/// stay zero.
pub fn parse_workload(doc: &JsonValue) -> Result<WorkloadResult, String> {
    let name = doc
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or("workload missing name")?
        .to_string();
    let num = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("workload {:?} missing {:?}", name, key))
    };
    let counters = doc.get("counters").ok_or("missing counters")?;
    let cnum = |key: &str| {
        counters
            .get(key)
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0) as u64
    };
    let extra = match doc.get("extra") {
        Some(JsonValue::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(WorkloadResult {
        extra,
        threads: num("threads")? as usize,
        tasks: num("tasks")? as u64,
        secs: num("secs")?,
        tasks_per_sec: num("tasks_per_sec")?,
        counters: StatsSnapshot {
            tasks_spawned: cnum("tasks_spawned"),
            tasks_executed: cnum("tasks_executed"),
            true_edges: cnum("true_edges"),
            renames: cnum("renames"),
            own_pops: cnum("own_pops"),
            main_pops: cnum("main_pops"),
            hp_pops: cnum("hp_pops"),
            steals: cnum("steals"),
            handoffs: cnum("handoffs"),
            ..Default::default()
        },
        name,
    })
}

fn counters_json(c: &StatsSnapshot) -> JsonValue {
    JsonValue::Obj(vec![
        ("tasks_spawned".into(), JsonValue::Num(c.tasks_spawned as f64)),
        ("tasks_executed".into(), JsonValue::Num(c.tasks_executed as f64)),
        ("true_edges".into(), JsonValue::Num(c.true_edges as f64)),
        ("renames".into(), JsonValue::Num(c.renames as f64)),
        ("own_pops".into(), JsonValue::Num(c.source_pops(TaskSource::OwnList) as f64)),
        ("main_pops".into(), JsonValue::Num(c.source_pops(TaskSource::MainList) as f64)),
        ("hp_pops".into(), JsonValue::Num(c.source_pops(TaskSource::HighPriority) as f64)),
        ("steals".into(), JsonValue::Num(c.source_pops(TaskSource::Stolen { victim: 0 }) as f64)),
        ("handoffs".into(), JsonValue::Num(c.handoffs as f64)),
    ])
}

/// The speedup field the acceptance gate reads: current tasks/sec over
/// the frozen baseline for the same workload key, if recorded.
pub fn baseline_rate(name: &str) -> Option<f64> {
    perf_baseline::BASELINE
        .iter()
        .find(|(k, _)| *k == name)
        .map(|(_, rate)| *rate)
}

/// Assemble the whole trajectory document. `isolated` records whether
/// every workload ran in its own child process (the measurement-hygiene
/// mode); from BENCH_0006 on, [`validate`] rejects documents that were
/// not — an in-process run shares one heap layout across all workloads
/// and biases the fine-grain storms, so it must never become a
/// committed trajectory point.
pub fn suite_json(results: &[WorkloadResult], quick: bool, isolated: bool) -> JsonValue {
    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let host = JsonValue::Obj(vec![
        ("os".into(), JsonValue::Str(std::env::consts::OS.into())),
        ("arch".into(), JsonValue::Str(std::env::consts::ARCH.into())),
        (
            "cpus".into(),
            JsonValue::Num(
                std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
            ),
        ),
    ]);
    let workloads = JsonValue::Arr(results.iter().map(workload_json).collect());
    let baseline = JsonValue::Obj(vec![
        ("id".into(), JsonValue::Str(perf_baseline::BASELINE_ID.into())),
        ("host".into(), JsonValue::Str(perf_baseline::BASELINE_HOST.into())),
        (
            "workloads".into(),
            JsonValue::Arr(
                perf_baseline::BASELINE
                    .iter()
                    .map(|(name, rate)| {
                        JsonValue::Obj(vec![
                            ("name".into(), JsonValue::Str((*name).into())),
                            ("tasks_per_sec".into(), JsonValue::Num(*rate)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    JsonValue::Obj(vec![
        ("schema".into(), JsonValue::Str(SCHEMA.into())),
        ("bench_id".into(), JsonValue::Str(BENCH_ID.into())),
        ("created_unix".into(), JsonValue::Num(created as f64)),
        ("quick".into(), JsonValue::Bool(quick)),
        ("isolated".into(), JsonValue::Bool(isolated)),
        ("host".into(), host),
        ("workloads".into(), workloads),
        ("baseline".into(), baseline),
    ])
}

/// Structural validation of an emitted trajectory file — what
/// `perfsuite --check` (and the CI job) runs, so a broken harness fails
/// the build instead of rotting.
pub fn validate(doc: &JsonValue) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != SCHEMA {
        return Err(format!("schema {:?}, expected {:?}", schema, SCHEMA));
    }
    let id = doc
        .get("bench_id")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"bench_id\"")?;
    if !id.starts_with("BENCH_") || id.len() != 10 || !id[6..].bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("bench_id {:?} does not match BENCH_NNNN", id));
    }
    // From BENCH_0006 on, only process-isolated runs are committable:
    // an in-process suite shares one heap layout across workloads and
    // biases the fine-grain storms (string compare is sound — the id is
    // fixed-width zero-padded). Earlier files are grandfathered.
    if id >= "BENCH_0006" && doc.get("isolated") != Some(&JsonValue::Bool(true)) {
        return Err(format!(
            "{}: committed trajectories must come from process-isolated \
             runs (\"isolated\": true); re-run perfsuite without --in-process",
            id
        ));
    }
    let host = doc.get("host").ok_or("missing \"host\"")?;
    if host.get("cpus").and_then(JsonValue::as_f64).unwrap_or(0.0) < 1.0 {
        return Err("host.cpus must be >= 1".into());
    }
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .ok_or("missing \"workloads\" array")?;
    if workloads.is_empty() {
        return Err("workloads array is empty".into());
    }
    for w in workloads {
        let name = w
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("workload missing \"name\"")?;
        for key in ["threads", "tasks", "secs", "tasks_per_sec"] {
            let v = w
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("workload {:?} missing numeric {:?}", name, key))?;
            if v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(format!("workload {:?}: {:?} must be positive", name, key));
            }
        }
        let counters = w
            .get("counters")
            .ok_or_else(|| format!("workload {:?} missing counters", name))?;
        for key in ["tasks_executed", "own_pops", "main_pops", "hp_pops", "steals"] {
            counters
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("workload {:?} counters missing {:?}", name, key))?;
        }
    }
    let baseline = doc.get("baseline").ok_or("missing \"baseline\"")?;
    baseline
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .ok_or("baseline missing \"workloads\" array")?;
    Ok(())
}

/// Render the `perf_baseline.rs` source for the current results —
/// how the frozen baseline in this repo was captured (run the suite on
/// the old scheduler, pipe `--emit-baseline` into the file, swap shims).
pub fn emit_baseline_source(results: &[WorkloadResult], id: &str) -> String {
    let mut out = String::new();
    out.push_str(
        "//! Frozen perf baseline embedded into every emitted `BENCH_*.json`.\n\
         //!\n\
         //! Generated by `perfsuite --emit-baseline` on the scheduler this\n\
         //! trajectory point compares against; do not edit by hand.\n\n",
    );
    out.push_str(&format!("pub const BASELINE_ID: &str = {:?};\n\n", id));
    out.push_str(&format!(
        "pub const BASELINE_HOST: &str = \"{}/{} {} cpu\";\n\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));
    out.push_str("/// `(workload key, tasks per second)`.\n");
    out.push_str("pub const BASELINE: &[(&str, f64)] = &[\n");
    for r in results {
        out.push_str(&format!("    ({:?}, {:.1}),\n", r.name, r.tasks_per_sec));
    }
    out.push_str("];\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let doc = JsonValue::Obj(vec![
            ("s".into(), JsonValue::Str("a\"b\\c\nd".into())),
            ("n".into(), JsonValue::Num(1234.5)),
            ("i".into(), JsonValue::Num(77.0)),
            ("b".into(), JsonValue::Bool(true)),
            ("z".into(), JsonValue::Null),
            (
                "a".into(),
                JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Str("x".into())]),
            ),
            ("e".into(), JsonValue::Obj(vec![])),
        ]);
        let text = doc.render();
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1, 2,]").is_err());
        assert!(JsonValue::parse("{}extra").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn quick_suite_emits_valid_document() {
        // The real CI gate runs the binary; this keeps the property
        // testable in-process with tiny sizes.
        let results = vec![
            task_storm(2, SchedulerPolicy::Smpss, 200, 1),
            task_chain(1, 100, 1),
        ];
        let doc = suite_json(&results, true, true);
        validate(&doc).unwrap();
        let text = doc.render();
        let back = JsonValue::parse(&text).unwrap();
        validate(&back).unwrap();
    }

    /// The BENCH_0006 measurement-bias guard: an in-process run
    /// (`isolated: false` — or a file predating the field) must never
    /// validate as a committable trajectory point.
    #[test]
    fn validate_rejects_unisolated_documents() {
        let results = vec![task_chain(1, 50, 1)];
        let doc = suite_json(&results, true, false);
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("process-isolated"), "got: {}", err);
        // A document missing the field entirely (hand-rolled) fails too.
        let mut doc = suite_json(&results, true, true);
        if let JsonValue::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "isolated");
        }
        assert!(validate(&doc).is_err());
    }

    /// Funnel and sharded submit storms execute every task exactly once
    /// and agree on the task count — the shape the BENCH_0006 gate
    /// compares must be identical in everything but the submission path.
    /// (400 storm tasks + the 4 per-producer hold tasks that pin bodies
    /// outside the measured submission span.)
    #[test]
    fn submit_storm_modes_agree_on_structure() {
        let sharded = submit_storm_cfg(2, 400, 1, true);
        let funnel = submit_storm_cfg(2, 400, 1, false);
        assert_eq!(sharded.tasks, 404);
        assert_eq!(funnel.tasks, 404);
        assert_eq!(sharded.counters.total_pops(), 404);
        assert_eq!(funnel.counters.total_pops(), 404);
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let results = vec![task_chain(1, 50, 1)];
        let mut doc = suite_json(&results, true, true);
        if let JsonValue::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "schema" {
                    *v = JsonValue::Str("bogus/9".into());
                }
            }
        }
        assert!(validate(&doc).is_err());
        assert!(validate(&JsonValue::Obj(vec![])).is_err());
    }

    /// The workload itself asserts the exact failed/cancelled sets and
    /// panics if containment breaks; this pins the structural counts at
    /// a size the unit-test budget can afford (400 tasks = 200 chains,
    /// every 8th head panicking → 25 panics, 25 cancelled tails).
    #[test]
    fn panic_storm_survives_and_counts_at_small_scale() {
        let r = panic_storm(2, 400, 1);
        assert_eq!(r.tasks, 400, "executed + cancelled pops");
        assert_eq!(r.counters.panics, 25);
        assert_eq!(r.counters.cancelled, 25);
    }

    /// The workload itself audits the exact hog admitted/shed split and
    /// the laggard's cancelled set (the 2x latency gate only engages at
    /// committed-run sample sizes); this pins the small-scale structure
    /// and the `extra` JSON round-trip.
    #[test]
    fn tenant_storm_sheds_and_audits_at_small_scale() {
        let r = tenant_storm(3, 256, 1);
        let get = |k: &str| {
            r.extra
                .iter()
                .find(|(n, _)| n == k)
                .unwrap_or_else(|| panic!("missing extra {:?}", k))
                .1
        };
        assert_eq!(get("hog_admitted") as u64, 63, "quota - 1 dependents");
        assert!(get("hog_sheds") > 0.0);
        assert_eq!(get("laggard_cancelled") as u64, 4);
        assert!(get("solo_p99_us") > 0.0 && get("polite_p99_us_s8") > 0.0);
        let doc = workload_json(&r);
        let back = parse_workload(&doc).unwrap();
        assert_eq!(back.extra, r.extra, "extra survives the child hop");
        validate(&suite_json(&[r], true, true)).unwrap();
    }

    #[test]
    fn storm_counts_every_task_exactly_once() {
        let r = task_storm(4, SchedulerPolicy::Smpss, 500, 1);
        assert_eq!(r.tasks, 500);
        assert_eq!(r.counters.total_pops(), 500);
    }
}
