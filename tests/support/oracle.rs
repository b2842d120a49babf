//! The shared sequential oracle (§II: a task program computes what its
//! sequential reading computes). Every suite that checks the contract
//! draws its programs here, spawns them with [`drive!`] or [`run`] and
//! checks what they left with [`check`].
//!
//! A program is a straight line of tasks over [`CELLS`] `i64` cells and
//! one `ROWS` × `COLS` row-major region buffer (§V.A): cell reads,
//! writes and `inout`s, and 1-D (row band) and 2-D (tile) region reads,
//! writes and `inout`s, so producer chains, fan-outs, renames and
//! overlapping region conflicts all occur. One task in eight is
//! `high_priority()`, and [`faulty_program`] makes one in eight panic.
//! [`config`] draws one runtime configuration per case. [`check`]
//! compares:
//!
//! - every value no failed or cancelled task tainted with the
//!   sequential interpreter's ([`interpret`]);
//! - the failed and cancelled sets with the program's dependences
//!   ([`deps`]): exact under `CancelDependents` and `Isolate`, closed
//!   under dependence under `FailFast`. Each task ran, failed or was
//!   cancelled once, and each failure names the session that spawned
//!   it;
//! - the recorded graph: node `i` is task `i + 1` with its task's name
//!   and priority, every edge joins an earlier task to a later one
//!   with the conflict its kind names (true ones only for renamed
//!   cells), and every dependence is reachable.
//!
//! Suites include this file with `#[macro_use] #[path = ...] mod
//! oracle;`, so not every suite uses every item.
#![allow(dead_code)]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use smpss::graph::record::{EdgeKind, GraphRecord};
use smpss::{Handle, OnPanic, Region, RegionHandle, Runtime, RuntimeBuilder, SessionId, TaskId};

/// Cells a program works on. Even cells are created with `data` (their
/// spare versions return to that object only), odd ones with
/// `data_sized` (spares cross objects through the slab's size class).
pub const CELLS: usize = 6;
/// The region buffer's shape.
pub const ROWS: usize = 16;
pub const COLS: usize = 8;

/// A region of the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// Rows `r0..=r1`, declared as a 1-D region: its one bound is the
    /// row dimension, so it holds every column.
    Rows(usize, usize),
    /// Rows `r0..=r1` × columns `c0..=c1`, declared as a 2-D region.
    Tile(usize, usize, usize, usize),
}

impl Span {
    fn bounds(self) -> (usize, usize, usize, usize) {
        match self {
            Span::Rows(r0, r1) => (r0, r1, 0, COLS - 1),
            Span::Tile(r0, r1, c0, c1) => (r0, r1, c0, c1),
        }
    }

    pub fn region(self) -> Region {
        match self {
            Span::Rows(r0, r1) => Region::d1(r0..=r1),
            Span::Tile(r0, r1, c0, c1) => Region::d2(r0..=r1, c0..=c1),
        }
    }

    /// Each row of the span with its first and last column.
    pub fn rows(self) -> impl Iterator<Item = (usize, usize, usize)> {
        let (r0, r1, c0, c1) = self.bounds();
        (r0..=r1).map(move |r| (r, c0, c1))
    }

    /// The flat indices of the span's elements, row by row.
    fn elems(self) -> impl Iterator<Item = usize> {
        self.rows()
            .flat_map(|(r, c0, c1)| (c0..=c1).map(move |c| r * COLS + c))
    }

    /// Do the spans share an element: overlap in every dimension.
    fn overlaps(self, other: Span) -> bool {
        let ((a0, a1, b0, b1), (c0, c1, d0, d1)) = (self.bounds(), other.bounds());
        a0 <= c1 && c0 <= a1 && b0 <= d1 && d0 <= b1
    }
}

/// What a task computes. Its reads come before its writes.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// `cells[dst] = cells[a] + cells[b]`.
    Add { a: usize, b: usize, dst: usize },
    /// `cells[dst] += cells[a]` (`dst` is `inout`).
    Acc { a: usize, dst: usize },
    /// Reads `cells[a]`: fan-out readers.
    Fan { a: usize },
    /// `cells[dst] = 3 * cells[dst] + 1` (`inout`).
    Mut { dst: usize },
    /// `cells[dst] = k`.
    Set { dst: usize, k: i64 },
    /// Every element of `at` becomes `cells[src]`.
    Fill { src: usize, at: Span },
    /// `cells[dst]` becomes the sum of `at`.
    Sum { dst: usize, at: Span },
    /// Every element `e` of `at` becomes `3 * e + 1` (`inout`).
    Scale { at: Span },
}

impl Kind {
    /// What the task writes, in access order, from what it reads, in
    /// access order: the op's meaning, for the tasks and the
    /// interpreter alike.
    pub fn eval(self, ins: &[i64]) -> Vec<i64> {
        let bump = |x: &i64| x.wrapping_mul(3).wrapping_add(1);
        match self {
            Kind::Add { .. } | Kind::Acc { .. } => vec![ins[0].wrapping_add(ins[1])],
            Kind::Fan { .. } => vec![],
            Kind::Mut { .. } | Kind::Scale { .. } => ins.iter().map(bump).collect(),
            Kind::Set { k, .. } => vec![k],
            Kind::Fill { at, .. } => vec![ins[0]; at.elems().count()],
            Kind::Sum { .. } => vec![ins.iter().fold(0, |s, &x| s.wrapping_add(x))],
        }
    }
}

/// One task of a program.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: Kind,
    /// Spawned `high_priority()`.
    pub high: bool,
    /// The body panics before it writes anything.
    pub panics: bool,
}

impl From<Kind> for Op {
    fn from(kind: Kind) -> Op {
        Op {
            kind,
            high: false,
            panics: false,
        }
    }
}

/// How a task touches a cell or the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Read,
    Write,
    InOut,
}

impl Mode {
    fn reads(self) -> bool {
        self != Mode::Write
    }

    fn writes(self) -> bool {
        self != Mode::Read
    }
}

/// What an access touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    Cell(usize),
    Buf(Span),
}

impl Target {
    fn meets(self, other: Target) -> bool {
        match (self, other) {
            (Target::Cell(a), Target::Cell(b)) => a == b,
            (Target::Buf(a), Target::Buf(b)) => a.overlaps(b),
            _ => false,
        }
    }

    /// The target's places in [`interpret`]'s layout.
    fn places(self) -> Vec<usize> {
        match self {
            Target::Cell(c) => vec![c],
            Target::Buf(s) => s.elems().map(|e| CELLS + e).collect(),
        }
    }
}

impl Op {
    /// The task name the op spawns under.
    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::Add { .. } => "add",
            Kind::Acc { .. } => "acc",
            Kind::Fan { .. } => "fan",
            Kind::Mut { .. } => "mut",
            Kind::Set { .. } => "set",
            Kind::Fill { .. } => "fill",
            Kind::Sum { .. } => "sum",
            Kind::Scale { .. } => "scale",
        }
    }

    /// The op's parameter accesses, in declaration order.
    pub fn accesses(&self) -> Vec<(Target, Mode)> {
        use {Mode::*, Target::*};
        match self.kind {
            Kind::Add { a, b, dst } => vec![(Cell(a), Read), (Cell(b), Read), (Cell(dst), Write)],
            Kind::Acc { a, dst } => vec![(Cell(a), Read), (Cell(dst), InOut)],
            Kind::Fan { a } => vec![(Cell(a), Read)],
            Kind::Mut { dst } => vec![(Cell(dst), InOut)],
            Kind::Set { dst, .. } => vec![(Cell(dst), Write)],
            Kind::Fill { src, at } => vec![(Cell(src), Read), (Buf(at), Write)],
            Kind::Sum { dst, at } => vec![(Buf(at), Read), (Cell(dst), Write)],
            Kind::Scale { at } => vec![(Buf(at), InOut)],
        }
    }
}

/// A band of up to four rows, a tile of up to four by four (twice as
/// likely), or the whole buffer, whose accesses meet enough producers
/// to go through a shared join.
fn span() -> impl Strategy<Value = Span> {
    let end = |lo: usize, n: usize, max: usize| (lo + n).min(max - 1);
    let tile = move |(r, n, c, m)| Span::Tile(r, end(r, n, ROWS), c, end(c, m, COLS));
    prop_oneof![
        (0..ROWS, 0..4usize).prop_map(move |(r, n)| Span::Rows(r, end(r, n, ROWS))),
        (0..ROWS, 0..4usize, 0..COLS, 0..4usize).prop_map(tile),
        (0..ROWS, 0..4usize, 0..COLS, 0..4usize).prop_map(tile),
        Just(Span::Rows(0, ROWS - 1)),
    ]
}

/// One random op kind.
fn kind_strategy() -> impl Strategy<Value = Kind> {
    let cell = || 0..CELLS;
    prop_oneof![
        (cell(), cell(), cell()).prop_map(|(a, b, dst)| Kind::Add { a, b, dst }),
        (cell(), cell()).prop_map(|(a, dst)| Kind::Acc { a, dst }),
        cell().prop_map(|a| Kind::Fan { a }),
        cell().prop_map(|dst| Kind::Mut { dst }),
        (cell(), -100i64..100).prop_map(|(dst, k)| Kind::Set { dst, k }),
        (cell(), span()).prop_map(|(src, at)| Kind::Fill { src, at }),
        (cell(), span()).prop_map(|(dst, at)| Kind::Sum { dst, at }),
        span().prop_map(|at| Kind::Scale { at }),
    ]
}

/// A random program, one task in eight high priority and, when
/// `panicking`, one in eight panicking.
fn ops_strategy(len: std::ops::Range<usize>, panicking: bool) -> impl Strategy<Value = Vec<Op>> {
    let op = (kind_strategy(), 0..8u8, 0..8u8).prop_map(move |(kind, h, p)| Op {
        kind,
        high: h == 0,
        panics: panicking && p == 0,
    });
    prop::collection::vec(op, len)
}

/// A random program of `len` ops that never panics.
pub fn program(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    ops_strategy(len, false)
}

/// [`program`] with one task in eight panicking.
pub fn faulty_program(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    ops_strategy(len, true)
}

/// A fixed program of `len` ops, the same on every run.
pub fn fixed_program(len: usize) -> Vec<Op> {
    let mut rng = proptest::test_runner::TestRng::for_case("oracle::fixed_program", 0);
    program(len..len + 1).generate(&mut rng)
}

/// The values a program starts from: the cells, then the buffer's
/// elements.
pub fn initial() -> Vec<i64> {
    let buf = (0..(ROWS * COLS) as i64).map(|e| 7 * e - 100);
    (0..CELLS as i64).chain(buf).collect()
}

/// The sequential interpreter. Tasks in `skipped` (failed or
/// cancelled) do not run: what they would have written is tainted, and
/// so is whatever a later task computes from a tainted value. Returns
/// the final values, laid out as [`initial`], and their taint.
pub fn interpret(ops: &[Op], skipped: &BTreeSet<usize>) -> (Vec<i64>, Vec<bool>) {
    let (mut v, mut t) = (initial(), vec![false; CELLS + ROWS * COLS]);
    for (i, op) in ops.iter().enumerate() {
        let places = |f: fn(Mode) -> bool| -> Vec<usize> {
            let acc = op.accesses().into_iter().filter(|a| f(a.1));
            acc.flat_map(|(target, _)| target.places()).collect()
        };
        let (ins, outs) = (places(Mode::reads), places(Mode::writes));
        let vals = op.kind.eval(&ins.iter().map(|&p| v[p]).collect::<Vec<_>>());
        let taint = skipped.contains(&i) || ins.iter().any(|&p| t[p]);
        for (p, x) in outs.into_iter().zip(vals) {
            if !skipped.contains(&i) {
                v[p] = x;
            }
            t[p] = taint;
        }
    }
    (v, t)
}

/// The final values of a program that fails nowhere.
pub fn sequential(ops: &[Op]) -> Vec<i64> {
    interpret(ops, &BTreeSet::new()).0
}

/// Each task's direct dependences: the earlier tasks it must wait for.
/// With renaming on, a cell read waits for the cell's last writer
/// alone, and a cell write for nobody. Otherwise — cells with renaming
/// off, and regions, which never rename — an access waits for every
/// earlier access it overlaps and conflicts with.
pub fn deps(ops: &[Op], renaming: bool) -> Vec<BTreeSet<usize>> {
    let acc: Vec<_> = ops.iter().map(Op::accesses).collect();
    let mut deps = vec![BTreeSet::new(); ops.len()];
    for (j, d) in deps.iter_mut().enumerate() {
        for &(tj, mj) in &acc[j] {
            let renamed = renaming && matches!(tj, Target::Cell(_));
            for i in (0..j).rev() {
                let hit =
                    |f: fn(Mode) -> bool| acc[i].iter().any(|&(ti, mi)| ti.meets(tj) && f(mi));
                let writer = hit(Mode::writes);
                if writer && (!renamed || mj.reads()) || !renamed && mj.writes() && hit(|_| true) {
                    d.insert(i);
                }
                if renamed && writer {
                    break;
                }
            }
        }
    }
    deps
}

/// A program's objects on one runtime.
pub struct Data {
    pub cells: Vec<Handle<i64>>,
    pub buf: RegionHandle<Vec<i64>>,
}

impl Data {
    /// The cells and the buffer, at their [`initial`] values.
    pub fn new(rt: &Runtime) -> Data {
        let init = initial();
        let cell = |(i, &v): (usize, &i64)| match i % 2 {
            0 => rt.data(v),
            _ => rt.data_sized(v, std::mem::size_of::<i64>(), || 0i64),
        };
        Data {
            cells: init[..CELLS].iter().enumerate().map(cell).collect(),
            buf: rt.region_data(init[CELLS..].to_vec()),
        }
    }

    /// Every value, laid out as [`initial`].
    pub fn values(&self, rt: &Runtime) -> Vec<i64> {
        let mut v: Vec<i64> = self.cells.iter().map(|h| rt.read(h)).collect();
        rt.with_region(&self.buf, |b| v.extend_from_slice(b));
        v
    }
}

/// The payload of an injected panic.
pub const INJECTED: &str = "oracle: injected panic";

/// A task body's first step: count the run, then panic if the op does.
pub fn enter(runs: &[AtomicU32], i: usize, panics: bool) {
    runs[i].fetch_add(1, Ordering::Relaxed);
    if panics {
        panic!("{}", INJECTED);
    }
}

/// Keep injected panics out of the test output; every other panic
/// reaches the default hook.
pub fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<String>().map(String::as_str) != Some(INJECTED) {
                prev(info);
            }
        }));
    });
}

/// What [`drive!`] spawned: each op's task id, and how often each body
/// started.
pub struct Spawned {
    pub ids: Vec<TaskId>,
    pub runs: Arc<Vec<AtomicU32>>,
}

/// Spawn `$ops` over `$data` (a [`Data`]) through a spawner source:
/// `$spawn` is a closure from a task name to a ready `TaskSpawner`, so
/// one body serves the runtime and a session (their spawner types
/// differ). Evaluates to a [`Spawned`]. Include this file
/// with `#[macro_use]` to use it.
macro_rules! drive {
    ($ops:expr, $data:expr, $spawn:expr) => {{
        use $crate::oracle::{Kind, COLS};
        let (ops, data): (&[$crate::oracle::Op], &$crate::oracle::Data) = (&$ops[..], &$data);
        let (cells, buf) = (&data.cells, &data.buf);
        let runs: std::sync::Arc<Vec<std::sync::atomic::AtomicU32>> =
            std::sync::Arc::new(ops.iter().map(|_| Default::default()).collect());
        let mut ids = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let mut sp = $spawn(op.name());
            if op.high {
                sp.high_priority();
            }
            ids.push(sp.id());
            let (runs, panics) = (std::sync::Arc::clone(&runs), op.panics);
            let enter = move || $crate::oracle::enter(&runs, i, panics);
            let bump = |x: &mut i64| *x = x.wrapping_mul(3).wrapping_add(1);
            // Each body computes what `Kind::eval` says, written out per
            // kind so that the bodies stay cheap enough to run inline.
            match op.kind {
                Kind::Add { a, b, dst } => {
                    let (mut ra, mut rb) = (sp.read(&cells[a]), sp.read(&cells[b]));
                    let mut w = sp.write(&cells[dst]);
                    sp.submit(move || {
                        enter();
                        *w.get_mut() = ra.get().wrapping_add(*rb.get());
                    });
                }
                Kind::Acc { a, dst } => {
                    let (mut ra, mut w) = (sp.read(&cells[a]), sp.inout(&cells[dst]));
                    sp.submit(move || {
                        enter();
                        *w.get_mut() = w.get_mut().wrapping_add(*ra.get());
                    });
                }
                Kind::Fan { a } => {
                    let mut ra = sp.read(&cells[a]);
                    sp.submit(move || {
                        enter();
                        std::hint::black_box(*ra.get());
                    });
                }
                Kind::Mut { dst } => {
                    let mut w = sp.inout(&cells[dst]);
                    sp.submit(move || {
                        enter();
                        bump(w.get_mut());
                    });
                }
                Kind::Set { dst, k } => {
                    let mut w = sp.write(&cells[dst]);
                    sp.submit(move || {
                        enter();
                        *w.get_mut() = k;
                    });
                }
                Kind::Fill { src, at } => {
                    let mut r = sp.read(&cells[src]);
                    let mut w = sp.write_region(buf, at.region());
                    sp.submit(move || {
                        enter();
                        let x = *r.get();
                        for (row, c0, c1) in at.rows() {
                            w.row_slice_mut(COLS, row, c0, c1).fill(x);
                        }
                    });
                }
                Kind::Sum { dst, at } => {
                    let mut r = sp.read_region(buf, at.region());
                    let mut w = sp.write(&cells[dst]);
                    sp.submit(move || {
                        enter();
                        let mut sum = 0i64;
                        for (row, c0, c1) in at.rows() {
                            let row = r.row_slice(COLS, row, c0, c1);
                            sum = row.iter().fold(sum, |s, &x| s.wrapping_add(x));
                        }
                        *w.get_mut() = sum;
                    });
                }
                Kind::Scale { at } => {
                    let mut w = sp.inout_region(buf, at.region());
                    sp.submit(move || {
                        enter();
                        for (row, c0, c1) in at.rows() {
                            w.row_slice_mut(COLS, row, c0, c1).iter_mut().for_each(bump);
                        }
                    });
                }
            }
        }
        $crate::oracle::Spawned { ids, runs }
    }};
}

/// Which front door a program is spawned through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// The main thread.
    Runtime,
    /// One session on its own thread, drained by `Session::wait`.
    Session,
    /// Two sessions on their own threads at once, each spawning its own
    /// copy of the program over its own [`Data`] (their ids interleave)
    /// and drained by its own `Session::wait`.
    Sessions,
}

/// One runtime configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub threads: usize,
    pub front: Front,
    pub renaming: bool,
    /// A `memory_limit` of the program's initial data, so a live
    /// renamed version trips the §III throttle. Sessions wait for
    /// workers instead of helping, so at one thread they run without
    /// it.
    pub tight: bool,
    pub on_panic: OnPanic,
}

impl Config {
    fn builder(&self) -> RuntimeBuilder {
        let b = Runtime::builder()
            .threads(self.threads)
            .renaming(self.renaming)
            .on_panic(self.on_panic)
            .record_graph(true);
        if !self.tight || self.threads == 1 && self.front != Front::Runtime {
            return b;
        }
        b.memory_limit(copies(self.front) * CELLS * std::mem::size_of::<i64>())
    }
}

/// How many copies of the program `front` spawns.
fn copies(front: Front) -> usize {
    if front == Front::Sessions {
        2
    } else {
        1
    }
}

/// One configuration per case: threads {1, 2, 8} × front × renaming ×
/// memory limit × `OnPanic`.
pub fn config() -> impl Strategy<Value = Config> {
    let policies = [
        OnPanic::CancelDependents,
        OnPanic::Isolate,
        OnPanic::FailFast,
    ];
    let fronts = [Front::Runtime, Front::Session, Front::Sessions];
    (0..3usize, 0..3usize, 0..2usize, 0..2usize, 0..3usize).prop_map(move |(t, f, r, m, p)| {
        Config {
            threads: [1, 2, 8][t],
            front: fronts[f],
            renaming: r == 1,
            tight: m == 1,
            on_panic: policies[p],
        }
    })
}

/// One spawner's share of a run.
pub struct Part {
    pub ids: Vec<TaskId>,
    pub values: Vec<i64>,
    pub runs: Vec<u32>,
    /// The session the part was spawned under; every failure among its
    /// tasks must name it.
    pub session: SessionId,
}

/// What a run left behind.
pub struct Outcome {
    /// The first part's values.
    pub values: Vec<i64>,
    pub parts: Vec<Part>,
    /// The report of `wait_all`, or of the sessions' `Session::wait`s.
    pub failures: Result<(), smpss::TaskFailures>,
    /// The recorded graph, when the builder records one.
    pub graph: Option<GraphRecord>,
    pub stats: smpss::StatsSnapshot,
}

/// Run `ops` on a runtime built from `builder`, through `front`.
pub fn run(ops: &[Op], builder: RuntimeBuilder, front: Front) -> Outcome {
    run_on(builder.build(), ops, front)
}

/// Run `ops` under `cfg`.
pub fn run_config(ops: &[Op], cfg: &Config) -> Outcome {
    run_on(cfg.builder().build(), ops, cfg.front)
}

/// Run `ops` on `rt` through `front`, wait for every task and read
/// every value.
pub fn run_on(rt: Runtime, ops: &[Op], front: Front) -> Outcome {
    quiet_injected_panics();
    let data: Vec<Data> = (0..copies(front)).map(|_| Data::new(&rt)).collect();
    let (spawned, failures) = match front {
        Front::Runtime => (
            vec![(drive!(ops, data[0], (|n| rt.task(n))), SessionId::NONE)],
            rt.wait_all(),
        ),
        Front::Session | Front::Sessions => {
            let sessions: Vec<_> = data.iter().map(|_| rt.session()).collect();
            let spawned: Vec<_> = std::thread::scope(|scope| {
                let threads: Vec<_> = (sessions.into_iter().zip(&data))
                    .map(|(sess, d)| {
                        scope.spawn(move || {
                            let s =
                                drive!(ops, *d, (|n| sess.task(n).expect("no quota configured")));
                            (s, sess)
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("session"))
                    .collect()
            });
            // A session wait helps nobody: at one thread the barrier
            // runs the tasks first.
            if rt.threads() == 1 {
                rt.barrier();
            }
            let (mut failed, mut cancelled) = (Vec::new(), Vec::new());
            let spawned = spawned.into_iter().map(|(s, sess)| {
                if let Err(e) = sess.wait() {
                    failed.extend(e.failed);
                    cancelled.extend(e.cancelled);
                }
                (s, sess.id())
            });
            let spawned: Vec<_> = spawned.collect();
            if let Err(e) = rt.wait_all() {
                panic!("failures left outside the sessions' own reports: {e:?}");
            }
            let failures = smpss::TaskFailures { failed, cancelled };
            let none = failures.failed.is_empty() && failures.cancelled.is_empty();
            (spawned, if none { Ok(()) } else { Err(failures) })
        }
    };
    let part = |((s, session), d): ((Spawned, SessionId), &Data)| Part {
        values: d.values(&rt),
        runs: s.runs.iter().map(|r| r.load(Ordering::Relaxed)).collect(),
        ids: s.ids,
        session,
    };
    let parts: Vec<Part> = spawned.into_iter().zip(&data).map(part).collect();
    Outcome {
        values: parts[0].values.clone(),
        parts,
        failures,
        graph: rt.graph(),
        stats: rt.stats(),
    }
}

/// Check everything a run of `ops` under `renaming` and `on_panic`
/// left behind (see the module docs).
pub fn check(ops: &[Op], out: &Outcome, renaming: bool, on_panic: OnPanic) -> Result<(), String> {
    let deps = deps(ops, renaming);
    let (failed, cancelled): (Vec<_>, Vec<_>) = match &out.failures {
        Ok(()) => Default::default(),
        Err(e) => (
            e.failed.iter().map(|f| (f.id, f.session)).collect(),
            e.cancelled.iter().map(|c| (c.id, c.session)).collect(),
        ),
    };
    let spawner = |id: TaskId| out.parts.iter().find(|p| p.ids.contains(&id));
    if let Some(r) = failed
        .iter()
        .chain(&cancelled)
        .find(|r| spawner(r.0).map(|p| p.session) != Some(r.1))
    {
        return Err(format!(
            "{r:?} reported, spawned under {:?}",
            spawner(r.0).map(|p| p.session)
        ));
    }
    let ids =
        |v: Vec<(TaskId, SessionId)>| -> BTreeSet<TaskId> { v.into_iter().map(|r| r.0).collect() };
    let (failed, cancelled) = (ids(failed), ids(cancelled));
    if ops.iter().any(|op| op.panics) == failed.is_empty() {
        return Err(format!("failed {failed:?} for the program {ops:?}"));
    }
    for part in &out.parts {
        let pick = |set: &BTreeSet<TaskId>| -> BTreeSet<usize> {
            (0..ops.len())
                .filter(|&i| set.contains(&part.ids[i]))
                .collect()
        };
        let (f, c) = (pick(&failed), pick(&cancelled));
        // Each task ran, failed or was cancelled exactly once.
        for (i, &runs) in part.runs.iter().enumerate() {
            if runs != u32::from(!c.contains(&i)) || f.contains(&i) && !ops[i].panics {
                return Err(format!(
                    "task {i} started {runs} times, failed {f:?}, cancelled {c:?}"
                ));
            }
        }
        if on_panic == OnPanic::FailFast {
            let poisoned = |j: usize| deps[j].iter().any(|p| f.contains(p) || c.contains(p));
            if let Some(j) = (0..ops.len()).find(|&j| poisoned(j) && !c.contains(&j)) {
                return Err(format!(
                    "task {j} not cancelled, failed {f:?}, cancelled {c:?}"
                ));
            }
        } else if (f.clone(), c.clone()) != expected_failures(ops, &deps, on_panic) {
            return Err(format!("failed {f:?}, cancelled {c:?} under {on_panic:?}"));
        }
        let (want, taint) = interpret(ops, &f.union(&c).copied().collect());
        if let Some(k) = (0..want.len()).find(|&k| !taint[k] && part.values[k] != want[k]) {
            return Err(format!(
                "value {k} is {}, sequentially {}",
                part.values[k], want[k]
            ));
        }
    }
    let Some(g) = &out.graph else { return Ok(()) };
    if g.node_count() != ops.len() * out.parts.len() {
        return Err(format!(
            "{} nodes for {} parts of {} tasks",
            g.node_count(),
            out.parts.len(),
            ops.len()
        ));
    }
    out.parts
        .iter()
        .try_for_each(|p| check_ids(ops, &p.ids, g, &deps, renaming))
}

/// The failed and cancelled sets under `CancelDependents` or `Isolate`.
/// Under `Isolate` every panicking task fails and nothing is cancelled;
/// under `CancelDependents` a task with a failed or cancelled
/// dependence is cancelled, and any other panicking task fails.
fn expected_failures(
    ops: &[Op],
    deps: &[BTreeSet<usize>],
    policy: OnPanic,
) -> (BTreeSet<usize>, BTreeSet<usize>) {
    let (mut f, mut c) = (BTreeSet::new(), BTreeSet::new());
    for (j, op) in ops.iter().enumerate() {
        let poisoned = deps[j].iter().any(|p| f.contains(p) || c.contains(p));
        if policy == OnPanic::CancelDependents && poisoned {
            c.insert(j);
        } else if op.panics {
            f.insert(j);
        }
    }
    (f, c)
}

/// Check a recorded graph that holds `ops` alone, as tasks `1..=n`.
pub fn check_graph(ops: &[Op], g: &GraphRecord, renaming: bool) -> Result<(), String> {
    if g.node_count() != ops.len() {
        return Err(format!("{} nodes for {} tasks", g.node_count(), ops.len()));
    }
    let ids: Vec<TaskId> = (1..=ops.len() as u64).map(TaskId).collect();
    check_part(ops, &ids, g, renaming)
}

/// Check the tasks `ids` of `g`, which one spawner spawned as `ops`,
/// in that order; no edge may join them to another spawner's tasks.
pub fn check_part(
    ops: &[Op],
    ids: &[TaskId],
    g: &GraphRecord,
    renaming: bool,
) -> Result<(), String> {
    check_ids(ops, ids, g, &deps(ops, renaming), renaming)
}

fn check_ids(
    ops: &[Op],
    ids: &[TaskId],
    g: &GraphRecord,
    deps: &[BTreeSet<usize>],
    renaming: bool,
) -> Result<(), String> {
    if let Some((k, v)) = g
        .nodes()
        .iter()
        .enumerate()
        .find(|(k, v)| v.id.0 != *k as u64 + 1)
    {
        return Err(format!("node slot {k} holds {:?}", v.id));
    }
    for (op, &id) in ops.iter().zip(ids) {
        let v = g.node(id);
        if (v.name, v.high_priority) != (op.name(), op.high) {
            return Err(format!("node {id:?} is {v:?}, spawned as {op:?}"));
        }
    }
    let n = ops.len();
    let pos = |id: TaskId| ids.iter().position(|&x| x == id);
    let acc: Vec<_> = ops.iter().map(Op::accesses).collect();
    // reach[j][i]: task i reaches task j. Edges are taken in program
    // order of their targets, so reach[i] is whole when i's successors
    // read it.
    let mut reach = vec![vec![false; n]; n];
    let mut edges = g.edges().to_vec();
    edges.sort_by_key(|&(_, to, _)| pos(to));
    for (from, to, kind) in edges {
        let (i, j) = match (pos(from), pos(to)) {
            (Some(i), Some(j)) if i < j => (i, j),
            (None, None) => continue,
            _ => {
                return Err(format!(
                    "edge {from:?} -> {to:?} does not go forward in the program"
                ))
            }
        };
        // The conflict the edge's kind names: write then read, read
        // then write, or write then write. Renamed cells have true
        // edges only; regions never rename.
        let fits = acc[i].iter().any(|&(ti, mi)| {
            acc[j].iter().any(|&(tj, mj)| {
                ti.meets(tj)
                    && (kind == EdgeKind::True || !renaming || matches!(ti, Target::Buf(_)))
                    && match kind {
                        EdgeKind::True => mi.writes() && mj.reads(),
                        EdgeKind::Anti => mi.reads() && mj.writes(),
                        EdgeKind::Output => mi.writes() && mj.writes(),
                    }
            })
        });
        if !fits {
            return Err(format!(
                "{kind:?} edge {from:?} -> {to:?} joins tasks without that conflict"
            ));
        }
        reach[j][i] = true;
        let (lo, hi) = reach.split_at_mut(j);
        hi[0].iter_mut().zip(&lo[i]).for_each(|(r, &via)| *r |= via);
    }
    for (j, d) in deps.iter().enumerate() {
        if let Some(&i) = d.iter().find(|&&i| !reach[j][i]) {
            return Err(format!("task {} not ordered after task {}", j + 1, i + 1));
        }
    }
    Ok(())
}
