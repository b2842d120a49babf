//! The shared sequential oracle for whole-object task programs.
//!
//! A program is a straight line of tasks over [`CELLS`] `i64` cells, the
//! shape the paper's sequential-equivalence contract is about (§II).
//! This module holds the three pieces every suite that runs such
//! programs checks against:
//!
//! - a **generator** ([`program`]) mixing every directionality — reads,
//!   `inout`s and plain writes — so producer chains, fan-outs (many
//!   readers of one version) and WAR-hazard renames all occur;
//! - a **sequential interpreter** ([`sequential`]) giving the final
//!   values;
//! - a **graph check** ([`check_graph`]) on a recorded graph: the nodes
//!   are the program's tasks in spawn order, every edge joins an earlier
//!   task to a later one it conflicts with (and its kind names the
//!   conflict), every read-after-write pair is reachable, and with
//!   renaming off every write-after-read and write-after-write pair is
//!   reachable too.
//!
//! [`run`] drives a program through a runtime (or one session of it) and
//! returns what the checks need. Suites include this file with
//! `#[macro_use] #[path = ...] mod oracle;`, so not every suite uses
//! every item.
#![allow(dead_code)]

use proptest::prelude::*;
use smpss::graph::record::{EdgeKind, GraphRecord};
use smpss::{Handle, RuntimeBuilder};

/// Cells a program works on. Even cells are created with `data` (their
/// spare versions return to that object only), odd ones with
/// `data_sized` (spares cross objects through the slab's size class).
pub const CELLS: usize = 6;

/// One task of a program.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `cells[dst] = cells[a] + cells[b]`: two reads and a write.
    Add { a: usize, b: usize, dst: usize },
    /// `cells[dst] += cells[a]`: a read and an `inout`.
    Acc { a: usize, dst: usize },
    /// Reads `cells[a]` and changes nothing: fan-out readers.
    Fan { a: usize },
    /// `cells[dst] = 3 * cells[dst] + 1`: an `inout` alone.
    Mut { dst: usize },
    /// `cells[dst] = k`: a write alone.
    Set { dst: usize, k: i64 },
}

/// How a task touches a cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Access {
    Read,
    Write,
    InOut,
}

impl Access {
    fn reads(self) -> bool {
        self != Access::Write
    }

    fn writes(self) -> bool {
        self != Access::Read
    }
}

impl Op {
    /// The task name the op spawns under.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Add { .. } => "add",
            Op::Acc { .. } => "acc",
            Op::Fan { .. } => "fan",
            Op::Mut { .. } => "mut",
            Op::Set { .. } => "set",
        }
    }

    /// The op's parameter accesses, in declaration order.
    fn accesses(&self) -> Vec<(usize, Access)> {
        match *self {
            Op::Add { a, b, dst } => {
                vec![(a, Access::Read), (b, Access::Read), (dst, Access::Write)]
            }
            Op::Acc { a, dst } => vec![(a, Access::Read), (dst, Access::InOut)],
            Op::Fan { a } => vec![(a, Access::Read)],
            Op::Mut { dst } => vec![(dst, Access::InOut)],
            Op::Set { dst, .. } => vec![(dst, Access::Write)],
        }
    }
}

/// One random op.
pub fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..CELLS, 0..CELLS, 0..CELLS).prop_map(|(a, b, dst)| Op::Add { a, b, dst }),
        (0..CELLS, 0..CELLS).prop_map(|(a, dst)| Op::Acc { a, dst }),
        (0..CELLS).prop_map(|a| Op::Fan { a }),
        (0..CELLS).prop_map(|dst| Op::Mut { dst }),
        (0..CELLS, -100i64..100).prop_map(|(dst, k)| Op::Set { dst, k }),
    ]
}

/// A random program of `len` ops.
pub fn program(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op_strategy(), len)
}

/// The values the cells start from.
pub fn initial() -> Vec<i64> {
    (0..CELLS as i64).collect()
}

/// The sequential interpreter: the final values.
pub fn sequential(ops: &[Op]) -> Vec<i64> {
    let mut cells = initial();
    for op in ops {
        match *op {
            Op::Add { a, b, dst } => cells[dst] = cells[a].wrapping_add(cells[b]),
            Op::Acc { a, dst } => cells[dst] = cells[dst].wrapping_add(cells[a]),
            Op::Fan { .. } => {}
            Op::Mut { dst } => cells[dst] = cells[dst].wrapping_mul(3).wrapping_add(1),
            Op::Set { dst, k } => cells[dst] = k,
        }
    }
    cells
}

/// Spawn `ops` through a spawner source: `$spawn` is a closure from a
/// task name to a ready `TaskSpawner`, so one body serves the runtime,
/// a session and a submitter (their spawner types differ). Include
/// this file with `#[macro_use]` to use it.
macro_rules! drive {
    ($ops:expr, $cells:expr, $spawn:expr) => {
        for op in $ops {
            let mut sp = $spawn(op.name());
            match *op {
                $crate::oracle::Op::Add { a, b, dst } => {
                    let mut ra = sp.read(&$cells[a]);
                    let mut rb = sp.read(&$cells[b]);
                    let mut w = sp.write(&$cells[dst]);
                    sp.submit(move || *w.get_mut() = ra.get().wrapping_add(*rb.get()));
                }
                $crate::oracle::Op::Acc { a, dst } => {
                    let mut ra = sp.read(&$cells[a]);
                    let mut w = sp.inout(&$cells[dst]);
                    sp.submit(move || *w.get_mut() = w.get_mut().wrapping_add(*ra.get()));
                }
                $crate::oracle::Op::Fan { a } => {
                    let mut ra = sp.read(&$cells[a]);
                    sp.submit(move || {
                        std::hint::black_box(*ra.get());
                    });
                }
                $crate::oracle::Op::Mut { dst } => {
                    let mut w = sp.inout(&$cells[dst]);
                    sp.submit(move || {
                        let v = w.get_mut();
                        *v = v.wrapping_mul(3).wrapping_add(1);
                    });
                }
                $crate::oracle::Op::Set { dst, k } => {
                    let mut w = sp.write(&$cells[dst]);
                    sp.submit(move || *w.get_mut() = k);
                }
            }
        }
    };
}

/// The cells of a program, on `rt`.
pub fn cells(rt: &smpss::Runtime) -> Vec<Handle<i64>> {
    initial()
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            if i % 2 == 0 {
                rt.data(v)
            } else {
                rt.data_sized(v, std::mem::size_of::<i64>(), || 0i64)
            }
        })
        .collect()
}

/// Which front door a program is spawned through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    Runtime,
    Session,
}

/// What a run left behind.
pub struct Outcome {
    pub values: Vec<i64>,
    /// The recorded graph, when the builder records one.
    pub graph: Option<GraphRecord>,
    pub stats: smpss::StatsSnapshot,
}

/// Run `ops` on a runtime built from `builder`, through `front`, then
/// barrier and read every cell.
pub fn run(ops: &[Op], builder: RuntimeBuilder, front: Front) -> Outcome {
    let rt = builder.build();
    let cells = cells(&rt);
    match front {
        Front::Runtime => drive!(ops, cells, (|n| rt.task(n))),
        Front::Session => {
            // Drained by the barrier below, not `Session::wait`: a
            // session wait helps nobody, and at `threads(1)` the
            // barrier-helping main thread is the only one that runs.
            let sess = rt.session();
            drive!(ops, cells, (|n| sess.task(n).expect("no quota configured")));
        }
    }
    rt.barrier();
    Outcome {
        values: cells.iter().map(|h| rt.read(h)).collect(),
        graph: rt.graph(),
        stats: rt.stats(),
    }
}

/// Check a recorded graph of `ops` (see the module docs). Task `i` of
/// the program (0-based) is `TaskId(i + 1)`: the program must have been
/// the runtime's only spawns.
pub fn check_graph(ops: &[Op], g: &GraphRecord, renaming: bool) -> Result<(), String> {
    let n = ops.len();
    let names: Vec<_> = g.nodes().iter().map(|v| (v.id.0, v.name)).collect();
    let want: Vec<_> = ops
        .iter()
        .zip(1u64..)
        .map(|(op, id)| (id, op.name()))
        .collect();
    if names != want {
        return Err(format!(
            "nodes {names:?}, expected the program's tasks {want:?}"
        ));
    }
    let acc: Vec<Vec<(usize, Access)>> = ops.iter().map(Op::accesses).collect();
    // Does task `i` touch cell `c` with an access satisfying `f`?
    let has =
        |i: usize, c: usize, f: fn(Access) -> bool| acc[i].iter().any(|&(x, a)| x == c && f(a));
    let mut preds = vec![Vec::new(); n];
    for &(from, to, kind) in g.edges() {
        let (i, j) = (from.0 as usize - 1, to.0 as usize - 1);
        if !(from.0 >= 1 && i < j && j < n) {
            return Err(format!("edge {from:?} -> {to:?} does not go forward"));
        }
        if renaming && kind != EdgeKind::True {
            return Err(format!("{kind:?} edge {from:?} -> {to:?} with renaming on"));
        }
        // The cell conflict the edge's kind names: write then read,
        // read then write, or write then write.
        let fits = |c: usize| match kind {
            EdgeKind::True => has(i, c, Access::writes) && has(j, c, Access::reads),
            EdgeKind::Anti => has(i, c, Access::reads) && has(j, c, Access::writes),
            EdgeKind::Output => has(i, c, Access::writes) && has(j, c, Access::writes),
        };
        if !(0..CELLS).any(fits) {
            return Err(format!(
                "{kind:?} edge {from:?} -> {to:?} joins tasks without that conflict"
            ));
        }
        preds[j].push(i);
    }
    // reach[j][i]: task i reaches task j. Edges go forward, so id order
    // is a topological order.
    let mut reach = vec![vec![false; n]; n];
    for j in 0..n {
        for &p in &preds[j] {
            reach[j][p] = true;
            let (lo, hi) = reach.split_at_mut(j);
            for (r, &via) in hi[0].iter_mut().zip(&lo[p]) {
                *r |= via;
            }
        }
    }
    let mut last_writer = [None::<usize>; CELLS];
    for j in 0..n {
        for &(c, a) in &acc[j] {
            if let Some(i) = last_writer[c].filter(|&i| i != j) {
                if a.reads() && !reach[j][i] {
                    return Err(format!(
                        "read-after-write {} -> {} not ordered",
                        i + 1,
                        j + 1
                    ));
                }
            }
            if !renaming && a.writes() {
                if let Some(i) =
                    (0..j).find(|&i| acc[i].iter().any(|&(x, _)| x == c) && !reach[j][i])
                {
                    return Err(format!(
                        "write {} of cell {c} not after access {}",
                        j + 1,
                        i + 1
                    ));
                }
            }
            if !renaming && a.reads() {
                if let Some(i) = (0..j).find(|&i| has(i, c, Access::writes) && !reach[j][i]) {
                    return Err(format!(
                        "read {} of cell {c} not after write {}",
                        j + 1,
                        i + 1
                    ));
                }
            }
        }
        for &(c, a) in &acc[j] {
            if a.writes() {
                last_writer[c] = Some(j);
            }
        }
    }
    Ok(())
}
