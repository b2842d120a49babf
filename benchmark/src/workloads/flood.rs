//! `task_flood`: a long list of tiny tasks over many small objects — the
//! runtime's per-task cost (analysis, graph, scheduling) is the workload.

use std::time::Instant;

use smpss::{Handle, Runtime};

use super::{Closed, RtOpts, Size};
use crate::rng::Rng;
use crate::spans::Spans;

/// One task of the list. `k`, the task's position, is mixed into what it
/// computes, so a lost, repeated or reordered task changes the result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `inout(a)`
    Bump { a: u16 },
    /// `read(a) + inout(b)`
    Fold { a: u16, b: u16 },
    /// `read(a) + write(b)`
    Store { a: u16, b: u16 },
}

#[inline]
fn bump(a: &mut u64, k: u64) {
    *a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
}

#[inline]
fn fold(a: u64, b: &mut u64, k: u64) {
    *b = (*b ^ a).rotate_left(7).wrapping_add(k);
}

#[inline]
fn store(a: u64, b: &mut u64, k: u64) {
    *b = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k;
}

/// 30 % `Bump`, 50 % `Fold`, 20 % `Store`, operands uniform and distinct.
pub fn generate(seed: u64, tasks: usize, handles: usize) -> Vec<Op> {
    assert!((2..=1 << 16).contains(&handles));
    let mut rng = Rng::new(seed, 0xF100D);
    (0..tasks)
        .map(|_| {
            let a = rng.below(handles as u64) as u16;
            // Distinct from `a`: one of the other `handles - 1`, shifted past it.
            let b = ((u64::from(a) + 1 + rng.below(handles as u64 - 1)) % handles as u64) as u16;
            match rng.below(10) {
                0..=2 => Op::Bump { a },
                3..=7 => Op::Fold { a, b },
                _ => Op::Store { a, b },
            }
        })
        .collect()
}

pub fn initial(seed: u64, handles: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x1A17);
    (0..handles).map(|_| rng.next_u64()).collect()
}

/// The oracle: the task list as the plain sequential program it reads as.
pub fn replay(ops: &[Op], values: &mut [u64]) {
    for (k, op) in ops.iter().enumerate() {
        let k = k as u64;
        match *op {
            Op::Bump { a } => bump(&mut values[a as usize], k),
            Op::Fold { a, b } => {
                let av = values[a as usize];
                fold(av, &mut values[b as usize], k);
            }
            Op::Store { a, b } => {
                let av = values[a as usize];
                store(av, &mut values[b as usize], k);
            }
        }
    }
}

/// The same list as tasks. Allocates nothing of its own: operands are
/// bound and moved into the body.
pub fn spawn_all(rt: &Runtime, ops: &[Op], handles: &[Handle<u64>]) {
    for (k, op) in ops.iter().enumerate() {
        let k = k as u64;
        match *op {
            Op::Bump { a } => {
                let mut sp = rt.task("flood_bump");
                let mut w = sp.inout(&handles[a as usize]);
                sp.submit(move || bump(w.get_mut(), k));
            }
            Op::Fold { a, b } => {
                let mut sp = rt.task("flood_fold");
                let mut r = sp.read(&handles[a as usize]);
                let mut w = sp.inout(&handles[b as usize]);
                sp.submit(move || fold(*r.get(), w.get_mut(), k));
            }
            Op::Store { a, b } => {
                let mut sp = rt.task("flood_store");
                let mut r = sp.read(&handles[a as usize]);
                let mut w = sp.write(&handles[b as usize]);
                sp.submit(move || store(*r.get(), w.get_mut(), k));
            }
        }
    }
}

pub struct Flood {
    rt: Runtime,
    ops: Vec<Op>,
    init: Vec<u64>,
    handles: Vec<Handle<u64>>,
}

impl Closed for Flood {
    /// Every handle's final value.
    type Oracle = Vec<u64>;

    fn setup(seed: u64, size: Size, opts: RtOpts, spans: &mut Spans) -> Self {
        let (tasks, objects) = size.pick((200_000, 4096), (20_000, 512));
        let s = spans.enter("runtime.build", 0);
        let rt = opts.builder().build();
        spans.exit(s);
        let s = spans.enter("input.generate", 0);
        let ops = generate(seed, tasks, objects);
        let init = initial(seed, objects);
        spans.exit(s);
        let s = spans.enter("data.alloc", 0);
        let handles = init.iter().map(|&v| rt.data(v)).collect();
        spans.exit(s);
        Flood {
            rt,
            ops,
            init,
            handles,
        }
    }

    fn oracle(&self) -> Vec<u64> {
        let mut values = self.init.clone();
        replay(&self.ops, &mut values);
        values
    }

    fn rt(&self) -> &Runtime {
        &self.rt
    }

    fn reset(&mut self) {
        for (h, &v) in self.handles.iter().zip(&self.init) {
            self.rt.update(h, |x| *x = v);
        }
    }

    fn spawn(&mut self) {
        spawn_all(&self.rt, &self.ops, &self.handles);
    }

    fn verify(&mut self, expected: &Vec<u64>) -> bool {
        self.handles
            .iter()
            .zip(expected)
            .all(|(h, &want)| self.rt.read(h) == want)
    }

    fn tasks_per_rep(&self) -> u64 {
        self.ops.len() as u64
    }

    fn handles(&self) -> usize {
        self.handles.len()
    }

    /// The replay is the program with no runtime: all the task bodies.
    fn sequential_s(&self) -> f64 {
        let mut values = self.init.clone();
        let t0 = Instant::now();
        replay(std::hint::black_box(&self.ops), &mut values);
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(values);
        secs
    }

    const PHASE_SPLIT: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_30_50_20_with_distinct_operands() {
        let ops = generate(11, 50_000, 64);
        let share =
            |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64;
        assert!((share(|o| matches!(o, Op::Bump { .. })) - 0.3).abs() < 0.02);
        assert!((share(|o| matches!(o, Op::Fold { .. })) - 0.5).abs() < 0.02);
        assert!((share(|o| matches!(o, Op::Store { .. })) - 0.2).abs() < 0.02);
        assert!(ops.iter().all(|o| match *o {
            Op::Bump { a } => a < 64,
            Op::Fold { a, b } | Op::Store { a, b } => a != b && a < 64 && b < 64,
        }));
        assert_eq!(ops, generate(11, 50_000, 64));
        assert_ne!(ops, generate(12, 50_000, 64));
    }

    #[test]
    fn replay_is_order_sensitive() {
        let ops = generate(1, 200, 4);
        let mut forward = initial(1, 4);
        replay(&ops, &mut forward);
        let mut reversed_ops = ops.clone();
        reversed_ops.reverse();
        let mut backward = initial(1, 4);
        replay(&reversed_ops, &mut backward);
        assert_ne!(forward, backward);
    }

    /// The paper's guarantee, on a real (tiny) runtime run: the task
    /// program ends where the sequential program does.
    #[test]
    fn the_runtime_matches_the_replay_oracle() {
        let mut w = Flood::setup(9, Size::Quick, RtOpts::plain(2), &mut Spans::new(false, 0));
        let oracle = w.oracle();
        for _ in 0..2 {
            w.reset();
            w.spawn();
            w.rt().barrier();
            assert!(w.verify(&oracle));
        }
        w.rt().update(&w.handles[17], |x| *x ^= 1);
        assert!(!w.verify(&oracle));
    }
}
