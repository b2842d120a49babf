//! `rename_pressure`: each object is read, then at once overwritten, under
//! a memory limit — so nearly every writer must rename off a pending
//! reader, and the version store (allocation, copy-in, slab reuse and
//! eviction) and the memory throttle do the work.

use std::time::Instant;

use smpss::{Handle, Runtime};

use super::{Closed, LayerCtx, Metrics, RtOpts, Size};
use crate::rng::Rng;
use crate::spans::Spans;

const OBJECT_BYTES: usize = 64 * 1024;
const MEMORY_LIMIT: usize = 8 * 1024 * 1024;
/// The resident-bytes gate: peak live version bytes over the limit.
const RESIDENT_BOUND: f64 = 1.25;
/// A `Touch` writer changes one byte in every this many.
const TOUCH_STRIDE: usize = 4096;

/// The writer half of a pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Writer {
    /// `write(obj)`: overwrite the whole object (a renamed output needs no
    /// copy).
    Fill,
    /// `inout(obj)`: change a few bytes (a renamed inout copies its
    /// predecessor in first).
    Touch,
}

/// Reader `read(obj) + inout(acc)`, then the writer, on one object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pair {
    pub obj: u8,
    pub writer: Writer,
    pub tag: u8,
}

#[inline]
fn digest(acc: &mut u64, bytes: &[u8]) {
    let sum: u64 = bytes.iter().map(|&b| u64::from(b)).sum();
    *acc = acc.rotate_left(5) ^ sum;
}

#[inline]
fn touch(bytes: &mut [u8], tag: u8) {
    for b in bytes.iter_mut().step_by(TOUCH_STRIDE) {
        *b = b.wrapping_add(tag);
    }
}

pub fn generate(seed: u64, pairs: usize, objects: usize) -> Vec<Pair> {
    assert!((1..=256).contains(&objects));
    let mut rng = Rng::new(seed, 0x4E4A);
    (0..pairs)
        .map(|_| Pair {
            obj: rng.below(objects as u64) as u8,
            writer: if rng.below(2) == 0 {
                Writer::Fill
            } else {
                Writer::Touch
            },
            tag: 1 + rng.below(255) as u8,
        })
        .collect()
}

/// The oracle: the pairs as a sequential program over plain buffers.
pub fn replay(pairs: &[Pair], objects: &mut [Vec<u8>], accs: &mut [u64]) {
    for p in pairs {
        let o = p.obj as usize;
        digest(&mut accs[o], &objects[o]);
        match p.writer {
            Writer::Fill => objects[o].fill(p.tag),
            Writer::Touch => touch(&mut objects[o], p.tag),
        }
    }
}

pub struct Rename {
    rt: Runtime,
    pairs: Vec<Pair>,
    bytes: usize,
    objects: Vec<Handle<Vec<u8>>>,
    accs: Vec<Handle<u64>>,
}

fn initial_byte(obj: usize) -> u8 {
    obj as u8 ^ 0x5A
}

impl Closed for Rename {
    /// Final object contents and reader digests.
    type Oracle = (Vec<Vec<u8>>, Vec<u64>);

    fn setup(seed: u64, size: Size, opts: RtOpts, spans: &mut Spans) -> Self {
        let (pairs, objects, bytes) = size.pick((4_000, 32, OBJECT_BYTES), (400, 32, OBJECT_BYTES));
        let s = spans.enter("runtime.build", 0);
        let rt = opts.builder().memory_limit(MEMORY_LIMIT).build();
        spans.exit(s);
        let s = spans.enter("input.generate", 0);
        let pairs = generate(seed, pairs, objects);
        spans.exit(s);
        let s = spans.enter("data.alloc", 0);
        let objs = (0..objects)
            .map(|o| {
                rt.data_sized(vec![initial_byte(o); bytes], bytes, move || {
                    vec![0u8; bytes]
                })
            })
            .collect();
        let accs = (0..objects).map(|_| rt.data(0u64)).collect();
        spans.exit(s);
        Rename {
            rt,
            pairs,
            bytes,
            objects: objs,
            accs,
        }
    }

    fn oracle(&self) -> Self::Oracle {
        let mut objects: Vec<Vec<u8>> = (0..self.objects.len())
            .map(|o| vec![initial_byte(o); self.bytes])
            .collect();
        let mut accs = vec![0u64; self.accs.len()];
        replay(&self.pairs, &mut objects, &mut accs);
        (objects, accs)
    }

    fn rt(&self) -> &Runtime {
        &self.rt
    }

    fn reset(&mut self) {
        for (o, h) in self.objects.iter().enumerate() {
            self.rt.update(h, |v| v.fill(initial_byte(o)));
        }
        for h in &self.accs {
            self.rt.update(h, |a| *a = 0);
        }
    }

    fn spawn(&mut self) {
        for p in &self.pairs {
            let (obj, acc) = (&self.objects[p.obj as usize], &self.accs[p.obj as usize]);
            let tag = p.tag;
            {
                let mut sp = self.rt.task("rp_read");
                let mut r = sp.read(obj);
                let mut a = sp.inout(acc);
                sp.submit(move || digest(a.get_mut(), r.get()));
            }
            match p.writer {
                Writer::Fill => {
                    let mut sp = self.rt.task("rp_fill");
                    let mut w = sp.write(obj);
                    sp.submit(move || w.get_mut().fill(tag));
                }
                Writer::Touch => {
                    let mut sp = self.rt.task("rp_touch");
                    let mut w = sp.inout(obj);
                    sp.submit(move || touch(w.get_mut(), tag));
                }
            }
        }
    }

    fn verify(&mut self, (objects, accs): &Self::Oracle) -> bool {
        let values = self
            .objects
            .iter()
            .zip(objects)
            .all(|(h, want)| self.rt.read(h) == *want)
            && self
                .accs
                .iter()
                .zip(accs)
                .all(|(h, &want)| self.rt.read(h) == want);
        let resident = self.rt.stats().version_bytes_peak as f64 / MEMORY_LIMIT as f64;
        values && resident <= RESIDENT_BOUND
    }

    fn tasks_per_rep(&self) -> u64 {
        2 * self.pairs.len() as u64
    }

    fn handles(&self) -> usize {
        self.objects.len() + self.accs.len()
    }

    fn sequential_s(&self) -> f64 {
        let mut objects: Vec<Vec<u8>> = (0..self.objects.len())
            .map(|o| vec![initial_byte(o); self.bytes])
            .collect();
        let mut accs = vec![0u64; self.accs.len()];
        let t0 = Instant::now();
        replay(std::hint::black_box(&self.pairs), &mut objects, &mut accs);
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box((objects, accs));
        secs
    }

    const PHASE_SPLIT: bool = true;

    fn layer_extras(&self, ctx: &LayerCtx, out: &mut Metrics) {
        out.set(
            "data.resident_over_limit",
            ctx.stats_end.version_bytes_peak as f64 / MEMORY_LIMIT as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_digests_before_it_overwrites() {
        let pairs = [
            Pair {
                obj: 0,
                writer: Writer::Fill,
                tag: 2,
            },
            Pair {
                obj: 0,
                writer: Writer::Touch,
                tag: 3,
            },
            Pair {
                obj: 0,
                writer: Writer::Fill,
                tag: 9,
            },
        ];
        let mut objects = vec![vec![1u8; TOUCH_STRIDE * 2]];
        let mut accs = vec![0u64];
        replay(&pairs, &mut objects, &mut accs);
        let len = (TOUCH_STRIDE * 2) as u64;
        // Sums seen: all ones; all twos; twos with two bytes bumped by 3.
        let mut want = 0u64;
        for sum in [len, 2 * len, 2 * len + 6] {
            want = want.rotate_left(5) ^ sum;
        }
        assert_eq!(accs[0], want);
        assert!(objects[0].iter().all(|&b| b == 9));
    }

    #[test]
    fn the_runtime_matches_the_replay_oracle_and_renames() {
        let mut w = Rename::setup(4, Size::Quick, RtOpts::plain(2), &mut Spans::new(false, 0));
        let oracle = w.oracle();
        w.reset();
        w.spawn();
        w.rt().barrier();
        assert!(w.verify(&oracle));
        let st = w.rt().stats();
        assert!(st.renames > 0, "writers must rename off pending readers");
        w.rt().update(&w.accs[0], |a| *a ^= 1);
        assert!(!w.verify(&oracle));
    }
}
