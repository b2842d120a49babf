//! `region_sort`: multisort over array regions — dependency analysis by
//! range overlap, on an irregular recursive graph with real bodies.

use std::time::Instant;

use smpss::{RegionHandle, Runtime};
use smpss_apps::sort::{multisort_range, sequential_multisort, Elm, SortParams};

use super::{Closed, LayerCtx, Metrics, RtOpts, Size};
use crate::rng::Rng;
use crate::spans::Spans;

pub struct Sort {
    rt: Runtime,
    input: Vec<Elm>,
    data: RegionHandle<Vec<Elm>>,
    tmp: RegionHandle<Vec<Elm>>,
    params: SortParams,
}

/// Tasks `multisort_range` creates for `size` elements: one `seqquick`
/// per leaf, one `seqmerge` per destination chunk of the three merges.
fn task_count(size: usize, p: SortParams) -> u64 {
    if size <= p.quick_size.max(4) {
        return 1;
    }
    let q = size / 4;
    let last = size - 3 * q;
    let chunks = |n: usize| n.div_ceil(p.merge_chunk.max(1)) as u64;
    3 * task_count(q, p) + task_count(last, p) + chunks(2 * q) + chunks(q + last) + chunks(size)
}

impl Closed for Sort {
    /// The sorted input.
    type Oracle = Vec<Elm>;

    fn setup(seed: u64, size: Size, opts: RtOpts, spans: &mut Spans) -> Self {
        let n = size.pick(1 << 20, 1 << 16);
        let s = spans.enter("runtime.build", 0);
        let rt = opts.builder().build();
        spans.exit(s);
        let s = spans.enter("input.generate", 0);
        let mut rng = Rng::new(seed, 0x5027);
        let input: Vec<Elm> = (0..n).map(|_| rng.next_u64() as Elm).collect();
        spans.exit(s);
        let s = spans.enter("data.alloc", 0);
        let data = rt.region_data(input.clone());
        let tmp = rt.region_data(vec![0 as Elm; n]);
        spans.exit(s);
        Sort {
            rt,
            input,
            data,
            tmp,
            params: SortParams::default(),
        }
    }

    fn oracle(&self) -> Vec<Elm> {
        let mut sorted = self.input.clone();
        sequential_multisort(&mut sorted, self.params);
        sorted
    }

    fn rt(&self) -> &Runtime {
        &self.rt
    }

    fn reset(&mut self) {
        let input = &self.input;
        self.rt
            .update_region(&self.data, |v| v.copy_from_slice(input));
    }

    fn spawn(&mut self) {
        multisort_range(
            &self.rt,
            &self.data,
            &self.tmp,
            0,
            self.input.len() - 1,
            self.params,
        );
    }

    fn verify(&mut self, sorted: &Vec<Elm>) -> bool {
        self.rt.with_region(&self.data, |v| v == sorted)
    }

    fn tasks_per_rep(&self) -> u64 {
        task_count(self.input.len(), self.params)
    }

    fn handles(&self) -> usize {
        2
    }

    fn sequential_s(&self) -> f64 {
        let mut v = self.input.clone();
        let t0 = Instant::now();
        sequential_multisort(std::hint::black_box(&mut v), self.params);
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(v);
        secs
    }

    /// On one thread nothing retires during the spawn loop, and the region
    /// log's scans grow with it: the probe would take minutes.
    const PHASE_SPLIT: bool = false;

    /// Here the spawn phase *is* the region analysis.
    fn layer_extras(&self, ctx: &LayerCtx, out: &mut Metrics) {
        out.set("region_log.analyse_us_per_task", ctx.submit_ns / 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quick_sort_matches_the_sequential_one_and_the_task_count() {
        let mut w = Sort::setup(2, Size::Quick, RtOpts::plain(2), &mut Spans::new(false, 0));
        let oracle = w.oracle();
        assert!(oracle.windows(2).all(|p| p[0] <= p[1]));
        assert!(!w.verify(&oracle), "unsorted input must not pass");
        w.spawn();
        w.rt().barrier();
        assert!(w.verify(&oracle));
        assert_eq!(w.rt().stats().tasks_executed, w.tasks_per_rep());
    }
}
