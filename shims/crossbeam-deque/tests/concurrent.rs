//! Concurrency and model-based tests for the lock-free deque shim.
//!
//! The stress tests pin the exactly-once delivery contract under real
//! contention (N producers / M thieves, oversubscribed on small hosts);
//! the proptests check LIFO/FIFO/steal ordering against a sequential
//! `VecDeque` model across randomized operation sequences, including
//! buffer-growth boundaries (the worker buffer starts at 8 slots, the
//! injector block holds 31).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_deque::{Injector, Steal, Worker};
use proptest::prelude::*;

/// Absorb `Retry` with a yield: the pattern callers are expected to use.
fn steal_one<T>(steal: impl Fn() -> Steal<T>) -> Option<T> {
    loop {
        match steal() {
            Steal::Success(v) => return Some(v),
            Steal::Empty => return None,
            Steal::Retry => std::thread::yield_now(),
        }
    }
}

#[test]
fn injector_mpmc_exactly_once() {
    const PRODUCERS: usize = 4;
    const THIEVES: usize = 3;
    const PER_PRODUCER: usize = 5_000;
    const TOTAL: usize = PRODUCERS * PER_PRODUCER;

    let inj = Arc::new(Injector::new());
    let seen: Arc<Vec<AtomicUsize>> = Arc::new((0..TOTAL).map(|_| AtomicUsize::new(0)).collect());
    let taken = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let inj = Arc::clone(&inj);
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_PRODUCER {
                inj.push(p * PER_PRODUCER + i);
            }
        }));
    }
    for _ in 0..THIEVES {
        let inj = Arc::clone(&inj);
        let seen = Arc::clone(&seen);
        let taken = Arc::clone(&taken);
        handles.push(std::thread::spawn(move || {
            while taken.load(Ordering::Acquire) < TOTAL {
                match inj.steal() {
                    Steal::Success(v) => {
                        seen[v].fetch_add(1, Ordering::Relaxed);
                        taken.fetch_add(1, Ordering::AcqRel);
                    }
                    Steal::Empty | Steal::Retry => std::thread::yield_now(),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(inj.is_empty());
    for (v, count) in seen.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::Relaxed),
            1,
            "value {} lost or duplicated",
            v
        );
    }
}

#[test]
fn injector_batch_mpmc_exactly_once() {
    // Mixed single steals and batch drains racing over one injector:
    // the exactly-once contract must survive batch claims that span
    // block-boundary swings and DESTROY hand-offs.
    const PRODUCERS: usize = 3;
    const BATCHERS: usize = 2;
    const SINGLES: usize = 2;
    const PER_PRODUCER: usize = 5_000;
    const TOTAL: usize = PRODUCERS * PER_PRODUCER;

    let inj = Arc::new(Injector::new());
    let seen: Arc<Vec<AtomicUsize>> = Arc::new((0..TOTAL).map(|_| AtomicUsize::new(0)).collect());
    let taken = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let inj = Arc::clone(&inj);
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_PRODUCER {
                inj.push(p * PER_PRODUCER + i);
            }
        }));
    }
    for batcher in 0..BATCHERS + SINGLES {
        let inj = Arc::clone(&inj);
        let seen = Arc::clone(&seen);
        let taken = Arc::clone(&taken);
        let use_batch = batcher < BATCHERS;
        handles.push(std::thread::spawn(move || {
            let take = |v: usize| {
                seen[v].fetch_add(1, Ordering::Relaxed);
                taken.fetch_add(1, Ordering::AcqRel);
            };
            while taken.load(Ordering::Acquire) < TOTAL {
                let got = if use_batch {
                    inj.steal_batch_with_limit_and_collect(8, &mut |v| take(v))
                } else {
                    inj.steal()
                };
                match got {
                    Steal::Success(v) => take(v),
                    Steal::Empty | Steal::Retry => std::thread::yield_now(),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(inj.is_empty());
    for (v, count) in seen.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::Relaxed),
            1,
            "value {} lost or duplicated",
            v
        );
    }
}

#[test]
fn injector_fifo_per_producer_under_contention() {
    // FIFO holds per producer: each producer's values must be consumed
    // in its own push order even when thieves race.
    const PRODUCERS: usize = 3;
    const PER_PRODUCER: usize = 4_000;

    let inj = Arc::new(Injector::<(usize, usize)>::new());
    let done = Arc::new(AtomicBool::new(false));

    let mut producers = Vec::new();
    for p in 0..PRODUCERS {
        let inj = Arc::clone(&inj);
        producers.push(std::thread::spawn(move || {
            for i in 0..PER_PRODUCER {
                inj.push((p, i));
            }
        }));
    }
    let thief = {
        let inj = Arc::clone(&inj);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut last = [0usize; PRODUCERS];
            let mut remaining = PRODUCERS * PER_PRODUCER;
            while remaining > 0 {
                match inj.steal() {
                    Steal::Success((p, i)) => {
                        assert!(
                            i + 1 > last[p],
                            "producer {} reordered: saw {} after {}",
                            p,
                            i,
                            last[p]
                        );
                        last[p] = i + 1;
                        remaining -= 1;
                    }
                    Steal::Empty | Steal::Retry => {
                        if done.load(Ordering::Acquire) && inj.is_empty() && remaining == 0 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }
        })
    };
    for h in producers {
        h.join().unwrap();
    }
    done.store(true, Ordering::Release);
    thief.join().unwrap();
}

#[test]
fn chase_lev_owner_and_thieves_exactly_once() {
    const THIEVES: usize = 3;
    const PUSHES: usize = 20_000;

    let w: Worker<usize> = Worker::new_lifo();
    let seen: Arc<Vec<AtomicUsize>> = Arc::new((0..PUSHES).map(|_| AtomicUsize::new(0)).collect());
    let done = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for _ in 0..THIEVES {
        let s = w.stealer();
        let seen = Arc::clone(&seen);
        let done = Arc::clone(&done);
        handles.push(std::thread::spawn(move || loop {
            match s.steal() {
                Steal::Success(v) => {
                    seen[v].fetch_add(1, Ordering::Relaxed);
                }
                Steal::Empty => {
                    if done.load(Ordering::Acquire) && s.is_empty() {
                        break;
                    }
                    std::thread::yield_now();
                }
                Steal::Retry => std::thread::yield_now(),
            }
        }));
    }

    // Owner: bursts of pushes interleaved with pops, like a worker loop
    // that spawns successors and drains its own list.
    let mut next = 0usize;
    while next < PUSHES {
        let burst = (next % 7) + 1;
        for _ in 0..burst {
            if next == PUSHES {
                break;
            }
            w.push(next);
            next += 1;
        }
        for _ in 0..burst / 2 {
            if let Some(v) = w.pop() {
                seen[v].fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    while let Some(v) = w.pop() {
        seen[v].fetch_add(1, Ordering::Relaxed);
    }
    done.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    for (v, count) in seen.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::Relaxed),
            1,
            "value {} lost or duplicated",
            v
        );
    }
}

#[test]
fn stealer_clones_share_one_deque() {
    let w = Worker::new_lifo();
    let s1 = w.stealer();
    let s2 = s1.clone();
    w.push(1);
    w.push(2);
    assert_eq!(steal_one(|| s1.steal()), Some(1));
    assert_eq!(steal_one(|| s2.steal()), Some(2));
    assert_eq!(steal_one(|| s2.steal()), None);
}

// ---------------------------------------------------------------------
// Model-based proptests (single-threaded semantics vs a VecDeque)
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Op {
    Push(u32),
    Pop,
    Steal,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..1000).prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Steal),
    ]
}

/// Burst strategy biased toward long push runs so sequences routinely
/// cross the worker's initial 8-slot buffer and the injector's 31-slot
/// block boundaries.
fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![op_strategy().boxed(), (1u32..64).prop_map(Op::Push).boxed(),],
        1..220,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lifo_worker_matches_model(ops in ops_strategy()) {
        let w = Worker::new_lifo();
        let s = w.stealer();
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    w.push(v);
                    model.push_back(v);
                }
                Op::Pop => prop_assert_eq!(w.pop(), model.pop_back()),
                Op::Steal => prop_assert_eq!(steal_one(|| s.steal()), model.pop_front()),
            }
            prop_assert_eq!(w.len(), model.len());
        }
        // Drain thief-side: strict FIFO of what remains.
        while let Some(expect) = model.pop_front() {
            prop_assert_eq!(steal_one(|| s.steal()), Some(expect));
        }
        prop_assert!(w.is_empty());
    }

    #[test]
    fn injector_matches_fifo_model(ops in ops_strategy()) {
        let inj = Injector::new();
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    inj.push(v);
                    model.push_back(v);
                }
                // The injector has one consumer-side operation; exercise
                // it for both model ops.
                Op::Pop | Op::Steal => prop_assert_eq!(steal_one(|| inj.steal()), model.pop_front()),
            }
            prop_assert_eq!(inj.len(), model.len());
            prop_assert_eq!(inj.is_empty(), model.is_empty());
        }
        while let Some(expect) = model.pop_front() {
            prop_assert_eq!(steal_one(|| inj.steal()), Some(expect));
        }
        prop_assert!(inj.is_empty());
    }

    #[test]
    fn growth_preserves_lifo_and_steal_order(extra in 1usize..70, steals in 0usize..20) {
        // Fill far past the initial capacity, steal a prefix, then pop:
        // the boundary between stolen prefix and popped suffix must be
        // exact (no element lost or duplicated at any growth edge).
        let w = Worker::new_lifo();
        let s = w.stealer();
        let n = 8 * 4 + extra; // cross at least two growth boundaries
        for i in 0..n {
            w.push(i);
        }
        let steals = steals.min(n);
        for expect in 0..steals {
            prop_assert_eq!(steal_one(|| s.steal()), Some(expect));
        }
        for expect in (steals..n).rev() {
            prop_assert_eq!(w.pop(), Some(expect));
        }
        prop_assert_eq!(w.pop(), None);
        prop_assert!(s.steal().is_empty());
    }
}
