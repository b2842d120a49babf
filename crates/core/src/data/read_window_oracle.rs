//! The atomic read-window protocol checked against a **mutex oracle**
//! (kept in its own module so the protocol sources themselves stay
//! mutex-free — the no-mutex test `tests/lock_free_sources.rs` covers
//! `version.rs`).

use super::version::ReadWindow;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct MutexOracle {
    readers: parking_lot::Mutex<usize>,
}

impl MutexOracle {
    fn new() -> Self {
        MutexOracle {
            readers: parking_lot::Mutex::new(0),
        }
    }

    fn open(&self) {
        *self.readers.lock() += 1;
    }

    fn close(&self) -> bool {
        let mut r = self.readers.lock();
        *r -= 1;
        *r == 0
    }

    fn pending(&self) -> usize {
        *self.readers.lock()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random single-threaded interleavings of opens and closes
    /// (the spawner/renamer view): count, quiescence and
    /// last-reader-out must agree with the oracle step by step.
    #[test]
    fn protocol_matches_mutex_oracle(ops in prop::collection::vec(0u8..4, 1..200)) {
        let win = ReadWindow::new();
        let oracle = MutexOracle::new();
        let mut open = 0usize;
        for op in ops {
            match op {
                // Bias towards opens so closes have windows to close.
                0 | 1 => {
                    win.open();
                    oracle.open();
                    open += 1;
                }
                2 if open > 0 => {
                    open -= 1;
                    prop_assert_eq!(win.close(), oracle.close());
                }
                _ => {
                    // Quiescence probe, as `dep::quiescent` issues it.
                    let settled = win.pending_relaxed() == 0;
                    if settled {
                        std::sync::atomic::fence(Ordering::Acquire);
                    }
                    prop_assert_eq!(settled, oracle.pending() == 0);
                    prop_assert_eq!(win.pending_acquire(), oracle.pending());
                }
            }
        }
        // Drain: the epoch must settle exactly when the oracle does.
        while open > 0 {
            open -= 1;
            prop_assert_eq!(win.close(), oracle.close());
        }
        prop_assert_eq!(win.pending_acquire(), 0);
    }
}

#[test]
fn last_reader_out_is_unique_under_contention() {
    const THREADS: usize = 4;
    const EPOCHS: usize = 200;
    const WINDOWS: usize = 8;
    let win = Arc::new(ReadWindow::new());
    let oracle = Arc::new(MutexOracle::new());
    for _ in 0..EPOCHS {
        for _ in 0..WINDOWS {
            win.open();
            oracle.open();
        }
        let last_outs = Arc::new(AtomicUsize::new(0));
        let oracle_last_outs = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let win = Arc::clone(&win);
                let oracle = Arc::clone(&oracle);
                let last_outs = Arc::clone(&last_outs);
                let oracle_last_outs = Arc::clone(&oracle_last_outs);
                std::thread::spawn(move || {
                    for _ in 0..WINDOWS / THREADS {
                        if win.close() {
                            last_outs.fetch_add(1, Ordering::Relaxed);
                        }
                        if oracle.close() {
                            oracle_last_outs.fetch_add(1, Ordering::Relaxed);
                        }
                        std::thread::yield_now();
                        let _ = t;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            last_outs.load(Ordering::Relaxed),
            1,
            "exactly one close per epoch is last-reader-out"
        );
        assert_eq!(oracle_last_outs.load(Ordering::Relaxed), 1);
        assert_eq!(win.pending_acquire(), 0);
        assert_eq!(oracle.pending(), 0);
    }
}
