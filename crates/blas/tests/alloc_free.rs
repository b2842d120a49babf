//! The tuned kernels allocate nothing once warm, pinned by a counting
//! allocator: a task body calls them thousands of times per run, so any
//! per-call allocation is paid on every task. Packing scratch is kept
//! per thread and reused; trsm's and potrf's diagonal factor lives on the
//! stack.
//!
//! The counter is per thread, so the other tests of this binary running
//! in parallel cannot perturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smpss_blas::{Block, Vendor};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while this thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations `run` makes on this thread after one warm-up call.
fn allocs_after_warm_up(mut run: impl FnMut()) -> u64 {
    run();
    let before = ALLOCS.with(Cell::get);
    run();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn tuned_kernels_allocate_nothing_once_warm() {
    for m in [7, 40, 128] {
        let a = Block::random(m, 1);
        let b = Block::random(m, 2);
        let spd = Block::random_spd(m, 3);
        let mut l = spd.clone();
        Vendor::Reference.potrf(&mut l).unwrap();
        let mut c = Block::random(m, 4);
        let v = Vendor::Tuned;
        let counts = [
            (
                "gemm_add",
                allocs_after_warm_up(|| v.gemm_add(&a, &b, &mut c)),
            ),
            (
                "gemm_nt_sub",
                allocs_after_warm_up(|| v.gemm_nt_sub(&a, &b, &mut c)),
            ),
            ("syrk_sub", allocs_after_warm_up(|| v.syrk_sub(&a, &mut c))),
            ("trsm_rlt", allocs_after_warm_up(|| v.trsm_rlt(&l, &mut c))),
            (
                "potrf",
                allocs_after_warm_up(|| {
                    c.as_mut_slice().copy_from_slice(spd.as_slice());
                    v.potrf(&mut c).unwrap();
                }),
            ),
        ];
        for (name, n) in counts {
            assert_eq!(n, 0, "{name} at m = {m} allocated {n} times");
        }
    }
}
