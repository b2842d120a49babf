//! Gate tasks: a task that holds objects until the test releases it, so
//! every task spawned on those objects meanwhile is pending, not born
//! ready, whoever wins the race between the spawner and the workers.
//! Included by the suites that need one via `#[path]`, as `oracle.rs` is.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use smpss::{Handle, Runtime};

/// Parks the calling thread until `release` is set: a gate task's body.
pub fn hold(release: &AtomicBool) {
    while !release.load(Ordering::Acquire) {
        std::thread::park_timeout(std::time::Duration::from_micros(200));
    }
}

/// Spawn a task that holds `objs` (`inout`) until the returned flag is
/// set.
pub fn gate(rt: &Runtime, objs: &[&Handle<i64>]) -> Arc<AtomicBool> {
    let release = Arc::new(AtomicBool::new(false));
    let mut sp = rt.task("gate");
    let mut ws: Vec<_> = objs.iter().map(|h| sp.inout(h)).collect();
    let flag = Arc::clone(&release);
    sp.submit(move || {
        for w in &mut ws {
            let _ = w.get_mut();
        }
        hold(&flag);
    });
    release
}
