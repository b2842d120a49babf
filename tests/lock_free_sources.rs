//! The hand-rolled lock-free paths name no blocking primitive: atomics,
//! `UnsafeCell`, CAS gates and backoff only. One gate for all of them —
//! the deque/injector shim, the queue plumbing and its sleep protocol
//! (an event count over `thread::park`), the completion path and the
//! version / read-window layer it closes, the sharded analysis lanes,
//! session admission, and the version slab.
//!
//! Each file is embedded with `include_str!`, so moving or renaming one
//! fails to compile instead of passing silently. The needles are
//! assembled at run time so this file does not match itself.

const SOURCES: [(&str, &str); 7] = [
    (
        "shims/crossbeam-deque/src/lib.rs",
        include_str!("../shims/crossbeam-deque/src/lib.rs"),
    ),
    (
        "crates/core/src/sched/queues.rs",
        include_str!("../crates/core/src/sched/queues.rs"),
    ),
    (
        "crates/core/src/sched/completion.rs",
        include_str!("../crates/core/src/sched/completion.rs"),
    ),
    (
        "crates/core/src/data/version.rs",
        include_str!("../crates/core/src/data/version.rs"),
    ),
    (
        "crates/core/src/runtime/shard.rs",
        include_str!("../crates/core/src/runtime/shard.rs"),
    ),
    (
        "crates/core/src/runtime/session.rs",
        include_str!("../crates/core/src/runtime/session.rs"),
    ),
    (
        "crates/core/src/data/slab.rs",
        include_str!("../crates/core/src/data/slab.rs"),
    ),
];

#[test]
fn lock_free_sources_name_no_mutex() {
    let needles = [["Mu", "tex"].concat(), [".lo", "ck()"].concat()];
    for (path, source) in SOURCES {
        for needle in &needles {
            assert!(
                !source.contains(needle.as_str()),
                "{path} must stay lock-free on every path (found {needle:?})"
            );
        }
    }
}
