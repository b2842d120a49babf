//! The spawner mode is observed, not configured: a runtime runs the
//! paper's single-spawner paths until its main thread opens the first
//! session, and the concurrent paths from then on.
//! The switch may come in the middle of a main-thread flood the workers
//! are still running; no value, edge, priority or failure record may
//! tell.

#[macro_use]
#[path = "support/oracle.rs"]
mod oracle;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use oracle::{check_part, program, sequential, Data};
use proptest::prelude::*;
use smpss::{Runtime, SessionId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The worker runs a main-thread flood at `threads(2)` with the
    /// graph recorded. Halfway through it the main thread opens two
    /// sessions; then two session threads and the main thread spawn
    /// their programs at once, over disjoint objects, each collecting
    /// its own task ids.
    /// Their ids interleave, so nodes reach the recorder out of id
    /// order: every node must still sit at its id's slot with its own
    /// name and priority flag, every program's part of the graph and
    /// values are the sequential program's, and failures afterwards
    /// name exactly the session they were spawned under.
    #[test]
    fn spawners_opened_mid_flood_keep_values_graphs_and_attribution(
        main in program(600..1200),
        sess in program(200..400),
        other in program(200..400),
    ) {
        let rt = Runtime::builder().threads(2).record_graph(true).build();
        let data: Vec<Data> = (0..3).map(|_| Data::new(&rt)).collect();
        // The worker's first task holds it until every spawner is
        // spawning, so the flood's first half is still queued then.
        let gate = Arc::new(AtomicBool::new(false));
        let hold = Arc::clone(&gate);
        rt.task("gate").submit(move || {
            while !hold.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        let half = main.len() / 2;
        let mut main_ids = drive!(main[..half], data[0], (|n| rt.task(n))).ids;
        let (s, t) = (rt.session(), rt.session());
        let (start, data) = (&Barrier::new(3), &data);
        let (sess, other) = (&sess, &other);
        let ((s, sess_ids), (t, other_ids)) = std::thread::scope(|scope| {
            let first = scope.spawn(move || {
                start.wait();
                let ids = drive!(sess, data[1], (|n| s.task(n).expect("no quota"))).ids;
                (s, ids)
            });
            let second = scope.spawn(move || {
                start.wait();
                let ids = drive!(other, data[2], (|n| t.task(n).expect("no quota"))).ids;
                (t, ids)
            });
            start.wait();
            gate.store(true, Ordering::Release);
            main_ids.extend(drive!(main[half..], data[0], (|n| rt.task(n))).ids);
            (
                first.join().expect("session thread"),
                second.join().expect("session thread"),
            )
        });
        rt.barrier();

        let g = rt.graph().expect("recording");
        prop_assert_eq!(g.node_count(), 1 + main.len() + sess.len() + other.len());
        prop_assert!(g.nodes()[0].name == "gate" && !g.nodes()[0].high_priority);
        for (ops, d, ids) in [(&main, &data[0], &main_ids), (sess, &data[1], &sess_ids), (other, &data[2], &other_ids)] {
            prop_assert_eq!(d.values(&rt), sequential(ops));
            let checked = check_part(ops, ids, &g, true);
            prop_assert!(checked.is_ok(), "{:?}", checked);
        }

        s.task("session-boom").expect("no quota").submit(|| panic!("session task"));
        t.task("other-boom").expect("no quota").submit(|| panic!("other session task"));
        rt.task("main-boom").submit(|| panic!("main task"));
        let err = rt.wait_all().expect_err("three tasks panic");
        let mut failed: Vec<_> = err.failed.iter().map(|f| (f.name, f.session)).collect();
        failed.sort();
        let want = vec![
            ("main-boom", SessionId::NONE),
            ("other-boom", t.id()),
            ("session-boom", s.id()),
        ];
        prop_assert_eq!(failed, want);
        prop_assert!(err.cancelled.is_empty());
    }
}
