//! The spawner mode is observed, not configured: a runtime runs the
//! paper's single-spawner paths until its main thread hands out the
//! first submitter or session, and the concurrent paths from then on.
//! The switch may come in the middle of a main-thread flood the workers
//! are still running; no value, edge or failure record may tell.

#[macro_use]
#[path = "support/oracle.rs"]
mod oracle;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use oracle::{cells, check_graph, program, sequential};
use proptest::prelude::*;
use smpss::graph::record::GraphRecord;
use smpss::{Runtime, SessionId, TaskId};

/// The tasks `ids` of `g`, renumbered from 1 in that order so the
/// oracle's graph check applies. The spawners work on disjoint cells,
/// so no edge may leave one spawner's tasks.
fn part(g: &GraphRecord, ids: &[u64]) -> GraphRecord {
    let pos = |id: TaskId| ids.iter().position(|&i| i == id.0).map(|p| p + 1);
    let mut text = String::new();
    for (p, &id) in ids.iter().enumerate() {
        text += &format!("node {} {}\n", p + 1, g.node(TaskId(id)).name);
    }
    for &(f, t, kind) in g.edges() {
        match (pos(f), pos(t)) {
            (Some(f), Some(t)) => text += &format!("edge {f} {t} {}\n", &format!("{kind:?}")[..1]),
            (None, None) => {}
            _ => panic!("edge {f:?} -> {t:?} leaves a spawner's cells"),
        }
    }
    GraphRecord::from_text(&text).expect("a renumbered part is well formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The worker runs a main-thread flood at `threads(2).shards(2)`.
    /// Halfway through it the main thread opens a session and the
    /// submitters; a session thread, then a submitter thread, spawn
    /// their own programs while the worker still runs the flood's first
    /// half, and the main thread spawns the second half. (The spawners
    /// take turns because the graph recorder wants ids in spawn order;
    /// each turn still races the worker.) Every program's values and
    /// graph are the sequential program's, and failures afterwards name
    /// exactly the session they were spawned under.
    #[test]
    fn spawners_opened_mid_flood_keep_values_graphs_and_attribution(
        main in program(600..1200),
        sess in program(200..400),
        sub in program(200..400),
    ) {
        let rt = Runtime::builder().threads(2).shards(2).record_graph(true).build();
        let (main_cells, sess_cells, sub_cells) = (cells(&rt), cells(&rt), cells(&rt));
        // The worker's first task holds it until the session is
        // spawning, so the flood's first half is still queued then.
        let gate = Arc::new(AtomicBool::new(false));
        let hold = Arc::clone(&gate);
        rt.task("gate").submit(move || {
            while !hold.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        let half = main.len() / 2;
        drive!(&main[..half], main_cells, (|n| rt.task(n)));
        let s = rt.session();
        let lane = rt.submitters().swap_remove(1);
        let s = std::thread::scope(|scope| {
            scope.spawn(|| {
                let k = sess.len() / 2;
                drive!(&sess[..k], sess_cells, (|n| s.task(n).expect("no quota")));
                gate.store(true, Ordering::Release);
                drive!(&sess[k..], sess_cells, (|n| s.task(n).expect("no quota")));
                s
            }).join().expect("session thread")
        });
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let lane = lane; // Send, not Sync: move it in
                drive!(&sub, sub_cells, (|n| lane.task(n)));
            }).join().expect("submitter thread")
        });
        drive!(&main[half..], main_cells, (|n| rt.task(n)));
        rt.barrier();

        // Each turn minted a contiguous run of ids after the gate's 1.
        let mut next = 2;
        let mut turn = |n: usize| {
            next += n as u64;
            (next - n as u64..next).collect::<Vec<_>>()
        };
        let mut main_ids = turn(half);
        let (sess_ids, sub_ids) = (turn(sess.len()), turn(sub.len()));
        main_ids.extend(turn(main.len() - half));
        let g = rt.graph().expect("recording");
        prop_assert_eq!(g.node_count() as u64, next - 1);
        for (ops, cells, ids) in [
            (&main, &main_cells, &main_ids),
            (&sess, &sess_cells, &sess_ids),
            (&sub, &sub_cells, &sub_ids),
        ] {
            let got: Vec<i64> = cells.iter().map(|h| rt.read(h)).collect();
            prop_assert_eq!(got, sequential(ops));
            let check = check_graph(ops, &part(&g, ids), true);
            prop_assert!(check.is_ok(), "{:?}", check);
        }

        s.task("session-boom").expect("no quota").submit(|| panic!("session task"));
        rt.task("main-boom").submit(|| panic!("main task"));
        let err = rt.wait_all().expect_err("two tasks panic");
        let mut failed: Vec<_> = err.failed.iter().map(|f| (f.name, f.session)).collect();
        failed.sort();
        prop_assert_eq!(failed, vec![("main-boom", SessionId::NONE), ("session-boom", s.id())]);
        prop_assert!(err.cancelled.is_empty());
    }
}
