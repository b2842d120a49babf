//! Session isolation: cancelling one tenant with `cancel_all` must not
//! touch any other tenant.
//!
//! The oracle is the single-tenant run: survivors submit the *same*
//! programs first in both runs, so their task ids are an identical
//! prefix, and the surviving sessions' recorded graphs (nodes and
//! edges, in order) must be **bit-identical** to a run in which the
//! cancelled tenant never existed. On top of the graph equality, the
//! cancelled set itself is exact: every pending task of the victim,
//! nothing of anyone else — pinned at threads {1, 8}.

#[macro_use]
#[path = "support/oracle.rs"]
mod oracle;

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use oracle::{program, sequential, Data, Op};
use proptest::prelude::*;
use smpss::{Runtime, Session, SessionId};

/// Spawn `ops` through session `s` over its private `data`.
fn submit_ops(s: &Session, data: &Data, ops: &[Op]) {
    drive!(ops, data, (|n| s.task(n).expect("no quota configured")));
}

type Graph = (
    Vec<smpss::graph::record::NodeInfo>,
    Vec<(smpss::TaskId, smpss::TaskId, smpss::graph::record::EdgeKind)>,
);

fn build(threads: usize) -> Runtime {
    Runtime::builder()
        .threads(threads)
        .record_graph(true)
        .build()
}

/// The oracle: survivors only, no victim tenant ever opened. Returns
/// their final cell values and the full recorded graph (which is
/// exactly the survivors' graph).
fn run_without_victim(progs: &[Vec<Op>; 2], threads: usize) -> (Vec<Vec<i64>>, Graph) {
    let rt = build(threads);
    let survivors = [rt.session(), rt.session()];
    let data: Vec<Data> = (0..2).map(|_| Data::new(&rt)).collect();
    for (s, (d, prog)) in survivors.iter().zip(data.iter().zip(progs)) {
        submit_ops(s, d, prog);
    }
    rt.barrier();
    for s in &survivors {
        s.wait().expect("survivors never fail");
    }
    let vals = data.iter().map(|d| d.values(&rt)).collect();
    let g = rt.graph().expect("recording enabled");
    (vals, (g.nodes().to_vec(), g.edges().to_vec()))
}

struct VictimRun {
    survivor_vals: Vec<Vec<i64>>,
    /// Run-A graph filtered to the survivor id prefix.
    survivor_graph: Graph,
    /// Exactly the victim tasks reported cancelled by the victim's wait.
    cancelled: BTreeSet<u64>,
    /// Ids the victim spawned: (blocker, dependents).
    blocker_id: u64,
    dep_ids: BTreeSet<u64>,
    /// Did the blocker's body actually run? (Deterministic per config:
    /// true whenever `threads > 1`, where the run waits for it to
    /// start; false at `threads == 1`, where nothing runs before the
    /// revocation.)
    blocker_ran: bool,
}

/// Survivors submit first (identical id prefix), then the victim
/// submits a gated blocker plus `deps` dependents and is revoked by
/// `cancel_all`.
fn run_with_victim(progs: &[Vec<Op>; 2], deps: usize, threads: usize) -> VictimRun {
    let rt = build(threads);
    let survivors = [rt.session(), rt.session()];
    let victim = rt.session();
    let data: Vec<Data> = (0..2).map(|_| Data::new(&rt)).collect();
    for (s, (d, prog)) in survivors.iter().zip(data.iter().zip(progs)) {
        submit_ops(s, d, prog);
    }
    let survivor_tasks = (progs[0].len() + progs[1].len()) as u64;

    let vh = rt.data(0i64);
    let gate = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    let blocker_id;
    {
        let g = Arc::clone(&gate);
        let st = Arc::clone(&started);
        let mut sp = victim.task("blocker").expect("no quota configured");
        blocker_id = sp.id().0;
        let mut w = sp.write(&vh);
        sp.submit(move || {
            *w.get_mut() = 1;
            st.store(true, Ordering::Release);
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
    }
    let outs: Vec<_> = (0..deps).map(|_| rt.data(0i64)).collect();
    let mut dep_ids = BTreeSet::new();
    for o in &outs {
        let mut sp = victim.task("dep").expect("no quota configured");
        dep_ids.insert(sp.id().0);
        let mut r = sp.read(&vh);
        let mut w = sp.write(o);
        sp.submit(move || *w.get_mut() = *r.get());
    }
    // With workers present, pin the race: the blocker is *executing*
    // (beyond revocation's reach) before the victim is revoked. At
    // `threads == 1` nothing can run yet, so the whole victim set is
    // pending — the other deterministic corner.
    if threads > 1 {
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }
    victim.cancel_all();
    gate.store(true, Ordering::Release);
    rt.barrier();

    let cancelled: BTreeSet<u64> = match victim.wait() {
        Ok(()) => BTreeSet::new(),
        Err(e) => {
            assert!(e.failed.is_empty(), "nothing panicked");
            e.cancelled.iter().map(|c| c.id.0).collect()
        }
    };
    for s in &survivors {
        s.wait().expect("survivors never fail");
    }
    for o in &outs {
        assert_eq!(rt.read(o), 0, "cancelled dependents never wrote");
    }
    let survivor_vals = data.iter().map(|d| d.values(&rt)).collect();
    let blocker_ran = rt.read(&vh) == 1;
    let g = rt.graph().expect("recording enabled");
    let nodes: Vec<_> = g
        .nodes()
        .iter()
        .filter(|n| n.id.0 <= survivor_tasks)
        .cloned()
        .collect();
    let edges: Vec<_> = g
        .edges()
        .iter()
        .filter(|(a, b, _)| a.0 <= survivor_tasks && b.0 <= survivor_tasks)
        .cloned()
        .collect();
    VictimRun {
        survivor_vals,
        survivor_graph: (nodes, edges),
        cancelled,
        blocker_id,
        dep_ids,
        blocker_ran,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The isolation gate, at threads {1, 8}: the victim's pending set
    /// cancels exactly, and the survivors' values *and recorded graphs*
    /// are bit-identical to a run without the cancelled tenant.
    #[test]
    fn revoking_one_session_never_touches_another(
        prog_a in program(1..25),
        prog_b in program(1..25),
        deps in 1..4usize,
    ) {
        let progs = [prog_a, prog_b];
        let expect: Vec<Vec<i64>> = progs.iter().map(|p| sequential(p)).collect();
        for threads in [1usize, 8] {
            let (base_vals, base_graph) = run_without_victim(&progs, threads);
            prop_assert_eq!(&base_vals, &expect, "oracle at t{}", threads);
            let run = run_with_victim(&progs, deps, threads);
            let mut want = run.dep_ids.clone();
            if !run.blocker_ran {
                want.insert(run.blocker_id);
            }
            prop_assert_eq!(&run.cancelled, &want, "exact victim cancel set at t{}", threads);
            prop_assert!(
                run.cancelled.iter().all(|id| *id == run.blocker_id
                    || run.dep_ids.contains(id)),
                "no foreign task cancelled"
            );
            prop_assert_eq!(&run.survivor_vals, &expect, "survivor values at t{}", threads);
            prop_assert_eq!(
                &run.survivor_graph, &base_graph,
                "survivor graph bit-identical at t{}", threads
            );
        }
    }
}

/// BENCH_0008 head-of-line regression: a batch-claimer that picks up
/// one tenant's long-blocking task must not strand the *other*
/// tenants' already-published born-ready tasks it claimed alongside.
/// Before the fix, a worker's main-list batch claim parked the surplus
/// in a private buffer no thief could reach: with one tenant's blocker
/// at the head of the batch, every other tenant's task in the same
/// claim froze behind it while the rest of the pool idled — and
/// `Session::wait` (which deliberately helps nobody) hung forever.
/// Post-fix the surplus spills onto the claimer's stealable own deque,
/// so an idle worker steals and runs it while the blocker blocks.
#[test]
fn batch_claimed_tasks_survive_a_blocking_neighbour() {
    use std::sync::atomic::AtomicU64;

    const TENANTS: usize = 8;
    // threads=3 → two workers: one absorbed by the blocker, one left
    // to (steal and) run everything else. The smallest pool where the
    // strand is observable and the rescue is possible.
    let rt = build(3);
    let hog = rt.session();
    let tenants: Vec<_> = (0..TENANTS).map(|_| rt.session()).collect();

    let gate = rt.data(0u64);
    let release = Arc::new(AtomicBool::new(false));
    {
        let release = Arc::clone(&release);
        let mut sp = hog.task("blocker").expect("first in flight");
        let mut w = sp.write(&gate);
        sp.submit(move || {
            *w.get_mut() = 1;
            while !release.load(Ordering::Acquire) {
                std::thread::park_timeout(std::time::Duration::from_millis(1));
            }
        });
    }
    // Born-ready, no accesses: all of these hit the main list and ride
    // whatever batch claim also picked up the blocker.
    let ran = Arc::new(AtomicU64::new(0));
    for s in &tenants {
        let ran = Arc::clone(&ran);
        let sp = s.task("polite").expect("under quota");
        sp.submit(move || {
            ran.fetch_add(1, Ordering::Relaxed);
        });
    }
    // The liveness assertion is simply that these waits return while
    // the blocker still blocks. (A watchdog turns a regression into a
    // loud failure instead of a hung test binary.)
    let watchdog = {
        let release = Arc::clone(&release);
        let ran = Arc::clone(&ran);
        std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while ran.load(Ordering::Relaxed) < TENANTS as u64 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "tenant tasks stranded behind the blocker's batch claim"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            release.store(true, Ordering::Release);
        })
    };
    for s in &tenants {
        s.wait().expect("tenant work never fails");
    }
    assert_eq!(ran.load(Ordering::Relaxed), TENANTS as u64);
    watchdog.join().expect("watchdog");
    hog.wait().expect("blocker completes once released");
    assert_eq!(rt.read(&gate), 1);
}

/// The main thread and a session spawn from one node pool, so
/// main-thread tasks run on nodes a session task used
/// before, and a session task may run on a node the main thread used.
/// Reuse must not carry a session stamp across: each failure names the
/// session its task was spawned under, and nothing else.
#[test]
fn node_reuse_across_hosts_keeps_failure_attribution_exact() {
    const CHAIN: u64 = 1_000;
    const MAIN: u64 = 64;
    let rt = Runtime::builder().threads(2).build();
    let s = rt.session();
    let x = rt.data(0u64);
    // The chain starts behind a gate task, so the session spawns every
    // node before any completes: all of them are session-born, and all
    // are back in the pool once `wait` returns.
    let open = Arc::new(AtomicBool::new(false));
    for k in 0..CHAIN {
        let mut sp = s.task("chain").expect("no quota configured");
        let mut w = sp.inout(&x);
        let open = (k == 0).then(|| Arc::clone(&open));
        sp.submit(move || {
            if let Some(open) = open {
                while !open.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            *w.get_mut() += 1;
        });
    }
    open.store(true, Ordering::Release);
    s.wait().expect("the chain never fails");
    assert_eq!(rt.read(&x), CHAIN);

    let hits = rt.stats().node_pool_hits;
    for k in 0..MAIN {
        rt.task("main").submit(move || {
            if k % 8 == 7 {
                panic!("main task {k}");
            }
        });
    }
    let err = rt
        .wait_all()
        .expect_err("every 8th main-thread task panics");
    assert_eq!(err.failed.len(), (MAIN / 8) as usize);
    assert!(err.cancelled.is_empty());
    assert!(
        err.failed.iter().all(|f| f.session == SessionId::NONE),
        "main-thread failures carry no session: {:?}",
        err.failed
    );
    assert_eq!(
        rt.stats().node_pool_hits - hits,
        MAIN,
        "every main-thread spawn reuses a session-born node"
    );

    s.task("boom")
        .expect("no quota configured")
        .submit(|| panic!("session task"));
    let err = s.wait().expect_err("the session task panics");
    assert_eq!(err.failed.len(), 1);
    assert_eq!(err.failed[0].session, s.id());
    rt.wait_all().expect("the session drained its own failure");
}
