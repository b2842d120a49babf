//! The runtime counters the benchmark derives its rates and audits from
//! (tasks executed, pops by source, panics, cancels, sheds) under small
//! programs whose outcome is fixed, and the benchmark's own result files:
//! the codec they are written with and the committed runs `--compare`
//! reads.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use smpss::{AdmissionPolicy, Runtime};

#[allow(dead_code)]
#[path = "../../../../benchmark/src/json.rs"]
mod json;

use json::Json;

#[allow(dead_code)]
#[path = "../../../../tests/support/gate.rs"]
mod gate;

use gate::hold;

#[test]
fn storm_counts_every_task_exactly_once() {
    let rt = Runtime::builder().threads(4).build();
    for _ in 0..500 {
        rt.task("storm").submit(|| {});
    }
    rt.barrier();
    let st = rt.stats();
    assert_eq!(st.tasks_executed, 500);
    assert_eq!(st.total_pops(), 500);
}

/// One gated program through two concurrent sessions and through the
/// main thread: per lane, a writer that holds a gate object until the
/// spawn ends, then 200 readers of it. Both runs execute every task once
/// and count the same pops.
#[test]
fn submit_storm_modes_agree_on_structure() {
    const LANES: usize = 2;
    const READERS: u64 = 200;
    const TASKS: u64 = LANES as u64 * (READERS + 1);

    // One lane of the program, spawned through `$task`: a closure from
    // a task name to a spawner of the runtime or of a session.
    macro_rules! lane {
        ($task:expr, $gate:expr, $release:expr, $ran:expr) => {{
            let task = $task;
            let release = Arc::clone($release);
            let mut sp = task("hold");
            let mut w = sp.write($gate);
            sp.submit(move || {
                *w.get_mut() = 1;
                hold(&release);
            });
            for _ in 0..READERS {
                let ran = Arc::clone($ran);
                let mut sp = task("submit");
                let mut r = sp.read($gate);
                sp.submit(move || {
                    assert_eq!(*r.get(), 1, "readers run after the gate");
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        }};
    }

    let run = |sessions: bool| {
        let rt = Runtime::builder().threads(2).build();
        let gates: Vec<_> = (0..LANES).map(|_| rt.data(0u64)).collect();
        let release = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicU64::new(0));
        if sessions {
            let sessions: Vec<_> = gates.iter().map(|_| rt.session()).collect();
            std::thread::scope(|s| {
                for (sess, gate) in sessions.into_iter().zip(&gates) {
                    let (release, ran) = (&release, &ran);
                    s.spawn(move || {
                        lane!(
                            |n| sess.task(n).expect("no quota configured"),
                            gate,
                            release,
                            ran
                        )
                    });
                }
            });
        } else {
            for gate in &gates {
                lane!(|n| rt.task(n), gate, &release, &ran);
            }
        }
        release.store(true, Ordering::Release);
        rt.barrier();
        assert_eq!(ran.load(Ordering::Relaxed), LANES as u64 * READERS);
        rt.stats()
    };
    let (sessions, main) = (run(true), run(false));
    assert_eq!(sessions.tasks_executed, TASKS);
    assert_eq!(main.tasks_executed, TASKS);
    assert_eq!(sessions.total_pops(), TASKS);
    assert_eq!(main.total_pops(), TASKS);
}

/// 200 independent two-task chains (a writer head, an `inout` tail);
/// every 8th head panics. Each failed head cancels exactly its own tail,
/// and `wait_all` names exactly those ids. Task ids are 1-based spawn
/// order, so chain `i` is head `2i + 1`, tail `2i + 2`.
#[test]
fn panic_storm_survives_and_counts_at_small_scale() {
    const CHAINS: u64 = 200;
    const PANIC_EVERY: u64 = 8;
    const MESSAGE: &str = "panic storm head";
    // Silence the default report for exactly these panics: they are
    // contained by the runtime and expected.
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&MESSAGE) {
                prev(info);
            }
        }));
    });

    let rt = Runtime::builder().threads(2).build();
    let hs: Vec<_> = (0..CHAINS).map(|_| rt.data(0u64)).collect();
    for (i, h) in (0u64..).zip(&hs) {
        let fails = i.is_multiple_of(PANIC_EVERY);
        let mut sp = rt.task("ps_head");
        let mut w = sp.write(h);
        sp.submit(move || {
            if fails {
                std::panic::panic_any(MESSAGE);
            }
            *w.get_mut() = 1;
        });
        let mut sp = rt.task("ps_tail");
        let mut w = sp.inout(h);
        sp.submit(move || *w.get_mut() += 1);
    }
    let err = rt.wait_all().expect_err("the storm injects panics");

    let heads: Vec<u64> = (0..CHAINS)
        .filter(|i| i.is_multiple_of(PANIC_EVERY))
        .map(|i| 2 * i + 1)
        .collect();
    let tails: Vec<u64> = heads.iter().map(|h| h + 1).collect();
    let mut failed: Vec<u64> = err.failed.iter().map(|f| f.id.0).collect();
    let mut cancelled: Vec<u64> = err.cancelled.iter().map(|c| c.id.0).collect();
    failed.sort_unstable();
    cancelled.sort_unstable();
    assert_eq!(failed, heads, "exact failed set");
    assert_eq!(cancelled, tails, "exact cancelled set");
    let st = rt.stats();
    assert_eq!(st.panics, 25);
    assert_eq!(st.cancelled, 25);
}

/// A `Shed` hog whose quota-64 blocker is parked on a gate: its
/// dependents cannot finish, so exactly 63 are admitted and every further
/// try is shed. A laggard's tasks queued behind the same gate and then
/// revoked with `cancel_all` come back as exactly their ids, cancelled.
#[test]
fn tenant_storm_sheds_and_audits_at_small_scale() {
    const QUOTA: usize = 64;
    const TRIES: u64 = 100;
    const LAGGARD_TASKS: usize = 4;

    let rt = Runtime::builder()
        .threads(3)
        .session_max_in_flight(QUOTA)
        .admission(AdmissionPolicy::Shed)
        .build();
    let hog = rt.session();
    let laggard = rt.session();
    let gate = rt.data(0u64);
    let release = Arc::new(AtomicBool::new(false));
    {
        let release = Arc::clone(&release);
        let mut sp = hog.task("ts_hog_blocker").expect("first in flight");
        let mut w = sp.write(&gate);
        sp.submit(move || {
            *w.get_mut() = 1;
            hold(&release);
        });
    }
    let hog_runs = Arc::new(AtomicU64::new(0));
    let (mut admitted, mut shed) = (0u64, 0u64);
    for _ in 0..TRIES {
        match hog.task("ts_hog") {
            Ok(mut sp) => {
                admitted += 1;
                let mut r = sp.read(&gate);
                let runs = Arc::clone(&hog_runs);
                sp.submit(move || {
                    assert_eq!(*r.get(), 1);
                    runs.fetch_add(1, Ordering::Relaxed);
                });
            }
            Err(e) => {
                assert_eq!(e.session, hog.id(), "the refusal names the hog");
                shed += 1;
            }
        }
    }
    let mut laggard_ids = std::collections::BTreeSet::new();
    for _ in 0..LAGGARD_TASKS {
        let mut sp = laggard.task("ts_laggard").expect("under quota");
        laggard_ids.insert(sp.id().0);
        let mut r = sp.read(&gate);
        sp.submit(move || {
            std::hint::black_box(*r.get());
        });
    }
    laggard.cancel_all();
    release.store(true, Ordering::Release);
    hog.wait().expect("admitted hog work completes");

    assert_eq!(admitted, (QUOTA - 1) as u64, "the blocker pins the quota");
    assert_eq!(shed, TRIES - admitted, "every further try shed");
    assert_eq!(hog_runs.load(Ordering::Relaxed), admitted);
    let err = laggard.wait().expect_err("the revocation cancelled them");
    assert!(err.failed.is_empty(), "nothing panicked");
    let cancelled: std::collections::BTreeSet<u64> = err.cancelled.iter().map(|c| c.id.0).collect();
    assert_eq!(cancelled, laggard_ids, "exact laggard cancelled set");
    let st = rt.stats();
    assert_eq!(st.admission_sheds, shed, "runtime counter agrees");
    assert_eq!(st.cancelled, LAGGARD_TASKS as u64);
    assert_eq!(st.deadline_fires, 0, "sessions have no deadline");
}

#[test]
fn json_round_trip() {
    let doc = Json::obj([
        ("s", Json::str("a\"b\\c\nd")),
        ("n", Json::Num(1234.5)),
        ("i", Json::Num(77.0)),
        ("b", Json::Bool(true)),
        ("z", Json::Null),
        ("a", Json::Arr(vec![Json::Num(1.0), Json::str("x")])),
        ("e", Json::obj::<String>([])),
    ]);
    assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
}

#[test]
fn json_parse_rejects_garbage() {
    for bad in ["{", "[1, 2,]", "{}extra", "\"unterminated"] {
        assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
    }
}

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The committed full runs `--compare` reads: `benchmark/results/set_*`.
fn committed_runs() -> Vec<(PathBuf, Json)> {
    let mut runs = Vec::new();
    for set in ["set_a", "set_b"] {
        let dir = repo().join("benchmark/results").join(set);
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("run_") && name.ends_with(".json") {
                let doc = read_json(&path);
                runs.push((path, doc));
            }
        }
    }
    assert!(runs.len() >= 2, "both committed sets hold runs");
    runs
}

/// A result file counts as evidence when it is a full (not `--quick`)
/// run of the current schema that reports, for every workload
/// `BENCHMARK.json` declares, each end-to-end metric and no failure.
///
/// The benchmark's own `report::check` makes the same checks, but it
/// cannot be included here the way `json.rs` is: `report.rs` pulls in the
/// benchmark's `spec`, `summary` and `workloads` modules, and with them
/// the whole benchmark package.
fn check_full_run(doc: &Json, spec: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some("smpss-benchmark/1") {
        return Err("schema is not smpss-benchmark/1".into());
    }
    if doc.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err("not a full run (quick is not false)".into());
    }
    let names = |key: &str| -> Vec<String> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists it")
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    for workload in names("workloads") {
        let w = doc
            .get("workloads")
            .and_then(|ws| ws.get(&workload))
            .ok_or_else(|| format!("workload {workload} missing"))?;
        if w.get("failed").and_then(Json::as_f64) != Some(0.0) {
            return Err(format!("{workload}: failed is not 0"));
        }
        for metric in names("end_to_end") {
            w.get("metrics")
                .and_then(|m| m.get(&metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}: metric {metric} missing"))?;
        }
    }
    Ok(())
}

fn spec() -> Json {
    read_json(&repo().join("BENCHMARK.json"))
}

/// Apply `edit` to the fields of `doc`'s first workload.
fn edit_first_workload(doc: &mut Json, edit: impl FnOnce(&mut Vec<(String, Json)>)) {
    let Json::Obj(top) = doc else {
        panic!("a result file is an object")
    };
    let (_, Json::Obj(workloads)) = top.iter_mut().find(|(k, _)| k == "workloads").unwrap() else {
        panic!("workloads is an object")
    };
    let Json::Obj(first) = &mut workloads[0].1 else {
        panic!("a workload is an object")
    };
    edit(first);
}

fn set_field(doc: &mut Json, key: &str, value: Json) {
    let Json::Obj(top) = doc else {
        panic!("a result file is an object")
    };
    top.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
}

#[test]
fn quick_suite_emits_valid_document() {
    let spec = spec();
    for (path, doc) in committed_runs() {
        check_full_run(&doc, &spec).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            Json::parse(&doc.pretty()).unwrap(),
            doc,
            "{}",
            path.display()
        );
    }
}

#[test]
fn validate_rejects_broken_documents() {
    let spec = spec();
    let (_, doc) = committed_runs().swap_remove(0);

    let mut no_metric = doc.clone();
    edit_first_workload(&mut no_metric, |w| {
        let (_, Json::Obj(metrics)) = w.iter_mut().find(|(k, _)| k == "metrics").unwrap() else {
            panic!("metrics is an object")
        };
        metrics.remove(0);
    });
    assert!(check_full_run(&no_metric, &spec)
        .unwrap_err()
        .contains("missing"));

    let mut failing = doc.clone();
    edit_first_workload(&mut failing, |w| {
        w.iter_mut().find(|(k, _)| k == "failed").unwrap().1 = Json::Num(1.0);
    });
    assert!(check_full_run(&failing, &spec).is_err());

    let mut bogus = doc;
    set_field(&mut bogus, "schema", Json::str("bogus/9"));
    assert!(check_full_run(&bogus, &spec)
        .unwrap_err()
        .contains("schema"));
    assert!(check_full_run(&Json::obj::<String>([]), &spec).is_err());
}

/// A `--quick` run is a smoke test on small inputs: it must never pass
/// as a committed measurement.
#[test]
fn validate_rejects_unisolated_documents() {
    let spec = spec();
    let (_, mut doc) = committed_runs().swap_remove(0);
    set_field(&mut doc, "quick", Json::Bool(true));
    assert!(check_full_run(&doc, &spec).unwrap_err().contains("quick"));
}
