//! Results: the contract's result line, the human-readable listing, the
//! result file, the all-workloads parent run, `--check` and `--compare`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::{self, Better, Metric};
use crate::summary::Summary;
use crate::workloads::Outcome;

pub const SCHEMA: &str = "smpss-benchmark/1";
/// Prefix of the line a workload process prints for its parent: the full
/// entry of the result file, which the four-key result line cannot carry.
const DETAIL: &str = "detail ";

/// Facts about the run that every result carries.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    pub threads: usize,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub git_commit: String,
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` in an exported tree.
pub fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(Path::new(".git").join(reference)).unwrap_or_default()
        }
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.len() >= 7 && commit.chars().all(|c| c.is_ascii_hexdigit()) {
        commit.to_string()
    } else {
        "unknown".to_string()
    }
}

/// The contract's result object: `correct`, `attempted`, `failed` and one
/// entry per declared metric. An end-to-end metric the run did not produce
/// is an error; a per-layer metric it did not produce is a layer the
/// workload does not exercise, reported as 0.
pub fn workload_result(outcome: &Outcome, declared: &[Metric]) -> Result<Json, String> {
    if let Some((stray, _)) = outcome
        .metrics
        .0
        .iter()
        .find(|(n, _)| !declared.iter().any(|m| m.name == *n))
    {
        return Err(format!("metric {stray} is not declared in BENCHMARK.json"));
    }
    let mut metrics = Vec::with_capacity(declared.len());
    for m in declared {
        let value = match outcome.metrics.get(m.name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {} is {v}", m.name)),
            None if m.bound.is_some() => {
                return Err(format!("end-to-end metric {} was not measured", m.name))
            }
            None => 0.0,
        };
        metrics.push((
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]))
}

/// Every metric by name with its unit, one per line, then the `detail`
/// line for a parent process. `result` is the run's [`workload_result`].
pub fn human(
    workload: &str,
    host: &Host,
    traced: bool,
    outcome: &Outcome,
    declared: &[Metric],
    result: &Json,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {workload}: seed {} | {} s | {} | threads {} of {} cores | commit {}{}",
        host.seed,
        host.seconds,
        if traced {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
        host.threads,
        host.nproc,
        host.git_commit,
        if host.quick {
            " | QUICK: not comparable"
        } else {
            ""
        },
    );
    for m in declared {
        let value = outcome.metrics.get(m.name).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "{workload:<22} {:<32} {value:>16.4} {} ({} is better)",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    for (name, value) in &outcome.info.0 {
        let _ = writeln!(out, "{workload:<22} {:<32} {value:>16.4} (info)", name);
    }
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "{workload:<22} {:<32} {fail_frac:>16.6} ratio ({} failed of {} attempted; {})",
        "fail_frac",
        outcome.failed,
        outcome.attempted,
        if outcome.correct {
            "every gate passed"
        } else {
            "A GATE FAILED"
        },
    );
    let _ = writeln!(out, "{DETAIL}{}", workload_entry(outcome, result).render());
    out
}

/// One workload's entry in the result file: its result object plus the
/// facts reported beside the metrics.
fn workload_entry(outcome: &Outcome, result: &Json) -> Json {
    let mut entry = result
        .as_obj()
        .expect("a workload result is an object")
        .to_vec();
    entry.push((
        "info".to_string(),
        Json::obj(outcome.info.0.iter().map(|(n, v)| (*n, Json::Num(*v)))),
    ));
    Json::Obj(entry)
}

fn file_header(host: &Host, traced: bool) -> Vec<(&'static str, Json)> {
    vec![
        ("schema", Json::str(SCHEMA)),
        ("quick", Json::Bool(host.quick)),
        ("traced", Json::Bool(traced)),
        ("seed", Json::Num(host.seed as f64)),
        ("seconds", Json::Num(host.seconds)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(host.nproc as f64)),
                ("threads", Json::Num(host.threads as f64)),
                ("git_commit", Json::str(host.git_commit.clone())),
            ]),
        ),
    ]
}

/// The `--out` file of a single-workload run.
pub fn result_file(
    host: &Host,
    traced: bool,
    workload: &str,
    outcome: &Outcome,
    result: &Json,
) -> Json {
    let section = if traced { "layers" } else { "workloads" };
    let mut file = file_header(host, traced);
    file.push((
        section,
        Json::obj([(workload, workload_entry(outcome, result))]),
    ));
    Json::obj(file)
}

/// Run one workload in a fresh process; echo its listing; return its
/// `detail` entry.
fn run_child(
    host: &Host,
    workload: &str,
    traced: bool,
    trace_out: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &host.seed.to_string(),
        "--seconds",
        &host.seconds.to_string(),
    ]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if host.quick {
        cmd.arg("--quick");
    }
    if let (true, Some(prefix)) = (traced, trace_out) {
        let mut path = prefix.as_os_str().to_owned();
        path.push(format!(".{workload}.jsonl"));
        cmd.arg("--trace-out").arg(PathBuf::from(path));
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix(DETAIL) {
            Some(json) => detail = Some(Json::parse(json)?),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let detail =
        detail.ok_or_else(|| format!("{workload} printed no result (exit {})", output.status))?;
    if !output.status.success() {
        eprintln!("benchmark: {workload} exited with {}", output.status);
    }
    Ok(detail)
}

/// Every workload, each in its own process; with `traced`, the traced run
/// of each as well. Returns whether every correctness gate passed.
pub fn run_all(
    host: &Host,
    traced: bool,
    out: Option<&Path>,
    trace_out: Option<&Path>,
) -> Result<bool, String> {
    let mut file = file_header(host, traced);
    let mut passed = true;
    let mut run_section = |traced: bool| -> Result<Json, String> {
        let mut entries = Vec::new();
        for w in spec::WORKLOADS {
            let entry = run_child(host, w.name, traced, trace_out)?;
            passed &= entry.get("correct").and_then(Json::as_bool) == Some(true);
            entries.push((w.name, entry));
        }
        Ok(Json::obj(entries))
    };
    let workloads = run_section(false)?;
    let max_rate = max_rate_ok(&workloads);
    println!("{:<22} {:<32} {max_rate:>16.4} 1/s (higher is better; highest sustainable of the fixed rates)", "tenant_open_loop", "max_rate_ok");
    file.push(("workloads", workloads));
    file.push(("derived", Json::obj([("max_rate_ok", Json::Num(max_rate))])));
    if traced {
        file.push(("layers", run_section(true)?));
    }
    println!("# every correctness gate passed: {passed}");
    if let Some(path) = out {
        std::fs::write(path, Json::obj(file).pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(passed)
}

/// Highest of the fixed rates whose workload reported `rate_ok`; 0 if none.
fn max_rate_ok(workloads: &Json) -> f64 {
    spec::RATES
        .iter()
        .filter(|(name, _)| {
            workloads
                .get(name)
                .and_then(|w| w.get("info"))
                .and_then(|i| i.get("rate_ok"))
                .and_then(Json::as_f64)
                == Some(1.0)
        })
        .map(|(_, rate)| *rate as f64)
        .fold(0.0, f64::max)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--check`: every workload x metric named in `BENCHMARK.json` is in the
/// result file with its unit.
pub fn check(result: &Path, spec_path: &Path) -> Result<String, String> {
    let spec = load(spec_path)?;
    let file = load(result)?;
    if file.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} result file", result.display()));
    }
    let names = |key: &str| -> Result<Vec<(String, Option<String>)>, String> {
        let items = spec
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: no {key}", spec_path.display()))?;
        items
            .iter()
            .map(|item| {
                let name = item
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{key}: entry without a name"))?;
                Ok((
                    name.to_string(),
                    item.get("unit").and_then(Json::as_str).map(String::from),
                ))
            })
            .collect()
    };
    let workloads = names("workloads")?;
    let mut sections = vec![("workloads", names("end_to_end")?)];
    if file.get("traced").and_then(Json::as_bool) == Some(true) {
        sections.push(("layers", names("per_layer")?));
    }
    let mut missing = Vec::new();
    let mut present = 0;
    for (section, metrics) in &sections {
        for (w, _) in &workloads {
            for (m, unit) in metrics {
                let entry = file
                    .get(section)
                    .and_then(|s| s.get(w))
                    .and_then(|e| e.get("metrics"))
                    .and_then(|ms| ms.get(m));
                let ok = entry.is_some_and(|e| {
                    e.get("value").and_then(Json::as_f64).is_some()
                        && e.get("unit").and_then(Json::as_str) == unit.as_deref()
                });
                if ok {
                    present += 1;
                } else {
                    missing.push(format!("{section}/{w}/{m}"));
                }
            }
        }
    }
    if missing.is_empty() {
        Ok(format!(
            "{}: all {present} workload x metric entries present with their units",
            result.display()
        ))
    } else {
        // Name the first few: a file of one workload misses hundreds.
        const NAMED: usize = 8;
        let more = missing.len().saturating_sub(NAMED);
        Err(format!(
            "{}: {} entries missing or with the wrong unit: {}{}",
            result.display(),
            missing.len(),
            missing[..missing.len().min(NAMED)].join(", "),
            if more > 0 {
                format!(", and {more} more")
            } else {
                String::new()
            }
        ))
    }
}

/// A set of full runs: one result file, or every `.json` in a directory.
fn load_set(path: &Path) -> Result<Vec<Json>, String> {
    let mut paths = Vec::new();
    if path.is_dir() {
        let entries =
            std::fs::read_dir(path).map_err(|e| format!("cannot list {}: {e}", path.display()))?;
        for entry in entries {
            let p = entry
                .map_err(|e| format!("cannot list {}: {e}", path.display()))?
                .path();
            if p.extension().is_some_and(|ext| ext == "json") {
                paths.push(p);
            }
        }
        paths.sort();
    } else {
        paths.push(path.to_path_buf());
    }
    if paths.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    paths
        .iter()
        .map(|p| {
            let file = load(p)?;
            if file.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
                return Err(format!("{}: not a {SCHEMA} result file", p.display()));
            }
            if file.get("quick").and_then(Json::as_bool) != Some(false) {
                return Err(format!(
                    "{}: a --quick result is a smoke test, not a baseline",
                    p.display()
                ));
            }
            Ok(file)
        })
        .collect()
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judge the change from set A's median to set B's against a bound.
/// With `judge_spread`, a set whose own spread exceeds the bound cannot
/// resolve the question either way.
fn judge(
    a: &Summary,
    b: &Summary,
    better: Better,
    bound: f64,
    judge_spread: bool,
) -> (f64, Verdict) {
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    let verdict = if judge_spread && a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// `--compare A B`: per workload x end-to-end metric, both medians, the
/// ratio B/A (base A), the bound, and a verdict: `ok`, `worse`, or
/// `unresolved` when either set's own spread exceeds the bound. Failure
/// counts must be 0 in every run and the sets' median `max_rate_ok` must
/// be equal. Returns the table and
/// whether it is free of `worse` and `unresolved`.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let values = |set: &[Json], pick: &dyn Fn(&Json) -> Option<f64>| -> Vec<f64> {
        set.iter().filter_map(pick).collect()
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# A = {} ({} runs), B = {} ({} runs); ratio = B/A, base A",
        a.display(),
        set_a.len(),
        b.display(),
        set_b.len()
    );
    let _ = writeln!(
        out,
        "{:<22} {:<12} {:>14} {:>14} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "ratio", "spread A", "spread B", "bound"
    );
    let mut clean = true;
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let pick = |file: &Json| {
                file.get("workloads")?
                    .get(w.name)?
                    .get("metrics")?
                    .get(m.name)?
                    .get("value")?
                    .as_f64()
            };
            let (va, vb) = (values(&set_a, &pick), values(&set_b, &pick));
            if va.len() != set_a.len() || vb.len() != set_b.len() {
                return Err(format!("{}/{} is missing from a run", w.name, m.name));
            }
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            // As in the acceptance rule, set-up time is held to its median
            // only: it has five samples per run, not thousands.
            let (_, verdict) = judge(&sa, &sb, m.better, bound, m.name != "setup_s");
            clean &= verdict == Verdict::Ok;
            let _ = writeln!(
                out,
                "{:<22} {:<12} {:>14.4} {:>14.4} {:>8.4} {:>9.4} {:>9.4} {:>6.2}  {}",
                w.name,
                m.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                sa.spread(),
                sb.spread(),
                bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failed = |file: &Json| file.get("workloads")?.get(w.name)?.get("failed")?.as_f64();
        let (fa, fb) = (values(&set_a, &failed), values(&set_b, &failed));
        let same = fa.iter().chain(&fb).all(|&f| f == 0.0);
        clean &= same;
        let _ = writeln!(
            out,
            "{:<22} {:<12} {:>14} {:>14} {:>44}  {}",
            w.name,
            "failed",
            fa.iter().sum::<f64>(),
            fb.iter().sum::<f64>(),
            "(must be 0 in every run)",
            if same { "ok" } else { "worse" }
        );
    }
    let max_rate = |file: &Json| file.get("derived")?.get("max_rate_ok")?.as_f64();
    let (ra, rb) = (values(&set_a, &max_rate), values(&set_b, &max_rate));
    let (ma, mb) = (Summary::of(&ra).median, Summary::of(&rb).median);
    clean &= ma == mb;
    let _ = writeln!(
        out,
        "{:<22} {:<12} {:>14} {:>14} {:>44}  {}",
        "tenant_open_loop",
        "max_rate_ok",
        ma,
        mb,
        "(the sets' medians must be equal)",
        if ma == mb { "ok" } else { "worse" }
    );
    Ok((out, clean))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Metrics;

    fn outcome(pairs: &[(&'static str, f64)]) -> Outcome {
        Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: Metrics(pairs.to_vec()),
            info: Metrics::default(),
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys_and_every_metric() {
        let full: Vec<(&'static str, f64)> =
            spec::END_TO_END.iter().map(|m| (m.name, 1.25)).collect();
        let line = workload_result(&outcome(&full), spec::END_TO_END).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        assert!(!line.render().contains('\n'));
        // A missing end-to-end metric, a stray one and a NaN are errors.
        assert!(workload_result(&outcome(&full[1..]), spec::END_TO_END).is_err());
        assert!(workload_result(&outcome(&[("no.such.metric", 1.0)]), spec::PER_LAYER).is_err());
        assert!(workload_result(&outcome(&[("graph.tasks", f64::NAN)]), spec::PER_LAYER).is_err());
        // A layer the workload does not exercise reads 0.
        let layers = workload_result(&outcome(&[("graph.tasks", 120.0)]), spec::PER_LAYER).unwrap();
        let value = |name: &str| {
            layers
                .get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert_eq!(
            (value("graph.tasks"), value("blas.kernel_share")),
            (Some(120.0), Some(0.0))
        );
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let s = |median: f64, half_iqr: f64| Summary {
            n: 5,
            q1: median - half_iqr,
            median,
            q3: median + half_iqr,
        };
        assert_eq!(
            judge(&s(100.0, 1.0), &s(105.0, 1.0), Better::Lower, 0.10, true).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&s(100.0, 1.0), &s(115.0, 1.0), Better::Lower, 0.10, true).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&s(100.0, 1.0), &s(85.0, 1.0), Better::Lower, 0.10, true).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&s(100.0, 1.0), &s(85.0, 1.0), Better::Higher, 0.10, true).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&s(100.0, 8.0), &s(100.0, 1.0), Better::Lower, 0.10, true).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&s(100.0, 8.0), &s(100.0, 1.0), Better::Lower, 0.10, false).1,
            Verdict::Ok
        );
        let (worse_by, _) = judge(&s(200.0, 0.0), &s(220.0, 0.0), Better::Lower, 0.25, true);
        assert!((worse_by - 0.10).abs() < 1e-12);
    }

    #[test]
    fn max_rate_is_the_highest_rate_that_held() {
        let entry = |ok: f64| Json::obj([("info", Json::obj([("rate_ok", Json::Num(ok))]))]);
        let all = Json::obj(spec::RATES.iter().map(|(n, _)| (*n, entry(1.0))));
        assert_eq!(max_rate_ok(&all), 200_000.0);
        let low = Json::obj([
            (spec::RATES[0].0, entry(1.0)),
            (spec::RATES[2].0, entry(0.0)),
        ]);
        assert_eq!(max_rate_ok(&low), 20_000.0);
        assert_eq!(max_rate_ok(&Json::obj::<String>([])), 0.0);
    }

    #[test]
    fn a_quick_result_is_refused_as_a_baseline_and_check_finds_gaps() {
        let dir = std::env::temp_dir().join(format!("smpss-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let host = Host {
            nproc: 2,
            threads: 2,
            seed: 1,
            seconds: 0.3,
            quick: true,
            git_commit: "unknown".into(),
        };
        let full: Vec<(&'static str, f64)> =
            spec::END_TO_END.iter().map(|m| (m.name, 2.0)).collect();
        let o = outcome(&full);
        let quick = dir.join("quick.json");
        let line = workload_result(&o, spec::END_TO_END).unwrap();
        std::fs::write(
            &quick,
            result_file(&host, false, "task_flood", &o, &line).pretty(),
        )
        .unwrap();
        assert!(compare(&quick, &quick).unwrap_err().contains("--quick"));
        // One workload of seven: --check names what is missing.
        let spec_path = dir.join("BENCHMARK.json");
        std::fs::write(&spec_path, spec::benchmark_json().pretty()).unwrap();
        let err = check(&quick, &spec_path).unwrap_err();
        assert!(
            err.contains("workloads/dense_cholesky/setup_s")
                && !err.contains("workloads/task_flood/")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
