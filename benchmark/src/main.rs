//! The repository benchmark. README.md beside this crate says how to run
//! it and what every metric means; `BENCHMARK.json` at the repository
//! root is the contract it is run under.
//!
//! One process runs one workload (`--workload`), so set-up time and peak
//! memory are per workload; without `--workload` the binary re-executes
//! itself once per workload and gathers the results.

mod json;
mod procfs;
mod report;
mod rng;
mod spans;
mod spec;
mod summary;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use workloads::{Outcome, Plan, Size};

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
                 [--quick] [--out FILE] [--trace-out FILE]
       benchmark --check RESULT.json [--spec BENCHMARK.json]
       benchmark --compare A B        (each a result file or a directory of them)
       benchmark --print-spec

Without --workload every workload runs, each in a fresh process. --traced
adds the traced run that yields the per-layer metrics. --quick is a smoke
run of a few seconds on small inputs; its numbers are not comparable.";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    check: Option<PathBuf>,
    spec: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    print_spec: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        out: None,
        trace_out: None,
        check: None,
        spec: PathBuf::from("BENCHMARK.json"),
        compare: None,
        print_spec: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?.into()),
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--check" => args.check = Some(value()?.into()),
            "--spec" => args.spec = value()?.into(),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--print-spec" => args.print_spec = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Run one workload in this process.
fn run_workload(name: &str, plan: &Plan) -> Option<Outcome> {
    use workloads::{
        cholesky::Cholesky, flood::Flood, rename::Rename, run_closed, sort::Sort, tenant,
    };
    Some(match name {
        "dense_cholesky" => run_closed::<Cholesky>(plan),
        "task_flood" => run_closed::<Flood>(plan),
        "rename_pressure" => run_closed::<Rename>(plan),
        "region_sort" => run_closed::<Sort>(plan),
        _ => {
            let (_, rate) = spec::RATES.iter().find(|(n, _)| *n == name)?;
            tenant::run(*rate, plan)
        }
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("benchmark: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fail = |msg: String| {
        eprintln!("benchmark: {msg}");
        ExitCode::FAILURE
    };

    if args.print_spec {
        print!("{}", spec::benchmark_json().pretty());
        return ExitCode::SUCCESS;
    }
    if let Some(result) = &args.check {
        return match report::check(result, &args.spec) {
            Ok(lines) => {
                println!("{lines}");
                ExitCode::SUCCESS
            }
            Err(msg) => fail(msg),
        };
    }
    if let Some((a, b)) = &args.compare {
        return match report::compare(a, b) {
            Ok((table, clean)) => {
                print!("{table}");
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(msg) => fail(msg),
        };
    }

    let size = if args.quick { Size::Quick } else { Size::Full };
    let seconds = args
        .seconds
        .unwrap_or(size.pick(spec::RUN_SECONDS as f64, 0.3));
    let nproc = procfs::nproc();
    let host = report::Host {
        nproc,
        threads: workloads::threads_for(nproc),
        seed: args.seed,
        seconds,
        quick: args.quick,
        git_commit: report::git_commit(),
    };

    let Some(name) = &args.workload else {
        return match report::run_all(
            &host,
            args.traced,
            args.out.as_deref(),
            args.trace_out.as_deref(),
        ) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(msg) => fail(msg),
        };
    };

    let plan = Plan {
        seed: args.seed,
        seconds,
        traced: args.traced,
        size,
        threads: host.threads,
        process_start,
        trace_out: args.trace_out.clone(),
    };
    let Some(outcome) = run_workload(name, &plan) else {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return fail(format!(
            "unknown workload {name}; known: {}",
            known.join(", ")
        ));
    };
    let declared = if args.traced {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let result = match report::workload_result(&outcome, declared) {
        Ok(r) => r,
        Err(msg) => return fail(msg),
    };
    print!(
        "{}",
        report::human(name, &host, args.traced, &outcome, declared, &result)
    );
    if let Some(path) = &args.out {
        let file = report::result_file(&host, args.traced, name, &outcome, &result);
        if let Err(e) = std::fs::write(path, file.pretty()) {
            return fail(format!("cannot write {}: {e}", path.display()));
        }
    }
    // The contract's last line: exactly these four keys.
    println!("{}", result.render());
    if outcome.correct && result.get("correct") == Some(&Json::Bool(true)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload task_flood --seed 18446744073709551615 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.traced),
            (Some("task_flood"), u64::MAX, Some(10.0), true)
        );
        let a = parse_args(&argv("--trace 0 --quick")).unwrap();
        assert!(!a.traced && a.quick && a.workload.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--trace 2",
            "--compare a",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn an_unknown_workload_is_not_dispatched() {
        let plan = Plan {
            seed: 1,
            seconds: 0.05,
            traced: false,
            size: Size::Quick,
            threads: 2,
            process_start: Instant::now(),
            trace_out: None,
        };
        assert!(run_workload("no_such_workload", &plan).is_none());
    }
}
