//! `vrdag-perf`: the layered, reconciled benchmark of the VRDAG
//! generation service. See README.md next to this crate for the
//! workloads, every metric and how to run and compare.

mod bench;
mod client;
mod compare;
mod fleet;
mod json;
mod mix;
mod probe;
mod report;
mod stats;

use mix::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

const USAGE: &str = "usage:
  vrdag-perf [run] --workload <cold_gen|warm_replay|routed_mix|fig9_trend|all> --seed <n>
             [--seconds <s>] [--trace [0|1]] [--out <dir>]
  vrdag-perf compare --base <dir>... --head <dir>... [--bench <BENCHMARK.json>]";

/// Measured window when `--seconds` is not given (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: u64 = 20;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) =
        (None, None, DEFAULT_SECONDS, false, None);
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        // Bare `--trace` turns tracing on.
                        trace = true;
                        continue;
                    }
                };
                it.next();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

fn write(path: PathBuf, text: &str) -> Result<(), String> {
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One workload in this process: prints every metric, writes the report
/// (and, traced, the span file) under `--out`, and ends with the result
/// line. A run whose outputs fail verification exits non-zero.
fn run_one(workload: Workload, a: &RunArgs) -> ExitCode {
    let run = match bench::run(workload, a.seed, Duration::from_secs(a.seconds), a.trace, false) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("vrdag-perf: {}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    let outcome = &run.outcome;
    print!("{}", outcome.render());
    if let Some(dir) = &a.out {
        let suffix = if a.trace { "-trace" } else { "" };
        let written = std::fs::create_dir_all(dir)
            .map_err(|e| format!("create {}: {e}", dir.display()))
            .and_then(|()| {
                write(
                    dir.join(format!("report-{}{suffix}.json", workload.name())),
                    &outcome.report_json(),
                )
            })
            .and_then(|()| match &run.trace_json {
                Some(t) => write(dir.join(format!("trace-{}.json", workload.name())), t),
                None => Ok(()),
            });
        if let Err(e) = written {
            eprintln!("vrdag-perf: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in its own child process (a fresh heap, so
/// `peak_rss_mb` is per workload). Traced, each workload runs untraced
/// first and the tracing overhead is printed from the two runs.
fn run_all(a: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("vrdag-perf: cannot locate own binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut status = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        let modes: &[bool] = if a.trace { &[false, true] } else { &[false] };
        let mut job_ms = Vec::new();
        for &trace in modes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &a.seed.to_string(), "--seconds", &a.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if let Some(out) = &a.out {
                cmd.arg("--out").arg(out);
            }
            let output = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("vrdag-perf: spawn {}: {e}", workload.name());
                    return ExitCode::from(2);
                }
            };
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            if !output.status.success() {
                status = ExitCode::FAILURE;
            }
            let key = if trace { "obs.trace_job_ms_p50" } else { "job_ms_p50" };
            job_ms.push(
                text.lines()
                    .last()
                    .and_then(|l| json::parse(l).ok())
                    .and_then(|v| v.get("metrics")?.get(key)?.get("value")?.as_f64()),
            );
        }
        if let [Some(untraced), Some(traced)] = job_ms[..] {
            println!("{} obs.trace_overhead {:.4} ratio", workload.name(), traced / untraced);
        }
    }
    status
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("run") => &args[1..],
        _ => &args[..],
    };
    let a = match parse_run(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vrdag-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&a);
    }
    match Workload::parse(&a.workload) {
        Some(w) => run_one(w, &a),
        None => {
            eprintln!("vrdag-perf: unknown workload {:?}\n{USAGE}", a.workload);
            ExitCode::from(2)
        }
    }
}
