//! **Fidelity scoreboard** — runs the Table I and Table II grids at
//! `--scale small` for seeds 42 and 1–5 and writes every cell to
//! `FIDELITY.json`; with `--check`, regenerates them and gates the result
//! against the committed file (see `vrdag_bench::fidelity` for the rule).
//! Seeds run in parallel, one per core.
//!
//! ```text
//! fidelity [--out FIDELITY.json]
//! fidelity --check [--out <regenerated.json>]
//! ```

use std::process::exit;
use vrdag_bench::fidelity::{check, collect, Scoreboard, SEEDS};
use vrdag_bench::harness::Scale;

const COMMITTED: &str = "FIDELITY.json";
const USAGE: &str = "usage: fidelity [--check] [--out FILE]";

fn fail(msg: &str) -> ! {
    eprintln!("fidelity: {msg}\n{USAGE}");
    exit(2);
}

fn main() {
    let (mut checking, mut out) = (false, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--check" => checking = true,
            "--out" => out = Some(args.next().unwrap_or_else(|| fail("--out needs a value"))),
            _ => fail(&format!("unknown flag {flag}")),
        }
    }
    let base = checking.then(|| {
        let text = std::fs::read_to_string(COMMITTED)
            .unwrap_or_else(|e| fail(&format!("cannot read {COMMITTED}: {e}")));
        Scoreboard::from_json(&text).unwrap_or_else(|e| fail(&format!("{COMMITTED}: {e}")))
    });

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let started = std::time::Instant::now();
    let board = collect(Scale::Small, &SEEDS, workers);
    println!(
        "Fidelity scoreboard | scale=small seeds={SEEDS:?} | {:.1} s on {workers} worker(s)\n",
        started.elapsed().as_secs_f64()
    );
    print!("{}", board.summary());
    let out = if checking { out } else { Some(out.unwrap_or(COMMITTED.into())) };
    if let Some(path) = out {
        std::fs::write(&path, board.to_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        println!("\nwrote {path}");
    }
    let Some(base) = base else { return };
    let report = check(&base, &board);
    println!("\nmoves against {COMMITTED} (VRDAG means beyond ±10%, rank changes):");
    for line in &report.moves {
        println!("  {line}");
    }
    if report.violations.is_empty() {
        println!("\nfidelity check passed against {COMMITTED}");
    } else {
        println!("\nfidelity check FAILED against {COMMITTED}:");
        for line in &report.violations {
            println!("  {line}");
        }
        exit(1);
    }
}
