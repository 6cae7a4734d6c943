//! `vrdag-perf compare`: the declarative regression gate. Reads each
//! metric's direction and bound from `BENCHMARK.json`, the reports of a
//! set of base runs and a set of head runs, and prints each side's
//! median and quartiles per workload. An end-to-end metric is
//! `regressed` when the head median is worse than the base median by
//! more than its bound, and `unresolved` when either side's spread
//! (quartile distance over median) exceeds the bound — unless every head
//! run beats every base run.

use crate::json::{self, Value};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One metric's gate as `BENCHMARK.json` declares it.
#[derive(Debug, PartialEq)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// `None` for per-layer metrics, which are reported but not gated.
    pub bound: Option<f64>,
}

pub fn gates(bench: &Value) -> Result<Vec<Gate>, String> {
    let mut out = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in bench.get(key).ok_or(format!("BENCHMARK.json has no {key}"))?.as_array() {
            let field =
                |f: &str| m.get(f).and_then(Value::as_str).ok_or(format!("{key} entry lacks {f}"));
            out.push(Gate {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                higher_is_better: field("better")? == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            });
        }
    }
    Ok(out)
}

/// The workloads `BENCHMARK.json` gates; other workloads' reports are
/// printed without a verdict.
pub fn gated_workloads(bench: &Value) -> Result<Vec<String>, String> {
    let list = bench.get("workloads").ok_or("BENCHMARK.json has no workloads")?.as_array();
    list.iter()
        .map(|w| {
            let name = w.get("name").and_then(Value::as_str);
            name.map(str::to_string).ok_or("workloads entry lacks name".to_string())
        })
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    /// Per-layer: no bound, nothing to judge.
    Info,
}

/// Judge one metric from its base and head values.
pub fn judge(gate: &Gate, base: &[f64], head: &[f64]) -> Verdict {
    let Some(bound) = gate.bound else { return Verdict::Info };
    let (Some((b1, bm, b3)), Some((h1, hm, h3))) = (quartiles(base), quartiles(head)) else {
        return Verdict::Unresolved;
    };
    let better = |a: f64, b: f64| if gate.higher_is_better { a > b } else { a < b };
    let spread =
        |q1: f64, q3: f64, m: f64| if m == 0.0 { f64::INFINITY } else { (q3 - q1) / m.abs() };
    let all_head_better = head.iter().all(|&h| base.iter().all(|&b| better(h, b)));
    if (spread(b1, b3, bm) > bound || spread(h1, h3, hm) > bound) && !all_head_better {
        return Verdict::Unresolved;
    }
    let worse = if gate.higher_is_better { (bm - hm) / bm.abs() } else { (hm - bm) / bm.abs() };
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// (workload, traced) → metric → values, over every `report-*.json` in
/// the given directories.
type Reports = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

fn load_reports(dirs: &[PathBuf]) -> Result<Reports, String> {
    let mut out = Reports::new();
    for dir in dirs {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut files: Vec<PathBuf> = entries.filter_map(|e| Some(e.ok()?.path())).collect();
        files.sort();
        for path in files {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("report-") && name.ends_with(".json")) {
                continue;
            }
            let report = read_json(&path)?;
            let workload =
                report.get("workload").and_then(Value::as_str).unwrap_or("?").to_string();
            let traced = report.get("trace") == Some(&Value::Bool(true));
            let metrics = out.entry((workload, traced)).or_default();
            let sections = ["metrics", "extras"].map(|s| report.get(s).map(Value::entries));
            for (name, m) in sections.into_iter().flatten().flatten() {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    metrics.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(out)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn summary(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, m, q3)) => format!("{m:>12.4} [{q1:.4}, {q3:.4}]"),
        None => format!("{:>12}", "-"),
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let (mut base, mut head, mut bench) = (Vec::new(), Vec::new(), PathBuf::from("BENCHMARK.json"));
    let mut side: Option<&mut Vec<PathBuf>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--base" => side = Some(&mut base),
            "--head" => side = Some(&mut head),
            "--bench" => match it.next() {
                Some(p) => bench = PathBuf::from(p),
                None => {
                    eprintln!("vrdag-perf compare: --bench needs a path");
                    return ExitCode::from(2);
                }
            },
            dir => match side.as_deref_mut() {
                Some(v) => v.push(PathBuf::from(dir)),
                None => {
                    eprintln!("vrdag-perf compare: {dir:?} given before --base/--head");
                    return ExitCode::from(2);
                }
            },
        }
    }
    if base.is_empty() || head.is_empty() {
        eprintln!("vrdag-perf compare: need --base <dir>... and --head <dir>...");
        return ExitCode::from(2);
    }
    let loaded = read_json(&bench).and_then(|b| {
        Ok((gates(&b)?, gated_workloads(&b)?, load_reports(&base)?, load_reports(&head)?))
    });
    let (gates, gated, base, head) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("vrdag-perf compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut flagged = 0;
    for (key, base_metrics) in &base {
        let Some(head_metrics) = head.get(key) else { continue };
        let is_gated = gated.contains(&key.0);
        println!(
            "== {}{}{}",
            key.0,
            if key.1 { " (traced)" } else { "" },
            if is_gated { "" } else { " (not gated)" }
        );
        println!(
            "  {:<36} {:>30} {:>30}  verdict",
            "metric", "base median [q1, q3]", "head median [q1, q3]"
        );
        for gate in &gates {
            let (Some(b), Some(h)) = (base_metrics.get(&gate.name), head_metrics.get(&gate.name))
            else {
                continue;
            };
            let verdict = if is_gated { judge(gate, b, h) } else { Verdict::Info };
            if matches!(verdict, Verdict::Regressed | Verdict::Unresolved) {
                flagged += 1;
            }
            let label = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "UNRESOLVED",
                Verdict::Info => "-",
            };
            println!("  {:<36} {} {}  {label} ({})", gate.name, summary(b), summary(h), gate.unit);
        }
    }
    println!("{flagged} end-to-end metric(s) flagged");
    if flagged == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher: bool, bound: Option<f64>) -> Gate {
        Gate { name: "m".into(), unit: "ms".into(), higher_is_better: higher, bound }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = gate(false, Some(0.1));
        assert_eq!(judge(&lower, &[100.0, 101.0, 99.0], &[105.0, 104.0, 106.0]), Verdict::Ok);
        assert_eq!(
            judge(&lower, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Regressed
        );
        // A wide base spread leaves a worse head unresolved...
        assert_eq!(
            judge(&lower, &[50.0, 100.0, 150.0], &[120.0, 121.0, 119.0]),
            Verdict::Unresolved
        );
        // ...unless every head run beats every base run.
        assert_eq!(judge(&lower, &[50.0, 100.0, 150.0], &[40.0, 41.0, 39.0]), Verdict::Ok);
        let higher = gate(true, Some(0.1));
        assert_eq!(judge(&higher, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]), Verdict::Regressed);
        assert_eq!(judge(&gate(true, None), &[1.0], &[2.0]), Verdict::Info);
    }

    #[test]
    fn gates_read_from_the_benchmark_file() {
        let bench = json::parse(
            r#"{"end_to_end": [{"name": "job_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "core.step_ms_p50", "unit": "ms", "better": "lower"}]}"#,
        )
        .unwrap();
        let g = gates(&bench).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].bound, Some(0.1));
        assert!(!g[1].higher_is_better && g[1].bound.is_none());
    }
}
