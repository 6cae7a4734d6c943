//! The fidelity scoreboard: every Table I and Table II cell over a fixed
//! set of seeds, committed as `FIDELITY.json`, and the rule that gates a
//! change of generated bits against it.
//!
//! A cell is one `(table, dataset, metric)`; it holds every method's
//! per-seed value. Every metric is an error, so lower is better. The rule
//! ([`check`]) fails a change when, in any cell:
//!
//! - VRDAG's mean over the seeds is worse than the committed mean by more
//!   than [`MAX_WORSENING`] (25%, the benchmark's timing bound);
//! - VRDAG now trails a method by more than their combined standard error
//!   over the seeds, where the committed scoreboard did not. Closer means
//!   count as ties, because VRDAG's per-seed ranks swing on their own.

use crate::grids::{
    table1_rows, table2_row, TABLE1_DATASETS, TABLE1_METHODS, TABLE2_DATASETS, TABLE2_METHODS,
};
use crate::harness::{load_dataset, Scale};
use std::fmt::Write as _;
use vrdag_metrics::structure::StructureReport;

/// The seeds of the committed scoreboard.
pub const SEEDS: [u64; 6] = [42, 1, 2, 3, 4, 5];

/// How much worse than the committed mean a VRDAG mean cell may get.
pub const MAX_WORSENING: f64 = 0.25;

/// The method whose cells are gated.
pub const GATED: &str = "VRDAG";

/// Table II's one metric.
const SPEARMAN_MAE: &str = "Spearman MAE";

/// One `(table, dataset, metric)` cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// `"I"` or `"II"`.
    pub table: String,
    pub dataset: String,
    pub metric: String,
    /// Per method, in the table's column order, one value per seed;
    /// `None` where the method did not run or gave a non-finite value.
    pub values: Vec<(String, Vec<Option<f64>>)>,
}

/// Mean and standard error of a method's values in one cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub mean: f64,
    /// Sample standard deviation over `√n`; 0 for a single value.
    pub se: f64,
}

impl Cell {
    /// Stat of `method` over the seeds it ran on; `None` if it ran on none.
    pub fn stat(&self, method: &str) -> Option<Stat> {
        let (_, vals) = self.values.iter().find(|(m, _)| m == method)?;
        let xs: Vec<f64> = vals.iter().flatten().copied().collect();
        if xs.is_empty() {
            return None;
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let se = if xs.len() < 2 {
            0.0
        } else {
            (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0) / n).sqrt()
        };
        Some(Stat { mean, se })
    }

    /// [`GATED`]'s rank by mean: 1 plus the number of methods with a
    /// strictly lower mean.
    pub fn rank(&self) -> Option<usize> {
        let own = self.stat(GATED)?.mean;
        let lower =
            self.values.iter().filter_map(|(m, _)| self.stat(m)).filter(|s| s.mean < own).count();
        Some(1 + lower)
    }

    /// Whether [`GATED`] trails `method` by more than their combined
    /// standard error.
    fn trails(&self, method: &str) -> bool {
        match (self.stat(GATED), self.stat(method)) {
            (Some(v), Some(m)) => v.mean - m.mean > (v.se * v.se + m.se * m.se).sqrt(),
            _ => false,
        }
    }

    fn key(&self) -> String {
        format!("Table {} {} {}", self.table, self.dataset, self.metric)
    }
}

/// Every Table I and Table II cell at one scale over a set of seeds.
#[derive(Clone, Debug, PartialEq)]
pub struct Scoreboard {
    pub scale: Scale,
    pub seeds: Vec<u64>,
    pub cells: Vec<Cell>,
}

/// One seed's grids: per dataset, per method, Table I's eight metrics;
/// per dataset, Table II's one value per method.
struct SeedGrids {
    table1: Vec<Vec<Option<[f64; 8]>>>,
    table2: Vec<Vec<f64>>,
}

fn seed_grids(scale: Scale, seed: u64) -> SeedGrids {
    let graph = |name: &str| {
        let spec = vrdag_datasets::by_name(name).expect("a paper dataset").scaled(scale.factor());
        load_dataset(&spec, seed)
    };
    let table1 = TABLE1_DATASETS
        .iter()
        .map(|&d| {
            eprintln!("seed {seed}: Table I {d}");
            table1_rows(&graph(d), scale, seed).into_iter().map(|(_, row)| row).collect()
        })
        .collect();
    let table2 = TABLE2_DATASETS
        .iter()
        .map(|&d| {
            eprintln!("seed {seed}: Table II {d}");
            table2_row(&graph(d), scale, seed)
        })
        .collect();
    SeedGrids { table1, table2 }
}

/// Run both grids at `scale` for every seed, on up to `workers` threads
/// (one seed per thread at a time). The values do not depend on
/// `workers`: each seed's runs are the `table1`/`table2` binaries' runs.
pub fn collect(scale: Scale, seeds: &[u64], workers: usize) -> Scoreboard {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut grids: Vec<Option<SeedGrids>> = (0..seeds.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, seeds.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&seed) = seeds.get(i) else { break done };
                        done.push((i, seed_grids(scale, seed)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, g) in handle.join().expect("a grid worker panicked") {
                grids[i] = Some(g);
            }
        }
    });
    let grids: Vec<SeedGrids> = grids.into_iter().map(|g| g.expect("every seed ran")).collect();
    let finite = |v: f64| Some(v).filter(|v| v.is_finite());
    let mut cells = Vec::new();
    for (d, dataset) in TABLE1_DATASETS.iter().enumerate() {
        for (x, metric) in StructureReport::headers().iter().enumerate() {
            let values = TABLE1_METHODS
                .iter()
                .enumerate()
                .map(|(m, method)| {
                    let per_seed = grids.iter().map(|g| g.table1[d][m].and_then(|r| finite(r[x])));
                    (method.to_string(), per_seed.collect())
                })
                .collect();
            cells.push(Cell {
                table: "I".into(),
                dataset: dataset.to_string(),
                metric: metric.to_string(),
                values,
            });
        }
    }
    for (d, dataset) in TABLE2_DATASETS.iter().enumerate() {
        let values = TABLE2_METHODS
            .iter()
            .enumerate()
            .map(|(m, method)| {
                (method.to_string(), grids.iter().map(|g| finite(g.table2[d][m])).collect())
            })
            .collect();
        cells.push(Cell {
            table: "II".into(),
            dataset: dataset.to_string(),
            metric: SPEARMAN_MAE.into(),
            values,
        });
    }
    Scoreboard { scale, seeds: seeds.to_vec(), cells }
}

/// The outcome of [`check`].
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Breaches of the rule; the check passes when this is empty.
    pub violations: Vec<String>,
    /// VRDAG mean cells that moved by more than 10% either way, and VRDAG
    /// rank changes, for the record.
    pub moves: Vec<String>,
}

/// Gate `current` against the committed `baseline` (see the module docs).
pub fn check(baseline: &Scoreboard, current: &Scoreboard) -> CheckReport {
    let mut report = CheckReport::default();
    if baseline.scale != current.scale || baseline.seeds != current.seeds {
        report.violations.push(format!(
            "grid mismatch: baseline is scale {} seeds {:?}, current is scale {} seeds {:?}",
            baseline.scale.name(),
            baseline.seeds,
            current.scale.name(),
            current.seeds
        ));
        return report;
    }
    for base in &baseline.cells {
        let key = base.key();
        let Some(cur) = current.cells.iter().find(|c| c.key() == key) else {
            report.violations.push(format!("{key}: missing from the current scoreboard"));
            continue;
        };
        let (Some(b), Some(c)) = (base.stat(GATED), cur.stat(GATED)) else {
            if base.stat(GATED).is_some() {
                report.violations.push(format!("{key}: {GATED} no longer has a value"));
            }
            continue;
        };
        if c.mean > b.mean * (1.0 + MAX_WORSENING) {
            report.violations.push(format!(
                "{key}: {GATED} mean {:.4} is worse than {:.4} by more than {:.0}%",
                c.mean,
                b.mean,
                MAX_WORSENING * 100.0
            ));
        }
        if (c.mean - b.mean).abs() > 0.10 * b.mean.abs() {
            report.moves.push(format!(
                "{key}: {GATED} mean {:.4} -> {:.4} ({:+.1}%)",
                b.mean,
                c.mean,
                (c.mean / b.mean - 1.0) * 100.0
            ));
        }
        if base.rank() != cur.rank() {
            report.moves.push(format!(
                "{key}: {GATED} rank {} -> {}",
                base.rank().unwrap_or(0),
                cur.rank().unwrap_or(0)
            ));
        }
        for (method, _) in cur.values.iter().filter(|(m, _)| m != GATED) {
            if cur.trails(method) && !base.trails(method) {
                let m = cur.stat(method).expect("a trailed method has a value");
                report.violations.push(format!(
                    "{key}: {GATED} ({:.4} ± {:.4}) now trails {method} ({:.4} ± {:.4}) \
                     beyond their combined standard error",
                    c.mean, c.se, m.mean, m.se
                ));
            }
        }
    }
    report
}

impl Scoreboard {
    /// One line per cell: VRDAG's mean, rank and the best method.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            let best = cell
                .values
                .iter()
                .filter_map(|(m, _)| cell.stat(m).map(|s| (m, s.mean)))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            let _ = writeln!(
                out,
                "{:<44} {GATED} {:>10} rank {:>2}   best {}",
                cell.key(),
                cell.stat(GATED).map_or("—".into(), |s| format!("{:.4}", s.mean)),
                cell.rank().map_or("—".into(), |r| r.to_string()),
                best.map_or("—".into(), |(m, v)| format!("{m} {v:.4}"))
            );
        }
        out
    }

    /// The committed JSON form. Per-seed values round-trip exactly;
    /// `vrdag_mean` and `vrdag_rank` are derived for readers, and
    /// [`Scoreboard::from_json`] recomputes them from the values.
    pub fn to_json(&self) -> String {
        let num = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:?}"));
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"scale\": \"{}\",", self.scale.name());
        let seeds: Vec<String> = self.seeds.iter().map(|s| s.to_string()).collect();
        let _ = writeln!(out, "  \"seeds\": [{}],", seeds.join(", "));
        let _ = writeln!(out, "  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"table\": \"{}\",", cell.table);
            let _ = writeln!(out, "      \"dataset\": \"{}\",", cell.dataset);
            let _ = writeln!(out, "      \"metric\": \"{}\",", cell.metric);
            let _ =
                writeln!(out, "      \"vrdag_mean\": {},", num(cell.stat(GATED).map(|s| s.mean)));
            let rank = cell.rank().map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(out, "      \"vrdag_rank\": {rank},");
            let _ = writeln!(out, "      \"values\": {{");
            for (k, (method, vals)) in cell.values.iter().enumerate() {
                let vals: Vec<String> = vals.iter().map(|&v| num(v)).collect();
                let comma = if k + 1 < cell.values.len() { "," } else { "" };
                let _ = writeln!(out, "        \"{method}\": [{}]{comma}", vals.join(", "));
            }
            let _ = writeln!(out, "      }}");
            let _ = writeln!(out, "    }}{}", if i + 1 < self.cells.len() { "," } else { "" });
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Read back [`Scoreboard::to_json`]'s layout: one `"key": value`
    /// per line. A cell starts at its `"table"` line, and every key that
    /// follows other than `dataset`, `metric`, `vrdag_mean`, `vrdag_rank`
    /// and `values` is a method with its per-seed list. `vrdag_mean` and
    /// `vrdag_rank` are not read: they are recomputed from the values.
    pub fn from_json(text: &str) -> Result<Scoreboard, String> {
        let (mut scale, mut seeds, mut cells) = (None, None, Vec::<Cell>::new());
        for (no, line) in text.lines().enumerate() {
            let Some((key, value)) = line.trim().split_once("\": ") else { continue };
            let (key, value) = (key.trim_start_matches('"'), value.trim_end_matches(','));
            let err = |what: &str| format!("line {}: {what}", no + 1);
            let quoted = || {
                let text = value.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
                text.map(str::to_string).ok_or_else(|| err("expected a quoted string"))
            };
            let list = || {
                let items = value.strip_prefix('[').and_then(|v| v.strip_suffix(']'));
                let items = items.ok_or_else(|| err("expected a [...] list"))?;
                items
                    .split(", ")
                    .filter(|item| !item.is_empty())
                    .map(|item| match item {
                        "null" => Ok(None),
                        x => x.parse().map(Some).map_err(|_| err(&format!("bad number {x:?}"))),
                    })
                    .collect::<Result<Vec<Option<f64>>, String>>()
            };
            match key {
                "scale" => {
                    scale = Some(Scale::parse(&quoted()?).ok_or_else(|| err("unknown scale"))?)
                }
                "seeds" => {
                    let list = list()?.into_iter().map(|s| s.map(|x| x as u64));
                    seeds = Some(list.collect::<Option<_>>().ok_or_else(|| err("a null seed"))?);
                }
                "cells" | "vrdag_mean" | "vrdag_rank" | "values" => {}
                "table" => cells.push(Cell {
                    table: quoted()?,
                    dataset: String::new(),
                    metric: String::new(),
                    values: Vec::new(),
                }),
                _ => {
                    let cell = cells.last_mut().ok_or_else(|| err("a key before any cell"))?;
                    match key {
                        "dataset" => cell.dataset = quoted()?,
                        "metric" => cell.metric = quoted()?,
                        method => cell.values.push((method.to_string(), list()?)),
                    }
                }
            }
        }
        Ok(Scoreboard {
            scale: scale.ok_or("no \"scale\" line")?,
            seeds: seeds.ok_or("no \"seeds\" line")?,
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(values: &[(&str, &[Option<f64>])]) -> Cell {
        Cell {
            table: "I".into(),
            dataset: "Email".into(),
            metric: "NC".into(),
            values: values.iter().map(|(m, v)| (m.to_string(), v.to_vec())).collect(),
        }
    }

    fn board(cells: Vec<Cell>) -> Scoreboard {
        Scoreboard { scale: Scale::Small, seeds: vec![42, 1, 2], cells }
    }

    #[test]
    fn json_round_trips_every_value_exactly() {
        let b = board(vec![cell(&[
            ("GRAN", &[Some(0.1), None, Some(1e-300)]),
            ("VRDAG", &[Some(0.019_312_345_678_9), Some(3.0), Some(-2.5e7)]),
        ])]);
        let back = Scoreboard::from_json(&b.to_json()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn the_committed_scoreboard_reads_back_to_its_own_text() {
        let text = include_str!("../../../FIDELITY.json");
        let board = Scoreboard::from_json(text).unwrap();
        assert_eq!(board.seeds, SEEDS);
        assert_eq!(board.to_json(), text);
    }

    #[test]
    fn a_value_that_does_not_parse_names_its_line() {
        let text = board(vec![cell(&[("VRDAG", &[Some(1.0)])])]).to_json();
        let broken = text.replace("[1.0]", "[1.0.0]");
        let err = Scoreboard::from_json(&broken).unwrap_err();
        assert!(err.starts_with("line 12: bad number"), "{err}");
        assert!(Scoreboard::from_json("{}").is_err(), "no scale, no seeds");
    }

    #[test]
    fn stats_and_rank_skip_missing_seeds() {
        let c = cell(&[
            ("A", &[Some(1.0), Some(3.0), None]),
            ("B", &[None, None, None]),
            ("VRDAG", &[Some(1.5), Some(1.5), Some(1.5)]),
        ]);
        let a = c.stat("A").unwrap();
        assert_eq!(a.mean, 2.0);
        assert!((a.se - 1.0).abs() < 1e-12, "sd √2 over √2 seeds");
        assert_eq!(c.stat("B"), None);
        assert_eq!(c.stat("VRDAG").unwrap().se, 0.0);
        assert_eq!(c.rank(), Some(1));
    }

    #[test]
    fn a_mean_worse_by_more_than_the_bound_fails() {
        let base = board(vec![cell(&[("VRDAG", &[Some(1.0), Some(1.0), Some(1.0)])])]);
        let within = board(vec![cell(&[("VRDAG", &[Some(1.2), Some(1.2), Some(1.2)])])]);
        let beyond = board(vec![cell(&[("VRDAG", &[Some(1.3), Some(1.3), Some(1.3)])])]);
        let ok = check(&base, &within);
        assert!(ok.violations.is_empty(), "{:?}", ok.violations);
        assert_eq!(ok.moves.len(), 1, "a 20% move is recorded");
        assert_eq!(check(&base, &beyond).violations.len(), 1);
    }

    #[test]
    fn only_a_rank_loss_beyond_the_standard_error_fails() {
        let v = |x: f64| [Some(x - 0.2), Some(x), Some(x + 0.2)];
        let base = board(vec![cell(&[("A", &v(1.0)), ("VRDAG", &v(0.95))])]);
        // A now leads by 0.05, inside the combined standard error (0.2/√3
        // per side, ≈ 0.163 combined): a tie.
        let tie = board(vec![cell(&[("A", &v(0.95)), ("VRDAG", &v(1.0))])]);
        assert!(check(&base, &tie).violations.is_empty());
        assert_eq!(check(&base, &tie).moves, vec!["Table I Email NC: VRDAG rank 1 -> 2"]);
        // A leads by 0.2, beyond it.
        let loss = board(vec![cell(&[("A", &v(0.9)), ("VRDAG", &v(1.1))])]);
        assert_eq!(check(&base, &loss).violations.len(), 1);
        // A loss the baseline already had is not a new one.
        assert!(check(&loss, &loss).violations.is_empty());
    }

    #[test]
    fn a_different_grid_fails() {
        let base = board(vec![cell(&[("VRDAG", &[Some(1.0); 3])])]);
        let mut other = base.clone();
        other.seeds = vec![1, 2, 3];
        assert_eq!(check(&base, &other).violations.len(), 1);
        assert_eq!(check(&base, &board(vec![])).violations.len(), 1);
    }
}
