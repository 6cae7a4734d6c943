//! **Fig. 9** — efficiency evaluation: (a) training and (b) generation
//! wall time of {VRDAG, TIGGER, TGGAN, TagGen} on all six datasets; with
//! `--trend`, (c)/(d) time vs. number of timesteps on Bitcoin.

use vrdag_bench::harness::{fit_and_generate, load_dataset, make_method, selected_specs, RunOpts};
use vrdag_bench::report::{results_dir, Table};

const METHODS: [&str; 4] = ["VRDAG", "TIGGER", "TGGAN", "TagGen"];
const ALL_DATASETS: [&str; 6] = ["Email", "Bitcoin", "Wiki", "Guarantee", "Brain", "GDELT"];

fn main() {
    let opts = RunOpts::from_env(&["--trend"]);
    println!("Fig. 9 reproduction (efficiency) | scale={} seed={}\n", opts.scale.name(), opts.seed);
    if opts.has_flag("--trend") {
        trend(&opts);
        return;
    }
    let specs = selected_specs(&opts, &ALL_DATASETS);
    let mut train_table = Table::new("Fig. 9(a) — training time (s)", &METHODS);
    let mut gen_table = Table::new("Fig. 9(b) — generation time (s)", &METHODS);
    for spec in &specs {
        let graph = load_dataset(spec, opts.seed);
        let mut train_row = Vec::new();
        let mut gen_row = Vec::new();
        for method in METHODS {
            let mut gen = make_method(method, opts.scale, opts.seed);
            let run = fit_and_generate(&mut gen, &graph, opts.seed ^ 0xF9)
                .unwrap_or_else(|e| panic!("{method} on {}: {e}", spec.name));
            train_row.push(run.fit_seconds);
            gen_row.push(run.generate_seconds);
        }
        train_table.push_row(spec.name.clone(), train_row);
        gen_table.push_row(spec.name.clone(), gen_row);
    }
    train_table.print();
    println!();
    gen_table.print();
    train_table.write_tsv(results_dir().join("fig9a_train.tsv")).expect("write results");
    gen_table.write_tsv(results_dir().join("fig9b_generate.tsv")).expect("write results");
    println!("\nwrote {}/fig9[a|b]_*.tsv", results_dir().display());
}

/// Fig. 9(c)/(d): running time against the number of timesteps on Bitcoin.
fn trend(opts: &RunOpts) {
    let base = vrdag_datasets::bitcoin().scaled(opts.scale.factor());
    let t_values = [5usize, 10, 15, 20, 25, 30, 35];
    let headers: Vec<String> = t_values.iter().map(|t| format!("T={t}")).collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut train_table = Table::new("Fig. 9(c) — training time vs T (s), Bitcoin", &header_refs);
    let mut gen_table = Table::new("Fig. 9(d) — generation time vs T (s), Bitcoin", &header_refs);
    for method in METHODS {
        let mut train_row = Vec::new();
        let mut gen_row = Vec::new();
        for &t in &t_values {
            let spec = base.with_t(t);
            let graph = load_dataset(&spec, opts.seed);
            let mut gen = make_method(method, opts.scale, opts.seed);
            let run = fit_and_generate(&mut gen, &graph, opts.seed ^ t as u64)
                .unwrap_or_else(|e| panic!("{method} T={t}: {e}"));
            train_row.push(run.fit_seconds);
            gen_row.push(run.generate_seconds);
        }
        train_table.push_row(method, train_row);
        gen_table.push_row(method, gen_row);
    }
    train_table.print();
    println!();
    gen_table.print();
    train_table.write_tsv(results_dir().join("fig9c_train_trend.tsv")).expect("write results");
    gen_table.write_tsv(results_dir().join("fig9d_generate_trend.tsv")).expect("write results");
    println!("\nwrote {}/fig9[c|d]_*.tsv", results_dir().display());
}
