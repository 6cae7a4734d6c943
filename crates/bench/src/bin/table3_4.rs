//! **Tables III & IV** — scalability against the number of temporal edges
//! on GDELT: training time (Table III) and generation time (Table IV) for
//! {TagGen, TGGAN, TIGGER, VRDAG} as the edge stream is truncated to
//! increasing budgets (the paper uses 1k / 10k / 100k / 500k; scaled runs
//! use the same 1:10:100:500 ratio of the scaled stream).

use vrdag_bench::harness::{fit_and_generate, make_method, RunOpts};
use vrdag_bench::report::{results_dir, Table};

const METHODS: [&str; 4] = ["TagGen", "TGGAN", "TIGGER", "VRDAG"];

fn main() {
    let opts = RunOpts::from_env(&[]);
    let spec = vrdag_datasets::gdelt().scaled(opts.scale.factor());
    let full = vrdag_datasets::generate(&spec, opts.seed);
    let m_full = full.temporal_edge_count();
    // Paper budgets 1k/10k/100k/500k, proportionally rescaled.
    let budgets: Vec<usize> = [1_000f64, 10_000.0, 100_000.0, 500_000.0]
        .iter()
        .map(|&b| ((b / 566_735.0) * m_full as f64).round().max(64.0) as usize)
        .collect();
    println!(
        "Tables III/IV reproduction (scalability on GDELT) | scale={} seed={} M={}\n",
        opts.scale.name(),
        opts.seed,
        m_full
    );
    let headers: Vec<String> = budgets.iter().map(|b| format!("{b} edges")).collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut train_table = Table::new("Table III — training time (s)", &header_refs);
    let mut gen_table = Table::new("Table IV — generation time (s)", &header_refs);
    for method in METHODS {
        let mut train_row = Vec::new();
        let mut gen_row = Vec::new();
        for &budget in &budgets {
            let graph = full.truncate_temporal_edges(budget);
            let mut gen = make_method(method, opts.scale, opts.seed);
            let run = fit_and_generate(&mut gen, &graph, opts.seed ^ budget as u64)
                .unwrap_or_else(|e| panic!("{method} @{budget}: {e}"));
            train_row.push(run.fit_seconds);
            gen_row.push(run.generate_seconds);
        }
        train_table.push_row(method, train_row);
        gen_table.push_row(method, gen_row);
    }
    train_table.print();
    println!();
    gen_table.print();
    train_table.write_tsv(results_dir().join("table3_train.tsv")).expect("write results");
    gen_table.write_tsv(results_dir().join("table4_generate.tsv")).expect("write results");
    println!("\nwrote {}/table[3|4]_*.tsv", results_dir().display());
}
