//! **Table II** — mean absolute error across Spearman's correlation
//! coefficients of attributes on Email and Guarantee (the two datasets
//! with ≥ 2 attribute dimensions), for {Normal, GenCAT, VRDAG}.

use vrdag_bench::grids::{table2_row, TABLE2_DATASETS, TABLE2_METHODS};
use vrdag_bench::harness::{load_dataset, selected_specs, RunOpts};
use vrdag_bench::report::{results_dir, Table};

fn main() {
    let opts = RunOpts::from_env(&[]);
    let specs = selected_specs(&opts, &TABLE2_DATASETS);
    println!(
        "Table II reproduction (Spearman correlation MAE) | scale={} seed={}\n",
        opts.scale.name(),
        opts.seed
    );
    let mut table = Table::new("Table II", &TABLE2_METHODS);
    for spec in &specs {
        let graph = load_dataset(spec, opts.seed);
        table.push_row(spec.name.clone(), table2_row(&graph, opts.scale, opts.seed));
    }
    table.print();
    let out = results_dir().join("table2.tsv");
    table.write_tsv(&out).expect("write results");
    println!("\nwrote {}", out.display());
}
