//! **Table I** — network structure generation performance: eight structure
//! metrics × six datasets × {GRAN, GenCAT, TagGen, Dymond, TGGAN, TIGGER,
//! VRDAG}. Dymond rows that hit the motif budget are reported as missing,
//! matching the paper's note that Dymond only runs on the smallest dataset.

use vrdag_bench::grids::{table1_rows, TABLE1_DATASETS};
use vrdag_bench::harness::{load_dataset, selected_specs, RunOpts};
use vrdag_bench::report::{results_dir, Table};
use vrdag_metrics::structure::StructureReport;

fn main() {
    let opts = RunOpts::from_env(&[]);
    let specs = selected_specs(&opts, &TABLE1_DATASETS);
    println!(
        "Table I reproduction | scale={} seed={} ({} datasets)\n",
        opts.scale.name(),
        opts.seed,
        specs.len()
    );
    let headers = StructureReport::headers();
    let mut combined = Table::new("Table I (all datasets)", &headers);
    for spec in &specs {
        let graph = load_dataset(spec, opts.seed);
        println!(
            "-- {}: N={} M={} X={} T={}",
            spec.name,
            graph.n_nodes(),
            graph.temporal_edge_count(),
            graph.n_attrs(),
            graph.t_len()
        );
        let mut table = Table::new(format!("Table I — {}", spec.name), &headers);
        for (method, row) in table1_rows(&graph, opts.scale, opts.seed) {
            let values = row.map_or_else(|| vec![None; headers.len()], |r| r.map(Some).to_vec());
            table.push_row_opt(method, values.clone());
            combined.push_row_opt(format!("{}/{}", spec.name, method), values);
        }
        table.print();
        println!();
    }
    let out = results_dir().join("table1.tsv");
    combined.write_tsv(&out).expect("write results");
    println!("wrote {}", out.display());
}
