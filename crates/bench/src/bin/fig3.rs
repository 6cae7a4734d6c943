//! **Fig. 3** — node attribute distribution quality: average JSD and EMD
//! between synthetic and original attribute distributions for
//! {VRDAG, GenCAT, Normal} on all six datasets.

use vrdag_bench::harness::{fit_and_generate, load_dataset, make_method, selected_specs, RunOpts};
use vrdag_bench::report::{results_dir, Table};
use vrdag_metrics::attribute::attribute_report;

const METHODS: [&str; 3] = ["VRDAG", "GenCAT", "Normal"];
const ALL_DATASETS: [&str; 6] = ["Email", "Bitcoin", "Wiki", "Guarantee", "Brain", "GDELT"];

fn main() {
    let opts = RunOpts::from_env(&[]);
    let specs = selected_specs(&opts, &ALL_DATASETS);
    println!(
        "Fig. 3 reproduction (attribute JSD / EMD) | scale={} seed={}\n",
        opts.scale.name(),
        opts.seed
    );
    let mut jsd_table = Table::new("Fig. 3(a) — JSD", &METHODS);
    let mut emd_table = Table::new("Fig. 3(b) — EMD", &METHODS);
    for spec in &specs {
        let graph = load_dataset(spec, opts.seed);
        let mut jsd_row = Vec::new();
        let mut emd_row = Vec::new();
        for method in METHODS {
            let mut gen = make_method(method, opts.scale, opts.seed);
            let run = fit_and_generate(&mut gen, &graph, opts.seed ^ 0xF16)
                .unwrap_or_else(|e| panic!("{method} on {}: {e}", spec.name));
            let rep = attribute_report(&graph, &run.generated);
            jsd_row.push(rep.jsd);
            emd_row.push(rep.emd);
        }
        jsd_table.push_row(spec.name.clone(), jsd_row);
        emd_table.push_row(spec.name.clone(), emd_row);
    }
    jsd_table.print();
    println!();
    emd_table.print();
    jsd_table.write_tsv(results_dir().join("fig3_jsd.tsv")).expect("write results");
    emd_table.write_tsv(results_dir().join("fig3_emd.tsv")).expect("write results");
    println!("\nwrote {}/fig3_[jsd|emd].tsv", results_dir().display());
}
