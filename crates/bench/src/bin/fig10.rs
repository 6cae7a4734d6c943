//! **Fig. 10** — application to downstream data augmentation: train a
//! CoEvoGNN-like forecaster on the original sequence with and without
//! synthetic augmentation ({VRDAG, GenCAT}) and compare link-prediction F1
//! and attribute-prediction RMSE on the held-out final snapshot, averaged
//! over multiple runs (the paper uses 5).

use vrdag_bench::harness::{fit_and_generate, load_dataset, make_method, selected_specs, RunOpts};
use vrdag_bench::report::{results_dir, Table};
use vrdag_downstream::{evaluate_augmentation, CoEvoConfig};

const CONDITIONS: [&str; 3] = ["VRDAG", "GenCAT", "NoAug"];
const RUNS: usize = 3;

fn main() {
    let opts = RunOpts::from_env(&[]);
    let specs = selected_specs(&opts, &["Email", "Wiki", "GDELT"]);
    println!(
        "Fig. 10 reproduction (downstream augmentation, {} runs) | scale={} seed={}\n",
        RUNS,
        opts.scale.name(),
        opts.seed
    );
    let mut f1_table = Table::new("Fig. 10(a) — link prediction F1", &CONDITIONS);
    let mut rmse_table = Table::new("Fig. 10(b) — attribute prediction RMSE", &CONDITIONS);
    for spec in &specs {
        let graph = load_dataset(spec, opts.seed);
        // Fit the two augmenters once per dataset.
        let mut augmentations: Vec<(&str, Option<vrdag_graph::DynamicGraph>)> = Vec::new();
        for method in ["VRDAG", "GenCAT"] {
            let mut gen = make_method(method, opts.scale, opts.seed);
            let run = fit_and_generate(&mut gen, &graph, opts.seed ^ 0xF10)
                .unwrap_or_else(|e| panic!("{method} on {}: {e}", spec.name));
            augmentations.push((method, Some(run.generated)));
        }
        augmentations.push(("NoAug", None));
        let mut f1_row = Vec::new();
        let mut rmse_row = Vec::new();
        for (name, aug) in &augmentations {
            let mut f1 = 0.0;
            let mut rmse = 0.0;
            for run in 0..RUNS {
                let cfg = CoEvoConfig {
                    seed: opts.seed ^ (run as u64 * 7919),
                    epochs: 20,
                    ..CoEvoConfig::default()
                };
                let r = evaluate_augmentation(&graph, aug.as_ref(), cfg);
                f1 += r.f1 / RUNS as f64;
                rmse += r.rmse / RUNS as f64;
            }
            println!("   {} + {name}: F1={f1:.4} RMSE={rmse:.4}", spec.name);
            f1_row.push(f1);
            rmse_row.push(rmse);
        }
        f1_table.push_row(spec.name.clone(), f1_row);
        rmse_table.push_row(spec.name.clone(), rmse_row);
    }
    println!();
    f1_table.print();
    println!();
    rmse_table.print();
    f1_table.write_tsv(results_dir().join("fig10a_f1.tsv")).expect("write results");
    rmse_table.write_tsv(results_dir().join("fig10b_rmse.tsv")).expect("write results");
    println!("\nwrote {}/fig10[a|b]_*.tsv", results_dir().display());
}
