//! **Appendix A-F parameter analysis** — sensitivity of VRDAG to its key
//! hyperparameters on Email: latent size `d_z`, hidden size `d_h`, mixture
//! components `K`, and GNN depth `L`. Reports the headline structure
//! metrics plus training time per configuration.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vrdag::{Vrdag, VrdagConfig};
use vrdag_bench::harness::{load_dataset, selected_specs, RunOpts};
use vrdag_bench::report::{results_dir, Table};
use vrdag_metrics::attribute::attribute_report;
use vrdag_metrics::structure::structure_report;

fn run_config(
    label: &str,
    cfg: VrdagConfig,
    graph: &vrdag_graph::DynamicGraph,
    table: &mut Table,
    seed: u64,
) {
    let mut model = Vrdag::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let started = std::time::Instant::now();
    model.fit(graph, &mut rng).expect("fit");
    let train_s = started.elapsed().as_secs_f64();
    let generated = model.generate(graph.t_len(), &mut rng).expect("generate");
    let s = structure_report(graph, &generated);
    let a = attribute_report(graph, &generated);
    table.push_row(label, vec![s.in_deg_dist, s.out_deg_dist, s.clus_dist, a.jsd, train_s]);
}

fn main() {
    let opts = RunOpts::from_env(&[]);
    let specs = selected_specs(&opts, &["Email"]);
    println!("Appendix A-F parameter analysis | scale={} seed={}\n", opts.scale.name(), opts.seed);
    let headers = ["In-deg dist", "Out-deg dist", "Clus dist", "JSD", "train (s)"];
    for spec in &specs {
        let graph = load_dataset(spec, opts.seed);
        let base = VrdagConfig {
            epochs: opts.scale.vrdag_epochs(),
            seed: opts.seed,
            ..VrdagConfig::default()
        };
        let mut table = Table::new(format!("Parameter analysis — {}", spec.name), &headers);
        for d_z in [4usize, 16, 32] {
            run_config(
                &format!("d_z={d_z}"),
                VrdagConfig { d_z, ..base.clone() },
                &graph,
                &mut table,
                opts.seed,
            );
        }
        for d_h in [16usize, 32, 64] {
            run_config(
                &format!("d_h={d_h}"),
                VrdagConfig { d_h, ..base.clone() },
                &graph,
                &mut table,
                opts.seed,
            );
        }
        for k in [1usize, 3, 5] {
            run_config(
                &format!("K={k}"),
                VrdagConfig { k_mix: k, ..base.clone() },
                &graph,
                &mut table,
                opts.seed,
            );
        }
        for l in [1usize, 2, 3] {
            run_config(
                &format!("L={l}"),
                VrdagConfig { gnn_layers: l, ..base.clone() },
                &graph,
                &mut table,
                opts.seed,
            );
        }
        table.print();
        println!();
        table
            .write_tsv(
                results_dir().join(format!("param_analysis_{}.tsv", spec.name.replace('@', "_"))),
            )
            .expect("write results");
    }
    println!("wrote {}/param_analysis_*.tsv", results_dir().display());
}
