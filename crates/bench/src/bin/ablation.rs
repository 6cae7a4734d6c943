//! **Appendix A-E ablation study** — impact of VRDAG's design choices on
//! Email: bi-flow vs. uni-flow message passing, Time2Vec, the recurrence
//! state updater, the SCE vs. MSE attribute loss, the number of mixture
//! components K, and density calibration.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vrdag::{AttrLoss, Vrdag, VrdagConfig};
use vrdag_bench::harness::{load_dataset, selected_specs, RunOpts};
use vrdag_bench::report::{results_dir, Table};
use vrdag_metrics::attribute::attribute_report;
use vrdag_metrics::structure::structure_report;

fn variant(name: &str, scale_epochs: usize, seed: u64) -> (String, VrdagConfig) {
    let mut cfg = VrdagConfig { epochs: scale_epochs, seed, ..VrdagConfig::default() };
    match name {
        "full" => {}
        "uni-flow" => cfg.bi_flow = false,
        "no-time2vec" => cfg.use_time2vec = false,
        "no-recurrence" => cfg.use_recurrence = false,
        "mse-attr" => cfg.attr_loss = AttrLoss::Mse,
        "k=1" => cfg.k_mix = 1,
        "k=5" => cfg.k_mix = 5,
        "no-calibration" => cfg.calibrate_density = false,
        other => panic!("unknown variant {other}"),
    }
    (name.to_string(), cfg)
}

const VARIANTS: [&str; 8] = [
    "full",
    "uni-flow",
    "no-time2vec",
    "no-recurrence",
    "mse-attr",
    "k=1",
    "k=5",
    "no-calibration",
];

fn main() {
    let opts = RunOpts::from_env(&[]);
    let specs = selected_specs(&opts, &["Email"]);
    println!("Appendix A-E ablation | scale={} seed={}\n", opts.scale.name(), opts.seed);
    let headers = ["In-deg dist", "Out-deg dist", "Clus dist", "Wedge count", "NC", "JSD", "EMD"];
    for spec in &specs {
        let graph = load_dataset(spec, opts.seed);
        let mut table = Table::new(format!("Ablation — {}", spec.name), &headers);
        for v in VARIANTS {
            let (name, cfg) = variant(v, opts.scale.vrdag_epochs(), opts.seed);
            let mut model = Vrdag::new(cfg);
            let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xAB1A);
            model.fit(&graph, &mut rng).expect("fit");
            let generated = model.generate(graph.t_len(), &mut rng).expect("generate");
            let s = structure_report(&graph, &generated);
            let a = attribute_report(&graph, &generated);
            table.push_row(
                name,
                vec![s.in_deg_dist, s.out_deg_dist, s.clus_dist, s.wedge_count, s.nc, a.jsd, a.emd],
            );
        }
        table.print();
        println!();
        table
            .write_tsv(results_dir().join(format!("ablation_{}.tsv", spec.name.replace('@', "_"))))
            .expect("write results");
    }
    println!("wrote {}/ablation_*.tsv", results_dir().display());
}
