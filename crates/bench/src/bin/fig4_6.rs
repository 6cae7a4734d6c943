//! **Figures 4–6** — temporal structure difference between consecutive
//! snapshots (Eq. 20) in degree, clustering coefficient, and coreness, for
//! {Original, VRDAG, TIGGER} on Email, Wiki, and GDELT.

use vrdag_bench::harness::{fit_and_generate, load_dataset, make_method, selected_specs, RunOpts};
use vrdag_bench::report::{results_dir, SeriesSet};
use vrdag_metrics::dynamic::{
    series_alignment_error, structure_difference_series, StructuralProperty,
};

const PROPS: [(StructuralProperty, &str); 3] = [
    (StructuralProperty::Degree, "fig4_degree"),
    (StructuralProperty::Clustering, "fig5_clustering"),
    (StructuralProperty::Coreness, "fig6_coreness"),
];

fn main() {
    let opts = RunOpts::from_env(&[]);
    let specs = selected_specs(&opts, &["Email", "Wiki", "GDELT"]);
    println!(
        "Figures 4–6 reproduction (temporal structure differences) | scale={} seed={}\n",
        opts.scale.name(),
        opts.seed
    );
    for spec in &specs {
        let graph = load_dataset(spec, opts.seed);
        let mut vrdag = make_method("VRDAG", opts.scale, opts.seed);
        let vrdag_run = fit_and_generate(&mut vrdag, &graph, opts.seed ^ 0x46).expect("VRDAG run");
        let mut tigger = make_method("TIGGER", opts.scale, opts.seed);
        let tigger_run =
            fit_and_generate(&mut tigger, &graph, opts.seed ^ 0x46).expect("TIGGER run");
        for (prop, stem) in PROPS {
            let orig = structure_difference_series(&graph, prop);
            let v = structure_difference_series(&vrdag_run.generated, prop);
            let t = structure_difference_series(&tigger_run.generated, prop);
            let mut series = SeriesSet::new(format!(
                "{} — {} difference (VRDAG align {:.4}, TIGGER align {:.4})",
                spec.name,
                prop.name(),
                series_alignment_error(&orig, &v),
                series_alignment_error(&orig, &t),
            ));
            series.push("Original", orig);
            series.push("VRDAG", v);
            series.push("TIGGER", t);
            series.print();
            println!();
            series
                .write_tsv(
                    results_dir().join(format!("{stem}_{}.tsv", spec.name.replace('@', "_"))),
                )
                .expect("write results");
        }
    }
    println!("wrote {}/fig[4|5|6]_*.tsv", results_dir().display());
}
