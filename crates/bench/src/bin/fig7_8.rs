//! **Figures 7–8** — temporal attribute difference between consecutive
//! snapshots (Eq. 21): MAE (Fig. 7) and RMSE (Fig. 8) for {Original,
//! VRDAG} on Email, Wiki, and GDELT (no attribute-capable dynamic baseline
//! exists, as the paper notes).

use vrdag_bench::harness::{fit_and_generate, load_dataset, make_method, selected_specs, RunOpts};
use vrdag_bench::report::{results_dir, SeriesSet};
use vrdag_metrics::dynamic::{
    attribute_difference_series, series_alignment_error, AttributeDifference,
};

fn main() {
    let opts = RunOpts::from_env(&[]);
    let specs = selected_specs(&opts, &["Email", "Wiki", "GDELT"]);
    println!(
        "Figures 7–8 reproduction (temporal attribute differences) | scale={} seed={}\n",
        opts.scale.name(),
        opts.seed
    );
    for spec in &specs {
        let graph = load_dataset(spec, opts.seed);
        let mut vrdag = make_method("VRDAG", opts.scale, opts.seed);
        let run = fit_and_generate(&mut vrdag, &graph, opts.seed ^ 0x78).expect("VRDAG run");
        for (kind, stem, label) in [
            (AttributeDifference::Mae, "fig7_mae", "MAE"),
            (AttributeDifference::Rmse, "fig8_rmse", "RMSE"),
        ] {
            let orig = attribute_difference_series(&graph, kind);
            let gen = attribute_difference_series(&run.generated, kind);
            let mut series = SeriesSet::new(format!(
                "{} — attribute {} difference (align {:.4})",
                spec.name,
                label,
                series_alignment_error(&orig, &gen),
            ));
            series.push("Original", orig);
            series.push("VRDAG", gen);
            series.print();
            println!();
            series
                .write_tsv(
                    results_dir().join(format!("{stem}_{}.tsv", spec.name.replace('@', "_"))),
                )
                .expect("write results");
        }
    }
    println!("wrote {}/fig[7|8]_*.tsv", results_dir().display());
}
