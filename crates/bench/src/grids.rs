//! The Table I and Table II grids as library functions, shared by the
//! `table1`/`table2` binaries and the `fidelity` scoreboard.

use crate::harness::{fit_and_generate, make_method, vrdag_long, Scale};
use vrdag_graph::{DynamicGraph, DynamicGraphGenerator, GeneratorError};
use vrdag_metrics::attribute::spearman_mae;
use vrdag_metrics::structure::structure_report;

/// Table I's methods, in column order.
pub const TABLE1_METHODS: [&str; 7] =
    ["GRAN", "GenCAT", "TagGen", "Dymond", "TGGAN", "TIGGER", "VRDAG"];

/// Table I's datasets: all six of the paper's.
pub const TABLE1_DATASETS: [&str; 6] = ["Email", "Bitcoin", "Wiki", "Guarantee", "Brain", "GDELT"];

/// Table II's methods, in column order.
pub const TABLE2_METHODS: [&str; 3] = ["Normal", "GenCAT", "VRDAG"];

/// Table II's datasets: the two with at least two attribute dimensions.
pub const TABLE2_DATASETS: [&str; 2] = ["Email", "Guarantee"];

/// One Table I row per method of [`TABLE1_METHODS`] on `graph`: the eight
/// structure metrics of `StructureReport::as_row`, or `None` when the
/// method could not run (Dymond's motif budget, as in the paper) or
/// failed. Skips and failures are reported on stderr.
pub fn table1_rows(
    graph: &DynamicGraph,
    scale: Scale,
    seed: u64,
) -> Vec<(&'static str, Option<[f64; 8]>)> {
    TABLE1_METHODS
        .iter()
        .map(|&method| {
            let mut gen = make_method(method, scale, seed);
            let row = match fit_and_generate(&mut gen, graph, seed ^ 0x1AB1) {
                Ok(run) => Some(structure_report(graph, &run.generated).as_row()),
                Err(GeneratorError::ResourceLimit(msg)) => {
                    eprintln!("   {method}: resource limit ({msg}) — skipped, as in the paper");
                    None
                }
                Err(e) => {
                    eprintln!("   {method}: failed: {e}");
                    None
                }
            };
            (method, row)
        })
        .collect()
}

/// Table II's Spearman correlation MAE of every method of
/// [`TABLE2_METHODS`] on `graph`, in column order.
///
/// # Panics
/// Panics when `graph` has fewer than two attributes or a method fails.
pub fn table2_row(graph: &DynamicGraph, scale: Scale, seed: u64) -> Vec<f64> {
    assert!(graph.n_attrs() >= 2, "Table II needs ≥2 attributes for correlation analysis");
    TABLE2_METHODS
        .iter()
        .map(|&method| {
            // VRDAG gets a 3x epoch budget here: correlation structure is
            // the slowest-converging part of the attribute decoder.
            let mut gen: Box<dyn DynamicGraphGenerator> = if method == "VRDAG" {
                Box::new(vrdag_long(scale, seed, 3))
            } else {
                make_method(method, scale, seed)
            };
            let run = fit_and_generate(&mut gen, graph, seed ^ 0x7AB2)
                .unwrap_or_else(|e| panic!("{method}: {e}"));
            spearman_mae(graph, &run.generated)
        })
        .collect()
}
