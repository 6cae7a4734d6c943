//! Integration: the persistence + TSV round-trip workflow the CLI exposes
//! (train → save → load → generate → evaluate), plus the §III-H churn
//! generation path and the graph summary statistics.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vrdag_suite::graph::io;
use vrdag_suite::metrics;
use vrdag_suite::prelude::*;
use vrdag_suite::vrdag::extension::ChurnConfig;

fn work_dir() -> std::path::PathBuf {
    let d = std::env::temp_dir().join("vrdag_cli_it");
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn full_offline_workflow() {
    let dir = work_dir();
    // synth
    let g = datasets::generate(&datasets::tiny(), 77);
    let graph_path = dir.join("observed.tsv");
    io::save_tsv(&g, &graph_path).unwrap();

    // fit + save
    let loaded = io::load_tsv(&graph_path).unwrap();
    assert_eq!(loaded, g);
    let mut cfg = VrdagConfig::test_small();
    cfg.epochs = 3;
    let mut model = Vrdag::new(cfg);
    let mut rng = StdRng::seed_from_u64(1);
    model.fit(&loaded, &mut rng).unwrap();
    let model_path = dir.join("model.vrdg");
    model.save(&model_path).unwrap();

    // load + generate + save TSV
    let restored = Vrdag::load(&model_path).unwrap();
    let mut gen_rng = StdRng::seed_from_u64(2);
    let synthetic = restored.generate(g.t_len(), &mut gen_rng).unwrap();
    let synth_path = dir.join("synthetic.tsv");
    io::save_tsv(&synthetic, &synth_path).unwrap();

    // evaluate
    let a = io::load_tsv(&graph_path).unwrap();
    let b = io::load_tsv(&synth_path).unwrap();
    let report = structure_report(&a, &b);
    for v in report.as_row() {
        assert!(v.is_finite());
    }
    let attr = attribute_report(&a, &b);
    assert!(attr.jsd.is_finite() && attr.emd.is_finite());
}

#[test]
fn summary_of_synthetic_matches_spec_shape() {
    let spec = datasets::email().scaled(0.05);
    let g = datasets::generate(&spec, 5);
    let s = metrics::summarize(&g);
    assert_eq!(s.n, spec.n);
    assert_eq!(s.f, spec.f);
    assert_eq!(s.t, spec.t);
    // Persistence parameter (0.45 for Email) should leave a visible trace.
    assert!(s.mean_edge_persistence > 0.1, "persistence {}", s.mean_edge_persistence);
    // Communication flavor has meaningful reciprocity.
    assert!(s.mean_reciprocity > 0.05, "reciprocity {}", s.mean_reciprocity);
    assert!(s.mean_in_ple > 1.0);
}

#[test]
fn churn_generation_is_scorable() {
    let g = datasets::generate(&datasets::tiny(), 88);
    let mut cfg = VrdagConfig::test_small();
    cfg.epochs = 2;
    let mut model = Vrdag::new(cfg);
    let mut rng = StdRng::seed_from_u64(3);
    model.fit(&g, &mut rng).unwrap();
    let churned = model.generate_with_churn(g.t_len(), &ChurnConfig::default(), &mut rng).unwrap();
    assert_eq!(churned.n_nodes(), g.n_nodes());
    let rep = structure_report(&g, &churned);
    for v in rep.as_row() {
        assert!(v.is_finite());
    }
}

#[test]
fn loaded_model_stats_survive() {
    let dir = work_dir();
    let g = datasets::generate(&datasets::tiny(), 99);
    let mut cfg = VrdagConfig::test_small();
    cfg.epochs = 2;
    let mut model = Vrdag::new(cfg);
    let mut rng = StdRng::seed_from_u64(4);
    model.fit(&g, &mut rng).unwrap();
    let path = dir.join("stats.vrdg");
    model.save(&path).unwrap();
    let loaded = Vrdag::load(&path).unwrap();
    let orig = model.stats().unwrap();
    let rest = loaded.stats().unwrap();
    assert_eq!(orig.edges_per_step, rest.edges_per_step);
    assert_eq!(orig.train_t, rest.train_t);
    assert_eq!(orig.attr_means, rest.attr_means);
}

/// Runs `vrdag-cli` with `args` and returns its exit code and stderr.
fn run_cli(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_vrdag-cli"))
        .args(args)
        .output()
        .expect("vrdag-cli runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn cli_rejects_an_unknown_flag_before_doing_anything() {
    // `--poller` is not a `serve` flag (the backend is picked by
    // VRDAG_POLLER), so serve must refuse it instead of starting.
    let (code, err) =
        run_cli(&["serve", "--model", "missing.vrdg", "--poller", "scan", "--addr", "127.0.0.1:0"]);
    assert_eq!(code, Some(2), "stderr: {err}");
    assert!(err.contains("unknown flag --poller for serve"), "stderr: {err}");
    assert!(err.contains("usage: vrdag-cli"), "stderr: {err}");
}

#[test]
fn cli_rejects_a_number_that_does_not_parse() {
    let (code, err) = run_cli(&["serve", "--model", "missing.vrdg", "--workers", "two"]);
    assert_eq!(code, Some(2), "stderr: {err}");
    assert!(err.contains("invalid value \"two\" for --workers"), "stderr: {err}");
    assert!(err.contains("usage: vrdag-cli"), "stderr: {err}");
    // A flag without its value is refused too.
    let (code, err) = run_cli(&["synth", "--dataset", "Email", "--out"]);
    assert_eq!(code, Some(2), "stderr: {err}");
    assert!(err.contains("--out needs a value"), "stderr: {err}");
}
