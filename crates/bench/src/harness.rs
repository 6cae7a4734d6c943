//! Shared experiment plumbing: scales, CLI options, dataset loading, the
//! method registry, and timed fit/generate runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use vrdag::{Vrdag, VrdagConfig};
use vrdag_baselines::{
    DymondLike, GenCatLike, GranLike, NormalBaseline, TagGenLike, TgganLike, TiggerLike,
};
use vrdag_datasets::DatasetSpec;
use vrdag_graph::{DynamicGraph, DynamicGraphGenerator, GeneratorError};

/// Experiment scale: fraction of the paper's dataset sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// ~8% of paper scale — seconds per experiment; the default.
    Small,
    /// ~25% of paper scale — minutes.
    Medium,
    /// Full Table I sizes — expect long runs on a laptop.
    Paper,
}

impl Scale {
    pub fn factor(&self) -> f64 {
        match self {
            Scale::Small => 0.08,
            Scale::Medium => 0.25,
            Scale::Paper => 1.0,
        }
    }

    /// VRDAG training epochs appropriate for the scale.
    pub fn vrdag_epochs(&self) -> usize {
        match self {
            Scale::Small => 12,
            Scale::Medium => 8,
            Scale::Paper => 5,
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    }
}

/// Parsed command line shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub scale: Scale,
    pub seed: u64,
    /// Dataset name filter (empty = experiment default).
    pub datasets: Vec<String>,
    /// The extra switches given, out of those the binary allows (e.g.
    /// `--trend` for fig9).
    pub flags: Vec<String>,
}

impl RunOpts {
    /// Parse `std::env::args()`, allowing the switches in `extra` besides
    /// the shared flags. A usage error prints its message and the usage,
    /// and exits with status 2.
    pub fn from_env(extra: &[&str]) -> RunOpts {
        let mut args = std::env::args();
        let prog = args.next().unwrap_or_default();
        let prog = std::path::Path::new(&prog)
            .file_name()
            .map_or(prog.clone(), |name| name.to_string_lossy().into_owned());
        let args: Vec<String> = args.collect();
        Self::parse(&args, extra).unwrap_or_else(|e| {
            let extra: String = extra.iter().map(|f| format!(" [{f}]")).collect();
            eprintln!(
                "{prog}: {e}\nusage: {prog} [--scale small|medium|paper] [--seed N] \
                 [--datasets a,b,c]{extra}"
            );
            std::process::exit(2)
        })
    }

    /// Parse `args` (program name excluded). A flag that is neither shared
    /// nor in `extra`, a shared flag without a value, and a value that
    /// does not parse or names no dataset are errors naming the flag.
    pub fn parse(args: &[String], extra: &[&str]) -> Result<RunOpts, String> {
        let mut opts =
            RunOpts { scale: Scale::Small, seed: 42, datasets: Vec::new(), flags: Vec::new() };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => {
                    let v = value()?;
                    opts.scale = Scale::parse(v)
                        .ok_or_else(|| format!("invalid value {v:?} for --scale"))?;
                }
                "--seed" => {
                    let v = value()?;
                    opts.seed = v.parse().map_err(|_| format!("invalid value {v:?} for --seed"))?;
                }
                "--datasets" => {
                    opts.datasets = value()?.split(',').map(|s| s.trim().to_string()).collect();
                    for name in &opts.datasets {
                        vrdag_datasets::by_name_or_err(name)
                            .map_err(|e| format!("--datasets: {e}"))?;
                    }
                }
                f if extra.contains(&f) => opts.flags.push(flag.clone()),
                f if f.starts_with('-') => return Err(format!("unknown flag {flag}")),
                _ => return Err(format!("unexpected argument {flag:?}")),
            }
        }
        Ok(opts)
    }

    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

/// The six paper datasets, filtered by the CLI and scaled.
pub fn selected_specs(opts: &RunOpts, default_names: &[&str]) -> Vec<DatasetSpec> {
    let names: Vec<String> = if opts.datasets.is_empty() {
        default_names.iter().map(|s| s.to_string()).collect()
    } else {
        opts.datasets.clone()
    };
    names
        .iter()
        .map(|n| {
            vrdag_datasets::by_name(n)
                .unwrap_or_else(|| panic!("unknown dataset: {n}"))
                .scaled(opts.scale.factor())
        })
        .collect()
}

/// Generate the "observed" graph for a spec (deterministic per seed).
pub fn load_dataset(spec: &DatasetSpec, seed: u64) -> DynamicGraph {
    vrdag_datasets::generate(spec, seed)
}

/// VRDAG configured for a scale.
pub fn vrdag_for_scale(scale: Scale, seed: u64) -> Vrdag {
    let cfg = VrdagConfig { epochs: scale.vrdag_epochs(), seed, ..VrdagConfig::default() };
    Vrdag::new(cfg)
}

/// VRDAG with an extended epoch budget (the attribute-focused experiments
/// — Table II, Fig. 3 — need the attribute decoder trained closer to
/// convergence; the Table I grid uses the shorter default).
pub fn vrdag_long(scale: Scale, seed: u64, epochs_multiplier: usize) -> Vrdag {
    let cfg = VrdagConfig {
        epochs: scale.vrdag_epochs() * epochs_multiplier.max(1),
        seed,
        ..VrdagConfig::default()
    };
    Vrdag::new(cfg)
}

/// Instantiate a generator by table name.
pub fn make_method(name: &str, scale: Scale, seed: u64) -> Box<dyn DynamicGraphGenerator> {
    match name {
        "VRDAG" => Box::new(vrdag_for_scale(scale, seed)),
        "TagGen" => Box::new(TagGenLike::with_defaults()),
        "TGGAN" => Box::new(TgganLike::with_defaults()),
        "TIGGER" => Box::new(TiggerLike::with_defaults()),
        "Dymond" => Box::new(DymondLike::with_defaults()),
        "GRAN" => Box::new(GranLike::with_defaults()),
        "GenCAT" => Box::new(GenCatLike::with_defaults()),
        "Normal" => Box::new(NormalBaseline::new()),
        other => panic!("unknown method: {other}"),
    }
}

/// Outcome of one timed fit + generate run.
pub struct TimedRun {
    pub generated: DynamicGraph,
    pub fit_seconds: f64,
    pub generate_seconds: f64,
}

/// Fit `method` on `graph` and generate a same-length sequence, timing both
/// stages. Errors (e.g. Dymond's motif budget) are passed through.
pub fn fit_and_generate(
    method: &mut Box<dyn DynamicGraphGenerator>,
    graph: &DynamicGraph,
    seed: u64,
) -> Result<TimedRun, GeneratorError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let fit_started = Instant::now();
    method.fit(graph, &mut rng)?;
    let fit_seconds = fit_started.elapsed().as_secs_f64();
    let gen_started = Instant::now();
    let generated = method.generate(graph.t_len(), &mut rng)?;
    let generate_seconds = gen_started.elapsed().as_secs_f64();
    Ok(TimedRun { generated, fit_seconds, generate_seconds })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let o = RunOpts::parse(&[], &[]).unwrap();
        assert_eq!(o.scale, Scale::Small);
        assert_eq!(o.seed, 42);
        assert!(o.datasets.is_empty());
    }

    #[test]
    fn parse_full_command_line() {
        let o = RunOpts::parse(
            &args(&["--scale", "medium", "--seed", "7", "--datasets", "Email,Wiki", "--trend"]),
            &["--trend"],
        )
        .unwrap();
        assert_eq!(o.scale, Scale::Medium);
        assert_eq!(o.seed, 7);
        assert_eq!(o.datasets, vec!["Email", "Wiki"]);
        assert!(o.has_flag("--trend"));
    }

    #[test]
    fn parse_rejects_what_it_does_not_know_naming_the_flag() {
        let err = |v: &[&str], extra: &[&str]| RunOpts::parse(&args(v), extra).unwrap_err();
        assert_eq!(err(&["--trnd"], &["--trend"]), "unknown flag --trnd");
        assert_eq!(err(&["--trend"], &[]), "unknown flag --trend", "extras are per binary");
        assert_eq!(err(&["--sed", "7"], &[]), "unknown flag --sed");
        assert_eq!(err(&["--seed", "7", "--scale"], &[]), "--scale needs a value");
        assert_eq!(err(&["--datasets"], &[]), "--datasets needs a value");
        assert_eq!(err(&["--scale", "huge"], &[]), "invalid value \"huge\" for --scale");
        assert_eq!(err(&["--seed", "x"], &[]), "invalid value \"x\" for --seed");
        assert_eq!(err(&["7"], &[]), "unexpected argument \"7\"");
        assert!(err(&["--datasets", "Email,Emial"], &[])
            .starts_with("--datasets: unknown dataset \"Emial\""));
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Small.factor() < Scale::Medium.factor());
        assert!(Scale::Medium.factor() < Scale::Paper.factor());
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn method_registry_knows_all_methods() {
        for name in ["VRDAG", "TagGen", "TGGAN", "TIGGER", "Dymond", "GRAN", "GenCAT", "Normal"] {
            let m = make_method(name, Scale::Small, 1);
            assert_eq!(m.name(), name);
        }
    }

    #[test]
    fn selected_specs_respects_filter() {
        let mut o = RunOpts::parse(&[], &[]).unwrap();
        o.datasets = vec!["Email".into()];
        let specs = selected_specs(&o, &["Email", "Wiki"]);
        assert_eq!(specs.len(), 1);
        assert!(specs[0].name.starts_with("Email"));
    }

    #[test]
    fn timed_run_produces_graph() {
        let spec = vrdag_datasets::tiny();
        let g = load_dataset(&spec, 3);
        let mut m = make_method("GenCAT", Scale::Small, 1);
        let run = fit_and_generate(&mut m, &g, 5).unwrap();
        assert_eq!(run.generated.t_len(), g.t_len());
        assert!(run.fit_seconds >= 0.0 && run.generate_seconds >= 0.0);
    }
}
