//! Offline API-compatible subset of `criterion` 0.5 (vendored; see
//! `crates/compat/README.md`).
//!
//! A simple wall-clock sampler: each benchmark is calibrated to a target
//! per-sample duration, run for `sample_size` samples, and reported as
//! min / mean / max nanoseconds per iteration on stdout. No statistical
//! analysis, no HTML reports — just enough to keep `cargo bench` useful
//! offline. As in criterion, `cargo bench -- <filter>` runs only the
//! benchmarks whose label (`group/name`) contains the filter.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export-compatible opaque value barrier.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

const TARGET_SAMPLE: Duration = Duration::from_millis(50);

/// Runs one benchmark body via [`Bencher::iter`].
pub struct Bencher {
    samples: usize,
}

#[derive(Clone, Copy, Debug)]
struct Stats {
    iters_per_sample: u64,
    min_ns: f64,
    mean_ns: f64,
    max_ns: f64,
}

impl Bencher {
    fn run<O>(&self, mut f: impl FnMut() -> O) -> Stats {
        // Calibrate: how many iterations fit in the target sample time?
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        let mut per_iter = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        let min = per_iter.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_iter.iter().copied().fold(0.0f64, f64::max);
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        Stats { iters_per_sample: iters, min_ns: min, mean_ns: mean, max_ns: max }
    }

    /// Measure `f`, criterion-style.
    pub fn iter<O>(&mut self, f: impl FnMut() -> O) {
        let stats = self.run(f);
        report(CURRENT_LABEL.with(|l| l.borrow().clone()), stats);
    }
}

thread_local! {
    static CURRENT_LABEL: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn report(label: String, s: Stats) {
    println!(
        "{label:<48} time: [{} {} {}]  ({} iters/sample)",
        fmt_ns(s.min_ns),
        fmt_ns(s.mean_ns),
        fmt_ns(s.max_ns),
        s.iters_per_sample
    );
}

/// Identifier for a parameterized benchmark.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { label: format!("{}/{}", function_name.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { label: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { label: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// Runs `f` on a fresh [`Bencher`] under `label`, unless `filter` is set
/// and `label` does not contain it.
fn bench(label: String, samples: usize, filter: Option<&str>, f: impl FnOnce(&mut Bencher)) {
    if filter.is_some_and(|want| !label.contains(want)) {
        return;
    }
    CURRENT_LABEL.with(|l| *l.borrow_mut() = label);
    f(&mut Bencher { samples });
}

/// The benchmark filter in a bench binary's arguments (program name
/// first): the first one that is not a flag, as `cargo bench -- <filter>`
/// passes it after its own `--bench`.
fn filter_from(args: impl Iterator<Item = String>) -> Option<String> {
    args.skip(1).find(|a| !a.starts_with('-'))
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    filter: Option<String>,
}

impl BenchmarkGroup {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    fn bench_inner(&mut self, label: String, f: impl FnOnce(&mut Bencher)) {
        let label = format!("{}/{}", self.name, label);
        bench(label, self.sample_size, self.filter.as_deref(), f);
    }

    pub fn bench_function(&mut self, id: impl Into<BenchmarkId>, f: impl FnOnce(&mut Bencher)) {
        let id = id.into();
        self.bench_inner(id.label, f);
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) {
        let id = id.into();
        self.bench_inner(id.label, |b| f(b, input));
    }

    pub fn finish(self) {}
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
    /// Runs only the benchmarks whose label contains this.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10, filter: None }
    }
}

impl Criterion {
    /// Takes the benchmark filter from the command line: the first argument
    /// that is not a flag. `criterion_group!` calls this.
    pub fn configure_from_args(mut self) -> Criterion {
        self.filter = filter_from(std::env::args());
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            filter: self.filter.clone(),
        }
    }

    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        bench(name.to_string(), self.sample_size, self.filter.as_deref(), f);
        self
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_body() {
        let mut c = Criterion::default();
        c.sample_size(2);
        let mut ran = false;
        c.bench_function("noop", |b| {
            b.iter(|| black_box(1 + 1));
            ran = true;
        });
        assert!(ran);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_function("f", |b| b.iter(|| black_box(2 * 2)));
        group.bench_with_input(BenchmarkId::new("with_input", 3), &3, |b, &x| {
            b.iter(|| black_box(x * x))
        });
        group.finish();
    }

    #[test]
    fn the_filter_is_the_first_argument_that_is_not_a_flag() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter();
        assert_eq!(filter_from(args(&["bench", "--bench", "matmul"])), Some("matmul".into()));
        assert_eq!(
            filter_from(args(&["bench", "decode/avx512", "--bench"])),
            Some("decode/avx512".into())
        );
        assert_eq!(filter_from(args(&["bench", "--bench"])), None);
        assert_eq!(filter_from(args(&["matmul"])), None, "the program name is no filter");
    }

    #[test]
    fn a_filter_skips_every_label_that_does_not_contain_it() {
        let mut c = Criterion { filter: Some("keep".into()), ..Criterion::default() };
        c.sample_size(2);
        let ran = std::cell::RefCell::new(Vec::new());
        let ran = &ran;
        let body = move |label: &'static str| {
            move |b: &mut Bencher| {
                ran.borrow_mut().push(label);
                b.iter(|| black_box(1));
            }
        };
        c.bench_function("skip", body("skip"));
        c.bench_function("keep_top", body("keep_top"));
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_function("skip", body("g/skip"));
        group.bench_function("keep", body("g/keep"));
        group.bench_with_input(BenchmarkId::new("keep_in", 1), &1, |b, _| body("g/keep_in/1")(b));
        group.finish();
        c.benchmark_group("keep_group").bench_function("any", body("keep_group/any"));
        assert_eq!(*ran.borrow(), ["keep_top", "g/keep", "g/keep_in/1", "keep_group/any"]);
    }
}
