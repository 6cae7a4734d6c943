//! **Kernel micro-benchmarks** — the kernels that neither an experiment
//! binary nor `vrdag-perf` times on its own: the GEMMs and slice math of
//! `vrdag-tensor`, one snapshot's decode, sparse aggregation and autograd
//! overhead, the graph algorithms behind the structure metrics, and the
//! metrics themselves.
//!
//! ```text
//! kernels [FILTER]
//! ```
//!
//! Each case is an `Instant` loop over `black_box`, calibrated to about
//! 50 ms per sample and timed over 10 samples. It prints one line of
//! nanoseconds per iteration, `label time: [min mean max] (iters/sample)`.
//! FILTER, the first argument that is not a flag, runs only the cases
//! whose label (`group/name`) contains it. A group none of whose cases is
//! selected skips its setup, and a filter that selects no case exits 2.
//! The kernel groups are named after the instruction set the kernels were
//! dispatched to (`matmul/avx512`, `decode/avx2`, `math/baseline`, ...),
//! so `kernels matmul` times the GEMMs alone.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::LazyCell;
use std::hint::black_box;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};
use vrdag::decoder::MixBernoulliDecoder;
use vrdag::VrdagConfig;
use vrdag_graph::algo;
use vrdag_metrics::{attribute_report, emd_1d, jsd, mmd_gaussian, structure_report};
use vrdag_tensor::nn::{Activation, Mlp};
use vrdag_tensor::ops::{self, SparseAdj};
use vrdag_tensor::{math, simd, Matrix, Tensor};

const TARGET_SAMPLE: Duration = Duration::from_millis(50);
const SAMPLES: usize = 10;

/// Every group, in the order a run without a filter times them.
const GROUPS: [fn(&mut Bench); 7] =
    [matmul, slice_math, decode, spmm_sum, autograd, graph_algos, metrics];

/// The cases a run selects, and how many of them it has timed.
struct Bench {
    filter: Option<String>,
    timed: usize,
}

impl Bench {
    /// Time the body that `setup` returns under `label`, unless the filter
    /// leaves `label` out. `setup` runs only for a selected case, so a
    /// group that keeps its inputs in a `LazyCell` builds them only when
    /// one of its cases is selected.
    fn case<O, F: FnMut() -> O>(&mut self, label: &str, setup: impl FnOnce() -> F) {
        if self.filter.as_deref().is_some_and(|want| !label.contains(want)) {
            return;
        }
        let mut body = setup();
        // Calibrate on a warm call: the first one pays for cold caches.
        black_box(body());
        let start = Instant::now();
        black_box(body());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let per_iter: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(body());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        let min = per_iter.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_iter.iter().copied().fold(0.0, f64::max);
        let mean = per_iter.iter().sum::<f64>() / SAMPLES as f64;
        println!(
            "{label:<48} time: [{} {} {}]  ({iters} iters/sample)",
            fmt_ns(min),
            fmt_ns(mean),
            fmt_ns(max)
        );
        self.timed += 1;
    }

    /// An error naming the filter when it selected no case.
    fn finish(&self) -> Result<(), String> {
        match &self.filter {
            Some(want) if self.timed == 0 => Err(format!("no case matches the filter {want:?}")),
            _ => Ok(()),
        }
    }
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

/// The case filter in the program's arguments (program name first): the
/// first one that is not a flag.
fn filter_from(args: impl Iterator<Item = String>) -> Option<String> {
    args.skip(1).find(|a| !a.starts_with('-'))
}

/// Run every group under `filter`.
fn run(filter: Option<String>) -> Result<(), String> {
    let mut bench = Bench { filter, timed: 0 };
    for group in GROUPS {
        group(&mut bench);
    }
    bench.finish()
}

fn main() -> ExitCode {
    match run(filter_from(std::env::args())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kernels: {e}\nusage: kernels [FILTER]");
            ExitCode::from(2)
        }
    }
}

/// A matrix product: `a·b`, `a·bᵀ` or `aᵀ·b`.
type Product = fn(&Matrix, &Matrix) -> Matrix;

/// Square products at n = 64 and 256 in all three layouts, and the
/// training shape that dominates `Vrdag::fit`: a forward `[3024×48]·[48×32]`
/// and its two backward products, `g·wᵀ` and `xᵀ·g`.
fn matmul(bench: &mut Bench) {
    let group = format!("matmul/{}", simd::isa().name());
    let sizes = [64usize, 256];
    let inputs = LazyCell::new(|| {
        let mut rng = StdRng::seed_from_u64(1);
        let square: Vec<(Matrix, Matrix)> = sizes
            .iter()
            .map(|&n| {
                let a = Matrix::rand_uniform(n, n, -1.0, 1.0, &mut rng);
                (a, Matrix::rand_uniform(n, n, -1.0, 1.0, &mut rng))
            })
            .collect();
        let x = Matrix::rand_uniform(3024, 48, -1.0, 1.0, &mut rng);
        let w = Matrix::rand_uniform(48, 32, -1.0, 1.0, &mut rng);
        let g = Matrix::rand_uniform(3024, 32, -1.0, 1.0, &mut rng);
        (square, [x, w, g])
    });
    let products: [(&str, Product); 3] =
        [("nn", Matrix::matmul), ("nt", Matrix::matmul_nt), ("tn", Matrix::matmul_tn)];
    for (i, n) in sizes.into_iter().enumerate() {
        for (name, product) in products {
            bench.case(&format!("{group}/{name}/{n}"), || {
                let (a, b) = &inputs.0[i];
                move || product(a, b)
            });
        }
    }
    // `x·w`, `g·wᵀ` and `xᵀ·g`, as indices into `[x, w, g]`.
    let training = [("3024x48x32", 0, 1), ("3024x32x48", 2, 1), ("48x3024x32", 0, 2)];
    for ((name, product), (shape, a, b)) in products.into_iter().zip(training) {
        bench.case(&format!("{group}/{name}/{shape}"), || {
            let xwg = &inputs.1;
            move || product(&xwg[a], &xwg[b])
        });
    }
}

/// A slice kernel's name, the kernel, and the scalar libm form it replaced.
type MathKernel = (&'static str, fn(&mut [f32]), fn(f32) -> f32);

/// The slice kernels of `vrdag_tensor::math` at the GRU's gate shape of the
/// `cold_gen` model, [189, 32], and at pass A's 106,596 `σ(f_θ)` logits per
/// snapshot (189·188 pairs, K = 3), each beside the host libm's scalar loop.
fn slice_math(bench: &mut Bench) {
    let group = format!("math/{}", simd::isa().name());
    let kernels: [MathKernel; 3] = [
        ("exp", math::exp_slice, f32::exp),
        ("sigmoid", math::sigmoid_slice, |x| 1.0 / (1.0 + (-x).exp())),
        ("tanh", math::tanh_slice, f32::tanh),
    ];
    let shapes = [("189x32", 189 * 32), ("106596", 106_596)];
    let inputs = LazyCell::new(|| {
        let mut rng = StdRng::seed_from_u64(4);
        shapes.map(|(_, len)| Matrix::rand_uniform(1, len, -6.0, 6.0, &mut rng))
    });
    for (i, (shape, len)) in shapes.into_iter().enumerate() {
        let x = || inputs[i].data();
        for (name, slice, libm) in kernels {
            bench.case(&format!("{group}/{name}/{shape}"), || {
                let (x, mut buf) = (x(), vec![0.0f32; len]);
                move || {
                    buf.copy_from_slice(x);
                    slice(black_box(&mut buf));
                    buf[len - 1]
                }
            });
            bench.case(&format!("{group}/{name}_libm/{shape}"), || {
                let (x, mut buf) = (x(), vec![0.0f32; len]);
                move || {
                    buf.copy_from_slice(x);
                    black_box(&mut buf).iter_mut().for_each(|v| *v = libm(*v));
                    buf[len - 1]
                }
            });
        }
    }
}

/// One `DecodePlan::generate_edges` call at the shape the served model
/// decodes: Email ×0.1 (N=189) under the default config (`decoder_hidden`
/// 32, K=3), calibrated to the dataset's mean edge count per snapshot.
/// This call is nearly all of a cold generation step. The uncalibrated
/// case (`m_target = None`) scores only `f_α` in the first pass and makes
/// every pair a candidate of the second, so it times the path on which no
/// pair is skipped. The K=5 case times the component grouping: the first
/// pass scores at most 4 components per block loop, so K=5 runs as a group
/// of 4 and a group of 1.
///
/// The decoder is randomly initialized and decodes random states, so
/// about 4% of its pairs are candidates of the second pass, against about
/// 10% on the `cold_gen` model: its pass B is cheaper than the served one,
/// and a change to pass B shows less here than it does end to end.
fn decode(bench: &mut Bench) {
    let cfg = VrdagConfig::default();
    let spec = vrdag_datasets::email().scaled(0.1);
    let m_target = spec.m as f64 / spec.t as f64;
    let group = format!("decode/{}", simd::isa().name());
    for (k, cases) in [(cfg.k_mix, &[Some(m_target), None][..]), (5, &[Some(m_target)][..])] {
        let inputs = LazyCell::new(|| {
            let mut rng = StdRng::seed_from_u64(3);
            let dec = MixBernoulliDecoder::new(
                cfg.d_s(),
                cfg.decoder_hidden,
                k,
                cfg.leaky_slope,
                &mut rng,
            );
            (dec.plan(), Matrix::rand_normal(spec.n, cfg.d_s(), 0.0, 1.0, &mut rng))
        });
        for &m_target in cases {
            let name =
                if m_target.is_some() { "generate_edges" } else { "generate_edges_uncalibrated" };
            let label = format!("{group}/{name}/n{}_h{}_k{k}", spec.n, cfg.decoder_hidden);
            bench.case(&label, || {
                let (plan, s) = &*inputs;
                move || plan.generate_edges(black_box(s), m_target, 7)
            });
        }
    }
}

/// Neighbour-sum aggregation over about 8 neighbours per node.
fn spmm_sum(bench: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(2);
    for n in [1000usize, 4000] {
        bench.case(&format!("spmm_sum/{n}"), || {
            let lists: Vec<Vec<u32>> =
                (0..n).map(|i| (0..8).map(|k| ((i * 7 + k * 131) % n) as u32).collect()).collect();
            let adj = Rc::new(SparseAdj::from_lists(&lists));
            let x = Tensor::constant(Matrix::rand_uniform(n, 32, -1.0, 1.0, &mut rng));
            move || ops::spmm_sum(Rc::clone(&adj), &x)
        });
    }
}

/// Forward and backward of a small MLP step, which times the tape, beside
/// the same forward without it.
fn autograd(bench: &mut Bench) {
    let inputs = LazyCell::new(|| {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp =
            Mlp::new(&[32, 64, 32], Activation::LeakyRelu(0.2), Activation::Identity, &mut rng);
        (mlp, Tensor::constant(Matrix::rand_uniform(256, 32, -1.0, 1.0, &mut rng)))
    });
    bench.case("mlp_forward_backward_256x32", || {
        let (mlp, x) = &*inputs;
        move || {
            let loss = ops::sum_all(&mlp.forward(x));
            loss.backward();
            for p in mlp.parameters() {
                p.zero_grad();
            }
            loss.item()
        }
    });
    bench.case("mlp_forward_no_grad_256x32", || {
        let (mlp, x) = &*inputs;
        move || vrdag_tensor::no_grad(|| mlp.forward(x).value().sum())
    });
}

/// The graph algorithms on the metric hot paths (components, clustering,
/// coreness, wedges), on the first snapshot of Email at two scales.
fn graph_algos(bench: &mut Bench) {
    for scale in [0.05, 0.2] {
        let spec = vrdag_datasets::email().scaled(scale);
        let snapshot = LazyCell::new(|| {
            let s = vrdag_datasets::generate(&spec, 7).snapshot(0).clone();
            assert_eq!(s.n_nodes(), spec.n, "the label names the snapshot's node count");
            s
        });
        let label = format!("n={}", spec.n);
        let group = format!("graph_algos/{label}");
        bench.case(&format!("{group}/components/{label}"), || {
            let s = &*snapshot;
            move || algo::weakly_connected_components(s)
        });
        bench.case(&format!("{group}/clustering/{label}"), || {
            let s = &*snapshot;
            move || algo::local_clustering(s)
        });
        bench.case(&format!("{group}/coreness/{label}"), || {
            let s = &*snapshot;
            move || algo::coreness(s)
        });
        bench.case(&format!("{group}/wedges/{label}"), || {
            let s = &*snapshot;
            move || algo::wedge_count(s)
        });
    }
}

/// The evaluation metrics, which run once per timestep per method per
/// dataset in the Table I harness.
fn metrics(bench: &mut Bench) {
    let graphs = LazyCell::new(|| {
        let spec = vrdag_datasets::email().scaled(0.08);
        (vrdag_datasets::generate(&spec, 3), vrdag_datasets::generate(&spec, 4))
    });
    bench.case("structure_report_email_small", || {
        let (a, b) = &*graphs;
        move || structure_report(a, b)
    });
    bench.case("attribute_report_email_small", || {
        let (a, b) = &*graphs;
        move || attribute_report(a, b)
    });
    let samples = LazyCell::new(|| {
        let xs: Vec<f64> = (0..2000).map(|i| ((i * 37) % 100) as f64).collect();
        let ys: Vec<f64> = (0..2000).map(|i| ((i * 53) % 120) as f64).collect();
        (xs, ys)
    });
    bench.case("mmd_gaussian_2k_samples", || {
        let (xs, ys) = &*samples;
        move || mmd_gaussian(xs, ys, 64, 0.1)
    });
    bench.case("jsd_2k_samples", || {
        let (xs, ys) = &*samples;
        move || jsd(xs, ys, 50)
    });
    bench.case("emd_2k_samples", || {
        let (xs, ys) = &*samples;
        move || emd_1d(xs, ys)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn the_filter_is_the_first_argument_that_is_not_a_flag() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter();
        assert_eq!(filter_from(args(&["kernels", "--bench", "matmul"])), Some("matmul".into()));
        assert_eq!(
            filter_from(args(&["kernels", "decode/avx512", "--bench"])),
            Some("decode/avx512".into())
        );
        assert_eq!(filter_from(args(&["kernels", "--bench"])), None);
        assert_eq!(filter_from(args(&["matmul"])), None, "the program name is no filter");
    }

    #[test]
    fn a_filter_skips_every_case_and_setup_that_it_leaves_out() {
        let mut bench = Bench { filter: Some("keep".into()), timed: 0 };
        let ran = RefCell::new(Vec::new());
        let shared = LazyCell::new(|| ran.borrow_mut().push("skipped group's setup"));
        bench.case("g/skip", || {
            LazyCell::force(&shared);
            || 1
        });
        bench.case("other/skip", || {
            LazyCell::force(&shared);
            || 2
        });
        bench.case("g/keep", || {
            ran.borrow_mut().push("g/keep");
            || 3
        });
        assert_eq!(*ran.borrow(), ["g/keep"]);
        assert_eq!(bench.timed, 1);
        assert_eq!(bench.finish(), Ok(()));
    }

    #[test]
    fn a_filter_that_matches_no_case_is_an_error_naming_it() {
        let err = run(Some("no-such-kernel".into())).unwrap_err();
        assert!(err.contains("\"no-such-kernel\""), "{err}");
    }
}
