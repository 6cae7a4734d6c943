//! The headline comparison at micro scale: VRDAG's one-shot snapshot
//! decode vs. walk-based sampling + merging (TIGGER-like) for the same
//! edge budget — the algorithmic asymmetry behind Fig. 9 and Tables
//! III/IV — and one snapshot's decode at the serving shape, in a group
//! named after the instruction set the decode kernel was dispatched to.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vrdag::decoder::MixBernoulliDecoder;
use vrdag::{Vrdag, VrdagConfig};
use vrdag_baselines::TiggerLike;
use vrdag_graph::DynamicGraphGenerator;
use vrdag_tensor::{simd, Matrix};

fn bench_generation(c: &mut Criterion) {
    let spec = vrdag_datasets::email().scaled(0.05);
    let graph = vrdag_datasets::generate(&spec, 11);

    // Pre-fit both models outside the measured region.
    let mut vrdag = Vrdag::new(VrdagConfig { epochs: 3, ..VrdagConfig::test_small() });
    let mut rng = StdRng::seed_from_u64(1);
    vrdag.fit(&graph, &mut rng).unwrap();

    let mut tigger = TiggerLike::with_defaults();
    DynamicGraphGenerator::fit(&mut tigger, &graph, &mut rng).unwrap();

    let mut group = c.benchmark_group("generation_per_sequence");
    group.sample_size(10);
    group.bench_function("vrdag_one_shot", |b| {
        b.iter(|| {
            let mut r = StdRng::seed_from_u64(2);
            black_box(vrdag.generate(graph.t_len(), &mut r).unwrap())
        });
    });
    group.bench_function("tigger_walk_merge", |b| {
        b.iter(|| {
            let mut r = StdRng::seed_from_u64(2);
            black_box(DynamicGraphGenerator::generate(&tigger, graph.t_len(), &mut r).unwrap())
        });
    });
    group.finish();
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
fn bench_decode(c: &mut Criterion) {
    let cfg = VrdagConfig::default();
    let spec = vrdag_datasets::email().scaled(0.1);
    let m_target = spec.m as f64 / spec.t as f64;
    let mut group = c.benchmark_group(format!("decode/{}", simd::isa().name()));
    for (k, cases) in [(cfg.k_mix, &[Some(m_target), None][..]), (5, &[Some(m_target)][..])] {
        let mut rng = StdRng::seed_from_u64(3);
        let dec =
            MixBernoulliDecoder::new(cfg.d_s(), cfg.decoder_hidden, k, cfg.leaky_slope, &mut rng);
        let plan = dec.plan();
        let s = Matrix::rand_normal(spec.n, cfg.d_s(), 0.0, 1.0, &mut rng);
        for &m_target in cases {
            let name =
                if m_target.is_some() { "generate_edges" } else { "generate_edges_uncalibrated" };
            let id = format!("{name}/n{}_h{}_k{k}", spec.n, cfg.decoder_hidden);
            group.bench_function(id, |b| {
                b.iter(|| black_box(plan.generate_edges(black_box(&s), m_target, 7)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_generation, bench_decode);
criterion_main!(benches);
