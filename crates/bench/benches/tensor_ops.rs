//! Micro-benchmarks for the tensor substrate: matmul kernels, the `exp`,
//! sigmoid and `tanh` slice kernels, sparse aggregation, and autograd
//! overhead. The matmul and math groups are named after the instruction set
//! the kernels were dispatched to (`matmul/avx2` or `matmul/baseline`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use vrdag_tensor::ops::{self, SparseAdj};
use vrdag_tensor::{math, simd, Matrix, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("matmul/{}", simd::isa().name()));
    let mut rng = StdRng::seed_from_u64(1);
    for &n in &[64usize, 256] {
        let a = Matrix::rand_uniform(n, n, -1.0, 1.0, &mut rng);
        let b = Matrix::rand_uniform(n, n, -1.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("nn", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul(&b)));
        });
        group.bench_with_input(BenchmarkId::new("nt", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul_nt(&b)));
        });
        group.bench_with_input(BenchmarkId::new("tn", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul_tn(&b)));
        });
    }
    // The training shape that dominates `Vrdag::fit`: a forward `[3024×48]·[48×32]`
    // and its two backward products, `g·wᵀ` and `xᵀ·g`.
    let x = Matrix::rand_uniform(3024, 48, -1.0, 1.0, &mut rng);
    let w = Matrix::rand_uniform(48, 32, -1.0, 1.0, &mut rng);
    let g = Matrix::rand_uniform(3024, 32, -1.0, 1.0, &mut rng);
    group.bench_function("nn/3024x48x32", |bch| bch.iter(|| black_box(x.matmul(&w))));
    group.bench_function("nt/3024x32x48", |bch| bch.iter(|| black_box(g.matmul_nt(&w))));
    group.bench_function("tn/48x3024x32", |bch| bch.iter(|| black_box(x.matmul_tn(&g))));
    group.finish();
}

/// A slice kernel's name, the kernel, and the scalar libm form it replaced.
type MathKernel = (&'static str, fn(&mut [f32]), fn(f32) -> f32);

/// The slice kernels of `vrdag_tensor::math` at the GRU's gate shape of the
/// `cold_gen` model, [189, 32], and at pass A's 106,596 `σ(f_θ)` logits per
/// snapshot (189·188 pairs, K = 3), each beside the host libm's scalar loop.
fn bench_math(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("math/{}", simd::isa().name()));
    let mut rng = StdRng::seed_from_u64(4);
    let kernels: [MathKernel; 3] = [
        ("exp", math::exp_slice, f32::exp),
        ("sigmoid", math::sigmoid_slice, |x| 1.0 / (1.0 + (-x).exp())),
        ("tanh", math::tanh_slice, f32::tanh),
    ];
    for (shape, len) in [("189x32", 189 * 32), ("106596", 106_596)] {
        let x = Matrix::rand_uniform(1, len, -6.0, 6.0, &mut rng);
        let mut buf = vec![0.0f32; len];
        for (name, slice, libm) in kernels {
            group.bench_function(format!("{name}/{shape}"), |bch| {
                bch.iter(|| {
                    buf.copy_from_slice(x.data());
                    slice(black_box(&mut buf));
                    black_box(buf[len - 1])
                });
            });
            group.bench_function(format!("{name}_libm/{shape}"), |bch| {
                bch.iter(|| {
                    buf.copy_from_slice(x.data());
                    black_box(&mut buf).iter_mut().for_each(|v| *v = libm(*v));
                    black_box(buf[len - 1])
                });
            });
        }
    }
    group.finish();
}

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm_sum");
    let mut rng = StdRng::seed_from_u64(2);
    for &n in &[1000usize, 4000] {
        // ~8 neighbors per node.
        let lists: Vec<Vec<u32>> =
            (0..n).map(|i| (0..8).map(|k| ((i * 7 + k * 131) % n) as u32).collect()).collect();
        let adj = Rc::new(SparseAdj::from_lists(&lists));
        let x = Tensor::constant(Matrix::rand_uniform(n, 32, -1.0, 1.0, &mut rng));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| black_box(ops::spmm_sum(Rc::clone(&adj), &x)));
        });
    }
    group.finish();
}

fn bench_autograd_overhead(c: &mut Criterion) {
    // Forward+backward of a small MLP step: measures tape cost.
    let mut rng = StdRng::seed_from_u64(3);
    let mlp = vrdag_tensor::nn::Mlp::new(
        &[32, 64, 32],
        vrdag_tensor::nn::Activation::LeakyRelu(0.2),
        vrdag_tensor::nn::Activation::Identity,
        &mut rng,
    );
    let x = Tensor::constant(Matrix::rand_uniform(256, 32, -1.0, 1.0, &mut rng));
    c.bench_function("mlp_forward_backward_256x32", |b| {
        b.iter(|| {
            let loss = ops::sum_all(&mlp.forward(&x));
            loss.backward();
            for p in mlp.parameters() {
                p.zero_grad();
            }
            black_box(loss.item())
        });
    });
    c.bench_function("mlp_forward_no_grad_256x32", |b| {
        b.iter(|| vrdag_tensor::no_grad(|| black_box(mlp.forward(&x).value().sum())));
    });
}

criterion_group!(benches, bench_matmul, bench_math, bench_spmm, bench_autograd_overhead);
criterion_main!(benches);
