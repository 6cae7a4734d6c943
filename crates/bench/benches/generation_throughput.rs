//! Serving-layer throughput: jobs/sec of a `vrdag-serve` core draining
//! a fixed batch of seed-addressed generation requests at 1, 2, and 4
//! workers.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use vrdag::{Vrdag, VrdagConfig};
use vrdag_serve::{GenRequest, GenSink, ModelRegistry, ServeHandle, Ticket};

const JOBS: usize = 8;
const T_LEN: usize = 4;

fn registry() -> ModelRegistry {
    let spec = vrdag_datasets::tiny();
    let graph = vrdag_datasets::generate(&spec, 17);
    let mut model = Vrdag::new(VrdagConfig { epochs: 2, ..VrdagConfig::test_small() });
    let mut rng = StdRng::seed_from_u64(1);
    model.fit(&graph, &mut rng).unwrap();
    let registry = ModelRegistry::new();
    registry.register("bench", &model).unwrap();
    registry
}

fn drain_batch(registry: &ModelRegistry, workers: usize) -> f64 {
    let started = Instant::now();
    let handle = ServeHandle::new(registry.clone(), workers).unwrap();
    let tickets: Vec<Ticket> = (0..JOBS as u64)
        .map(|seed| handle.submit(GenRequest::new("bench", T_LEN, seed, GenSink::Discard)).unwrap())
        .collect();
    for ticket in tickets {
        assert!(ticket.wait().unwrap().is_ok());
    }
    handle.shutdown();
    JOBS as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

fn bench_generation_throughput(c: &mut Criterion) {
    // Pin intra-op tensor parallelism to one thread (must happen before
    // the first tensor op caches the count), so what this bench measures
    // is the scheduler's inter-job scaling, not kernel-level threading.
    std::env::set_var("VRDAG_THREADS", "1");
    let registry = registry();
    let mut group = c.benchmark_group("generation_throughput");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("scheduler_drain_8_jobs", workers),
            &workers,
            |b, &workers| {
                b.iter(|| black_box(drain_batch(&registry, workers)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_generation_throughput);
criterion_main!(benches);
