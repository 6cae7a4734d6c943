//! The determinism contract the snapshot cache relies on, property-style:
//! a `(model, t_len, seed)` triple always yields the same sequence, so a
//! cache hit must be **bit-identical** to cold generation, and eviction
//! (which silently turns hits back into regeneration) must never change
//! any result.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use vrdag_suite::prelude::*;
use vrdag_suite::serve::JobResult;

/// One fitted model, shared across cases (fitting dominates test time and
/// the properties quantify over seeds/t_lens, not over models). Stored as
/// serialized bytes — exactly what the registry holds.
fn model_bytes() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let g = datasets::generate(&datasets::tiny(), 11);
        let mut cfg = VrdagConfig::test_small();
        cfg.epochs = 2;
        let mut model = Vrdag::new(cfg);
        let mut rng = StdRng::seed_from_u64(11);
        model.fit(&g, &mut rng).unwrap();
        model.to_bytes().unwrap()
    })
}

fn cold_generation(t_len: usize, seed: u64) -> DynamicGraph {
    let model = Vrdag::from_bytes(model_bytes()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    model.generate(t_len, &mut rng).unwrap()
}

fn cached_service(cache: CacheBudget) -> ServeHandle {
    let registry = ModelRegistry::new();
    registry.register_bytes("m", model_bytes().clone()).unwrap();
    // One worker so hit/miss accounting is deterministic.
    ServeHandle::with_config(registry, ServeConfig { workers: 1, cache, ..Default::default() })
        .unwrap()
}

/// Submit every `(t_len, seed, sink)`, wait on the tickets, shut the
/// service down, and return the results with the final stats.
fn serve_all(
    cache: CacheBudget,
    requests: impl IntoIterator<Item = (usize, u64, GenSink)>,
) -> (Vec<JobResult>, ServeStats) {
    let service = cached_service(cache);
    let tickets: Vec<Ticket> = requests
        .into_iter()
        .map(|(t_len, seed, sink)| service.submit(GenRequest::new("m", t_len, seed, sink)).unwrap())
        .collect();
    let jobs: Vec<JobResult> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    let stats = service.shutdown();
    assert!(jobs.iter().all(JobResult::is_ok), "{jobs:?}");
    (jobs, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Submitting every request twice: the second pass is served from the
    /// cache and must be bit-identical to both the first pass and a cold
    /// `model.generate` with the same seed.
    #[test]
    fn cache_hits_are_bit_identical_to_cold_generation(
        seeds in prop::collection::vec(0u64..1_000, 1..4),
        t_len in 1usize..4,
    ) {
        let requests = (0..2).flat_map(|_| seeds.iter().map(|&s| (t_len, s, GenSink::InMemory)));
        let (jobs, stats) = serve_all(CacheBudget::entries(32), requests);
        // Distinct seeds miss once and hit on the second pass.
        let distinct = {
            let mut s = seeds.clone();
            s.sort_unstable();
            s.dedup();
            s.len()
        };
        prop_assert_eq!(stats.cache.misses as usize, distinct);
        prop_assert_eq!(stats.cache.hits as usize, 2 * seeds.len() - distinct, "{:?}", stats);
        for job in &jobs {
            let cold = cold_generation(t_len, job.seed);
            prop_assert_eq!(job.graph.as_deref().unwrap(), &cold, "seed {}", job.seed);
            prop_assert_eq!(job.snapshots, t_len);
            prop_assert_eq!(job.edges, cold.temporal_edge_count());
        }
    }

    /// A cache too small for the working set churns constantly; every
    /// result must still equal cold generation, and the occupancy must
    /// respect the budget.
    #[test]
    fn eviction_never_changes_results(
        t_len in 1usize..4,
        rounds in 2usize..4,
    ) {
        // 6 distinct keys cycling through a 2-entry cache: every round
        // after the first would be all hits without eviction, but the
        // LRU can only keep 2, so most requests regenerate.
        let requests = (0..rounds).flat_map(|_| (0..6u64).map(|s| (t_len, s, GenSink::InMemory)));
        let (jobs, stats) = serve_all(CacheBudget::entries(2), requests);
        prop_assert!(stats.cache.evictions > 0, "cache never churned: {:?}", stats.cache);
        prop_assert!(stats.cache.entries <= 2);
        for job in &jobs {
            let cold = cold_generation(t_len, job.seed);
            prop_assert_eq!(job.graph.as_deref().unwrap(), &cold, "seed {}", job.seed);
        }
    }
}

/// The same seed served three ways — cold one-shot, cache miss, cache
/// hit — plus a spill through a file sink on a hit: all four byte paths
/// agree.
#[test]
fn miss_hit_and_file_replay_agree() {
    let dir = std::env::temp_dir().join("vrdag_cache_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hit.tsv");
    let sinks = [GenSink::InMemory, GenSink::InMemory, GenSink::TsvFile(path.clone())];
    let (jobs, _) = serve_all(CacheBudget::entries(4), sinks.map(|sink| (3, 77, sink)));
    assert_eq!(jobs.iter().filter(|j| j.cache_hit).count(), 2, "{jobs:?}");

    let cold = cold_generation(3, 77);
    for job in jobs.iter().filter(|j| j.graph.is_some()) {
        assert_eq!(job.graph.as_deref().unwrap(), &cold);
    }
    let replayed = vrdag_suite::graph::io::load_tsv(&path).unwrap();
    assert_eq!(replayed, cold, "file replay of a cache hit matches cold generation");
}

/// Disabling the cache must leave results untouched (pure pass-through).
#[test]
fn disabled_cache_is_pass_through() {
    let requests = [5u64, 5, 9].map(|seed| (2, seed, GenSink::InMemory));
    let (jobs, stats) = serve_all(CacheBudget::disabled(), requests);
    assert_eq!(stats.cache.hits + stats.cache.misses, 0, "no lookups when disabled");
    for job in &jobs {
        assert_eq!(job.graph.as_deref().unwrap(), &cold_generation(2, job.seed));
        assert!(!job.cache_hit);
    }
}
