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

fn cached_scheduler(cache: CacheBudget) -> Scheduler {
    let registry = ModelRegistry::new();
    registry.register_bytes("m", model_bytes().clone()).unwrap();
    // One worker so hit/miss accounting is deterministic.
    Scheduler::with_config(registry, ServeConfig { workers: 1, cache, ..Default::default() })
        .unwrap()
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
        let mut scheduler = cached_scheduler(CacheBudget::entries(32));
        for _pass in 0..2 {
            for &seed in &seeds {
                scheduler
                    .submit(GenRequest::new("m", t_len, seed, GenSink::InMemory))
                    .unwrap();
            }
        }
        let report = scheduler.join().unwrap();
        prop_assert!(report.all_ok(), "{}", report.render());
        // Distinct seeds miss once and hit on the second pass.
        let distinct = {
            let mut s = seeds.clone();
            s.sort_unstable();
            s.dedup();
            s.len()
        };
        prop_assert_eq!(report.cache.misses as usize, distinct);
        prop_assert_eq!(
            report.cache.hits as usize,
            2 * seeds.len() - distinct,
            "{}",
            report.render()
        );
        for job in &report.jobs {
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
        let mut scheduler = cached_scheduler(CacheBudget::entries(2));
        for _round in 0..rounds {
            for seed in 0..6u64 {
                scheduler
                    .submit(GenRequest::new("m", t_len, seed, GenSink::InMemory))
                    .unwrap();
            }
        }
        let report = scheduler.join().unwrap();
        prop_assert!(report.all_ok(), "{}", report.render());
        prop_assert!(report.cache.evictions > 0, "cache never churned: {:?}", report.cache);
        prop_assert!(report.cache.entries <= 2);
        for job in &report.jobs {
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
    let mut scheduler = cached_scheduler(CacheBudget::entries(4));
    scheduler.submit(GenRequest::new("m", 3, 77, GenSink::InMemory)).unwrap();
    scheduler.submit(GenRequest::new("m", 3, 77, GenSink::InMemory)).unwrap();
    let path = dir.join("hit.tsv");
    scheduler.submit(GenRequest::new("m", 3, 77, GenSink::TsvFile(path.clone()))).unwrap();
    let report = scheduler.join().unwrap();
    assert!(report.all_ok(), "{}", report.render());
    assert_eq!(report.cache_hits(), 2, "{}", report.render());

    let cold = cold_generation(3, 77);
    for job in report.jobs.iter().filter(|j| j.graph.is_some()) {
        assert_eq!(job.graph.as_deref().unwrap(), &cold);
    }
    let replayed = vrdag_suite::graph::io::load_tsv(&path).unwrap();
    assert_eq!(replayed, cold, "file replay of a cache hit matches cold generation");
}

/// Disabling the cache must leave results untouched (pure pass-through).
#[test]
fn disabled_cache_is_pass_through() {
    let mut scheduler = cached_scheduler(CacheBudget::disabled());
    for seed in [5u64, 5, 9] {
        scheduler.submit(GenRequest::new("m", 2, seed, GenSink::InMemory)).unwrap();
    }
    let report = scheduler.join().unwrap();
    assert!(report.all_ok(), "{}", report.render());
    assert_eq!(report.cache.hits + report.cache.misses, 0, "no lookups when disabled");
    for job in &report.jobs {
        assert_eq!(job.graph.as_deref().unwrap(), &cold_generation(2, job.seed));
        assert!(!job.cache_hit);
    }
}
