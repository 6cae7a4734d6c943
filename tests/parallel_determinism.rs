//! Thread-count determinism suite: the intra-job parallel decode must
//! never change a single output byte. A `(model, t_len, seed)` triple
//! yields the same TSV and binary payloads whether the job runs on 1, 2,
//! 4, or 8 intra-job threads, cold or replayed from the snapshot cache,
//! and a mid-sequence cancellation trips at the same snapshot boundary
//! with the same delivered prefix.
//!
//! Thread counts are pinned with [`par::with_threads`] (cold paths) and
//! [`ServeConfig::intra_threads`] (served paths) rather than
//! `VRDAG_THREADS`, so the suite exercises every count even on a 1-core
//! runner — the env default is latched once per process and cannot be
//! varied from inside a test binary.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, OnceLock};
use vrdag_suite::prelude::*;
use vrdag_suite::tensor::par;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// What a sink observed for one snapshot: `(t, edges, attributes)`.
type DeliveredSnapshot = (usize, Vec<(u32, u32)>, Matrix);

/// One fitted model shared across cases (fitting dominates test time;
/// the properties quantify over seeds and thread counts, not models).
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

/// Cold (no serving stack) generation, encoded both ways, under whatever
/// thread override is active on the calling thread.
fn cold_payloads(t_len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let model = Vrdag::from_bytes(model_bytes()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let g = model.generate(t_len, &mut rng).unwrap();
    let tsv = vrdag_suite::graph::io::write_tsv(&g, Vec::new()).unwrap();
    let bin = vrdag_suite::graph::io::encode_binary(&g).as_ref().to_vec();
    (tsv, bin)
}

fn handle_with_intra_threads(n: usize) -> ServeHandle {
    let registry = ModelRegistry::new();
    registry.register_bytes("m", model_bytes().clone()).unwrap();
    ServeHandle::with_config(
        registry,
        ServeConfig {
            workers: 1,
            cache: CacheBudget::entries(8),
            intra_threads: Some(n),
            ..Default::default()
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cold `model.generate` + both encodings are bit-identical across
    /// intra-job thread counts. `with_threads` really fans the decode
    /// out (scoped threads, not cores), so this is a genuine 8-way run
    /// even on a 1-core machine.
    #[test]
    fn cold_generation_bytes_are_thread_count_invariant(
        seed in 0u64..1_000,
        t_len in 1usize..4,
    ) {
        let baseline = par::with_threads(1, || cold_payloads(t_len, seed));
        for &n in &THREAD_COUNTS[1..] {
            let run = par::with_threads(n, || cold_payloads(t_len, seed));
            prop_assert_eq!(&run.0, &baseline.0, "tsv bytes diverged at {} threads", n);
            prop_assert_eq!(&run.1, &baseline.1, "binary bytes diverged at {} threads", n);
        }
    }

    /// A mid-sequence [`CancelToken`] trip from inside the sink stops at
    /// the same snapshot boundary with the same delivered prefix on
    /// every thread count: the worker checks the token before taking
    /// each snapshot, so no snapshot past the trip is decoded or
    /// written.
    #[test]
    fn cancel_trips_at_the_same_boundary_on_every_thread_count(
        seed in 0u64..1_000,
        trip_t in 1usize..3,
    ) {
        let mut baseline: Option<Vec<DeliveredSnapshot>> = None;
        for &n in &THREAD_COUNTS {
            let handle = handle_with_intra_threads(n);
            let token = CancelToken::new();
            let delivered = Arc::new(Mutex::new(Vec::new()));
            let (rec, tok) = (Arc::clone(&delivered), token.clone());
            let ticket = handle
                .submit(
                    GenRequest::new(
                        "m",
                        64,
                        seed,
                        GenSink::Callback(Box::new(move |t, s| {
                            rec.lock().unwrap().push((t, s.edges().to_vec(), s.attrs().clone()));
                            if t == trip_t {
                                tok.cancel();
                            }
                        })),
                    )
                    .with_cancel(token),
                )
                .unwrap();
            let result = ticket.wait().unwrap();
            handle.shutdown();
            prop_assert!(result.cancelled, "{} threads: trip ignored", n);
            prop_assert!(result.is_ok(), "{} threads: {:?}", n, result.error);
            prop_assert_eq!(result.snapshots, trip_t + 1, "{} threads: wrong boundary", n);
            let got = Arc::try_unwrap(delivered).unwrap().into_inner().unwrap();
            prop_assert_eq!(got.len(), trip_t + 1);
            match &baseline {
                None => baseline = Some(got),
                Some(b) => prop_assert_eq!(&got, b, "prefix diverged at {} threads", n),
            }
        }
    }
}

/// Served generation — cold miss and cache replay, TSV and binary file
/// sinks — produces bit-identical files on every thread count, and all
/// of them match a cold 8-thread in-process run.
#[test]
fn served_cold_and_replay_bytes_are_thread_count_invariant() {
    let dir = std::env::temp_dir().join("vrdag_parallel_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let (t_len, seed) = (3usize, 77u64);
    let (cold_tsv, cold_bin) = par::with_threads(8, || cold_payloads(t_len, seed));
    for &n in &THREAD_COUNTS {
        let handle = handle_with_intra_threads(n);
        // First pass misses (cold decode), second pass replays the same
        // key out of the snapshot cache.
        let paths = [
            dir.join(format!("cold-{n}.tsv")),
            dir.join(format!("replay-{n}.tsv")),
            dir.join(format!("cold-{n}.vdag")),
            dir.join(format!("replay-{n}.vdag")),
        ];
        let mut results = Vec::new();
        for (i, path) in paths.iter().enumerate() {
            let sink = if i < 2 {
                GenSink::TsvFile(path.clone())
            } else {
                GenSink::BinaryFile(path.clone())
            };
            let ticket = handle.submit(GenRequest::new("m", t_len, seed, sink)).unwrap();
            results.push(ticket.wait().unwrap());
        }
        handle.shutdown();
        for (i, r) in results.iter().enumerate() {
            assert!(r.is_ok(), "{n} threads job {i}: {:?}", r.error);
        }
        assert!(!results[0].cache_hit, "{n} threads: first tsv pass must be cold");
        assert!(results[1].cache_hit, "{n} threads: second tsv pass must replay");
        assert!(results[3].cache_hit, "{n} threads: second binary pass must replay");
        for path in &paths[..2] {
            let bytes = std::fs::read(path).unwrap();
            assert_eq!(bytes, cold_tsv, "{n} threads: tsv bytes diverged ({path:?})");
        }
        for path in &paths[2..] {
            let bytes = std::fs::read(path).unwrap();
            assert_eq!(bytes, cold_bin, "{n} threads: binary bytes diverged ({path:?})");
        }
    }
}
