//! Golden output bytes: a fixed `(model, t, seed)` must encode to the same
//! TSV and binary payloads on every commit, not only on every thread
//! count. The digests below were recorded before the decode kernel was
//! rewritten; a change that moves any of them changes what users get for
//! a seed, and must say so and re-record them on purpose.
//!
//! The model is the `test_small` configuration fitted on the `tiny`
//! dataset from fixed seeds, once with density calibration (the default)
//! and once without, so both decode passes are pinned.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vrdag_suite::graph::io;
use vrdag_suite::prelude::*;
use vrdag_suite::vrdag::artifact_fingerprint;

const T_LEN: usize = 3;
const SEEDS: [u64; 3] = [0, 7, 4242];

fn fitted(calibrate_density: bool) -> Vrdag {
    let g = datasets::generate(&datasets::tiny(), 11);
    let mut cfg = VrdagConfig::test_small();
    cfg.epochs = 2;
    cfg.calibrate_density = calibrate_density;
    let mut model = Vrdag::new(cfg);
    model.fit(&g, &mut StdRng::seed_from_u64(11)).unwrap();
    model
}

/// FNV-1a digests of `(model artifact, TSV payloads, binary payloads)`,
/// the payloads concatenated over [`SEEDS`].
fn digests(model: &Vrdag) -> (u64, u64, u64) {
    let (mut tsv, mut bin) = (Vec::new(), Vec::new());
    for seed in SEEDS {
        let g = model.generate(T_LEN, &mut StdRng::seed_from_u64(seed)).unwrap();
        assert!(g.temporal_edge_count() > 0, "seed {seed}: an empty graph pins no decode");
        tsv = io::write_tsv(&g, tsv).unwrap();
        bin.extend_from_slice(io::encode_binary(&g).as_ref());
    }
    let model_fp = model.fingerprint().unwrap();
    (model_fp, artifact_fingerprint(&tsv), artifact_fingerprint(&bin))
}

#[test]
fn calibrated_generation_bytes_match_the_golden_digests() {
    assert_eq!(
        digests(&fitted(true)),
        (0x6e75_d60a_db57_4e58, 0xf0ee_88c4_4160_7ef4, 0xc707_2cce_4e60_9b64)
    );
}

#[test]
fn uncalibrated_generation_bytes_match_the_golden_digests() {
    assert_eq!(
        digests(&fitted(false)),
        (0xeb3e_1ac0_609c_1d99, 0xea17_bf02_178d_cbf4, 0x72a3_19c3_b4a2_5b4a)
    );
}
