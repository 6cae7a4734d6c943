//! Pull-based streaming generation: one snapshot per `next()`, memory
//! bounded by a single snapshot.

use crate::ServeError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use vrdag::{DecodeCounts, GenerationState, Vrdag};
use vrdag_graph::io::{BinaryStreamWriter, TsvStreamWriter};
use vrdag_graph::Snapshot;

/// What a finished (fully drained) stream produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Snapshots emitted.
    pub snapshots: usize,
    /// Total temporal edges across the emitted snapshots.
    pub edges: usize,
    /// Pairs the decoder considered and scored for the emitted snapshots.
    pub decode: DecodeCounts,
    /// Approximate in-memory bytes of the emitted snapshots
    /// (`Snapshot::approx_bytes` summed) — the unit of the serving
    /// layer's per-tenant `bytes_streamed` accounting.
    pub bytes: usize,
}

/// A seed-addressed, resumable snapshot stream over an owned model
/// instance (Algorithm 1 run one timestep per [`Iterator::next`] call).
///
/// Identical seeds yield identical sequences; the stream never holds more
/// than the snapshot it is currently yielding. Use the `spill_*` methods
/// to pipe the remainder through the streaming writers of
/// `vrdag_graph::io` without materializing a `DynamicGraph`.
pub struct SnapshotStream {
    model: Vrdag,
    state: GenerationState,
    t_len: usize,
}

impl SnapshotStream {
    /// Start a stream of `t_len` snapshots from `model`, deterministically
    /// addressed by `seed` (equivalent to
    /// `model.generate(t_len, &mut StdRng::seed_from_u64(seed))`, one
    /// snapshot at a time).
    pub fn new(model: Vrdag, t_len: usize, seed: u64) -> Result<SnapshotStream, ServeError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = model.begin_generation(&mut rng)?;
        Ok(SnapshotStream { model, state, t_len })
    }

    /// Snapshots still to be produced.
    pub fn remaining(&self) -> usize {
        self.t_len - self.state.t()
    }

    /// The model instance driving this stream.
    pub fn model(&self) -> &Vrdag {
        &self.model
    }

    /// Shape of the fitted model: `(n_nodes, n_attrs)`.
    fn shape(&self) -> (usize, usize) {
        (
            self.model.n_nodes().expect("streaming model is fitted"),
            self.model.n_attrs().expect("streaming model is fitted"),
        )
    }

    /// Drain the remaining snapshots through `write`, accumulating stats.
    fn drain(
        mut self,
        mut write: impl FnMut(&Snapshot) -> Result<(), ServeError>,
    ) -> Result<StreamStats, ServeError> {
        let mut stats = StreamStats::default();
        let before = self.state.decode_counts();
        for snapshot in &mut self {
            stats.snapshots += 1;
            stats.edges += snapshot.n_edges();
            stats.bytes += snapshot.approx_bytes();
            write(&snapshot)?;
        }
        let after = self.state.decode_counts();
        stats.decode = DecodeCounts {
            pairs: after.pairs - before.pairs,
            scored: after.scored - before.scored,
        };
        Ok(stats)
    }

    /// Drain the remaining snapshots into a streaming TSV writer,
    /// flushing per snapshot.
    pub fn spill_tsv(self, w: impl Write) -> Result<StreamStats, ServeError> {
        let (n, f) = self.shape();
        let mut sw = TsvStreamWriter::new(w, n, f, self.remaining())?;
        let stats = self.drain(|s| sw.write_snapshot(s).map_err(ServeError::from))?;
        sw.finish()?;
        Ok(stats)
    }

    /// Drain the remaining snapshots into the compact binary format,
    /// flushing per snapshot.
    pub fn spill_binary(self, w: impl Write) -> Result<StreamStats, ServeError> {
        let (n, f) = self.shape();
        let mut sw = BinaryStreamWriter::new(w, n, f, self.remaining())?;
        let stats = self.drain(|s| sw.write_snapshot(s).map_err(ServeError::from))?;
        sw.finish()?;
        Ok(stats)
    }
}

impl Iterator for SnapshotStream {
    type Item = Snapshot;

    fn next(&mut self) -> Option<Snapshot> {
        if self.state.t() >= self.t_len {
            return None;
        }
        Some(self.state.step(&self.model))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining();
        (r, Some(r))
    }
}

impl ExactSizeIterator for SnapshotStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vrdag::VrdagConfig;
    use vrdag_graph::DynamicGraph;

    fn fitted() -> Vrdag {
        let g = vrdag_datasets::generate(&vrdag_datasets::tiny(), 4);
        let mut cfg = VrdagConfig::test_small();
        cfg.epochs = 2;
        let mut m = Vrdag::new(cfg);
        let mut rng = StdRng::seed_from_u64(2);
        m.fit(&g, &mut rng).unwrap();
        m
    }

    #[test]
    fn stream_equals_one_shot_generate() {
        let model = fitted();
        let mut rng = StdRng::seed_from_u64(123);
        let one_shot = model.generate(5, &mut rng).unwrap();

        let stream = SnapshotStream::new(fitted_clone(&model), 5, 123).unwrap();
        assert_eq!(stream.len(), 5);
        let streamed: Vec<_> = stream.collect();
        assert_eq!(one_shot, DynamicGraph::new(streamed));
    }

    /// Clone a fitted model through its serialized form (Vrdag is not
    /// `Clone`; serving always works on artifact round-trips anyway).
    fn fitted_clone(m: &Vrdag) -> Vrdag {
        Vrdag::from_bytes(&m.to_bytes().unwrap()).unwrap()
    }

    #[test]
    fn spill_tsv_round_trips() {
        let model = fitted();
        let stream = SnapshotStream::new(fitted_clone(&model), 3, 7).unwrap();
        let mut buf = Vec::new();
        let stats = stream.spill_tsv(&mut buf).unwrap();
        assert_eq!(stats.snapshots, 3);

        let mut rng = StdRng::seed_from_u64(7);
        let expected = model.generate(3, &mut rng).unwrap();
        let loaded = {
            let dir = std::env::temp_dir().join("vrdag_serve_stream");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("spill.tsv");
            std::fs::write(&path, &buf).unwrap();
            vrdag_graph::io::load_tsv(&path).unwrap()
        };
        assert_eq!(expected, loaded);
        assert_eq!(stats.edges, expected.temporal_edge_count());
    }

    #[test]
    fn spill_binary_round_trips() {
        let model = fitted();
        let stream = SnapshotStream::new(fitted_clone(&model), 4, 11).unwrap();
        let mut buf = Vec::new();
        let stats = stream.spill_binary(&mut buf).unwrap();
        assert_eq!(stats.snapshots, 4);

        let mut rng = StdRng::seed_from_u64(11);
        let expected = model.generate(4, &mut rng).unwrap();
        let decoded = vrdag_graph::io::decode_binary(bytes::Bytes::from(buf)).unwrap();
        assert_eq!(expected, decoded);
    }

    #[test]
    fn partial_drain_then_spill_covers_the_tail() {
        let model = fitted();
        let mut stream = SnapshotStream::new(fitted_clone(&model), 5, 42).unwrap();
        let head: Vec<_> = (&mut stream).take(2).collect();
        assert_eq!(stream.remaining(), 3);
        let mut buf = Vec::new();
        let stats = stream.spill_tsv(&mut buf).unwrap();
        assert_eq!(stats.snapshots, 3);
        assert_eq!(head.len(), 2);
    }
}
