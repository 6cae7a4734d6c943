//! # vrdag
//!
//! From-scratch Rust implementation of **VRDAG** — *Efficient Dynamic
//! Attributed Graph Generation* (ICDE 2025): a variational recurrent
//! framework that generates a sequence of directed attributed graph
//! snapshots in one shot per timestep, avoiding the temporal random-walk
//! sampling and merging of prior deep dynamic graph generators.
//!
//! Components (paper section in parentheses):
//!
//! * [`encoder::BiFlowEncoder`] — bidirectional GIN message passing with
//!   jump-connection pooling (§III-B.2, Eq. 5–7).
//! * [`latent::GaussianHead`] — conditional prior / posterior networks with
//!   the reparameterization trick (§III-B, Eq. 3–4 / 8–9).
//! * [`decoder::MixBernoulliDecoder`] — mixture-of-Bernoulli one-shot
//!   adjacency sampler (§III-C.1, Eq. 11), with an `O(N²(h+K))` generation
//!   path exploiting the pairwise difference factorization.
//! * [`decoder::AttributeDecoder`] — GAT-based attribute synthesis on the
//!   generated topology (§III-C.2, Eq. 12).
//! * [`time2vec::Time2Vec`] — timestep embedding (§III-D, Eq. 13).
//! * [`model::Vrdag`] — joint ELBO optimization (§III-E, Eq. 14–18) and the
//!   Algorithm-1 generative process, plus the node addition/deletion
//!   extension (§III-H) in [`extension`].
//!
//! The crate builds only on `vrdag-tensor` (autograd) and `vrdag-graph`
//! (graph storage) — no external ML framework.

pub mod config;
pub mod decoder;
pub mod encoder;
pub mod extension;
pub mod latent;
pub mod model;
pub mod persist;
pub mod time2vec;

pub use config::{AttrLoss, VrdagConfig};
pub use decoder::{DecodeCounts, DecodePlan};
pub use model::{GenerationState, TrainStats, Vrdag};
pub use persist::{artifact_fingerprint, PersistError};
