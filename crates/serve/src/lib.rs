//! # vrdag-serve
//!
//! Model-serving subsystem for the VRDAG reproduction: the bridge from
//! "a blocking `Vrdag::generate` call" to a long-lived service that
//! answers many concurrent generation requests against shared, trained
//! models — over an in-process handle or a TCP wire protocol.
//!
//! The pieces, bottom up:
//!
//! * [`ModelRegistry`] — loads trained models (the `vrdag::persist`
//!   binary format), keeps the serialized artifact behind an `Arc`, and
//!   hands out cheap, thread-safe [`ModelHandle`]s keyed by name.
//!   Handles are `Send + Sync`; each worker *instantiates* a private
//!   `Vrdag` from the shared bytes (the model's autograd tensors are
//!   `Rc`-based and deliberately stay single-threaded) and caches it
//!   thread-locally, so the steady-state per-request cost is one hash
//!   lookup.
//! * [`SnapshotStream`] — a pull-based iterator over
//!   `vrdag::GenerationState` (Algorithm 1, one snapshot per step) that
//!   produces a seed-addressed synthetic sequence with memory bounded by
//!   a single snapshot, and can spill incrementally through the
//!   streaming TSV/binary writers of `vrdag_graph::io`.
//! * [`JobQueue`] + [`SnapshotCache`] — the scheduling spine: per-model
//!   affinity groups with priority-first selection, admission control,
//!   in-flight coalescing of identical requests, and a bounded LRU over
//!   generated sequences keyed by `(artifact fingerprint, t_len, seed)`.
//!   The generator's determinism contract makes hits bit-identical to
//!   cold generation.
//! * [`ServeHandle`] — the **service core**: a cheaply clonable,
//!   `Send + Sync` front door whose non-blocking `submit` returns a
//!   [`Ticket`] per job (result delivered over the ticket's private
//!   channel by the worker that ran it) and whose [`ServeStats`]
//!   snapshot exposes running cache / affinity / latency(p50/p95/p99) /
//!   dropped-job counters on demand. A batch is submit →
//!   [`Ticket::wait`] → [`ServeHandle::shutdown`].
//! * [`protocol`] + [`Frontend`] — a pipelined, tagged, newline-delimited
//!   TCP line protocol (`GEN model=<name> t=<T> seed=<S> fmt=tsv|bin
//!   [priority=P] [tag=<tag>]`) and the `std::net` listener that serves
//!   it. Tagged requests are answered by tag, not arrival order — one
//!   connection keeps many jobs in flight (bounded by
//!   [`FrontendConfig::max_inflight_per_conn`]) and a slow job never
//!   head-of-line-blocks a fast one. `SUB` streams each snapshot as its
//!   own `EVT` frame as generation proceeds (cache hits replay the same
//!   frames), `CANCEL tag=…` abandons a stream mid-flight via a
//!   [`CancelToken`], and admission control stays structured
//!   backpressure (`ERR queue-full …`, `ERR too-many-inflight …`,
//!   `ERR too-many-connections`) instead of dropped connections.
//! * [`Router`] — the sharded-serving front tier: terminates tenant
//!   `AUTH`, consistent-hashes `(model fingerprint, seed-range)` onto a
//!   fleet of backend nodes ([`backend`]), relays reply frames
//!   verbatim, retries idempotent `GEN`s across backend failures, and
//!   aggregates `STATS`/`MODELS`/`METRICS` fleet-wide — all behind the
//!   same wire protocol, so clients cannot tell one node from many.
//!
//! ```no_run
//! use vrdag_serve::{CacheBudget, GenRequest, GenSink, ModelRegistry, ServeConfig, ServeHandle};
//!
//! let registry = ModelRegistry::new();
//! registry.load_file("email", "model.vrdg").unwrap();
//! let handle = ServeHandle::with_config(
//!     registry,
//!     ServeConfig { workers: 4, cache: CacheBudget::entries(64), ..Default::default() },
//! )
//! .unwrap();
//! // Non-blocking: fire all submissions, then wait on the tickets.
//! let tickets: Vec<_> = (0..16u64)
//!     .map(|seed| {
//!         handle
//!             .submit(GenRequest::new(
//!                 "email",
//!                 14,
//!                 seed,
//!                 GenSink::TsvFile(format!("out/gen-{seed}.tsv").into()),
//!             ))
//!             .unwrap()
//!     })
//!     .collect();
//! for ticket in tickets {
//!     ticket.wait().unwrap();
//! }
//! println!("{}", handle.stats().render());
//! ```

pub mod backend;
mod cache;
mod codec;
mod core;
mod frontend;
pub mod httpexpo;
pub mod protocol;
mod queue;
mod reactor;
mod registry;
mod router;
mod stream;
pub mod tenant;

pub use backend::{BackendMeta, BackendPool};
pub use cache::{CacheBudget, CacheKey, CacheStats, SnapshotCache};
pub use core::{
    AffinityStats, CancelToken, CompletionNotify, GenRequest, GenSink, JobId, JobResult,
    LatencyStats, ServeConfig, ServeHandle, ServeStats, SnapshotCallback, StageLatencyStats,
    TenantStats, Ticket,
};
pub use frontend::{Frontend, FrontendConfig, LineClient, Reply};
pub use httpexpo::{HttpEndpoints, HttpExpo};
pub use queue::{JobQueue, LaneStats};
// Observability types a serving integration needs to configure
// [`ServeConfig::logger`] or consume [`ServeHandle::metrics`] without
// depending on `vrdag-obs` directly.
pub use registry::{ModelHandle, ModelRegistry};
pub use router::{Router, RouterConfig};
pub use stream::{SnapshotStream, StreamStats};
pub use tenant::{RateLimit, Tenant, TenantId, TenantRegistry, TenantRegistryBuilder};
pub use vrdag_obs::{
    mint_trace_id, JobTrace, Level, LogEvent, Logger, Registry as MetricsRegistry, Span,
    SpanRecorder, StageDurations,
};

/// Publish the constant `vrdag_build_info` gauge (labels: `version`,
/// `profile`) into `registry`, so fleet version skew is visible in one
/// scrape. Both tiers set it at construction — the serve core on its
/// metrics registry, the router on [`RouterConfig::metrics`].
pub fn publish_build_info(registry: &vrdag_obs::Registry) {
    registry
        .gauge(
            "vrdag_build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }),
            ],
        )
        .set(1);
}
// The OS helpers a load-driving harness needs (fd-limit raising, RSS
// sampling), re-exported so integrations and the CLI never depend on
// `vrdag-poll` directly.
pub use vrdag_poll::os as poll_os;

use std::fmt;

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// Model artifact (de)serialization failed.
    Persist(vrdag::PersistError),
    /// Generation failed (e.g. the artifact was never fitted).
    Generate(vrdag_graph::GeneratorError),
    /// Graph spill I/O failed.
    GraphIo(vrdag_graph::io::GraphIoError),
    /// Filesystem error.
    Io(std::io::Error),
    /// The requested model name is not registered.
    UnknownModel(String),
    /// A service core cannot be built with zero workers.
    NoWorkers,
    /// `submit` after the core was closed (graceful `close`/`shutdown`,
    /// `abort`). The frontend answers it as `ERR shutdown`.
    SchedulerClosed,
    /// Admission control: the queue already holds `cap` jobs. This is
    /// the backpressure signal — retry later or shed load.
    QueueFull {
        /// Jobs queued at rejection time.
        depth: usize,
        /// The configured queue-depth cap.
        cap: usize,
    },
    /// Per-tenant admission control: the submitting tenant is over one
    /// of its own quotas (`quota` names which — `rate`, `max_inflight`,
    /// or `queue_share`). Backpressure for *this tenant only*; other
    /// tenants' submissions are unaffected.
    QuotaExceeded {
        /// The tenant that hit its quota.
        tenant: String,
        /// Which quota was exhausted.
        quota: &'static str,
        /// The quota's configured cap (jobs, or jobs/sec for `rate`).
        cap: u64,
    },
    /// The request is malformed (e.g. `t_len == 0`).
    InvalidRequest(String),
    /// The job was discarded before a worker ran it (the core was
    /// aborted/dropped while the job sat queued), or its result was
    /// already consumed from the ticket.
    JobDropped,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Persist(e) => write!(f, "model artifact error: {e}"),
            ServeError::Generate(e) => write!(f, "generation error: {e}"),
            ServeError::GraphIo(e) => write!(f, "graph spill error: {e}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            ServeError::NoWorkers => write!(f, "service needs at least one worker"),
            ServeError::SchedulerClosed => {
                write!(f, "service closed; create a new one to submit more jobs")
            }
            ServeError::QueueFull { depth, cap } => {
                write!(f, "queue full: {depth} jobs queued at cap {cap}")
            }
            ServeError::QuotaExceeded { tenant, quota, cap } => {
                write!(f, "tenant {tenant} exceeded its {quota} quota (cap {cap})")
            }
            ServeError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServeError::JobDropped => {
                write!(f, "job dropped before completion (service aborted while it was queued)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<vrdag::PersistError> for ServeError {
    fn from(e: vrdag::PersistError) -> Self {
        ServeError::Persist(e)
    }
}

impl From<vrdag_graph::GeneratorError> for ServeError {
    fn from(e: vrdag_graph::GeneratorError) -> Self {
        ServeError::Generate(e)
    }
}

impl From<vrdag_graph::io::GraphIoError> for ServeError {
    fn from(e: vrdag_graph::io::GraphIoError) -> Self {
        ServeError::GraphIo(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
